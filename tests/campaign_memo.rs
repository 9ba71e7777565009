//! The single-port collection memo: Fig. 3, Table 2, Fig. 4 and Fig. 6
//! share one 25 µs dataset, and `collect_single_port_utils_spanned`
//! simulates each distinct collection once per process.
//!
//! The memo is process-wide, so every test below uses its own key (rack
//! type, hours, interval and span) unless it means to share one.

use std::sync::{Arc, Barrier};

use uburst::prelude::*;
use uburst_bench::campaign::single_port_spec;
use uburst_bench::figures::common::{collect_single_port_utils_spanned, PortUtilRun};
use uburst_bench::{port_bps, representative_port};

const INTERVAL: Nanos = Nanos::from_micros(25);
const SPAN: Nanos = Nanos::from_millis(5);

/// The same campaign as the memo's, run directly through
/// `CampaignSpec::run`: the rack instance's seed, its hour, the
/// representative port's byte counter.
fn direct(rack_type: RackType, seed: u64, hour: f64, interval: Nanos, span: Nanos) -> PortUtilRun {
    let mut cfg = ScenarioConfig::new(rack_type, seed);
    cfg.hour = hour;
    let port = representative_port(&cfg);
    let bps = port_bps(&cfg, port);
    let (spec, port) = single_port_spec(cfg, Some(port.0 as usize), interval, span);
    PortUtilRun {
        seed,
        hour,
        utils: spec.run().utilization(CounterId::TxBytes(port), bps),
    }
}

fn same_samples(a: &PortUtilRun, b: &PortUtilRun) -> bool {
    a.seed == b.seed
        && a.hour.to_bits() == b.hour.to_bits()
        && a.utils.len() == b.utils.len()
        && a.utils
            .iter()
            .zip(&b.utils)
            .all(|(x, y)| x.t == y.t && x.dt == y.dt && x.util.to_bits() == y.util.to_bits())
}

#[test]
fn memoized_runs_equal_direct_campaigns_bit_for_bit() {
    let hours = [20.0, 8.0];
    let runs = collect_single_port_utils_spanned(1, &hours, RackType::Web, INTERVAL, SPAN);
    assert_eq!(runs.len(), 2, "one run per (hour, rack instance)");
    for (i, (run, &hour)) in runs.iter().zip(&hours).enumerate() {
        let seed = 1000 * (i as u64 + 1);
        let reference = direct(RackType::Web, seed, hour, INTERVAL, SPAN);
        assert!(!reference.utils.is_empty(), "reference run is empty");
        assert!(
            same_samples(run, &reference),
            "memoized run (seed {}, hour {}) differs from a direct campaign",
            run.seed,
            run.hour
        );
    }
}

#[test]
fn repeat_calls_return_the_same_allocation() {
    let first = collect_single_port_utils_spanned(1, &[20.0, 8.0], RackType::Web, INTERVAL, SPAN);
    let again = collect_single_port_utils_spanned(1, &[20.0, 8.0], RackType::Web, INTERVAL, SPAN);
    assert!(Arc::ptr_eq(&first, &again), "repeat call re-simulated");
}

#[test]
fn racing_first_takes_share_one_result() {
    let threads = 4;
    let barrier = Barrier::new(threads);
    let runs: Vec<Arc<[PortUtilRun]>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    collect_single_port_utils_spanned(
                        1,
                        &[20.0],
                        RackType::Cache,
                        INTERVAL,
                        Nanos::from_millis(4),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &runs[1..] {
        assert!(
            Arc::ptr_eq(&runs[0], r),
            "racing callers got distinct results"
        );
    }
}

#[test]
fn interval_and_span_are_part_of_the_key() {
    let take = |interval, span| {
        collect_single_port_utils_spanned(1, &[14.0], RackType::Hadoop, interval, span)
    };
    let base = take(INTERVAL, SPAN);
    let coarser = take(Nanos::from_micros(50), SPAN);
    let shorter = take(INTERVAL, Nanos::from_millis(3));
    assert!(
        !Arc::ptr_eq(&base, &coarser),
        "interval missing from the key"
    );
    assert!(!Arc::ptr_eq(&base, &shorter), "span missing from the key");
    let samples = |runs: &Arc<[PortUtilRun]>| runs[0].utils.len();
    assert!(
        samples(&coarser) < samples(&base),
        "a 50us collection must have fewer samples than a 25us one"
    );
    assert!(
        samples(&shorter) < samples(&base),
        "a 3ms collection must have fewer samples than a 5ms one"
    );
}
