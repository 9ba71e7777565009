//! Data collection shared by the figure harnesses.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use uburst_asic::CounterId;
use uburst_core::series::UtilSample;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{port_bps, representative_port, single_port_spec};
use crate::pool::run_jobs;
use crate::scale::Scale;

/// One rack instance's single-port utilization samples.
pub struct PortUtilRun {
    /// Rack instance seed.
    pub seed: u64,
    /// Diurnal hour the campaign ran at.
    pub hour: f64,
    /// Per-interval utilization of the measured port.
    pub utils: Vec<UtilSample>,
}

/// Runs the paper's highest-resolution methodology for one rack type:
/// one representative port per rack instance, single byte counter at
/// `interval`, across the scale's rack count and sampled hours.
pub fn collect_single_port_utils(
    scale: Scale,
    rack_type: RackType,
    interval: Nanos,
) -> Arc<[PortUtilRun]> {
    collect_single_port_utils_spanned(
        scale.racks_per_type(),
        &scale.hours(),
        rack_type,
        interval,
        scale.campaign_span(),
    )
}

/// Everything a collection depends on: `(racks, hour bit patterns, rack
/// type, interval, span)`. Thread count and engine are absent because
/// neither changes a result (CI diffs both).
type MemoKey = (usize, Vec<u64>, RackType, Nanos, Nanos);

/// One cell per key, filled by whichever caller takes the key first.
type MemoMap = HashMap<MemoKey, Arc<OnceLock<Arc<[PortUtilRun]>>>>;

static MEMO: OnceLock<Mutex<MemoMap>> = OnceLock::new();

/// [`collect_single_port_utils`] with every knob explicit.
///
/// Fig. 3, Table 2, Fig. 4 and Fig. 6 all read the same dataset, so the
/// runs are memoized process-wide: each key is simulated once, even when
/// callers race (later ones wait on the key's own cell; the map lock is
/// held only for the lookup), and every caller gets the same allocation. Only the simulating call
/// records campaign telemetry; each call also adds one to
/// `uburst_campaign_memo_misses_total` (it simulated) or
/// `uburst_campaign_memo_hits_total` (it reused).
pub fn collect_single_port_utils_spanned(
    racks: usize,
    hours: &[f64],
    rack_type: RackType,
    interval: Nanos,
    span: Nanos,
) -> Arc<[PortUtilRun]> {
    let key = (
        racks,
        hours.iter().map(|h| h.to_bits()).collect(),
        rack_type,
        interval,
        span,
    );
    // The guard lives only for this lookup-or-insert, which leaves the
    // map valid at every step, so a poisoned lock is safe to reuse.
    let cell = MEMO
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(key)
        .or_default()
        .clone();
    let mut simulated = false;
    let runs = cell.get_or_init(|| {
        simulated = true;
        simulate_single_port_utils(racks, hours, rack_type, interval, span).into()
    });
    uburst_obs::counter_add(
        if simulated {
            "uburst_campaign_memo_misses_total"
        } else {
            "uburst_campaign_memo_hits_total"
        },
        1,
    );
    runs.clone()
}

/// Simulates one collection on the worker pool.
fn simulate_single_port_utils(
    racks: usize,
    hours: &[f64],
    rack_type: RackType,
    interval: Nanos,
    span: Nanos,
) -> Vec<PortUtilRun> {
    // One job per (hour, rack instance); the engine preserves this order.
    let mut jobs = Vec::with_capacity(hours.len() * racks);
    for (i, &hour) in hours.iter().enumerate() {
        for r in 0..racks {
            jobs.push((1000 * (i as u64 + 1) + r as u64, hour));
        }
    }
    run_jobs(jobs, move |(seed, hour)| {
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
    })
}

/// Flattens burst durations (µs) across rack instances.
pub fn all_burst_durations_us(runs: &[PortUtilRun], threshold: f64) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| {
            uburst_analysis::extract_bursts(&r.utils, threshold)
                .durations()
                .into_iter()
                .map(|d| d.as_micros_f64())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Flattens inter-burst gaps (µs) across rack instances.
pub fn all_gaps_us(runs: &[PortUtilRun], threshold: f64) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| {
            uburst_analysis::extract_bursts(&r.utils, threshold)
                .gaps
                .iter()
                .map(|g| g.as_micros_f64())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_analysis::HOT_THRESHOLD;

    #[test]
    fn collects_runs_across_hours_and_racks() {
        let runs = collect_single_port_utils_spanned(
            2,
            &[20.0],
            RackType::Hadoop,
            Nanos::from_micros(25),
            Nanos::from_millis(30),
        );
        assert_eq!(runs.len(), 2);
        for r in runs.iter() {
            assert!(r.utils.len() > 800, "run {} too short", r.seed);
        }
        let durations = all_burst_durations_us(&runs, HOT_THRESHOLD);
        assert!(!durations.is_empty(), "hadoop must burst");
        let gaps = all_gaps_us(&runs, HOT_THRESHOLD);
        assert!(gaps.len() + runs.len() >= durations.len());
    }
}
