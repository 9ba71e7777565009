//! Operation accounting, the metric catalogue, and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::{fastest, peak_rss_mb, Cost};

/// Every per-layer metric a traced run prints, with its unit, in
/// `BENCHMARK.json` order. A workload that does not exercise a layer
/// reports 0 for it: no work was done there.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("bench.fig01_s", "s"),
    ("bench.fig02_s", "s"),
    ("bench.sec4.1_s", "s"),
    ("bench.table01_s", "s"),
    ("bench.fig03_s", "s"),
    ("bench.table02_s", "s"),
    ("bench.fig04_s", "s"),
    ("bench.fig05_s", "s"),
    ("bench.fig06_s", "s"),
    ("bench.fig07_s", "s"),
    ("bench.fig08_s", "s"),
    ("bench.fig09_s", "s"),
    ("bench.fig10_s", "s"),
    ("bench.campaigns", "count"),
    ("bench.pool_jobs", "count"),
    ("workloads.build_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.window_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.sim_ms_per_cpu_s", "ms/s"),
    ("sim.arena_high_water", "count"),
    ("poller.polls", "count"),
    ("poller.missed_deadlines", "count"),
    ("poller.read_errors", "count"),
    ("switch.tx_bytes", "bytes"),
    ("switch.dropped_packets", "count"),
    ("series.utilization_s", "s"),
    ("analysis.s", "s"),
    ("fleet.run_ms", "ms"),
    ("ship.transmissions", "count"),
    ("ship.retransmits", "count"),
    ("ship.ack_ratio", "ratio"),
    ("wal.bytes", "bytes"),
    ("wal.group_commits", "count"),
    ("wal.fsyncs", "count"),
    ("wal.recovered_records", "count"),
    ("wal.ingest_s", "s"),
    ("wal.recover_s", "s"),
    ("segment.scan_s", "s"),
    ("store.ingest_s", "s"),
    ("obs.overhead_s", "s"),
    ("trace.overhead_s", "s"),
];

/// One metric value: a measured quantity or an exact count.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// A measurement (time, ratio, rate).
    Real(f64),
    /// An exact count; repeats bit for bit for a given seed.
    Count(u64),
}

/// Per-layer values filled in by a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Value>);

impl Layers {
    /// Sets a measured value.
    pub fn real(&mut self, name: &'static str, v: f64) {
        self.set(name, Value::Real(v));
    }

    /// Sets an exact count.
    pub fn count(&mut self, name: &'static str, v: u64) {
        self.set(name, Value::Count(v));
    }

    fn set(&mut self, name: &'static str, v: Value) {
        assert!(
            LAYER_METRICS.iter().any(|&(n, _)| n == name),
            "{name} is not in the per-layer catalogue"
        );
        self.0.insert(name, v);
    }
}

/// Whole rounds attempted, operations failed, and whether every output
/// that was produced checked out.
#[derive(Debug)]
pub struct Tally {
    /// False once any check on a non-failed operation fails.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (the known WAL media-fault recoveries).
    pub failed: u64,
    reported: u32,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            correct: true,
            attempted: 0,
            failed: 0,
            reported: 0,
        }
    }
}

impl Tally {
    /// Records a correctness check; a failure marks the run incorrect and
    /// is described on stderr (the first few only).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            if self.reported < 20 {
                eprintln!("perfbench: check failed: {}", what());
                self.reported += 1;
            }
        }
    }
}

/// What one run prints.
pub struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, Value)>,
}

impl Outcome {
    /// The end-to-end result: `wall_s` and `cpu_s` are the run's
    /// [`fastest`] round, where `rounds[r][k]` is what operation `k` cost
    /// in round `r`.
    pub fn end_to_end(tally: Tally, rounds: &[Vec<Cost>], setup_s: f64) -> Self {
        let round = fastest(rounds);
        Outcome {
            tally,
            metrics: vec![
                ("wall_s", "s", Value::Real(round.wall)),
                ("cpu_s", "s", Value::Real(round.cpu)),
                ("setup_s", "s", Value::Real(setup_s)),
                ("peak_rss_mb", "MB", Value::Real(peak_rss_mb())),
            ],
        }
    }

    /// The traced result: every catalogued per-layer metric.
    pub fn per_layer(tally: Tally, layers: &Layers) -> Self {
        let metrics = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = layers.0.get(name).copied().unwrap_or(match unit {
                    "count" | "bytes" => Value::Count(0),
                    _ => Value::Real(0.0),
                });
                (name, unit, v)
            })
            .collect();
        Outcome { tally, metrics }
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.correct, self.tally.attempted, self.tally.failed
        )
        .unwrap();
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let value = match v {
                Value::Real(x) => {
                    assert!(x.is_finite(), "{name} is {x}");
                    format!("{x:?}")
                }
                Value::Count(n) => n.to_string(),
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        out.push_str("}}");
        out
    }
}

/// Rounds repeat until `seconds` of wall time have passed since `since`
/// (at least one round always runs).
pub fn more_rounds(since: std::time::Instant, seconds: f64, done: usize) -> bool {
    done == 0 || since.elapsed().as_secs_f64() < seconds
}

/// Splitmix64: derives independent sub-seeds from the benchmark seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
