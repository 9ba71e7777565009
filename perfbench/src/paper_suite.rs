//! `paper_suite`: every experiment of the paper's evaluation at
//! `Scale::Quick`, telemetry on and its snapshot rendered, exactly as the
//! `run_all_experiments` binary does. The experiments fix their own
//! seeds, so this workload ignores `--seed`.
//!
//! A round is one pass over the suite (one operation per experiment).
//! `wall_s` and `cpu_s` sum the experiment runners and the snapshot
//! rendering. A pass takes longer than a run's `--seconds`, so a run
//! times one pass. Before each experiment, outside its timer and with
//! telemetry paused, one warm pass builds and warms one scenario per rack
//! type: the set-up a fresh process pays before its first experiment.
//! `setup_s` is the time from `main` to the first warm pass plus the
//! fastest warm pass (see [`crate::clock::fastest`]). One warm pass per
//! experiment spreads the set-up samples over the whole run; a handful of
//! back-to-back passes would all land in one burst of host interference.

use std::hint::black_box;
use std::time::Instant;

use uburst_asic::CounterId;
use uburst_bench::{port_bps, representative_port, Scale};
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{build_scenario, RackType, ScenarioConfig};

use crate::campaign::{self, SimLayers};
use crate::clock::{fastest, timed, Cost};
use crate::report::{more_rounds, Layers, Outcome, Tally, LAYER_METRICS};
use crate::Args;

/// The seed of the first rack instance `collect_single_port_utils` builds
/// per rack type at quick scale (hour 20): the replayed campaigns.
const REPLAY_SEED: u64 = 1000;
/// The single-port experiments' poll interval.
const REPLAY_INTERVAL: Nanos = Nanos::from_micros(25);

/// One pass over the suite.
struct Pass {
    /// Each experiment runner in paper order, then the snapshot
    /// rendering.
    ops: Vec<Cost>,
    /// `(experiment id, report)` in paper order.
    reports: Vec<(&'static str, String)>,
    /// `(experiment id, host seconds)` of each runner.
    times: Vec<(&'static str, f64)>,
    /// What each warm pass cost.
    warm: Vec<Cost>,
    snapshot: uburst_obs::Snapshot,
}

/// Runs every experiment on the worker pool, each after a warm pass, then
/// renders the telemetry snapshot, as `run_all_experiments` does (minus
/// printing).
fn pass() -> Pass {
    uburst_obs::reset();
    uburst_obs::enable();
    let results = uburst_bench::run_jobs(
        uburst_bench::figures::all_experiments(),
        |(id, _title, runner)| {
            uburst_obs::disable();
            let warm = timed(warm_pass).1;
            uburst_obs::enable();
            let (report, cost) = timed(|| runner(Scale::Quick));
            (id, report, cost, warm)
        },
    );
    let (snapshot, render) = timed(|| {
        let snapshot = uburst_obs::snapshot();
        black_box(snapshot.flame_rollup());
        black_box(snapshot.to_prometheus());
        snapshot
    });
    let mut ops: Vec<Cost> = results.iter().map(|r| r.2).collect();
    ops.push(render);
    Pass {
        ops,
        times: results.iter().map(|r| (r.0, r.2.wall)).collect(),
        warm: results.iter().map(|r| r.3).collect(),
        reports: results.into_iter().map(|r| (r.0, r.1)).collect(),
        snapshot,
    }
}

/// Every experiment must return a report with at least one `[ok]` check
/// line and no `[MISS]`: those lines are the paper-shape properties.
fn check(p: &Pass, tally: &mut Tally) {
    let expected = uburst_bench::figures::all_experiments().len();
    tally.check(p.reports.len() == expected, || {
        format!("{} reports for {expected} experiments", p.reports.len())
    });
    for (id, report) in &p.reports {
        tally.attempted += 1;
        tally.check(report.contains("[ok]"), || {
            format!("{id}: no [ok] check line")
        });
        tally.check(!report.contains("[MISS]"), || {
            let missed: Vec<&str> = report.lines().filter(|l| l.contains("[MISS]")).collect();
            format!("{id}: {}", missed.join(" | "))
        });
    }
}

/// Builds and warms one scenario per rack type.
fn warm_pass() {
    for rack in RackType::ALL {
        let mut scenario = build_scenario(ScenarioConfig::new(rack, REPLAY_SEED));
        let warmup = scenario.recommended_warmup();
        scenario.sim.run_until(warmup);
        black_box(scenario.sim.dispatched());
    }
}

/// Runs the workload.
pub fn run(args: &Args, start: Instant) -> Outcome {
    let before_warm = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let t0 = Instant::now();
    if !args.trace {
        let mut rounds = Vec::new();
        let mut warm = Vec::new();
        while more_rounds(t0, args.seconds, rounds.len()) {
            let p = pass();
            check(&p, &mut tally);
            rounds.push(p.ops);
            warm.extend(p.warm.into_iter().map(|w| vec![w]));
        }
        let setup_s = before_warm + fastest(&warm).wall;
        return Outcome::end_to_end(tally, &rounds, setup_s);
    }

    // Traced: the timed pass already times each experiment runner, so
    // the traced run adds only the snapshot reads below to it. Then a
    // layer-by-layer replay of one campaign per rack type with the
    // single-port experiments' settings.
    let traced = pass();
    check(&traced, &mut tally);
    let mut layers = Layers::default();
    for &(id, secs) in &traced.times {
        let name = format!("bench.{id}_s");
        match LAYER_METRICS.iter().find(|(n, _)| *n == name) {
            Some(&(n, _)) => layers.real(n, secs),
            None => eprintln!("perfbench: experiment {id} has no {name} metric"),
        }
    }
    let ((campaigns, pool_jobs), reads) = timed(|| {
        let snap = &traced.snapshot;
        (
            snap.spans.get("pool/campaign_task").map_or(0, |s| s.count),
            snap.counters
                .get("uburst_pool_jobs_total")
                .copied()
                .unwrap_or(0),
        )
    });
    layers.count("bench.campaigns", campaigns);
    layers.count("bench.pool_jobs", pool_jobs);
    tally.check(campaigns > 0, || {
        "no pool/campaign_task spans recorded".into()
    });

    let (sim, obs_overhead) = replay();
    sim.write(&mut layers);
    layers.real("obs.overhead_s", obs_overhead);
    layers.real("trace.overhead_s", reads.wall);
    Outcome::per_layer(tally, &layers)
}

/// Replays one single-port campaign per rack type (the suite's settings:
/// representative port, 25 µs, quick span, peak hour) layer by layer,
/// telemetry on as in the suite, and again with telemetry off. Returns the
/// telemetry-on layer totals and the paired on-minus-off wall time.
fn replay() -> (SimLayers, f64) {
    let mut layers = SimLayers::default();
    let mut overhead = 0.0;
    for rack in RackType::ALL {
        let cfg = ScenarioConfig::new(rack, REPLAY_SEED);
        let port = representative_port(&cfg);
        let bps = port_bps(&cfg, port);
        let campaign = |on: bool| {
            if on {
                uburst_obs::enable();
            } else {
                uburst_obs::disable();
            }
            campaign::run(
                cfg.clone(),
                vec![CounterId::TxBytes(port)],
                REPLAY_INTERVAL,
                Scale::Quick.campaign_span(),
            )
        };
        let on = campaign(true);
        let off = campaign(false);
        let total = |r: &campaign::CampaignRun| r.build.wall + r.warmup.wall + r.window.wall;
        overhead += total(&on) - total(&off);
        layers.add(&on, bps);
    }
    uburst_obs::enable();
    (layers, overhead)
}
