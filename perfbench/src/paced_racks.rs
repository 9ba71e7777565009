//! `paced_racks`: campaigns on Web, Cache and Hadoop racks whose servers'
//! NICs are all paced (the §7 pacing ablation's two rates). Paced NICs
//! refuse the hybrid engine's fast path, so every frame takes the
//! per-packet transmit-complete and pacer-timer path that `paper_suite`
//! never exercises. Telemetry is off.
//!
//! A round is one campaign per (rack type, pacing rate). `setup_s` sums
//! each campaign's `build_scenario` and warmup; `wall_s` and `cpu_s` sum
//! its `Poller::spawn` and polled window. Each takes every campaign's
//! fastest repetition over the run's rounds (see [`crate::clock::fastest`]).

use std::time::Instant;

use uburst_analysis::median;
use uburst_asic::CounterId;
use uburst_bench::{port_bps, representative_port};
use uburst_sim::node::PortId;
use uburst_sim::packet::MTU_FRAME;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{RackType, ScenarioConfig};

use crate::campaign::{self, CampaignRun, SimLayers};
use crate::clock::{fastest, timed, Cost};
use crate::report::{mix, more_rounds, Layers, Outcome, Tally};
use crate::Args;

/// Server NIC pacing rates, as in the §7 pacing ablation.
const PACE_BPS: [u64; 2] = [5_000_000_000, 2_500_000_000];
/// Poll interval: the paper's finest single-counter resolution.
const INTERVAL: Nanos = Nanos::from_micros(25);
/// Polled window per campaign, after the 40 ms warmup.
const WINDOW: Nanos = Nanos::from_millis(50);
/// Server-facing ports whose RX byte counters are polled alongside the
/// measured port's TX byte counter.
const RX_PORTS: usize = 4;

/// One campaign of a round.
struct Plan {
    cfg: ScenarioConfig,
    /// The measured port (TX bytes).
    port: PortId,
    /// Server-facing ports whose RX bytes are polled.
    rx_ports: Vec<PortId>,
    pace_bps: u64,
}

impl Plan {
    fn counters(&self) -> Vec<CounterId> {
        std::iter::once(CounterId::TxBytes(self.port))
            .chain(self.rx_ports.iter().map(|&p| CounterId::RxBytes(p)))
            .collect()
    }
}

/// The round's campaigns: each rack type seeded from `seed`, measured at
/// both pacing rates (same rack, same seed: a paired ablation).
fn plans(seed: u64) -> Vec<Plan> {
    let mut out = Vec::new();
    for (i, rack) in RackType::ALL.into_iter().enumerate() {
        let rack_seed = mix(seed ^ (i as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        for pace_bps in PACE_BPS {
            let mut cfg = ScenarioConfig::new(rack, rack_seed);
            cfg.nic_pace_bps = Some(pace_bps);
            let port = representative_port(&cfg);
            let n = cfg.n_servers as u64;
            let mut rx_ports: Vec<PortId> = Vec::with_capacity(RX_PORTS);
            let mut k = 0u64;
            while rx_ports.len() < RX_PORTS {
                let p = PortId((mix(rack_seed ^ k) % n) as u16);
                if !rx_ports.contains(&p) {
                    rx_ports.push(p);
                }
                k += 1;
            }
            out.push(Plan {
                cfg,
                port,
                rx_ports,
                pace_bps,
            });
        }
    }
    out
}

/// Bytes a link of `bps` can carry in `dt_ns`, plus one frame of slack
/// (a frame counted at the interval's edge).
fn byte_bound(bps: u64, dt_ns: u64) -> f64 {
    bps as f64 * dt_ns as f64 / 8e9 + f64::from(MTU_FRAME)
}

/// Checks one campaign against properties any correct run must have.
fn check(plan: &Plan, run: &CampaignRun, tally: &mut Tally) {
    let rack = plan.cfg.rack_type.name();
    let pace = plan.pace_bps;
    tally.check(run.poller.polls > 0, || format!("{rack}@{pace}: no polls"));
    let tx_bps = port_bps(&plan.cfg, plan.port);
    for (i, (counter, s)) in run.series.iter().enumerate() {
        let bps = if i == 0 { tx_bps } else { pace };
        for w in 0..s.len().saturating_sub(1) {
            let (t0, t1) = (s.ts[w], s.ts[w + 1]);
            let (v0, v1) = (s.vs[w], s.vs[w + 1]);
            tally.check(v1 >= v0, || {
                format!("{rack}@{pace}: {counter:?} decreased {v0} -> {v1} at t={t1}")
            });
            let delta = v1.saturating_sub(v0) as f64;
            tally.check(delta <= byte_bound(bps, t1 - t0), || {
                format!(
                    "{rack}@{pace}: {counter:?} moved {delta} bytes in {} ns (bound {:.0})",
                    t1 - t0,
                    byte_bound(bps, t1 - t0)
                )
            });
        }
    }
    let tor = &run.tor;
    let held = tor.rx_bytes as i128 - tor.tx_bytes as i128 - tor.dropped_bytes as i128;
    let buffer = plan.cfg.clos.tor_switch.buffer_bytes as i128;
    tally.check((0..=buffer).contains(&held), || {
        format!("{rack}@{pace}: ToR rx - tx - dropped = {held} bytes, outside [0, {buffer}]")
    });
    tally.check(tor.unroutable == 0 && tor.hairpin == 0, || {
        format!(
            "{rack}@{pace}: unroutable {} hairpin {}",
            tor.unroutable, tor.hairpin
        )
    });
}

/// What one round cost.
struct Round {
    /// Each campaign's `Poller::spawn` plus polled window.
    windows: Vec<Cost>,
    /// Each campaign's `build_scenario` plus warmup.
    setups: Vec<Cost>,
    /// Host seconds of the traced run's own layer calls
    /// ([`SimLayers::add`]); 0 untraced.
    traced: f64,
}

/// One round: every plan once. Fills `layers` when given.
fn round(plans: &[Plan], tally: &mut Tally, mut layers: Option<&mut SimLayers>) -> Round {
    let mut r = Round {
        windows: Vec::with_capacity(plans.len()),
        setups: Vec::with_capacity(plans.len()),
        traced: 0.0,
    };
    for plan in plans {
        let run = campaign::run(plan.cfg.clone(), plan.counters(), INTERVAL, WINDOW);
        tally.attempted += 1;
        check(plan, &run, tally);
        r.windows.push(run.window);
        r.setups.push(run.build + run.warmup);
        if let Some(l) = layers.as_deref_mut() {
            r.traced += timed(|| l.add(&run, port_bps(&plan.cfg, plan.port))).1.wall;
        }
    }
    r
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    uburst_obs::disable();
    let plans = plans(args.seed);
    let mut tally = Tally::default();
    let t0 = Instant::now();
    if !args.trace {
        let mut rounds = Vec::new();
        let mut setups = Vec::new();
        while more_rounds(t0, args.seconds, rounds.len()) {
            let r = round(&plans, &mut tally, None);
            rounds.push(r.windows);
            setups.push(r.setups);
        }
        return Outcome::end_to_end(tally, &rounds, fastest(&setups).wall);
    }

    // Traced: the per-layer figures come from the first round; every
    // round's traced layer calls give `trace.overhead_s`. The timers
    // around build, warmup and window run untraced too, so those calls
    // are all the traced run adds to a round.
    let mut sim = None;
    let mut added = Vec::new();
    while more_rounds(t0, args.seconds, added.len()) {
        let mut l = SimLayers::default();
        added.push(round(&plans, &mut tally, Some(&mut l)).traced);
        sim.get_or_insert(l);
    }
    let mut layers = Layers::default();
    sim.expect("one traced round").write(&mut layers);
    layers.real("obs.overhead_s", obs_overhead(&plans[0]));
    layers.real("trace.overhead_s", median(&mut added));
    Outcome::per_layer(tally, &layers)
}

/// What enabling telemetry would cost this workload: one campaign's
/// window with telemetry on minus the same window with it off.
fn obs_overhead(plan: &Plan) -> f64 {
    let window = |on: bool| {
        if on {
            uburst_obs::enable();
        }
        let run = campaign::run(plan.cfg.clone(), plan.counters(), INTERVAL, WINDOW);
        uburst_obs::disable();
        run.window.wall
    };
    let on = window(true);
    let off = window(false);
    on - off
}
