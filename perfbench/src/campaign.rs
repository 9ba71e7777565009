//! One measurement campaign driven layer by layer through the program's
//! public functions, with a timer around each layer: scenario build
//! (`uburst-workloads`), warmup and the polled window (`uburst-sim` with
//! the `uburst-core` poller on the `uburst-asic` counter bank), the
//! utilization reduction (`uburst-core` series) and the burst analysis
//! (`uburst-analysis`). It performs the same steps, with the same poller
//! seed and access model, as `uburst_bench::CampaignSpec::run`.

use std::hint::black_box;

use uburst_analysis::{
    extract_bursts, fit_transition_matrix, hot_chain, ks_test_exponential, pearson, Ecdf,
    HOT_THRESHOLD,
};
use uburst_asic::{AccessModel, CounterId};
use uburst_core::poller::{Poller, PollerStats};
use uburst_core::series::Series;
use uburst_core::spec::CampaignConfig;
use uburst_sim::arena::ArenaStats;
use uburst_sim::switch::{Switch, SwitchStats};
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::{build_scenario, ScenarioConfig};

use crate::clock::{timed, Cost};

/// Slack simulated past the window's stop so the last poll completes
/// (as `CampaignSpec::run` does).
const STOP_SLACK: Nanos = Nanos::from_millis(1);

/// What a layered campaign measured and produced.
pub struct CampaignRun {
    /// `build_scenario`.
    pub build: Cost,
    /// The warmup `Simulator::run_until`.
    pub warmup: Cost,
    /// `Poller::spawn` plus the polled window's `Simulator::run_until`.
    pub window: Cost,
    /// Simulated nanoseconds covered by warmup and window.
    pub sim_ns: u64,
    /// Events dispatched over the whole campaign.
    pub events: u64,
    /// The simulator's packet arena at the end.
    pub arena: ArenaStats,
    /// The poller's loop statistics.
    pub poller: PollerStats,
    /// The measured ToR's totals at the end.
    pub tor: SwitchStats,
    /// `(counter, series)` in campaign order.
    pub series: Vec<(CounterId, Series)>,
}

/// Builds, warms and polls one scenario: `counters` polled together at
/// `interval` for `span` after the scenario's recommended warmup.
pub fn run(
    cfg: ScenarioConfig,
    counters: Vec<CounterId>,
    interval: Nanos,
    span: Nanos,
) -> CampaignRun {
    let seed = cfg.seed;
    let (mut scenario, build) = timed(|| build_scenario(cfg));
    let warmup_at = scenario.recommended_warmup();
    let ((), warmup) = timed(|| {
        scenario.sim.run_until(warmup_at);
    });
    let stop = warmup_at + span;
    let (id, window) = timed(|| {
        let poller = Poller::in_memory(
            scenario.counters.clone(),
            AccessModel::default(),
            CampaignConfig::group("bench", counters, interval),
            seed ^ 0x9e37_79b9,
        )
        .expect("benchmark campaign is well-formed");
        let id = poller
            .spawn(&mut scenario.sim, warmup_at, stop)
            .expect("benchmark window is non-empty");
        scenario.sim.run_until(stop + STOP_SLACK);
        id
    });
    let events = scenario.sim.dispatched();
    let arena = scenario.sim.arena_stats();
    let poller = scenario.sim.node_mut::<Poller>(id);
    let poller_stats = poller.stats();
    let series = poller.take_series().expect("in-memory campaign");
    let tor = scenario.sim.node::<Switch>(scenario.tor()).stats();
    CampaignRun {
        build,
        warmup,
        window,
        sim_ns: (stop + STOP_SLACK).as_nanos(),
        events,
        arena,
        poller: poller_stats,
        tor,
        series,
    }
}

/// The analysis layer over one utilization series: burst extraction, the
/// duration ECDF, a KS test of the inter-burst gaps against an
/// exponential, the hot/cold Markov fit, and the lag-1 Pearson
/// correlation. Returns the number of bursts found.
pub fn analyze(utils: &[uburst_core::series::UtilSample]) -> usize {
    let bursts = extract_bursts(utils, HOT_THRESHOLD);
    let durations: Vec<f64> = bursts
        .durations()
        .iter()
        .map(|d| d.as_micros_f64())
        .collect();
    let ecdf = Ecdf::new(durations);
    black_box(ecdf.quantile(0.9));
    let gaps: Vec<f64> = bursts.gaps.iter().map(|g| g.as_micros_f64()).collect();
    if gaps.len() >= 2 {
        black_box(ks_test_exponential(&gaps));
    }
    black_box(fit_transition_matrix(&hot_chain(utils, HOT_THRESHOLD)));
    if utils.len() >= 3 {
        let xs: Vec<f64> = utils.iter().map(|u| u.util).collect();
        black_box(pearson(&xs[..xs.len() - 1], &xs[1..]));
    }
    bursts.bursts.len()
}

/// Per-layer totals over the campaigns of one traced round.
#[derive(Debug, Default)]
pub struct SimLayers {
    build: f64,
    warmup: Cost,
    window: Cost,
    events: u64,
    sim_ns: u64,
    arena_high_water: usize,
    polls: u64,
    missed_deadlines: u64,
    read_errors: u64,
    tx_bytes: u64,
    dropped_packets: u64,
    utilization_s: f64,
    analysis_s: f64,
}

impl SimLayers {
    /// Adds one campaign, then times the utilization reduction of its
    /// first series (the measured port's TX bytes, at `bps`) and the
    /// analysis layer over the result.
    pub fn add(&mut self, run: &CampaignRun, bps: u64) {
        self.build += run.build.wall;
        self.warmup += run.warmup;
        self.window += run.window;
        self.events += run.events;
        self.sim_ns += run.sim_ns;
        self.arena_high_water = self.arena_high_water.max(run.arena.high_water);
        self.polls += run.poller.polls;
        self.missed_deadlines += run.poller.missed_deadlines;
        self.read_errors += run.poller.read_errors;
        self.tx_bytes += run.tor.tx_bytes;
        self.dropped_packets += run.tor.dropped_packets;
        let (utils, util_cost) = timed(|| run.series[0].1.utilization(bps));
        self.utilization_s += util_cost.wall;
        let (_, analysis_cost) = timed(|| black_box(analyze(&utils)));
        self.analysis_s += analysis_cost.wall;
    }

    /// Writes the `workloads.*`, `sim.*`, `poller.*`, `switch.*`,
    /// `series.*` and `analysis.*` metrics.
    pub fn write(&self, layers: &mut crate::report::Layers) {
        layers.real("workloads.build_s", self.build);
        layers.real("sim.warmup_s", self.warmup.wall);
        layers.real("sim.window_s", self.window.wall);
        layers.count("sim.events", self.events);
        let sim_wall = self.warmup.wall + self.window.wall;
        let sim_cpu = self.warmup.cpu + self.window.cpu;
        layers.real(
            "sim.ns_per_event",
            sim_wall * 1e9 / self.events.max(1) as f64,
        );
        layers.real(
            "sim.sim_ms_per_cpu_s",
            self.sim_ns as f64 / 1e6 / sim_cpu.max(1e-9),
        );
        layers.count("sim.arena_high_water", self.arena_high_water as u64);
        layers.count("poller.polls", self.polls);
        layers.count("poller.missed_deadlines", self.missed_deadlines);
        layers.count("poller.read_errors", self.read_errors);
        layers.count("switch.tx_bytes", self.tx_bytes);
        layers.count("switch.dropped_packets", self.dropped_packets);
        layers.real("series.utilization_s", self.utilization_s);
        layers.real("analysis.s", self.analysis_s);
    }
}
