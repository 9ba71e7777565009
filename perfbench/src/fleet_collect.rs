//! `fleet_collect`: the collection tier alone, over switch streams
//! simulated once in set-up.
//!
//! Set-up simulates `SWITCHES` fleet switches (`ScenarioConfig::
//! for_fleet_switch`, `run_campaign_hardened`, fault-free) once, cuts
//! each switch's uplink TX-byte series into shipping rounds as the
//! `ext_fleet` harness does, and derives the crash sweep from a reference
//! run. `setup_s` is the fastest simulation pass plus that preparation:
//! the simulation is timed again `SETUP_PASSES - 1` times at even points
//! of the run, between rounds and with its output discarded, so that one
//! burst of host interference cannot set `setup_s`.
//!
//! A round, telemetry on as in `ext_fleet`, is:
//! * one `run_fleet_with_crashes` over ideal links;
//! * one with `LinkPlan::HOSTILE` on a seeded subset of switches;
//! * `CRASH_RUNS` runs, each killing the busiest region's WAL at one
//!   offset of a `CrashPlan::sweep` lifted by `RegionCrashPlan::sweep_region`;
//! * one media-fault recovery per `FLIP_SEGMENTS` entry: one bit flipped
//!   inside a sealed segment of a fixed WAL image, then
//!   `DurableStore::recover_replay`.
//!
//! `wall_s` and `cpu_s` sum those calls (the benchmark's input copies and
//! output checks are outside the timers), each call's fastest repetition
//! over the run's rounds (see [`crate::clock::fastest`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use uburst_analysis::median;
use uburst_asic::CounterId;
use uburst_bench::run_campaign_hardened;
use uburst_core::batch::{Batch, SourceId};
use uburst_core::failpoint::{CrashPlan, RegionCrashPlan};
use uburst_core::fleet::{
    rendezvous_region, run_fleet_with_crashes, FleetConfig, FleetOutcome, RoundInput, SwitchStream,
};
use uburst_core::link::LinkPlan;
use uburst_core::poller::RetryPolicy;
use uburst_core::segment::scan_segment;
use uburst_core::series::Series;
use uburst_core::ship::SeqBatch;
use uburst_core::store::{SampleStore, SeqIngest};
use uburst_core::wal::{DurableStore, FsyncPolicy, MemStorage, WalConfig, WalStorage};
use uburst_sim::node::PortId;
use uburst_sim::time::Nanos;
use uburst_workloads::scenario::ScenarioConfig;

use crate::campaign::{self, SimLayers};
use crate::clock::{fastest, timed, Cost};
use crate::report::{mix, more_rounds, Layers, Outcome, Tally};
use crate::Args;

/// Switches in the fleet.
const SWITCHES: u32 = 12;
/// Per-switch poll interval and window, as `FleetSpec` at quick scale.
const INTERVAL: Nanos = Nanos::from_micros(40);
const SPAN: Nanos = Nanos::from_millis(25);
/// Shipping rounds each switch's series is cut into.
const STREAM_ROUNDS: usize = 8;
/// Timed simulation passes per untraced run (`setup_s` takes the fastest).
const SETUP_PASSES: usize = 4;
/// Crash runs per round, spread evenly over the sweep's offsets.
const CRASH_RUNS: usize = 48;
/// Fleet runs per round: ideal, hostile, then the crash runs.
const FLEET_RUNS: usize = 2 + CRASH_RUNS;
/// Sealed segments of the media image that get one flipped bit each: one
/// media-fault recovery per entry, per round.
const FLIP_SEGMENTS: [usize; 4] = [1, 3, 5, 7];
/// Ideal/telemetry-off pairs behind `obs.overhead_s`.
const OBS_PAIRS: usize = 5;

type Key = (SourceId, CounterId);

/// The benchmark's own input: the reference every output is checked
/// against.
struct Input {
    /// Ideal-link streams, in source order.
    streams: Vec<SwitchStream>,
    /// Every switch's full uplink series.
    series: BTreeMap<Key, Series>,
    /// Per-switch uplink line rate.
    uplink_bps: Vec<u64>,
}

/// Simulates the fleet and cuts its streams (one set-up pass).
fn simulate(fleet_seed: u64) -> Input {
    let runs = uburst_bench::run_jobs((0..SWITCHES).collect(), |i| {
        let cfg = ScenarioConfig::for_fleet_switch(fleet_seed, i);
        let bps = cfg.clos.uplink.bandwidth_bps;
        let counters: Vec<CounterId> = (0..cfg.clos.n_fabric)
            .map(|f| CounterId::TxBytes(PortId((cfg.n_servers + f) as u16)))
            .collect();
        let run = run_campaign_hardened(
            cfg,
            counters,
            INTERVAL,
            SPAN,
            None,
            RetryPolicy::default(),
            None,
        );
        (i, bps, run.series)
    });
    let mut input = Input {
        streams: Vec::new(),
        series: BTreeMap::new(),
        uplink_bps: Vec::new(),
    };
    for (i, bps, series) in runs {
        let source = SourceId(i);
        let mut rounds: Vec<RoundInput> =
            (0..STREAM_ROUNDS).map(|_| RoundInput::default()).collect();
        for (counter, s) in series {
            let per = s.len().div_ceil(STREAM_ROUNDS).max(1);
            for (r, round) in rounds.iter_mut().enumerate() {
                let lo = (r * per).min(s.len());
                let hi = ((r + 1) * per).min(s.len());
                if lo == hi {
                    break;
                }
                round.batches.push(Batch {
                    source,
                    campaign: "fleet".into(),
                    counter,
                    samples: Series {
                        ts: s.ts[lo..hi].to_vec(),
                        vs: s.vs[lo..hi].to_vec(),
                    },
                });
            }
            input.series.insert((source, counter), s);
        }
        input.streams.push(SwitchStream {
            source,
            link: LinkPlan::IDEAL,
            link_seed: fleet_seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            rounds,
        });
        input.uplink_bps.push(bps);
    }
    input
}

/// Checks a fleet outcome against the input: the coverage ledger tiles
/// and honours acks for every switch, and every stored sample is the input
/// sample at its timestamp. With `exact`, the global store must equal the
/// input exactly.
fn check_outcome(input: &Input, out: &FleetOutcome, exact: bool, label: &str, tally: &mut Tally) {
    for s in &out.coverage.switches {
        tally.check(
            s.produced == s.stored + s.excluded + s.refused + s.undelivered(),
            || format!("{label}: switch {:?} ledger does not tile: {s:?}", s.source),
        );
        tally.check(s.stored >= s.acked, || {
            format!(
                "{label}: switch {:?} stored {} < acked {}",
                s.source, s.stored, s.acked
            )
        });
    }
    let keys = out.store.keys();
    tally.check(keys.len() <= input.series.len(), || {
        format!(
            "{label}: {} stored series for {} inputs",
            keys.len(),
            input.series.len()
        )
    });
    if exact {
        tally.check(keys.len() == input.series.len(), || {
            format!(
                "{label}: {} stored series for {} inputs",
                keys.len(),
                input.series.len()
            )
        });
    }
    for k in keys {
        let Some(want) = input.series.get(&(k.source, k.counter)) else {
            tally.check(false, || {
                format!("{label}: stored series {k:?} not in the input")
            });
            continue;
        };
        let got = out
            .store
            .series(k.source, k.counter)
            .expect("listed key has a series");
        if exact {
            tally.check(got.ts == want.ts && got.vs == want.vs, || {
                format!(
                    "{label}: {k:?} differs from the input ({} vs {} samples)",
                    got.len(),
                    want.len()
                )
            });
            continue;
        }
        let wrong = got
            .ts
            .iter()
            .zip(&got.vs)
            .filter(|&(t, v)| want.ts.binary_search(t).map(|i| want.vs[i]) != Ok(*v))
            .count();
        tally.check(wrong == 0, || {
            format!("{label}: {k:?} has {wrong} stored samples that differ from the input")
        });
    }
}

/// A fixed region WAL image with known damage points, independent of the
/// seed: the media-fault recoveries' input.
struct MediaImage {
    cfg: WalConfig,
    /// `(segment index, bytes)` in index order.
    segments: Vec<(u64, Vec<u8>)>,
    /// Records in log order.
    records: Vec<SeqBatch>,
    /// Global byte offset at which each record ends (the writer's count).
    record_ends: Vec<u64>,
    /// `(segment position in `segments`, byte, bit)` of each flip.
    flips: Vec<(usize, usize, u8)>,
}

impl MediaImage {
    /// 4 sources × 4 counters × 6 rounds of 48-sample batches, ingested
    /// round by round through `DurableStore::ingest_group` into 8 KiB
    /// segments; one flip in the middle of each of 4 sealed segments.
    fn build() -> MediaImage {
        let cfg = WalConfig {
            segment_max_bytes: 8 << 10,
            fsync: FsyncPolicy::EveryN(16),
        };
        let disk = MemStorage::new();
        let mut ds = DurableStore::create(disk.clone(), cfg).expect("create media image WAL");
        let mut records = Vec::new();
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut out = Vec::new();
        for round in 0..6u64 {
            let mut window = Vec::new();
            for src in 0..4u32 {
                for c in 0..4u16 {
                    let seq = round * 4 + u64::from(c);
                    let mut series = Series::new();
                    let mut v = (round * 48) * 1_000;
                    for k in 0..48u64 {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        v += lcg >> 52;
                        series.push(Nanos::from_micros(40 * (round * 48 + k + 1)), v);
                    }
                    window.push(SeqBatch {
                        seq,
                        watermark: seq + 1,
                        batch: Batch {
                            source: SourceId(src),
                            campaign: "media".into(),
                            counter: CounterId::TxBytes(PortId(c)),
                            samples: series,
                        },
                    });
                }
            }
            // Log order is per-source sequence order within the window.
            window.sort_by_key(|sb| (sb.seq / 4, sb.batch.source, sb.seq));
            ds.ingest_group(&window, &mut out)
                .expect("ingest media image");
            assert!(
                out.iter().all(|(o, _)| *o == SeqIngest::Stored),
                "media image records are all in sequence"
            );
            records.extend(window);
        }
        ds.flush().expect("flush media image");
        let record_ends = ds.wal().record_ends().to_vec();
        let segments: Vec<(u64, Vec<u8>)> = disk
            .list()
            .expect("list media image")
            .into_iter()
            .map(|i| (i, disk.read(i).expect("read media image segment")))
            .collect();
        let flips: Vec<(usize, usize, u8)> = FLIP_SEGMENTS
            .into_iter()
            .map(|s| (s, segments[s].1.len() / 2, 3))
            .collect();
        assert!(
            flips.iter().all(|&(s, _, _)| s + 1 < segments.len()),
            "every flip lands in a sealed segment"
        );
        MediaImage {
            cfg,
            segments,
            records,
            record_ends,
            flips,
        }
    }

    /// Index of the record whose frame holds flip `k`, from the writer's
    /// own byte accounting.
    fn damaged_record(&self, k: usize) -> usize {
        let (seg, byte, _) = self.flips[k];
        let seg_start: u64 = self.segments[..seg]
            .iter()
            .map(|(_, b)| b.len() as u64)
            .sum();
        let at = seg_start + byte as u64;
        self.record_ends.partition_point(|&end| end <= at)
    }

    /// Copies the image onto fresh storage through the `WalStorage` trait,
    /// flipping one bit, then recovers it. Passes when every record outside
    /// the damaged frame comes back intact and every sequence number that
    /// does not come back is reported missing; a recovery that returns an
    /// error fails.
    fn recover_flipped(&self, k: usize) -> (bool, Cost) {
        let (seg, byte, bit) = self.flips[k];
        let mut disk = MemStorage::new();
        for (pos, (index, bytes)) in self.segments.iter().enumerate() {
            disk.open_segment(*index).expect("open segment copy");
            if pos == seg {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                disk.append(&damaged).expect("write damaged segment");
            } else {
                disk.append(bytes).expect("write segment copy");
            }
        }
        let mut back: BTreeMap<(SourceId, u64), SeqBatch> = BTreeMap::new();
        let (res, cost) = timed(|| {
            DurableStore::recover_replay(disk, self.cfg, &mut |sb| {
                back.insert((sb.batch.source, sb.seq), sb.clone());
            })
        });
        let Ok((ds, _report)) = res else {
            return (false, cost);
        };
        let damaged = self.damaged_record(k);
        let ledger = ds.store().ledger();
        let mut ok = true;
        for (i, want) in self.records.iter().enumerate() {
            let key = (want.batch.source, want.seq);
            match back.get(&key) {
                Some(got) => ok &= same_record(got, want),
                None => {
                    ok &= i == damaged;
                    ok &= ledger
                        .gaps(key.0)
                        .iter()
                        .any(|&(lo, hi)| lo <= key.1 && key.1 <= hi);
                }
            }
        }
        (ok, cost)
    }
}

fn same_record(a: &SeqBatch, b: &SeqBatch) -> bool {
    a.seq == b.seq
        && a.batch.source == b.batch.source
        && a.batch.counter == b.batch.counter
        && a.batch.campaign == b.batch.campaign
        && a.batch.samples.ts == b.batch.samples.ts
        && a.batch.samples.vs == b.batch.samples.vs
}

/// Everything a round needs, prepared in set-up.
struct Prepared {
    input: Input,
    hostile: Vec<SwitchStream>,
    crashes: Vec<RegionCrashPlan>,
    busiest: usize,
    media: MediaImage,
}

fn prepare(input: Input, seed: u64, tally: &mut Tally) -> Prepared {
    let cfg = FleetConfig::default();
    let reference = run_fleet_with_crashes(input.streams.clone(), &cfg, &RegionCrashPlan::none());
    check_outcome(&input, &reference, true, "reference", tally);
    let busiest = (0..reference.regions.len())
        .max_by_key(|&r| (reference.regions[r].wal_bytes, std::cmp::Reverse(r)))
        .expect("fleet has regions");
    let sweep = CrashPlan::sweep(
        mix(seed ^ 0xC0A5),
        reference.regions[busiest].wal_bytes,
        &reference.region_record_ends[busiest],
        CRASH_RUNS,
    );
    let all = RegionCrashPlan::sweep_region(busiest, &sweep);
    assert!(all.len() >= CRASH_RUNS, "sweep has {} offsets", all.len());
    let crashes = (0..CRASH_RUNS)
        .map(|k| all[k * all.len() / CRASH_RUNS].clone())
        .collect();

    // Hostile links on a seeded quarter of the switches, never on none.
    let mut hostile = input.streams.clone();
    let always = (seed % u64::from(SWITCHES)) as usize;
    for (i, s) in hostile.iter_mut().enumerate() {
        if i == always || mix(seed ^ 0x5EED_0000 ^ i as u64).is_multiple_of(4) {
            s.link = LinkPlan::HOSTILE;
        }
    }
    Prepared {
        input,
        hostile,
        crashes,
        busiest,
        media: MediaImage::build(),
    }
}

/// One timed fleet run.
fn fleet_run(streams: &[SwitchStream], crashes: &RegionCrashPlan) -> (FleetOutcome, Cost) {
    let streams = streams.to_vec();
    let cfg = FleetConfig::default();
    timed(|| run_fleet_with_crashes(streams, &cfg, crashes))
}

/// One round. Returns what each operation cost, in order: the ideal and
/// hostile fleet runs, the crash runs, then the media-fault recoveries.
fn round(p: &Prepared, tally: &mut Tally) -> Vec<Cost> {
    let mut ops = Vec::with_capacity(FLEET_RUNS + FLIP_SEGMENTS.len());
    let none = RegionCrashPlan::none();
    let mut fleet = |streams: &[SwitchStream],
                     crashes: &RegionCrashPlan,
                     exact: bool,
                     label: &str,
                     tally: &mut Tally| {
        let (out, cost) = fleet_run(streams, crashes);
        tally.attempted += 1;
        ops.push(cost);
        check_outcome(&p.input, &out, exact, label, tally);
        out
    };
    fleet(&p.input.streams, &none, true, "ideal", tally);
    fleet(&p.hostile, &none, false, "hostile", tally);
    for plan in &p.crashes {
        let out = fleet(&p.input.streams, plan, false, "crash", tally);
        let r = &out.regions[p.busiest];
        tally.check(r.crashes == 1 && r.recoveries == 1, || {
            format!(
                "crash at {:?}: {} crashes, {} recoveries",
                plan.budget(p.busiest),
                r.crashes,
                r.recoveries
            )
        });
    }
    for k in 0..p.media.flips.len() {
        let (ok, cost) = p.media.recover_flipped(k);
        tally.attempted += 1;
        ops.push(cost);
        if !ok {
            tally.failed += 1;
        }
    }
    ops
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    uburst_obs::enable();
    let fleet_seed = mix(args.seed ^ 0xF1EE7);
    let mut tally = Tally::default();
    let (input, sim) = timed(|| simulate(fleet_seed));
    let (prepared, prep) = timed(|| prepare(input, args.seed, &mut tally));

    let t0 = Instant::now();
    if !args.trace {
        let mut rounds = Vec::new();
        let mut sims = vec![vec![sim]];
        while more_rounds(t0, args.seconds, rounds.len()) {
            uburst_obs::reset();
            rounds.push(round(&prepared, &mut tally));
            let due = args.seconds * sims.len() as f64 / SETUP_PASSES as f64;
            if sims.len() < SETUP_PASSES && t0.elapsed().as_secs_f64() >= due {
                sims.push(vec![timed(|| black_box(simulate(fleet_seed))).1]);
            }
        }
        let setup_s = fastest(&sims).wall + prep.wall;
        return Outcome::end_to_end(tally, &rounds, setup_s);
    }

    // Traced: the counts and `fleet.run_ms` come from the first round.
    // Every round's snapshot read and counter lookups give
    // `trace.overhead_s`: the round's own timers run untraced too, so
    // those reads are all the traced run adds to a round.
    let mut layers = None;
    let mut added = Vec::new();
    while more_rounds(t0, args.seconds, added.len()) {
        uburst_obs::reset();
        let ops = round(&prepared, &mut tally);
        let mut runs: Vec<f64> = ops[..FLEET_RUNS].iter().map(|c| c.wall).collect();
        let (l, cost) = timed(|| {
            let mut l = Layers::default();
            let snap = uburst_obs::snapshot();
            let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            l.real("fleet.run_ms", median(&mut runs) * 1e3);
            let tx = c("uburst_ship_transmissions_total");
            l.count("ship.transmissions", tx);
            l.count("ship.retransmits", c("uburst_ship_retransmits_total"));
            l.real(
                "ship.ack_ratio",
                c("uburst_ship_acked_total") as f64 / tx.max(1) as f64,
            );
            l.count("wal.bytes", c("uburst_wal_bytes_total"));
            l.count("wal.group_commits", c("uburst_wal_group_commits_total"));
            l.count("wal.fsyncs", c("uburst_wal_fsyncs_total"));
            l.count(
                "wal.recovered_records",
                c("uburst_wal_recovered_records_total"),
            );
            l
        });
        added.push(cost.wall);
        layers.get_or_insert(l);
    }
    let mut layers = layers.expect("one traced round");
    wal_layers(&prepared, &mut layers, &mut tally);
    replay(&prepared, fleet_seed, &mut tally).write(&mut layers);
    layers.real("obs.overhead_s", obs_overhead(&prepared));
    layers.real("trace.overhead_s", median(&mut added));
    Outcome::per_layer(tally, &layers)
}

/// Times the WAL, segment and store layers directly on the busiest
/// region's input, sequenced per switch and grouped per shipping round.
fn wal_layers(p: &Prepared, layers: &mut Layers, tally: &mut Tally) {
    let cfg = FleetConfig::default();
    let live = vec![true; cfg.regions];
    let mut windows: Vec<Vec<SeqBatch>> = vec![Vec::new(); STREAM_ROUNDS];
    for s in &p.input.streams {
        if rendezvous_region(s.source, &live) != Some(p.busiest) {
            continue;
        }
        let mut seq = 0u64;
        for (r, round) in s.rounds.iter().enumerate() {
            for b in &round.batches {
                windows[r].push(SeqBatch {
                    seq,
                    watermark: seq + 1,
                    batch: b.clone(),
                });
                seq += 1;
            }
        }
    }
    let n: usize = windows.iter().map(Vec::len).sum();

    let store = SampleStore::new();
    let (stored, cost) = timed(|| {
        windows
            .iter()
            .flatten()
            .filter(|sb| matches!(store.ingest_seq(sb), Ok(SeqIngest::Stored)))
            .count()
    });
    layers.real("store.ingest_s", cost.wall);
    tally.check(stored == n, || {
        format!("store.ingest_seq stored {stored} of {n}")
    });

    let disk = MemStorage::new();
    let mut ds = DurableStore::create(disk.clone(), cfg.region_wal).expect("create region WAL");
    let mut out = Vec::new();
    let (logged, cost) = timed(|| {
        let mut logged = 0;
        for w in &windows {
            ds.ingest_group(w, &mut out)
                .expect("ingest_group on healthy storage");
            logged += out.iter().filter(|(o, _)| *o == SeqIngest::Stored).count();
        }
        ds.flush().expect("flush region WAL");
        logged
    });
    layers.real("wal.ingest_s", cost.wall);
    tally.check(logged == n, || {
        format!("ingest_group logged {logged} of {n}")
    });

    let images: Vec<Vec<u8>> = disk
        .list()
        .expect("list region WAL")
        .into_iter()
        .map(|i| disk.read(i).expect("read region WAL segment"))
        .collect();
    let (scanned, cost) = timed(|| {
        images
            .iter()
            .map(|b| {
                let scan = scan_segment(b);
                (scan.records.len(), scan.torn.is_none())
            })
            .fold((0, true), |(n, clean), (m, c)| (n + m, clean && c))
    });
    layers.real("segment.scan_s", cost.wall);
    tally.check(scanned == (n, true), || {
        format!("scan_segment found {scanned:?} for {n} records")
    });

    let (res, cost) = timed(|| {
        DurableStore::recover_replay(disk, cfg.region_wal, &mut |sb| {
            black_box(sb.seq);
        })
    });
    layers.real("wal.recover_s", cost.wall);
    let (_, report) = res.expect("recover an intact region WAL");
    tally.check(report.records == n as u64, || {
        format!("recover_replay returned {} of {n} records", report.records)
    });
}

/// Replays switches 0..3 (one per rack type) layer by layer with the
/// set-up's settings, and checks the replay reproduces their series.
fn replay(p: &Prepared, fleet_seed: u64, tally: &mut Tally) -> SimLayers {
    let mut layers = SimLayers::default();
    for i in 0..3u32 {
        let cfg = ScenarioConfig::for_fleet_switch(fleet_seed, i);
        let counters: Vec<CounterId> = (0..cfg.clos.n_fabric)
            .map(|f| CounterId::TxBytes(PortId((cfg.n_servers + f) as u16)))
            .collect();
        let run = campaign::run(cfg, counters, INTERVAL, SPAN);
        for (counter, s) in &run.series {
            tally.check(
                p.input.series.get(&(SourceId(i), *counter)) == Some(s),
                || format!("replayed switch {i} {counter:?} differs from set-up"),
            );
        }
        layers.add(&run, p.input.uplink_bps[i as usize]);
    }
    layers
}

/// One ideal fleet run with telemetry on minus the same run with it off,
/// median over `OBS_PAIRS` pairs.
fn obs_overhead(p: &Prepared) -> f64 {
    let none = RegionCrashPlan::none();
    let mut diffs: Vec<f64> = (0..OBS_PAIRS)
        .map(|_| {
            uburst_obs::disable();
            let off = fleet_run(&p.input.streams, &none).1.wall;
            uburst_obs::enable();
            let on = fleet_run(&p.input.streams, &none).1.wall;
            on - off
        })
        .collect();
    median(&mut diffs)
}
