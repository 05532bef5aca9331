//! The per-layer ledger of a traced run.
//!
//! A ledger pass runs every layer in isolation on canned inputs taken from
//! the workload: its first path (calibrated exactly as the workload's own
//! campaign calibrates it), the connection horizon the workload runs that
//! path for, its first four paths as a pooled mini campaign, and a fleet.
//! Every row is a span recorded around calls into public library
//! functions; the per-layer metrics are computed from those spans. The
//! same rows run on every workload, so each per-layer metric exists on
//! each: a layer a workload does not exercise is measured on the canned
//! input, and its end-to-end metric on that workload should stay flat
//! when the layer changes.
//!
//! Each pass also checks that its isolated runs reproduce the library's
//! own results (the ledger's connection is the campaign's connection, the
//! streamed reduction equals the per-core fold, journal replay equals the
//! live rows, fleet reports are shard-count invariant). [`Ledger::accounting`]
//! then checks, on the medians over all passes, that the layers add up.

use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::workload::{digest, fleet_spec, rows_digest, supervisor, Scale, Workload, WORKERS};
use crate::{Metric, PER_LAYER};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use tcp_sim::cc::{CcAlgorithm, CcState, CongestionController};
use tcp_sim::connection::{Connection, Observer};
use tcp_sim::event::{EventScheduler, HybridQueue, Lane};
use tcp_sim::fleet::{FleetCohort, FleetShard, FleetSpec, ShardWheel};
use tcp_sim::link::Path as LinkPath;
use tcp_sim::loss::{Bernoulli, LossKind, LossModel, Mixed, TimedGilbertElliott};
use tcp_sim::receiver::ReceiverConfig;
use tcp_sim::reno::rto::RtoConfig;
use tcp_sim::reno::sender::{RenoStyle, SenderConfig};
use tcp_sim::rng::SimRng;
use tcp_sim::time::{SimDuration, SimTime};
use tcp_testbed::experiment::{calibrate_wire_loss, WireLoss};
use tcp_testbed::journal::{self, CampaignRecord, Journal};
use tcp_testbed::{
    run_fleet, run_hour_budgeted, run_serial_100s, run_table2_journaled, run_table2_supervised,
    ExperimentResult, FleetCampaignSpec, JournalConfig, PathSpec, SupervisorConfig, TraceRecorder,
    DEFAULT_EVENT_BUDGET,
};
use tcp_trace::analyzer::{AnalyzerConfig, Classifier};
use tcp_trace::intervals::IntervalCore;
use tcp_trace::karn::{CorrCore, KarnCore};
use tcp_trace::record::{Trace, TraceEvent};
use tcp_trace::stream::{StreamAnalyzer, StreamConfig, TraceSink};

/// Feeds every wire record to an analyzer core's `on_send(time, seq)` and
/// `on_ack(time, ack)`.
macro_rules! feed {
    ($core:expr, $records:expr) => {
        for r in $records {
            match r.event {
                TraceEvent::Send { seq, .. } => $core.on_send(r.time_ns, seq),
                TraceEvent::AckIn { ack } => $core.on_ack(r.time_ns, ack),
            }
        }
    };
}

/// Paths in the pooled mini campaign.
const POOL_PATHS: usize = 4;

/// The canned inputs a ledger pass runs on.
#[derive(Debug, Clone)]
pub struct Canned {
    /// The workload's first path.
    pub path: PathSpec,
    /// How long the workload runs one connection on it, seconds.
    pub horizon: f64,
    /// The pooled mini campaign's paths.
    pub pool: Vec<PathSpec>,
    /// The fleet: the workload's own for `fleet_100k`, a tenth of its
    /// size for the others.
    pub fleet: FleetCampaignSpec,
    /// The workload seed.
    pub seed: u64,
}

impl Canned {
    /// Canned inputs for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Canned {
        let paths = workload.paths(scale);
        let (horizon, flows) = match workload {
            Workload::Serial100s => (100.0, scale.fleet_flows / 10),
            Workload::Fleet100k => (3600.0, scale.fleet_flows),
            _ => (3600.0, scale.fleet_flows / 10),
        };
        Canned {
            path: paths[0],
            horizon,
            pool: paths.into_iter().take(POOL_PATHS).collect(),
            fleet: fleet_spec(flows, seed),
            seed,
        }
    }
}

/// Samples of every per-layer metric, one per pass, plus the accounting
/// ratios checked at the end.
#[derive(Debug, Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    bounds: BTreeMap<&'static str, (Vec<f64>, f64, f64)>,
}

impl Ledger {
    /// Records one sample of a declared metric.
    pub fn record(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared {name}"
        );
        self.samples.entry(name).or_default().push(value);
    }

    /// Records one sample of an accounting ratio whose median must lie in
    /// `(lo, hi]`.
    fn bound(&mut self, name: &'static str, value: f64, lo: f64, hi: f64) {
        self.bounds
            .entry(name)
            .or_insert((Vec::new(), lo, hi))
            .0
            .push(value);
    }

    /// Every declared per-layer metric: the median of its samples.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| match self.samples.get(name) {
                Some(v) => Ok(Metric {
                    name,
                    value: median(v),
                    unit,
                }),
                None => Err(format!("no sample of {name}")),
            })
            .collect()
    }

    /// The accounting checks on the medians over all passes, one line
    /// each, marked `ok` or `FAILED`. They compare timings, not outputs,
    /// so they are diagnostics and do not fail the run.
    pub fn accounting(&self) -> Vec<String> {
        self.bounds
            .iter()
            .map(|(name, (v, lo, hi))| {
                let m = median(v);
                let verdict = if m > *lo && m <= *hi { "ok" } else { "FAILED" };
                format!("{name} {m:.4} in ({lo}, {hi}]: {verdict}")
            })
            .collect()
    }
}

/// Runs one ledger pass, recording spans under a `ledger` root span
/// tagged with `pass`. `scratch` holds the pass's journals.
pub fn run_pass(
    canned: &Canned,
    tracer: &Tracer,
    pass: u32,
    scratch: &Path,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let root = tracer.open("ledger", None, pass);
    let mut p = Pass {
        c: canned,
        tracer,
        pass,
        root,
        ledger,
    };
    let result = p.all(scratch);
    tracer.close(root);
    result
}

struct Pass<'a> {
    c: &'a Canned,
    tracer: &'a Tracer,
    pass: u32,
    root: SpanId,
    ledger: &'a mut Ledger,
}

/// The seed the testbed's campaign runners calibrate a path with, for a
/// job seeded `seed`.
fn wire_seed(seed: u64) -> u64 {
    seed.wrapping_mul(31).wrapping_add(17)
}

impl Pass<'_> {
    /// Runs `f` in a span under the pass root; returns its result and
    /// length in seconds.
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, d) = self.tracer.time(name, Some(self.root), self.pass, f);
        (out, d.as_secs_f64())
    }

    fn record(&mut self, name: &'static str, value: f64) {
        self.ledger.record(name, value);
    }

    fn all(&mut self, scratch: &Path) -> Result<(), String> {
        let (wire, job) = self.pool()?;
        self.journal(scratch)?;
        let trace = self.connection(&wire, &job)?;
        self.cores(&trace)?;
        let sends = trace
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Send { .. }))
            .count() as u64;
        self.event(sends, trace.records().len() as u64 - sends);
        self.loss(&wire, sends);
        self.cc();
        self.fleet()
    }

    /// Calibration and the worker pool: each pool path's job alone on one
    /// thread, then the same jobs as a campaign on the pool. Returns the
    /// first path's calibration and job result.
    fn pool(&mut self) -> Result<(WireLoss, ExperimentResult), String> {
        let c = self.c;
        let (wire, calibrate) = self.time("testbed.calibrate_wire_loss", || {
            calibrate_wire_loss(&c.path, wire_seed(c.seed))
        });
        let mut alone = Vec::new();
        let mut busy = Vec::new();
        for (i, spec) in c.pool.iter().enumerate() {
            let seed = c.seed.wrapping_add(i as u64);
            let (result, t) = self
                .time(&format!("testbed.run_hour_budgeted {}", spec.id()), || {
                    run_hour_budgeted(spec, seed, DEFAULT_EVENT_BUDGET)
                });
            alone.push(result);
            busy.push(t);
        }
        let (report, wall) = self.time("testbed.run_table2_supervised", || {
            run_table2_supervised(&c.pool, c.seed, &supervisor())
        });
        let alone_digests = alone.iter().map(digest).collect::<Result<Vec<_>, _>>()?;
        if rows_digest(&report.rows)?.1 != alone_digests {
            return Err("pooled rows differ from their jobs run alone".into());
        }
        let eff = busy.iter().sum::<f64>() / (WORKERS as f64 * wall);
        self.record("testbed.calibrate.ms_per_path", calibrate * 1e3);
        self.record("testbed.calibrate.share", calibrate / busy[0]);
        self.record("testbed.pool.parallel_eff", eff);
        self.ledger
            .bound("testbed.pool.parallel_eff", eff, 0.0, 1.05);
        Ok((wire, alone.swap_remove(0)))
    }

    /// The journal: one hour-long job of the first path journaled at the
    /// default checkpoint cadence, scanned, replayed by a re-invocation,
    /// and its completion record re-appended with `append_sync`.
    fn journal(&mut self, scratch: &Path) -> Result<(), String> {
        let c = self.c;
        let file = scratch.join("ledger.waj");
        let sync_file = scratch.join("ledger-sync.waj");
        let io = |e: std::io::Error| format!("ledger journal: {e}");
        for f in [&file, &sync_file] {
            let _ = std::fs::remove_file(f);
        }
        let config = JournalConfig {
            supervisor: SupervisorConfig {
                max_workers: 1,
                ..supervisor()
            },
            ..JournalConfig::default()
        };
        let specs = [c.path];
        let run = || run_table2_journaled(&specs, c.seed, &file, &config);
        let (live, _) = self.time("testbed.run_table2_journaled live", run);
        let live = rows_digest(&live.map_err(io)?.rows)?.1;
        let (scan, scan_s) = self.time("testbed.journal.replay", || journal::replay(&file));
        let scan = scan.map_err(io)?;
        let (mut checkpoints, mut checkpoint_bytes, mut done_bytes) = (0u64, 0u64, 0u64);
        let mut done = Vec::new();
        for record in &scan.records {
            let payload = record.encode();
            let framed = 8 + payload.len() as u64;
            match record {
                CampaignRecord::Checkpoint(_) => {
                    checkpoints += 1;
                    checkpoint_bytes += framed;
                }
                CampaignRecord::AttemptDone { .. } => {
                    done_bytes += framed;
                    done = payload;
                }
            }
        }
        if scan.torn_tail || checkpoint_bytes + done_bytes != scan.valid_bytes {
            return Err("ledger journal: records do not cover the file".into());
        }
        let (replayed, resume_s) = self.time("testbed.run_table2_journaled replay", run);
        if rows_digest(&replayed.map_err(io)?.rows)?.1 != live {
            return Err("ledger journal: replayed rows differ from the live rows".into());
        }
        let sync = Journal::open(&sync_file).map_err(io)?;
        let mut syncs = Vec::new();
        for _ in 0..8 {
            let payload = done.clone();
            let (r, t) = self.time("testbed.Journal::append_sync", || sync.append_sync(payload));
            r.map_err(io)?;
            syncs.push(t);
        }
        sync.close().map_err(io)?;
        for f in [&file, &sync_file] {
            std::fs::remove_file(f).map_err(io)?;
        }
        self.record("testbed.journal.checkpoints", checkpoints as f64);
        self.record(
            "testbed.journal.checkpoint_mb",
            checkpoint_bytes as f64 / 1e6,
        );
        self.record("testbed.journal.done_mb", done_bytes as f64 / 1e6);
        self.record("testbed.journal.append_sync_ms", median(&syncs) * 1e3);
        self.record(
            "testbed.journal.replay_mb_per_s",
            scan.valid_bytes as f64 / 1e6 / scan_s,
        );
        self.record("testbed.journal.resume_ms", resume_s * 1e3);
        Ok(())
    }

    /// The packet connection of the first path, rebuilt from public parts
    /// exactly as the testbed builds it: construction, the event loop with
    /// no observer and with the streaming analyzer, and mid-run snapshots.
    /// Returns the connection's wire trace for the analyzer rows.
    fn connection(&mut self, wire: &WireLoss, job: &ExperimentResult) -> Result<Trace, String> {
        let c = self.c;
        // The reference run of the same connection through the library:
        // the hour-long job the pool row already ran, or a serial run.
        let (seed, reference) = if c.horizon == 3600.0 {
            (c.seed, job.clone())
        } else {
            let mut runs = run_serial_100s(&c.path, 1, c.seed);
            (c.seed.wrapping_mul(1000), runs.remove(0))
        };
        let until = SimTime::from_secs_f64(c.horizon);
        let config = stream_config(&c.path);
        const BUILDS: u32 = 64;
        let (_, t) = self.time("sim.ConnectionBuilder::build_with_observer x64", || {
            for _ in 0..BUILDS {
                black_box(build(&c.path, wire, seed, TraceRecorder::streaming(config)));
            }
        });
        self.record("sim.connection.build_us", t / f64::from(BUILDS) * 1e6);

        let mut bare = build(&c.path, wire, seed, ());
        let (_, bare_s) = self.time("sim.Connection::run_until bare", || bare.run_until(until));
        let mut streaming = build(&c.path, wire, seed, TraceRecorder::streaming(config));
        let (_, stream_s) = self.time("sim.Connection::run_until streaming", || {
            streaming.run_until(until)
        });
        let events = bare.events_processed() as f64;
        streaming.finish();
        let stats = streaming.stats();
        let (analysis, _) = streaming.into_observer().finish(Some(c.horizon));
        let analysis = analysis.ok_or("streaming recorder yielded no analysis")?;
        if stats != reference.stats || digest(&analysis)? != digest(&reference.stream)? {
            return Err("ledger connection differs from the workload's".into());
        }
        let bare_ns = bare_s / events * 1e9;
        let stream_ns = stream_s / events * 1e9;
        self.record("sim.connection.bare_ns_per_event", bare_ns);
        self.record("sim.connection.streaming_ns_per_event", stream_ns);
        self.record("trace.observer.ns_per_event", stream_ns - bare_ns);

        // Checkpoint-time state: halfway through the horizon.
        let mut mid = build(&c.path, wire, seed, TraceRecorder::streaming(config));
        mid.run_until(SimTime::from_secs_f64(c.horizon / 2.0));
        const SNAPSHOTS: u32 = 32;
        let (snap, t) = self.time("sim.Connection::snapshot x32", || {
            (1..SNAPSHOTS).fold(mid.snapshot(), |_, _| mid.snapshot())
        });
        snap.map_err(|e| format!("connection snapshot: {e}"))?;
        self.record("sim.connection.snapshot_us", t / f64::from(SNAPSHOTS) * 1e6);
        const STREAM_SNAPSHOTS: u32 = 8;
        let (bytes, t) = self.time("trace.StreamAnalyzer::snapshot x8", || {
            (1..STREAM_SNAPSHOTS).fold(mid.observer().stream_snapshot(), |_, _| {
                mid.observer().stream_snapshot()
            })
        });
        let bytes = bytes.ok_or("analyzer snapshot failed")?;
        self.record(
            "trace.stream.snapshot_us",
            t / f64::from(STREAM_SNAPSHOTS) * 1e6,
        );
        self.record("trace.stream.snapshot_kb", bytes.len() as f64 / 1e3);

        let mut retained = build(&c.path, wire, seed, TraceRecorder::new());
        retained.run_until(until);
        Ok(retained.into_observer().into_trace())
    }

    /// The streaming analyzer and each of its cores alone, over the
    /// connection's recorded trace.
    fn cores(&mut self, trace: &Trace) -> Result<(), String> {
        let c = self.c;
        let records = trace.records();
        let config = stream_config(&c.path);
        let (analysis, classifier) = self.time("trace.Classifier", || {
            let mut core = Classifier::new(config.analyzer);
            feed!(core, records);
            core.finish()
        });
        let (_, karn) = self.time("trace.KarnCore", || {
            let mut core = KarnCore::new();
            feed!(core, records);
            black_box(core.finish());
        });
        let (_, corr) = self.time("trace.CorrCore", || {
            let mut core = CorrCore::new();
            feed!(core, records);
            black_box(core.finish());
        });
        let (_, interval) = self.time("trace.IntervalCore", || {
            let mut core = IntervalCore::new(config.interval_secs.unwrap_or(100.0));
            for r in records {
                if let TraceEvent::Send { .. } = r.event {
                    core.on_send(r.time_ns);
                }
            }
            black_box(core.finish(&analysis.indications, c.horizon));
        });
        let (stream, feed) = self.time("trace.StreamAnalyzer feed", || {
            let mut s = StreamAnalyzer::new(config);
            for r in records {
                s.on_record(r);
            }
            s
        });
        let (streamed, finish) = self.time("trace.StreamAnalyzer::finish", || {
            stream.finish(Some(c.horizon))
        });
        if digest(&streamed.analysis)? != digest(&analysis)? {
            return Err("streamed classification differs from the classifier alone".into());
        }
        let n = records.len() as f64;
        for (name, secs) in [
            ("trace.classifier.ns_per_record", classifier),
            ("trace.karn.ns_per_record", karn),
            ("trace.corr.ns_per_record", corr),
            ("trace.interval.ns_per_record", interval),
            ("trace.stream.ns_per_record", feed + finish),
        ] {
            self.record(name, secs / n * 1e9);
        }
        self.record("trace.stream.finish_us", finish * 1e6);
        self.record(
            "trace.stream.peak_state_kb",
            streamed.peak_state_bytes as f64 / 1e3,
        );
        let cores = classifier + karn + corr + interval;
        self.ledger.bound(
            "trace.cores_sum_over_stream",
            cores / (feed + finish),
            0.75,
            1.25,
        );
        Ok(())
    }

    /// The hybrid event queue on a synthetic history with the connection's
    /// lane mix: every data and ACK arrival is a FIFO lane push, every ACK
    /// re-arms the RTO and every second data arrival the delayed-ACK
    /// timer, each superseding the pending deadline. At most `W_m` events
    /// are pending before the earliest pops.
    fn event(&mut self, sends: u64, acks: u64) {
        let c = self.c;
        let half_rtt = (c.path.rtt / 2.0 * 1e9) as u64;
        let lanes = [
            (Lane::Data, sends, half_rtt),
            (Lane::Ack, acks, half_rtt),
            (Lane::Rto, acks, (c.path.t0 * 1e9) as u64),
            (Lane::DelAck, sends / 2, 200_000_000),
        ];
        let total: u64 = lanes.iter().map(|l| l.1).sum();
        let mut rng = SimRng::seed_from_u64(c.seed);
        const OPS: usize = 1 << 20;
        let ops: Vec<(Lane, u64)> = (0..OPS)
            .map(|_| {
                let mut pick = rng.uniform_u64(0, total.max(1) - 1);
                let lane = lanes
                    .iter()
                    .find(|l| {
                        let hit = pick < l.1;
                        pick = pick.saturating_sub(l.1);
                        hit
                    })
                    .unwrap_or(&lanes[0]);
                (lane.0, lane.2)
            })
            .collect();
        let window = c.path.wmax as usize;
        let (_, t) = self.time("sim.HybridQueue schedule+pop", || {
            let mut q: HybridQueue<u64> = HybridQueue::new();
            let mut now = 0u64;
            for (k, &(lane, delay)) in ops.iter().enumerate() {
                q.schedule(lane, SimTime::from_nanos(now + delay), k as u64);
                if q.len() > window {
                    if let Some((at, _)) = q.pop() {
                        now = at.as_nanos();
                    }
                }
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
        self.record("sim.event.schedule_pop_ns", t / OPS as f64 * 1e9);
    }

    /// The calibrated wire-loss process, drawn at the connection's mean
    /// send spacing.
    fn loss(&mut self, wire: &WireLoss, sends: u64) {
        let c = self.c;
        let gap = (c.horizon * 1e9 / sends.max(1) as f64) as u64;
        let mut model = wire_loss(wire);
        let mut rng = SimRng::seed_from_u64(c.seed);
        const DRAWS: u64 = 1 << 20;
        let (_, t) = self.time("sim.LossKind::should_drop", || {
            let mut drops = 0u64;
            for k in 1..=DRAWS {
                drops += u64::from(model.should_drop(SimTime::from_nanos(k * gap), &mut rng));
            }
            black_box(drops);
        });
        self.record("sim.loss.draw_ns", t / DRAWS as f64 * 1e9);
    }

    /// Each congestion-control law's hooks on a scripted ACK stream: a
    /// window of new ACKs (with RTT samples) per round, a fast retransmit
    /// with three further dupacks and a partial ACK every fourth round, a
    /// timeout every sixteenth.
    fn cc(&mut self) {
        const NAMES: [&str; 5] = [
            "sim.cc.reno.hook_ns",
            "sim.cc.newreno.hook_ns",
            "sim.cc.cubic.hook_ns",
            "sim.cc.relentless.hook_ns",
            "sim.cc.scalable.hook_ns",
        ];
        for (algo, name) in CcAlgorithm::ALL.into_iter().zip(NAMES) {
            let (hooks, t) = self.time(&format!("sim.CcState hooks {}", algo.label()), || {
                cc_script(algo)
            });
            self.record(name, t / hooks as f64 * 1e9);
        }
    }

    /// Fleet layers, single-threaded: one shard over all flows, then the
    /// same flows as two and as eight sequential shards; the wheel alone;
    /// `run_fleet` on one shard and on the pool.
    fn fleet(&mut self) -> Result<(), String> {
        let spec = &self.c.fleet;
        let fleet = FleetSpec {
            cohorts: spec
                .cohorts
                .iter()
                .map(|c| FleetCohort {
                    config: c.config,
                    flows: c.flows,
                })
                .collect(),
            base_seed: spec.base_seed,
            wheel: spec.wheel,
        };
        let n = fleet.total_flows();
        let horizon = SimTime::from_secs_f64(spec.horizon_secs);
        // Per split: (events, run_until seconds, per-shard new + run_until
        // seconds, shard-new seconds).
        let mut splits = Vec::new();
        for parts in [1u64, 2, 8] {
            let (mut events, mut run_s, mut new_s, mut busy) = (0u64, 0.0, 0.0, Vec::new());
            for s in 0..parts {
                let range = s * n / parts..(s + 1) * n / parts;
                let (mut shard, t_new) = self
                    .time(&format!("sim.FleetShard::new {s}/{parts}"), || {
                        FleetShard::new(&fleet, range)
                    });
                let (ev, t_run) = self
                    .time(&format!("sim.FleetShard::run_until {s}/{parts}"), || {
                        shard.run_until(horizon)
                    });
                events += ev;
                run_s += t_run;
                new_s += t_new;
                busy.push(t_new + t_run);
            }
            splits.push((events, run_s, busy, new_s));
        }
        let (one, t_one) = self.time("testbed.run_fleet 1 shard", || run_fleet(spec, 1));
        let (two, t_two) = self.time("testbed.run_fleet 2 shards", || run_fleet(spec, WORKERS));
        if splits.iter().any(|s| s.0 != one.events) || digest(&one)? != digest(&two)? {
            return Err("fleet results depend on the shard split".into());
        }
        let (full, half, eighth) = (&splits[0], &splits[1], &splits[2]);
        let events = one.events.max(1) as f64;
        self.record("sim.fleet.shard_new_ms", full.3 * 1e3);
        self.record(
            "sim.fleet.run_until_ns_per_event_full",
            full.1 / events * 1e9,
        );
        self.record(
            "sim.fleet.run_until_ns_per_event_half",
            half.1 / events * 1e9,
        );
        self.record(
            "sim.fleet.run_until_ns_per_event_eighth",
            eighth.1 / events * 1e9,
        );
        self.record("testbed.fleet.merge_ms", (t_one - full.3 - full.1) * 1e3);
        self.ledger.bound(
            "sim.fleet.parts_over_run_fleet",
            (full.3 + full.1) / t_one,
            0.9,
            1.1,
        );
        let halves: f64 = half.2.iter().sum();
        let eff = halves / (WORKERS as f64 * t_two);
        self.record("testbed.fleet.parallel_eff", eff);
        self.ledger
            .bound("testbed.fleet.parallel_eff", eff, 0.0, 1.05);
        let max = half.2.iter().copied().fold(0.0, f64::max);
        self.record(
            "testbed.fleet.imbalance",
            max / (halves / half.2.len() as f64),
        );

        // The wheel alone: every flow rescheduled four times to a uniform
        // time inside the ring's horizon.
        let flows = usize::try_from(n).map_err(|e| e.to_string())?;
        let mut wheel = ShardWheel::new(spec.wheel, flows);
        let mut rng = SimRng::seed_from_u64(self.c.seed);
        let times: Vec<SimTime> = (0..flows * 5)
            .map(|_| SimTime::from_nanos(rng.uniform_u64(0, 7_999_999_999)))
            .collect();
        for (flow, &at) in times[..flows].iter().enumerate() {
            wheel.schedule(flow as u32, at);
        }
        let (_, t) = self.time("sim.ShardWheel::schedule", || {
            for (k, &at) in times[flows..].iter().enumerate() {
                wheel.schedule((k % flows) as u32, at);
            }
        });
        black_box(wheel.live());
        self.record("sim.fleet.wheel.schedule_ns", t / (flows * 4) as f64 * 1e9);
        Ok(())
    }
}

/// The testbed's streaming-analysis configuration for `path`.
fn stream_config(path: &PathSpec) -> StreamConfig {
    StreamConfig {
        analyzer: AnalyzerConfig {
            dupack_threshold: path.sender_os().dupack_threshold(),
        },
        ..StreamConfig::default()
    }
}

/// The calibrated wire-loss process: isolated losses and timed bursts.
fn wire_loss(wire: &WireLoss) -> LossKind {
    let mut parts: Vec<LossKind> = Vec::new();
    if wire.isolated_p > 0.0 {
        parts.push(Bernoulli::new(wire.isolated_p).into());
    }
    if wire.burst_time_frac > 0.0 {
        parts.push(
            TimedGilbertElliott::from_rate_and_burst_secs(
                wire.burst_time_frac,
                wire.mean_burst_secs,
            )
            .into(),
        );
    }
    Mixed::from_kinds(parts).into()
}

/// The testbed's connection for `path`: jittered constant-delay paths,
/// the calibrated wire loss, the sender's OS quirks and an RTO floor at
/// the path's T0.
fn build<O: Observer>(path: &PathSpec, wire: &WireLoss, seed: u64, observer: O) -> Connection<O> {
    let half = SimDuration::from_secs_f64(path.rtt / 2.0);
    let jitter = SimDuration::from_secs_f64(path.rtt * 0.05);
    let quirks = path.sender_os().quirks();
    Connection::builder()
        .fwd_path(LinkPath::constant(half).with_jitter(jitter))
        .rev_path(LinkPath::constant(half).with_jitter(jitter))
        .loss(wire_loss(wire))
        .sender_config(SenderConfig {
            rwnd: path.wmax,
            dupthresh: quirks.dupthresh,
            initial_cwnd: 1.0,
            rto: RtoConfig {
                granularity: SimDuration::from_millis(10),
                min_rto: SimDuration::from_secs_f64(path.t0),
                max_rto: SimDuration::from_secs_f64(path.t0 * 64.0 * 4.0),
                initial_rto: SimDuration::from_secs_f64(path.t0),
                backoff_cap_exp: quirks.backoff_cap_exp,
            },
            data_limit: None,
            style: RenoStyle::Reno,
            cc: CcAlgorithm::Reno,
        })
        .receiver_config(ReceiverConfig::default())
        .seed(seed)
        .build_with_observer(observer)
}

/// Drives one controller through the scripted ACK stream; returns the
/// number of hook calls.
fn cc_script(algo: CcAlgorithm) -> u64 {
    const ROUNDS: u32 = 20_000;
    let rtt = SimDuration::from_millis(100);
    let mut cc = CcState::new(algo, 1.0);
    let mut now = SimTime::ZERO;
    let mut hooks = 0;
    for round in 0..ROUNDS {
        now += rtt;
        for _ in 0..cc.window().min(64) {
            cc.on_new_ack(now);
            cc.on_rtt_sample(rtt);
            hooks += 2;
        }
        if round % 4 == 3 {
            cc.on_fast_retransmit(now, cc.window());
            for _ in 0..3 {
                cc.on_dupack_in_recovery();
            }
            cc.on_partial_ack(1);
            cc.exit_recovery();
            hooks += 6;
        }
        if round % 16 == 15 {
            cc.on_timeout(cc.window());
            hooks += 1;
        }
    }
    black_box(cc.cwnd());
    hooks
}
