//! Machine-readable benchmark emitter: times the three hot-path benchmark
//! groups and writes `results/BENCH_sim.json` with ns/event and events/sec
//! per entry.
//!
//! This is the artifact behind performance acceptance ("events/sec on
//! `packet_level_sim/60s_bernoulli` must not regress"): the Criterion-style
//! benches under `benches/` print human-readable medians, while this binary
//! measures the same workloads and persists the numbers where CI can diff
//! them. Run with `cargo run --release -p tcp-bench --bin bench_report`
//! (release: debug-profile numbers are meaningless for throughput). See
//! DESIGN.md §9 for the baseline-refresh workflow.

use std::time::Instant;

use tcp_sim::connection::Connection;
use tcp_sim::fleet::WheelConfig;
use tcp_sim::loss::Bernoulli;
use tcp_sim::rounds::{RoundsConfig, RoundsSim};
use tcp_sim::time::{SimDuration, SimTime};
use tcp_testbed::journal::Checkpoint;
use tcp_testbed::{
    run_fleet, CampaignRecord, FleetCampaignSpec, FleetCohortSpec, Journal, TraceRecorder,
};
use tcp_trace::analyzer::{analyze, AnalyzerConfig};
use tcp_trace::record::Trace;
use tcp_trace::stream::{LogMark, StreamAnalyzer, StreamConfig, TraceSink};

/// One benchmark measurement: a workload, its median per-iteration wall
/// time, and the throughput normalization.
#[derive(serde::Serialize)]
struct Entry {
    /// Benchmark group (matches the Criterion group names).
    group: &'static str,
    /// Benchmark id within the group.
    bench: String,
    /// Events processed by one iteration (engine events, TDP packets, or
    /// trace records — see `unit`).
    events: u64,
    /// What `events` counts.
    unit: &'static str,
    /// Median wall time of one iteration, nanoseconds.
    ns_per_iter: f64,
    /// `ns_per_iter / events`.
    ns_per_event: f64,
    /// `events * 1e9 / ns_per_iter`.
    events_per_sec: f64,
}

/// Trace-pipeline memory accounting for one analysis mode: what the
/// pipeline retains at peak while analyzing the same simulated connection.
#[derive(serde::Serialize)]
struct MemoryEntry {
    /// `batch_materialized` (retain the trace, analyze afterwards) or
    /// `streaming` (reduce while simulating, retain analyzer state only).
    pipeline: &'static str,
    /// Simulated connection length, seconds.
    sim_secs: f64,
    /// Wire events (sends + ACKs) the connection produced.
    events: u64,
    /// Peak retained bytes: the materialized trace's in-RAM size for the
    /// batch pipeline, the analyzer-state high-water mark for streaming.
    peak_retained_bytes: u64,
    /// `peak_retained_bytes / events`.
    bytes_per_event: f64,
    /// Peak retained bytes normalized to one simulated hour at this
    /// connection's event rate — the campaign-planning number.
    bytes_per_sim_hour: f64,
}

/// Checkpointing cost, measured two ways (DESIGN.md §13).
///
/// The acceptance row is the `packet_level_sim` workload (the same
/// observer-free connection as the `60s_bernoulli` benches): checkpointing
/// there costs one `Connection::snapshot` (~600 B) per boundary, and
/// `overhead_frac` must stay ≤ 0.05 — this is the guard that the journal
/// machinery stays off the sim hot path.
///
/// The `campaign_*` rows run the full journaled-campaign pipeline
/// (streaming analyzer attached). A campaign checkpoint also carries an
/// analyzer delta: the O(window) head state plus the samples appended
/// since the previous checkpoint, encoded on the worker. The I/O runs on
/// the journal's writer thread, but on a single-core host that thread
/// shares the CPU, so the wall-clock `campaign_overhead_frac` reported
/// here is an upper bound on what a multi-core host sees. The size rows
/// measure one mid-run checkpoint: `stream_snapshot_bytes` is the full
/// analyzer snapshot (what a delta chain replaces), while
/// `checkpoint_record_bytes` is the record a campaign writes there, with
/// the delta since the previous boundary.
#[derive(serde::Serialize)]
struct CheckpointReport {
    /// Checkpoint cadence, sim-seconds (`JournalConfig::default`).
    cadence_sim_secs: f64,
    /// Sliced-run horizon, sim-seconds.
    horizon_sim_secs: f64,
    /// Checkpoints written per timed iteration.
    checkpoints_per_run: u64,
    /// ns/event, packet-level workload, checkpointing off.
    ns_per_event_off: f64,
    /// ns/event, packet-level workload, conn checkpoint at each boundary.
    ns_per_event_on: f64,
    /// `(on - off) / off` for the packet-level workload — the acceptance
    /// number (≤ 0.05).
    overhead_frac: f64,
    /// ns/event, full campaign pipeline, checkpointing off.
    campaign_ns_per_event_off: f64,
    /// ns/event, full campaign pipeline, checkpointing on.
    campaign_ns_per_event_on: f64,
    /// `(on - off) / off` for the campaign pipeline (informative; wall
    /// clock includes the writer thread's CPU on single-core hosts).
    campaign_overhead_frac: f64,
    /// One `Connection::snapshot` for this workload, encoded bytes.
    conn_snapshot_bytes: u64,
    /// One full `StreamAnalyzer::snapshot` for this workload, encoded
    /// bytes.
    stream_snapshot_bytes: u64,
    /// One journaled checkpoint record (connection snapshot, analyzer
    /// delta since the previous boundary, resume parameters), payload
    /// bytes before framing.
    checkpoint_record_bytes: u64,
}

/// One fleet-scale measurement: the same sharded campaign (same seed,
/// same flow population) at one shard count. The acceptance number is
/// `events_per_sec` at the best shard count sustaining `flows` concurrent
/// flows.
#[derive(serde::Serialize)]
struct FleetBenchEntry {
    /// Shards the campaign ran on.
    shards: usize,
    /// Concurrent flows simulated (constant across shard counts).
    flows: u64,
    /// Fleet events (rounds / loss macro-steps) per iteration.
    events: u64,
    /// Median wall time of one campaign iteration, nanoseconds.
    ns_per_iter: f64,
    /// `ns_per_iter / events`.
    ns_per_event: f64,
    /// Aggregate fleet throughput, events/sec across all shards.
    events_per_sec: f64,
    /// Process peak RSS (`VmHWM`) observed after this row's runs, bytes.
    /// A process-lifetime high-water mark: rows are measured in listed
    /// order, so each row's value includes every earlier row's footprint.
    peak_rss_bytes: u64,
}

/// Process peak resident set (`VmHWM` from `/proc/self/status`), bytes;
/// 0 where the proc filesystem is unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// The fleet benchmark campaign: a two-cohort grid (a comfortable and a
/// lossy grid point) totalling `flows` concurrent flows over a 30-second
/// horizon, no wire audit — pure shard-loop throughput.
fn fleet_spec(flows: u64) -> FleetCampaignSpec {
    let lossy = flows * 2 / 5;
    FleetCampaignSpec {
        cohorts: vec![
            FleetCohortSpec {
                label: "p=0.02 rtt=0.1 wmax=64".into(),
                config: RoundsConfig {
                    p: 0.02,
                    rtt: 0.1,
                    t0: 1.0,
                    b: 2,
                    wmax: 64,
                    ..RoundsConfig::default()
                },
                flows: flows - lossy,
            },
            FleetCohortSpec {
                label: "p=0.1 rtt=0.3 wmax=16".into(),
                config: RoundsConfig {
                    p: 0.1,
                    rtt: 0.3,
                    t0: 1.5,
                    b: 2,
                    wmax: 16,
                    ..RoundsConfig::default()
                },
                flows: lossy,
            },
        ],
        base_seed: 0xF1EE7,
        horizon_secs: 30.0,
        wheel: WheelConfig::default(),
        audit_flows_per_cohort: 0,
    }
}

/// Times the fleet campaign at 1, 2, and 8 shards.
/// `PFTK_FLEET_BENCH_FLOWS` overrides the default 10^5-flow population
/// (the acceptance floor for release builds).
fn fleet() -> Vec<FleetBenchEntry> {
    let flows = std::env::var("PFTK_FLEET_BENCH_FLOWS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100_000u64);
    let spec = fleet_spec(flows);
    [1usize, 2, 8]
        .into_iter()
        .map(|shards| {
            let (ns_per_iter, events) = measure(3, || {
                let report = run_fleet(&spec, shards);
                std::hint::black_box(report.cohorts.len());
                report.events
            });
            let events_f = events.max(1) as f64;
            FleetBenchEntry {
                shards,
                flows,
                events,
                ns_per_iter,
                ns_per_event: ns_per_iter / events_f,
                events_per_sec: events_f * 1e9 / ns_per_iter.max(1.0),
                peak_rss_bytes: peak_rss_bytes(),
            }
        })
        .collect()
}

#[derive(serde::Serialize)]
struct Report {
    /// Reminder that only release-profile numbers are comparable.
    profile: &'static str,
    entries: Vec<Entry>,
    /// Fleet-scale shard sweep: the same 10^5-flow campaign at 1/2/8
    /// shards, with aggregate events/sec and peak RSS.
    fleet: Vec<FleetBenchEntry>,
    /// Batch-vs-streaming memory comparison on an identical connection.
    trace_memory: Vec<MemoryEntry>,
    /// Crash-safety cost: checkpointing on vs off, plus snapshot sizes.
    checkpoint: CheckpointReport,
}

/// Median of `iters` timed runs of `workload`, which reports how many
/// events its single iteration processed.
fn measure(iters: usize, mut workload: impl FnMut() -> u64) -> (f64, u64) {
    let mut times: Vec<f64> = Vec::with_capacity(iters);
    let mut events = 0;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        events = workload();
        times.push(start.elapsed().as_nanos() as f64);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], events)
}

fn entry(
    group: &'static str,
    bench: String,
    unit: &'static str,
    iters: usize,
    workload: impl FnMut() -> u64,
) -> Entry {
    let (ns_per_iter, events) = measure(iters, workload);
    let events_f = events.max(1) as f64;
    Entry {
        group,
        bench,
        events,
        unit,
        ns_per_iter,
        ns_per_event: ns_per_iter / events_f,
        events_per_sec: events_f * 1e9 / ns_per_iter.max(1.0),
    }
}

fn packet_level(p: f64) -> Entry {
    entry(
        "packet_level_sim",
        format!("60s_bernoulli/{p}"),
        "engine events",
        15,
        move || {
            let mut conn = Connection::builder()
                .rtt(0.1)
                .loss(Bernoulli::new(p))
                .seed(1)
                .build();
            conn.run_for(SimDuration::from_secs_f64(60.0));
            std::hint::black_box(conn.stats().packets_sent);
            conn.events_processed()
        },
    )
}

/// The `packet_level_sim` workload behind each congestion-control
/// variant: same path, loss rate, and seed as [`packet_level`] at
/// p = 0.05, differing only in the controller behind the
/// `CongestionController` seam. The `cc=reno` row is the perf guard
/// that the trait seam stays free (monomorphized dispatch, no vtable):
/// `tests/perf_smoke.rs` holds every row within ±25% of
/// `BENCH_baseline.json`.
fn packet_level_variant(algo: tcp_sim::cc::CcAlgorithm) -> Entry {
    use tcp_sim::reno::sender::SenderConfig;
    entry(
        "packet_level_sim",
        format!("60s_bernoulli/0.05/cc={}", algo.label()),
        "engine events",
        15,
        move || {
            let mut conn = Connection::builder()
                .rtt(0.1)
                .sender_config(SenderConfig {
                    cc: algo,
                    ..SenderConfig::default()
                })
                .loss(Bernoulli::new(0.05))
                .seed(1)
                .build();
            conn.run_for(SimDuration::from_secs_f64(60.0));
            std::hint::black_box(conn.stats().packets_sent);
            conn.events_processed()
        },
    )
}

fn rounds() -> Entry {
    entry("rounds_sim", "10k_tdps".into(), "packets sent", 15, || {
        let mut sim = RoundsSim::new(
            RoundsConfig {
                p: 0.02,
                rtt: 0.1,
                t0: 1.0,
                b: 2,
                wmax: 64,
                ..RoundsConfig::default()
            },
            3,
        );
        sim.run_tdps(10_000);
        std::hint::black_box(sim.send_rate());
        sim.stats().packets_sent
    })
}

fn analyzer_trace() -> Trace {
    let mut conn = Connection::builder()
        .rtt(0.05)
        .loss(Bernoulli::new(0.02))
        .seed(5)
        .build_with_observer(TraceRecorder::new());
    conn.run_for(SimDuration::from_secs_f64(600.0));
    conn.finish();
    conn.into_observer().into_trace()
}

fn analyzer() -> Entry {
    let trace = analyzer_trace();
    let records = trace.len() as u64;
    entry(
        "analyzer",
        "classify_loss_indications".into(),
        "trace records",
        15,
        move || {
            std::hint::black_box(analyze(&trace, AnalyzerConfig::default()));
            records
        },
    )
}

fn streaming_analyzer() -> Entry {
    let trace = analyzer_trace();
    let records = trace.len() as u64;
    entry(
        "analyzer",
        "stream_full_reduction".into(),
        "trace records",
        15,
        move || {
            let mut s = StreamAnalyzer::new(StreamConfig::default());
            for rec in trace.records() {
                s.on_record(rec);
            }
            std::hint::black_box(s.finish(Some(600.0)));
            records
        },
    )
}

/// Runs the reference 600-second connection once per pipeline and reports
/// what each retains at peak.
fn trace_memory() -> Vec<MemoryEntry> {
    const SIM_SECS: f64 = 600.0;
    let mem = |pipeline, events: u64, peak: u64| {
        let per_event = peak as f64 / events.max(1) as f64;
        MemoryEntry {
            pipeline,
            sim_secs: SIM_SECS,
            events,
            peak_retained_bytes: peak,
            bytes_per_event: per_event,
            bytes_per_sim_hour: peak as f64 * 3600.0 / SIM_SECS,
        }
    };
    // Batch: materialize, then analyze. Peak retention is the trace.
    let trace = analyzer_trace();
    let batch = mem(
        "batch_materialized",
        trace.len() as u64,
        trace.approx_bytes() as u64,
    );
    // Streaming: same connection, reduced while simulating.
    let mut conn = Connection::builder()
        .rtt(0.05)
        .loss(Bernoulli::new(0.02))
        .seed(5)
        .build_with_observer(TraceRecorder::streaming(StreamConfig::default()));
    conn.run_for(SimDuration::from_secs_f64(SIM_SECS));
    conn.finish();
    let (stream, _) = conn.into_observer().finish(Some(SIM_SECS));
    let stream = stream
        //~ allow(expect): a streaming-mode recorder always yields an analysis
        .expect("streaming recorder yields an analysis");
    vec![
        batch,
        mem("streaming", stream.events, stream.peak_state_bytes),
    ]
}

/// Builds the checkpoint-overhead workload connection: the packet-level
/// hot configuration with a streaming (non-retaining) recorder, the same
/// shape journaled campaigns run.
fn checkpoint_conn() -> Connection<TraceRecorder> {
    Connection::builder()
        .rtt(0.1)
        .loss(Bernoulli::new(0.02))
        .seed(7)
        .build_with_observer(TraceRecorder::streaming(StreamConfig::default()))
}

/// One sliced run of the observer-free `packet_level_sim` workload; with
/// `journal` set, a connection checkpoint is cut at every slice boundary.
/// This isolates the sim-side cost of checkpointing (snapshot encode +
/// channel handoff) from the analyzer-state encode, which belongs to the
/// campaign pipeline measured by [`campaign_run`].
fn sim_run(cadence: f64, horizon: f64, journal: Option<&Journal>) -> u64 {
    let mut conn = Connection::builder()
        .rtt(0.1)
        .loss(Bernoulli::new(0.02))
        .seed(7)
        .build();
    let mut k: u64 = 1;
    loop {
        let t = (k as f64 * cadence).min(horizon);
        conn.run_until_budget(SimTime::from_secs_f64(t), u64::MAX);
        if t >= horizon {
            break;
        }
        if let Some(journal) = journal {
            if let Ok(conn_bytes) = conn.snapshot() {
                journal.append(checkpoint_record(
                    cadence,
                    horizon,
                    k + 1,
                    conn_bytes,
                    Vec::new(),
                ));
            }
        }
        k += 1;
    }
    std::hint::black_box(conn.stats().packets_sent);
    conn.events_processed()
}

/// One sliced run of the full journaled-campaign pipeline (streaming
/// analyzer attached); with `journal` set, a checkpoint (connection
/// snapshot + analyzer delta since the previous boundary, both encoded on
/// the worker) is cut at every slice boundary — exactly what
/// `run_table2_journaled` does between `run_until_budget` slices.
fn campaign_run(cadence: f64, horizon: f64, journal: Option<&Journal>) -> u64 {
    let mut conn = checkpoint_conn();
    let mut mark = LogMark::default();
    let mut k: u64 = 1;
    loop {
        let t = (k as f64 * cadence).min(horizon);
        conn.run_until_budget(SimTime::from_secs_f64(t), u64::MAX);
        if t >= horizon {
            break;
        }
        if let Some(journal) = journal {
            if let (Ok(conn_bytes), Some((stream, next))) =
                (conn.snapshot(), conn.observer().stream_snapshot_since(mark))
            {
                mark = next;
                journal.append(checkpoint_record(
                    cadence,
                    horizon,
                    k + 1,
                    conn_bytes,
                    stream,
                ));
            }
        }
        k += 1;
    }
    std::hint::black_box(conn.stats().packets_sent);
    conn.events_processed()
}

/// The encoded checkpoint record the bench workloads journal.
fn checkpoint_record(
    cadence: f64,
    horizon: f64,
    next_boundary: u64,
    conn: Vec<u8>,
    stream: Vec<u8>,
) -> Vec<u8> {
    CampaignRecord::Checkpoint(Checkpoint {
        job_index: 0,
        seed: 7,
        wire_bits: [0; 3],
        horizon_bits: horizon.to_bits(),
        every_bits: cadence.to_bits(),
        next_boundary,
        conn,
        stream,
    })
    .encode()
}

fn checkpoint_report() -> Result<CheckpointReport, Box<dyn std::error::Error>> {
    // The production density: `JournalConfig::default` cuts a checkpoint
    // every 300 sim-seconds. A denser cadence inflates the relative cost
    // quadratically (same encode work amortized over fewer sim events)
    // and does not reflect what journaled campaigns pay.
    const CADENCE: f64 = 300.0;
    const HORIZON: f64 = 900.0;
    let checkpoints_per_run = (HORIZON / CADENCE) as u64 - 1;

    // Snapshot sizes, measured once mid-run (steady state, not cold start):
    // the checkpoint at the second boundary, whose delta covers one cadence.
    let (conn_snapshot_bytes, stream_snapshot_bytes, checkpoint_record_bytes) = {
        let mut conn = checkpoint_conn();
        conn.run_until_budget(SimTime::from_secs_f64(CADENCE), u64::MAX);
        let mark = conn.observer().stream_snapshot_since(LogMark::default());
        let mark = mark.map(|(_, mark)| mark).unwrap_or_default();
        conn.run_until_budget(SimTime::from_secs_f64(2.0 * CADENCE), u64::MAX);
        let conn_bytes = conn.snapshot().unwrap_or_default();
        let stream_bytes = conn.observer().stream_snapshot().unwrap_or_default();
        let delta = conn.observer().stream_snapshot_since(mark);
        let delta = delta.map(|(delta, _)| delta).unwrap_or_default();
        let (conn_len, stream_len) = (conn_bytes.len() as u64, stream_bytes.len() as u64);
        let record = checkpoint_record(CADENCE, HORIZON, 3, conn_bytes, delta);
        (conn_len, stream_len, record.len() as u64)
    };

    let mut journal_path = std::env::temp_dir();
    journal_path.push(format!("pftk-bench-checkpoint-{}.waj", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let journal = Journal::open(&journal_path)?;

    // Interleave the off/on timings so slow machine phases (thermal,
    // scheduler) bias both sides equally instead of whichever ran second.
    let measure_pair = |run: &mut dyn FnMut(Option<&Journal>) -> u64| {
        let mut off_times = Vec::new();
        let mut on_times = Vec::new();
        let mut off_events = 0;
        let mut on_events = 0;
        for _ in 0..15 {
            let start = Instant::now();
            off_events = run(None);
            off_times.push(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            on_events = run(Some(&journal));
            on_times.push(start.elapsed().as_nanos() as f64);
        }
        off_times.sort_by(f64::total_cmp);
        on_times.sort_by(f64::total_cmp);
        let off = off_times[off_times.len() / 2] / off_events.max(1) as f64;
        let on = on_times[on_times.len() / 2] / on_events.max(1) as f64;
        (off, on, (on - off) / off.max(f64::MIN_POSITIVE))
    };

    let (sim_off, sim_on, sim_frac) = measure_pair(&mut |j| sim_run(CADENCE, HORIZON, j));
    let (camp_off, camp_on, camp_frac) = measure_pair(&mut |j| campaign_run(CADENCE, HORIZON, j));
    drop(journal);
    let _ = std::fs::remove_file(&journal_path);

    Ok(CheckpointReport {
        cadence_sim_secs: CADENCE,
        horizon_sim_secs: HORIZON,
        checkpoints_per_run,
        ns_per_event_off: sim_off,
        ns_per_event_on: sim_on,
        overhead_frac: sim_frac,
        campaign_ns_per_event_off: camp_off,
        campaign_ns_per_event_on: camp_on,
        campaign_overhead_frac: camp_frac,
        conn_snapshot_bytes,
        stream_snapshot_bytes,
        checkpoint_record_bytes,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let report = Report {
        profile: if cfg!(debug_assertions) {
            "debug (numbers not comparable; rerun with --release)"
        } else {
            "release"
        },
        entries: {
            let mut entries = vec![packet_level(0.005), packet_level(0.05)];
            entries.extend(tcp_sim::cc::CcAlgorithm::ALL.map(packet_level_variant));
            entries.extend([rounds(), analyzer(), streaming_analyzer()]);
            entries
        },
        fleet: fleet(),
        trace_memory: trace_memory(),
        checkpoint: checkpoint_report()?,
    };
    let json = serde_json::to_string_pretty(&report)?;
    std::fs::create_dir_all("results")?;
    let path = "results/BENCH_sim.json";
    std::fs::write(path, json.as_bytes())?;
    println!("{json}");
    eprintln!("wrote {path}");
    Ok(())
}
