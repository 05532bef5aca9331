//! Campaign-level benchmark for the PFTK reproduction.
//!
//! Times whole measurement campaigns through the public functions of
//! `tcp-testbed`, `tcp-sim` and `tcp-trace`, checks every campaign's
//! output, and, in a traced run, breaks the cost down into a per-layer
//! ledger. `BENCHMARK.json` at the repository root declares the
//! workloads and metrics; `BENCHMARK.md` next to this crate's manifest is
//! the glossary, the layer → metric map and the baseline numbers.
//!
//! # Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!     --workload table2_hour --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each invocation is one process running one workload: set-up (input
//! generation plus an untimed warm-up whose output becomes the reference,
//! repeated three times), then closed-loop timed iterations of identical
//! work until `--seconds` have passed. It prints every metric as
//! `name value unit`, the iteration-time quartiles, and, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. A
//! failed output check makes `correct` false and the exit code 1.
//!
//! `--trace 1` reports the per-layer metrics instead: one traced
//! iteration of the workload (spans around each public call, for the
//! tracing overhead), then passes of the [`ledger`] until `--seconds`
//! have passed. Spans go to `perfbench/out/spans-<workload>-seed<n>.json`.
//!
//! The load uses at most [`workload::WORKERS`] (= 2) worker threads.

pub mod ledger;
pub mod spans;
pub mod stats;
pub mod workload;

use std::path::{Path, PathBuf};

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[("throughput", "1/s"), ("setup_s", "s")];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("testbed.calibrate.ms_per_path", "ms"),
    ("testbed.calibrate.share", "ratio"),
    ("sim.connection.bare_ns_per_event", "ns"),
    ("sim.connection.streaming_ns_per_event", "ns"),
    ("sim.connection.build_us", "us"),
    ("sim.connection.snapshot_us", "us"),
    ("sim.event.schedule_pop_ns", "ns"),
    ("sim.loss.draw_ns", "ns"),
    ("sim.cc.reno.hook_ns", "ns"),
    ("sim.cc.newreno.hook_ns", "ns"),
    ("sim.cc.cubic.hook_ns", "ns"),
    ("sim.cc.relentless.hook_ns", "ns"),
    ("sim.cc.scalable.hook_ns", "ns"),
    ("trace.observer.ns_per_event", "ns"),
    ("trace.classifier.ns_per_record", "ns"),
    ("trace.karn.ns_per_record", "ns"),
    ("trace.corr.ns_per_record", "ns"),
    ("trace.interval.ns_per_record", "ns"),
    ("trace.stream.ns_per_record", "ns"),
    ("trace.stream.finish_us", "us"),
    ("trace.stream.peak_state_kb", "kB"),
    ("trace.stream.snapshot_us", "us"),
    ("trace.stream.snapshot_kb", "kB"),
    ("testbed.journal.checkpoints", "count"),
    ("testbed.journal.checkpoint_mb", "MB"),
    ("testbed.journal.done_mb", "MB"),
    ("testbed.journal.append_sync_ms", "ms"),
    ("testbed.journal.replay_mb_per_s", "MB/s"),
    ("testbed.journal.resume_ms", "ms"),
    ("testbed.pool.parallel_eff", "ratio"),
    ("sim.fleet.shard_new_ms", "ms"),
    ("sim.fleet.run_until_ns_per_event_full", "ns"),
    ("sim.fleet.run_until_ns_per_event_half", "ns"),
    ("sim.fleet.run_until_ns_per_event_eighth", "ns"),
    ("sim.fleet.wheel.schedule_ns", "ns"),
    ("testbed.fleet.merge_ms", "ms"),
    ("testbed.fleet.parallel_eff", "ratio"),
    ("testbed.fleet.imbalance", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.peak_rss_mb", "MB"),
];

/// Process peak resident set (`VmHWM`), bytes; `None` without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Where runs write spans and scratch journals: `out/` next to this
/// crate's manifest, inside the checkout being measured.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Type of the filesystem holding `path` (the mount with the longest
/// matching prefix in `/proc/mounts`), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
