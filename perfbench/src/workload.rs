//! The four campaign workloads: inputs made from a seed, one closed-loop
//! iteration, and the checks that every iteration's output is correct.

use crate::spans::{SpanId, Tracer};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcp_sim::cc::CcAlgorithm;
use tcp_sim::fleet::WheelConfig;
use tcp_sim::rounds::RoundsConfig;
use tcp_testbed::journal;
use tcp_testbed::{
    fig8_paths, run_campaign, run_fleet, run_hour_budgeted, run_serial_100s_with,
    run_table2_journaled, run_table2_supervised, CampaignRow, ExperimentOptions, FleetCampaignSpec,
    FleetCohortSpec, JobSpec, JournalConfig, Outcome, PathSpec, SupervisorConfig,
    DEFAULT_EVENT_BUDGET, TABLE2_PATHS,
};

/// Worker threads (campaign workers, fleet shards) of every pooled
/// workload: the reference host's `nproc`.
pub const WORKERS: usize = 2;

/// Connections per path in `serial_100s` (the paper's 100 serial runs).
const SERIAL_CONNECTIONS: usize = 100;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 24 hour-long Table II connections on the supervised pool.
    Table2Hour,
    /// The same campaign journaled, then replayed from its journal.
    Table2Journaled,
    /// 100 serial 100-second connections on each of the six Fig. 8 paths.
    Serial100s,
    /// 10^5 rounds-model flows in 10 cohorts on two shards.
    Fleet100k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table2Hour,
        Workload::Table2Journaled,
        Workload::Serial100s,
        Workload::Fleet100k,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Hour => "table2_hour",
            Workload::Table2Journaled => "table2_journaled",
            Workload::Serial100s => "serial_100s",
            Workload::Fleet100k => "fleet_100k",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The paths a packet-level workload runs, capped at `scale.paths`.
    /// `fleet_100k` has none; its packet-layer ledger rows borrow the
    /// Table II list so they exist on every workload.
    pub fn paths(self, scale: Scale) -> Vec<PathSpec> {
        let all = match self {
            Workload::Serial100s => fig8_paths(),
            _ => TABLE2_PATHS.to_vec(),
        };
        all.into_iter().take(scale.paths).collect()
    }
}

/// Input size: full for measurement, tiny for tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Most paths a campaign runs.
    pub paths: usize,
    /// Flows in the fleet.
    pub fleet_flows: u64,
}

impl Scale {
    /// The measured size.
    pub const FULL: Scale = Scale {
        paths: usize::MAX,
        fleet_flows: 100_000,
    };
    /// Test size: two paths, a thousand flows.
    pub const TINY: Scale = Scale {
        paths: 2,
        fleet_flows: 1_000,
    };
}

/// The supervisor every pooled campaign runs under.
pub fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        max_workers: WORKERS,
        ..SupervisorConfig::default()
    }
}

/// The fleet campaign: bench_report's two operating points (a comfortable
/// and a lossy grid point, 3:2 flows) crossed with the five
/// congestion-control laws, over a 30-second horizon, no wire audit.
pub fn fleet_spec(flows: u64, seed: u64) -> FleetCampaignSpec {
    let lossy = flows * 2 / 5;
    let points = [
        (0.02, 0.1, 1.0, 64, flows - lossy),
        (0.1, 0.3, 1.5, 16, lossy),
    ];
    let mut cohorts = Vec::new();
    for (p, rtt, t0, wmax, total) in points {
        let laws = CcAlgorithm::ALL.len() as u64;
        for (k, cc) in CcAlgorithm::ALL.into_iter().enumerate() {
            let extra = u64::from((k as u64) < total % laws);
            cohorts.push(FleetCohortSpec {
                label: format!("p={p} rtt={rtt} wmax={wmax} cc={}", cc.label()),
                config: RoundsConfig {
                    p,
                    rtt,
                    t0,
                    b: 2,
                    wmax,
                    cc,
                    ..RoundsConfig::default()
                },
                flows: total / laws + extra,
            });
        }
    }
    FleetCampaignSpec {
        cohorts,
        base_seed: seed,
        horizon_secs: 30.0,
        wheel: WheelConfig::default(),
        audit_flows_per_cohort: 0,
    }
}

/// Where a traced iteration records its spans.
#[derive(Clone, Copy)]
pub struct TraceCtx<'a> {
    /// The span store.
    pub tracer: &'a Arc<Tracer>,
    /// The iteration number spans are tagged with.
    pub iteration: u32,
}

/// What one run of a workload produced.
struct Output {
    /// Work events: wire events, or fleet events for `fleet_100k`.
    events: u64,
    /// Wall time of the library calls alone (checks excluded).
    elapsed: Duration,
    /// Digests of the results; must repeat exactly across iterations.
    fingerprint: Vec<u64>,
}

enum Inputs {
    Table2(Vec<PathSpec>),
    Journaled(Vec<PathSpec>, PathBuf),
    Serial(Vec<PathSpec>),
    Fleet(FleetCampaignSpec),
}

/// A workload's inputs plus the reference output of its warm-up run.
pub struct Prepared {
    workload: Workload,
    seed: u64,
    inputs: Inputs,
    reference: Vec<u64>,
    /// Work events one iteration processes.
    pub events: u64,
}

impl Prepared {
    /// Makes the workload's inputs from `seed` and runs the untimed warm-up
    /// whose output every later iteration must repeat. For `fleet_100k`
    /// the warm-up runs on one shard, so the check also proves the
    /// two-shard result shard-count invariant. `scratch` holds the
    /// journals of `table2_journaled`.
    pub fn new(
        workload: Workload,
        seed: u64,
        scale: Scale,
        scratch: &Path,
    ) -> Result<Prepared, String> {
        let inputs = match workload {
            Workload::Table2Hour => Inputs::Table2(workload.paths(scale)),
            Workload::Table2Journaled => {
                Inputs::Journaled(workload.paths(scale), scratch.join("campaign.waj"))
            }
            Workload::Serial100s => Inputs::Serial(workload.paths(scale)),
            Workload::Fleet100k => Inputs::Fleet(fleet_spec(scale.fleet_flows, seed)),
        };
        let mut prepared = Prepared {
            workload,
            seed,
            inputs,
            reference: Vec::new(),
            events: 0,
        };
        let warm = prepared.run(1, None)?;
        prepared.events = warm.events;
        prepared.reference = warm.fingerprint;
        Ok(prepared)
    }

    /// One timed iteration: runs the workload and checks its output against
    /// the warm-up's. Returns the wall time of the library calls. With
    /// `trace`, spans wrap the calls.
    pub fn iterate(&self, trace: Option<TraceCtx<'_>>) -> Result<Duration, String> {
        let out = self.run(WORKERS, trace)?;
        if out.events != self.events {
            return Err(format!(
                "{} events, warm-up had {}",
                out.events, self.events
            ));
        }
        if out.fingerprint != self.reference {
            let same = out.fingerprint.iter().zip(&self.reference);
            let i = same.take_while(|(a, b)| a == b).count();
            return Err(format!("result {i} differs from the warm-up's"));
        }
        Ok(out.elapsed)
    }

    fn run(&self, shards: usize, trace: Option<TraceCtx<'_>>) -> Result<Output, String> {
        let root = trace.map(|t| {
            t.tracer.open(
                format!("workload.{}", self.workload.name()),
                None,
                t.iteration,
            )
        });
        let out = match &self.inputs {
            Inputs::Table2(specs) => table2(specs, self.seed, trace.zip(root)),
            Inputs::Journaled(specs, file) => journaled(specs, self.seed, file, trace.zip(root)),
            Inputs::Serial(paths) => serial(paths, self.seed, trace.zip(root)),
            Inputs::Fleet(spec) => fleet(spec, shards, trace.zip(root)),
        };
        if let (Some(t), Some(id)) = (trace, root) {
            t.tracer.close(id);
        }
        out
    }
}

/// A traced iteration's span context: where spans go and their parent.
type Traced<'a> = Option<(TraceCtx<'a>, SpanId)>;

/// Runs `f`, inside a span named `name` when the iteration is traced.
fn within<T>(trace: Traced<'_>, name: &str, f: impl FnOnce() -> T) -> T {
    match trace {
        None => f(),
        Some((t, root)) => t.tracer.time(name, Some(root), t.iteration, f).0,
    }
}

/// Work events and result digests of a campaign's rows; a row that did
/// not end `Ok` or `Resumed` is an error.
pub(crate) fn rows_digest(rows: &[CampaignRow]) -> Result<(u64, Vec<u64>), String> {
    let mut events = 0;
    let mut digests = Vec::with_capacity(rows.len());
    for row in rows {
        let result = match (row.outcome, &row.result) {
            (Outcome::Ok | Outcome::Resumed, Some(result)) => result,
            _ => return Err(format!("row {} ended {}", row.label, row.outcome.label())),
        };
        events += result.stream.events;
        digests.push(digest(result)?);
    }
    Ok((events, digests))
}

/// Digest of `value`'s JSON form. The JSON round-trips every finite
/// `f64` exactly, so equal digests mean bit-identical results; only the
/// digest is kept, so the check adds one transient string, not a copy of
/// every result, to the memory being measured.
pub(crate) fn digest<T: serde::Serialize>(value: &T) -> Result<u64, String> {
    let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
    let mut hasher = DefaultHasher::new();
    json.hash(&mut hasher);
    Ok(hasher.finish())
}

fn table2(specs: &[PathSpec], seed: u64, trace: Traced<'_>) -> Result<Output, String> {
    let start = Instant::now();
    let report = match trace {
        None => run_table2_supervised(specs, seed, &supervisor()),
        // The traced form builds the same jobs `run_table2_supervised`
        // does, so a span can wrap each job on its pool worker; the
        // fingerprint check proves the rows unchanged.
        Some((t, root)) => {
            let jobs = specs
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let spec = *spec;
                    let tracer = Arc::clone(t.tracer);
                    let iteration = t.iteration;
                    let name = format!("testbed.run_hour_budgeted {}", spec.id());
                    JobSpec {
                        label: spec.id(),
                        seed: seed.wrapping_add(i as u64),
                        job: Arc::new(move |s| {
                            let run = || run_hour_budgeted(&spec, s, DEFAULT_EVENT_BUDGET);
                            tracer.time(&name, Some(root), iteration, run).0
                        }),
                    }
                })
                .collect();
            run_campaign(jobs, &supervisor())
        }
    };
    let elapsed = start.elapsed();
    let (events, fingerprint) = rows_digest(&report.rows)?;
    Ok(Output {
        events,
        elapsed,
        fingerprint,
    })
}

/// A journaled campaign into a fresh journal, then the replay-only
/// re-invocation a restarted process would make. Checks that the replay
/// reproduces every live row, appends nothing, and that the journal scans
/// clean to its end.
fn journaled(
    specs: &[PathSpec],
    seed: u64,
    file: &Path,
    trace: Traced<'_>,
) -> Result<Output, String> {
    let io = |e: std::io::Error| format!("journal {}: {e}", file.display());
    match std::fs::remove_file(file) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io(e)),
        _ => {}
    }
    let config = JournalConfig {
        supervisor: supervisor(),
        ..JournalConfig::default()
    };
    let call = |name| {
        within(trace, name, || {
            run_table2_journaled(specs, seed, file, &config)
        })
    };
    let start = Instant::now();
    let live = call("testbed.run_table2_journaled live").map_err(io)?;
    let live_elapsed = start.elapsed();
    let bytes = std::fs::metadata(file).map_err(io)?.len();
    let resumed_start = Instant::now();
    let replayed = call("testbed.run_table2_journaled replay").map_err(io)?;
    let elapsed = live_elapsed + resumed_start.elapsed();

    let (events, fingerprint) = rows_digest(&live.rows)?;
    if rows_digest(&replayed.rows)?.1 != fingerprint {
        return Err("replayed rows differ from the live rows".into());
    }
    let scan = journal::replay(file).map_err(io)?;
    if scan.torn_tail || scan.valid_bytes != bytes {
        return Err(format!(
            "journal scan: torn tail {}, {} of {bytes} bytes valid",
            scan.torn_tail, scan.valid_bytes
        ));
    }
    if std::fs::metadata(file).map_err(io)?.len() != bytes {
        return Err("the replay-only run appended to the journal".into());
    }
    std::fs::remove_file(file).map_err(io)?;
    Ok(Output {
        events,
        elapsed,
        fingerprint,
    })
}

fn serial(paths: &[PathSpec], seed: u64, trace: Traced<'_>) -> Result<Output, String> {
    let mut runs = Vec::with_capacity(paths.len());
    let start = Instant::now();
    for (i, path) in paths.iter().enumerate() {
        let opts = ExperimentOptions {
            cc: CcAlgorithm::ALL[i % CcAlgorithm::ALL.len()],
            ..ExperimentOptions::default()
        };
        let name = format!("testbed.run_serial_100s_with {}", path.id());
        let base = seed.wrapping_add(i as u64);
        runs.push(within(trace, &name, || {
            run_serial_100s_with(path, SERIAL_CONNECTIONS, base, &opts)
        }));
    }
    let elapsed = start.elapsed();
    let results = runs.iter().flatten();
    Ok(Output {
        events: results.clone().map(|r| r.stream.events).sum(),
        elapsed,
        fingerprint: results
            .flat_map(|r| [r.stream.events, r.stats.packets_sent])
            .collect(),
    })
}

fn fleet(spec: &FleetCampaignSpec, shards: usize, trace: Traced<'_>) -> Result<Output, String> {
    let start = Instant::now();
    let report = within(trace, "testbed.run_fleet", || run_fleet(spec, shards));
    let elapsed = start.elapsed();
    // The Reno cohorts' population mean send rate must sit inside the
    // atlas's 2x band around the Eq. (32) prediction.
    for (cohort, spec) in report.cohorts.iter().zip(&spec.cohorts) {
        let ratio = cohort.rate_mean_pps / cohort.model_rate_pps;
        if spec.config.cc == CcAlgorithm::Reno && !(0.5..=2.0).contains(&ratio) {
            return Err(format!(
                "cohort {}: rate/model {ratio:.3} outside [0.5, 2]",
                cohort.label
            ));
        }
    }
    Ok(Output {
        events: report.events,
        elapsed,
        fingerprint: vec![digest(&report)?],
    })
}
