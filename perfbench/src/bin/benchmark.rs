//! `benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]`
//!
//! Runs one workload in this process and prints its metrics; see the crate
//! docs and `BENCHMARK.md`. Exit code 0 when every output check passed,
//! 1 when one failed, 2 on a usage error.

use pftk_perfbench::ledger::{run_pass, Canned, Ledger};
use pftk_perfbench::spans::Tracer;
use pftk_perfbench::stats::{median, Summary};
use pftk_perfbench::workload::{Prepared, Scale, TraceCtx, Workload, WORKERS};
use pftk_perfbench::{fs_type, out_dir, peak_rss_bytes, Metric, END_TO_END};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: benchmark --workload <table2_hour|table2_journaled|serial_100s|fleet_100k> \
     --seed <n> [--seconds <s>] [--trace 0|1]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed iterations a run makes, however long they take.
const MIN_ITERATIONS: usize = 5;
/// Untraced iterations a traced run times for the tracing overhead.
const OVERHEAD_BASELINE: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 25.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// What one run attempted and measured.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Run {
    /// Runs `f`, counting it as an attempt and any error or panic as a
    /// failure.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into()));
        result
            .map_err(|e| {
                self.failed += 1;
                eprintln!("{what} failed: {e}");
            })
            .ok()
    }
}

fn print_summary(name: &str, samples: &[f64]) -> Summary {
    let s = Summary::of(samples);
    println!(
        "# {name} median {} q1 {} q3 {} p10 {} n {}",
        s.median, s.q1, s.q3, s.p10, s.n
    );
    s
}

/// Untraced run: set-ups, then timed iterations for `seconds`.
fn measure(args: &Args, scratch: &Path, run: &mut Run) {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        if let Some(p) = run.attempt("set-up", || {
            Prepared::new(args.workload, args.seed, Scale::FULL, scratch)
        }) {
            setups.push(start.elapsed().as_secs_f64());
            prepared = Some(p);
        }
    }
    let Some(prepared) = prepared else { return };
    let mut times = Vec::new();
    let start = Instant::now();
    while run.failed == 0 && (times.len() < MIN_ITERATIONS || start.elapsed() < args.seconds) {
        if let Some(t) = run.attempt("iteration", || prepared.iterate(None)) {
            times.push(t.as_secs_f64());
        }
    }
    if run.failed > 0 {
        return;
    }
    let iteration = print_summary("iteration_s", &times);
    print_summary("setup_s", &setups);
    println!("# events_per_iteration {}", prepared.events);
    // Throughput at the first decile of iteration time: on a shared host,
    // slow phases lasting seconds move the median between runs far more
    // than any code change a bound could resolve, while the fast tail
    // tracks the code.
    let values: [f64; END_TO_END.len()] = [prepared.events as f64 / iteration.p10, median(&setups)];
    run.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
}

/// Traced run: the tracing overhead on the workload itself, then ledger
/// passes for `seconds`.
fn trace(args: &Args, scratch: &Path, run: &mut Run) {
    let tracer = Arc::new(Tracer::default());
    let mut ledger = Ledger::default();
    let Some(prepared) = run.attempt("set-up", || {
        Prepared::new(args.workload, args.seed, Scale::FULL, scratch)
    }) else {
        return;
    };
    // A fresh process through one set-up: the inputs and one campaign.
    let Some(rss) = run.attempt("reading VmHWM", || {
        peak_rss_bytes().ok_or_else(|| "no /proc/self/status".to_string())
    }) else {
        return;
    };
    ledger.record("bench.peak_rss_mb", rss as f64 / 1e6);
    let untraced: Vec<f64> = (0..OVERHEAD_BASELINE)
        .filter_map(|_| run.attempt("iteration", || prepared.iterate(None)))
        .map(|t| t.as_secs_f64())
        .collect();
    let ctx = TraceCtx {
        tracer: &tracer,
        iteration: 0,
    };
    let Some(traced) = run.attempt("traced iteration", || prepared.iterate(Some(ctx))) else {
        return;
    };
    if untraced.is_empty() {
        return;
    }
    let overhead = traced.as_secs_f64() / median(&untraced);
    println!("# tracing_overhead {overhead} (traced iteration / untraced median)");
    ledger.record("bench.trace_overhead", overhead);

    let canned = Canned::new(args.workload, args.seed, Scale::FULL);
    let start = Instant::now();
    for pass in 0.. {
        let pass_start = Instant::now();
        if run
            .attempt("ledger pass", || {
                run_pass(&canned, &tracer, pass, scratch, &mut ledger)
            })
            .is_none()
        {
            return;
        }
        if start.elapsed() + pass_start.elapsed() > args.seconds {
            println!("# ledger_passes {}", pass + 1);
            break;
        }
    }
    for line in ledger.accounting() {
        println!("# accounting {line}");
    }
    match ledger.metrics() {
        Ok(metrics) => run.metrics = metrics,
        Err(e) => {
            run.attempted += 1;
            run.failed += 1;
            eprintln!("{e}");
        }
    }
    let spans = out_dir().join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if run
        .attempt("writing spans", || {
            std::fs::write(&spans, tracer.to_json()).map_err(|e| e.to_string())
        })
        .is_some()
    {
        println!("# spans {}", spans.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    println!(
        "# workload {} seed {} workers {WORKERS} available_parallelism {} scratch_fs {}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fs_type(&scratch),
    );
    let mut run = Run::default();
    if args.trace {
        trace(&args, &scratch, &mut run);
    } else {
        measure(&args, &scratch, &mut run);
    }
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("cannot remove {}: {e}", scratch.display());
    }
    let correct = run.failed == 0
        && run.attempted > 0
        && !run.metrics.is_empty()
        && run.metrics.iter().all(|m| m.value.is_finite());
    let mut json = Vec::new();
    for m in &run.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
        if m.value.is_finite() {
            json.push(format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
