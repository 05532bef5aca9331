//! Tests of the benchmark's own code: the quantile helper, the
//! `BENCHMARK.json` declaration against what the emitter reports, and
//! every workload and ledger pass on tiny inputs through the same check
//! code a measured run uses.

use pftk_perfbench::ledger::{run_pass, Canned, Ledger};
use pftk_perfbench::spans::Tracer;
use pftk_perfbench::stats::{median, quantiles, Summary};
use pftk_perfbench::workload::{Prepared, Scale, TraceCtx, Workload};
use pftk_perfbench::{out_dir, peak_rss_bytes, END_TO_END, PER_LAYER};
use serde::Content;
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

#[test]
fn quantiles_match_python_exclusive_method() {
    // Expected values from Python's statistics.quantiles(data, n=...).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quantiles(&ten, 4), [2.75, 5.5, 8.25]);
    assert!((quantiles(&ten, 10)[0] - 1.1).abs() < 1e-12);
    assert_eq!(quantiles(&[4.0, 2.0, 3.0, 1.0], 4), [1.25, 2.5, 3.75]);
    assert_eq!(quantiles(&[3.0, 1.0], 4), [0.5, 2.0, 3.5]);
    assert_eq!(quantiles(&[5.0], 4), [5.0; 3]);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let s = Summary::of(&ten);
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
}

fn field<'a>(object: &'a Content, key: &str) -> &'a Content {
    match object {
        Content::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn text(value: &Content) -> &str {
    match value {
        Content::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn items(value: &Content) -> &[Content] {
    match value {
        Content::Seq(v) => v,
        other => panic!("not an array: {other:?}"),
    }
}

fn number(value: &Content) -> f64 {
    match *value {
        Content::F64(x) => x,
        Content::U64(x) => x as f64,
        ref other => panic!("not a number: {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_exactly_what_is_emitted() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text_of_file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = serde_json::parse_value(&text_of_file).expect("BENCHMARK.json parses");
    let Content::Map(top) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    let expected = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    assert_eq!(keys, expected);
    let paths: Vec<&str> = items(field(&doc, "paths")).iter().map(text).collect();
    assert_eq!(paths, ["perfbench"]);

    let workloads: Vec<&str> = items(field(&doc, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    let declared = |key| -> Vec<(&str, &str)> {
        items(field(&doc, key))
            .iter()
            .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
            .collect()
    };
    assert_eq!(declared("end_to_end"), END_TO_END);
    assert_eq!(declared("per_layer"), PER_LAYER);

    let mut seen = HashSet::new();
    let metrics = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0);
    for name in workloads.iter().copied().chain(metrics) {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "name used twice: {name}");
    }
    for metric in items(field(&doc, "end_to_end")) {
        let bound = number(field(metric, "bound"));
        assert!((0.0..=0.25).contains(&bound), "bound {bound}");
        if text(field(metric, "name")) == "setup_s" {
            assert_eq!(text(field(metric, "better")), "lower");
        }
    }
}

/// One workload at tiny scale: set-up, an untraced and a traced
/// iteration through the output checks, then one ledger pass, which must
/// report every declared per-layer metric.
fn tiny(workload: Workload) {
    let scratch = out_dir().join(format!("test-{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let prepared = Prepared::new(workload, 7, Scale::TINY, &scratch).unwrap();
    assert!(prepared.events > 0);
    let untraced = prepared.iterate(None).unwrap();
    let tracer = Arc::new(Tracer::default());
    let ctx = TraceCtx {
        tracer: &tracer,
        iteration: 0,
    };
    let traced = prepared.iterate(Some(ctx)).unwrap();

    // The two workload-level rows the benchmark binary records itself.
    let mut ledger = Ledger::default();
    ledger.record(
        "bench.trace_overhead",
        traced.as_secs_f64() / untraced.as_secs_f64(),
    );
    ledger.record("bench.peak_rss_mb", peak_rss_bytes().unwrap() as f64 / 1e6);
    let canned = Canned::new(workload, 7, Scale::TINY);
    run_pass(&canned, &tracer, 0, &scratch, &mut ledger).unwrap();
    let metrics = ledger.metrics().unwrap();
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, declared);
    for m in &metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }

    let spans = serde_json::parse_value(&tracer.to_json()).expect("spans file parses");
    assert!(items(&spans).len() > 10);
    for span in items(&spans) {
        assert!(number(field(span, "end_ns")) >= number(field(span, "start_ns")));
    }
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn tiny_table2_hour() {
    tiny(Workload::Table2Hour);
}

#[test]
fn tiny_table2_journaled() {
    tiny(Workload::Table2Journaled);
}

#[test]
fn tiny_serial_100s() {
    tiny(Workload::Serial100s);
}

#[test]
fn tiny_fleet_100k() {
    tiny(Workload::Fleet100k);
}
