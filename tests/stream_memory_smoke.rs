//! CI memory smoke: an hour-long (simulated) Table II connection under
//! the default streaming campaign options retains **no trace** — the
//! retained-trace footprint is zero bytes regardless of duration — and
//! the incremental analyzer's peak state stays under a hard ceiling far
//! below what materializing the wire events would cost.

use padhye_tcp_repro::testbed::{run_hour_budgeted, table2_path, DEFAULT_EVENT_BUDGET};
use padhye_tcp_repro::trace::record::TraceRecord;

/// The wire format's columnar cost per event (1 tag + 8 time + 8 payload
/// bytes) — the most compact form a retain-then-analyze pipeline can hold.
const COLUMNAR_BYTES_PER_EVENT: u64 = 17;

#[test]
fn hour_long_streaming_run_stays_under_memory_ceiling() {
    // manic → baskerville: the paper's Fig. 7(a) path, a full simulated
    // hour, default campaign options (streaming, no retention).
    let spec = table2_path("manic", "baskerville").expect("path in Table II");
    let result = run_hour_budgeted(spec, 7, DEFAULT_EVENT_BUDGET);

    // The hour produced real traffic and a real analysis.
    let events = result.stream.events;
    assert!(events > 50_000, "an hour of traffic, got {events} events");
    assert!(result.analysis().packets_sent > 0);
    assert!(result.timing().and_then(|t| t.mean_rtt).is_some());

    // Zero retained trace bytes: the duration-proportional term is gone
    // entirely, not merely bounded.
    assert!(
        result.trace.is_none(),
        "default campaign options must not materialize the trace"
    );

    // The analyzer's own peak state (in-flight maps + reduced outputs:
    // indications, RTT samples, interval counters) is duration-honest —
    // it grows with *reductions*, not wire events — and must sit well
    // below the materialized trace it replaces, with an absolute ceiling
    // so a state leak fails loudly even if traffic volume grows.
    let peak = result.stream.peak_state_bytes;
    let columnar = events * COLUMNAR_BYTES_PER_EVENT;
    let in_ram = events * std::mem::size_of::<TraceRecord>() as u64;
    assert!(
        peak < columnar,
        "peak analyzer state {peak} B should undercut even the compact \
         {columnar} B columnar trace"
    );
    assert!(
        peak * 2 <= in_ram,
        "peak analyzer state {peak} B should be at most half the {in_ram} B \
         a batch pipeline materializes in RAM (on top of the same analysis state)"
    );
    assert!(
        peak <= 8 * 1024 * 1024,
        "peak analyzer state {peak} B blew the 8 MiB smoke ceiling"
    );
    eprintln!(
        "hour smoke: {events} events, peak state {peak} B, \
         materialized trace would be {columnar} B columnar / {in_ram} B in RAM"
    );
}
