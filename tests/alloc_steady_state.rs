//! Steady-state allocation audit: after warm-up, the packet-level hot
//! path must perform **zero** heap allocations per packet.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! runs a connection past its warm-up transient (queues grown, output
//! scratch buffers at their high-water marks, the retained trace at its
//! preallocated capacity), snapshots the allocation counter, simulates a
//! further window, and asserts the counter did not move. This pins the
//! pooling work — reused `SenderOutput`/`ReceiverOutput` scratch, lane
//! deques and timer slots that only grow, and the capacity-preallocated
//! retained `Trace` — against regressions that reintroduce per-packet `Box` or
//! `Vec` churn.
//!
//! A streaming recorder is held to a looser bound: the analyzer keeps one
//! RTT sample per forward ACK (the exact end-of-trace median and Pearson
//! coefficient need them all), so its sample vectors keep doubling, but
//! its in-flight state must not allocate per event.
//!
//! The shared-bottleneck network runs the same TCP flow core, pooled
//! outputs included, so a warm `Network` window is held to zero too.
//!
//! The same harness pins the fleet shard loop: after warm-up, a
//! `FleetShard::run_until` window over hundreds of flows must be
//! allocation-free too (SoA arenas, pending times included, are fixed
//! arrays sized at construction).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use padhye_tcp_repro::sim::connection::Connection;
use padhye_tcp_repro::sim::fleet::{FleetCohort, FleetShard, FleetSpec};
use padhye_tcp_repro::sim::link::Path;
use padhye_tcp_repro::sim::loss::Bernoulli;
use padhye_tcp_repro::sim::network::{FlowConfig, Network};
use padhye_tcp_repro::sim::queue::DropTail;
use padhye_tcp_repro::sim::reno::sender::SenderConfig;
use padhye_tcp_repro::sim::rounds::RoundsConfig;
use padhye_tcp_repro::sim::time::{SimDuration, SimTime};
use padhye_tcp_repro::testbed::TraceRecorder;
use padhye_tcp_repro::trace::stream::StreamConfig;

/// System allocator with an allocation counter in front.
///
/// Counting is gated per thread, and so is the count: the libtest
/// harness's main thread parks on a channel while the test runs and
/// allocates in `std::sync::mpmc` at unpredictable instants, and tests
/// run in parallel, so a process-wide counter would add one test's
/// allocations to another's window. Only the thread that opted in via
/// `COUNTING` counts, into its own `ALLOCATIONS`.
struct CountingAlloc;

thread_local! {
    /// Whether allocations on this thread are counted. Const-initialized
    /// `Cell`s have no destructor and their access never allocates, so
    /// reading them inside the allocator cannot recurse.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_here() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY-free wrapper: delegates every operation to `System` unchanged;
// the only addition is a counter bump on the allocating calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_simulation_does_not_allocate() {
    let half = SimDuration::from_millis(50);
    // A bounded receiver window (the realistic Table II situation) puts a
    // hard ceiling on packets in flight, so every queue and scratch buffer
    // reaches its high-water mark during warm-up. With the default
    // effectively-unbounded rwnd, cwnd can set new records arbitrarily
    // late and the (amortized, doubling) growth would show up as a handful
    // of spurious counts.
    let config = SenderConfig {
        rwnd: 64,
        ..SenderConfig::default()
    };
    let mut conn = Connection::builder()
        .fwd_path(Path::constant(half))
        .rev_path(Path::constant(half))
        .loss(Bernoulli::new(0.02))
        .sender_config(config)
        .seed(9)
        // Preallocate the trace for the whole 120 s run so the
        // recorder never grows mid-measurement.
        .build_with_observer(TraceRecorder::for_horizon(120.0, 2_000.0));

    // Warm-up: loss episodes, RTO timers, delayed-ACK timers, and queue
    // high-water marks all occur in the first stretch; every buffer that
    // will ever grow has grown by the end of it.
    let hit = conn.run_until_budget(SimTime::from_secs_f64(30.0), 10_000_000);
    assert!(!hit, "warm-up must not hit the event budget");
    let sent_at_snapshot = conn.stats().packets_sent;

    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    let hit = conn.run_until_budget(SimTime::from_secs_f64(120.0), 10_000_000);
    let after = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(false));
    assert!(!hit, "measurement window must not hit the event budget");

    let sent_in_window = conn.stats().packets_sent - sent_at_snapshot;
    assert!(
        sent_in_window > 1_000,
        "degenerate window: only {sent_in_window} packets"
    );
    assert_eq!(
        after - before,
        0,
        "steady state allocated {} times over {} packets; the hot path \
         must be allocation-free after warm-up",
        after - before,
        sent_in_window
    );
}

#[test]
fn warm_streaming_analyzer_allocates_only_sample_growth() {
    let half = SimDuration::from_millis(50);
    let config = SenderConfig {
        rwnd: 64,
        ..SenderConfig::default()
    };
    let mut conn = Connection::builder()
        .fwd_path(Path::constant(half))
        .rev_path(Path::constant(half))
        .loss(Bernoulli::new(0.02))
        .sender_config(config)
        .seed(9)
        .build_with_observer(TraceRecorder::streaming(StreamConfig::default()));

    let hit = conn.run_until_budget(SimTime::from_secs_f64(30.0), 10_000_000);
    assert!(!hit, "warm-up must not hit the event budget");
    let sent_at_snapshot = conn.stats().packets_sent;

    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    let hit = conn.run_until_budget(SimTime::from_secs_f64(330.0), 10_000_000);
    let after = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(false));
    assert!(!hit, "measurement window must not hit the event budget");

    let sent_in_window = conn.stats().packets_sent - sent_at_snapshot;
    assert!(
        sent_in_window > 10_000,
        "degenerate window: only {sent_in_window} packets"
    );
    // Three growing vectors (the RTT sample log Karn and the correlator
    // share, loss indications, interval counters) each double a handful
    // of times over the window; per-event allocation would be thousands.
    let allocations = after - before;
    assert!(
        allocations <= 40,
        "warm streaming analyzer allocated {allocations} times over \
         {sent_in_window} packets; only sample-vector doublings are expected"
    );
}

#[test]
fn warm_network_does_not_allocate() {
    // Two TCP flows with unequal RTTs and a CBR flow through one
    // drop-tail queue: bottleneck drops, loss recovery and both timer
    // kinds, with stale timers left in the queue. TFRC stays out: its
    // loss-interval history grows by design. The bounded receiver window
    // caps packets in flight, and so the burst one ACK can release, as in
    // the single-connection test. The pooled outputs grow to that burst
    // by doubling; a 60 s warm-up ends one doubling short, 120 s does not.
    let config = SenderConfig {
        rwnd: 64,
        ..SenderConfig::default()
    };
    let mut net = Network::new(200.0, Box::new(DropTail::new(30)), 5);
    net.add_flow(FlowConfig::tcp(0.1, config));
    net.add_flow(FlowConfig::tcp(0.2, config));
    net.add_flow(FlowConfig::cbr(0.1, 40.0));
    let sent = |net: &Network| net.stats().iter().map(|s| s.sent).sum::<u64>();

    // Warm-up: queue and pool high-water marks.
    net.run_until(SimTime::from_secs_f64(120.0));
    let sent_at_snapshot = sent(&net);

    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    net.run_until(SimTime::from_secs_f64(300.0));
    let after = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(false));

    let stats = net.stats();
    let sent_in_window = sent(&net) - sent_at_snapshot;
    assert!(
        sent_in_window > 10_000,
        "degenerate window: only {sent_in_window} packets"
    );
    assert!(
        stats.iter().all(|s| s.dropped > 0),
        "every flow should meet the full queue: {stats:?}"
    );
    assert_eq!(
        after - before,
        0,
        "warm network allocated {} times over {} packets; both packet \
         engines must be allocation-free after warm-up",
        after - before,
        sent_in_window
    );
}

#[test]
fn warm_fleet_shard_does_not_allocate() {
    // Two cohorts so the shard's inner loop exercises both the TD-heavy
    // regime (large window) and the timeout-heavy one (small window,
    // higher p — deep backoffs push a flow's pending time far ahead).
    let spec = FleetSpec {
        cohorts: vec![
            FleetCohort {
                config: RoundsConfig {
                    p: 0.02,
                    rtt: 0.1,
                    t0: 1.0,
                    b: 2,
                    wmax: 64,
                    ..RoundsConfig::default()
                },
                flows: 384,
            },
            FleetCohort {
                config: RoundsConfig {
                    p: 0.1,
                    rtt: 0.3,
                    t0: 1.5,
                    b: 2,
                    wmax: 16,
                    ..RoundsConfig::default()
                },
                flows: 128,
            },
        ],
        base_seed: 0xA110C,
        ..FleetSpec::default()
    };
    let mut shard = FleetShard::new(&spec, 0..spec.total_flows());

    // Warm-up: run every flow well past its start, so the measured window
    // is steady state (the arena's arrays, pending times included, are
    // sized at construction and never grow).
    let warmed = shard.run_until(SimTime::from_secs_f64(240.0));
    assert!(warmed > 10_000, "degenerate warm-up: {warmed} events");

    COUNTING.with(|c| c.set(true));
    let before = ALLOCATIONS.with(Cell::get);
    let in_window = shard.run_until(SimTime::from_secs_f64(300.0));
    let after = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(false));

    assert!(
        in_window > 10_000,
        "degenerate window: only {in_window} events"
    );
    assert_eq!(
        after - before,
        0,
        "warm fleet shard allocated {} times over {} events; the sharded \
         inner loop must be allocation-free once the arena is built",
        after - before,
        in_window
    );
}
