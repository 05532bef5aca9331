//! Steady-state allocation audit: after warm-up, the packet-level hot
//! path must perform **zero** heap allocations per packet.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! runs a connection past its warm-up transient (queues grown, output
//! scratch buffers at their high-water marks, the columnar trace at its
//! preallocated capacity), snapshots the allocation counter, simulates a
//! further window, and asserts the counter did not move. This pins the
//! pooling work — reused `SenderOutput`/`ReceiverOutput` scratch, lane
//! deques and timer heap that only grow, and the capacity-preallocated
//! `TraceLog` — against regressions that reintroduce per-packet `Box` or
//! `Vec` churn.
//!
//! A streaming recorder is held to a looser bound: the analyzer keeps one
//! RTT sample per forward ACK (the exact end-of-trace median and Pearson
//! coefficient need them all), so its sample vectors keep doubling, but
//! its in-flight state must not allocate per event.
//!
//! The same harness pins the fleet shard loop: after warm-up, a
//! `FleetShard::run_until` window over hundreds of flows must be
//! allocation-free too (SoA arenas, pending times included, are fixed
//! arrays sized at construction).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use padhye_tcp_repro::sim::connection::Connection;
use padhye_tcp_repro::sim::fleet::{FleetCohort, FleetShard, FleetSpec};
use padhye_tcp_repro::sim::link::Path;
use padhye_tcp_repro::sim::loss::Bernoulli;
use padhye_tcp_repro::sim::reno::sender::SenderConfig;
use padhye_tcp_repro::sim::rounds::RoundsConfig;
use padhye_tcp_repro::sim::time::{SimDuration, SimTime};
use padhye_tcp_repro::testbed::TraceRecorder;
use padhye_tcp_repro::trace::stream::StreamConfig;

/// System allocator with an allocation counter in front.
///
/// Counting is gated per-thread: the libtest harness's main thread parks
/// on a channel while the test runs and allocates in `std::sync::mpmc`
/// at unpredictable instants, so a process-wide counter is flaky. Only
/// the thread that opted in via `COUNTING` contributes to the total.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether allocations on this thread are counted. Const-initialized
    /// `Cell<bool>` has no destructor and its access never allocates, so
    /// reading it inside the allocator cannot recurse.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        //~ allow(relaxed_atomic): single-threaded count gated by the thread-local; no hand-off rides on it
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        // Preallocate the trace columns for the whole 120 s run so the
        // recorder never grows mid-measurement.
        .build_with_observer(TraceRecorder::for_horizon(120.0, 2_000.0));

    // Warm-up: loss episodes, RTO timers, delayed-ACK timers, and queue
    // high-water marks all occur in the first stretch; every buffer that
    // will ever grow has grown by the end of it.
    let hit = conn.run_until_budget(SimTime::from_secs_f64(30.0), 10_000_000);
    assert!(!hit, "warm-up must not hit the event budget");
    let sent_at_snapshot = conn.stats().packets_sent;

    COUNTING.with(|c| c.set(true));
    //~ allow(relaxed_atomic): reads a counter only this thread bumps
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let hit = conn.run_until_budget(SimTime::from_secs_f64(120.0), 10_000_000);
    //~ allow(relaxed_atomic): reads a counter only this thread bumps
    let after = ALLOCATIONS.load(Ordering::Relaxed);
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
    //~ allow(relaxed_atomic): reads a counter only this thread bumps
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let hit = conn.run_until_budget(SimTime::from_secs_f64(330.0), 10_000_000);
    //~ allow(relaxed_atomic): reads a counter only this thread bumps
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    assert!(!hit, "measurement window must not hit the event budget");

    let sent_in_window = conn.stats().packets_sent - sent_at_snapshot;
    assert!(
        sent_in_window > 10_000,
        "degenerate window: only {sent_in_window} packets"
    );
    // Five growing vectors (Karn samples, the correlator's two series,
    // loss indications, interval counters) each double a handful of
    // times over the window; per-event allocation would be thousands.
    let allocations = after - before;
    assert!(
        allocations <= 40,
        "warm streaming analyzer allocated {allocations} times over \
         {sent_in_window} packets; only sample-vector doublings are expected"
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
    //~ allow(relaxed_atomic): reads a counter only this thread bumps
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let in_window = shard.run_until(SimTime::from_secs_f64(300.0));
    //~ allow(relaxed_atomic): reads a counter only this thread bumps
    let after = ALLOCATIONS.load(Ordering::Relaxed);
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
