//! The full packet-level connection: sender ⇄ paths ⇄ receiver, driven by
//! the discrete-event engine.
//!
//! The [`Connection`] owns the event queue and translates the sans-I/O
//! outputs of [`Sender`] and [`Receiver`] into scheduled events. An
//! [`Observer`] sees exactly what `tcpdump` at the sender would see — data
//! segments leaving and ACKs arriving — which is what the `tcp-trace`
//! analysis programs consume.
//!
//! The endpoints and the glue between them are the crate's TCP flow core
//! (`tcp_flow`), which [`crate::network::Network`] runs too; this module
//! supplies the wire. Events run on the lane engine
//! ([`HybridQueue`]): data and ACK arrivals on their monotone lanes, the
//! RTO and delayed-ACK timers in timer slots 0 and 1, where a re-arm
//! supersedes the pending deadline (the one-flow case of the network's
//! per-flow slots). The hot path is
//! monomorphized over the observer and the loss process (the builder
//! converts any concrete model into a [`LossKind`], so per-packet drop
//! draws inline instead of going through a `dyn` call). The core pools
//! the sender/receiver outputs, so the steady-state event loop allocates
//! nothing per event.

use crate::event::{EventScheduler, HybridQueue, Lane};
use crate::fault::{Direction, FaultPlan, Impairment};
use crate::link::Path;
use crate::loss::{LossKind, LossModel, NoLoss};
use crate::packet::{Ack, Segment, Seq};
use crate::receiver::{Receiver, ReceiverConfig};
use crate::reno::sender::{Sender, SenderConfig};
use crate::rng::SimRng;
use crate::stats::ConnStats;
use crate::tcp_flow::{Ev, SackSlab, TcpFlow, Wire};
use crate::time::{SimDuration, SimTime};
use pftk_snap::{frame, unframe, SnapError, SnapReader, SnapResult, SnapWriter};

/// A sender-side wire observer (what `tcpdump` on the sender host records).
pub trait Observer {
    /// A data segment left the sender at `at`.
    fn on_segment_sent(&mut self, at: SimTime, seg: Segment) {
        let _ = (at, seg);
    }
    /// An ACK arrived at the sender at `at`.
    fn on_ack_received(&mut self, at: SimTime, ack: Ack) {
        let _ = (at, ack);
    }
}

/// The "no trace" observer.
impl Observer for () {}

/// Frame kind identifying a full connection snapshot (DESIGN.md §13).
pub const CONN_SNAPSHOT_KIND: u32 = 1;
/// Newest connection-snapshot format version this build reads and writes.
/// v2 added the sender's congestion-control algorithm tag plus
/// per-variant controller state (CUBIC carries an epoch clock that Reno's
/// three words don't).
pub const CONN_SNAPSHOT_VERSION: u32 = 2;

/// Configuration for a simulated connection; see [`Connection::builder`].
pub struct ConnectionBuilder {
    sender: SenderConfig,
    receiver: ReceiverConfig,
    fwd: Option<Path>,
    rev: Option<Path>,
    loss: LossKind,
    ack_loss: Option<LossKind>,
    fault: FaultPlan,
    rtt: SimDuration,
    seed: u64,
}

impl ConnectionBuilder {
    /// Round-trip propagation delay; ignored for a direction that gets an
    /// explicit [`Path`] via [`Self::fwd_path`]/[`Self::rev_path`].
    pub fn rtt(mut self, secs: f64) -> Self {
        self.rtt = SimDuration::from_secs_f64(secs);
        self
    }

    /// Explicit data-direction path (overrides [`Self::rtt`] for that leg).
    pub fn fwd_path(mut self, path: Path) -> Self {
        self.fwd = Some(path);
        self
    }

    /// Explicit ACK-direction path.
    pub fn rev_path(mut self, path: Path) -> Self {
        self.rev = Some(path);
        self
    }

    /// The data-packet loss process (default: no loss). Accepts any
    /// concrete model, bare or boxed; every model dispatches with an
    /// inlined match per packet.
    pub fn loss<L: Into<LossKind>>(mut self, loss: L) -> Self {
        self.loss = loss.into();
        self
    }

    /// An optional ACK loss process (default: ACKs never dropped).
    pub fn ack_loss<L: Into<LossKind>>(mut self, loss: L) -> Self {
        self.ack_loss = Some(loss.into());
        self
    }

    /// A composed impairment plan ([`crate::fault`]) layered on top of the
    /// loss model and paths: reordering, duplication, ACK loss, delay
    /// spikes, link flaps (default: no impairments). Applied after path
    /// transit so delays can reorder across the path's FIFO clamp.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Sender tunables (window, dupthresh, RTO machinery).
    pub fn sender_config(mut self, config: SenderConfig) -> Self {
        self.sender = config;
        self
    }

    /// Receiver tunables (delayed ACKs).
    pub fn receiver_config(mut self, config: ReceiverConfig) -> Self {
        self.receiver = config;
        self
    }

    /// RNG seed; two builds with identical configuration and seed replay
    /// identical traces.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds without tracing.
    pub fn build(self) -> Connection<()> {
        self.build_with_observer(())
    }

    /// Builds with a custom observer.
    pub fn build_with_observer<O: Observer>(self, observer: O) -> Connection<O> {
        let mut root = SimRng::seed_from_u64(self.seed);
        let loss_rng = root.fork(1);
        let path_rng = root.fork(2);
        // Forked last so that adding (or removing) a fault plan leaves the
        // loss and path streams — and thus every pre-existing seeded test —
        // bit-for-bit unchanged.
        let fault_rng = root.fork(3);
        let half = SimDuration::from_nanos(self.rtt.as_nanos() / 2);
        Connection {
            now: SimTime::ZERO,
            flow: TcpFlow::new(self.sender, self.receiver),
            wire: ConnWire {
                queue: HybridQueue::new(),
                fwd: self.fwd.unwrap_or_else(|| Path::constant(half)),
                rev: self.rev.unwrap_or_else(|| Path::constant(half)),
                loss: self.loss,
                ack_loss: self.ack_loss,
                fault: self.fault,
                loss_rng,
                path_rng,
                fault_rng,
                observer,
                next_round_seq: 0,
                sacks: SackSlab::default(),
            },
            started: false,
            events_processed: 0,
        }
    }
}

/// A running simulated TCP connection, monomorphized over its observer.
pub struct Connection<O: Observer = ()> {
    now: SimTime,
    flow: TcpFlow,
    wire: ConnWire<O>,
    started: bool,
    events_processed: u64,
}

/// What lies between a connection's endpoints: paths, loss, fault plan,
/// their RNG streams, the observer, and the queue.
struct ConnWire<O> {
    queue: HybridQueue<Ev>,
    fwd: Path,
    rev: Path,
    loss: LossKind,
    ack_loss: Option<LossKind>,
    fault: FaultPlan,
    loss_rng: SimRng,
    path_rng: SimRng,
    fault_rng: SimRng,
    observer: O,
    next_round_seq: Seq,
    /// SACK ranges of the ACK events in the queue.
    sacks: SackSlab,
}

impl Connection<()> {
    /// Starts building a connection with library defaults: 100 ms RTT,
    /// lossless, delayed ACKs, 64 KiB-equivalent window.
    pub fn builder() -> ConnectionBuilder {
        ConnectionBuilder {
            sender: SenderConfig::default(),
            receiver: ReceiverConfig::default(),
            fwd: None,
            rev: None,
            loss: LossKind::None(NoLoss),
            ack_loss: None,
            fault: FaultPlan::none(),
            rtt: SimDuration::from_millis(100),
            seed: 0,
        }
    }
}

impl<O: Observer> Connection<O> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ground-truth counters (sender counters + receiver delivery count).
    pub fn stats(&self) -> ConnStats {
        self.flow.stats()
    }

    /// Read access to the sender (RTT/T0 ground truth, window state).
    pub fn sender(&self) -> &Sender {
        &self.flow.sender
    }

    /// Read access to the receiver.
    pub fn receiver(&self) -> &Receiver {
        &self.flow.receiver
    }

    /// Read access to the observer (e.g. to extract a recorded trace).
    pub fn observer(&self) -> &O {
        &self.wire.observer
    }

    /// Mutable access to the observer (e.g. to restore a snapshotted
    /// streaming analyzer alongside [`Connection::restore`] — the
    /// connection snapshot deliberately excludes the observer, whose
    /// persistence is the owner's concern).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.wire.observer
    }

    /// Consumes the connection, returning the observer.
    pub fn into_observer(self) -> O {
        self.wire.observer
    }

    /// Packets dropped by path bottlenecks (in addition to the loss model).
    pub fn bottleneck_drops(&self) -> u64 {
        self.wire.fwd.bottleneck_drops() + self.wire.rev.bottleneck_drops()
    }

    /// Total discrete events processed so far. Monotone over the life of
    /// the connection; the testbed supervisor uses it as a sim-event budget
    /// so a pathological configuration cannot spin the event loop forever.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Runs the connection until the simulated clock reaches `until`.
    /// May be called repeatedly with increasing horizons.
    pub fn run_until(&mut self, until: SimTime) {
        let _ = self.run_until_budget(until, u64::MAX);
    }

    /// Like [`Connection::run_until`], but aborts once the *total* event
    /// count ([`Connection::events_processed`]) reaches `max_events`
    /// while an event is still due at or before `until`, returning `true`
    /// on abort. The clock is then left at the last processed event
    /// rather than advanced to `until`, so callers can report how far the
    /// simulation actually got. A budget spent with no event left due is
    /// a completed run: the clock moves to `until` and the result is
    /// `false`. This is the sim-side deadline the testbed supervisor arms
    /// against runaway event loops.
    pub fn run_until_budget(&mut self, until: SimTime, max_events: u64) -> bool {
        if !self.started {
            self.started = true;
            self.flow.start(self.now, &mut self.wire);
        }
        while self.events_processed < max_events {
            let Some((at, ev)) = self.wire.queue.pop_due(until) else {
                self.now = until;
                return false;
            };
            self.now = at;
            self.events_processed += 1;
            self.flow.handle(at, ev, &mut self.wire);
        }
        // The budget is spent: that is an abort only if an event is due.
        if self.wire.queue.peek_time().is_some_and(|at| at <= until) {
            return true;
        }
        self.now = until;
        false
    }

    /// Convenience: run for a span from the current clock.
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.now + span);
    }

    /// For a finite transfer ([`crate::reno::sender::SenderConfig::data_limit`]):
    /// runs until the transfer completes or `deadline` passes, returning the
    /// completion instant if reached. Events are drained in bounded slices
    /// so the clock cannot run past `deadline`.
    pub fn run_until_complete(&mut self, deadline: SimTime) -> Option<SimTime> {
        while self.now < deadline && !self.flow.sender.is_complete() {
            let step = SimDuration::from_millis(50).min(deadline - self.now);
            self.run_until(self.now + step);
        }
        self.flow.sender.completed_at()
    }

    /// Flushes end-of-run bookkeeping (open timeout sequences) into the
    /// stats. Call once after the final `run_until`.
    pub fn finish(&mut self) {
        self.flow.finish();
    }

    /// Encodes the connection's full mutable state — clock, event queue,
    /// sender/receiver protocol state, path and loss-process cursors, fault
    /// plan cursors, and all three RNG stream positions — as a framed,
    /// checksummed snapshot ([`CONN_SNAPSHOT_KIND`]).
    ///
    /// A connection restored from this snapshot into an identically
    /// configured build produces a bit-identical event stream to the
    /// uninterrupted run. The observer is *not* captured: trace state is
    /// snapshotted separately by the caller (observers are caller-owned and
    /// arbitrary).
    ///
    /// Every connection this build constructs is snapshottable, so the
    /// result is always `Ok`; it stays a [`SnapResult`] so a state that
    /// cannot be captured can be reported rather than panic.
    pub fn snapshot(&self) -> SnapResult<Vec<u8>> {
        let mut w = SnapWriter::with_capacity(4096);
        let wire = &self.wire;
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.flow.rto_gen);
        w.put_u64(self.flow.delack_gen);
        w.put_u64(wire.next_round_seq);
        w.put_bool(self.started);
        w.put_u64(self.events_processed);
        wire.queue
            .snapshot_into(&mut w, |ev, w| ev.snapshot_into(&wire.sacks, w));
        self.flow.sender.snapshot_into(&mut w);
        self.flow.receiver.snapshot_into(&mut w);
        wire.fwd.snapshot_into(&mut w);
        wire.rev.snapshot_into(&mut w);
        wire.loss.snapshot_into(&mut w);
        match &wire.ack_loss {
            Some(al) => {
                w.put_bool(true);
                al.snapshot_into(&mut w);
            }
            None => w.put_bool(false),
        }
        wire.fault.state_snapshot_into(&mut w);
        wire.loss_rng.snapshot_into(&mut w);
        wire.path_rng.snapshot_into(&mut w);
        wire.fault_rng.snapshot_into(&mut w);
        Ok(frame(
            CONN_SNAPSHOT_KIND,
            CONN_SNAPSHOT_VERSION,
            &w.into_bytes(),
        ))
    }

    /// Applies a snapshot produced by [`Connection::snapshot`] into this
    /// connection, which must have been built with the same configuration
    /// (builder parameters and seed). Shape tags catch mismatched
    /// configurations ([`SnapError::TagMismatch`]); corrupt or truncated
    /// bytes fail the frame checksum or a bounds check — never a panic.
    ///
    /// On error the connection is left in an unspecified partially-restored
    /// state: rebuild it before further use.
    pub fn restore(&mut self, bytes: &[u8]) -> SnapResult<()> {
        let framed = unframe(bytes, CONN_SNAPSHOT_VERSION)?;
        if framed.kind != CONN_SNAPSHOT_KIND {
            return Err(SnapError::Invalid("not a connection snapshot"));
        }
        let mut r = SnapReader::new(framed.payload);
        let wire = &mut self.wire;
        self.now = SimTime::from_nanos(r.get_u64()?);
        self.flow.rto_gen = r.get_u64()?;
        self.flow.delack_gen = r.get_u64()?;
        wire.next_round_seq = r.get_u64()?;
        self.started = r.get_bool()?;
        self.events_processed = r.get_u64()?;
        wire.sacks.clear();
        let sacks = &mut wire.sacks;
        wire.queue
            .restore_from(&mut r, |r| Ev::restore_from(r, sacks))?;
        self.flow.sender.restore_from(&mut r)?;
        self.flow.receiver.restore_from(&mut r)?;
        wire.fwd.restore_from(&mut r)?;
        wire.rev.restore_from(&mut r)?;
        wire.loss.restore_from(&mut r)?;
        let snap_has_ack_loss = r.get_bool()?;
        match (&mut wire.ack_loss, snap_has_ack_loss) {
            (Some(al), true) => al.restore_from(&mut r)?,
            (None, false) => {}
            (target, found) => {
                return Err(SnapError::TagMismatch {
                    context: "ack-loss-presence",
                    expected: u64::from(target.is_some()),
                    found: u64::from(found),
                });
            }
        }
        wire.fault.state_restore_from(&mut r)?;
        wire.loss_rng.restore_from(&mut r)?;
        wire.path_rng.restore_from(&mut r)?;
        wire.fault_rng.restore_from(&mut r)?;
        r.finish()
    }
}

impl<O: Observer> ConnWire<O> {
    /// Schedules a packet that left the path at `arrival` on `lane`, after
    /// the fault plan's drop, delay and duplication; `false` if the plan
    /// dropped it. Each copy is a fresh `ev(&mut sacks)`.
    fn deliver(
        &mut self,
        now: SimTime,
        (lane, dir): (Lane, Direction),
        arrival: SimTime,
        mut ev: impl FnMut(&mut SackSlab) -> Ev,
    ) -> bool {
        if self.fault.is_empty() {
            self.queue.schedule(lane, arrival, ev(&mut self.sacks));
            return true;
        }
        let fate = self.fault.apply(now, dir, &mut self.fault_rng);
        if fate.dropped {
            return false;
        }
        let at = arrival + fate.extra_delay;
        // Extra copies land a nanosecond apart: distinct arrivals,
        // effectively simultaneous.
        for k in 0..=u64::from(fate.duplicates) {
            let copy = ev(&mut self.sacks);
            self.queue
                .schedule(lane, at + SimDuration::from_nanos(k), copy);
        }
        true
    }
}

impl<O: Observer> Wire for ConnWire<O> {
    fn send_segment(&mut self, now: SimTime, seg: Segment, sender: &Sender) -> bool {
        self.observer.on_segment_sent(now, seg);
        // Round accounting for intra-round-correlated loss models.
        if seg.retransmit {
            self.loss.on_round_boundary();
            self.next_round_seq = sender.snd_nxt();
        } else if seg.seq >= self.next_round_seq {
            self.loss.on_round_boundary();
            self.next_round_seq = seg.seq + sender.usable_window().max(1);
        }
        if self.loss.should_drop(now, &mut self.loss_rng) {
            return true;
        }
        let Some(arrival) = self.fwd.transit(now, &mut self.path_rng) else {
            return true;
        };
        let (seq, retransmit) = (seg.seq, seg.retransmit);
        let data = (Lane::Data, Direction::Data);
        !self.deliver(now, data, arrival, |_| Ev::DataArrive { seq, retransmit })
    }

    fn send_ack(&mut self, now: SimTime, ack: Ack) {
        if let Some(al) = &mut self.ack_loss {
            if al.should_drop(now, &mut self.loss_rng) {
                return;
            }
        }
        if let Some(arrival) = self.rev.transit(now, &mut self.path_rng) {
            // Each scheduled copy parks its own ranges: taking them at
            // arrival frees the slot.
            let ev = |sacks: &mut SackSlab| Ev::AckArrive {
                ack: ack.ack,
                sack: sacks.put(ack.sack),
            };
            self.deliver(now, (Lane::Ack, Direction::Ack), arrival, ev);
        }
    }

    fn ack_arrived(&mut self, now: SimTime, ack: Seq, sack: u32) -> Ack {
        let sack = self.sacks.take(sack);
        let ack = Ack { ack, sack };
        self.observer.on_ack_received(now, ack);
        ack
    }

    fn arm_rto(&mut self, at: SimTime, gen: u64) {
        self.queue.schedule(Lane::Rto, at, Ev::Rto(gen));
    }

    fn arm_delack(&mut self, at: SimTime, gen: u64) {
        self.queue.schedule(Lane::DelAck, at, Ev::DelAck(gen));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Bernoulli, Deterministic, RoundCorrelated};

    fn secs(v: f64) -> SimDuration {
        SimDuration::from_secs_f64(v)
    }

    /// A connection run to 20 s, and the time of its next due event.
    fn mid_run() -> (Connection, SimTime) {
        let mut c = Connection::builder()
            .rtt(0.1)
            .loss(Bernoulli::new(0.02))
            .seed(3)
            .build();
        c.run_until(SimTime::from_secs_f64(20.0));
        let next = c
            .wire
            .queue
            .peek_time()
            .expect("a live connection has events");
        (c, next)
    }

    #[test]
    fn spent_budget_with_an_event_due_at_until_aborts() {
        let (mut c, next) = mid_run();
        let spent = c.events_processed();
        let clock = c.now();
        assert!(
            c.run_until_budget(next, spent),
            "an event at `until` is due"
        );
        assert_eq!(c.events_processed(), spent);
        assert_eq!(c.now(), clock, "the clock stays at the last event");
    }

    #[test]
    fn spent_budget_with_no_event_due_completes() {
        let (mut c, next) = mid_run();
        let spent = c.events_processed();
        let until = SimTime::from_nanos(next.as_nanos() - 1);
        assert!(
            !c.run_until_budget(until, spent),
            "nothing is due by `until`"
        );
        assert_eq!(c.events_processed(), spent);
        assert_eq!(c.now(), until, "the clock moves to `until`");
        // Spending the budget on exactly the events due is no abort
        // either: the run ends at `until` with nothing left due.
        let (mut a, _) = mid_run();
        let (mut b, _) = mid_run();
        let horizon = SimTime::from_secs_f64(25.0);
        a.run_until(horizon);
        let due = a.events_processed() - spent;
        assert!(!b.run_until_budget(horizon, spent + due));
        assert_eq!(b.now(), horizon);
        assert_eq!(b.stats(), a.stats());
    }

    #[test]
    fn lossless_connection_is_window_limited() {
        // RTT 100 ms, W_m = 10 → steady state 10 pkts / 0.1 s = 100 pkt/s.
        let sender = SenderConfig {
            rwnd: 10,
            ..SenderConfig::default()
        };
        let mut c = Connection::builder().rtt(0.1).sender_config(sender).build();
        c.run_for(secs(60.0));
        c.finish();
        let stats = c.stats();
        let rate = stats.packets_sent as f64 / 60.0;
        assert!(
            (rate - 100.0).abs() / 100.0 < 0.1,
            "rate {rate} pkt/s, expected ≈100 (window-limited)"
        );
        assert_eq!(stats.loss_indications(), 0);
        assert_eq!(stats.retransmissions, 0);
    }

    #[test]
    fn delivered_never_exceeds_sent() {
        let mut c = Connection::builder()
            .rtt(0.05)
            .loss(Box::new(Bernoulli::new(0.05)))
            .seed(42)
            .build();
        c.run_for(secs(120.0));
        c.finish();
        let s = c.stats();
        assert!(s.packets_delivered <= s.packets_sent);
        assert!(s.packets_delivered > 0);
        assert_eq!(s.packets_sent, s.packets_sent_new + s.retransmissions);
    }

    #[test]
    fn loss_produces_loss_indications() {
        let mut c = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.02)))
            .seed(7)
            .build();
        c.run_for(secs(300.0));
        c.finish();
        let s = c.stats();
        assert!(
            s.loss_indications() > 10,
            "indications: {}",
            s.loss_indications()
        );
        // With a healthy window most single losses should be recoverable by
        // fast retransmit, but some timeouts are expected too.
        assert!(s.td_events > 0, "expected some TD events");
        assert!(s.to_events() > 0, "expected some timeouts");
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let mut c = Connection::builder()
                .rtt(0.08)
                .loss(Box::new(Bernoulli::new(0.03)))
                .seed(seed)
                .build();
            c.run_for(secs(60.0));
            c.finish();
            c.stats()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).packets_sent, run(6).packets_sent);
    }

    #[test]
    fn higher_loss_means_lower_send_rate() {
        let rate = |p| {
            let mut c = Connection::builder()
                .rtt(0.1)
                .loss(Box::new(Bernoulli::new(p)))
                .seed(11)
                .build();
            c.run_for(secs(300.0));
            c.stats().packets_sent as f64 / 300.0
        };
        let r_low = rate(0.01);
        let r_high = rate(0.10);
        assert!(
            r_low > 1.5 * r_high,
            "expected clear separation: p=1% → {r_low}, p=10% → {r_high}"
        );
    }

    #[test]
    fn shorter_rtt_sends_faster_under_loss() {
        let rate = |rtt| {
            let mut c = Connection::builder()
                .rtt(rtt)
                .loss(Box::new(Bernoulli::new(0.02)))
                .seed(3)
                .build();
            c.run_for(secs(300.0));
            c.stats().packets_sent as f64 / 300.0
        };
        assert!(rate(0.05) > 1.5 * rate(0.4));
    }

    #[test]
    fn total_loss_stalls_but_does_not_hang() {
        // Every packet dropped: the connection must keep backing off without
        // an infinite event loop, and send only retransmissions.
        let mut c = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Deterministic::every(1)))
            .build();
        c.run_for(secs(600.0));
        c.finish();
        let s = c.stats();
        assert_eq!(s.packets_delivered, 0);
        assert!(s.rto_firings >= 5, "rto firings: {}", s.rto_firings);
        assert!(s.packets_sent < 100, "runaway sends: {}", s.packets_sent);
        // One long exponential-backoff sequence.
        assert_eq!(s.to_sequences[5], 1);
    }

    #[test]
    fn round_correlated_loss_integrates() {
        let mut c = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(RoundCorrelated::new(0.02)))
            .seed(9)
            .build();
        c.run_for(secs(300.0));
        c.finish();
        let s = c.stats();
        assert!(s.loss_indications() > 10);
        assert!(s.packets_delivered > 0);
    }

    #[test]
    fn ack_loss_degrades_but_works() {
        let mut c = Connection::builder()
            .rtt(0.1)
            .ack_loss(Box::new(Bernoulli::new(0.2)))
            .seed(13)
            .build();
        c.run_for(secs(60.0));
        c.finish();
        let s = c.stats();
        // Cumulative ACKs make ACK loss mostly harmless: data still flows.
        assert!(s.packets_delivered > 100);
    }

    #[test]
    fn observer_sees_wire_events() {
        #[derive(Default)]
        struct Counter {
            sends: u64,
            acks: u64,
        }
        impl Observer for Counter {
            fn on_segment_sent(&mut self, _at: SimTime, _seg: Segment) {
                self.sends += 1;
            }
            fn on_ack_received(&mut self, _at: SimTime, _ack: Ack) {
                self.acks += 1;
            }
        }
        let mut c = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.01)))
            .seed(1)
            .build_with_observer(Counter::default());
        c.run_for(secs(30.0));
        let stats = c.stats();
        let obs = c.into_observer();
        assert_eq!(obs.sends, stats.packets_sent);
        assert_eq!(obs.acks, stats.acks_received);
        assert!(obs.sends > 0 && obs.acks > 0);
    }

    #[test]
    fn finite_transfer_completes_and_reports_latency() {
        use crate::reno::sender::SenderConfig;
        let sender = SenderConfig {
            data_limit: Some(200),
            ..SenderConfig::default()
        };
        let mut c = Connection::builder()
            .rtt(0.1)
            .sender_config(sender)
            .loss(Box::new(Bernoulli::new(0.01)))
            .seed(17)
            .build();
        let done = c.run_until_complete(SimTime::from_secs_f64(600.0));
        let at = done.expect("200 packets at 1% loss finish well before 600 s");
        c.finish();
        let s = c.stats();
        assert_eq!(s.packets_sent_new, 200);
        assert_eq!(s.packets_delivered, 200);
        // Lossless slow start from cwnd 1 would take ~log2(200) ≈ 8 RTTs;
        // with losses allow a wide but finite band.
        let secs = at.as_secs_f64();
        assert!(secs > 0.5 && secs < 120.0, "completion at {secs}s");
    }

    #[test]
    fn events_processed_is_monotone_and_positive() {
        let mut c = Connection::builder().rtt(0.1).build();
        assert_eq!(c.events_processed(), 0);
        c.run_for(secs(1.0));
        let after_1s = c.events_processed();
        assert!(after_1s > 0);
        c.run_for(secs(1.0));
        assert!(c.events_processed() > after_1s);
    }

    #[test]
    fn event_budget_aborts_without_advancing_to_horizon() {
        let mut c = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.02)))
            .seed(8)
            .build();
        let aborted = c.run_until_budget(SimTime::from_secs_f64(600.0), 500);
        assert!(aborted, "500 events must not cover 600 s");
        assert!(c.events_processed() >= 500);
        assert!(c.now() < SimTime::from_secs_f64(600.0));
        // The abort is clean: the run can be resumed with a larger budget.
        let aborted = c.run_until_budget(SimTime::from_secs_f64(600.0), u64::MAX);
        assert!(!aborted);
        assert_eq!(c.now(), SimTime::from_secs_f64(600.0));
    }

    #[test]
    fn faulted_connection_replays_identically() {
        use crate::fault::FaultPlan;
        // Composed FaultPlan determinism: same plan seed + connection seed
        // ⇒ identical trace (stats are a digest of the wire trace).
        let run = |plan_seed| {
            let mut c = Connection::builder()
                .rtt(0.1)
                .loss(Box::new(Bernoulli::new(0.01)))
                .fault(FaultPlan::from_seed(plan_seed))
                .seed(33)
                .build();
            c.run_for(secs(120.0));
            c.finish();
            c.stats()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        use crate::fault::FaultPlan;
        let baseline = {
            let mut c = Connection::builder()
                .rtt(0.1)
                .loss(Box::new(Bernoulli::new(0.02)))
                .seed(5)
                .build();
            c.run_for(secs(60.0));
            c.finish();
            c.stats()
        };
        let with_empty_plan = {
            let mut c = Connection::builder()
                .rtt(0.1)
                .loss(Box::new(Bernoulli::new(0.02)))
                .fault(FaultPlan::none())
                .seed(5)
                .build();
            c.run_for(secs(60.0));
            c.finish();
            c.stats()
        };
        assert_eq!(baseline, with_empty_plan);
    }

    #[test]
    //= pftk#random-drop-robustness type=test
    fn connection_survives_heavy_chaos() {
        use crate::fault::{
            AckLoss, CorruptDrop, Duplicate, FaultPlan, JitterBurst, LinkFlap, Reorder,
        };
        use crate::time::SimTime;
        let plan = FaultPlan::none()
            .with(Box::new(Reorder::new(0.1, SimDuration::from_millis(150))))
            .with(Box::new(Duplicate::new(0.05, 2)))
            .with(Box::new(AckLoss::new(0.2)))
            .with(Box::new(JitterBurst::new(
                5.0,
                1.0,
                SimDuration::from_millis(300),
            )))
            .with(Box::new(LinkFlap::new(
                SimTime::from_secs_f64(20.0),
                SimDuration::from_secs_f64(40.0),
                SimDuration::from_secs_f64(6.0),
            )))
            .with(Box::new(CorruptDrop::new(0.02)));
        let mut c = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.02)))
            .fault(plan)
            .seed(91)
            .build();
        c.run_for(secs(300.0));
        c.finish();
        let s = c.stats();
        // Under heavy chaos the connection must still make progress and the
        // core accounting identities must hold.
        assert!(s.packets_delivered > 0, "no progress under chaos");
        assert!(s.packets_delivered <= s.packets_sent);
        assert_eq!(s.packets_sent, s.packets_sent_new + s.retransmissions);
        assert!(s.to_events() > 0, "multi-RTO outages must force timeouts");
    }

    #[test]
    fn run_until_is_resumable() {
        let mut whole = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.02)))
            .seed(21)
            .build();
        whole.run_for(secs(100.0));
        let mut pieces = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.02)))
            .seed(21)
            .build();
        for _ in 0..10 {
            pieces.run_for(secs(10.0));
        }
        assert_eq!(
            whole.stats(),
            pieces.stats(),
            "segmented run must replay identically"
        );
        assert_eq!(pieces.now(), SimTime::from_secs_f64(100.0));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let build = || {
            Connection::builder()
                .rtt(0.1)
                .loss(Box::new(Bernoulli::new(0.02)))
                .seed(21)
                .build()
        };
        let mut whole = build();
        whole.run_for(secs(100.0));
        whole.finish();

        let mut interrupted = build();
        interrupted.run_for(secs(37.0));
        let snap = interrupted.snapshot().expect("snapshot");
        // Snapshot encoding is deterministic: same state, same bytes.
        assert_eq!(snap, interrupted.snapshot().expect("snapshot again"));

        let mut resumed = build();
        resumed.restore(&snap).expect("restore");
        assert_eq!(resumed.now(), interrupted.now());
        assert_eq!(resumed.events_processed(), interrupted.events_processed());
        assert_eq!(resumed.stats(), interrupted.stats());

        // Both the original and the restored copy continue identically to
        // the uninterrupted run.
        for c in [&mut interrupted, &mut resumed] {
            c.run_until(SimTime::from_secs_f64(100.0));
            c.finish();
            assert_eq!(
                whole.stats(),
                c.stats(),
                "resume must replay bit-identically"
            );
            assert_eq!(c.now(), SimTime::from_secs_f64(100.0));
        }
    }

    #[test]
    fn snapshot_restore_under_chaos_resumes_bit_identically() {
        use crate::fault::FaultPlan;
        use crate::reno::sender::{RenoStyle, SenderConfig};
        // The stress configuration: stateful loss cursor, ACK loss, a
        // seeded fault plan (reordering/duplication/jitter cursors), SACK
        // scoreboard, delayed ACKs — every snapshottable subsystem live.
        let build = || {
            Connection::builder()
                .rtt(0.08)
                .sender_config(SenderConfig {
                    style: RenoStyle::Sack,
                    ..SenderConfig::default()
                })
                .loss(Box::new(RoundCorrelated::new(0.02)))
                .ack_loss(Box::new(Bernoulli::new(0.1)))
                .fault(FaultPlan::from_seed(7))
                .seed(91)
                .build()
        };
        let mut whole = build();
        whole.run_for(secs(120.0));
        whole.finish();

        for cut in [13.0, 61.7, 119.9] {
            let mut first = build();
            first.run_until(SimTime::from_secs_f64(cut));
            let snap = first.snapshot().expect("snapshot");
            let mut resumed = build();
            resumed.restore(&snap).expect("restore");
            resumed.run_until(SimTime::from_secs_f64(120.0));
            resumed.finish();
            assert_eq!(whole.stats(), resumed.stats(), "cut at {cut}s");
        }
    }

    #[test]
    fn snapshot_restore_is_bit_identical_for_every_cc_variant() {
        use crate::cc::CcAlgorithm;
        use crate::reno::sender::SenderConfig;
        for algo in CcAlgorithm::ALL {
            let build = |cc| {
                Connection::builder()
                    .rtt(0.09)
                    .sender_config(SenderConfig {
                        cc,
                        ..SenderConfig::default()
                    })
                    .loss(Box::new(RoundCorrelated::new(0.03)))
                    .seed(17)
                    .build()
            };
            let mut whole = build(algo);
            whole.run_for(secs(90.0));
            whole.finish();

            let mut first = build(algo);
            first.run_until(SimTime::from_secs_f64(41.3));
            let snap = first.snapshot().expect("snapshot");
            let mut resumed = build(algo);
            resumed.restore(&snap).expect("restore");
            resumed.run_until(SimTime::from_secs_f64(90.0));
            resumed.finish();
            assert_eq!(
                whole.stats(),
                resumed.stats(),
                "{algo:?}: resume must replay bit-identically"
            );

            // Cross-variant restore: the sender's algorithm tag rejects a
            // snapshot taken under a different controller.
            let other = if algo == CcAlgorithm::Reno {
                CcAlgorithm::Cubic
            } else {
                CcAlgorithm::Reno
            };
            assert!(
                matches!(
                    build(other).restore(&snap),
                    Err(pftk_snap::SnapError::TagMismatch {
                        context: "sender-cc",
                        ..
                    })
                ),
                "{algo:?} snapshot restored into {other:?}"
            );

            // Torn tail: every truncation errors, never panics, for every
            // variant's state layout.
            for cut in [0, 1, snap.len() / 2, snap.len() - 1] {
                assert!(
                    build(algo).restore(&snap[..cut]).is_err(),
                    "{algo:?}: truncation to {cut} bytes restored"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let mut donor = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.02)))
            .seed(3)
            .build();
        donor.run_for(secs(10.0));
        let snap = donor.snapshot().expect("snapshot");

        // Different loss-process kind.
        let mut wrong_loss = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(RoundCorrelated::new(0.02)))
            .seed(3)
            .build();
        assert!(matches!(
            wrong_loss.restore(&snap),
            Err(pftk_snap::SnapError::TagMismatch { .. })
        ));

        // ACK-loss process present in the target but not the snapshot.
        let mut wrong_ack = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.02)))
            .ack_loss(Box::new(Bernoulli::new(0.1)))
            .seed(3)
            .build();
        assert!(matches!(
            wrong_ack.restore(&snap),
            Err(pftk_snap::SnapError::TagMismatch {
                context: "ack-loss-presence",
                ..
            })
        ));
    }

    #[test]
    fn restore_rejects_corruption_without_panicking() {
        use pftk_snap::SnapError;
        let mut donor = Connection::builder()
            .rtt(0.1)
            .loss(Box::new(Bernoulli::new(0.02)))
            .seed(3)
            .build();
        donor.run_for(secs(10.0));
        let snap = donor.snapshot().expect("snapshot");
        let fresh = || {
            Connection::builder()
                .rtt(0.1)
                .loss(Box::new(Bernoulli::new(0.02)))
                .seed(3)
                .build()
        };

        // Bit flip anywhere in the payload: the frame checksum catches it.
        let mut flipped = snap.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(fresh().restore(&flipped), Err(SnapError::ChecksumMismatch));

        // Truncations at every prefix length must error, never panic.
        for cut in 0..snap.len().min(64) {
            assert!(fresh().restore(&snap[..cut]).is_err(), "prefix {cut}");
        }
        assert!(fresh().restore(&snap[..snap.len() - 1]).is_err());

        // Garbage input: bad magic.
        assert_eq!(
            fresh().restore(&[0u8; 64]),
            Err(SnapError::BadMagic),
            "garbage must be rejected at the magic check"
        );

        // The pristine snapshot still restores after all that.
        let mut ok = fresh();
        ok.restore(&snap).expect("pristine restore");
        assert_eq!(ok.stats(), donor.stats());
    }
}
