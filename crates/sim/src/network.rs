//! Multi-flow network simulation: several senders sharing one bottleneck.
//!
//! The single-connection simulator ([`crate::connection`]) feeds the
//! paper's measurement-style experiments; this module exists for the
//! paper's *motivating application* (§I): TCP-friendliness. It lets
//! several TCP flows, constant-bit-rate (CBR) flows, and equation-based
//! TFRC flows ([`crate::tfrc`]) compete for a shared bottleneck (drop-tail
//! or RED), so the workspace can test claims like:
//!
//! * two identical TCP flows share the link fairly;
//! * a CBR flow pinned at the PFTK TCP-friendly rate coexists with TCP,
//!   and one well above it starves TCP;
//! * a TFRC flow driven by Eq. (33) shares with TCP under RED.
//!
//! Topology per flow: `sender → access delay → shared bottleneck queue →
//! tail delay → receiver`, with ACKs returning over a fixed delay. All
//! flows see the same queue, so their losses and queueing delays couple —
//! the mechanism congestion control exists to manage.
//!
//! A TCP flow runs the same endpoint core as a single connection (the
//! crate's `tcp_flow` module): this module supplies only its wire. Events
//! run on the same lane engine ([`HybridQueue`]) under the same timer
//! discipline. Flow `f` owns timer slots `2f` and `2f + 1`: a TCP flow's
//! RTO and delayed-ACK timers, or a CBR or TFRC source's send tick and
//! TFRC feedback tick. Re-arming a slot supersedes its pending event, so
//! the arrival lanes carry only link arrivals and a flow has at most two
//! timer entries pending. A connection is the one-flow case: its timers
//! are slots 0 and 1.

use crate::event::{EventScheduler, HybridQueue, Lane};
use crate::link::Bottleneck;
use crate::packet::{Ack, Segment, Seq};
use crate::queue::QueuePolicy;
use crate::receiver::ReceiverConfig;
use crate::reno::sender::{Sender, SenderConfig};
use crate::rng::SimRng;
use crate::stats::ConnStats;
use crate::tcp_flow::{self, SackSlab, TcpFlow, Wire};
use crate::tfrc::{packet_interval, LossIntervalEstimator, TfrcConfig, TfrcController};
use crate::time::{SimDuration, SimTime};

/// What kind of traffic a flow sources.
pub enum FlowKind {
    /// A TCP Reno bulk (or finite) transfer.
    Tcp {
        /// Sender tunables.
        sender: SenderConfig,
        /// Receiver tunables.
        receiver: ReceiverConfig,
    },
    /// A constant-bit-rate source: one packet every `interval`, no
    /// congestion response (the "non-TCP flow" of §I).
    Cbr {
        /// Inter-packet interval.
        interval: SimDuration,
    },
    /// An equation-based (simplified TFRC) source: rate driven by the
    /// paper's Eq. (33) at the measured loss-event rate (see
    /// [`crate::tfrc`]).
    Tfrc {
        /// Controller settings.
        config: TfrcConfig,
    },
}

/// Configuration of one flow.
pub struct FlowConfig {
    /// Traffic type.
    pub kind: FlowKind,
    /// One-way delay from sender to the bottleneck.
    pub access_delay: SimDuration,
    /// One-way delay from the bottleneck to the receiver.
    pub tail_delay: SimDuration,
    /// One-way delay of the ACK path back to the sender.
    pub ack_delay: SimDuration,
}

impl FlowConfig {
    /// A flow of `kind` with the delay structure of [`FlowConfig::tcp`].
    fn symmetric(rtt_secs: f64, kind: FlowKind) -> Self {
        let quarter = SimDuration::from_secs_f64(rtt_secs / 4.0);
        FlowConfig {
            kind,
            access_delay: quarter,
            tail_delay: quarter,
            ack_delay: SimDuration::from_secs_f64(rtt_secs / 2.0),
        }
    }

    /// A TCP flow with symmetric delays summing to `rtt` (half each way,
    /// the forward half split evenly around the bottleneck).
    pub fn tcp(rtt_secs: f64, sender: SenderConfig) -> Self {
        let receiver = ReceiverConfig::default();
        Self::symmetric(rtt_secs, FlowKind::Tcp { sender, receiver })
    }

    /// A CBR flow at `rate_pps` packets per second with the same delay
    /// structure as [`FlowConfig::tcp`].
    ///
    /// # Panics
    /// Unless `rate_pps` is finite and positive and its packets lie at
    /// least 1 ns apart.
    pub fn cbr(rtt_secs: f64, rate_pps: f64) -> Self {
        let interval = packet_interval(rate_pps, "CBR rate");
        Self::symmetric(rtt_secs, FlowKind::Cbr { interval })
    }

    /// A TFRC (equation-based) flow with the same delay structure as
    /// [`FlowConfig::tcp`].
    pub fn tfrc(rtt_secs: f64, config: TfrcConfig) -> Self {
        Self::symmetric(rtt_secs, FlowKind::Tfrc { config })
    }
}

/// Per-flow outcome counters of a [`Network`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkFlowStats {
    /// Packets offered to the network (TCP: transmissions incl. rexmits).
    pub sent: u64,
    /// Packets dropped at the bottleneck.
    pub dropped: u64,
    /// Distinct packets that reached the receiver.
    pub delivered: u64,
    /// TCP ground truth (None for CBR flows).
    pub tcp: Option<ConnStats>,
}

impl NetworkFlowStats {
    /// Loss fraction at the bottleneck for this flow.
    pub fn loss_fraction(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.dropped as f64 / self.sent as f64 //~ allow(cast): integer count to f64, exact below 2^53
        }
    }
}

/// One flow: its delays, its endpoints, and its drops at the bottleneck.
struct Flow {
    config: FlowConfig,
    state: FlowState,
    dropped: u64,
}

// The Tcp variant dwarfs Cbr/Tfrc, but flows are few (one box per flow
// beats an extra indirection on every event). A TCP flow's sender counts
// what it sends; a CBR or TFRC flow has sent `next_seq` packets.
#[allow(clippy::large_enum_variant)]
enum FlowState {
    Tcp(TcpFlow),
    Cbr {
        interval: SimDuration,
        next_seq: Seq,
        delivered: u64,
    },
    Tfrc {
        controller: TfrcController,
        estimator: LossIntervalEstimator,
        /// Feedback latency (receiver measurement → sender rate change).
        feedback_delay: SimDuration,
        next_seq: Seq,
        rcv_expected: Seq,
        delivered: u64,
    },
}

/// What happens to a flow: a packet reaches the bottleneck, an event at
/// an endpoint (any of the TCP core's; for CBR and TFRC only a packet at
/// the receiver), a CBR or TFRC source's next send, or TFRC feedback. The
/// queue holds each with its flow's index.
enum Ev {
    Bottleneck(Segment),
    Endpoint(tcp_flow::Ev),
    Send,
    TfrcFeedback,
}

/// A TCP flow's wire: the access delay into the shared bottleneck, the
/// ACK delay back, and the flow's two timer slots (see the module docs).
struct NetWire<'a> {
    queue: &'a mut HybridQueue<(usize, Ev)>,
    sacks: &'a mut SackSlab,
    flow: usize,
    config: &'a FlowConfig,
}

impl Wire for NetWire<'_> {
    fn send_segment(&mut self, now: SimTime, seg: Segment, _: &Sender) -> bool {
        let at = now + self.config.access_delay;
        self.queue
            .schedule(Lane::Data, at, (self.flow, Ev::Bottleneck(seg)));
        false
    }

    fn send_ack(&mut self, now: SimTime, ack: Ack) {
        let sack = self.sacks.put(ack.sack);
        let ev = Ev::Endpoint(tcp_flow::Ev::AckArrive { ack: ack.ack, sack });
        let at = now + self.config.ack_delay;
        self.queue.schedule(Lane::Ack, at, (self.flow, ev));
    }

    fn ack_arrived(&mut self, _: SimTime, ack: Seq, sack: u32) -> Ack {
        let sack = self.sacks.take(sack);
        Ack { ack, sack }
    }

    fn arm_rto(&mut self, at: SimTime, gen: u64) {
        let ev = Ev::Endpoint(tcp_flow::Ev::Rto(gen));
        self.queue.arm(first_slot(self.flow), at, (self.flow, ev));
    }

    fn arm_delack(&mut self, at: SimTime, gen: u64) {
        let ev = Ev::Endpoint(tcp_flow::Ev::DelAck(gen));
        self.queue
            .arm(first_slot(self.flow) + 1, at, (self.flow, ev));
    }
}

/// Flow `flow`'s first timer slot; the second follows it.
fn first_slot(flow: usize) -> usize {
    2 * flow
}

/// The shared-bottleneck network.
pub struct Network {
    now: SimTime,
    /// Bottleneck and receiver arrivals go on the data lane, ACK arrivals
    /// on the ACK lane, timers in the flows' slots (see the module docs).
    queue: HybridQueue<(usize, Ev)>,
    flows: Vec<Flow>,
    /// The shared bottleneck; its admission draws use `rng`.
    bottleneck: Bottleneck,
    /// SACK ranges of the ACK events in the queue, of every flow.
    sacks: SackSlab,
    rng: SimRng,
    started: bool,
}

impl Network {
    /// A network whose bottleneck serves `rate_pps` packets per second
    /// under the given admission policy.
    ///
    /// # Panics
    /// If `rate_pps` is not finite and positive ([`Bottleneck::new`]).
    pub fn new(rate_pps: f64, policy: Box<dyn QueuePolicy + Send>, seed: u64) -> Self {
        Network {
            now: SimTime::ZERO,
            queue: HybridQueue::new(),
            flows: Vec::new(),
            bottleneck: Bottleneck::new(rate_pps, policy),
            sacks: SackSlab::default(),
            rng: SimRng::seed_from_u64(seed),
            started: false,
        }
    }

    /// Adds a flow; returns its index.
    pub fn add_flow(&mut self, config: FlowConfig) -> usize {
        let state = match &config.kind {
            FlowKind::Tcp { sender, receiver } => FlowState::Tcp(TcpFlow::new(*sender, *receiver)),
            FlowKind::Cbr { interval } => FlowState::Cbr {
                interval: *interval,
                next_seq: 0,
                delivered: 0,
            },
            FlowKind::Tfrc { config } => FlowState::Tfrc {
                controller: TfrcController::new(*config),
                estimator: LossIntervalEstimator::new(config.rtt_secs),
                feedback_delay: SimDuration::from_secs_f64(config.rtt_secs),
                next_seq: 0,
                rcv_expected: 0,
                delivered: 0,
            },
        };
        self.flows.push(Flow {
            config,
            state,
            dropped: 0,
        });
        self.flows.len() - 1
    }

    /// Runs the network until the clock reaches `until`.
    pub fn run_until(&mut self, until: SimTime) {
        if !self.started {
            self.started = true;
            let now = self.now;
            for (flow, f) in self.flows.iter_mut().enumerate() {
                let queue = &mut self.queue;
                match &mut f.state {
                    FlowState::Tcp(tcp) => {
                        let mut wire = NetWire {
                            queue,
                            sacks: &mut self.sacks,
                            flow,
                            config: &f.config,
                        };
                        tcp.start(now, &mut wire);
                    }
                    FlowState::Cbr { .. } => queue.arm(first_slot(flow), now, (flow, Ev::Send)),
                    FlowState::Tfrc { .. } => {
                        queue.arm(first_slot(flow), now, (flow, Ev::Send));
                        queue.arm(first_slot(flow) + 1, now, (flow, Ev::TfrcFeedback));
                    }
                }
            }
        }
        while let Some((at, (flow, ev))) = self.queue.pop_due(until) {
            self.now = at;
            self.dispatch(flow, ev);
        }
        self.now = until;
    }

    /// Convenience wrapper over [`Network::run_until`].
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.now + span);
    }

    /// Flushes end-of-run bookkeeping; call once after the final run.
    pub fn finish(&mut self) {
        for f in &mut self.flows {
            if let FlowState::Tcp(tcp) = &mut f.state {
                tcp.finish();
            }
        }
    }

    /// Per-flow statistics, in `add_flow` order.
    pub fn stats(&self) -> Vec<NetworkFlowStats> {
        let stats = |f: &Flow| {
            let (sent, delivered, tcp) = match &f.state {
                FlowState::Tcp(tcp) => {
                    let s = tcp.stats();
                    (s.packets_sent, s.packets_delivered, Some(s))
                }
                FlowState::Cbr {
                    next_seq,
                    delivered,
                    ..
                }
                | FlowState::Tfrc {
                    next_seq,
                    delivered,
                    ..
                } => (*next_seq, *delivered, None),
            };
            let dropped = f.dropped;
            NetworkFlowStats {
                sent,
                dropped,
                delivered,
                tcp,
            }
        };
        self.flows.iter().map(stats).collect()
    }

    fn dispatch(&mut self, flow: usize, ev: Ev) {
        let now = self.now;
        let Some(f) = self.flows.get_mut(flow) else {
            return;
        };
        match ev {
            Ev::Bottleneck(seg) => {
                let Some(depart) = self.bottleneck.offer(now, &mut self.rng) else {
                    f.dropped += 1;
                    return;
                };
                let (seq, retransmit) = (seg.seq, seg.retransmit);
                let ev = tcp_flow::Ev::DataArrive { seq, retransmit };
                let at = depart + f.config.tail_delay;
                self.queue
                    .schedule(Lane::Data, at, (flow, Ev::Endpoint(ev)));
            }
            Ev::Endpoint(ev) => match &mut f.state {
                FlowState::Tcp(tcp) => {
                    let mut wire = NetWire {
                        queue: &mut self.queue,
                        sacks: &mut self.sacks,
                        flow,
                        config: &f.config,
                    };
                    tcp.handle(now, ev, &mut wire);
                }
                FlowState::Cbr { delivered, .. } => *delivered += 1,
                FlowState::Tfrc {
                    estimator,
                    rcv_expected,
                    delivered,
                    ..
                } => {
                    let tcp_flow::Ev::DataArrive { seq, .. } = ev else {
                        return;
                    };
                    *delivered += 1;
                    if seq > *rcv_expected {
                        // Sequence gap: one or more losses.
                        estimator.on_gap(now);
                    }
                    estimator.on_packet();
                    *rcv_expected = (*rcv_expected).max(seq + 1);
                }
            },
            Ev::Send => {
                let (next_seq, interval) = match &mut f.state {
                    FlowState::Cbr {
                        interval, next_seq, ..
                    } => (next_seq, *interval),
                    FlowState::Tfrc {
                        controller,
                        next_seq,
                        ..
                    } => {
                        let interval = packet_interval(controller.rate_pps(), "TFRC rate");
                        (next_seq, interval)
                    }
                    FlowState::Tcp(_) => return,
                };
                let seg = Segment {
                    seq: *next_seq,
                    retransmit: false,
                };
                *next_seq += 1;
                let at = now + f.config.access_delay;
                self.queue
                    .schedule(Lane::Data, at, (flow, Ev::Bottleneck(seg)));
                self.queue
                    .arm(first_slot(flow), now + interval, (flow, Ev::Send));
            }
            Ev::TfrcFeedback => {
                if let FlowState::Tfrc {
                    controller,
                    estimator,
                    feedback_delay,
                    ..
                } = &mut f.state
                {
                    controller.on_feedback(estimator.loss_event_rate());
                    let at = now + *feedback_delay;
                    self.queue
                        .arm(first_slot(flow) + 1, at, (flow, Ev::TfrcFeedback));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DropTail;

    fn secs(v: f64) -> SimDuration {
        SimDuration::from_secs_f64(v)
    }

    fn tcp_flow(rtt: f64) -> FlowConfig {
        FlowConfig::tcp(rtt, SenderConfig::default())
    }

    #[test]
    fn single_tcp_flow_fills_the_bottleneck() {
        let mut net = Network::new(100.0, Box::new(DropTail::new(25)), 1);
        net.add_flow(tcp_flow(0.1));
        net.run_for(secs(120.0));
        net.finish();
        let stats = net.stats();
        let rate = stats[0].delivered as f64 / 120.0;
        assert!(
            rate > 80.0,
            "a lone TCP should drive a 100 pkt/s bottleneck near capacity, got {rate}"
        );
    }

    #[test]
    fn two_identical_tcp_flows_share_fairly() {
        let mut net = Network::new(100.0, Box::new(DropTail::new(25)), 2);
        net.add_flow(tcp_flow(0.1));
        net.add_flow(tcp_flow(0.1));
        net.run_for(secs(600.0));
        net.finish();
        let stats = net.stats();
        let (a, b) = (stats[0].delivered as f64, stats[1].delivered as f64);
        let ratio = a.max(b) / a.min(b).max(1.0);
        assert!(ratio < 1.6, "long-run share ratio {ratio:.2} ({a} vs {b})");
        // Together they still fill the pipe.
        assert!((a + b) / 600.0 > 80.0);
    }

    #[test]
    fn shorter_rtt_flow_gets_more() {
        let mut net = Network::new(100.0, Box::new(DropTail::new(25)), 3);
        net.add_flow(tcp_flow(0.05));
        net.add_flow(tcp_flow(0.4));
        net.run_for(secs(600.0));
        net.finish();
        let stats = net.stats();
        assert!(
            stats[0].delivered > stats[1].delivered,
            "RTT bias: short {} vs long {}",
            stats[0].delivered,
            stats[1].delivered
        );
    }

    #[test]
    fn cbr_flow_unresponsive_to_loss() {
        // A CBR at 150% of capacity keeps sending; ~1/3 of it drops.
        let mut net = Network::new(100.0, Box::new(DropTail::new(10)), 4);
        net.add_flow(FlowConfig::cbr(0.1, 150.0));
        net.run_for(secs(60.0));
        let stats = net.stats();
        let sent = stats[0].sent as f64;
        assert!(
            (sent / 60.0 - 150.0).abs() < 5.0,
            "CBR held its rate: {}",
            sent / 60.0
        );
        let loss = stats[0].loss_fraction();
        assert!(
            (loss - 1.0 / 3.0).abs() < 0.05,
            "expected ~33% drops, got {loss}"
        );
    }

    #[test]
    fn aggressive_cbr_starves_tcp() {
        // §I's cautionary tale: an unresponsive flow at link capacity
        // leaves TCP almost nothing.
        let mut net = Network::new(100.0, Box::new(DropTail::new(10)), 5);
        let tcp = net.add_flow(tcp_flow(0.1));
        let cbr = net.add_flow(FlowConfig::cbr(0.1, 100.0));
        net.run_for(secs(300.0));
        net.finish();
        let stats = net.stats();
        let tcp_rate = stats[tcp].delivered as f64 / 300.0;
        let cbr_rate = stats[cbr].delivered as f64 / 300.0;
        assert!(
            cbr_rate > 5.0 * tcp_rate,
            "CBR {cbr_rate:.1} pkt/s should dwarf TCP {tcp_rate:.1} pkt/s"
        );
    }

    #[test]
    fn tfrc_flow_finds_the_link_rate_alone() {
        // A lone TFRC flow should settle near link capacity (it slow-starts
        // past it, takes a loss, and the equation holds it near the knee).
        let mut net = Network::new(100.0, Box::new(DropTail::new(25)), 21);
        net.add_flow(FlowConfig::tfrc(0.1, crate::tfrc::TfrcConfig::for_rtt(0.1)));
        net.run_for(secs(300.0));
        let s = net.stats();
        let goodput = s[0].delivered as f64 / 300.0;
        assert!(
            goodput > 40.0 && goodput <= 101.0,
            "lone TFRC goodput {goodput:.1} pkt/s on a 100 pkt/s link"
        );
    }

    #[test]
    fn tfrc_and_tcp_share_within_a_band_under_red() {
        // The whole point of equation-based congestion control: a TFRC flow
        // competing with TCP gets a comparable (not identical) share. The
        // bottleneck runs RED: drop-tail's burst bias would otherwise spare
        // the evenly-paced TFRC packets and drop TCP's window bursts (see
        // `drop_tail_burst_bias_favors_paced_traffic` below) — the exact
        // pathology RED's randomized early drops were designed to remove.
        let mut net = Network::new(
            100.0,
            Box::new(crate::queue::Red::new(5.0, 20.0, 0.1, 0.02, 40)),
            22,
        );
        let tcp = net.add_flow(tcp_flow(0.1));
        // The TFRC endpoint's RTT estimate includes typical queueing.
        let tfrc = net.add_flow(FlowConfig::tfrc(0.1, crate::tfrc::TfrcConfig::for_rtt(0.2)));
        net.run_for(secs(900.0));
        net.finish();
        let s = net.stats();
        let tcp_rate = s[tcp].delivered as f64 / 900.0;
        let tfrc_rate = s[tfrc].delivered as f64 / 900.0;
        let ratio = tfrc_rate / tcp_rate;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "TFRC {tfrc_rate:.1} vs TCP {tcp_rate:.1} pkt/s (ratio {ratio:.2})"
        );
        // Together they use the link.
        assert!(tcp_rate + tfrc_rate > 60.0);
    }

    #[test]
    fn drop_tail_burst_bias_favors_paced_traffic() {
        // Documented phenomenon (and the reason the fairness test above
        // uses RED): at a drop-tail queue, TCP's window bursts land exactly
        // when the queue is full, while an equation-based flow's paced
        // packets slip through — letting it crowd TCP out even though it
        // obeys its measured-loss equation.
        let mut net = Network::new(100.0, Box::new(DropTail::new(25)), 22);
        let tcp = net.add_flow(tcp_flow(0.1));
        let tfrc = net.add_flow(FlowConfig::tfrc(0.1, crate::tfrc::TfrcConfig::for_rtt(0.2)));
        net.run_for(secs(600.0));
        net.finish();
        let s = net.stats();
        assert!(
            s[tfrc].delivered > 3 * s[tcp].delivered,
            "expected the drop-tail burst bias: TFRC {} vs TCP {}",
            s[tfrc].delivered,
            s[tcp].delivered
        );
    }

    #[test]
    fn tfrc_is_smoother_than_tcp() {
        // Measure per-10s goodput variance for each flow type under the
        // same competing load: TFRC's rate changes by equation, not by
        // halving, so its delivery should fluctuate less.
        let windows = 30usize;
        let measure = |use_tfrc: bool| -> f64 {
            let mut net = Network::new(100.0, Box::new(DropTail::new(25)), 23);
            let probe = if use_tfrc {
                net.add_flow(FlowConfig::tfrc(0.1, crate::tfrc::TfrcConfig::for_rtt(0.2)))
            } else {
                net.add_flow(tcp_flow(0.1))
            };
            net.add_flow(tcp_flow(0.1)); // competing TCP
            let mut deliveries = Vec::new();
            let mut last = 0u64;
            for _ in 0..windows {
                net.run_for(secs(10.0));
                let d = net.stats()[probe].delivered;
                deliveries.push((d - last) as f64);
                last = d;
            }
            // Coefficient of variation over the second half (post warm-up).
            let tail = &deliveries[windows / 2..];
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            let var = tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tail.len() as f64;
            var.sqrt() / mean.max(1.0)
        };
        let cv_tfrc = measure(true);
        let cv_tcp = measure(false);
        assert!(
            cv_tfrc < cv_tcp * 1.5,
            "TFRC CV {cv_tfrc:.3} should not be rougher than TCP CV {cv_tcp:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "less than 1 ns apart")]
    fn cbr_rate_with_a_zero_spacing_is_rejected() {
        // 1 / 3e9 s rounds to 0 ns: the tick would reschedule itself at
        // the same instant forever.
        FlowConfig::cbr(0.1, 3e9);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_cbr_rate_is_rejected() {
        FlowConfig::cbr(0.1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_cbr_rate_is_rejected() {
        FlowConfig::cbr(0.1, 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let mut net = Network::new(80.0, Box::new(DropTail::new(20)), seed);
            net.add_flow(tcp_flow(0.1));
            net.add_flow(FlowConfig::cbr(0.1, 30.0));
            net.run_for(secs(120.0));
            net.finish();
            net.stats()
                .iter()
                .map(|s| (s.sent, s.dropped, s.delivered))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    /// Every timer lives in its flow's two slots: after a long run of many
    /// flows (each ACK re-arms an RTO), the queue holds at most two timer
    /// entries per flow and no timer on an arrival lane or in the heap.
    #[test]
    fn timers_stay_in_their_flows_slots() {
        let n = 32;
        let red = crate::queue::Red::new(32.0, 96.0, 0.1, 0.002, 192);
        let mut net = Network::new(25.0 * 32.0, Box::new(red), 7);
        for _ in 0..n {
            net.add_flow(tcp_flow(0.1));
        }
        net.run_for(secs(200.0));
        assert!(net.queue.timers_armed() <= 2 * n);
        assert!(net.queue.timers_armed() >= n, "every flow has an RTO armed");
        let mut arrivals = 0;
        for (_, ev) in net.queue.arrivals() {
            arrivals += 1;
            assert!(
                matches!(
                    ev,
                    Ev::Bottleneck(_)
                        | Ev::Endpoint(tcp_flow::Ev::DataArrive { .. })
                        | Ev::Endpoint(tcp_flow::Ev::AckArrive { .. })
                ),
                "a timer on an arrival lane"
            );
        }
        assert!(arrivals > 0, "a busy network has packets in flight");
    }

    #[test]
    fn finite_tcp_flow_completes_in_shared_network() {
        let sender = SenderConfig {
            data_limit: Some(500),
            ..SenderConfig::default()
        };
        let mut net = Network::new(100.0, Box::new(DropTail::new(25)), 8);
        net.add_flow(FlowConfig::tcp(0.1, sender));
        net.add_flow(FlowConfig::cbr(0.1, 40.0)); // background load
        net.run_for(secs(120.0));
        net.finish();
        let stats = net.stats();
        assert_eq!(stats[0].delivered, 500, "transfer must complete");
    }
}
