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
//! Events run on the same lane engine as a single connection
//! ([`HybridQueue`]), but only on its two arrival lanes. N flows have N
//! timers of each kind, so the single-slot timer lanes do not fit: timers
//! share the arrival lanes, a stale firing is filtered by its generation
//! count, and a push that lands before its lane tail overflows to the
//! heap. Pops therefore follow the plain ascending `(time, id)` order.

use crate::event::{EventScheduler, HybridQueue, Lane};
use crate::link::Bottleneck;
use crate::packet::{Ack, Segment, Seq};
use crate::queue::QueuePolicy;
use crate::receiver::{DelAckTimer, Receiver, ReceiverConfig, ReceiverOutput};
use crate::reno::sender::{Sender, SenderConfig, SenderOutput, TimerCmd};
use crate::rng::SimRng;
use crate::stats::ConnStats;
use crate::tfrc::{LossIntervalEstimator, TfrcConfig, TfrcController};
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
    pub fn cbr(rtt_secs: f64, rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0, "CBR rate must be positive");
        let interval = SimDuration::from_secs_f64(1.0 / rate_pps);
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

// The Tcp variant dwarfs Cbr/Tfrc, but flows are few (one box per flow
// beats an extra indirection on every event).
#[allow(clippy::large_enum_variant)]
enum FlowState {
    Tcp {
        sender: Sender,
        receiver: Receiver,
        rto_gen: u64,
        delack_gen: u64,
    },
    Cbr {
        interval: SimDuration,
        next_seq: Seq,
        delivered: u64,
        sent: u64,
    },
    Tfrc {
        controller: TfrcController,
        estimator: LossIntervalEstimator,
        /// Feedback latency (receiver measurement → sender rate change).
        feedback_delay: SimDuration,
        next_seq: Seq,
        rcv_expected: Seq,
        delivered: u64,
        sent: u64,
    },
}

enum Ev {
    QueueArrive { flow: usize, seg: Segment },
    RxArrive { flow: usize, seg: Segment },
    AckArrive { flow: usize, ack: Ack },
    Rto { flow: usize, gen: u64 },
    DelAck { flow: usize, gen: u64 },
    CbrTick { flow: usize },
    TfrcSend { flow: usize },
    TfrcFeedback { flow: usize },
}

/// The shared-bottleneck network.
pub struct Network {
    now: SimTime,
    /// Bottleneck and receiver events go on the data lane, events at the
    /// senders on the ACK lane (see the module docs).
    queue: HybridQueue<Ev>,
    flows: Vec<(FlowConfig, FlowState)>,
    /// The shared bottleneck; its admission draws use `rng`.
    bottleneck: Bottleneck,
    per_flow_drops: Vec<u64>,
    per_flow_sent: Vec<u64>,
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
            per_flow_drops: Vec::new(),
            per_flow_sent: Vec::new(),
            rng: SimRng::seed_from_u64(seed),
            started: false,
        }
    }

    /// Adds a flow; returns its index.
    pub fn add_flow(&mut self, config: FlowConfig) -> usize {
        let state = match &config.kind {
            FlowKind::Tcp { sender, receiver } => FlowState::Tcp {
                sender: Sender::new(*sender),
                receiver: Receiver::new(receiver.negotiated_with(sender.style)),
                rto_gen: 0,
                delack_gen: 0,
            },
            FlowKind::Cbr { interval } => FlowState::Cbr {
                interval: *interval,
                next_seq: 0,
                delivered: 0,
                sent: 0,
            },
            FlowKind::Tfrc { config } => FlowState::Tfrc {
                controller: TfrcController::new(*config),
                estimator: LossIntervalEstimator::new(config.rtt_secs),
                feedback_delay: SimDuration::from_secs_f64(config.rtt_secs),
                next_seq: 0,
                rcv_expected: 0,
                delivered: 0,
                sent: 0,
            },
        };
        self.flows.push((config, state));
        self.per_flow_drops.push(0);
        self.per_flow_sent.push(0);
        self.flows.len() - 1
    }

    /// Runs the network until the clock reaches `until`.
    pub fn run_until(&mut self, until: SimTime) {
        if !self.started {
            self.started = true;
            for i in 0..self.flows.len() {
                match &mut self.flows[i].1 {
                    FlowState::Tcp { sender, .. } => {
                        let out = sender.on_start(SimTime::ZERO);
                        self.apply_sender_output(i, out);
                    }
                    FlowState::Cbr { .. } => {
                        self.queue
                            .schedule(Lane::Ack, SimTime::ZERO, Ev::CbrTick { flow: i });
                    }
                    FlowState::Tfrc { .. } => {
                        self.queue
                            .schedule(Lane::Ack, SimTime::ZERO, Ev::TfrcSend { flow: i });
                        self.queue
                            .schedule(Lane::Ack, SimTime::ZERO, Ev::TfrcFeedback { flow: i });
                    }
                }
            }
        }
        while let Some((at, ev)) = self.queue.pop_due(until) {
            self.now = at;
            self.dispatch(ev);
        }
        self.now = until;
    }

    /// Convenience wrapper over [`Network::run_until`].
    pub fn run_for(&mut self, span: SimDuration) {
        self.run_until(self.now + span);
    }

    /// Flushes end-of-run bookkeeping; call once after the final run.
    pub fn finish(&mut self) {
        for (_, state) in &mut self.flows {
            if let FlowState::Tcp { sender, .. } = state {
                sender.finish();
            }
        }
    }

    /// Per-flow statistics, in `add_flow` order.
    pub fn stats(&self) -> Vec<NetworkFlowStats> {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, (_, state))| match state {
                FlowState::Tcp {
                    sender, receiver, ..
                } => NetworkFlowStats {
                    sent: self.per_flow_sent[i],
                    dropped: self.per_flow_drops[i],
                    delivered: receiver.distinct_received(),
                    tcp: Some({
                        let mut s = sender.stats.clone();
                        s.packets_delivered = receiver.distinct_received();
                        s
                    }),
                },
                FlowState::Cbr {
                    delivered, sent, ..
                } => NetworkFlowStats {
                    sent: *sent,
                    dropped: self.per_flow_drops[i],
                    delivered: *delivered,
                    tcp: None,
                },
                FlowState::Tfrc {
                    delivered, sent, ..
                } => NetworkFlowStats {
                    sent: *sent,
                    dropped: self.per_flow_drops[i],
                    delivered: *delivered,
                    tcp: None,
                },
            })
            .collect()
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::QueueArrive { flow, seg } => {
                let Some(depart) = self.bottleneck.offer(self.now, &mut self.rng) else {
                    self.per_flow_drops[flow] += 1;
                    return;
                };
                let tail = self.flows[flow].0.tail_delay;
                self.queue
                    .schedule(Lane::Data, depart + tail, Ev::RxArrive { flow, seg });
            }
            Ev::RxArrive { flow, seg } => match &mut self.flows[flow].1 {
                FlowState::Tcp { receiver, .. } => {
                    let out = receiver.on_segment(self.now, seg);
                    self.apply_receiver_output(flow, out);
                }
                FlowState::Cbr { delivered, .. } => {
                    *delivered += 1;
                }
                FlowState::Tfrc {
                    estimator,
                    rcv_expected,
                    delivered,
                    ..
                } => {
                    *delivered += 1;
                    if seg.seq > *rcv_expected {
                        // Sequence gap: one or more losses.
                        estimator.on_gap(self.now);
                    }
                    estimator.on_packet();
                    *rcv_expected = (*rcv_expected).max(seg.seq + 1);
                }
            },
            Ev::AckArrive { flow, ack } => {
                if let FlowState::Tcp { sender, .. } = &mut self.flows[flow].1 {
                    let out = sender.on_ack(self.now, ack);
                    self.apply_sender_output(flow, out);
                }
            }
            Ev::Rto { flow, gen } => {
                if let FlowState::Tcp {
                    sender, rto_gen, ..
                } = &mut self.flows[flow].1
                {
                    if gen == *rto_gen {
                        let out = sender.on_rto_fired(self.now);
                        self.apply_sender_output(flow, out);
                    }
                }
            }
            Ev::DelAck { flow, gen } => {
                if let FlowState::Tcp {
                    receiver,
                    delack_gen,
                    ..
                } = &mut self.flows[flow].1
                {
                    if gen == *delack_gen {
                        let out = receiver.on_delack_timer();
                        self.apply_receiver_output(flow, out);
                    }
                }
            }
            Ev::TfrcSend { flow } => {
                let access = self.flows[flow].0.access_delay;
                if let FlowState::Tfrc {
                    controller,
                    next_seq,
                    sent,
                    ..
                } = &mut self.flows[flow].1
                {
                    let seg = Segment {
                        seq: *next_seq,
                        retransmit: false,
                    };
                    *next_seq += 1;
                    *sent += 1;
                    let interval = SimDuration::from_secs_f64(1.0 / controller.rate_pps());
                    self.per_flow_sent[flow] += 1;
                    self.queue.schedule(
                        Lane::Data,
                        self.now + access,
                        Ev::QueueArrive { flow, seg },
                    );
                    self.queue
                        .schedule(Lane::Ack, self.now + interval, Ev::TfrcSend { flow });
                }
            }
            Ev::TfrcFeedback { flow } => {
                if let FlowState::Tfrc {
                    controller,
                    estimator,
                    feedback_delay,
                    ..
                } = &mut self.flows[flow].1
                {
                    controller.on_feedback(estimator.loss_event_rate());
                    let delay = *feedback_delay;
                    self.queue
                        .schedule(Lane::Ack, self.now + delay, Ev::TfrcFeedback { flow });
                }
            }
            Ev::CbrTick { flow } => {
                let access = self.flows[flow].0.access_delay;
                if let FlowState::Cbr {
                    interval,
                    next_seq,
                    sent,
                    ..
                } = &mut self.flows[flow].1
                {
                    let seg = Segment {
                        seq: *next_seq,
                        retransmit: false,
                    };
                    *next_seq += 1;
                    *sent += 1;
                    let interval = *interval;
                    self.per_flow_sent[flow] += 1;
                    self.queue.schedule(
                        Lane::Data,
                        self.now + access,
                        Ev::QueueArrive { flow, seg },
                    );
                    self.queue
                        .schedule(Lane::Ack, self.now + interval, Ev::CbrTick { flow });
                }
            }
        }
    }

    fn apply_sender_output(&mut self, flow: usize, out: SenderOutput) {
        let access = self.flows[flow].0.access_delay;
        for seg in out.segments {
            self.per_flow_sent[flow] += 1;
            self.queue
                .schedule(Lane::Data, self.now + access, Ev::QueueArrive { flow, seg });
        }
        if let TimerCmd::Arm(at) = out.timer {
            if let FlowState::Tcp { rto_gen, .. } = &mut self.flows[flow].1 {
                *rto_gen += 1;
                let gen = *rto_gen;
                self.queue.schedule(Lane::Ack, at, Ev::Rto { flow, gen });
            }
        }
    }

    fn apply_receiver_output(&mut self, flow: usize, out: ReceiverOutput) {
        let ack_delay = self.flows[flow].0.ack_delay;
        for ack in out.acks {
            self.queue
                .schedule(Lane::Ack, self.now + ack_delay, Ev::AckArrive { flow, ack });
        }
        match out.timer {
            DelAckTimer::Keep => {}
            DelAckTimer::Arm(at) => {
                if let FlowState::Tcp { delack_gen, .. } = &mut self.flows[flow].1 {
                    *delack_gen += 1;
                    let gen = *delack_gen;
                    self.queue
                        .schedule(Lane::Data, at, Ev::DelAck { flow, gen });
                }
            }
            DelAckTimer::Cancel => {
                if let FlowState::Tcp { delack_gen, .. } = &mut self.flows[flow].1 {
                    *delack_gen += 1;
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
