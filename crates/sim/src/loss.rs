//! Packet-loss processes.
//!
//! The paper assumes losses are *correlated within a round* (one loss dooms
//! the rest of the round) and *independent across rounds* (§II), while noting
//! that real Internet loss is bursty (ref \[23\]) and that the model nevertheless
//! "was able to predict the throughput of TCP connections quite well, even
//! with Bernoulli losses" (§IV). We implement the whole menagerie so the
//! benchmarks can compare the model's robustness across loss processes:
//!
//! * [`NoLoss`] — control;
//! * [`Bernoulli`] — i.i.d. per-packet loss;
//! * [`RoundCorrelated`] — the paper's §II assumption, parameterized by the
//!   *first-loss* probability `p`;
//! * [`GilbertElliott`] — two-state bursty loss (ref \[23\]'s observation),
//!   per-packet chain;
//! * [`TimedGilbertElliott`] — two-state bursty loss with state durations
//!   in *seconds*: loss episodes that outlast the RTO, producing the
//!   exponential-backoff sequences of Table II's T1+ columns;
//! * [`Deterministic`] — drop every `n`-th packet (for exact-scenario unit
//!   tests).
//!
//! Implementations see every data transmission in order via
//! [`LossModel::should_drop`] and are told when a round boundary passes via
//! [`LossModel::on_round_boundary`] (the packet-level simulator approximates
//! rounds by flight boundaries; the rounds-based simulator has exact rounds).

use crate::rng::SimRng;
use crate::time::SimTime;
use pftk_snap::{SnapReader, SnapResult, SnapWriter};

/// A loss process: decides the fate of each transmitted data packet.
pub trait LossModel {
    /// Returns `true` if the transmission departing at `now` should be
    /// dropped. Memoryless processes ignore `now`; time-correlated ones
    /// ([`TimedGilbertElliott`]) advance their state by it — which matters
    /// during retransmission timeouts, when seconds pass between packets.
    fn should_drop(&mut self, now: SimTime, rng: &mut SimRng) -> bool;

    /// Signals that a new round (window flight) has begun. Processes with
    /// intra-round correlation reset here; memoryless processes ignore it.
    fn on_round_boundary(&mut self) {}

    /// A short human-readable label for reports.
    fn label(&self) -> &'static str;
}

/// Lossless control channel.
#[derive(Debug, Clone, Default)]
pub struct NoLoss;

impl LossModel for NoLoss {
    #[inline]
    fn should_drop(&mut self, _now: SimTime, _rng: &mut SimRng) -> bool {
        false
    }
    fn label(&self) -> &'static str {
        "none"
    }
}

/// Independent (Bernoulli) per-packet loss with probability `p`.
#[derive(Debug, Clone)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli dropper; `p` is clamped to `[0, 1]`.
    pub fn new(p: f64) -> Self {
        Bernoulli {
            p: p.clamp(0.0, 1.0),
        }
    }

    /// The per-packet drop probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl LossModel for Bernoulli {
    #[inline]
    fn should_drop(&mut self, _now: SimTime, rng: &mut SimRng) -> bool {
        rng.chance(self.p)
    }
    fn label(&self) -> &'static str {
        "bernoulli"
    }
}

/// The paper's loss model: within a round, once one packet is lost *every
/// subsequent packet of that round is lost too*; the first packet of each
/// round (and each packet until the first loss) is lost independently with
/// probability `p`. This makes `p` exactly the paper's "probability that a
/// packet is lost, given that either it is the first packet in its round or
/// the preceding packet in its round is not lost."
#[derive(Debug, Clone)]
pub struct RoundCorrelated {
    p: f64,
    dropping_rest_of_round: bool,
}

impl RoundCorrelated {
    /// Creates the §II loss process with first-loss probability `p`.
    pub fn new(p: f64) -> Self {
        RoundCorrelated {
            p: p.clamp(0.0, 1.0),
            dropping_rest_of_round: false,
        }
    }
}

impl LossModel for RoundCorrelated {
    #[inline]
    fn should_drop(&mut self, _now: SimTime, rng: &mut SimRng) -> bool {
        if self.dropping_rest_of_round {
            return true;
        }
        if rng.chance(self.p) {
            self.dropping_rest_of_round = true;
            true
        } else {
            false
        }
    }

    fn on_round_boundary(&mut self) {
        self.dropping_rest_of_round = false;
    }

    fn label(&self) -> &'static str {
        "round-correlated"
    }
}

/// Two-state Gilbert–Elliott burst-loss process: a Markov chain alternating
/// between a Good state (loss probability `p_good`, usually ≈0) and a Bad
/// state (loss probability `p_bad`, usually large), with transition
/// probabilities `p_g2b` and `p_b2g` evaluated per packet.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    p_good: f64,
    p_bad: f64,
    p_g2b: f64,
    p_b2g: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Creates the chain in the Good state.
    pub fn new(p_good: f64, p_bad: f64, p_g2b: f64, p_b2g: f64) -> Self {
        GilbertElliott {
            p_good: p_good.clamp(0.0, 1.0),
            p_bad: p_bad.clamp(0.0, 1.0),
            p_g2b: p_g2b.clamp(0.0, 1.0),
            p_b2g: p_b2g.clamp(0.0, 1.0),
            in_bad: false,
        }
    }

    /// A convenience construction from a target long-run loss rate and a
    /// mean burst length (in packets): Bad drops everything, Good drops
    /// nothing, stationary Bad occupancy = `loss_rate`.
    pub fn from_rate_and_burst(loss_rate: f64, mean_burst: f64) -> Self {
        let loss_rate = loss_rate.clamp(1e-9, 0.999);
        let mean_burst = mean_burst.max(1.0);
        let p_b2g = 1.0 / mean_burst;
        // Stationary bad fraction = p_g2b / (p_g2b + p_b2g) = loss_rate.
        let p_g2b = loss_rate * p_b2g / (1.0 - loss_rate);
        GilbertElliott::new(0.0, 1.0, p_g2b, p_b2g)
    }
}

impl LossModel for GilbertElliott {
    #[inline]
    fn should_drop(&mut self, _now: SimTime, rng: &mut SimRng) -> bool {
        // Transition first, then emit: a per-packet-step chain.
        let flip = if self.in_bad {
            rng.chance(self.p_b2g)
        } else {
            rng.chance(self.p_g2b)
        };
        if flip {
            self.in_bad = !self.in_bad;
        }
        let p = if self.in_bad { self.p_bad } else { self.p_good };
        rng.chance(p)
    }

    fn label(&self) -> &'static str {
        "gilbert-elliott"
    }
}

/// Drops exactly every `period`-th transmission (1-indexed): packet numbers
/// `period, 2·period, …`. Deterministic scaffolding for unit tests.
#[derive(Debug, Clone)]
pub struct Deterministic {
    period: u64,
    count: u64,
}

impl Deterministic {
    /// Drops every `period`-th packet; `period == 0` never drops.
    pub fn every(period: u64) -> Self {
        Deterministic { period, count: 0 }
    }
}

impl LossModel for Deterministic {
    #[inline]
    fn should_drop(&mut self, _now: SimTime, _rng: &mut SimRng) -> bool {
        if self.period == 0 {
            return false;
        }
        self.count += 1;
        self.count.is_multiple_of(self.period)
    }
    fn label(&self) -> &'static str {
        "deterministic"
    }
}

/// A **time-based** Gilbert–Elliott process: the chain alternates between a
/// Good and a Bad state whose *durations are drawn in seconds* (exponential
/// with the configured means), independent of the packet rate. Every packet
/// sent while the chain is Bad is lost.
///
/// This is the loss process that produces realistic *exponential backoff*:
/// a bad episode lasting longer than the RTO kills the timeout
/// retransmissions too, chaining T1/T2/… sequences exactly as Table II's
/// backoff columns show. The per-packet [`GilbertElliott`] cannot model
/// this: packets are its clock, so during a timeout (one probe per RTO) the
/// chain barely advances — a bad state effectively *freezes* across
/// arbitrarily long wall-clock gaps, producing pathological 64×-capped
/// timeout sequences instead of episode-sized ones (demonstrated in the
/// `burst_loss_backoff` integration tests).
#[derive(Debug, Clone)]
pub struct TimedGilbertElliott {
    mean_good_secs: f64,
    mean_bad_secs: f64,
    in_bad: bool,
    /// When the current state expires (lazily extended as time passes).
    next_flip: SimTime,
    initialized: bool,
}

impl TimedGilbertElliott {
    /// A chain with the given mean state durations (seconds), starting Good.
    pub fn new(mean_good_secs: f64, mean_bad_secs: f64) -> Self {
        assert!(
            mean_good_secs > 0.0 && mean_bad_secs > 0.0,
            "state durations must be positive"
        );
        TimedGilbertElliott {
            mean_good_secs,
            mean_bad_secs,
            in_bad: false,
            next_flip: SimTime::ZERO,
            initialized: false,
        }
    }

    /// Convenience: pick the Good-state mean so the long-run fraction of
    /// time spent Bad equals `loss_rate`, with Bad episodes of
    /// `mean_bad_secs` each.
    pub fn from_rate_and_burst_secs(loss_rate: f64, mean_bad_secs: f64) -> Self {
        let loss_rate = loss_rate.clamp(1e-6, 0.95);
        let mean_good = mean_bad_secs * (1.0 - loss_rate) / loss_rate;
        TimedGilbertElliott::new(mean_good, mean_bad_secs)
    }

    fn draw_duration(&self, mean: f64, rng: &mut SimRng) -> f64 {
        -mean * rng.open01().ln()
    }

    /// Moves the chain to `now`. A packet inside the current state's
    /// span, nearly every one, only compares against its expiry.
    #[inline]
    fn advance_to(&mut self, now: SimTime, rng: &mut SimRng) {
        if !self.initialized || now >= self.next_flip {
            self.flip_to(now, rng);
        }
    }

    /// Draws the first state's span, then flips state until `now` falls
    /// inside one.
    #[cold]
    fn flip_to(&mut self, now: SimTime, rng: &mut SimRng) {
        if !self.initialized {
            self.initialized = true;
            let d = self.draw_duration(self.mean_good_secs, rng);
            self.next_flip = now + crate::time::SimDuration::from_secs_f64(d);
        }
        while now >= self.next_flip {
            self.in_bad = !self.in_bad;
            let mean = if self.in_bad {
                self.mean_bad_secs
            } else {
                self.mean_good_secs
            };
            let d = self.draw_duration(mean, rng);
            self.next_flip += crate::time::SimDuration::from_secs_f64(d);
        }
    }

    /// True while the chain sits in the Bad state (after advancing to `now`).
    pub fn is_bad_at(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        self.advance_to(now, rng);
        self.in_bad
    }

    /// Writes the chain's cursor (state, expiry, lazily-initialized flag).
    /// Shared by the loss-process and fault-impairment snapshot paths.
    pub(crate) fn state_snapshot_into(&self, w: &mut SnapWriter) {
        w.put_bool(self.in_bad);
        w.put_u64(self.next_flip.as_nanos());
        w.put_bool(self.initialized);
    }

    /// Reads a cursor written by [`Self::state_snapshot_into`].
    pub(crate) fn state_restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        self.in_bad = r.get_bool()?;
        self.next_flip = SimTime::from_nanos(r.get_u64()?);
        self.initialized = r.get_bool()?;
        Ok(())
    }
}

impl LossModel for TimedGilbertElliott {
    #[inline]
    fn should_drop(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        self.advance_to(now, rng);
        self.in_bad
    }

    fn label(&self) -> &'static str {
        "timed-gilbert-elliott"
    }
}

/// A union of loss processes: a packet is dropped if **any** component
/// drops it. Used by the testbed to mix isolated losses (which produce
/// triple-duplicate recoveries) with timed burst losses (which produce
/// timeout sequences), calibrated independently against a Table II row's
/// TD and TO counts.
///
/// Every component sees every packet, in the order the components were
/// given. That wire — a [`Bernoulli`] first, a [`TimedGilbertElliott`]
/// after it — is held flat: a leading `Bernoulli` and a
/// `TimedGilbertElliott` right after it sit in typed slots that a packet
/// draws directly, and only the components after them (none, on the
/// testbed's wire) are walked as [`LossKind`]s. The slotted components
/// ignore round boundaries, so [`LossModel::on_round_boundary`] visits the
/// walked tail alone.
#[derive(Debug)]
pub struct Mixed {
    isolated: Option<Bernoulli>,
    bursts: Option<TimedGilbertElliott>,
    rest: Vec<LossKind>,
}

impl Mixed {
    /// Combines the given processes; they draw in the given order.
    pub fn from_kinds(components: Vec<LossKind>) -> Self {
        let mut rest = components.into_iter().peekable();
        let isolated = match rest.next_if(|c| matches!(c, LossKind::Bernoulli(_))) {
            Some(LossKind::Bernoulli(b)) => Some(b),
            _ => None,
        };
        let bursts = match rest.next_if(|c| matches!(c, LossKind::TimedGilbertElliott(_))) {
            Some(LossKind::TimedGilbertElliott(t)) => Some(t),
            _ => None,
        };
        Mixed {
            isolated,
            bursts,
            rest: rest.collect(),
        }
    }

    /// The number of components.
    fn len(&self) -> usize {
        usize::from(self.isolated.is_some()) + usize::from(self.bursts.is_some()) + self.rest.len()
    }

    /// Writes every component's cursor in draw order, each as the
    /// [`LossKind`] it came in would write it.
    fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        if self.isolated.is_some() {
            w.put_tag(BERNOULLI_TAG);
        }
        if let Some(t) = &self.bursts {
            w.put_tag(TIMED_GE_TAG);
            t.state_snapshot_into(w);
        }
        for c in &self.rest {
            c.snapshot_into(w);
        }
    }

    /// Reads cursors written by [`Self::snapshot_into`] into the same
    /// component list.
    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        r.expect_tag(
            "loss-mixed-len",
            u64::try_from(self.len()).unwrap_or(u64::MAX),
        )?;
        if self.isolated.is_some() {
            r.expect_tag("loss-kind", BERNOULLI_TAG)?;
        }
        if let Some(t) = &mut self.bursts {
            r.expect_tag("loss-kind", TIMED_GE_TAG)?;
            t.state_restore_from(r)?;
        }
        for c in &mut self.rest {
            c.restore_from(r)?;
        }
        Ok(())
    }
}

impl LossModel for Mixed {
    #[inline]
    fn should_drop(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        // Every component must observe every packet (stateful processes
        // advance on each call), so no short-circuiting.
        let mut drop = false;
        if let Some(b) = &mut self.isolated {
            drop |= b.should_drop(now, rng);
        }
        if let Some(t) = &mut self.bursts {
            drop |= t.should_drop(now, rng);
        }
        for c in &mut self.rest {
            drop |= c.should_drop(now, rng);
        }
        drop
    }

    #[inline]
    fn on_round_boundary(&mut self) {
        for c in &mut self.rest {
            c.on_round_boundary();
        }
    }

    fn label(&self) -> &'static str {
        "mixed"
    }
}

/// [`LossKind::variant_tag`] of a [`Bernoulli`] process.
const BERNOULLI_TAG: u64 = 1;
/// [`LossKind::variant_tag`] of a [`TimedGilbertElliott`] process.
const TIMED_GE_TAG: u64 = 4;

/// A closed sum of the loss processes, so the packet-level hot path can
/// dispatch `should_drop` with an inlined `match` instead of a virtual call
/// per packet.
///
/// The connection builder accepts `impl Into<LossKind>`, and every concrete
/// model (bare or boxed) converts losslessly, so existing
/// `.loss(Box::new(Bernoulli::new(p)))` call sites monomorphize without
/// source changes.
pub enum LossKind {
    /// [`NoLoss`], inlined.
    None(NoLoss),
    /// [`Bernoulli`], inlined.
    Bernoulli(Bernoulli),
    /// [`RoundCorrelated`], inlined.
    RoundCorrelated(RoundCorrelated),
    /// [`GilbertElliott`], inlined.
    GilbertElliott(GilbertElliott),
    /// [`TimedGilbertElliott`], inlined.
    TimedGilbertElliott(TimedGilbertElliott),
    /// [`Deterministic`], inlined.
    Deterministic(Deterministic),
    /// [`Mixed`], with each component itself a `LossKind`.
    Mixed(Mixed),
}

impl std::fmt::Debug for LossKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LossKind").field(&self.label()).finish()
    }
}

impl LossModel for LossKind {
    #[inline]
    fn should_drop(&mut self, now: SimTime, rng: &mut SimRng) -> bool {
        match self {
            LossKind::None(m) => m.should_drop(now, rng),
            LossKind::Bernoulli(m) => m.should_drop(now, rng),
            LossKind::RoundCorrelated(m) => m.should_drop(now, rng),
            LossKind::GilbertElliott(m) => m.should_drop(now, rng),
            LossKind::TimedGilbertElliott(m) => m.should_drop(now, rng),
            LossKind::Deterministic(m) => m.should_drop(now, rng),
            LossKind::Mixed(m) => m.should_drop(now, rng),
        }
    }

    #[inline]
    fn on_round_boundary(&mut self) {
        match self {
            LossKind::None(m) => m.on_round_boundary(),
            LossKind::Bernoulli(m) => m.on_round_boundary(),
            LossKind::RoundCorrelated(m) => m.on_round_boundary(),
            LossKind::GilbertElliott(m) => m.on_round_boundary(),
            LossKind::TimedGilbertElliott(m) => m.on_round_boundary(),
            LossKind::Deterministic(m) => m.on_round_boundary(),
            LossKind::Mixed(m) => m.on_round_boundary(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            LossKind::None(m) => m.label(),
            LossKind::Bernoulli(m) => m.label(),
            LossKind::RoundCorrelated(m) => m.label(),
            LossKind::GilbertElliott(m) => m.label(),
            LossKind::TimedGilbertElliott(m) => m.label(),
            LossKind::Deterministic(m) => m.label(),
            LossKind::Mixed(m) => m.label(),
        }
    }
}

impl LossKind {
    /// Stable numeric code for the variant, used as a snapshot shape tag.
    fn variant_tag(&self) -> u64 {
        match self {
            LossKind::None(_) => 0,
            LossKind::Bernoulli(_) => BERNOULLI_TAG,
            LossKind::RoundCorrelated(_) => 2,
            LossKind::GilbertElliott(_) => 3,
            LossKind::TimedGilbertElliott(_) => TIMED_GE_TAG,
            LossKind::Deterministic(_) => 5,
            LossKind::Mixed(_) => 6,
        }
    }

    /// Writes the process's mutable cursor (burst state, episode expiry,
    /// drop counter, …). Parameters (`p`, state means, period) are config:
    /// restore requires an identically-configured process, enforced by the
    /// variant tag.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_tag(self.variant_tag());
        match self {
            LossKind::None(_) | LossKind::Bernoulli(_) => {}
            LossKind::RoundCorrelated(m) => w.put_bool(m.dropping_rest_of_round),
            LossKind::GilbertElliott(m) => w.put_bool(m.in_bad),
            LossKind::TimedGilbertElliott(m) => m.state_snapshot_into(w),
            LossKind::Deterministic(m) => w.put_u64(m.count),
            LossKind::Mixed(m) => m.snapshot_into(w),
        }
    }

    /// Reads a cursor written by [`Self::snapshot_into`]; fails with a tag
    /// mismatch if this process's variant differs from the snapshotted one.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        let tag = self.variant_tag();
        r.expect_tag("loss-kind", tag)?;
        match self {
            LossKind::None(_) | LossKind::Bernoulli(_) => {}
            LossKind::RoundCorrelated(m) => m.dropping_rest_of_round = r.get_bool()?,
            LossKind::GilbertElliott(m) => m.in_bad = r.get_bool()?,
            LossKind::TimedGilbertElliott(m) => m.state_restore_from(r)?,
            LossKind::Deterministic(m) => m.count = r.get_u64()?,
            LossKind::Mixed(m) => m.restore_from(r)?,
        }
        Ok(())
    }
}

/// Generates the lossless conversions from a concrete model (bare or
/// boxed — boxed because historical call sites write `Box::new(...)`).
macro_rules! loss_kind_from {
    ($($ty:ident => $variant:ident),* $(,)?) => {
        $(
            impl From<$ty> for LossKind {
                fn from(m: $ty) -> Self {
                    LossKind::$variant(m)
                }
            }
            impl From<Box<$ty>> for LossKind {
                fn from(m: Box<$ty>) -> Self {
                    LossKind::$variant(*m)
                }
            }
        )*
    };
}

loss_kind_from! {
    NoLoss => None,
    Bernoulli => Bernoulli,
    RoundCorrelated => RoundCorrelated,
    GilbertElliott => GilbertElliott,
    TimedGilbertElliott => TimedGilbertElliott,
    Deterministic => Deterministic,
    Mixed => Mixed,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1234)
    }

    fn measure(model: &mut dyn LossModel, n: u64, round_len: u64) -> f64 {
        let mut r = rng();
        let mut drops = 0u64;
        for i in 0..n {
            if round_len > 0 && i % round_len == 0 {
                model.on_round_boundary();
            }
            // One packet per (simulated) millisecond.
            let now = SimTime::from_nanos(i * 1_000_000);
            if model.should_drop(now, &mut r) {
                drops += 1;
            }
        }
        drops as f64 / n as f64
    }

    #[test]
    fn no_loss_never_drops() {
        assert_eq!(measure(&mut NoLoss, 10_000, 0), 0.0);
    }

    #[test]
    fn bernoulli_rate_matches_p() {
        let mut m = Bernoulli::new(0.07);
        let rate = measure(&mut m, 300_000, 0);
        assert!((rate - 0.07).abs() < 0.005, "rate={rate}");
        assert_eq!(m.p(), 0.07);
    }

    #[test]
    fn bernoulli_clamps() {
        assert_eq!(Bernoulli::new(7.0).p(), 1.0);
        assert_eq!(Bernoulli::new(-3.0).p(), 0.0);
    }

    #[test]
    fn round_correlated_dooms_rest_of_round() {
        let mut m = RoundCorrelated::new(1.0); // first packet always lost
        let mut r = rng();
        let t = SimTime::ZERO;
        m.on_round_boundary();
        assert!(m.should_drop(t, &mut r));
        // Everything until the next boundary is lost.
        for _ in 0..10 {
            assert!(m.should_drop(t, &mut r));
        }
        m.on_round_boundary();
        // New round: p=1 drops again immediately, but the *state* reset.
        let mut m2 = RoundCorrelated::new(0.0);
        m2.on_round_boundary();
        let mut r2 = rng();
        assert!(!m2.should_drop(t, &mut r2));
    }

    #[test]
    fn round_correlated_first_loss_rate_is_p() {
        // Measure the *first-loss* probability: fraction of rounds whose
        // first packet survives k-1 then dies, aggregated as: the per-round
        // "any loss" rate should be 1-(1-p)^w.
        let p = 0.02;
        let w = 10u64;
        let mut m = RoundCorrelated::new(p);
        let mut r = rng();
        let rounds = 100_000;
        let mut rounds_with_loss = 0;
        for _ in 0..rounds {
            m.on_round_boundary();
            let mut lost = false;
            for _ in 0..w {
                if m.should_drop(SimTime::ZERO, &mut r) {
                    lost = true;
                }
            }
            if lost {
                rounds_with_loss += 1;
            }
        }
        let measured = rounds_with_loss as f64 / rounds as f64;
        let expect = 1.0 - (1.0f64 - p).powi(w as i32);
        assert!(
            (measured - expect).abs() < 0.005,
            "measured={measured} expect={expect}"
        );
    }

    #[test]
    fn gilbert_elliott_long_run_rate() {
        let mut m = GilbertElliott::from_rate_and_burst(0.05, 5.0);
        let rate = measure(&mut m, 500_000, 0);
        assert!((rate - 0.05).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Mean run length of consecutive drops should approach the
        // configured burst length, far above the Bernoulli value of
        // 1/(1-p) ≈ 1.05.
        let mut m = GilbertElliott::from_rate_and_burst(0.05, 8.0);
        let mut r = rng();
        let mut bursts = 0u64;
        let mut dropped = 0u64;
        let mut in_burst = false;
        for _ in 0..500_000 {
            if m.should_drop(SimTime::ZERO, &mut r) {
                dropped += 1;
                if !in_burst {
                    bursts += 1;
                    in_burst = true;
                }
            } else {
                in_burst = false;
            }
        }
        let mean_burst = dropped as f64 / bursts as f64;
        assert!(mean_burst > 4.0, "mean burst {mean_burst} not bursty");
    }

    #[test]
    fn deterministic_period() {
        let mut m = Deterministic::every(3);
        let mut r = rng();
        let pattern: Vec<bool> = (0..9)
            .map(|_| m.should_drop(SimTime::ZERO, &mut r))
            .collect();
        assert_eq!(
            pattern,
            vec![false, false, true, false, false, true, false, false, true]
        );
        let mut never = Deterministic::every(0);
        assert!(!(0..100).any(|_| never.should_drop(SimTime::ZERO, &mut r)));
    }

    #[test]
    fn timed_ge_long_run_fraction() {
        let mut m = TimedGilbertElliott::from_rate_and_burst_secs(0.1, 2.0);
        let mut r = rng();
        let mut drops = 0u64;
        let n = 200_000u64;
        for i in 0..n {
            // Sample every 10 ms over 2000 s of simulated time.
            let now = SimTime::from_nanos(i * 10_000_000);
            drops += m.should_drop(now, &mut r) as u64;
        }
        let frac = drops as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.03, "bad-time fraction {frac}");
    }

    #[test]
    fn timed_ge_episodes_persist_in_time() {
        // Within a bad episode, every probe drops — including probes spaced
        // like RTO retransmissions (seconds apart, if the episode lasts).
        let mut m = TimedGilbertElliott::from_rate_and_burst_secs(0.3, 50.0);
        let mut r = rng();
        // March forward until the chain goes bad.
        let mut t_ns = 0u64;
        while !m.should_drop(SimTime::from_nanos(t_ns), &mut r) {
            t_ns += 100_000_000; // 100 ms steps
            assert!(t_ns < 20_000_000_000_000, "never went bad");
        }
        // A 50 s mean episode almost surely covers the next 100 ms.
        assert!(m.should_drop(SimTime::from_nanos(t_ns + 100_000_000), &mut r));
    }

    #[test]
    fn timed_ge_time_ordering_required_and_deterministic() {
        let mut a = TimedGilbertElliott::new(1.0, 1.0);
        let mut b = TimedGilbertElliott::new(1.0, 1.0);
        let mut ra = SimRng::seed_from_u64(5);
        let mut rb = SimRng::seed_from_u64(5);
        for i in 0..10_000u64 {
            let now = SimTime::from_nanos(i * 5_000_000);
            assert_eq!(a.should_drop(now, &mut ra), b.should_drop(now, &mut rb));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn timed_ge_rejects_zero_durations() {
        let _ = TimedGilbertElliott::new(0.0, 1.0);
    }

    #[test]
    fn mixed_unions_components() {
        let mut m = Mixed::from_kinds(vec![
            Deterministic::every(2).into(),
            Deterministic::every(3).into(),
        ]);
        let mut r = rng();
        // Packets 1..=6: component A drops 2,4,6; B drops 3,6.
        let drops: Vec<bool> = (0..6)
            .map(|_| m.should_drop(SimTime::ZERO, &mut r))
            .collect();
        assert_eq!(drops, vec![false, true, true, true, false, true]);
    }

    #[test]
    fn mixed_forwards_round_boundaries() {
        let mut m = Mixed::from_kinds(vec![RoundCorrelated::new(1.0).into()]);
        let mut r = rng();
        assert!(m.should_drop(SimTime::ZERO, &mut r));
        assert!(m.should_drop(SimTime::ZERO, &mut r)); // rest of round doomed
        m.on_round_boundary();
        let mut clean = Mixed::from_kinds(vec![RoundCorrelated::new(0.0).into()]);
        clean.on_round_boundary();
        assert!(!clean.should_drop(SimTime::ZERO, &mut r));
    }

    #[test]
    fn empty_mixed_never_drops() {
        let mut m = Mixed::from_kinds(vec![]);
        let mut r = rng();
        assert!(!(0..100).any(|_| m.should_drop(SimTime::ZERO, &mut r)));
    }

    #[test]
    fn loss_kind_draws_match_underlying_model() {
        // Same seed, same draw sequence: the enum wrapper must consume the
        // RNG identically to the bare model (bit-identical replay depends
        // on it).
        let mut bare = GilbertElliott::from_rate_and_burst(0.05, 5.0);
        let mut kind = LossKind::from(Box::new(GilbertElliott::from_rate_and_burst(0.05, 5.0)));
        let mut ra = rng();
        let mut rb = rng();
        for i in 0..10_000u64 {
            let now = SimTime::from_nanos(i * 1_000_000);
            assert_eq!(
                bare.should_drop(now, &mut ra),
                kind.should_drop(now, &mut rb)
            );
            if i % 17 == 0 {
                bare.on_round_boundary();
                kind.on_round_boundary();
            }
        }
        assert_eq!(kind.label(), "gilbert-elliott");
    }

    /// The stream position of `r`: the bytes of its snapshot.
    fn position(r: &SimRng) -> Vec<u8> {
        let mut w = SnapWriter::new();
        r.snapshot_into(&mut w);
        w.into_bytes()
    }

    /// The testbed's wire: isolated losses, then bursts whose episodes
    /// span many packets at a 2 ms spacing.
    fn wire() -> (Bernoulli, TimedGilbertElliott) {
        (
            Bernoulli::new(0.02),
            TimedGilbertElliott::from_rate_and_burst_secs(0.05, 0.3),
        )
    }

    #[test]
    fn flat_wire_draws_like_its_components_by_hand() {
        let (b, t) = wire();
        let mut flat = LossKind::from(Mixed::from_kinds(vec![b.clone().into(), t.clone().into()]));
        let (mut b, mut t) = (b, t);
        let (mut rf, mut rh) = (rng(), rng());
        let (mut isolated, mut burst) = (0u64, 0u64);
        for i in 0..200_000u64 {
            let now = SimTime::from_nanos(i * 2_000_000 + (i * 7919) % 1_000_000);
            if i % 23 == 0 {
                flat.on_round_boundary();
            }
            let by_b = b.should_drop(now, &mut rh);
            let by_t = t.should_drop(now, &mut rh);
            assert_eq!(flat.should_drop(now, &mut rf), by_b || by_t, "packet {i}");
            assert_eq!(position(&rf), position(&rh), "RNG words drawn, packet {i}");
            isolated += u64::from(by_b && !by_t);
            burst += u64::from(by_t);
        }
        // Both components did drop packets, so both draw paths ran.
        assert!(isolated > 1000 && burst > 1000, "{isolated} {burst}");
    }

    #[test]
    fn flat_wire_keeps_other_component_orders() {
        // Bursts first, then isolated losses, then a round-correlated
        // tail: nothing is slotted out of order.
        let (b, t) = wire();
        let mut flat = Mixed::from_kinds(vec![
            t.clone().into(),
            b.clone().into(),
            RoundCorrelated::new(0.01).into(),
        ]);
        let (mut b, mut t, mut rc) = (b, t, RoundCorrelated::new(0.01));
        let (mut rf, mut rh) = (rng(), rng());
        for i in 0..50_000u64 {
            let now = SimTime::from_nanos(i * 2_000_000);
            if i % 11 == 0 {
                flat.on_round_boundary();
                rc.on_round_boundary();
            }
            let by_t = t.should_drop(now, &mut rh);
            let by_b = b.should_drop(now, &mut rh);
            let by_rc = rc.should_drop(now, &mut rh);
            assert_eq!(flat.should_drop(now, &mut rf), by_t || by_b || by_rc);
        }
        assert_eq!(position(&rf), position(&rh));
    }

    #[test]
    fn flat_wire_cursor_snapshot_continues_identically() {
        let (b, t) = wire();
        let build = || LossKind::from(Mixed::from_kinds(vec![b.clone().into(), t.clone().into()]));
        let mut live = build();
        let mut r = rng();
        let now = |i: u64| SimTime::from_nanos(i * 2_000_000);
        for i in 0..60_000 {
            live.should_drop(now(i), &mut r);
        }
        let mut w = SnapWriter::new();
        live.snapshot_into(&mut w);
        r.snapshot_into(&mut w);
        let bytes = w.into_bytes();
        let mut restored = build();
        let mut rr = rng();
        let mut reader = SnapReader::new(&bytes);
        restored.restore_from(&mut reader).expect("cursor restores");
        rr.restore_from(&mut reader).expect("rng restores");
        reader.finish().expect("nothing left over");
        for i in 60_000..120_000 {
            assert_eq!(
                live.should_drop(now(i), &mut r),
                restored.should_drop(now(i), &mut rr),
                "packet {i}"
            );
        }
        assert_eq!(position(&r), position(&rr));
        // A cursor written by a wire of another shape is refused.
        let mut other = LossKind::from(Mixed::from_kinds(vec![t.clone().into()]));
        assert!(other.restore_from(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            NoLoss.label(),
            Bernoulli::new(0.1).label(),
            RoundCorrelated::new(0.1).label(),
            GilbertElliott::new(0.0, 1.0, 0.1, 0.2).label(),
            Deterministic::every(2).label(),
            TimedGilbertElliott::new(1.0, 1.0).label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
