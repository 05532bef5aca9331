//! One-way path model: propagation delay, jitter, and an optional
//! rate-limited bottleneck with a queue.
//!
//! A path is FIFO: computed arrival times are clamped to be strictly
//! increasing, as on a real link — TCP's duplicate-ACK machinery is
//! sensitive to reordering, and an additive-jitter model would otherwise
//! reorder freely.

use crate::queue::QueuePolicy;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use pftk_snap::{SnapReader, SnapResult, SnapWriter};

/// Additive delay jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// No jitter: constant propagation delay.
    None,
    /// Uniform additive jitter in `[0, max]`.
    Uniform {
        /// Upper bound of the additive delay.
        max: SimDuration,
    },
}

/// A rate-limited bottleneck element with an admission policy.
pub struct Bottleneck {
    /// Transmission (service) time of one packet.
    service: SimDuration,
    /// Admission policy consulted with the instantaneous backlog.
    policy: Box<dyn QueuePolicy + Send>,
    /// Time at which the server frees up after the last admitted packet.
    horizon: SimTime,
    /// Drops charged to the queue (for stats).
    drops: u64,
}

impl std::fmt::Debug for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bottleneck")
            .field("service", &self.service)
            .field("policy", &self.policy.label())
            .field("horizon", &self.horizon)
            .field("drops", &self.drops)
            .finish()
    }
}

impl Bottleneck {
    /// A bottleneck serving `rate_pps` packets per second under `policy`.
    pub fn new(rate_pps: f64, policy: Box<dyn QueuePolicy + Send>) -> Self {
        assert!(
            rate_pps.is_finite() && rate_pps > 0.0,
            "bottleneck rate must be positive"
        );
        Bottleneck {
            service: SimDuration::from_secs_f64(1.0 / rate_pps),
            policy,
            horizon: SimTime::ZERO,
            drops: 0,
        }
    }

    /// Packets dropped by the admission policy so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Current backlog in packets at time `now`.
    fn backlog(&self, now: SimTime) -> f64 {
        let residual = self.horizon.saturating_since(now);
        residual.as_nanos() as f64 / self.service.as_nanos().max(1) as f64 //~ allow(cast): integer count to f64, exact below 2^53
    }

    /// Offers a packet at `now`; returns its departure time or `None` on
    /// drop.
    pub(crate) fn offer(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let backlog = self.backlog(now);
        if self.policy.should_drop(backlog, rng) {
            self.drops += 1;
            return None;
        }
        let start = if self.horizon > now {
            self.horizon
        } else {
            now
        };
        let depart = start + self.service;
        self.horizon = depart;
        Some(depart)
    }
}

/// A one-way path. Data and ACK directions each get their own `Path`.
#[derive(Debug)]
pub struct Path {
    propagation: SimDuration,
    jitter: Jitter,
    /// The upper end of the jitter draw, `max + 1` nanoseconds as an
    /// `f64`, converted once here rather than on every packet.
    jitter_hi: f64,
    bottleneck: Option<Bottleneck>,
    /// Last delivery time, for FIFO clamping.
    last_arrival: SimTime,
}

impl Path {
    /// A jitter-free path with pure propagation delay.
    pub fn constant(propagation: SimDuration) -> Self {
        Path {
            propagation,
            jitter: Jitter::None,
            jitter_hi: 0.0,
            bottleneck: None,
            last_arrival: SimTime::ZERO,
        }
    }

    /// Adds uniform additive jitter in `[0, max]`.
    pub fn with_jitter(mut self, max: SimDuration) -> Self {
        self.jitter = Jitter::Uniform { max };
        self.jitter_hi = max.as_nanos() as f64 + 1.0; //~ allow(cast): nanosecond count to f64, jitter precision irrelevant
        self
    }

    /// Inserts a rate-limited bottleneck before the propagation element.
    pub fn with_bottleneck(mut self, bottleneck: Bottleneck) -> Self {
        self.bottleneck = Some(bottleneck);
        self
    }

    /// Packets dropped by this path's bottleneck (0 if none configured).
    pub fn bottleneck_drops(&self) -> u64 {
        self.bottleneck.as_ref().map_or(0, Bottleneck::drops)
    }

    /// Base propagation delay.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Writes the path's mutable state (FIFO clamp, bottleneck server
    /// horizon + drop counter + policy state). The bottleneck's presence is
    /// a shape tag: restore requires an identically-configured path.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.last_arrival.as_nanos());
        match &self.bottleneck {
            Some(b) => {
                w.put_tag(1);
                w.put_u64(b.horizon.as_nanos());
                w.put_u64(b.drops);
                b.policy.state_snapshot_into(w);
            }
            None => w.put_tag(0),
        }
    }

    /// Reads state written by [`Self::snapshot_into`]; fails with a tag
    /// mismatch if this path's bottleneck shape differs.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        self.last_arrival = SimTime::from_nanos(r.get_u64()?);
        match &mut self.bottleneck {
            Some(b) => {
                r.expect_tag("path-bottleneck", 1)?;
                b.horizon = SimTime::from_nanos(r.get_u64()?);
                b.drops = r.get_u64()?;
                b.policy.state_restore_from(r)
            }
            None => {
                r.expect_tag("path-bottleneck", 0)?;
                Ok(())
            }
        }
    }

    /// Transits one packet entering the path at `now`. Returns its arrival
    /// time at the far end, or `None` if a bottleneck dropped it. Arrivals
    /// are strictly increasing (FIFO).
    #[inline]
    pub fn transit(&mut self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let after_queue = match &mut self.bottleneck {
            Some(b) => b.offer(now, rng)?,
            None => now,
        };
        let jitter = match self.jitter {
            Jitter::None => SimDuration::ZERO,
            Jitter::Uniform { .. } => {
                //~ allow(cast): f64 nanoseconds back to a count, jitter precision irrelevant
                SimDuration::from_nanos(rng.uniform_f64(0.0, self.jitter_hi) as u64)
            }
        };
        let mut arrival = after_queue + self.propagation + jitter;
        if arrival <= self.last_arrival {
            arrival = self.last_arrival + SimDuration::from_nanos(1);
        }
        self.last_arrival = arrival;
        Some(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DropTail;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(10)
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at_ms(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn constant_path_adds_propagation() {
        let mut p = Path::constant(ms(100));
        let mut r = rng();
        assert_eq!(p.transit(at_ms(0), &mut r), Some(at_ms(100)));
        assert_eq!(p.transit(at_ms(50), &mut r), Some(at_ms(150)));
    }

    #[test]
    fn fifo_clamp_prevents_reordering() {
        let mut p = Path::constant(ms(100)).with_jitter(ms(50));
        let mut r = rng();
        let mut last = SimTime::ZERO;
        for i in 0..200 {
            let arr = p.transit(at_ms(i), &mut r).unwrap();
            assert!(arr > last, "reordered at packet {i}");
            last = arr;
        }
    }

    #[test]
    fn jitter_within_bounds() {
        let mut p = Path::constant(ms(100)).with_jitter(ms(50));
        let mut r = rng();
        // Widely spaced packets: FIFO clamp never engages.
        for i in 0..100 {
            let depart = at_ms(i * 1000);
            let arr = p.transit(depart, &mut r).unwrap();
            let delay = (arr - depart).as_nanos();
            assert!(delay >= ms(100).as_nanos() && delay <= ms(151).as_nanos());
        }
    }

    #[test]
    fn bottleneck_adds_queueing_delay() {
        // 10 pkt/s service = 100 ms per packet; send 5 back-to-back at t=0.
        let mut p = Path::constant(ms(10))
            .with_bottleneck(Bottleneck::new(10.0, Box::new(DropTail::new(100))));
        let mut r = rng();
        let arrivals: Vec<_> = (0..5)
            .map(|_| p.transit(SimTime::ZERO, &mut r).unwrap())
            .collect();
        // k-th departure at (k+1)·100 ms, plus 10 ms propagation.
        for (k, arr) in arrivals.iter().enumerate() {
            let expect = at_ms(100 * (k as u64 + 1) + 10);
            assert_eq!(*arr, expect, "packet {k}");
        }
    }

    #[test]
    fn bottleneck_drops_on_overflow() {
        // Capacity 2: offered 10 back-to-back, expect drops.
        let mut p = Path::constant(ms(10))
            .with_bottleneck(Bottleneck::new(10.0, Box::new(DropTail::new(2))));
        let mut r = rng();
        let delivered = (0..10)
            .filter(|_| p.transit(SimTime::ZERO, &mut r).is_some())
            .count();
        assert!(delivered < 10);
        assert_eq!(p.bottleneck_drops() as usize, 10 - delivered);
    }

    #[test]
    fn bottleneck_idle_server_has_no_backlog() {
        let mut p = Path::constant(ms(10))
            .with_bottleneck(Bottleneck::new(10.0, Box::new(DropTail::new(1))));
        let mut r = rng();
        // Widely spaced arrivals never queue, so capacity 1 never drops.
        for i in 0..20 {
            assert!(p.transit(at_ms(i * 1000), &mut r).is_some());
        }
        assert_eq!(p.bottleneck_drops(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_bottleneck_rejected() {
        let _ = Bottleneck::new(0.0, Box::new(DropTail::new(1)));
    }
}
