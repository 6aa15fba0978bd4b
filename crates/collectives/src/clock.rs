//! Per-rank virtual time.

/// A monotonically advancing virtual clock, one per simulated GPU rank.
///
/// All latencies the suite reports are differences of these clocks. Compute
/// phases call [`VirtualClock::advance`] with model-derived durations;
/// communication advances clocks through the send/receive rules that
/// [`crate::world`] applies message by message and [`crate::lockstep`]
/// applies to the whole fleet at once:
///
/// * a send serializes on the sender (the clock advances by the α–β transfer
///   time) and stamps the message with its completion time;
/// * a receive waits: the receiver clock becomes the max of its own time and
///   the message's arrival stamp.
///
/// The result is a deterministic happens-before ordering identical across
/// runs regardless of host scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock { now: 0.0 }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by a non-negative duration (compute, local copies).
    #[inline]
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "cannot advance a clock backwards ({dt})");
        self.now += dt;
    }

    /// Wait until at least `t` (message arrival, barrier release).
    #[inline]
    pub fn wait_until(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let mut c = VirtualClock::new();
        c.advance(1.5);
        c.advance(0.5);
        assert!((c.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let mut c = VirtualClock::new();
        c.advance(10.0);
        c.wait_until(5.0);
        assert_eq!(c.now(), 10.0);
        c.wait_until(12.0);
        assert_eq!(c.now(), 12.0);
    }
}
