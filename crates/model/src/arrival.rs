//! Request arrival processes for the serving front-end.
//!
//! The windowed online mode (`exflow-core`'s `Scenario::with_drift`)
//! consumes pre-aggregated windows of traffic; a production deployment
//! instead sees *requests* arriving over time. This module provides the three arrival patterns the
//! serving simulator exercises — homogeneous Poisson traffic, a diurnal
//! (sinusoidally-modulated) load curve, and a flash crowd (a step spike on
//! top of a base rate) — as seeded, deterministic generators of arrival
//! timestamps.
//!
//! Non-homogeneous variants are sampled by Lewis–Shedler thinning: draw
//! candidate arrivals from a homogeneous process at the peak rate, then
//! accept each with probability `rate(t) / peak`. Everything is a pure
//! function of `(process, n, seed)`, so serving runs built on top stay
//! bit-identical at any thread width.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The arrival-pattern families the serving benchmarks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Homogeneous Poisson: memoryless, constant rate.
    Poisson,
    /// Sinusoidal day/night load curve (non-homogeneous Poisson).
    Diurnal,
    /// Constant base rate with a multiplicative spike window.
    FlashCrowd,
}

impl ArrivalKind {
    /// Every kind, in presentation order.
    pub const ALL: [ArrivalKind; 3] = [
        ArrivalKind::Poisson,
        ArrivalKind::Diurnal,
        ArrivalKind::FlashCrowd,
    ];

    /// Stable lowercase label (bench row / scenario key).
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalKind::Poisson => "poisson",
            ArrivalKind::Diurnal => "diurnal",
            ArrivalKind::FlashCrowd => "flash-crowd",
        }
    }
}

/// A seeded generator of request arrival timestamps.
///
/// Construct one of the three patterns, then [`ArrivalProcess::sample`]
/// the first `n` arrival times. Sampling is deterministic per seed and
/// times are non-decreasing.
///
/// ```
/// use exflow_model::arrival::ArrivalProcess;
///
/// let p = ArrivalProcess::poisson(2.0);
/// let a = p.sample(200, 7);
/// assert_eq!(a, p.sample(200, 7)); // seeded: bit-identical
/// assert!(a.windows(2).all(|w| w[0] <= w[1])); // time moves forward
/// // The empirical rate lands near the nominal 2.0 req/s.
/// let rate = 200.0 / a.last().unwrap();
/// assert!((rate - 2.0).abs() < 0.4, "empirical rate {rate}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    kind: ArrivalKind,
    base_rate: f64,
    peak_rate: f64,
    /// Diurnal only: one full day/night cycle in virtual seconds.
    period: f64,
    /// Flash crowd only: spike window `[spike_start, spike_end)`.
    spike_start: f64,
    spike_end: f64,
}

impl ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` requests per virtual second.
    pub fn poisson(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        ArrivalProcess {
            kind: ArrivalKind::Poisson,
            base_rate: rate,
            peak_rate: rate,
            period: 0.0,
            spike_start: 0.0,
            spike_end: 0.0,
        }
    }

    /// Diurnal load curve: instantaneous rate
    /// `mean_rate * (1 - swing * cos(2π t / period))`, starting at the
    /// trough. Over whole periods the mean rate is exactly `mean_rate`;
    /// the peak is `mean_rate * (1 + swing)`. `swing` must lie in
    /// `[0, 1)` so the rate never reaches zero.
    pub fn diurnal(mean_rate: f64, swing: f64, period: f64) -> Self {
        assert!(
            mean_rate > 0.0 && mean_rate.is_finite(),
            "rate must be positive"
        );
        assert!((0.0..1.0).contains(&swing), "swing must be in [0, 1)");
        assert!(
            period > 0.0 && period.is_finite(),
            "period must be positive"
        );
        let peak_rate = mean_rate * (1.0 + swing);
        // An infinite envelope would make `sample` step by zero forever.
        assert!(peak_rate.is_finite(), "peak rate must be finite");
        ArrivalProcess {
            kind: ArrivalKind::Diurnal,
            base_rate: mean_rate,
            peak_rate,
            period,
            spike_start: 0.0,
            spike_end: 0.0,
        }
    }

    /// Flash crowd: `base_rate` everywhere except the window
    /// `[spike_start, spike_start + spike_len)`, where the rate jumps to
    /// `base_rate * spike_mult`.
    pub fn flash_crowd(base_rate: f64, spike_mult: f64, spike_start: f64, spike_len: f64) -> Self {
        assert!(
            base_rate > 0.0 && base_rate.is_finite(),
            "rate must be positive"
        );
        assert!(
            spike_mult >= 1.0 && spike_mult.is_finite(),
            "spike must amplify"
        );
        assert!(
            spike_start >= 0.0 && spike_len > 0.0,
            "spike window must be forward"
        );
        let peak_rate = base_rate * spike_mult;
        assert!(peak_rate.is_finite(), "peak rate must be finite");
        ArrivalProcess {
            kind: ArrivalKind::FlashCrowd,
            base_rate,
            peak_rate,
            period: 0.0,
            spike_start,
            spike_end: spike_start + spike_len,
        }
    }

    /// Which pattern family this process belongs to.
    pub fn kind(&self) -> ArrivalKind {
        self.kind
    }

    /// Stable scenario name (the kind's label).
    pub fn name(&self) -> &'static str {
        self.kind.label()
    }

    /// Instantaneous arrival rate at virtual time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match self.kind {
            ArrivalKind::Poisson => self.base_rate,
            ArrivalKind::Diurnal => {
                let swing = self.peak_rate / self.base_rate - 1.0;
                let phase = 2.0 * std::f64::consts::PI * t / self.period;
                self.base_rate * (1.0 - swing * phase.cos())
            }
            ArrivalKind::FlashCrowd => {
                if (self.spike_start..self.spike_end).contains(&t) {
                    self.peak_rate
                } else {
                    self.base_rate
                }
            }
        }
    }

    /// The maximum instantaneous rate (the thinning envelope).
    pub fn peak_rate(&self) -> f64 {
        self.peak_rate
    }

    /// The first `n` arrival timestamps, by Lewis–Shedler thinning against
    /// the peak rate. Pure function of `(self, n, seed)`; timestamps are
    /// non-decreasing.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0a11_4a15_5eed_77c3);
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            // Exponential inter-arrival at the envelope rate; `1 - u`
            // keeps the log argument in (0, 1].
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / self.peak_rate;
            let accept: f64 = rng.gen();
            if accept * self.peak_rate < self.rate_at(t) {
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(ArrivalKind::Poisson.label(), "poisson");
        assert_eq!(ArrivalKind::Diurnal.label(), "diurnal");
        assert_eq!(ArrivalKind::FlashCrowd.label(), "flash-crowd");
        assert_eq!(ArrivalKind::ALL.len(), 3);
    }

    #[test]
    fn all_kinds_sample_deterministically_and_in_order() {
        let horizon = 100.0;
        for p in [
            ArrivalProcess::poisson(3.0),
            ArrivalProcess::diurnal(3.0, 0.8, horizon / 2.0),
            ArrivalProcess::flash_crowd(2.0, 4.0, 20.0, 10.0),
        ] {
            let a = p.sample(300, 42);
            assert_eq!(a, p.sample(300, 42), "{} not deterministic", p.name());
            assert_eq!(a.len(), 300);
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "{} out of order",
                p.name()
            );
            assert!(a[0] >= 0.0);
        }
    }

    #[test]
    fn diurnal_mean_rate_is_the_nominal_rate() {
        let period = 50.0;
        let p = ArrivalProcess::diurnal(4.0, 0.8, period);
        let a = p.sample(2000, 9);
        let rate = 2000.0 / a.last().unwrap();
        assert!((rate - 4.0).abs() < 0.5, "empirical {rate}");
        // The trough really is quieter than the crest.
        assert!(p.rate_at(0.0) < p.rate_at(period / 2.0));
        assert!((p.peak_rate() - 4.0 * 1.8).abs() < 1e-12);
    }

    #[test]
    fn flash_crowd_spikes_inside_its_window() {
        let p = ArrivalProcess::flash_crowd(2.0, 5.0, 10.0, 5.0);
        assert_eq!(p.rate_at(9.9), 2.0);
        assert_eq!(p.rate_at(10.0), 10.0);
        assert_eq!(p.rate_at(14.9), 10.0);
        assert_eq!(p.rate_at(15.0), 2.0);
        // Arrivals cluster in the spike: the window holds far more than
        // its share of uniform time would suggest.
        let a = p.sample(400, 3);
        let in_spike = a.iter().filter(|t| (10.0..15.0).contains(*t)).count();
        assert!(in_spike > 40, "only {in_spike} arrivals in the spike");
    }

    #[test]
    #[should_panic(expected = "peak rate must be finite")]
    fn diurnal_peak_rate_overflow_rejected() {
        let _ = ArrivalProcess::diurnal(f64::MAX, 0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "peak rate must be finite")]
    fn flash_crowd_peak_rate_overflow_rejected() {
        let _ = ArrivalProcess::flash_crowd(1e300, 1e10, 0.0, 1.0);
    }

    #[test]
    fn different_seeds_differ() {
        let p = ArrivalProcess::poisson(1.0);
        assert_ne!(p.sample(50, 1), p.sample(50, 2));
    }
}
