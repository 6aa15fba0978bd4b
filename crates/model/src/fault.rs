//! Fleet fault and elasticity schedules for the serving front-end.
//!
//! Production clusters lose GPUs mid-run (ECC faults, preemptions, host
//! reboots) and gain them back; elastic deployments also scale the fleet
//! up and down on purpose. This module provides the deterministic
//! analogue: a [`FaultSchedule`] is a validated, time-sorted list of
//! per-GPU down/up events over a *provisioned* fleet of `n_units` GPUs.
//! Node loss and fleet scale-down/up are expressed in the same vocabulary
//! — they simply drop (or revive) several GPUs at once — so the serving
//! engine needs exactly one event kind per direction.
//!
//! Schedules are pure data: the engine decides what failover, emergency
//! re-placement, and re-queueing mean. Everything here is a deterministic
//! function of the constructor arguments (the churn preset additionally
//! of its seed), so faulted serving runs stay bit-identical at any thread
//! width.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Direction of a fleet event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The GPU fails (or is scaled out) and stops serving instantly.
    Down,
    /// The GPU rejoins the fleet and may serve again.
    Up,
}

/// One fleet-membership change: GPU `gpu` goes down or comes back at
/// virtual time `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time the event fires (non-negative, finite).
    pub time: f64,
    /// Absolute GPU index in the provisioned fleet.
    pub gpu: usize,
    /// Down or up.
    pub kind: FaultKind,
}

/// A deterministic, validated schedule of GPU loss/recovery events.
///
/// Construction enforces the invariants the serving loop relies on:
/// events are time-sorted, every index is in range, a GPU is never
/// dropped twice without rejoining (nor revived while live), and at
/// least one GPU survives at every instant.
///
/// ```
/// use exflow_model::fault::{FaultKind, FaultSchedule};
///
/// let f = FaultSchedule::loss_and_rejoin(4, 2, 1.0, 3.0);
/// assert_eq!(f.n_events(), 2);
/// assert_eq!(f.events()[0].kind, FaultKind::Down);
/// assert_eq!(f.live_at(2.0), vec![true, true, false, true]);
/// assert_eq!(f.live_at(3.0), vec![true, true, true, true]);
/// assert_eq!(f.first_down_time(), Some(1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    name: String,
    n_units: usize,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    fn build(name: String, n_units: usize, events: Vec<FaultEvent>) -> Self {
        assert!(n_units >= 1, "fleet needs at least one GPU");
        let mut live = vec![true; n_units];
        let mut last = 0.0f64;
        for ev in &events {
            assert!(
                ev.time.is_finite() && ev.time >= 0.0,
                "fault times must be non-negative and finite"
            );
            assert!(ev.time >= last, "fault events must be time-sorted");
            last = ev.time;
            assert!(ev.gpu < n_units, "GPU {} out of range", ev.gpu);
            match ev.kind {
                FaultKind::Down => {
                    assert!(live[ev.gpu], "GPU {} is already down", ev.gpu);
                    live[ev.gpu] = false;
                    assert!(live.iter().any(|&l| l), "cannot drop the last live GPU");
                }
                FaultKind::Up => {
                    assert!(!live[ev.gpu], "GPU {} is already up", ev.gpu);
                    live[ev.gpu] = true;
                }
            }
        }
        FaultSchedule {
            name,
            n_units,
            events,
        }
    }

    /// The empty schedule: a fleet that never changes. Serving runs with
    /// this schedule take exactly the fault-free code path.
    pub fn none(n_units: usize) -> Self {
        FaultSchedule::build("no-faults".to_string(), n_units, Vec::new())
    }

    /// A single unrecovered GPU loss at `time`.
    pub fn gpu_loss(n_units: usize, gpu: usize, time: f64) -> Self {
        FaultSchedule::build(
            "gpu-loss".to_string(),
            n_units,
            vec![FaultEvent {
                time,
                gpu,
                kind: FaultKind::Down,
            }],
        )
    }

    /// A GPU loss at `down` followed by the same GPU rejoining at `up`.
    pub fn loss_and_rejoin(n_units: usize, gpu: usize, down: f64, up: f64) -> Self {
        assert!(up > down, "rejoin must come after the loss");
        FaultSchedule::build(
            "gpu-loss+rejoin".to_string(),
            n_units,
            vec![
                FaultEvent {
                    time: down,
                    gpu,
                    kind: FaultKind::Down,
                },
                FaultEvent {
                    time: up,
                    gpu,
                    kind: FaultKind::Up,
                },
            ],
        )
    }

    /// Two staggered unrecovered GPU losses: `first` fails at `t1`,
    /// `second` at `t2`. The second loss lands on a fleet that already
    /// failed over once, so it exercises the case where the first
    /// failover consumed replica capacity the second loss would have
    /// relied on.
    pub fn double_loss(n_units: usize, first: usize, second: usize, t1: f64, t2: f64) -> Self {
        assert!(first != second, "the two losses must hit distinct GPUs");
        assert!(t2 >= t1, "the second loss cannot precede the first");
        FaultSchedule::build(
            "double-loss".to_string(),
            n_units,
            vec![
                FaultEvent {
                    time: t1,
                    gpu: first,
                    kind: FaultKind::Down,
                },
                FaultEvent {
                    time: t2,
                    gpu: second,
                    kind: FaultKind::Down,
                },
            ],
        )
    }

    /// Seeded churn: `n_faults` loss-and-rejoin episodes spread evenly
    /// over `(0, horizon)`. Episode `i` drops a seeded choice of live GPU
    /// at `horizon * (i + 1) / (n_faults + 1)` and revives it after a
    /// seeded dwell shorter than the inter-episode gap, so episodes never
    /// overlap and the schedule stays valid for any seed.
    pub fn random_churn(n_units: usize, n_faults: usize, horizon: f64, seed: u64) -> Self {
        assert!(n_units >= 2, "churn needs at least two GPUs");
        assert!(n_faults >= 1, "need at least one fault");
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "horizon must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa_17_5c_4e_d1);
        let gap = horizon / (n_faults + 1) as f64;
        let mut events = Vec::with_capacity(2 * n_faults);
        for i in 0..n_faults {
            let down = gap * (i + 1) as f64;
            let gpu = rng.gen_range(0..n_units);
            let dwell = gap * (0.2 + 0.6 * rng.gen::<f64>());
            events.push(FaultEvent {
                time: down,
                gpu,
                kind: FaultKind::Down,
            });
            events.push(FaultEvent {
                time: down + dwell,
                gpu,
                kind: FaultKind::Up,
            });
        }
        FaultSchedule::build(format!("churn-{n_faults}x"), n_units, events)
    }

    /// Stable scenario name (`gpu-loss`, `churn-3x`, ...), used as
    /// the key in benchmark artifacts.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Size of the provisioned fleet.
    pub fn n_units(&self) -> usize {
        self.n_units
    }

    /// The validated, time-sorted event list.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// Whether the fleet ever changes.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-GPU liveness after applying every event with
    /// `event.time <= t`.
    pub fn live_at(&self, t: f64) -> Vec<bool> {
        let mut live = vec![true; self.n_units];
        for ev in &self.events {
            if ev.time > t {
                break;
            }
            live[ev.gpu] = ev.kind == FaultKind::Up;
        }
        live
    }

    /// Time of the first GPU loss, if any (the disruption clock's zero).
    pub fn first_down_time(&self) -> Option<f64> {
        self.events
            .iter()
            .find(|ev| ev.kind == FaultKind::Down)
            .map(|ev| ev.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_always_live() {
        let f = FaultSchedule::none(4);
        assert!(f.is_empty());
        assert_eq!(f.name(), "no-faults");
        assert_eq!(f.live_at(1e9), vec![true; 4]);
        assert_eq!(f.first_down_time(), None);
    }

    #[test]
    fn random_churn_is_seeded_and_valid() {
        let a = FaultSchedule::random_churn(4, 3, 100.0, 7);
        let b = FaultSchedule::random_churn(4, 3, 100.0, 7);
        assert_eq!(a, b, "churn must be deterministic per seed");
        assert_ne!(a, FaultSchedule::random_churn(4, 3, 100.0, 8));
        assert_eq!(a.n_events(), 6);
        // Every episode heals before the horizon's next episode begins.
        assert!(a.events().windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(a.live_at(100.0), vec![true; 4]);
    }

    #[test]
    fn double_loss_drops_both_gpus_for_good() {
        let f = FaultSchedule::double_loss(4, 1, 3, 1.0, 2.0);
        assert_eq!(f.name(), "double-loss");
        assert_eq!(f.live_at(1.5), vec![true, false, true, true]);
        assert_eq!(f.live_at(2.0), vec![true, false, true, false]);
        assert_eq!(f.first_down_time(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "distinct GPUs")]
    fn double_loss_same_gpu_rejected() {
        let _ = FaultSchedule::double_loss(4, 1, 1, 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_down_rejected() {
        let _ = FaultSchedule::build(
            "bad".to_string(),
            3,
            vec![
                FaultEvent {
                    time: 1.0,
                    gpu: 0,
                    kind: FaultKind::Down,
                },
                FaultEvent {
                    time: 2.0,
                    gpu: 0,
                    kind: FaultKind::Down,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "last live GPU")]
    fn dropping_the_whole_fleet_rejected() {
        let down = |gpu| FaultEvent {
            time: 1.0,
            gpu,
            kind: FaultKind::Down,
        };
        let _ = FaultSchedule::build("bad".to_string(), 2, vec![down(0), down(1)]);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_events_rejected() {
        let _ = FaultSchedule::build(
            "bad".to_string(),
            3,
            vec![
                FaultEvent {
                    time: 2.0,
                    gpu: 0,
                    kind: FaultKind::Down,
                },
                FaultEvent {
                    time: 1.0,
                    gpu: 1,
                    kind: FaultKind::Down,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_gpu_rejected() {
        let _ = FaultSchedule::gpu_loss(2, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "rejoin must come after")]
    fn backwards_rejoin_rejected() {
        let _ = FaultSchedule::loss_and_rejoin(4, 1, 3.0, 2.0);
    }
}
