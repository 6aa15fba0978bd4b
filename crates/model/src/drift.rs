//! Non-stationary routing: drifting token streams for the online serving
//! mode.
//!
//! ExFlow's placements are only as good as the affinity they were computed
//! from, and under live traffic the routing distribution *drifts*: the
//! corpus mixture shifts, fine-tuning nudges the gates, new workloads
//! arrive. This module generates the controlled analogue — a sequence of
//! serving *windows* whose routing process changes over time — so the
//! online subsystem (streaming estimation, drift detection, incremental
//! re-placement) has scenarios to be measured on.
//!
//! Two preset families cover the qualitative regimes:
//!
//! * **Piecewise** — the routing structure is replaced wholesale every few
//!   windows (a regime change: a new dominant workload, a swapped
//!   checkpoint). Between phase boundaries the process is stationary.
//! * **Smooth** — every window interpolates a little further from the
//!   starting structure towards a target structure (gradual drift: slow
//!   corpus shift, continual fine-tuning). No window matches the last.
//!
//! All drift models are built from [`AffinityModelSpec`] endpoints with
//! derived seeds, so a [`DriftSchedule`] is a pure deterministic function
//! of its inputs.

use std::sync::Arc;

use crate::routing::{AffinityModelSpec, RoutingModel};

/// How the routing process evolves across windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Distinct stationary phases; the transition structure jumps at phase
    /// boundaries.
    Piecewise,
    /// Convex interpolation from the start structure to the target, one
    /// step per window.
    Smooth,
}

/// A deterministic sequence of per-window routing models.
///
/// Window `w`'s tokens should be sampled from [`DriftSchedule::model_at`]
/// with a per-window seed; the schedule itself holds fully materialized
/// models so repeated window access is cheap and allocation-free. The
/// windows of one piecewise phase share one model.
///
/// ```
/// use exflow_model::drift::DriftSchedule;
/// use exflow_model::routing::AffinityModelSpec;
///
/// let spec = AffinityModelSpec::new(4, 8);
/// let drift = DriftSchedule::piecewise(&spec, 2, 6);
/// assert_eq!(drift.n_windows(), 6);
/// // Windows 0..3 share a phase; window 3 starts the second phase.
/// assert_eq!(
///     drift.model_at(0).transition(0, 0),
///     drift.model_at(2).transition(0, 0)
/// );
/// assert_ne!(
///     drift.model_at(2).transition(0, 0),
///     drift.model_at(3).transition(0, 0)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct DriftSchedule {
    name: String,
    kind: DriftKind,
    windows: Vec<Arc<RoutingModel>>,
}

/// Seed-stream tags for phase/endpoint derivation (SplitMix-style mixing
/// lives in the routing module; here a simple odd-multiplier fold is
/// enough to keep phases distinct).
fn phase_seed(seed: u64, phase: u64) -> u64 {
    seed ^ (phase + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The endpoint a smooth schedule over `spec` drifts towards.
fn smooth_target(spec: &AffinityModelSpec) -> AffinityModelSpec {
    spec.clone().with_seed(phase_seed(spec.seed, 0x005a_007f))
}

impl DriftSchedule {
    /// A piecewise schedule: `n_phases` stationary phases spread evenly
    /// over `n_windows` windows. Phase `p` rebuilds the spec with a
    /// derived seed, so consecutive phases share the spec's shape and
    /// affinity concentration but none of its permutation structure.
    pub fn piecewise(spec: &AffinityModelSpec, n_phases: usize, n_windows: usize) -> Self {
        assert!(n_phases >= 1, "need at least one phase");
        assert!(n_windows >= n_phases, "need at least one window per phase");
        let models: Vec<Arc<RoutingModel>> = (0..n_phases)
            .map(|p| {
                Arc::new(
                    spec.clone()
                        .with_seed(phase_seed(spec.seed, p as u64))
                        .build(),
                )
            })
            .collect();
        let windows = (0..n_windows)
            .map(|w| Arc::clone(&models[w * n_phases / n_windows]))
            .collect();
        DriftSchedule {
            name: format!("piecewise-{n_phases}phase"),
            kind: DriftKind::Piecewise,
            windows,
        }
    }

    /// A smooth schedule: window `w` is the convex blend
    /// `(1 - w/(W-1)) * start + (w/(W-1)) * target`, where the target is
    /// the spec rebuilt with a derived seed. Window 0 is exactly the start
    /// structure, the last window exactly the target.
    pub fn smooth(spec: &AffinityModelSpec, n_windows: usize) -> Self {
        assert!(n_windows >= 2, "smooth drift needs at least two windows");
        let start = spec.build();
        let target = smooth_target(spec).build();
        let windows = (0..n_windows)
            .map(|w| Arc::new(start.interpolate(&target, w as f64 / (n_windows - 1) as f64)))
            .collect();
        DriftSchedule {
            name: "smooth".to_string(),
            kind: DriftKind::Smooth,
            windows,
        }
    }

    /// The drift presets the online benchmarks sweep: an abrupt two-phase
    /// regime change, a faster four-phase churn, and gradual smooth drift.
    pub fn presets(spec: &AffinityModelSpec, n_windows: usize) -> Vec<DriftSchedule> {
        vec![
            DriftSchedule::piecewise(spec, 2, n_windows),
            DriftSchedule::piecewise(spec, 4, n_windows),
            DriftSchedule::smooth(spec, n_windows),
        ]
    }

    /// Stable preset name (`piecewise-2phase`, `smooth`, ...), used as the
    /// scenario key in benchmark artifacts.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which drift family this schedule belongs to.
    pub fn kind(&self) -> DriftKind {
        self.kind
    }

    /// Number of serving windows.
    pub fn n_windows(&self) -> usize {
        self.windows.len()
    }

    /// The routing model governing window `w`.
    pub fn model_at(&self, w: usize) -> &RoutingModel {
        &self.windows[w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AffinityModelSpec {
        AffinityModelSpec::new(5, 8)
    }

    #[test]
    fn piecewise_phases_partition_windows_evenly() {
        let d = DriftSchedule::piecewise(&spec(), 2, 8);
        assert_eq!(d.n_windows(), 8);
        assert_eq!(d.kind(), DriftKind::Piecewise);
        // First four windows identical, last four identical, halves differ.
        for w in 1..4 {
            assert_eq!(
                d.model_at(w).transition(0, 0),
                d.model_at(0).transition(0, 0)
            );
            assert_eq!(
                d.model_at(4 + w).transition(0, 0),
                d.model_at(4).transition(0, 0)
            );
        }
        assert_ne!(
            d.model_at(0).transition(0, 0),
            d.model_at(4).transition(0, 0)
        );
    }

    #[test]
    fn piecewise_single_phase_is_stationary() {
        let d = DriftSchedule::piecewise(&spec(), 1, 5);
        for w in 1..5 {
            assert_eq!(
                d.model_at(w).transition(0, 0),
                d.model_at(0).transition(0, 0)
            );
        }
    }

    #[test]
    fn smooth_drift_starts_at_spec_and_moves_monotonically() {
        let d = DriftSchedule::smooth(&spec(), 6);
        let start = spec().build();
        assert_eq!(d.model_at(0).transition(0, 0), start.transition(0, 0));
        // Distance from the start structure grows with the window index.
        let dist = |w: usize| {
            d.model_at(w)
                .transition(0, 0)
                .iter()
                .zip(start.transition(0, 0))
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        };
        let mut last = 0.0;
        for w in 1..6 {
            let now = dist(w);
            assert!(now > last, "window {w}: distance {now} <= {last}");
            last = now;
        }
    }

    #[test]
    fn every_smooth_window_matches_the_dense_blend_to_the_bit() {
        use crate::routing::oracle::{assert_same_bits, Dense};
        let zero_floor = AffinityModelSpec {
            n_domains: 2,
            domain_share: 0.0,
            ..AffinityModelSpec::new(3, 40).with_affinity(1.0)
        };
        for spec in [spec(), zero_floor, AffinityModelSpec::new(2, 96)] {
            let n_windows = 5;
            let d = DriftSchedule::smooth(&spec, n_windows);
            let start = Dense::new(&spec);
            let target = Dense::new(&smooth_target(&spec));
            let weights = vec![1.0; spec.n_domains];
            for w in 0..n_windows {
                let alpha = w as f64 / (n_windows - 1) as f64;
                assert_same_bits(d.model_at(w), &start.interpolate(&target, alpha), &weights);
            }
        }
    }

    #[test]
    fn every_window_stays_row_stochastic() {
        for d in DriftSchedule::presets(&spec(), 6) {
            for w in 0..d.n_windows() {
                let t = d.model_at(w).transition(0, 0);
                for row in 0..8 {
                    let s: f64 = t[row * 8..(row + 1) * 8].iter().sum();
                    assert!((s - 1.0).abs() < 1e-9, "{} window {w}", d.name());
                }
            }
        }
    }

    #[test]
    fn presets_have_stable_distinct_names() {
        let names: Vec<String> = DriftSchedule::presets(&spec(), 4)
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["piecewise-2phase", "piecewise-4phase", "smooth"]
        );
    }

    #[test]
    fn schedules_are_deterministic() {
        let a = DriftSchedule::piecewise(&spec(), 4, 8);
        let b = DriftSchedule::piecewise(&spec(), 4, 8);
        for w in 0..8 {
            assert_eq!(
                a.model_at(w).transition(1, 2),
                b.model_at(w).transition(1, 2)
            );
        }
    }

    #[test]
    fn windows_of_one_phase_share_one_model() {
        let d = DriftSchedule::piecewise(&spec(), 3, 8);
        let phase = |w: usize| w * 3 / 8;
        for a in 0..8 {
            for b in 0..8 {
                let shared = Arc::ptr_eq(&d.windows[a], &d.windows[b]);
                assert_eq!(shared, phase(a) == phase(b), "windows {a} and {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one window per phase")]
    fn too_few_windows_rejected() {
        let _ = DriftSchedule::piecewise(&spec(), 4, 3);
    }
}
