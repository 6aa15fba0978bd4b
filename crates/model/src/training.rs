//! Training-dynamics simulator: how gating (and hence affinity) evolves as
//! an MoE model trains from scratch.
//!
//! The paper's §V-F documents three phases, which this module models
//! directly:
//!
//! 1. **Collapse (iteration ~0–500).** "Training starts with random model
//!    parameters, the first hundreds of iterations see a few experts getting
//!    most of tokens" (Fig. 11). Modeled as a small *active set* of experts
//!    that all tokens route through.
//! 2. **Rebalancing (~500–2000).** The GShard auxiliary loss pushes the
//!    routing towards load balance; the active set grows until every expert
//!    participates, and measured affinity *dips* because more experts share
//!    the traffic (Fig. 12a's oscillation).
//! 3. **Specialization (2000+).** "As the training proceeds, expert affinity
//!    steadily increases" (Fig. 12b). Modeled as the affinity concentration
//!    κ rising along a saturating curve as experts become domain-specific.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::routing::{AffinityModelSpec, RoutingModel};

/// Simulates the routing behaviour of an MoE model at any training
/// iteration.
#[derive(Debug, Clone)]
pub struct TrainingSimulator {
    base: AffinityModelSpec,
    /// Iteration by which every expert is active (end of rebalancing).
    pub balance_iters: u64,
    /// Time constant of the affinity saturation (specialization phase).
    pub affinity_tau: f64,
    /// κ floor during early training.
    pub kappa_floor: f64,
    /// κ ceiling late in training.
    pub kappa_ceil: f64,
    /// The (deterministic, seed-derived) order in which experts activate.
    activation_order: Vec<usize>,
}

impl TrainingSimulator {
    /// Build a simulator over the given routing-model spec. The spec's own
    /// `affinity` field is ignored — κ is derived from the iteration.
    pub fn new(base: AffinityModelSpec) -> Self {
        let mut order: Vec<usize> = (0..base.n_experts).collect();
        // Deterministic shuffle: which experts win the early collapse.
        let mut rng = StdRng::seed_from_u64(base.seed ^ 0xacc0_7d3a);
        for i in (1..order.len()).rev() {
            let j = rand::Rng::gen_range(&mut rng, 0..=i);
            order.swap(i, j);
        }
        TrainingSimulator {
            base,
            balance_iters: 1000,
            affinity_tau: 6000.0,
            kappa_floor: 0.35,
            kappa_ceil: 0.92,
            activation_order: order,
        }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &AffinityModelSpec {
        &self.base
    }

    /// Number of experts active at `iteration`: starts at ~5% of the expert
    /// count (at least 1) and grows linearly until every expert is active at
    /// `balance_iters`.
    pub fn active_count_at(&self, iteration: u64) -> usize {
        let e = self.base.n_experts;
        let frac = 0.05 + 0.95 * (iteration as f64 / self.balance_iters as f64).min(1.0);
        ((e as f64 * frac).round() as usize).clamp(1, e)
    }

    /// The active expert set at `iteration`, or `None` once all are active.
    pub fn active_set_at(&self, iteration: u64) -> Option<Vec<usize>> {
        let count = self.active_count_at(iteration);
        if count == self.base.n_experts {
            None
        } else {
            let mut set = self.activation_order[..count].to_vec();
            set.sort_unstable();
            Some(set)
        }
    }

    /// The affinity concentration κ at `iteration` (saturating growth).
    pub fn kappa_at(&self, iteration: u64) -> f64 {
        self.kappa_floor
            + (self.kappa_ceil - self.kappa_floor)
                * (1.0 - (-(iteration as f64) / self.affinity_tau).exp())
    }

    /// The routing model that describes the checkpoint at `iteration`.
    pub fn model_at(&self, iteration: u64) -> RoutingModel {
        let spec = self.base.clone().with_affinity(self.kappa_at(iteration));
        let mut model = spec.build();
        model.set_active_experts(self.active_set_at(iteration));
        model
    }

    /// Analytic per-expert token share at `iteration` (Fig. 11's Y axis):
    /// active experts split the traffic evenly; inactive experts get none.
    pub fn expert_share_at(&self, iteration: u64) -> Vec<f64> {
        let e = self.base.n_experts;
        let count = self.active_count_at(iteration);
        let mut shares = vec![0.0f64; e];
        for &idx in &self.activation_order[..count] {
            shares[idx] = 1.0 / count as f64;
        }
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(e: usize) -> TrainingSimulator {
        TrainingSimulator::new(AffinityModelSpec::new(8, e))
    }

    #[test]
    fn collapse_starts_with_few_experts() {
        let s = sim(32);
        assert!(s.active_count_at(0) <= 3);
        assert_eq!(s.active_count_at(10_000), 32);
    }

    #[test]
    fn active_count_is_monotone() {
        let s = sim(64);
        let mut last = 0;
        for it in (0..2000).step_by(50) {
            let c = s.active_count_at(it);
            assert!(c >= last, "active count decreased at iter {it}");
            last = c;
        }
    }

    #[test]
    fn active_set_none_after_balance() {
        let s = sim(16);
        assert!(s.active_set_at(0).is_some());
        assert!(s.active_set_at(s.balance_iters).is_none());
    }

    #[test]
    fn kappa_grows_and_saturates() {
        let s = sim(8);
        assert!(s.kappa_at(0) < s.kappa_at(2000));
        assert!(s.kappa_at(2000) < s.kappa_at(18_000));
        assert!(s.kappa_at(1_000_000) <= s.kappa_ceil + 1e-9);
        assert!((s.kappa_at(0) - s.kappa_floor).abs() < 1e-9);
    }

    #[test]
    fn shares_sum_to_one_and_concentrate_early() {
        let s = sim(32);
        let early = s.expert_share_at(0);
        let late = s.expert_share_at(5000);
        assert!((early.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((late.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let max_early = early.iter().copied().fold(0.0f64, f64::max);
        let max_late = late.iter().copied().fold(0.0f64, f64::max);
        assert!(max_early > max_late, "early shares should be skewed");
        assert!((max_late - 1.0 / 32.0).abs() < 1e-9, "late shares balanced");
    }

    #[test]
    fn model_at_respects_active_set() {
        let s = sim(16);
        let m = s.model_at(0);
        let active = s.active_set_at(0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let mut p = Vec::new();
            m.sample_route_into(&mut rng, 0, 1, &mut p);
            assert!(p.iter().all(|&e| active.contains(&(e as usize))));
        }
    }

    #[test]
    fn activation_order_is_deterministic() {
        let a = sim(16);
        let b = sim(16);
        assert_eq!(a.active_set_at(100), b.active_set_at(100));
    }
}
