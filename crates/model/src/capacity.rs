//! Expert capacity and token overflow — the GShard-style capacity factor.
//!
//! Training systems bound each expert's per-batch load with a *capacity
//! factor* `CF`: an expert accepts at most `CF · N / E` tokens; overflow is
//! dropped (its layer output becomes the residual only). The paper's
//! inference setting uses "variable token capacity" (no dropping), but the
//! mechanism matters for two reasons this crate covers:
//!
//! * it is the reason GShard-trained models are load-balanced — the
//!   property the affinity placement's balance constraint assumes;
//! * a deployment that *does* cap capacity changes the traffic the
//!   Alltoall carries; `examples/deployment_workflow.rs` reports that
//!   overflow as a drop rate.

/// Capacity policy for one MoE layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityPolicy {
    /// The paper's inference setting: every routed token is served.
    Variable,
    /// GShard: each expert serves at most `ceil(factor * n_tokens / E)`
    /// tokens per batch; the rest overflow.
    Fixed {
        /// The capacity factor (1.0 = exactly even shares).
        factor: f64,
    },
}

impl CapacityPolicy {
    /// Per-expert token cap for a batch of `n_tokens` over `n_experts`.
    /// `None` means unbounded.
    pub fn cap(&self, n_tokens: usize, n_experts: usize) -> Option<usize> {
        match *self {
            CapacityPolicy::Variable => None,
            CapacityPolicy::Fixed { factor } => {
                assert!(factor > 0.0, "capacity factor must be positive");
                Some((factor * n_tokens as f64 / n_experts as f64).ceil() as usize)
            }
        }
    }
}

/// Result of applying a capacity policy to a routed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityOutcome {
    /// For each token, whether it was admitted to its expert.
    pub admitted: Vec<bool>,
    /// Tokens dropped per expert.
    pub dropped_per_expert: Vec<u64>,
}

impl CapacityOutcome {
    /// Number of dropped tokens.
    pub fn dropped(&self) -> u64 {
        self.dropped_per_expert.iter().sum()
    }

    /// Fraction of tokens dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.admitted.is_empty() {
            0.0
        } else {
            self.dropped() as f64 / self.admitted.len() as f64
        }
    }
}

/// Apply `policy` to a batch: `expert_of[t]` is token `t`'s routed expert.
/// Tokens are admitted in batch order (the deterministic tie-break GShard
/// uses within a device).
pub fn apply_capacity(
    expert_of: &[u16],
    n_experts: usize,
    policy: CapacityPolicy,
) -> CapacityOutcome {
    let cap = policy.cap(expert_of.len(), n_experts);
    let mut load = vec![0usize; n_experts];
    let mut dropped_per_expert = vec![0u64; n_experts];
    let admitted = expert_of
        .iter()
        .map(|&e| {
            let e = e as usize;
            assert!(e < n_experts, "expert id out of range");
            match cap {
                Some(c) if load[e] >= c => {
                    dropped_per_expert[e] += 1;
                    false
                }
                _ => {
                    load[e] += 1;
                    true
                }
            }
        })
        .collect();
    CapacityOutcome {
        admitted,
        dropped_per_expert,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::AffinityModelSpec;
    use crate::{CorpusSpec, TokenBatch};

    #[test]
    fn variable_capacity_admits_everything() {
        let experts = vec![0u16, 0, 0, 0, 1];
        let out = apply_capacity(&experts, 2, CapacityPolicy::Variable);
        assert!(out.admitted.iter().all(|&a| a));
        assert_eq!(out.dropped(), 0);
    }

    #[test]
    fn fixed_capacity_drops_overflow_in_order() {
        // 6 tokens, 2 experts, CF=1.0 -> cap = 3 per expert.
        let experts = vec![0u16, 0, 0, 0, 1, 1];
        let out = apply_capacity(&experts, 2, CapacityPolicy::Fixed { factor: 1.0 });
        assert_eq!(out.admitted, vec![true, true, true, false, true, true]);
        assert_eq!(out.dropped_per_expert, vec![1, 0]);
        assert!((out.drop_rate() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn larger_factor_drops_less() {
        let spec = AffinityModelSpec::new(2, 8);
        let model = spec.build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(spec.n_domains), 2000, 1, 3);
        let experts: Vec<u16> = (0..batch.len()).map(|t| batch.route(t, 0)[0]).collect();
        let tight = apply_capacity(&experts, 8, CapacityPolicy::Fixed { factor: 1.0 });
        let loose = apply_capacity(&experts, 8, CapacityPolicy::Fixed { factor: 1.5 });
        assert!(loose.dropped() <= tight.dropped());
    }

    #[test]
    fn balanced_routing_needs_little_headroom() {
        // Our doubly-stochastic routing is load balanced, so CF=1.25
        // already drops almost nothing — the connection between GShard
        // training and the placement's balance assumption.
        let spec = AffinityModelSpec::new(2, 16);
        let model = spec.build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(spec.n_domains), 4000, 1, 9);
        let experts: Vec<u16> = (0..batch.len()).map(|t| batch.route(t, 0)[0]).collect();
        let out = apply_capacity(&experts, 16, CapacityPolicy::Fixed { factor: 1.25 });
        assert!(
            out.drop_rate() < 0.01,
            "balanced routing dropped {:.3}",
            out.drop_rate()
        );
    }

    #[test]
    fn cap_formula() {
        let p = CapacityPolicy::Fixed { factor: 1.0 };
        assert_eq!(p.cap(100, 8), Some(13)); // ceil(12.5)
        assert_eq!(CapacityPolicy::Variable.cap(100, 8), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_expert_id_rejected() {
        let _ = apply_capacity(&[5], 4, CapacityPolicy::Variable);
    }
}
