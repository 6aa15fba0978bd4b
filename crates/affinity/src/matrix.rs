//! Conditional-probability (affinity) matrices between MoE layers.

use crate::trace::RoutingTrace;

/// The estimated conditional probability `P(expert p at layer j+gap |
/// expert i at layer j)` — the paper's Eq. 1, generalized to arbitrary layer
/// gaps for the appendix heatmaps (Figs. 14–16).
///
/// Rows index the earlier layer's expert, columns the later layer's.
/// Rows with no observations estimate uniform (maximum entropy — the
/// placement solver then treats them as affinity-free).
#[derive(Debug, Clone, PartialEq)]
pub struct AffinityMatrix {
    n_experts: usize,
    /// Which earlier layer this matrix conditions on.
    from_layer: usize,
    /// Which later layer it predicts.
    to_layer: usize,
    /// Row-major `E x E` conditional probabilities.
    probs: Vec<f64>,
    /// Row-major joint counts (diagnostics and merging).
    counts: Vec<u64>,
}

impl AffinityMatrix {
    /// Estimate the affinity between `from_layer` and `to_layer` from a
    /// trace (`to_layer > from_layer`).
    pub fn from_trace(trace: &RoutingTrace, from_layer: usize, to_layer: usize) -> Self {
        assert!(
            from_layer < to_layer && to_layer < trace.n_layers(),
            "need from_layer < to_layer < n_layers"
        );
        let e = trace.n_experts();
        let mut counts = vec![0u64; e * e];
        for tok in 0..trace.n_tokens() {
            let i = trace.expert_at(tok, from_layer);
            let p = trace.expert_at(tok, to_layer);
            counts[i * e + p] += 1;
        }
        Self::from_counts(counts, e, from_layer, to_layer)
    }

    /// Estimate affinity for every consecutive layer pair of a trace: the
    /// dense reference the streaming estimator's snapshot is tested
    /// against.
    pub fn consecutive(trace: &RoutingTrace) -> Vec<AffinityMatrix> {
        (0..trace.n_layers().saturating_sub(1))
            .map(|j| AffinityMatrix::from_trace(trace, j, j + 1))
            .collect()
    }

    /// Build from raw joint counts.
    pub fn from_counts(
        counts: Vec<u64>,
        n_experts: usize,
        from_layer: usize,
        to_layer: usize,
    ) -> Self {
        assert_eq!(counts.len(), n_experts * n_experts);
        let e = n_experts;
        let mut probs = vec![0.0f64; e * e];
        for i in 0..e {
            let row_total: u64 = counts[i * e..(i + 1) * e].iter().sum();
            if row_total == 0 {
                // Unobserved source expert: maximum-entropy estimate.
                for p in probs[i * e..(i + 1) * e].iter_mut() {
                    *p = 1.0 / e as f64;
                }
            } else {
                for (p, &c) in probs[i * e..(i + 1) * e]
                    .iter_mut()
                    .zip(&counts[i * e..(i + 1) * e])
                {
                    *p = c as f64 / row_total as f64;
                }
            }
        }
        AffinityMatrix {
            n_experts,
            from_layer,
            to_layer,
            probs,
            counts,
        }
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.n_experts
    }

    /// The earlier layer.
    pub fn from_layer(&self) -> usize {
        self.from_layer
    }

    /// The later layer.
    pub fn to_layer(&self) -> usize {
        self.to_layer
    }

    /// `P(to = p | from = i)`.
    #[inline]
    pub fn prob(&self, i: usize, p: usize) -> f64 {
        self.probs[i * self.n_experts + p]
    }

    /// One conditional row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.probs[i * self.n_experts..(i + 1) * self.n_experts]
    }

    /// Joint observation count for `(i, p)`.
    pub fn count(&self, i: usize, p: usize) -> u64 {
        self.counts[i * self.n_experts + p]
    }

    /// Observations whose source expert was `i` (the empirical marginal
    /// numerator at the earlier layer).
    pub fn row_count(&self, i: usize) -> u64 {
        self.counts[i * self.n_experts..(i + 1) * self.n_experts]
            .iter()
            .sum()
    }

    /// Total observations folded into this matrix.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The most affiliated successor of expert `i` (the paper's `A*`,
    /// Eq. 2) and its conditional probability.
    pub fn most_affine(&self, i: usize) -> (usize, f64) {
        let row = self.row(i);
        let mut best = 0usize;
        let mut best_p = row[0];
        for (p, &v) in row.iter().enumerate().skip(1) {
            if v > best_p {
                best = p;
                best_p = v;
            }
        }
        (best, best_p)
    }

    /// Probability mass of the top `k` successors of expert `i`.
    pub fn topk_mass(&self, i: usize, k: usize) -> f64 {
        let mut row = self.row(i).to_vec();
        row.sort_by(|a, b| b.total_cmp(a));
        row.iter().take(k).sum()
    }

    /// Render the matrix as an ASCII heatmap (one line per source expert),
    /// for the Fig. 2 / Figs. 14–16 reproductions.
    pub fn ascii_heatmap(&self) -> String {
        const SHADES: [char; 6] = [' ', '.', ':', '+', '#', '@'];
        let mut out = String::new();
        for i in 0..self.n_experts {
            for p in 0..self.n_experts {
                let v = self.prob(i, p);
                // Bucket by conditional probability relative to uniform.
                let rel = v * self.n_experts as f64;
                let idx = if rel < 0.5 {
                    0
                } else if rel < 1.5 {
                    1
                } else if rel < 3.0 {
                    2
                } else if rel < 6.0 {
                    3
                } else if rel < 12.0 {
                    4
                } else {
                    5
                };
                out.push(SHADES[idx]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::routing::AffinityModelSpec;
    use exflow_model::{CorpusSpec, TokenBatch};

    fn trace() -> RoutingTrace {
        // 4 tokens, 3 layers, 3 experts.
        RoutingTrace::new(
            vec![vec![0, 1, 2], vec![0, 1, 0], vec![1, 2, 2], vec![1, 2, 1]],
            3,
        )
    }

    #[test]
    fn rows_sum_to_one() {
        let m = AffinityMatrix::from_trace(&trace(), 0, 1);
        for i in 0..3 {
            let s: f64 = m.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conditional_values_match_hand_count() {
        let m = AffinityMatrix::from_trace(&trace(), 0, 1);
        // From expert 0 at layer 0: both tokens go to expert 1.
        assert_eq!(m.prob(0, 1), 1.0);
        // From expert 1: both go to expert 2.
        assert_eq!(m.prob(1, 2), 1.0);
        // Expert 2 never observed at layer 0: uniform row.
        assert!((m.prob(2, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gap_matrices_supported() {
        let m = AffinityMatrix::from_trace(&trace(), 0, 2);
        assert_eq!(m.from_layer(), 0);
        assert_eq!(m.to_layer(), 2);
        // From expert 0 at layer 0 to layer 2: tokens land on 2 and 0.
        assert_eq!(m.prob(0, 2), 0.5);
        assert_eq!(m.prob(0, 0), 0.5);
    }

    #[test]
    fn consecutive_builds_layer_minus_one_matrices() {
        let ms = AffinityMatrix::consecutive(&trace());
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].from_layer(), 0);
        assert_eq!(ms[1].to_layer(), 2);
    }

    #[test]
    fn most_affine_finds_argmax() {
        let m = AffinityMatrix::from_trace(&trace(), 0, 1);
        assert_eq!(m.most_affine(0), (1, 1.0));
    }

    #[test]
    fn estimated_matrix_converges_to_true_transition() {
        let model = AffinityModelSpec::new(2, 8).with_affinity(0.8).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 40_000, 1, 5);
        let trace = RoutingTrace::from_batch(&batch, 8);
        let est = AffinityMatrix::from_trace(&trace, 0, 1);
        // The corpus is an even domain mixture; compare against it.
        let truth = model.mixture_transition(&[1.0, 1.0, 1.0, 1.0], 0);
        for i in 0..8 {
            for p in 0..8 {
                assert!(
                    (est.prob(i, p) - truth[i * 8 + p]).abs() < 0.03,
                    "P({p}|{i}) est {} vs true {}",
                    est.prob(i, p),
                    truth[i * 8 + p]
                );
            }
        }
    }

    #[test]
    fn topk_mass_is_monotone_in_k() {
        let m = AffinityMatrix::from_trace(&trace(), 0, 1);
        for i in 0..3 {
            assert!(m.topk_mass(i, 1) <= m.topk_mass(i, 2) + 1e-12);
            assert!((m.topk_mass(i, 3) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ascii_heatmap_dimensions() {
        let m = AffinityMatrix::from_trace(&trace(), 0, 1);
        let art = m.ascii_heatmap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.chars().count() == 3));
    }

    #[test]
    #[should_panic(expected = "from_layer < to_layer")]
    fn backwards_layers_rejected() {
        let _ = AffinityMatrix::from_trace(&trace(), 1, 1);
    }
}
