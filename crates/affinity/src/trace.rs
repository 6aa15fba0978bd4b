//! Routing traces: the raw material affinity is estimated from.

use exflow_model::TokenBatch;

/// A set of top-1 expert paths, one per token, over the model's MoE layers.
///
/// This is what the paper collects by recording "tokens' expert routing
/// decisions at every layer" during a profiling pass (§V-A). Only the
/// primary expert matters for affinity/placement: with top-2 gating the
/// second expert's output is a weighted residual, but the token's *journey*
/// follows its primary chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTrace {
    /// Token-major: token `t`'s path is `paths[t * n_layers..][..n_layers]`.
    paths: Vec<u16>,
    n_experts: usize,
    n_layers: usize,
}

impl RoutingTrace {
    /// Build from raw paths. Every path must have the same length and every
    /// expert id must be `< n_experts`.
    pub fn new(paths: Vec<Vec<u16>>, n_experts: usize) -> Self {
        assert!(!paths.is_empty(), "a trace needs at least one token");
        let n_layers = paths[0].len();
        assert!(
            paths.iter().all(|p| p.len() == n_layers),
            "all paths must have equal length"
        );
        RoutingTrace::from_flat(paths.concat(), n_layers, n_experts)
    }

    /// Build from token-major paths laid end to end: `n_layers` expert ids
    /// per token. Every id must be `< n_experts`.
    pub fn from_flat(paths: Vec<u16>, n_layers: usize, n_experts: usize) -> Self {
        assert!(n_layers >= 1, "paths must cover at least one layer");
        assert!(!paths.is_empty(), "a trace needs at least one token");
        assert!(
            paths.len().is_multiple_of(n_layers),
            "all paths must have equal length"
        );
        assert!(
            paths.iter().all(|&e| (e as usize) < n_experts),
            "expert id out of range"
        );
        RoutingTrace {
            paths,
            n_experts,
            n_layers,
        }
    }

    /// Build from a sampled [`TokenBatch`], keeping the primary expert.
    pub fn from_batch(batch: &TokenBatch, n_experts: usize) -> Self {
        RoutingTrace::from_flat(batch.primaries().collect(), batch.n_layers(), n_experts)
    }

    /// Number of tokens.
    pub fn n_tokens(&self) -> usize {
        self.paths.len() / self.n_layers
    }

    /// Number of MoE layers.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.n_experts
    }

    /// Expert chosen by `token` at `layer`.
    #[inline]
    pub fn expert_at(&self, token: usize, layer: usize) -> usize {
        debug_assert!(layer < self.n_layers, "layer out of range");
        self.paths[token * self.n_layers + layer] as usize
    }

    /// Per-expert token counts at one layer (load-balance measurement,
    /// Fig. 11's Y axis).
    pub fn layer_histogram(&self, layer: usize) -> Vec<u64> {
        assert!(layer < self.n_layers);
        let mut h = vec![0u64; self.n_experts];
        for p in self.paths.chunks_exact(self.n_layers) {
            h[p[layer] as usize] += 1;
        }
        h
    }

    /// Joint `(from_expert, to_expert)` observation counts between two
    /// layers, sorted row-major (ascending source, then successor). This
    /// is the sparse raw material [`crate::StreamingAffinity`] folds in:
    /// each token's pair is packed into one `u32` key, the keys are sorted
    /// and equal runs counted, so at most `n_tokens` distinct pairs come
    /// out and large-`E` ingestion never touches an `E x E` table.
    pub fn pair_counts(&self, from_layer: usize, to_layer: usize) -> Vec<((u16, u16), u64)> {
        assert!(
            from_layer < to_layer && to_layer < self.n_layers,
            "need from_layer < to_layer < n_layers"
        );
        let mut keys: Vec<u32> = self
            .paths
            .chunks_exact(self.n_layers)
            .map(|p| u32::from(p[from_layer]) << 16 | u32::from(p[to_layer]))
            .collect();
        keys.sort_unstable();
        keys.chunk_by(|a, b| a == b)
            .map(|run| {
                let key = run[0];
                (((key >> 16) as u16, key as u16), run.len() as u64)
            })
            .collect()
    }

    /// A trace containing only the first `n` tokens (sampling studies).
    pub fn truncated(&self, n: usize) -> RoutingTrace {
        assert!(n >= 1 && n <= self.n_tokens());
        RoutingTrace {
            paths: self.paths[..n * self.n_layers].to_vec(),
            n_experts: self.n_experts,
            n_layers: self.n_layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::routing::AffinityModelSpec;
    use exflow_model::CorpusSpec;

    fn small_trace() -> RoutingTrace {
        RoutingTrace::new(
            vec![vec![0, 1, 2], vec![1, 1, 0], vec![0, 1, 2], vec![3, 2, 2]],
            4,
        )
    }

    #[test]
    fn dimensions_reported() {
        let t = small_trace();
        assert_eq!(t.n_tokens(), 4);
        assert_eq!(t.n_layers(), 3);
        assert_eq!(t.n_experts(), 4);
    }

    #[test]
    fn histogram_counts_layer_experts() {
        let t = small_trace();
        assert_eq!(t.layer_histogram(0), vec![2, 1, 0, 1]);
        assert_eq!(t.layer_histogram(1), vec![0, 3, 1, 0]);
        assert_eq!(t.layer_histogram(2), vec![1, 0, 3, 0]);
    }

    #[test]
    fn histogram_sums_to_token_count() {
        let t = small_trace();
        for l in 0..3 {
            assert_eq!(t.layer_histogram(l).iter().sum::<u64>(), 4);
        }
    }

    #[test]
    fn truncated_keeps_prefix() {
        let t = small_trace().truncated(2);
        assert_eq!(t.n_tokens(), 2);
        assert_eq!(t.expert_at(1, 0), 1);
    }

    #[test]
    fn from_batch_extracts_primary_paths() {
        let m = AffinityModelSpec::new(5, 8).build();
        let b = TokenBatch::sample(&m, &CorpusSpec::pile_proxy(4), 20, 2, 1);
        let t = RoutingTrace::from_batch(&b, 8);
        assert_eq!(t.n_tokens(), 20);
        assert_eq!(t.n_layers(), 5);
        for tok in 0..20 {
            for l in 0..5 {
                assert_eq!(t.expert_at(tok, l), b.route(tok, l)[0] as usize);
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_paths_rejected() {
        let _ = RoutingTrace::new(vec![vec![0, 1], vec![0]], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_expert_rejected() {
        let _ = RoutingTrace::new(vec![vec![0, 5]], 4);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_trace_rejected() {
        let _ = RoutingTrace::new(vec![], 4);
    }
}
