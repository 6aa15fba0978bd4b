//! Sample-efficiency of affinity estimation: how many traced tokens are
//! needed before the estimated conditional probabilities stabilize. The
//! `affinity_study` example prints the curve; the paper's Fig. 13 (§V-G)
//! is reproduced end to end instead, by the Alltoall time of placements
//! solved from truncated traces.

use crate::matrix::AffinityMatrix;
use crate::metrics;
use crate::trace::RoutingTrace;

/// One point of the sample-efficiency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityPoint {
    /// Number of tokens used for estimation.
    pub n_tokens: usize,
    /// Mean absolute error of the estimated consecutive-layer conditionals
    /// against the full-trace reference.
    pub estimation_error: f64,
    /// Transfer score of the truncated estimate against the full-trace
    /// reference (1.0 = the top-k successor sets already match).
    pub transfer: f64,
}

/// Compute the estimation-stability curve for a list of sample sizes.
///
/// For each `n` in `sizes`, estimates all consecutive-layer affinity
/// matrices from the first `n` tokens and compares them to the matrices
/// estimated from the *whole* trace. `k` is the successor-set size used for
/// the transfer score (typically the per-GPU expert capacity).
pub fn stability_curve(trace: &RoutingTrace, sizes: &[usize], k: usize) -> Vec<StabilityPoint> {
    let reference = AffinityMatrix::consecutive(trace);
    sizes
        .iter()
        .map(|&n| {
            let n = n.min(trace.n_tokens()).max(1);
            let truncated = trace.truncated(n);
            let est = AffinityMatrix::consecutive(&truncated);
            let gaps = reference.len().max(1);
            let mut err = 0.0f64;
            let mut transfer = 0.0f64;
            for (a, b) in est.iter().zip(reference.iter()) {
                err += metrics::mean_abs_diff(a, b);
                transfer += metrics::transfer_score(a, b, k);
            }
            StabilityPoint {
                n_tokens: n,
                estimation_error: err / gaps as f64,
                transfer: transfer / gaps as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::routing::AffinityModelSpec;
    use exflow_model::{CorpusSpec, TokenBatch};

    fn big_trace(e: usize, n: usize) -> RoutingTrace {
        let model = AffinityModelSpec::new(6, e).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), n, 1, 99);
        RoutingTrace::from_batch(&batch, e)
    }

    #[test]
    fn error_shrinks_with_more_tokens() {
        let t = big_trace(8, 8000);
        let curve = stability_curve(&t, &[50, 500, 4000], 2);
        assert_eq!(curve.len(), 3);
        assert!(
            curve[0].estimation_error > curve[2].estimation_error,
            "error should fall: {:?}",
            curve
        );
    }

    #[test]
    fn transfer_rises_with_more_tokens() {
        let t = big_trace(16, 8000);
        let curve = stability_curve(&t, &[50, 4000], 4);
        assert!(curve[1].transfer >= curve[0].transfer - 0.02);
        assert!(curve[1].transfer > 0.95, "near-full sample must transfer");
    }

    #[test]
    fn full_sample_has_zero_error() {
        let t = big_trace(8, 1000);
        let curve = stability_curve(&t, &[1000], 2);
        assert!(curve[0].estimation_error < 1e-12);
        assert!((curve[0].transfer - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sizes_are_clamped_to_trace() {
        let t = big_trace(8, 100);
        let curve = stability_curve(&t, &[0, 10_000], 2);
        assert_eq!(curve[0].n_tokens, 1);
        assert_eq!(curve[1].n_tokens, 100);
    }

    #[test]
    fn more_experts_need_more_tokens() {
        // The paper: "Models with more experts per layer require more
        // tokens to precisely capture the expert affinity."
        let small = big_trace(8, 4000);
        let large = big_trace(64, 4000);
        let err_small = stability_curve(&small, &[200], 2)[0].estimation_error;
        let err_large = stability_curve(&large, &[200], 2)[0].estimation_error;
        // Normalize by the uniform baseline magnitude (1/E per cell).
        assert!(err_large * 64.0 > err_small * 8.0);
    }
}
