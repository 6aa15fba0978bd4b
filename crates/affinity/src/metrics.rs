//! Summary metrics over affinity matrices.

use crate::matrix::AffinityMatrix;

/// Mean over source experts of the single strongest conditional
/// probability — how deterministic the next hop is.
pub fn mean_top1_mass(m: &AffinityMatrix) -> f64 {
    let e = m.n_experts();
    (0..e).map(|i| m.most_affine(i).1).sum::<f64>() / e as f64
}

/// Mean over source experts of the top-`k` conditional mass — the fraction
/// of tokens that stay within the `k` most affiliated successors. With `k`
/// equal to the per-GPU expert capacity, this upper-bounds the fraction of
/// tokens a perfect placement can keep GPU-local.
pub fn mean_topk_mass(m: &AffinityMatrix, k: usize) -> f64 {
    let e = m.n_experts();
    (0..e).map(|i| m.topk_mass(i, k)).sum::<f64>() / e as f64
}

/// Affinity score normalized against a structureless (uniform) matrix:
/// `0` means routing between the two layers is independent, `1` means the
/// top-`k` successors capture everything.
pub fn affinity_score(m: &AffinityMatrix, k: usize) -> f64 {
    let e = m.n_experts();
    if e <= k {
        return 1.0;
    }
    let uniform = k as f64 / e as f64;
    let measured = mean_topk_mass(m, k);
    ((measured - uniform) / (1.0 - uniform)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(e: usize) -> AffinityMatrix {
        AffinityMatrix::from_counts(vec![1; e * e], e, 0, 1)
    }

    fn identity(e: usize) -> AffinityMatrix {
        let mut counts = vec![0; e * e];
        for i in 0..e {
            counts[i * e + i] = 1;
        }
        AffinityMatrix::from_counts(counts, e, 0, 1)
    }

    #[test]
    fn top1_mass_bounds() {
        assert!((mean_top1_mass(&uniform(8)) - 0.125).abs() < 1e-12);
        assert!((mean_top1_mass(&identity(8)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn affinity_score_zero_for_uniform_one_for_identity() {
        assert!(affinity_score(&uniform(8), 2) < 1e-9);
        assert!((affinity_score(&identity(8), 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn affinity_score_saturates_when_k_covers_all() {
        assert_eq!(affinity_score(&uniform(4), 4), 1.0);
    }
}
