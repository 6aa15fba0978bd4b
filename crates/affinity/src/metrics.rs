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

/// Shannon entropy (nats) of one source expert's conditional row.
pub fn row_entropy(m: &AffinityMatrix, i: usize) -> f64 {
    m.row(i)
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// Mean row entropy, normalized by `ln(E)` into `[0, 1]`
/// (`1` = independent routing, `0` = deterministic next hop).
pub fn normalized_entropy(m: &AffinityMatrix) -> f64 {
    let e = m.n_experts();
    if e == 1 {
        return 0.0;
    }
    let mean: f64 = (0..e).map(|i| row_entropy(m, i)).sum::<f64>() / e as f64;
    mean / (e as f64).ln()
}

/// How much of corpus-B's conditional mass is captured by the top-`k`
/// successor sets chosen from corpus-A's matrix, relative to B's own
/// optimal top-`k` sets (a row-normalized transfer score — `1.0` means the
/// affinity structure transfers perfectly). [`crate::sampling`] scores a
/// truncated estimate against the full one with it.
pub fn transfer_score(a: &AffinityMatrix, b: &AffinityMatrix, k: usize) -> f64 {
    assert_eq!(a.n_experts(), b.n_experts(), "matrices must match in size");
    let e = a.n_experts();
    let mut captured = 0.0f64;
    let mut optimal = 0.0f64;
    for i in 0..e {
        // Top-k successor set according to A.
        let mut idx: Vec<usize> = (0..e).collect();
        idx.sort_by(|&x, &y| a.prob(i, y).total_cmp(&a.prob(i, x)));
        captured += idx.iter().take(k).map(|&p| b.prob(i, p)).sum::<f64>();
        optimal += b.topk_mass(i, k);
    }
    if optimal == 0.0 {
        1.0
    } else {
        captured / optimal
    }
}

/// Mean absolute difference between two conditional matrices (the
/// estimation error of [`crate::sampling`]'s stability curve).
pub fn mean_abs_diff(a: &AffinityMatrix, b: &AffinityMatrix) -> f64 {
    assert_eq!(a.n_experts(), b.n_experts());
    let e = a.n_experts();
    let mut acc = 0.0f64;
    for i in 0..e {
        for p in 0..e {
            acc += (a.prob(i, p) - b.prob(i, p)).abs();
        }
    }
    acc / (e * e) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(e: usize) -> AffinityMatrix {
        AffinityMatrix::from_probs(vec![1.0 / e as f64; e * e], e, 0, 1)
    }

    fn identity(e: usize) -> AffinityMatrix {
        let mut p = vec![0.0f64; e * e];
        for i in 0..e {
            p[i * e + i] = 1.0;
        }
        AffinityMatrix::from_probs(p, e, 0, 1)
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

    #[test]
    fn entropy_extremes() {
        assert!((normalized_entropy(&uniform(16)) - 1.0).abs() < 1e-9);
        assert!(normalized_entropy(&identity(16)) < 1e-9);
    }

    #[test]
    fn transfer_score_is_one_for_same_matrix() {
        let m = identity(6);
        assert!((transfer_score(&m, &m, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_score_penalizes_mismatched_structure() {
        // A prefers the diagonal; B prefers a shifted diagonal.
        let e = 6;
        let a = identity(e);
        let mut p = vec![0.0f64; e * e];
        for i in 0..e {
            p[i * e + (i + 1) % e] = 1.0;
        }
        let b = AffinityMatrix::from_probs(p, e, 0, 1);
        assert!(transfer_score(&a, &b, 1) < 0.01);
    }

    #[test]
    fn transfer_is_high_within_uniform() {
        // Against a structureless B, any choice captures the same mass.
        let a = identity(8);
        let b = uniform(8);
        assert!((transfer_score(&a, &b, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_abs_diff_zero_iff_equal() {
        let m = identity(5);
        assert_eq!(mean_abs_diff(&m, &m), 0.0);
        assert!(mean_abs_diff(&m, &uniform(5)) > 0.0);
    }

    #[test]
    fn mean_abs_diff_symmetric() {
        let a = identity(5);
        let b = uniform(5);
        assert!((mean_abs_diff(&a, &b) - mean_abs_diff(&b, &a)).abs() < 1e-15);
    }
}
