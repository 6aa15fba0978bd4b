//! A single expert: the feed-forward network tokens are routed to.

use rand::Rng;

use crate::tensor::{gelu_inplace, Matrix};

/// One expert FFN: `y = W2 · gelu(W1 · x)`.
///
/// The paper's observation that experts "are essentially FFNs that only
/// perform a non-linear transformation on tokens" and need no context is
/// what makes context-coherent parallelism possible: this struct is
/// deliberately context-free — `forward` depends only on the input rows.
#[derive(Debug, Clone)]
pub struct Expert {
    w1: Matrix,
    w2: Matrix,
}

impl Expert {
    /// Random expert of shape `dim -> hidden -> dim`.
    pub fn random<R: Rng>(dim: usize, hidden: usize, rng: &mut R) -> Self {
        Expert {
            w1: Matrix::random(dim, hidden, rng),
            w2: Matrix::random(hidden, dim, rng),
        }
    }

    /// Input/output dimension.
    pub fn dim(&self) -> usize {
        self.w1.rows()
    }

    /// Hidden (inner FFN) dimension.
    pub fn hidden(&self) -> usize {
        self.w1.cols()
    }

    /// Apply the FFN to one token in place: `row = W2 · gelu(W1 · row)`.
    /// `hidden` is caller-owned scratch of [`Expert::hidden`] floats,
    /// overwritten before it is read. This is the only kernel: the engine
    /// calls it per token, [`Expert::forward`] per row.
    ///
    /// One body, two instantiations: on an x86-64 CPU that reports AVX2 it
    /// runs the body compiled for 256-bit vectors, elsewhere the portable
    /// build. Both make every output element of the same IEEE `+ × ÷`
    /// sequence in the same order (no FMA is enabled, and Rust never fuses
    /// `a * b + c`), so the two agree to the bit.
    pub fn forward_row(&self, row: &mut [f32], hidden: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reported AVX2, the one feature
            // `forward_row_avx2` is compiled for.
            #[expect(unsafe_code, reason = "the call of the AVX2 kernel")]
            unsafe {
                self.forward_row_avx2(row, hidden)
            };
            return;
        }
        self.forward_row_body(row, hidden);
    }

    /// [`Expert::forward_row`]'s body, inlined into each instantiation.
    #[inline(always)]
    fn forward_row_body(&self, row: &mut [f32], hidden: &mut [f32]) {
        self.w1.vecmat(row, hidden);
        gelu_inplace(hidden);
        self.w2.vecmat(hidden, row);
    }

    /// The body compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn forward_row_avx2(&self, row: &mut [f32], hidden: &mut [f32]) {
        self.forward_row_body(row, hidden);
    }

    /// Apply the FFN to a batch of tokens (rows of `x`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.dim(),
            "token dim {} does not match expert dim {}",
            x.cols(),
            self.dim()
        );
        let mut y = x.as_slice().to_vec();
        let mut hidden = vec![0.0; self.hidden()];
        for row in y.chunks_exact_mut(self.dim()) {
            self.forward_row(row, &mut hidden);
        }
        Matrix::from_vec(x.rows(), x.cols(), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Expert::random(8, 32, &mut rng);
        let x = Matrix::random(5, 8, &mut rng);
        let y = e.forward(&x);
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), 8);
    }

    #[test]
    fn forward_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        let e = Expert::random(4, 16, &mut rng);
        let x = Matrix::random(3, 4, &mut rng);
        assert_eq!(e.forward(&x), e.forward(&x));
    }

    #[test]
    fn distinct_experts_transform_differently() {
        let mut rng = StdRng::seed_from_u64(3);
        let e1 = Expert::random(4, 16, &mut rng);
        let e2 = Expert::random(4, 16, &mut rng);
        let x = Matrix::random(3, 4, &mut rng);
        assert_ne!(e1.forward(&x), e2.forward(&x));
    }

    #[test]
    fn forward_is_batch_consistent() {
        // Processing rows together or separately gives the same result —
        // the property that lets the engine batch tokens per expert.
        let mut rng = StdRng::seed_from_u64(4);
        let e = Expert::random(4, 8, &mut rng);
        let x = Matrix::random(2, 4, &mut rng);
        let batched = e.forward(&x);
        for r in 0..2 {
            let single = e.forward(&Matrix::from_vec(1, 4, x.row(r).to_vec()));
            for c in 0..4 {
                assert!((batched.get(r, c) - single.get(0, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match expert dim")]
    fn forward_rejects_bad_dim() {
        let mut rng = StdRng::seed_from_u64(5);
        let e = Expert::random(4, 8, &mut rng);
        let x = Matrix::zeros(1, 5);
        let _ = e.forward(&x);
    }
}
