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

    /// Apply the FFN to a block of tokens in place: each row of
    /// [`Expert::dim`] floats in `rows` becomes `W2 · gelu(W1 · row)`.
    /// `hidden` is caller-owned scratch, resized to what a block needs and
    /// overwritten before it is read. This is the only kernel:
    /// [`Expert::forward`] (the benchmark's probe) calls it once per batch.
    ///
    /// One body, three builds: on an x86-64 CPU that reports AVX-512F it
    /// runs the body compiled for 512-bit vectors, else on one that
    /// reports AVX2 the 256-bit build, elsewhere the portable one. The
    /// AVX-512 build puts blocks of `BLOCK` rows through each weight
    /// matrix at once, then the leftover rows one at a time; the other two
    /// take one row at a time. All make every output element of the same
    /// IEEE `+ × ÷` sequence in the same order (no FMA instruction is
    /// emitted: Rust never fuses `a * b + c`), so they agree to the bit,
    /// whatever the block a row lands in.
    pub fn forward_rows(&self, rows: &mut [f32], hidden: &mut Vec<f32>) {
        self.forward_rows_on(Build::detect(), rows, hidden);
    }

    /// [`Expert::forward_rows`] on `build`, which must run on this CPU.
    fn forward_rows_on(&self, build: Build, rows: &mut [f32], hidden: &mut Vec<f32>) {
        assert_eq!(
            rows.len() % self.dim(),
            0,
            "{} floats are not whole rows of dim {}",
            rows.len(),
            self.dim()
        );
        hidden.resize(BLOCK * self.hidden(), 0.0);
        match build {
            Build::Portable => self.forward_rows_body::<1, 1>(rows, hidden),
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 | Build::Avx512 => {
                assert!(build.runs_here(), "{build:?} does not run on this CPU");
                // SAFETY: the CPU reported the feature the called build is
                // compiled for, in the assertion just above.
                #[expect(unsafe_code, reason = "the call of the AVX2 and AVX-512 kernels")]
                unsafe {
                    if build == Build::Avx512 {
                        self.forward_rows_avx512(rows, hidden)
                    } else {
                        self.forward_rows_avx2(rows, hidden)
                    }
                };
            }
        }
    }

    /// [`Expert::forward_rows`]' body, inlined into each build: blocks of
    /// `R` rows in panels of `P` tiles ([`Matrix::vecmat_rows`]), then the
    /// leftover rows one at a time.
    #[inline(always)]
    fn forward_rows_body<const R: usize, const P: usize>(
        &self,
        rows: &mut [f32],
        hidden: &mut [f32],
    ) {
        let (dim, h) = (self.dim(), self.hidden());
        let mut blocks = rows.chunks_exact_mut(R * dim);
        for block in blocks.by_ref() {
            self.forward_block::<R, P>(block, &mut hidden[..R * h]);
        }
        for row in blocks.into_remainder().chunks_exact_mut(dim) {
            self.forward_block::<1, P>(row, &mut hidden[..h]);
        }
    }

    /// `R` rows through the FFN; GELU's form is picked for the block.
    #[inline(always)]
    fn forward_block<const R: usize, const P: usize>(&self, block: &mut [f32], hidden: &mut [f32]) {
        self.w1.vecmat_rows::<R, P>(block, hidden);
        gelu_inplace(hidden);
        self.w2.vecmat_rows::<R, P>(hidden, block);
    }

    /// The body compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn forward_rows_avx2(&self, rows: &mut [f32], hidden: &mut [f32]) {
        self.forward_rows_body::<1, 1>(rows, hidden);
    }

    /// The body compiled with AVX-512F enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn forward_rows_avx512(&self, rows: &mut [f32], hidden: &mut [f32]) {
        self.forward_rows_body::<BLOCK, 4>(rows, hidden);
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
        self.forward_rows(&mut y, &mut Vec::new());
        Matrix::from_vec(x.rows(), x.cols(), y)
    }
}

/// Rows the AVX-512 build of [`Expert::forward_rows`] puts through each
/// weight matrix at once, the most any build does: its 4 × 4 tile panels
/// keep 16 of its 32 vector registers as accumulators. The portable and
/// AVX2 builds have 16 registers; there every wider shape tried spilled
/// or ran no faster per row than one row in one-tile panels.
const BLOCK: usize = 4;

/// The builds of [`Expert::forward_rows`]' body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Build {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Build {
    /// The widest build this CPU runs.
    fn detect() -> Build {
        #[cfg(target_arch = "x86_64")]
        for build in [Build::Avx512, Build::Avx2] {
            if build.runs_here() {
                return build;
            }
        }
        Build::Portable
    }

    /// Whether this CPU reports the feature the build is compiled for.
    fn runs_here(self) -> bool {
        match self {
            Build::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
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
        // Processing rows together or separately gives the same bits — the
        // property that lets a caller batch tokens per expert — whether
        // a row lands in a block of `BLOCK` or among the leftover rows.
        let mut rng = StdRng::seed_from_u64(4);
        let e = Expert::random(16, 64, &mut rng);
        for n_rows in 1..=2 * BLOCK + 1 {
            let x = Matrix::random(n_rows, 16, &mut rng);
            let batched = e.forward(&x);
            for r in 0..n_rows {
                let single = e.forward(&Matrix::from_vec(1, 16, x.row(r).to_vec()));
                let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(batched.row(r)),
                    bits(single.row(0)),
                    "row {r} of {n_rows}"
                );
            }
        }
    }

    /// Every build this CPU runs — the portable one always, AVX2 and
    /// AVX-512 where reported — against `matmul` + `gelu_inplace` per row,
    /// compiled into this test: blocks of 1 to `2 × BLOCK + 1` rows, shapes
    /// whose columns fill panels, single tiles and the scalar remainder,
    /// and blocks that mix GELU's short-form rows with full-form rows and
    /// the specials.
    #[test]
    fn every_build_matches_the_matmul_reference_to_the_bit() {
        let builds: Vec<Build> = [
            Build::Portable,
            #[cfg(target_arch = "x86_64")]
            Build::Avx2,
            #[cfg(target_arch = "x86_64")]
            Build::Avx512,
        ]
        .into_iter()
        .filter(|b| b.runs_here())
        .collect();
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e4,
            -1e4,
            1e-40,
            -1e-40,
        ];
        // Same bits, except that a NaN matches any NaN: Rust does not fix
        // a NaN's sign or payload.
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = StdRng::seed_from_u64(31);
        let mut mixed_blocks = 0;
        // (dim, hidden): the presets' 16 → 64, then columns below one
        // tile, a panel plus remainder, single tiles plus remainder, two
        // panels, and a panel plus single tiles.
        let shapes = [(16, 64), (5, 3), (20, 70), (17, 48), (3, 130), (33, 96)];
        for (dim, hidden) in shapes {
            let e = Expert::random(dim, hidden, &mut rng);
            for (n_rows, mix) in (1..=2 * BLOCK + 1).flat_map(|n| (0..3).map(move |m| (n, m))) {
                // Per row: tiny inputs (GELU's short form), inputs around
                // 1, or inputs around 1 with specials. Every row short,
                // no row short, or each row drawn.
                let kinds: Vec<u8> = (0..n_rows)
                    .map(|_| match mix {
                        0 => 0,
                        1 => rng.gen_range(1..3),
                        _ => rng.gen_range(0..3),
                    })
                    .collect();
                mixed_blocks += kinds
                    .chunks_exact(BLOCK)
                    .filter(|b| b.contains(&0) && b.iter().any(|&k| k != 0))
                    .count();
                let data: Vec<f32> = kinds
                    .iter()
                    .flat_map(|&kind| (0..dim).map(move |_| kind))
                    .map(|kind| match kind {
                        0 => rng.gen_range(-1.0..1.0f32) * 1e-9,
                        2 if rng.gen_range(0..4) == 0 => specials[rng.gen_range(0..specials.len())],
                        _ => rng.gen_range(-2.0..2.0f32),
                    })
                    .collect();
                let x = Matrix::from_vec(n_rows, dim, data);
                let mut h = x.matmul(&e.w1);
                for r in 0..n_rows {
                    let mut row = h.row(r).to_vec();
                    gelu_inplace(&mut row);
                    for (c, v) in row.into_iter().enumerate() {
                        h.set(r, c, v);
                    }
                }
                let reference = h.matmul(&e.w2);
                for &build in &builds {
                    let mut got = x.as_slice().to_vec();
                    // NaN scratch: a stale value reaching a result shows.
                    let mut scratch = vec![f32::NAN; BLOCK * hidden];
                    e.forward_rows_on(build, &mut got, &mut scratch);
                    for (i, (&g, &want)) in got.iter().zip(reference.as_slice()).enumerate() {
                        assert!(
                            same(g, want),
                            "{build:?}, {dim} -> {hidden}, {n_rows} rows, row {} col {}: {g:e}, reference {want:e}",
                            i / dim,
                            i % dim
                        );
                    }
                }
            }
        }
        assert!(
            mixed_blocks >= 20,
            "{mixed_blocks} blocks mix short and full rows"
        );
    }

    #[test]
    #[should_panic(expected = "does not match expert dim")]
    fn forward_rejects_bad_dim() {
        let mut rng = StdRng::seed_from_u64(5);
        let e = Expert::random(4, 8, &mut rng);
        let x = Matrix::from_vec(1, 5, vec![0.0; 5]);
        let _ = e.forward(&x);
    }
}
