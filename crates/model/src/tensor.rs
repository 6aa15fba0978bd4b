//! Minimal dense linear algebra: just enough real math for expert FFNs.
//!
//! The benchmark's expert-kernel probe runs *genuine* products on token
//! activations (at the reduced `sim_dim`) through one kernel body — [`Matrix::vecmat_rows`]
//! and [`gelu_inplace`], with [`Matrix::matmul`] as the reference it is
//! tested against — which [`crate::Expert::forward_rows`] builds three
//! times, portable, AVX2 and AVX-512, while FLOP/byte *accounting* uses
//! the true model dimensions from [`crate::config::ModelConfig`].

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// A row-major `rows x cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Build from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data }
    }

    /// Xavier-uniform random init, deterministic under the supplied RNG.
    pub fn random<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let dist = Uniform::new_inclusive(-bound, bound);
        let data = (0..rows * cols).map(|_| dist.sample(rng)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Matrix product `self * other`: the naive reference
    /// [`Matrix::vecmat_rows`] is tested against, bit for bit. Only tests
    /// call it.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = vec![0.0f32; self.rows * other.cols];
        for (i, out_row) in out.chunks_mut(other.cols).enumerate() {
            for (k, &a) in self.row(i).iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(other.row(k)) {
                    *o += a * b;
                }
            }
        }
        Matrix::from_vec(self.rows, other.cols, out)
    }

    /// Row-vector products `out[r] = x[r] * self` for `R` rows at once,
    /// the expert kernel's mat-vec: `x` holds `R` rows of
    /// [`Matrix::rows`] floats and `out` `R` rows of [`Matrix::cols`].
    /// The output columns go in panels of `P` sixteen-column tiles, then
    /// single tiles, then one by one. A panel's `R × P` tiles accumulate
    /// in registers over one pass of ascending `k`, so each weight is
    /// loaded once per `R` rows. Per element that is `matmul`'s sequence
    /// of `acc += a * b`, whatever `R`, `P` and the column's place in the
    /// panels; `matmul`'s zero skip cannot show for finite weights (an
    /// accumulator that starts at `+0.0` never becomes `-0.0`), so the two
    /// agree to the bit. Always inlined, so each build of
    /// [`crate::Expert::forward_rows`] vectorises it at its own width.
    #[inline(always)]
    pub fn vecmat_rows<const R: usize, const P: usize>(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), R * self.rows, "vecmat_rows input length mismatch");
        assert_eq!(
            out.len(),
            R * self.cols,
            "vecmat_rows output length mismatch"
        );
        let panelled = self.cols - self.cols % (P * TILE);
        let tiled = self.cols - self.cols % TILE;
        for c0 in (0..panelled).step_by(P * TILE) {
            self.panel::<R, P>(x, out, c0);
        }
        for c0 in (panelled..tiled).step_by(TILE) {
            self.panel::<R, 1>(x, out, c0);
        }
        for c in tiled..self.cols {
            let outs = out[c..].iter_mut().step_by(self.cols);
            for (x_row, o) in x.chunks_exact(self.rows).zip(outs) {
                let column = self.data[c..].iter().step_by(self.cols);
                *o = x_row
                    .iter()
                    .zip(column)
                    .fold(0.0, |acc, (&a, &b)| acc + a * b);
            }
        }
    }

    /// The `P` tiles from column `c0` of [`Matrix::vecmat_rows`]' `R`
    /// output rows.
    #[inline(always)]
    fn panel<const R: usize, const P: usize>(&self, x: &[f32], out: &mut [f32], c0: usize) {
        let xs: [&[f32]; R] = std::array::from_fn(|r| &x[r * self.rows..][..self.rows]);
        let mut acc = [[[0.0f32; TILE]; P]; R];
        for (k, w_row) in (0..self.rows).zip(self.data.chunks_exact(self.cols)) {
            let w = &w_row[c0..][..P * TILE];
            for (acc, x) in acc.iter_mut().zip(&xs) {
                let a = x[k];
                for (tile, w) in acc.iter_mut().zip(w.chunks_exact(TILE)) {
                    for (o, &b) in tile.iter_mut().zip(w) {
                        *o += a * b;
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            out[r * self.cols + c0..][..P * TILE].copy_from_slice(acc.as_flattened());
        }
    }
}

/// Output columns one accumulator tile of [`Matrix::vecmat_rows`] holds.
const TILE: usize = 16;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// Below this magnitude GELU has an exact short form: 2^-12.
const SHORT_BELOW: f32 = 1.0 / 4096.0;

/// GELU (tanh approximation) over a slice, in place.
///
/// A slice whose every |value| is below 2^-12 takes the short form
/// `0.5·v·(1 + √(2/π)·v·NUM[6]/DEN[3])`: there the cubic term is under
/// half an ulp of `v`, and each Horner step of `tanh` but the last under
/// half an ulp of its constant, so the short form is the full one bit for
/// bit (proven on every such `f32`; 2^-11 would not be). It skips the
/// rational polynomial and the subnormal products the full form makes of
/// tiny inputs. The choice is per slice, not per element: a per-element
/// select vectorises into the full form on every lane and saves nothing.
/// The check reads the whole slice without an early exit, so it
/// vectorises; an element at or above 2^-12 (or NaN) fails it. Always
/// inlined, like [`Matrix::vecmat_rows`].
#[inline(always)]
pub fn gelu_inplace(xs: &mut [f32]) {
    if xs.iter().fold(true, |ok, v| ok & (v.abs() < SHORT_BELOW)) {
        for x in xs {
            let v = *x;
            *x = 0.5 * v * (1.0 + SQRT_2_OVER_PI * v * NUM[6] / DEN[3]);
        }
    } else {
        for x in xs {
            let v = *x;
            *x = 0.5 * v * (1.0 + tanh(SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v)));
        }
    }
}

/// `tanh`'s numerator coefficients, highest power of `x²` first.
const NUM: [f32; 7] = [
    -2.760_768_4e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_3e-8,
    1.485_722_35e-5,
    6.372_619_5e-4,
    4.893_524_6e-3,
];

/// `tanh`'s denominator coefficients, highest power of `x²` first.
const DEN: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_7e-3, 4.893_525e-3];

/// `tanh` without libm: clamp, then an odd degree-13 over an even
/// degree-6 polynomial (the Eigen / XLA `fast_tanh` coefficients), within
/// 3e-7 of `f32::tanh` and never beyond ±1. No branch or table, so loops
/// over it vectorise; and `+ × ÷` on `f32` are IEEE-exact, so the bits are
/// the same on every platform, which no libm's `tanhf` promises. For
/// |x| below √(2/π)·2^-12 every Horner step but the last rounds away and
/// it is `x · NUM[6] / DEN[3]`: the short form of [`gelu_inplace`].
#[inline]
fn tanh(x: f32) -> f32 {
    let x = x.clamp(-7.905_311, 7.905_311);
    let x2 = x * x;
    let horner = |coeffs: &[f32]| coeffs[1..].iter().fold(coeffs[0], |acc, &c| acc * x2 + c);
    x * horner(&NUM) / horner(&DEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matmul_identity() {
        let mut eye = Matrix::from_vec(3, 3, vec![0.0; 9]);
        for i in 0..3 {
            eye.set(i, i, 1.0);
        }
        let m = Matrix::from_vec(3, 3, (0..9).map(|i| i as f32).collect());
        assert_eq!(m.matmul(&eye), m);
        assert_eq!(eye.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::from_vec(2, 3, vec![0.0; 6]);
        let b = a.clone();
        let _ = a.matmul(&b);
    }

    fn gelu(v: f32) -> f32 {
        let mut x = [v];
        gelu_inplace(&mut x);
        x[0]
    }

    #[test]
    fn gelu_fixed_points() {
        assert_eq!(gelu(0.0).to_bits(), 0.0f32.to_bits());
        for i in 8_000..=12_000 {
            let v = i as f32 * 1e-3;
            assert!((gelu(v) - v).abs() <= 1e-6, "gelu({v}) -> x for large x");
            assert!(gelu(-v).abs() <= 1e-6, "gelu({}) -> 0", -v);
        }
        assert!(gelu(f32::MAX).is_finite() && gelu(f32::MIN).is_finite());
        assert!(gelu(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_tracks_the_libm_form() {
        // The same expression over the platform's `tanhf`: the accuracy
        // reference, not a bit reference.
        let gelu_libm =
            |v: f32| 0.5 * v * (1.0 + (SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v)).tanh());
        for i in -12_000..=12_000 {
            let v = i as f32 * 1e-3;
            let (got, want) = (gelu(v), gelu_libm(v));
            assert!(got.is_finite(), "gelu({v}) = {got}");
            assert!(
                (got - want).abs() <= 1e-6 * v.abs().max(1.0),
                "gelu({v}) = {got}, libm form {want}"
            );
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Matrix::random(4, 4, &mut StdRng::seed_from_u64(7));
        let b = Matrix::random(4, 4, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = Matrix::random(4, 4, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn matmul_matches_the_triple_loop() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Matrix::random(17, 13, &mut rng);
        let b = Matrix::random(13, 11, &mut rng);
        let c = a.matmul(&b);
        for i in 0..17 {
            for j in 0..11 {
                let mut acc = 0.0f32;
                for k in 0..13 {
                    acc += a.get(i, k) * b.get(k, j);
                }
                assert!((c.get(i, j) - acc).abs() < 1e-4);
            }
        }
    }

    /// GELU's full form, one element: the oracle for `gelu_inplace`.
    fn gelu_full(v: f32) -> f32 {
        0.5 * v * (1.0 + tanh(SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v)))
    }

    /// GELU's short form, one element (see `gelu_inplace`).
    fn gelu_short(v: f32) -> f32 {
        0.5 * v * (1.0 + SQRT_2_OVER_PI * v * NUM[6] / DEN[3])
    }

    /// The bits of 2^-12: every non-negative `f32` below it is one of
    /// `0..BELOW_2_POW_MINUS_12`.
    const BELOW_2_POW_MINUS_12: u32 = 0x3980_0000;

    /// `gelu_short` equals the full form and production `gelu_inplace` on
    /// a one-element slice, for `bits` and its negation.
    fn assert_short_form_exact(bits: u32) {
        for b in [bits, bits | 0x8000_0000] {
            let v = f32::from_bits(b);
            let short = gelu_short(v).to_bits();
            assert_eq!(short, gelu_full(v).to_bits(), "full form at {b:#010x}");
            assert_eq!(short, gelu(v).to_bits(), "gelu_inplace at {b:#010x}");
        }
    }

    #[test]
    fn the_short_form_is_exact_below_2_pow_minus_12() {
        assert_eq!(f32::from_bits(BELOW_2_POW_MINUS_12), 1.0 / 4096.0);
        // ±0, the subnormals' ends, and each binade's first value, its
        // predecessor and its successor up to 2^-12's predecessor.
        let mut edges = vec![0, 1, 0x007f_ffff];
        for exponent in 1..BELOW_2_POW_MINUS_12 >> 23 {
            let first = exponent << 23;
            edges.extend([first - 1, first, first + 1]);
        }
        edges.push(BELOW_2_POW_MINUS_12 - 1);
        for bits in edges {
            assert_short_form_exact(bits);
        }
        // A prime stride walks every binade through varied mantissas.
        for bits in (0..BELOW_2_POW_MINUS_12).step_by(1_999) {
            assert_short_form_exact(bits);
        }
    }

    #[test]
    fn the_short_form_is_not_exact_from_2_pow_minus_12_up() {
        // The first value above 2^-12 where the two forms part: a
        // threshold of 2^-11 would send it down the short form.
        let v = f32::from_bits(0x39d2_8483);
        assert!(v > 1.0 / 4096.0 && v < 1.0 / 2048.0);
        assert_ne!(gelu_short(v).to_bits(), gelu_full(v).to_bits());
        assert_ne!(gelu_short(v).to_bits(), gelu(v).to_bits());
    }

    /// Every `f32` below 2^-12, both signs (≈ 1.9 G values), through the
    /// short form, the full form and `gelu_inplace` on whole slices; then
    /// every positive value from 2^-12 up to the first where the forms
    /// part. Minutes of CPU in release, split over the available cores:
    /// `cargo test --release -p exflow-model -- --include-ignored`.
    #[test]
    #[ignore = "soak: every f32 below 2^-12, run on the release profile"]
    fn the_short_form_is_exact_on_every_f32_below_2_pow_minus_12() {
        const CHUNK: u32 = 4_096;
        assert_eq!(BELOW_2_POW_MINUS_12 % CHUNK, 0);
        // Thread `t` of `n` takes chunks `t, t + n, ...`: the subnormal
        // end is the slow one, so every thread gets its share of it.
        let check = |t: u32, n: u32| {
            let mut xs = Vec::with_capacity(CHUNK as usize);
            for start in (t * CHUNK..BELOW_2_POW_MINUS_12).step_by((n * CHUNK) as usize) {
                for sign in [0, 0x8000_0000] {
                    xs.clear();
                    xs.extend((start..start + CHUNK).map(|b| f32::from_bits(b | sign)));
                    let inputs = xs.clone();
                    gelu_inplace(&mut xs);
                    for (&v, got) in inputs.iter().zip(&xs) {
                        let short = gelu_short(v).to_bits();
                        let b = v.to_bits();
                        assert_eq!(short, gelu_full(v).to_bits(), "full form at {b:#010x}");
                        assert_eq!(short, got.to_bits(), "gelu_inplace at {b:#010x}");
                    }
                }
            }
        };
        let n = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        std::thread::scope(|s| {
            for t in 0..n {
                s.spawn(move || check(t, n));
            }
        });
        let first_apart = (BELOW_2_POW_MINUS_12..)
            .map(f32::from_bits)
            .find(|&v| gelu_short(v).to_bits() != gelu_full(v).to_bits());
        assert_eq!(first_apart.map(f32::to_bits), Some(0x39d2_8483));
    }

    #[test]
    fn slices_on_either_side_of_2_pow_minus_12_match_the_full_form() {
        let threshold = 1.0f32 / 4096.0;
        let specials = [
            threshold,
            f32::from_bits(threshold.to_bits() - 1),
            -threshold,
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(26);
        let (mut all_below, mut some_not) = (0, 0);
        for _ in 0..2_000 {
            // A per-slice ceiling, so whole slices land below 2^-12 too.
            let top: f64 = rng.gen_range(-39.0..2.0);
            let with_specials = rng.gen_range(0..3) == 0;
            let xs: Vec<f32> = (0..rng.gen_range(1..130))
                .map(|_| {
                    if with_specials && rng.gen_range(0..8) == 0 {
                        specials[rng.gen_range(0..specials.len())]
                    } else {
                        let sign = if rng.gen_range(0..2) == 0 { 1.0 } else { -1.0 };
                        sign * 2f64.powf(rng.gen_range(-40.0..top)) as f32
                    }
                })
                .collect();
            if xs.iter().all(|v| v.abs() < threshold) {
                all_below += 1;
            } else {
                some_not += 1;
            }
            let mut got = xs.clone();
            gelu_inplace(&mut got);
            for (i, (&v, g)) in xs.iter().zip(&got).enumerate() {
                let want = gelu_full(v);
                assert!(
                    g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                    "element {i} of {}: gelu({v:e}) = {g:e}, full form {want:e}",
                    xs.len()
                );
            }
        }
        assert!(
            all_below >= 500 && some_not >= 500,
            "{all_below} / {some_not}"
        );
    }
}
