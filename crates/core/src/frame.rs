//! A token's provenance word and its size on the wire.
//!
//! A pass keeps one `u64` word per token and per top-k copy of it: the
//! token's origin, every `(layer, expert)` that ran it and every top-2
//! copy merged into it, folded in order with `fold`. That word is what
//! a run computes and what [`crate::InferenceReport::output_digest`]
//! hashes.
//!
//! A copy never crosses a wire; the Alltoall is charged [`frame_size`]
//! bytes per copy on each `(src, dst)` lane: the true fp16 activation
//! size of the model (`ModelConfig::token_bytes()`), or what a header
//! and a reduced-dimension (`sim_dim`) f32 embedding would take if that
//! is more. So the virtual-clock α–β accounting sees the real traffic
//! volume.

use crate::report::FNV_PRIME;

/// `word` with `x` folded in: one [`fnv1a`] step over `x`'s eight
/// little-endian bytes. Order-sensitive, so a provenance word records
/// the sequence of what was folded, not just the set.
///
/// A zero byte only multiplies by the prime (`h ^ 0 = h`), and wrapping
/// multiplication is associative, so the bytes above `x`'s highest
/// nonzero one are one multiply by a power of the prime: a layer, an
/// expert or an id costs one or two byte steps, not eight
/// (`fold_is_the_eight_byte_fnv1a_step`).
///
/// [`fnv1a`]: crate::report::fnv1a
pub(crate) fn fold(word: u64, x: u64) -> u64 {
    /// `PRIME_POW[n]`: the FNV prime to the `n`th, wrapping.
    const PRIME_POW: [u64; 9] = {
        let mut pow = [1u64; 9];
        let mut n = 1;
        while n < pow.len() {
            pow[n] = pow[n - 1].wrapping_mul(FNV_PRIME);
            n += 1;
        }
        pow
    };
    let bytes = (u64::BITS - x.leading_zeros()).div_ceil(8) as usize;
    let (mut h, mut x) = (word, x);
    for _ in 0..bytes {
        h = (h ^ (x & 0xff)).wrapping_mul(FNV_PRIME);
        x >>= 8;
    }
    h.wrapping_mul(PRIME_POW[8 - bytes])
}

/// Wire size of a frame's header in the wire model: id + home + domain
/// + slot + embedding length.
const HEADER: usize = 4 + 4 + 4 + 4 + 4;

/// Bytes one token occupies on the wire for a model whose activation is
/// `token_bytes` wide and whose simulated embedding has `sim_dim` floats.
pub fn frame_size(token_bytes: u64, sim_dim: usize) -> usize {
    (token_bytes as usize).max(HEADER + 4 * sim_dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::fnv1a;
    use proptest::prelude::*;

    #[test]
    fn frame_size_respects_true_activation_width() {
        // GPT-M: 1024 dims of fp16 = 2048 bytes, far above header needs.
        assert_eq!(frame_size(2048, 16), 2048);
        // Tiny test models never shrink below what the header needs.
        assert!(frame_size(8, 32) >= HEADER + 128);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `fold` is one FNV-1a step over all eight little-endian bytes of
        /// `x`, whatever its width: `x` is shifted so every count of
        /// leading zero bytes comes up, and the byte edges are fixed.
        #[test]
        fn fold_is_the_eight_byte_fnv1a_step(
            word in 0u64..=u64::MAX,
            x in 0u64..=u64::MAX,
            shift in 0u32..64,
        ) {
            for x in [x >> shift, 0, 255, 256, 1 << 56, u64::MAX] {
                prop_assert_eq!(fold(word, x), fnv1a(word, &x.to_le_bytes()), "x = {:#x}", x);
            }
        }
    }
}
