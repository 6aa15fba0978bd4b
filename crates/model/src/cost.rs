//! Compute-time model for the four operators the paper profiles (Fig. 9):
//! gating, attention, expert FFN — plus the collectives, whose cost lives in
//! `exflow-topology`.
//!
//! Autoregressive decode runs small per-token GEMVs, so each operator's
//! time is the max of two terms modeled separately:
//!
//! * an **arithmetic term** — FLOPs over the accelerator's peak throughput
//!   (scales with the token count);
//! * a **memory term** — weight/KV bytes over HBM bandwidth. Weights are
//!   read once per *batch* (and, for experts, once per expert that receives
//!   any token), so this term amortizes across tokens — the property that
//!   makes small-batch decode memory-bound and MoE FFN cost proportional to
//!   the number of experts touched rather than the number of tokens.

use crate::config::ModelConfig;

/// Decode-calibrated compute-time model for one simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeCostModel {
    /// Peak dense throughput (FLOPs/s), e.g. A100 fp16 tensor cores.
    pub peak_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub hbm_bytes_per_s: f64,
}

impl ComputeCostModel {
    /// A100-SXM4-80GB: 312 TFLOP/s fp16 peak, ~2 TB/s HBM2e.
    pub fn a100() -> Self {
        ComputeCostModel {
            peak_flops: 312.0e12,
            hbm_bytes_per_s: 2.0e12,
        }
    }

    fn time(&self, flops: f64, bytes: f64) -> f64 {
        (flops / self.peak_flops).max(bytes / self.hbm_bytes_per_s)
    }

    /// Seconds to gate `n_tokens` at one layer: an `d x E` projection whose
    /// weights are read once.
    pub fn gating_time(&self, cfg: &ModelConfig, n_tokens: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        let d = cfg.d_model as f64;
        let e = cfg.n_experts as f64;
        let flops = 2.0 * d * e * n_tokens as f64;
        let bytes = d * e * 2.0;
        self.time(flops, bytes)
    }

    /// Seconds of decode attention for `n_tokens` with `ctx_len` context:
    /// QKVO projection weights (`4·d²` fp16 elements) are read once per
    /// batch; each token additionally streams its K/V cache
    /// (`2·ctx·d` fp16 elements).
    pub fn attention_time(&self, cfg: &ModelConfig, n_tokens: usize, ctx_len: usize) -> f64 {
        if n_tokens == 0 {
            return 0.0;
        }
        let d = cfg.d_model as f64;
        let n = n_tokens as f64;
        let ctx = ctx_len as f64;
        let flops = (8.0 * d * d + 4.0 * d * ctx) * n;
        let bytes = 4.0 * d * d * 2.0 + n * 2.0 * ctx * d * 2.0;
        self.time(flops, bytes)
    }

    /// Seconds of expert FFN for `n_tokens` spread over `experts_touched`
    /// local experts, each token visiting `k` experts. Every touched
    /// expert's weights (`2·d·d_ff` fp16 elements) are read once.
    pub fn expert_time(
        &self,
        cfg: &ModelConfig,
        n_tokens: usize,
        experts_touched: usize,
        k: usize,
    ) -> f64 {
        if n_tokens == 0 || experts_touched == 0 {
            return 0.0;
        }
        let d = cfg.d_model as f64;
        let dff = cfg.d_ff as f64;
        let flops = 4.0 * d * dff * (n_tokens * k) as f64;
        let bytes = experts_touched as f64 * 2.0 * d * dff * 2.0;
        self.time(flops, bytes)
    }
}

impl Default for ComputeCostModel {
    fn default() -> Self {
        ComputeCostModel::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::moe_gpt_m;

    #[test]
    fn small_batches_are_memory_bound() {
        // One token through one expert: dominated by the weight read.
        let m = ComputeCostModel::a100();
        let cfg = moe_gpt_m(8);
        let t = m.expert_time(&cfg, 1, 1, 1);
        let weight_bytes = 2.0 * 1024.0 * 4096.0 * 2.0;
        assert!((t - weight_bytes / m.hbm_bytes_per_s).abs() / t < 1e-9);
    }

    #[test]
    fn expert_time_amortizes_over_batch() {
        // 64 tokens through the same expert cost far less than 64x one
        // token (weights read once).
        let m = ComputeCostModel::a100();
        let cfg = moe_gpt_m(8);
        let one = m.expert_time(&cfg, 1, 1, 1);
        let batch = m.expert_time(&cfg, 64, 1, 1);
        assert!(batch < 8.0 * one, "batch {batch} vs one {one}");
    }

    #[test]
    fn expert_time_scales_with_experts_touched() {
        let m = ComputeCostModel::a100();
        let cfg = moe_gpt_m(8);
        let one = m.expert_time(&cfg, 16, 1, 1);
        let four = m.expert_time(&cfg, 16, 4, 1);
        assert!(four > 3.0 * one);
    }

    #[test]
    fn huge_batches_become_compute_bound() {
        let m = ComputeCostModel::a100();
        let cfg = moe_gpt_m(8);
        let n = 1 << 16;
        let t = m.expert_time(&cfg, n, 1, 1);
        let flops = 4.0 * 1024.0 * 4096.0 * n as f64;
        assert!((t - flops / m.peak_flops).abs() / t < 1e-9);
    }

    #[test]
    fn attention_grows_with_context() {
        let m = ComputeCostModel::a100();
        let cfg = moe_gpt_m(32);
        assert!(m.attention_time(&cfg, 16, 2048) > m.attention_time(&cfg, 16, 64));
    }

    #[test]
    fn ffn_dominates_gating() {
        let m = ComputeCostModel::a100();
        let cfg = moe_gpt_m(32);
        assert!(m.expert_time(&cfg, 16, 2, 1) > 20.0 * m.gating_time(&cfg, 16));
    }

    #[test]
    fn zero_tokens_cost_nothing() {
        let m = ComputeCostModel::a100();
        let cfg = moe_gpt_m(8);
        assert_eq!(m.gating_time(&cfg, 0), 0.0);
        assert_eq!(m.attention_time(&cfg, 0, 128), 0.0);
        assert_eq!(m.expert_time(&cfg, 0, 0, 1), 0.0);
    }
}
