//! The paper's Table II model zoo, plus the large-expert extrapolations
//! (`E = 256/512`) that drive the sparse placement backend.

use crate::config::{GateKind, ModelConfig};

/// MoE GPT-M (350M base, 24 layers, d=1024) with `n_experts` per layer.
/// Table II lists the 8/16/32/64-expert variants.
pub fn moe_gpt_m(n_experts: usize) -> ModelConfig {
    ModelConfig::new(
        format!("MoE-GPT-M/{n_experts}e-24L"),
        350_000_000,
        24,
        n_experts,
        1024,
    )
}

/// MoE GPT-M with 32 experts and 32 layers (470M base in Table II).
pub fn moe_gpt_m_32e_32l() -> ModelConfig {
    ModelConfig::new("MoE-GPT-M/32e-32L", 470_000_000, 32, 32, 1024)
}

/// MoE GPT-M with 32 experts and 40 layers (590M base in Table II).
pub fn moe_gpt_m_32e_40l() -> ModelConfig {
    ModelConfig::new("MoE-GPT-M/32e-40L", 590_000_000, 40, 32, 1024)
}

/// MoE GPT-XL (1.3B base, 24 layers, d=2048, 16 experts).
pub fn moe_gpt_xl_16e() -> ModelConfig {
    ModelConfig::new("MoE-GPT-XL/16e-24L", 1_300_000_000, 24, 16, 2048)
}

/// The 12-layer, 32-expert profiling model used for the paper's Fig. 2 and
/// appendix heatmaps ("a pre-trained GPT model with 12 MoE layers, and each
/// layer has 32 experts").
pub fn heatmap_model() -> ModelConfig {
    ModelConfig::new("MoE-GPT-350M/32e-12L", 350_000_000, 12, 32, 1024)
}

/// MoE GPT-XXL: the large-expert extrapolation beyond Table II. Same
/// 24-layer, d=1024 trunk as GPT-M, but with `n_experts` in the hundreds —
/// the regime where top-k routing makes affinity matrices overwhelmingly
/// sparse and the placement objective's CSR backend pays off.
/// `n_experts` must be 256 or 512 (the supported sweep points).
pub fn moe_gpt_xxl(n_experts: usize, gate: GateKind) -> ModelConfig {
    assert!(
        n_experts == 256 || n_experts == 512,
        "XXL presets are defined for 256 or 512 experts, got {n_experts}"
    );
    let k = gate.k();
    ModelConfig::new(
        format!("MoE-GPT-XXL/{n_experts}e-24L-top{k}"),
        350_000_000,
        24,
        n_experts,
        1024,
    )
    .with_gate(gate)
}

/// The large-expert zoo the sparse-backend benchmarks sweep:
/// `E ∈ {256, 512} × k ∈ {1, 2}`, in (experts-major, gate-minor) order.
pub fn large_zoo() -> Vec<ModelConfig> {
    vec![
        moe_gpt_xxl(256, GateKind::Top1),
        moe_gpt_xxl(256, GateKind::Top2),
        moe_gpt_xxl(512, GateKind::Top1),
        moe_gpt_xxl(512, GateKind::Top2),
    ]
}

/// All seven Table II variants, in the order Fig. 10 plots them.
pub fn table2() -> Vec<ModelConfig> {
    vec![
        moe_gpt_m(8),
        moe_gpt_m(16),
        moe_gpt_m(32),
        moe_gpt_m(64),
        moe_gpt_m_32e_32l(),
        moe_gpt_m_32e_40l(),
        moe_gpt_xl_16e(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_seven_variants() {
        assert_eq!(table2().len(), 7);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> = table2().into_iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn gpt_m_dimensions_match_table2() {
        let c = moe_gpt_m(32);
        assert_eq!(c.n_layers, 24);
        assert_eq!(c.d_model, 1024);
        assert_eq!(c.base_params, 350_000_000);
    }

    #[test]
    fn xl_is_wider() {
        assert_eq!(moe_gpt_xl_16e().d_model, 2048);
        assert_eq!(moe_gpt_xl_16e().n_experts, 16);
    }

    #[test]
    fn layer_variants() {
        assert_eq!(moe_gpt_m_32e_32l().n_layers, 32);
        assert_eq!(moe_gpt_m_32e_40l().n_layers, 40);
    }

    #[test]
    fn moe_params_dominate_total() {
        // 64 experts x 24 layers of 1024x4096 FFNs dwarf the 350M base.
        let c = moe_gpt_m(64);
        assert!(c.total_params() > 10 * c.base_params);
    }

    #[test]
    fn large_zoo_covers_both_scales_and_gates() {
        let zoo = large_zoo();
        assert_eq!(zoo.len(), 4);
        let names: std::collections::BTreeSet<_> = zoo.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), 4);
        assert!(zoo.iter().any(|c| c.n_experts == 256 && c.gate.k() == 1));
        assert!(zoo.iter().any(|c| c.n_experts == 512 && c.gate.k() == 2));
        for c in &zoo {
            assert_eq!(c.n_layers, 24);
            assert!(c.name.contains(&format!("top{}", c.gate.k())));
        }
    }

    #[test]
    #[should_panic(expected = "256 or 512")]
    fn xxl_rejects_unsupported_expert_counts() {
        let _ = moe_gpt_xxl(128, GateKind::Top1);
    }

    #[test]
    fn heatmap_model_matches_fig2_caption() {
        let c = heatmap_model();
        assert_eq!(c.n_layers, 12);
        assert_eq!(c.n_experts, 32);
    }
}
