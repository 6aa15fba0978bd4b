//! Model configuration: the shape of a GPT MoE model.

/// Gating strategy used at each MoE layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Route each token to its single best expert (the paper's inference
    /// setting: "all models are with Top-1 gating").
    Top1,
    /// Route each token to its two best experts; doubles dispatch traffic
    /// (Table I's "Forward comm. in Top-2 gating" column).
    Top2,
}

impl GateKind {
    /// Number of experts each token is routed to.
    #[inline]
    pub fn k(self) -> usize {
        match self {
            GateKind::Top1 => 1,
            GateKind::Top2 => 2,
        }
    }
}

/// Static shape of a GPT MoE model (one row of the paper's Table II).
///
/// `d_model`/`d_ff` describe the *true* model dimensions and drive all byte
/// and FLOP accounting; `sim_dim` is a reduced embedding width. It sets
/// only the floor of a token's wire frame (`exflow_core::frame_size`) and
/// the shape of the benchmark's expert-kernel probe: the engine runs no
/// expert math.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"MoE-GPT-M/32e"`.
    pub name: String,
    /// Dense base parameter count (350M, 470M, 590M, 1.3B in Table II).
    pub base_params: u64,
    /// Number of MoE (transformer) layers.
    pub n_layers: usize,
    /// Experts per MoE layer.
    pub n_experts: usize,
    /// Hidden dimension of the transformer.
    pub d_model: usize,
    /// FFN inner dimension of each expert (4x `d_model` for GPT).
    pub d_ff: usize,
    /// Gating strategy.
    pub gate: GateKind,
    /// Reduced embedding width: the wire frame's floor and the benchmark
    /// probe's expert shape.
    pub sim_dim: usize,
}

impl ModelConfig {
    /// Construct a config with GPT conventions (`d_ff = 4 * d_model`).
    pub fn new(
        name: impl Into<String>,
        base_params: u64,
        n_layers: usize,
        n_experts: usize,
        d_model: usize,
    ) -> Self {
        assert!(n_layers >= 1, "a model needs at least one MoE layer");
        assert!(n_experts >= 1, "a model needs at least one expert");
        assert!(d_model >= 1, "d_model must be positive");
        ModelConfig {
            name: name.into(),
            base_params,
            n_layers,
            n_experts,
            d_model,
            d_ff: 4 * d_model,
            gate: GateKind::Top1,
            sim_dim: 16,
        }
    }

    /// Switch to top-2 gating.
    pub fn with_gate(mut self, gate: GateKind) -> Self {
        self.gate = gate;
        self
    }

    /// Bytes of one token activation crossing the wire (f16 activations on
    /// the paper's testbed: 2 bytes per element).
    #[inline]
    pub fn token_bytes(&self) -> u64 {
        (self.d_model * 2) as u64
    }

    /// Parameters of a single expert FFN (two projection matrices).
    pub fn expert_params(&self) -> u64 {
        (2 * self.d_model * self.d_ff) as u64
    }

    /// Total parameters including all experts across all layers.
    pub fn total_params(&self) -> u64 {
        self.base_params + self.n_layers as u64 * self.n_experts as u64 * self.expert_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_k() {
        assert_eq!(GateKind::Top1.k(), 1);
        assert_eq!(GateKind::Top2.k(), 2);
    }

    #[test]
    fn gpt_ffn_convention() {
        let c = ModelConfig::new("t", 0, 12, 8, 1024);
        assert_eq!(c.d_ff, 4096);
    }

    #[test]
    fn token_bytes_are_fp16() {
        let c = ModelConfig::new("t", 0, 12, 8, 1024);
        assert_eq!(c.token_bytes(), 2048);
    }

    #[test]
    fn expert_and_total_params() {
        let c = ModelConfig::new("t", 1000, 2, 4, 8);
        // expert: 2 * 8 * 32 = 512 params; total: 1000 + 2*4*512 = 5096.
        assert_eq!(c.expert_params(), 512);
        assert_eq!(c.total_params(), 5096);
    }

    #[test]
    fn builder_overrides() {
        let c = ModelConfig::new("t", 0, 2, 4, 8).with_gate(GateKind::Top2);
        assert_eq!(c.gate, GateKind::Top2);
    }
}
