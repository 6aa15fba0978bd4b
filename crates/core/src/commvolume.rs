//! Analytic communication-volume model — the paper's Table I.
//!
//! Table I compares the *forward communication volume* of FasterMoE,
//! TA-MoE, DeepSpeed-MoE, and ExFlow as closed-form expressions in
//! `G` (GPUs), `N` (tokens per GPU), `L` (MoE layers) and the fraction of
//! tokens that actually cross GPUs (`p` for affinity-unaware systems,
//! `p_topo` under topology-aware gating, `p*` under ExFlow's affinity
//! placement). This module implements those expressions; the `repro`
//! harness fills in `p`/`p*` measured from engine runs.

/// Parameters of the volume model (one evaluation scenario).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeParams {
    /// GPUs in the expert-parallel group.
    pub g: usize,
    /// Tokens per GPU per iteration.
    pub n: usize,
    /// MoE layers.
    pub l: usize,
}

/// Which system's formula to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// FasterMoE (topology-aware gating; trains with an extra topo loss).
    FasterMoe,
    /// TA-MoE (topology-aware gating).
    TaMoe,
    /// DeepSpeed-MoE (vanilla expert parallelism).
    DeepspeedMoe,
    /// ExFlow (context coherence + affinity placement).
    ExFlow,
}

impl System {
    /// All four Table I rows, top to bottom.
    pub const ALL: [System; 4] = [
        System::FasterMoe,
        System::TaMoe,
        System::DeepspeedMoe,
        System::ExFlow,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            System::FasterMoe => "FasterMoE",
            System::TaMoe => "TA-MoE",
            System::DeepspeedMoe => "Deepspeed-MoE",
            System::ExFlow => "ExFlow",
        }
    }

    /// Whether the system is applicable at inference time without
    /// retraining (Table I's last column): topology-aware gating bakes the
    /// training cluster's shape into the gate, so it does not transfer.
    pub fn applicable_in_inference(self) -> bool {
        matches!(self, System::DeepspeedMoe | System::ExFlow)
    }

    /// Whether the system needs extra memory (expert replicas / gate
    /// state) beyond the balanced placement.
    pub fn extra_memory(self) -> bool {
        matches!(self, System::FasterMoe | System::ExFlow)
    }

    /// Forward communication volume in token-units for top-`k` gating,
    /// with `p` the system-appropriate cross-GPU routing fraction
    /// (`p_topo` for the topo-aware rows, plain `p` for DeepSpeed, `p*`
    /// for ExFlow).
    ///
    /// * Topo-aware / DeepSpeed: `k · 2 · G · N · L · p` — two Alltoalls
    ///   per layer, each moving the crossing fraction of all `G·N` tokens.
    /// * ExFlow: `G · N · (k · L · p* + G)` — one Alltoall per layer at the
    ///   (much smaller) `p*`, plus the per-iteration AllGather whose ring
    ///   forwards each contribution `G` times.
    pub fn volume(self, params: VolumeParams, p: f64, k: usize) -> f64 {
        let g = params.g as f64;
        let n = params.n as f64;
        let l = params.l as f64;
        let k = k as f64;
        match self {
            System::FasterMoe | System::TaMoe | System::DeepspeedMoe => k * 2.0 * g * n * l * p,
            System::ExFlow => g * n * (k * l * p + g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARAMS: VolumeParams = VolumeParams {
        g: 16,
        n: 64,
        l: 24,
    };

    #[test]
    fn deepspeed_doubles_topo_aware_only_via_p() {
        // Same formula shape; difference is the p they achieve.
        let p = 0.9;
        let p_topo = 0.6;
        let ds = System::DeepspeedMoe.volume(PARAMS, p, 1);
        let fm = System::FasterMoe.volume(PARAMS, p_topo, 1);
        assert!(fm < ds);
        assert_eq!(
            System::FasterMoe.volume(PARAMS, p, 1),
            System::DeepspeedMoe.volume(PARAMS, p, 1)
        );
    }

    #[test]
    fn top2_doubles_alltoall_terms() {
        let p = 0.8;
        assert_eq!(
            System::DeepspeedMoe.volume(PARAMS, p, 2),
            2.0 * System::DeepspeedMoe.volume(PARAMS, p, 1)
        );
        // ExFlow's AllGather term does not double.
        let ex1 = System::ExFlow.volume(PARAMS, p, 1);
        let ex2 = System::ExFlow.volume(PARAMS, p, 2);
        assert!(ex2 < 2.0 * ex1);
        assert!(ex2 > ex1);
    }

    #[test]
    fn exflow_wins_when_pstar_is_small() {
        // With L=24 layers the AllGather overhead (G per token) is dwarfed
        // by the saved Alltoall halves whenever p* < p.
        // Affinity-free uniform routing: a token's expert is on any of
        // `G` GPUs with equal probability.
        let p = 1.0 - 1.0 / PARAMS.g as f64;
        let p_star = 0.5 * p; // affinity keeps half the tokens local
        let ds = System::DeepspeedMoe.volume(PARAMS, p, 1);
        let ex = System::ExFlow.volume(PARAMS, p_star, 1);
        assert!(ex < ds, "exflow {ex} should beat deepspeed {ds}");
        // With more layers the AllGather term amortizes further ("as the
        // model has more layers, the overhead of AllGather becomes less
        // significant") and the saving approaches the full 4x.
        let deep = VolumeParams { l: 40, ..PARAMS };
        let ds40 = System::DeepspeedMoe.volume(deep, p, 1);
        let ex40 = System::ExFlow.volume(deep, p_star, 1);
        assert!(ex40 < 0.5 * ds40, "exflow {ex40} vs deepspeed {ds40}");
    }

    #[test]
    fn exflow_allgather_term_grows_with_g() {
        let small = VolumeParams { g: 4, n: 64, l: 24 };
        let large = VolumeParams {
            g: 64,
            n: 64,
            l: 24,
        };
        // At p* = 0 only the AllGather term remains: G^2 * N.
        let ex_small = System::ExFlow.volume(small, 0.0, 1);
        let ex_large = System::ExFlow.volume(large, 0.0, 1);
        assert_eq!(ex_small, (4 * 4 * 64) as f64);
        assert_eq!(ex_large, (64 * 64 * 64) as f64);
    }

    #[test]
    fn applicability_flags_match_table1() {
        assert!(!System::FasterMoe.applicable_in_inference());
        assert!(!System::TaMoe.applicable_in_inference());
        assert!(System::DeepspeedMoe.applicable_in_inference());
        assert!(System::ExFlow.applicable_in_inference());
    }

    #[test]
    fn labels_unique() {
        let set: std::collections::BTreeSet<_> = System::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(set.len(), 4);
    }
}
