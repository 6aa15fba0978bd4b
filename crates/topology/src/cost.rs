//! The α–β (latency–bandwidth) point-to-point cost model.

use crate::link::LinkClass;

/// Cost parameters of one link class: `time(bytes) = alpha + bytes * beta`.
///
/// `alpha` is the fixed per-message latency in seconds, `beta` the inverse
/// bandwidth in seconds per byte. This is the standard Hockney model used
/// throughout the collective-communication literature the paper builds on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCost {
    /// Fixed per-message startup latency, seconds.
    pub alpha: f64,
    /// Inverse bandwidth, seconds per byte.
    pub beta: f64,
}

impl LinkCost {
    /// Construct from latency (seconds) and bandwidth (bytes/second).
    pub fn from_latency_bandwidth(latency_s: f64, bandwidth_bytes_per_s: f64) -> Self {
        assert!(latency_s >= 0.0, "latency must be non-negative");
        assert!(bandwidth_bytes_per_s > 0.0, "bandwidth must be positive");
        LinkCost {
            alpha: latency_s,
            beta: 1.0 / bandwidth_bytes_per_s,
        }
    }

    /// Time to move `bytes` over this link.
    #[inline]
    pub fn time(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 * self.beta
    }
}

/// Per-link-class cost model for a cluster.
///
/// The presets are calibrated against the paper's Wilkes3 testbed
/// (A100-SXM4 with NVLink 3.0 intra-node, dual-rail HDR200 InfiniBand
/// inter-node). Absolute values only set the time *scale*; every figure the
/// suite reproduces depends on the *ratios* between the classes.
///
/// Alltoall traffic additionally pays a per-class **derate**: unlike ring
/// collectives, Alltoall stresses every link simultaneously (incast, QP
/// contention on the shared IB rails), so its measured effective per-GPU
/// bus bandwidth sits well below line rate — the phenomenon that makes the
/// paper's multi-node inference "almost purely communication-bounded"
/// (Fig. 9d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    costs: [LinkCost; 3],
    /// Bandwidth efficiency of Alltoall traffic per link class (1.0 = full
    /// link bandwidth).
    alltoall_efficiency: [f64; 3],
}

impl CostModel {
    /// Build from explicit per-class costs (Alltoall at full efficiency).
    pub fn new(local: LinkCost, intra_node: LinkCost, inter_node: LinkCost) -> Self {
        CostModel {
            costs: [local, intra_node, inter_node],
            alltoall_efficiency: [1.0; 3],
        }
    }

    /// Set the Alltoall bandwidth efficiency per class
    /// `[local, intra, inter]`.
    pub fn with_alltoall_efficiency(mut self, eff: [f64; 3]) -> Self {
        assert!(eff.iter().all(|&e| e > 0.0 && e <= 1.0));
        self.alltoall_efficiency = eff;
        self
    }

    /// Preset matching the paper's evaluation hardware:
    ///
    /// * local (same-GPU "transfer"): device-memory copy, ~1.5 TB/s HBM2e,
    ///   negligible latency;
    /// * intra-node: NVLink 3.0, ~300 GB/s per GPU pair, ~1 µs startup;
    /// * inter-node: HDR200 InfiniBand, 2 x 25 GB/s, ~3.5 µs (GPU-direct).
    ///
    /// Alltoall efficiencies: ~0.5 over NVLink (protocol overhead) and
    /// ~0.16 over IB (≈8 GB/s effective per-GPU Alltoall busbw, matching
    /// published NCCL measurements on comparable systems).
    pub fn wilkes3() -> Self {
        CostModel::new(
            LinkCost::from_latency_bandwidth(0.3e-6, 1.5e12),
            LinkCost::from_latency_bandwidth(1.0e-6, 300.0e9),
            LinkCost::from_latency_bandwidth(3.5e-6, 50.0e9),
        )
        .with_alltoall_efficiency([1.0, 0.5, 0.16])
    }

    /// A deliberately flat model (all classes identical) for tests that must
    /// isolate algorithmic effects from topology effects.
    pub fn uniform(latency_s: f64, bandwidth_bytes_per_s: f64) -> Self {
        let c = LinkCost::from_latency_bandwidth(latency_s, bandwidth_bytes_per_s);
        CostModel::new(c, c, c)
    }

    /// The cost parameters of one link class.
    #[inline]
    pub fn link(&self, class: LinkClass) -> LinkCost {
        self.costs[class.index()]
    }

    /// Time to move `bytes` over a link of `class` (point-to-point or ring
    /// collectives: full link bandwidth).
    #[inline]
    pub fn transfer_time(&self, class: LinkClass, bytes: u64) -> f64 {
        self.link(class).time(bytes)
    }

    /// Time to move `bytes` over a link of `class` as part of an Alltoall
    /// (derated bandwidth, same startup).
    #[inline]
    pub fn alltoall_transfer_time(&self, class: LinkClass, bytes: u64) -> f64 {
        let c = self.link(class);
        c.alpha + bytes as f64 * c.beta / self.alltoall_efficiency[class.index()]
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::wilkes3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_affine_in_bytes() {
        let c = LinkCost::from_latency_bandwidth(1e-6, 1e9);
        let t0 = c.time(0);
        let t1 = c.time(1_000_000);
        let t2 = c.time(2_000_000);
        assert!((t0 - 1e-6).abs() < 1e-12);
        // Slope is constant: t2 - t1 == t1 - t0.
        assert!(((t2 - t1) - (t1 - t0)).abs() < 1e-12);
    }

    #[test]
    fn wilkes3_hierarchy_is_monotone() {
        let m = CostModel::wilkes3();
        let bytes = 1 << 20;
        let local = m.transfer_time(LinkClass::Local, bytes);
        let intra = m.transfer_time(LinkClass::IntraNode, bytes);
        let inter = m.transfer_time(LinkClass::InterNode, bytes);
        assert!(local < intra, "local {local} should beat intra {intra}");
        assert!(intra < inter, "intra {intra} should beat inter {inter}");
    }

    #[test]
    fn uniform_model_is_flat() {
        let m = CostModel::uniform(1e-6, 1e9);
        let b = 12345;
        let t = m.transfer_time(LinkClass::Local, b);
        for lc in LinkClass::ALL {
            assert_eq!(m.transfer_time(lc, b), t);
        }
    }

    #[test]
    fn bandwidth_ratio_reflects_nvlink_advantage() {
        let m = CostModel::wilkes3();
        assert!(m.link(LinkClass::IntraNode).beta < m.link(LinkClass::InterNode).beta);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkCost::from_latency_bandwidth(0.0, 0.0);
    }
}
