//! Closed-form cost estimates for the collectives ExFlow issues.
//!
//! The simulated communicator in `exflow-collectives` moves real buffers
//! between rank threads and advances a virtual clock with the same α–β
//! arithmetic; this module provides the analytic counterpart used (a) by the
//! Table I reproduction, which is purely analytic in the paper, and (b) as a
//! cross-check oracle in integration tests.

use crate::cluster::{ClusterSpec, Rank};
use crate::cost::CostModel;
use crate::link::LinkClass;

/// Per-link-class byte totals for one collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BytesByClass {
    /// Bytes that stayed on the source GPU (self-sends).
    pub local: u64,
    /// Bytes that crossed GPUs within a node.
    pub intra_node: u64,
    /// Bytes that crossed nodes.
    pub inter_node: u64,
}

impl BytesByClass {
    /// Total bytes that actually moved between GPUs (excludes self-sends).
    pub fn cross_gpu(&self) -> u64 {
        self.intra_node + self.inter_node
    }

    /// Total bytes including self-sends.
    pub fn total(&self) -> u64 {
        self.local + self.intra_node + self.inter_node
    }

    /// Add bytes to the bucket of `class`.
    pub fn add(&mut self, class: LinkClass, bytes: u64) {
        match class {
            LinkClass::Local => self.local += bytes,
            LinkClass::IntraNode => self.intra_node += bytes,
            LinkClass::InterNode => self.inter_node += bytes,
        }
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &BytesByClass) {
        self.local += other.local;
        self.intra_node += other.intra_node;
        self.inter_node += other.inter_node;
    }
}

/// Analytic cost model for collectives on a concrete cluster.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveCostModel {
    cluster: ClusterSpec,
    cost: CostModel,
}

impl CollectiveCostModel {
    /// Bind a cost model to a cluster shape.
    pub fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        CollectiveCostModel { cluster, cost }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Estimated completion time of an AlltoallV where rank `i` sends
    /// `send_bytes[i][j]` bytes to rank `j`.
    ///
    /// Model: every rank serializes its outgoing messages (one NIC / copy
    /// engine per GPU) while receives from distinct peers overlap; the
    /// operation completes when the busiest sender *and* the busiest
    /// receiver are done. Self-sends cost a local memcpy. This matches the
    /// linear pairwise-exchange bound commonly used for Alltoall analysis.
    pub fn alltoallv_time(&self, send_bytes: &[Vec<u64>]) -> f64 {
        let w = self.cluster.world_size();
        assert_eq!(send_bytes.len(), w, "send matrix must be world-size rows");
        let mut max_send = 0.0f64;
        let mut recv_time = vec![0.0f64; w];
        for (i, row) in send_bytes.iter().enumerate() {
            assert_eq!(row.len(), w, "send matrix must be world-size columns");
            let mut send = 0.0f64;
            for (j, &bytes) in row.iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                let class = self.cluster.link_class(Rank(i), Rank(j));
                let t = self.cost.alltoall_transfer_time(class, bytes);
                send += t;
                recv_time[j] += t;
            }
            max_send = max_send.max(send);
        }
        let max_recv = recv_time.iter().copied().fold(0.0f64, f64::max);
        max_send.max(max_recv)
    }

    /// Byte accounting for an AlltoallV send matrix.
    pub fn alltoallv_bytes(&self, send_bytes: &[Vec<u64>]) -> BytesByClass {
        let w = self.cluster.world_size();
        let mut acc = BytesByClass::default();
        for (i, row) in send_bytes.iter().enumerate() {
            for (j, &bytes) in row.iter().enumerate().take(w) {
                if bytes > 0 {
                    acc.add(self.cluster.link_class(Rank(i), Rank(j)), bytes);
                }
            }
        }
        acc
    }

    /// Estimated completion time of a ring AllGatherV where rank `i`
    /// contributes `contrib_bytes[i]` bytes and every rank ends up with all
    /// contributions.
    ///
    /// Model: the standard `W-1`-step ring. In step `s`, rank `i` forwards
    /// the block originating at rank `(i - s).rem_euclid(W)` to rank `i+1`.
    /// Steps synchronize (each needs the previous step's block), so the op
    /// time is the sum over steps of the slowest link in that step.
    pub fn allgatherv_time(&self, contrib_bytes: &[u64]) -> f64 {
        let w = self.cluster.world_size();
        assert_eq!(contrib_bytes.len(), w);
        if w == 1 {
            return 0.0;
        }
        let mut total = 0.0f64;
        for step in 0..w - 1 {
            let mut slowest = 0.0f64;
            for i in 0..w {
                let origin = (i + w - step % w) % w;
                let dst = (i + 1) % w;
                let class = self.cluster.link_class(Rank(i), Rank(dst));
                let t = self.cost.transfer_time(class, contrib_bytes[origin]);
                slowest = slowest.max(t);
            }
            total += slowest;
        }
        total
    }

    /// Estimated completion time of a bulk point-to-point exchange where
    /// rank `i` sends `send_bytes[i][j]` bytes to rank `j` at **full link
    /// bandwidth** (no Alltoall derate).
    ///
    /// This prices expert-weight migration during online re-placement:
    /// unlike token dispatch, a migration is a handful of large,
    /// schedule-friendly transfers (NCCL send/recv pairs, not an incast
    /// Alltoall), so each link runs at line rate. The completion model is
    /// the same linear pairwise-exchange bound as
    /// [`CollectiveCostModel::alltoallv_time`]: sends serialize per source,
    /// receives serialize per destination, and the exchange completes when
    /// the busiest endpoint is done. Self-sends (an expert "moving" within
    /// its GPU) cost a local memcpy.
    pub fn exchange_time(&self, send_bytes: &[Vec<u64>]) -> f64 {
        let w = self.cluster.world_size();
        assert_eq!(send_bytes.len(), w, "send matrix must be world-size rows");
        let mut max_send = 0.0f64;
        let mut recv_time = vec![0.0f64; w];
        for (i, row) in send_bytes.iter().enumerate() {
            assert_eq!(row.len(), w, "send matrix must be world-size columns");
            let mut send = 0.0f64;
            for (j, &bytes) in row.iter().enumerate() {
                if bytes == 0 {
                    continue;
                }
                let class = self.cluster.link_class(Rank(i), Rank(j));
                let t = self.cost.transfer_time(class, bytes);
                send += t;
                recv_time[j] += t;
            }
            max_send = max_send.max(send);
        }
        let max_recv = recv_time.iter().copied().fold(0.0f64, f64::max);
        max_send.max(max_recv)
    }

    /// Byte accounting for a ring AllGatherV.
    pub fn allgatherv_bytes(&self, contrib_bytes: &[u64]) -> BytesByClass {
        let w = self.cluster.world_size();
        let mut acc = BytesByClass::default();
        if w == 1 {
            return acc;
        }
        for step in 0..w - 1 {
            for i in 0..w {
                let origin = (i + w - step % w) % w;
                let dst = (i + 1) % w;
                let class = self.cluster.link_class(Rank(i), Rank(dst));
                acc.add(class, contrib_bytes[origin]);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(nodes: usize, gpn: usize) -> CollectiveCostModel {
        CollectiveCostModel::new(ClusterSpec::new(nodes, gpn).unwrap(), CostModel::wilkes3())
    }

    fn uniform_matrix(w: usize, bytes: u64) -> Vec<Vec<u64>> {
        vec![vec![bytes; w]; w]
    }

    #[test]
    fn alltoall_time_grows_with_bytes() {
        let m = model(2, 2);
        let small = m.alltoallv_time(&uniform_matrix(4, 1 << 10));
        let big = m.alltoallv_time(&uniform_matrix(4, 1 << 20));
        assert!(big > small);
    }

    #[test]
    fn alltoall_on_one_gpu_is_local_only() {
        let m = model(1, 1);
        let bytes = m.alltoallv_bytes(&uniform_matrix(1, 1024));
        assert_eq!(bytes.local, 1024);
        assert_eq!(bytes.cross_gpu(), 0);
    }

    #[test]
    fn alltoall_byte_accounting_partitions_total() {
        let m = model(2, 2);
        let mat = uniform_matrix(4, 100);
        let b = m.alltoallv_bytes(&mat);
        // 4 self sends local, 4 intra pairs (2 per node, bidirectional),
        // 8 inter pairs.
        assert_eq!(b.local, 400);
        assert_eq!(b.intra_node, 400);
        assert_eq!(b.inter_node, 800);
        assert_eq!(b.total(), 1600);
    }

    #[test]
    fn internode_traffic_dominates_cost() {
        // Same total bytes, but one matrix keeps traffic intra-node.
        let m = model(2, 2);
        let mut intra = vec![vec![0u64; 4]; 4];
        intra[0][1] = 1 << 20;
        intra[1][0] = 1 << 20;
        let mut inter = vec![vec![0u64; 4]; 4];
        inter[0][2] = 1 << 20;
        inter[2][0] = 1 << 20;
        assert!(m.alltoallv_time(&inter) > m.alltoallv_time(&intra));
    }

    #[test]
    fn allgather_single_rank_is_free() {
        let m = model(1, 1);
        assert_eq!(m.allgatherv_time(&[123]), 0.0);
    }

    #[test]
    fn allgather_time_scales_with_world() {
        let small = model(1, 2);
        let big = model(2, 4);
        let t_small = small.allgatherv_time(&[1 << 16; 2]);
        let t_big = big.allgatherv_time(&[1 << 16; 8]);
        assert!(t_big > t_small);
    }

    #[test]
    fn allgather_bytes_count_every_forward() {
        let m = model(1, 4);
        let b = m.allgatherv_bytes(&[10, 10, 10, 10]);
        // Ring: (W-1) steps x W forwards per step = 12 forwards of 10 bytes.
        assert_eq!(b.total(), 120);
        assert_eq!(b.local, 0);
    }

    #[test]
    #[should_panic(expected = "world-size rows")]
    fn alltoall_rejects_bad_matrix() {
        let m = model(1, 2);
        let _ = m.alltoallv_time(&uniform_matrix(3, 1));
    }

    #[test]
    fn exchange_runs_at_full_bandwidth() {
        // Same matrix priced as a migration exchange vs an Alltoall: the
        // exchange never pays the Alltoall bandwidth derate, so it is at
        // least as fast on every topology with derated classes.
        let m = model(2, 2);
        let mat = uniform_matrix(4, 1 << 20);
        assert!(m.exchange_time(&mat) < m.alltoallv_time(&mat));
        // On a derate-free model the two bounds coincide.
        let flat = CollectiveCostModel::new(
            ClusterSpec::new(2, 2).unwrap(),
            CostModel::uniform(1e-6, 1e9),
        );
        assert_eq!(flat.exchange_time(&mat), flat.alltoallv_time(&mat));
    }

    #[test]
    fn exchange_of_nothing_is_free() {
        let m = model(2, 2);
        assert_eq!(m.exchange_time(&uniform_matrix(4, 0)), 0.0);
    }

    #[test]
    fn exchange_prefers_intranode_moves() {
        let m = model(2, 2);
        let mut intra = vec![vec![0u64; 4]; 4];
        intra[0][1] = 1 << 22;
        let mut inter = vec![vec![0u64; 4]; 4];
        inter[0][2] = 1 << 22;
        assert!(m.exchange_time(&inter) > m.exchange_time(&intra));
    }
}
