//! Property-based tests for the topology crate.

use exflow_topology::{ClusterSpec, CollectiveCostModel, CostModel, LinkClass, Rank};
use proptest::prelude::*;

fn arb_cluster() -> impl Strategy<Value = ClusterSpec> {
    (1usize..=8, 1usize..=8).prop_map(|(n, g)| ClusterSpec::new(n, g).unwrap())
}

proptest! {
    #[test]
    fn link_class_is_symmetric(cluster in arb_cluster(), a in 0usize..64, b in 0usize..64) {
        let a = a % cluster.world_size();
        let b = b % cluster.world_size();
        prop_assert_eq!(
            cluster.link_class(Rank(a), Rank(b)),
            cluster.link_class(Rank(b), Rank(a))
        );
    }

    #[test]
    fn link_class_local_iff_same_rank(cluster in arb_cluster(), a in 0usize..64, b in 0usize..64) {
        let a = a % cluster.world_size();
        let b = b % cluster.world_size();
        let lc = cluster.link_class(Rank(a), Rank(b));
        prop_assert_eq!(lc == LinkClass::Local, a == b);
    }

    #[test]
    fn transfer_time_monotone_in_bytes(
        bytes_a in 0u64..1_000_000,
        bytes_b in 0u64..1_000_000,
    ) {
        let m = CostModel::wilkes3();
        prop_assume!(bytes_a <= bytes_b);
        for lc in LinkClass::ALL {
            prop_assert!(m.transfer_time(lc, bytes_a) <= m.transfer_time(lc, bytes_b));
        }
    }

    #[test]
    fn alltoall_bytes_total_equals_matrix_sum(
        cluster in arb_cluster(),
        seed in 0u64..1000,
    ) {
        let w = cluster.world_size();
        // Deterministic pseudo-random matrix from the seed.
        let mat: Vec<Vec<u64>> = (0..w)
            .map(|i| (0..w).map(|j| (seed * 31 + (i * w + j) as u64 * 7) % 10_000).collect())
            .collect();
        let model = CollectiveCostModel::new(cluster, CostModel::wilkes3());
        let acc = model.alltoallv_bytes(&mat);
        let expect: u64 = mat.iter().flatten().sum();
        prop_assert_eq!(acc.total(), expect);
    }

    #[test]
    fn alltoall_time_nonnegative_and_monotone_in_scaling(
        cluster in arb_cluster(),
        base in 1u64..10_000,
    ) {
        let w = cluster.world_size();
        let model = CollectiveCostModel::new(cluster, CostModel::wilkes3());
        let m1 = vec![vec![base; w]; w];
        let m2 = vec![vec![base * 2; w]; w];
        let t1 = model.alltoallv_time(&m1);
        let t2 = model.alltoallv_time(&m2);
        prop_assert!(t1 >= 0.0);
        prop_assert!(t2 >= t1);
    }

    #[test]
    fn allgather_time_zero_only_for_singleton(cluster in arb_cluster()) {
        let w = cluster.world_size();
        let model = CollectiveCostModel::new(cluster, CostModel::wilkes3());
        let t = model.allgatherv_time(&vec![1024u64; w]);
        if w == 1 {
            prop_assert_eq!(t, 0.0);
        } else {
            prop_assert!(t > 0.0);
        }
    }
}
