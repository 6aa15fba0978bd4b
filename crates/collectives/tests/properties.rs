//! Property-based tests: the simulated communicator against structural
//! invariants and the analytic cost model from `exflow-topology`.

use exflow_collectives::{CommWorld, OpKind, RankComm};
use exflow_topology::{ClusterSpec, CollectiveCostModel, CostModel};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=4, 1usize..=4)
}

/// One job's worth of every collective, sized and skewed by `param`;
/// returns the rank's final clock.
fn mixed_job(comm: &mut RankComm, param: u64) -> u64 {
    let w = comm.world_size();
    let me = comm.rank().0;
    comm.advance(1e-5 * ((me as u64 + param) % 5) as f64);
    comm.all_to_all_v(
        (0..w)
            .map(|dst| vec![0u8; ((param + (me * w + dst) as u64) % 97) as usize])
            .collect(),
    );
    comm.barrier();
    let _ = comm.all_gather_v(vec![0u8; (param % 61) as usize + me]);
    comm.now().to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alltoall_is_a_permutation_of_payloads((nodes, gpn) in arb_shape(), seed in 0u64..100) {
        let world = CommWorld::new(
            ClusterSpec::new(nodes, gpn).unwrap(),
            CostModel::wilkes3(),
        );
        let w = nodes * gpn;
        let results = world.run(|comm| {
            let me = comm.rank().0;
            let bufs: Vec<Vec<u8>> = (0..w)
                .map(|dst| {
                    let n = ((seed + (me * w + dst) as u64) % 17) as usize;
                    vec![(me * w + dst) as u8; n]
                })
                .collect();
            comm.all_to_all_v(bufs)
        });
        // received[dst][src] must equal what src built for dst.
        for (dst, received) in results.iter().enumerate() {
            for (src, buf) in received.iter().enumerate() {
                let n = ((seed + (src * w + dst) as u64) % 17) as usize;
                prop_assert_eq!(buf.len(), n);
                prop_assert!(buf.iter().all(|&b| b == (src * w + dst) as u8));
            }
        }
    }

    #[test]
    fn alltoall_byte_accounting_matches_analytic((nodes, gpn) in arb_shape(), bytes in 1usize..4096) {
        let cluster = ClusterSpec::new(nodes, gpn).unwrap();
        let world = CommWorld::new(cluster, CostModel::wilkes3());
        let w = nodes * gpn;
        world.run(|comm| {
            comm.all_to_all_v(vec![vec![0u8; bytes]; w]);
        });
        let sim = world.stats().totals(OpKind::Alltoall).sent;
        let analytic = CollectiveCostModel::new(cluster, CostModel::wilkes3())
            .alltoallv_bytes(&vec![vec![bytes as u64; w]; w]);
        prop_assert_eq!(sim.local, analytic.local);
        prop_assert_eq!(sim.intra_node, analytic.intra_node);
        prop_assert_eq!(sim.inter_node, analytic.inter_node);
    }

    #[test]
    fn allgather_byte_accounting_matches_analytic((nodes, gpn) in arb_shape(), bytes in 1usize..4096) {
        let cluster = ClusterSpec::new(nodes, gpn).unwrap();
        let world = CommWorld::new(cluster, CostModel::wilkes3());
        world.run(|comm| {
            comm.all_gather_v(vec![0u8; bytes]);
        });
        let sim = world.stats().totals(OpKind::AllGather).sent;
        let analytic = CollectiveCostModel::new(cluster, CostModel::wilkes3())
            .allgatherv_bytes(&vec![bytes as u64; nodes * gpn]);
        prop_assert_eq!(sim.total(), analytic.total());
    }

    #[test]
    fn clocks_never_decrease((nodes, gpn) in arb_shape()) {
        let world = CommWorld::new(
            ClusterSpec::new(nodes, gpn).unwrap(),
            CostModel::wilkes3(),
        );
        let w = nodes * gpn;
        let monotone = world.run(|comm| {
            let mut last = comm.now();
            let mut ok = true;
            for round in 0..3 {
                comm.advance(1e-6 * (round + 1) as f64);
                comm.all_to_all_v(vec![vec![0u8; 64]; w]);
                ok &= comm.now() >= last;
                last = comm.now();
                comm.all_gather_v(vec![0u8; 32]);
                ok &= comm.now() >= last;
                last = comm.now();
                comm.barrier();
                ok &= comm.now() >= last;
                last = comm.now();
            }
            ok
        });
        prop_assert!(monotone.into_iter().all(|b| b));
    }

    #[test]
    fn barrier_equalizes_clocks((nodes, gpn) in arb_shape(), skews in proptest::collection::vec(0.0f64..10.0, 16)) {
        let world = CommWorld::new(
            ClusterSpec::new(nodes, gpn).unwrap(),
            CostModel::wilkes3(),
        );
        let times = world.run(|comm| {
            comm.advance(skews[comm.rank().0 % skews.len()]);
            comm.barrier();
            comm.now()
        });
        let first = times[0];
        for t in times {
            prop_assert!((t - first).abs() < 1e-12);
        }
    }

    #[test]
    fn session_jobs_are_indistinguishable_from_separate_runs(
        (nodes, gpn) in arb_shape(),
        params in proptest::collection::vec(0u64..1000, 1..6),
    ) {
        let cluster = ClusterSpec::new(nodes, gpn).unwrap();
        let sessioned = CommWorld::new(cluster, CostModel::wilkes3());
        let in_session: Vec<_> = sessioned.session(|session| {
            params
                .iter()
                .map(|&p| {
                    let clocks = session.run(move |comm| mixed_job(comm, p));
                    (clocks, OpKind::ALL.map(|op| session.job_totals(op)))
                })
                .collect()
        });
        let separate = CommWorld::new(cluster, CostModel::wilkes3());
        for (&p, (clocks, totals)) in params.iter().zip(&in_session) {
            let fresh = CommWorld::new(cluster, CostModel::wilkes3());
            prop_assert_eq!(&fresh.run(|comm| mixed_job(comm, p)), clocks);
            prop_assert_eq!(&OpKind::ALL.map(|op| fresh.stats().totals(op)), totals);
            separate.run(|comm| mixed_job(comm, p));
        }
        for op in OpKind::ALL {
            prop_assert_eq!(sessioned.stats().totals(op), separate.stats().totals(op));
        }
    }

    #[test]
    fn every_rank_reads_the_same_max_from_every_barrier(
        (nodes, gpn) in arb_shape(),
        skews in proptest::collection::vec(0.0f64..1.0, 64),
    ) {
        let world = CommWorld::new(
            ClusterSpec::new(nodes, gpn).unwrap(),
            CostModel::wilkes3(),
        );
        let per_rank = world.run(|comm| {
            (0..200usize)
                .map(|round| {
                    comm.advance(skews[(round * 7 + comm.rank().0 * 13) % skews.len()]);
                    comm.barrier();
                    comm.now().to_bits()
                })
                .collect::<Vec<u64>>()
        });
        for seen in &per_rank[1..] {
            prop_assert_eq!(seen, &per_rank[0]);
        }
    }
}
