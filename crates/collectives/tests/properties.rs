//! Property-based tests: the simulated communicator against structural
//! invariants and the analytic cost model from `exflow-topology`.

use exflow_collectives::{CommWorld, Lockstep, OpKind};
use exflow_topology::cost::LinkCost;
use exflow_topology::{ClusterSpec, CollectiveCostModel, CostModel};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=4, 1usize..=4)
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

/// The widest `arb_shape()` fleet. Generated per-rank tables are this big;
/// a narrower fleet reads the entries of the ranks it has.
const MAX_W: usize = 16;

/// One step of a generated SPMD job.
#[derive(Debug, Clone)]
enum Op {
    /// Rank `r` computes for `skews[r]` seconds.
    Advance(Vec<f64>),
    Barrier,
    /// Lane `src -> dst` carries `lanes[src * MAX_W + dst]` bytes.
    AllToAll(Vec<usize>),
    /// Rank `r` contributes `contribs[r]` bytes.
    AllGather(Vec<usize>),
}

/// Half of all payloads are empty, the rest up to a few hundred bytes.
fn arb_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 0usize..400]
}

fn arb_job() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        vec(0.0f64..1e-4, MAX_W).prop_map(Op::Advance),
        Just(Op::Barrier),
        vec(arb_len(), MAX_W * MAX_W).prop_map(Op::AllToAll),
        Just(Op::AllToAll(vec![0; MAX_W * MAX_W])),
        vec(arb_len(), MAX_W).prop_map(Op::AllGather),
    ];
    vec(op, 1..12)
}

/// `job` on the threaded reference world, every payload as long as the
/// op says: each rank's clock bits after the last op.
fn run_threaded(world: &CommWorld, job: &[Op]) -> Vec<u64> {
    world.run(|comm| {
        let (me, w) = (comm.rank().0, comm.world_size());
        for op in job {
            match op {
                Op::Advance(skews) => comm.advance(skews[me]),
                Op::Barrier => comm.barrier(),
                Op::AllToAll(lanes) => {
                    comm.all_to_all_v(
                        (0..w)
                            .map(|dst| vec![0u8; lanes[me * MAX_W + dst]])
                            .collect(),
                    );
                }
                Op::AllGather(contribs) => {
                    comm.all_gather_v(vec![0u8; contribs[me]]);
                }
            }
        }
        comm.now().to_bits()
    })
}

/// One op of a job on the lockstep kernel, which is handed the lengths of
/// the payloads [`run_threaded`] moves.
fn lockstep_op(fleet: &mut Lockstep, w: usize, op: &Op) {
    match op {
        Op::Advance(skews) => (0..w).for_each(|r| fleet.advance(r, skews[r])),
        Op::Barrier => fleet.barrier(),
        Op::AllToAll(lanes) => {
            let mut bytes: Vec<u64> = (0..w * w)
                .map(|lane| lanes[lane / w * MAX_W + lane % w] as u64)
                .collect();
            fleet.all_to_all_v(&mut bytes);
        }
        Op::AllGather(contribs) => {
            let bytes: Vec<u64> = contribs[..w].iter().map(|&n| n as u64).collect();
            fleet.all_gather_v(&bytes);
        }
    }
}

/// `job` on the lockstep kernel: `clocks[step][rank]`, as bits.
fn run_lockstep(fleet: &mut Lockstep, w: usize, job: &[Op]) -> Vec<Vec<u64>> {
    job.iter()
        .map(|op| {
            lockstep_op(fleet, w, op);
            (0..w).map(|r| fleet.now(r).to_bits()).collect()
        })
        .collect()
}

/// The Wilkes3 preset with every link's bandwidth scaled by `speedup`
/// (that is, every `beta` divided by it).
fn wilkes3_scaled(speedup: f64) -> CostModel {
    CostModel::new(
        LinkCost::from_latency_bandwidth(0.3e-6, 1.5e12 * speedup),
        LinkCost::from_latency_bandwidth(1.0e-6, 300.0e9 * speedup),
        LinkCost::from_latency_bandwidth(3.5e-6, 50.0e9 * speedup),
    )
    .with_alltoall_efficiency([1.0, 0.5, 0.16])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel against the message-passing world it replaces under the
    /// engine, fed the byte counts of the payloads that world moves: the
    /// same clocks to the bit and the same totals of all three ops after
    /// every op (each prefix of the job runs in a fresh world, whose
    /// ledger is read when its job ends).
    #[test]
    fn lockstep_matches_the_threaded_world_bit_for_bit((nodes, gpn) in arb_shape(), job in arb_job()) {
        let cluster = ClusterSpec::new(nodes, gpn).unwrap();
        let w = nodes * gpn;
        let mut fleet = Lockstep::new(cluster, CostModel::wilkes3());
        for (step, op) in job.iter().enumerate() {
            lockstep_op(&mut fleet, w, op);
            let world = CommWorld::new(cluster, CostModel::wilkes3());
            let clocks = run_threaded(&world, &job[..=step]);
            for (rank, &bits) in clocks.iter().enumerate() {
                prop_assert_eq!(fleet.now(rank).to_bits(), bits, "rank {} after step {}", rank, step);
            }
            for op in OpKind::ALL {
                prop_assert_eq!(
                    fleet.totals(op), world.stats().totals(op),
                    "{} after step {}", op, step
                );
            }
        }
    }

    #[test]
    fn faster_links_never_delay_any_rank(
        (nodes, gpn) in arb_shape(),
        job in arb_job(),
        speedup in 1.0f64..16.0,
    ) {
        let cluster = ClusterSpec::new(nodes, gpn).unwrap();
        let w = nodes * gpn;
        let slow = run_lockstep(&mut Lockstep::new(cluster, wilkes3_scaled(1.0)), w, &job);
        let fast = run_lockstep(&mut Lockstep::new(cluster, wilkes3_scaled(speedup)), w, &job);
        for (step, (slow, fast)) in slow.iter().zip(&fast).enumerate() {
            for (rank, (slow, fast)) in slow.iter().zip(fast).enumerate() {
                prop_assert!(
                    f64::from_bits(*fast) <= f64::from_bits(*slow),
                    "rank {} after step {}", rank, step
                );
            }
        }
    }
}
