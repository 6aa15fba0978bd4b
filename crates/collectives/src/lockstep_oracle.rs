//! Test oracle for [`Lockstep`]'s collectives: the formulation they
//! replaced — one ledger record per rank, every cell of the (w − 1) × w
//! AllGatherV ring priced with a link lookup, the AlltoallV's lanes only
//! read — and the property that holds the fleet to it bit for bit, in
//! clocks and in ledger.

use proptest::prelude::*;

use super::*;
use crate::record::CommRecord;

/// The three collectives as one walk over every lane, rank and ring step.
pub(super) struct Reference {
    cost: CostModel,
    /// `class[src * w + dst]`: the link a lane crosses.
    class: Vec<LinkClass>,
    clocks: Vec<VirtualClock>,
    ledger: Ledger,
}

impl Reference {
    pub(super) fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        let w = cluster.world_size();
        let class = (0..w * w)
            .map(|lane| cluster.link_class(Rank(lane / w), Rank(lane % w)))
            .collect();
        Reference {
            cost,
            class,
            clocks: vec![VirtualClock::new(); w],
            ledger: Ledger::default(),
        }
    }

    pub(super) fn advance(&mut self, rank: usize, dt: f64) {
        self.clocks[rank].advance(dt);
    }

    /// Every clock moves to the fleet's max; one record per rank.
    pub(super) fn barrier(&mut self) {
        let max = self
            .clocks
            .iter()
            .map(VirtualClock::now)
            .fold(0.0, f64::max);
        for clock in &mut self.clocks {
            clock.wait_until(max);
            self.ledger.record(CommRecord {
                op: OpKind::Barrier,
                sent: BytesByClass::default(),
            });
        }
    }

    /// `bytes[src * w + dst]` bytes travel from `src` to `dst`. Each
    /// sender walks all `w` of its lanes in ring order from itself,
    /// advancing at a non-empty one and stamping every one but its own
    /// with its clock as it then stands; each receiver waits for the
    /// latest stamp addressed to it.
    pub(super) fn all_to_all_v(&mut self, bytes: &[u64]) {
        let w = self.clocks.len();
        assert_eq!(bytes.len(), w * w);
        let mut latest_arrival = vec![0.0f64; w];
        let lanes = bytes.chunks_exact(w).zip(self.class.chunks_exact(w));
        for (src, (row, class)) in lanes.enumerate() {
            let clock = &mut self.clocks[src];
            let mut sent = BytesByClass::default();
            for dst in (src..w).chain(0..src) {
                if row[dst] > 0 {
                    clock.advance(self.cost.alltoall_transfer_time(class[dst], row[dst]));
                    sent.add(class[dst], row[dst]);
                }
                if dst != src {
                    latest_arrival[dst] = latest_arrival[dst].max(clock.now());
                }
            }
            self.ledger.record(CommRecord {
                op: OpKind::Alltoall,
                sent,
            });
        }
        for (clock, &arrival) in self.clocks.iter_mut().zip(&latest_arrival) {
            clock.wait_until(arrival);
        }
    }

    /// The `w - 1`-step ring: at step `s` rank `r` forwards block
    /// `(r - s) mod w` to `r + 1`, then waits for its left neighbour's
    /// stamp of the same step; one record per rank.
    pub(super) fn all_gather_v(&mut self, bytes: &[u64]) {
        let w = self.clocks.len();
        assert_eq!(bytes.len(), w);
        let mut sent = vec![BytesByClass::default(); w];
        let mut stamps = vec![0.0f64; w];
        for step in 0..w - 1 {
            for r in 0..w {
                let class = self.class[r * w + (r + 1) % w];
                let block = bytes[(r + w - step) % w];
                self.clocks[r].advance(self.cost.transfer_time(class, block));
                sent[r].add(class, block);
                stamps[r] = self.clocks[r].now();
            }
            for r in 0..w {
                self.clocks[r].wait_until(stamps[(r + w - 1) % w]);
            }
        }
        for sent in sent {
            self.ledger.record(CommRecord {
                op: OpKind::AllGather,
                sent,
            });
        }
    }
}

/// SplitMix64: the generated inputs' stream, from one drawn seed.
pub(super) fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e4b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated op, expanded from its seed for a fleet of `w`.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Every live rank computes for a random time, some of them for none.
    Advance(u64),
    Barrier,
    /// Lanes between live ranks non-empty with probability
    /// `density / 8`, self lanes with probability `own / 4`.
    AllToAll {
        seed: u64,
        density: u8,
        own: u8,
    },
    /// Live ranks contribute a block, a quarter of them an empty one.
    AllGather(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1 << 62).prop_map(Op::Advance),
        Just(Op::Barrier),
        (0u64..1 << 62, 0u8..=8, 0u8..=4).prop_map(|(seed, density, own)| Op::AllToAll {
            seed,
            density,
            own
        }),
        (0u64..1 << 62).prop_map(Op::AllGather),
    ]
}

/// A byte count from tiny to a few MiB, so both α and β terms matter.
pub(super) fn block(state: &mut u64) -> u64 {
    1 + mix(state) % (1 << (1 + mix(state) % 23))
}

/// The lane matrix `(src, dst) -> bytes` of `op`, dead ranks' rows and
/// columns empty.
fn lanes(w: usize, live: &[bool], seed: u64, density: u8, own: u8) -> Vec<u64> {
    let mut state = seed;
    (0..w * w)
        .map(|lane| {
            let (src, dst) = (lane / w, lane % w);
            let odds = if src == dst {
                2 * u64::from(own)
            } else {
                u64::from(density)
            };
            let draw = mix(&mut state) % 8;
            if live[src] && live[dst] && draw < odds {
                block(&mut state)
            } else {
                0
            }
        })
        .collect()
}

/// Run `op` on both sides.
fn apply(fleet: &mut Lockstep, reference: &mut Reference, live: &[bool], op: Op) {
    let w = live.len();
    match op {
        Op::Advance(seed) => {
            let mut state = seed;
            for (rank, _) in live.iter().enumerate().filter(|(_, &up)| up) {
                let dt = match mix(&mut state) % 4 {
                    0 => 0.0,
                    _ => (mix(&mut state) % 1_000_000) as f64 * 1e-11,
                };
                fleet.advance(rank, dt);
                reference.advance(rank, dt);
            }
        }
        Op::Barrier => {
            fleet.barrier();
            reference.barrier();
        }
        Op::AllToAll { seed, density, own } => {
            let bytes = lanes(w, live, seed, density, own);
            let mut sent = bytes.clone();
            fleet.all_to_all_v(&mut sent);
            assert!(sent.iter().all(|&n| n == 0), "a lane left unsent");
            reference.all_to_all_v(&bytes);
        }
        Op::AllGather(seed) => {
            let mut state = seed;
            let bytes: Vec<u64> = live
                .iter()
                .map(|&up| match mix(&mut state) % 4 {
                    _ if !up => 0,
                    0 => 0,
                    _ => block(&mut state),
                })
                .collect();
            fleet.all_gather_v(&bytes);
            reference.all_gather_v(&bytes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fleet against [`Reference`], after every op of a random job:
    /// every clock to the bit and every op's totals. Shapes run from
    /// 1 × 1 to 16 × 4, some ranks dead (no lanes, empty blocks, no
    /// compute), and the clocks start pre-advanced and skewed.
    #[test]
    fn the_fleet_matches_its_reference_bit_for_bit(
        nodes in 1usize..=16,
        gpn in 1usize..=4,
        dead in 0u64..1 << 62,
        skew in 0u64..1 << 62,
        job in proptest::collection::vec(arb_op(), 1..16),
    ) {
        let cluster = ClusterSpec::new(nodes, gpn).unwrap();
        let w = cluster.world_size();
        // Up to a quarter of the ranks dead, never all of them.
        let mut live: Vec<bool> = (0..w).map(|r| (dead >> (r % 64)) & 3 != 0).collect();
        live[(dead % w as u64) as usize] = true;
        let mut fleet = Lockstep::new(cluster, CostModel::wilkes3());
        let mut reference = Reference::new(cluster, CostModel::wilkes3());
        apply(&mut fleet, &mut reference, &vec![true; w], Op::Advance(skew));
        for (step, &op) in job.iter().enumerate() {
            apply(&mut fleet, &mut reference, &live, op);
            for rank in 0..w {
                prop_assert_eq!(
                    fleet.now(rank).to_bits(),
                    reference.clocks[rank].now().to_bits(),
                    "rank {} after step {} ({:?})", rank, step, op
                );
            }
            for kind in OpKind::ALL {
                prop_assert_eq!(
                    fleet.totals(kind), reference.ledger.totals(kind),
                    "{} after step {} ({:?})", kind, step, op
                );
            }
        }
    }
}
