//! The token plane: how tokens rest on a rank and how they cross the wire.
//!
//! **At rest** a rank's tokens are one `Table`: a `Head` per row, so
//! nothing in a pass allocates per token. A head's `word` is the token's
//! provenance — its origin, every `(layer, expert)` that ran it and every
//! top-2 copy merged into it, folded in order — which is what a run
//! computes and what [`crate::InferenceReport::output_digest`] hashes.
//!
//! **On the wire** every copy of a token is charged [`frame_size`] bytes:
//! the true fp16 activation size of the model
//! (`ModelConfig::token_bytes()`), or what a head and a reduced-dimension
//! (`sim_dim`) f32 embedding would take if that is more. So the
//! virtual-clock α–β accounting sees the real traffic volume, while the
//! rows themselves move as heads: only a lane's byte count reaches the
//! collective.
//!
//! **A hop** is a counting sort of rows. The router emits one
//! `(src, dst, row, slot)` per copy (`Wire::emit`); `Wire::scatter` counts
//! the copies per `(src, dst)` lane, gives every lane its contiguous range
//! of one staging vector and copies each head into the next place of its
//! lane, in emission order, with the copy's slot. The Alltoall is charged
//! `copies × frame_size` per lane (`Wire::lane_bytes`,
//! `every_lane_is_what_encode_returns`), and `Wire::deliver` appends to
//! every table the lanes addressed to it in source-rank order — behind
//! the primaries it held back, when asked to
//! (`every_hop_delivers_the_naive_tables`).

use crate::report::fnv1a;

/// One copy of a token.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Head {
    /// Global token id within the current iteration.
    pub(crate) id: u32,
    /// Home rank (where the request lives, data-parallel).
    pub(crate) home: u32,
    /// Corpus domain of the token.
    pub(crate) domain: u32,
    /// Which of the token's top-k experts this copy targets (0 = primary).
    /// Under top-1 gating this is always 0.
    pub(crate) slot: u32,
    /// The token's provenance, built with [`fold`].
    pub(crate) word: u64,
}

/// `word` with `x` folded in: one [`fnv1a`] step over `x`'s
/// little-endian bytes. Order-sensitive, so a provenance word records
/// the sequence of what was folded, not just the set.
pub(crate) fn fold(word: u64, x: u64) -> u64 {
    fnv1a(word, &x.to_le_bytes())
}

/// Wire size of a frame's header in the wire model: id + home + domain
/// + slot + embedding length.
const HEADER: usize = 4 + 4 + 4 + 4 + 4;

/// Bytes one token occupies on the wire for a model whose activation is
/// `token_bytes` wide and whose simulated embedding has `sim_dim` floats.
pub fn frame_size(token_bytes: u64, sim_dim: usize) -> usize {
    (token_bytes as usize).max(HEADER + 4 * sim_dim)
}

/// The tokens resident on one rank: one head per row.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Table {
    heads: Vec<Head>,
}

impl Table {
    /// Rows held.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Drop every row; the allocation stays.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
    }

    /// The head of every row.
    pub(crate) fn heads(&self) -> &[Head] {
        &self.heads
    }

    /// The head of every row, for the expert stage to fold into.
    pub(crate) fn heads_mut(&mut self) -> &mut [Head] {
        &mut self.heads
    }

    /// Append one row.
    pub(crate) fn push(&mut self, head: Head) {
        self.heads.push(head);
    }

    /// Keep the primary (`slot == 0`) rows, in order.
    pub(crate) fn retain_primaries(&mut self) {
        self.heads.retain(|head| head.slot == 0);
    }

    /// Merge top-2 copies where they met: every primary row's word has
    /// its token's secondary word folded in (when that row is here too),
    /// then only the primaries stay. `primary_row` is scratch: token id →
    /// row.
    pub(crate) fn merge_top2(&mut self, primary_row: &mut Vec<u32>) {
        const ABSENT: u32 = u32::MAX;
        primary_row.clear();
        for (row, head) in self.heads.iter().enumerate() {
            if head.slot == 0 {
                let id = head.id as usize;
                if primary_row.len() <= id {
                    primary_row.resize(id + 1, ABSENT);
                }
                primary_row[id] = row as u32;
            }
        }
        for row in 0..self.heads.len() {
            let head = self.heads[row];
            let primary = primary_row.get(head.id as usize);
            let Some(&primary) = primary.filter(|&&p| head.slot != 0 && p != ABSENT) else {
                continue;
            };
            let word = &mut self.heads[primary as usize].word;
            *word = fold(*word, head.word);
        }
        self.retain_primaries();
    }
}

/// One copy of a token bound for a lane: row `row` of `src`'s table goes
/// to `dst` with `slot` in its head.
#[derive(Debug, Clone, Copy)]
struct Outbound {
    src: u32,
    dst: u32,
    row: u32,
    slot: u32,
}

/// The wire of a `w`-rank fleet: the copies emitted for the next hop, and
/// the heads of the hop last scattered, lane by lane.
#[derive(Debug)]
pub(crate) struct Wire {
    w: usize,
    frame: usize,
    /// The copies emitted since the last scatter, in emission order.
    outbound: Vec<Outbound>,
    /// The last scatter's heads: lane `src * w + dst` is
    /// `staged[starts[lane]..starts[lane + 1]]`.
    staged: Vec<Head>,
    starts: Vec<usize>,
    /// The last scatter's bytes per lane, `bytes[src * w + dst]`.
    bytes: Vec<u64>,
    /// Scatter scratch: the next free place of each lane.
    cursor: Vec<usize>,
}

impl Wire {
    /// A wire for `w` ranks, each copy charged `frame` bytes.
    pub(crate) fn new(w: usize, frame: usize) -> Self {
        Wire {
            w,
            frame,
            outbound: Vec::new(),
            staged: Vec::new(),
            starts: vec![0; w * w + 1],
            bytes: vec![0; w * w],
            cursor: Vec::with_capacity(w * w),
        }
    }

    /// Wire size of one copy.
    pub(crate) fn frame(&self) -> usize {
        self.frame
    }

    /// Queue a copy of row `row` of `src`'s table for `dst`, `slot` in its
    /// head. A lane carries its copies in the order they were emitted.
    pub(crate) fn emit(&mut self, src: usize, dst: usize, row: usize, slot: u32) {
        self.outbound.push(Outbound {
            src: src as u32,
            dst: dst as u32,
            row: row as u32,
            slot,
        });
    }

    /// Lay the emitted copies out as lanes: one count pass sizes every
    /// `(src, dst)` lane, then each copy is written into the next place of
    /// its lane. `tables[src]` is what `src`'s rows index.
    pub(crate) fn scatter(&mut self, tables: &[Table]) {
        let w = self.w;
        assert_eq!(tables.len(), w, "one table per rank");
        self.starts.fill(0);
        for copy in &self.outbound {
            self.starts[copy.src as usize * w + copy.dst as usize + 1] += 1;
        }
        for lane in 0..w * w {
            self.bytes[lane] = (self.starts[lane + 1] * self.frame) as u64;
            self.starts[lane + 1] += self.starts[lane];
        }
        self.staged.resize(self.starts[w * w], Head::default());
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..w * w]);
        for copy in self.outbound.drain(..) {
            let at = &mut self.cursor[copy.src as usize * w + copy.dst as usize];
            self.staged[*at] = Head {
                slot: copy.slot,
                ..tables[copy.src as usize].heads[copy.row as usize]
            };
            *at += 1;
        }
    }

    /// The bytes each lane of the hop last scattered carries,
    /// `[src * w + dst]`: what `Lockstep::all_to_all_v` is charged.
    pub(crate) fn lane_bytes(&self) -> &[u64] {
        &self.bytes
    }

    /// Deliver the hop last scattered: every table is cleared — or keeps
    /// only its primaries, if `hold_primaries` — then appends the lanes
    /// addressed to it, in source-rank order.
    pub(crate) fn deliver(&self, tables: &mut [Table], hold_primaries: bool) {
        let w = self.w;
        for (dst, table) in tables.iter_mut().enumerate() {
            if hold_primaries {
                table.retain_primaries();
            } else {
                table.clear();
            }
            for src in 0..w {
                let lane = src * w + dst;
                let (from, to) = (self.starts[lane], self.starts[lane + 1]);
                table.heads.extend_from_slice(&self.staged[from..to]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_collectives::{Lockstep, OpKind};
    use exflow_topology::{ClusterSpec, CostModel, Rank};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn frame_size_respects_true_activation_width() {
        // GPT-M: 1024 dims of fp16 = 2048 bytes, far above header needs.
        assert_eq!(frame_size(2048, 16), 2048);
        // Tiny test models never shrink below what the header needs.
        assert!(frame_size(8, 32) >= HEADER + 128);
    }

    /// One hop as the engine's `exchange` runs it: the copies emitted
    /// since the last hop travel, and every table becomes what arrived
    /// for it — behind its primaries, if `hold_primaries`.
    fn hop(wire: &mut Wire, tables: &mut [Table], fleet: &mut Lockstep, hold_primaries: bool) {
        wire.scatter(tables);
        fleet.all_to_all_v(wire.lane_bytes());
        wire.deliver(tables, hold_primaries);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hop oracle. Over several hops on one wire — lanes growing,
        /// shrinking and emptying between them, a quarter of the ranks
        /// dead, deliveries that clear the table and deliveries that hold
        /// its primaries — every table after a hop is, head for head and
        /// word for word, the naive reference: the primaries it held,
        /// then for `src` ascending the copies emitted to it, in emission
        /// order, each with its copy's slot and its source row's word.
        /// Each hop grows the Alltoall ledger by `copies × frame_size` per
        /// lane, on that lane's link class.
        #[test]
        fn every_hop_delivers_the_naive_tables(
            (nodes, gpn) in (1usize..=3, 1usize..=3),
            (dim, width) in (0usize..10, 0u64..160),
            k in 1u32..=2,
            hops in proptest::collection::vec(
                (prop_oneof![Just(0usize), 0usize..=120], 0u8..4, 0u8..2),
                2..6,
            ),
            dead in proptest::collection::vec(0u8..4, 9),
            seed in 0u64..1_000_000,
        ) {
            let cluster = ClusterSpec::new(nodes, gpn).unwrap();
            let w = cluster.world_size();
            let frame = frame_size(width, dim);
            let mut rng = StdRng::seed_from_u64(seed);
            // A quarter of the ranks are dead: they hold nothing and are
            // sent nothing, but have lanes all the same.
            let mut live: Vec<usize> = (0..w).filter(|&r| dead[r] > 0).collect();
            if live.is_empty() {
                live.push(0);
            }
            let mut tables = vec![Table::default(); w];
            let mut wire = Wire::new(w, frame);
            let mut fleet = Lockstep::new(cluster, CostModel::wilkes3());
            let mut next_id = 0u32;
            for (fresh, keep, hold) in hops {
                let hold = hold == 1;
                // Most hops start from what the last one delivered; the
                // rest (and any that grew too large) from nothing.
                if keep == 0 || tables.iter().map(Table::len).sum::<usize>() > 1000 {
                    tables.iter_mut().for_each(Table::clear);
                }
                for _ in 0..fresh {
                    let head = Head {
                        id: next_id,
                        home: rng.gen_range(0..w as u32),
                        domain: rng.gen_range(0..8),
                        slot: rng.gen_range(0..k),
                        word: rng.gen(),
                    };
                    next_id += 1;
                    tables[live[rng.gen_range(0..live.len())]].push(head);
                }
                // The naive reference: what each table holds back, then
                // `emitted[dst][src]` in source-rank order.
                let mut expected: Vec<Vec<Head>> = tables
                    .iter()
                    .map(|t| t.heads().iter().copied().filter(|h| hold && h.slot == 0).collect())
                    .collect();
                let mut emitted = vec![vec![Vec::new(); w]; w];
                let mut sent = fleet.totals(OpKind::Alltoall).sent;
                for (src, table) in tables.iter().enumerate() {
                    for (row, &head) in table.heads().iter().enumerate() {
                        for slot in 0..k {
                            if rng.gen_range(0..4) == 0 {
                                continue;
                            }
                            let dst = live[rng.gen_range(0..live.len())];
                            wire.emit(src, dst, row, slot);
                            emitted[dst][src].push(Head { slot, ..head });
                            let class = cluster.link_class(Rank(src), Rank(dst));
                            sent.add(class, frame as u64);
                        }
                    }
                }
                for (want, from) in expected.iter_mut().zip(emitted) {
                    want.extend(from.into_iter().flatten());
                }
                hop(&mut wire, &mut tables, &mut fleet, hold);
                for (dst, table) in tables.iter().enumerate() {
                    prop_assert_eq!(
                        table.heads(), &expected[dst][..],
                        "rank {} after a hop of {} fresh rows", dst, fresh
                    );
                }
                prop_assert_eq!(fleet.totals(OpKind::Alltoall).sent, sent);
            }
        }

        /// Each lane the Alltoall is charged is the length a frame
        /// encoding of its copies has: after every scatter, entry
        /// `src * w + dst` of `lane_bytes` is the copies emitted from
        /// `src` to `dst` since the last scatter, times `frame_size` —
        /// zero for an empty lane, nothing carried over from the hop
        /// before — and a frame holds at least the header and the
        /// `sim_dim` floats of the embedding it stands for. Every copy
        /// arrives with its source row's word.
        #[test]
        fn every_lane_is_what_encode_returns(
            w in 1usize..=8,
            (dim, width) in (0usize..10, 0u64..160),
            k in 1u32..=2,
            hops in proptest::collection::vec(prop_oneof![Just(0usize), 0usize..=120], 2..6),
            seed in 0u64..1_000_000,
        ) {
            let frame = frame_size(width, dim);
            prop_assert!(frame >= HEADER + 4 * dim);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tables = vec![Table::default(); w];
            let mut wire = Wire::new(w, frame);
            for fresh in hops {
                for id in 0..fresh as u32 {
                    let head = Head { id, word: rng.gen(), ..Head::default() };
                    tables[rng.gen_range(0..w)].push(head);
                }
                let mut copies = vec![0u64; w * w];
                let mut words = vec![Vec::new(); w];
                for (src, table) in tables.iter().enumerate() {
                    for (row, head) in table.heads().iter().enumerate() {
                        for slot in 0..k {
                            // Some rows send nothing, so lanes also empty.
                            if rng.gen_range(0..3) == 0 {
                                continue;
                            }
                            let dst = rng.gen_range(0..w);
                            wire.emit(src, dst, row, slot);
                            copies[src * w + dst] += 1;
                            words[dst].push(head.word);
                        }
                    }
                }
                wire.scatter(&tables);
                let want: Vec<u64> = copies.iter().map(|&c| c * frame as u64).collect();
                prop_assert_eq!(wire.lane_bytes(), &want[..], "a hop of {} fresh rows", fresh);
                wire.deliver(&mut tables, false);
                // Emission ran `src` ascending, so each table's words
                // arrive in emission order.
                for (table, want) in tables.iter().zip(words) {
                    let got: Vec<u64> = table.heads().iter().map(|h| h.word).collect();
                    prop_assert_eq!(got, want);
                }
                // Keep the tables small: the next hop starts from what
                // this one delivered, its primaries only.
                tables.iter_mut().for_each(Table::retain_primaries);
            }
        }

        /// `merge_top2` against the owned-token merge it replaced: every
        /// primary's word with the word of its id's secondary folded in,
        /// if one is here, the primaries kept in order.
        #[test]
        fn merge_top2_is_the_map_merge(
            copies in proptest::collection::vec((0u32..40, 0u32..2), 0..60),
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = Table::default();
            let mut seen = std::collections::BTreeSet::new();
            for (id, slot) in copies {
                // At most one copy per (token, slot), in any order.
                if seen.insert((id, slot)) {
                    table.push(Head { id, slot, word: rng.gen(), ..Head::default() });
                }
            }
            let (primaries, secondaries): (Vec<Head>, Vec<Head>) =
                table.heads().iter().partition(|head| head.slot == 0);
            let mut sec: BTreeMap<u32, u64> =
                secondaries.into_iter().map(|head| (head.id, head.word)).collect();
            let expected: Vec<Head> = primaries
                .into_iter()
                .map(|head| match sec.remove(&head.id) {
                    Some(s) => Head { word: fnv1a(head.word, &s.to_le_bytes()), ..head },
                    None => head,
                })
                .collect();
            table.merge_top2(&mut Vec::new());
            prop_assert_eq!(table.heads(), &expected[..]);
        }
    }
}
