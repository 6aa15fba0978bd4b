//! The token plane: how tokens rest on a rank and how they cross the wire.
//!
//! **At rest** a rank's tokens are one `Table`: a `Head` per row and one
//! flat `dim`-strided `Vec<f32>` of embeddings, so nothing in a pass
//! allocates per token.
//!
//! **On the wire** every copy of a token is charged [`frame_size`] bytes:
//! the true fp16 activation size of the model
//! (`ModelConfig::token_bytes()`), or what the copy's head and its
//! reduced-dimension (`sim_dim`) f32 embedding would take if that is more.
//! So the virtual-clock α–β accounting sees the real traffic volume, while
//! the rows themselves move as rows: only a lane's byte count reaches the
//! collective.
//!
//! **A hop** is a counting sort of rows. The router emits one
//! `(src, dst, row, slot)` per copy (`Wire::emit`); `Wire::scatter` counts
//! the copies per `(src, dst)` lane, gives every lane its contiguous range
//! of one staging table and copies each row into the next place of its
//! lane, in emission order, with the copy's slot in its head. The
//! Alltoall is charged `copies × frame_size` per lane
//! (`Wire::lane_bytes`, `every_lane_is_what_encode_returns`), and `Wire::deliver` appends to every table the
//! lanes addressed to it in source-rank order — behind the primaries it
//! held back, when asked to (`every_hop_delivers_the_naive_tables`).

/// What a copy of a token carries besides its embedding.
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
}

/// Wire size of a copy's head: id + home + domain + slot + embedding
/// length.
const HEADER: usize = 4 + 4 + 4 + 4 + 4;

/// Bytes one token occupies on the wire for a model whose activation is
/// `token_bytes` wide and whose simulated embedding has `sim_dim` floats.
pub fn frame_size(token_bytes: u64, sim_dim: usize) -> usize {
    (token_bytes as usize).max(HEADER + 4 * sim_dim)
}

/// The tokens resident on one rank: `heads[row]`, and `dim` floats per
/// row in one flat vector.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Table {
    dim: usize,
    heads: Vec<Head>,
    emb: Vec<f32>,
}

impl Table {
    /// An empty table of `dim`-float embeddings.
    pub(crate) fn new(dim: usize) -> Self {
        Table {
            dim,
            heads: Vec::new(),
            emb: Vec::new(),
        }
    }

    /// Rows held.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Drop every row; the allocations stay.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.emb.clear();
    }

    /// The head of every row.
    pub(crate) fn heads(&self) -> &[Head] {
        &self.heads
    }

    /// The embedding of `row`.
    pub(crate) fn row(&self, row: usize) -> &[f32] {
        &self.emb[row * self.dim..][..self.dim]
    }

    /// The embedding of `row`, for the expert kernel's output.
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [f32] {
        &mut self.emb[row * self.dim..][..self.dim]
    }

    /// Append one row; `emb` must yield exactly `dim` floats.
    pub(crate) fn push(&mut self, head: Head, emb: impl Iterator<Item = f32>) {
        self.heads.push(head);
        self.emb.extend(emb);
        assert_eq!(
            self.emb.len(),
            self.heads.len() * self.dim,
            "embedding is not {} floats",
            self.dim
        );
    }

    /// Keep the primary (`slot == 0`) rows, in order.
    pub(crate) fn retain_primaries(&mut self) {
        let mut kept = 0;
        for row in 0..self.heads.len() {
            if self.heads[row].slot != 0 {
                continue;
            }
            if kept != row {
                self.heads[kept] = self.heads[row];
                self.emb
                    .copy_within(row * self.dim..(row + 1) * self.dim, kept * self.dim);
            }
            kept += 1;
        }
        self.heads.truncate(kept);
        self.emb.truncate(kept * self.dim);
    }

    /// Merge top-2 copies where they met: every primary row is blended in
    /// place with its token's secondary row (when that is here too), then
    /// only the primaries stay. `primary_row` is scratch: token id → row.
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
        for (row, head) in self.heads.iter().enumerate() {
            let primary = primary_row.get(head.id as usize);
            let Some(&primary) = primary.filter(|&&p| head.slot != 0 && p != ABSENT) else {
                continue;
            };
            let (p, s) = (primary as usize * self.dim, row * self.dim);
            for i in 0..self.dim {
                self.emb[p + i] =
                    TOP2_WEIGHTS.0 * self.emb[p + i] + TOP2_WEIGHTS.1 * self.emb[s + i];
            }
        }
        self.retain_primaries();
    }
}

/// Gate mixing weights for top-2 (primary, secondary). The paper's models
/// use per-token softmax gate scores; a fixed representative split keeps
/// the simulation deterministic without changing any communication.
const TOP2_WEIGHTS: (f32, f32) = (0.7, 0.3);

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
/// the rows of the hop last scattered, lane by lane.
#[derive(Debug)]
pub(crate) struct Wire {
    w: usize,
    frame: usize,
    /// The copies emitted since the last scatter, in emission order.
    outbound: Vec<Outbound>,
    /// The last scatter's rows: lane `src * w + dst` is rows
    /// `starts[lane]..starts[lane + 1]`.
    staged: Table,
    starts: Vec<usize>,
    /// The last scatter's bytes per lane, `bytes[src * w + dst]`.
    bytes: Vec<u64>,
    /// Scatter scratch: the next free row of each lane.
    cursor: Vec<usize>,
}

impl Wire {
    /// A wire for `w` ranks exchanging `dim`-float rows, each copy
    /// charged `frame` bytes.
    pub(crate) fn new(w: usize, frame: usize, dim: usize) -> Self {
        Wire {
            w,
            frame,
            outbound: Vec::new(),
            staged: Table::new(dim),
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
    /// `(src, dst)` lane, then each copy is written into the next row of
    /// its lane. `tables[src]` is what `src`'s rows index.
    pub(crate) fn scatter(&mut self, tables: &[Table]) {
        let (w, dim) = (self.w, self.staged.dim);
        assert!(
            tables.len() == w && tables.iter().all(|t| t.dim == dim),
            "one table of {dim}-float rows per rank"
        );
        self.starts.fill(0);
        for copy in &self.outbound {
            self.starts[copy.src as usize * w + copy.dst as usize + 1] += 1;
        }
        for lane in 0..w * w {
            self.bytes[lane] = (self.starts[lane + 1] * self.frame) as u64;
            self.starts[lane + 1] += self.starts[lane];
        }
        let total = self.starts[w * w];
        self.staged.heads.resize(total, Head::default());
        self.staged.emb.resize(total * dim, 0.0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..w * w]);
        for copy in self.outbound.drain(..) {
            let at = &mut self.cursor[copy.src as usize * w + copy.dst as usize];
            let (table, row) = (&tables[copy.src as usize], copy.row as usize);
            self.staged.heads[*at] = Head {
                slot: copy.slot,
                ..table.heads[row]
            };
            self.staged.row_mut(*at).copy_from_slice(table.row(row));
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
        let (w, dim) = (self.w, self.staged.dim);
        for (dst, table) in tables.iter_mut().enumerate() {
            if hold_primaries {
                table.retain_primaries();
            } else {
                table.clear();
            }
            for src in 0..w {
                let lane = src * w + dst;
                let (from, to) = (self.starts[lane], self.starts[lane + 1]);
                table.heads.extend_from_slice(&self.staged.heads[from..to]);
                table
                    .emb
                    .extend_from_slice(&self.staged.emb[from * dim..to * dim]);
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

    #[test]
    #[should_panic(expected = "embedding is not 4 floats")]
    fn an_oversize_embedding_is_rejected_on_every_profile() {
        // Unchecked, the fifth float would shift every later row of the
        // table by one; the check is an `assert!`, so a release build
        // makes it too.
        Table::new(4).push(Head::default(), [0.0; 5].into_iter());
    }

    /// A table's rows: each head, and its embedding's bits.
    fn rows_of(table: &Table) -> Vec<(Head, Vec<u32>)> {
        (table.heads().iter().enumerate())
            .map(|(row, &head)| (head, table.row(row).iter().map(|v| v.to_bits()).collect()))
            .collect()
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
        /// its primaries — every table after a hop is, bit for bit, the
        /// naive reference: the primaries it held, then for `src`
        /// ascending the copies emitted to it, in emission order, each
        /// with its copy's slot and its source row's floats. Each hop
        /// grows the Alltoall ledger by `copies × frame_size` per lane, on
        /// that lane's link class.
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
            let mut tables: Vec<Table> = (0..w).map(|_| Table::new(dim)).collect();
            let mut wire = Wire::new(w, frame, dim);
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
                    };
                    next_id += 1;
                    let emb: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0..4.0f32)).collect();
                    tables[live[rng.gen_range(0..live.len())]].push(head, emb.into_iter());
                }
                // The naive reference: what each table holds back, then
                // `emitted[dst][src]` in source-rank order.
                let mut expected: Vec<Vec<(Head, Vec<u32>)>> = tables
                    .iter()
                    .map(|t| rows_of(t).into_iter().filter(|r| hold && r.0.slot == 0).collect())
                    .collect();
                let mut emitted = vec![vec![Vec::new(); w]; w];
                let mut sent = fleet.totals(OpKind::Alltoall).sent;
                for (src, table) in tables.iter().enumerate() {
                    for (row, (head, bits)) in rows_of(table).into_iter().enumerate() {
                        for slot in 0..k {
                            if rng.gen_range(0..4) == 0 {
                                continue;
                            }
                            let dst = live[rng.gen_range(0..live.len())];
                            wire.emit(src, dst, row, slot);
                            emitted[dst][src].push((Head { slot, ..head }, bits.clone()));
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
                        &rows_of(table), &expected[dst],
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
        /// before — and a frame holds at least the head and the floats of
        /// the row it stands for.
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
            let mut tables: Vec<Table> = (0..w).map(|_| Table::new(dim)).collect();
            let mut wire = Wire::new(w, frame, dim);
            for fresh in hops {
                for id in 0..fresh as u32 {
                    let head = Head { id, home: 0, domain: 0, slot: 0 };
                    let emb: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0..4.0f32)).collect();
                    tables[rng.gen_range(0..w)].push(head, emb.into_iter());
                }
                let mut copies = vec![0u64; w * w];
                for (src, table) in tables.iter().enumerate() {
                    for row in 0..table.len() {
                        for slot in 0..k {
                            // Some rows send nothing, so lanes also empty.
                            if rng.gen_range(0..3) == 0 {
                                continue;
                            }
                            let dst = rng.gen_range(0..w);
                            wire.emit(src, dst, row, slot);
                            copies[src * w + dst] += 1;
                        }
                    }
                }
                wire.scatter(&tables);
                let want: Vec<u64> = copies.iter().map(|&c| c * frame as u64).collect();
                prop_assert_eq!(wire.lane_bytes(), &want[..], "a hop of {} fresh rows", fresh);
                wire.deliver(&mut tables, false);
                // Keep the tables small: the next hop starts from what
                // this one delivered, its primaries only.
                tables.iter_mut().for_each(Table::retain_primaries);
            }
        }

        /// `merge_top2` against the owned-token merge it replaced: every
        /// primary blended with the secondary of its id if one is here,
        /// the primaries kept in order.
        #[test]
        fn merge_top2_is_the_map_merge(
            copies in proptest::collection::vec((0u32..40, 0u32..2), 0..60),
            dim in 0usize..6,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = Table::new(dim);
            let mut seen = std::collections::BTreeSet::new();
            for (id, slot) in copies {
                // At most one copy per (token, slot), in any order.
                if seen.insert((id, slot)) {
                    let head = Head { id, home: 0, domain: 0, slot };
                    table.push(head, (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)));
                }
            }
            let (primaries, secondaries): (Vec<_>, Vec<_>) = (0..table.len())
                .map(|row| (table.heads()[row], table.row(row).to_vec()))
                .partition(|(head, _)| head.slot == 0);
            let mut sec: BTreeMap<u32, Vec<f32>> =
                secondaries.into_iter().map(|(head, emb)| (head.id, emb)).collect();
            let expected: Vec<(Head, Vec<u32>)> = primaries
                .into_iter()
                .map(|(head, mut emb)| {
                    if let Some(s) = sec.remove(&head.id) {
                        for (a, b) in emb.iter_mut().zip(s.iter()) {
                            *a = TOP2_WEIGHTS.0 * *a + TOP2_WEIGHTS.1 * b;
                        }
                    }
                    (head, emb.iter().map(|v| v.to_bits()).collect())
                })
                .collect();
            table.merge_top2(&mut Vec::new());
            prop_assert_eq!(rows_of(&table), expected);
        }
    }
}
