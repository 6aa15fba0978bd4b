//! The token plane: how tokens rest on a rank and how they cross the wire.
//!
//! **The frame.** Each token crossing the wire occupies a frame of exactly
//! `ModelConfig::token_bytes()` bytes — the true fp16 activation size of
//! the model — so the virtual-clock α–β accounting sees the real traffic
//! volume. Inside the frame sit the token's [`Head`], its embedding length
//! and its reduced-dimension (`sim_dim`) f32 embedding; the remainder is
//! zero padding standing in for the activation elements we do not
//! simulate. [`write()`] and [`read`] are the only code that knows the
//! layout: [`encode`] / [`decode`] are loops over them, and so are the
//! two halves of a hop below.
//!
//! **At rest** a rank's tokens are one `Table`: a `Head` per row and one
//! flat `dim`-strided `Vec<f32>` of embeddings, so nothing in a pass
//! allocates per token.
//!
//! **A hop** is a counting-sort scatter into real bytes. The router emits
//! one `(src, dst, row, slot)` per copy (`Wire::emit`);
//! `Wire::scatter` counts the copies per `(src, dst)` lane, gives every
//! lane its contiguous range of one arena and writes each copy into its
//! frame, in emission order. The arena is zeroed when it is created, grows
//! only with zeros and is written only through [`write()`], which touches
//! the head and the embedding and nothing else — every frame of one arena
//! carries the same `dim`, so the padding stays zero for the arena's life
//! and each lane is, byte for byte, what [`encode`] returns for the same
//! tokens in the same order (`every_lane_is_what_encode_returns`). The
//! collective is handed the lanes as `&[u8]`; `Table::extend_from_lane`
//! reads a delivery straight into the destination table.

/// A token as one owned value: what the [`encode`] / [`decode`] codec
/// speaks. The engine keeps tokens in `Table`s instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Global token id within the current iteration.
    pub id: u32,
    /// Home rank (where the request lives, data-parallel).
    pub home: u32,
    /// Corpus domain of the token.
    pub domain: u32,
    /// Which of the token's top-k experts this copy targets (0 = primary).
    /// Under top-1 gating this is always 0.
    pub slot: u32,
    /// Reduced-dimension embedding the expert FFNs actually transform.
    pub emb: Vec<f32>,
}

/// What a copy of a token carries besides its embedding; the fields are
/// [`Token`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    /// Global token id within the current iteration.
    pub id: u32,
    /// Home rank.
    pub home: u32,
    /// Corpus domain.
    pub domain: u32,
    /// Which of the token's top-k experts this copy targets.
    pub slot: u32,
}

impl Token {
    /// The token a frame (or a table row) holds: `head` and its embedding.
    fn new(head: Head, emb: Vec<f32>) -> Self {
        Token {
            id: head.id,
            home: head.home,
            domain: head.domain,
            slot: head.slot,
            emb,
        }
    }
}

/// Frame header size: id + home + domain + slot + embedding length.
const HEADER: usize = 4 + 4 + 4 + 4 + 4;

/// Bytes one token occupies on the wire for a model whose activation is
/// `token_bytes` wide and whose simulated embedding has `sim_dim` floats.
pub fn frame_size(token_bytes: u64, sim_dim: usize) -> usize {
    (token_bytes as usize).max(HEADER + 4 * sim_dim)
}

/// Write one token into its frame: the header words and the embedding,
/// little-endian. Bytes past the embedding are not touched.
pub fn write(frame: &mut [u8], head: Head, emb: &[f32]) {
    assert!(
        HEADER + 4 * emb.len() <= frame.len(),
        "frame too small: {} floats do not fit {} bytes",
        emb.len(),
        frame.len()
    );
    let words = [head.id, head.home, head.domain, head.slot, emb.len() as u32];
    for (bytes, word) in frame.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    for (bytes, v) in frame[HEADER..].chunks_exact_mut(4).zip(emb) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
}

/// Read one frame back: the head, and the embedding's floats in order.
pub fn read(frame: &[u8]) -> (Head, impl ExactSizeIterator<Item = f32> + '_) {
    let word = |i: usize| u32::from_le_bytes(frame[4 * i..][..4].try_into().expect("four bytes"));
    let len = word(4) as usize;
    assert!(
        HEADER + 4 * len <= frame.len(),
        "corrupt frame: embedding too long"
    );
    let head = Head {
        id: word(0),
        home: word(1),
        domain: word(2),
        slot: word(3),
    };
    let floats = frame[HEADER..HEADER + 4 * len]
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("four bytes")));
    (head, floats)
}

/// The frames of a buffer of `frame`-byte frames.
fn frames(buf: &[u8], frame: usize) -> std::slice::ChunksExact<'_, u8> {
    assert!(
        frame >= HEADER && buf.len().is_multiple_of(frame),
        "buffer is not a whole number of frames"
    );
    buf.chunks_exact(frame)
}

/// Serialize tokens into one contiguous buffer of `frame` bytes each.
pub fn encode(tokens: &[Token], frame: usize) -> Vec<u8> {
    assert!(frame >= HEADER, "frame too small: {frame} bytes");
    let mut buf = vec![0u8; tokens.len() * frame];
    for (tok, bytes) in tokens.iter().zip(buf.chunks_exact_mut(frame)) {
        let head = Head {
            id: tok.id,
            home: tok.home,
            domain: tok.domain,
            slot: tok.slot,
        };
        write(bytes, head, &tok.emb);
    }
    buf
}

/// Decode a buffer of `frame`-byte frames back into tokens.
pub fn decode(buf: &[u8], frame: usize) -> Vec<Token> {
    frames(buf, frame)
        .map(|bytes| {
            let (head, emb) = read(bytes);
            Token::new(head, emb.collect())
        })
        .collect()
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

    /// Append the tokens of one delivered lane, in frame order.
    pub(crate) fn extend_from_lane(&mut self, lane: &[u8], frame: usize) {
        for bytes in frames(lane, frame) {
            let (head, emb) = read(bytes);
            self.push(head, emb);
        }
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
/// to `dst` with `slot` in its header.
#[derive(Debug, Clone, Copy)]
struct Outbound {
    src: u32,
    dst: u32,
    row: u32,
    slot: u32,
}

/// The wire arena of a `w`-rank fleet: every lane of a hop is a slice of
/// `bytes` (see the [module docs](self) for why each is a real encoded
/// buffer).
#[derive(Debug)]
pub(crate) struct Wire {
    w: usize,
    frame: usize,
    dim: usize,
    /// Zeroed on creation, grown only with zeros, written only by
    /// [`write()`] with `dim` floats per frame.
    bytes: Vec<u8>,
    /// The copies emitted since the last scatter, in emission order.
    outbound: Vec<Outbound>,
    /// Lane `src * w + dst` of the last scatter covers frames
    /// `starts[lane]..starts[lane + 1]` of `bytes`.
    starts: Vec<usize>,
    /// Scatter scratch: the next free frame of each lane.
    cursor: Vec<usize>,
}

impl Wire {
    /// An arena for `w` ranks exchanging `frame`-byte frames of
    /// `dim`-float embeddings.
    pub(crate) fn new(w: usize, frame: usize, dim: usize) -> Self {
        assert!(frame >= HEADER + 4 * dim, "frame too small");
        Wire {
            w,
            frame,
            dim,
            bytes: Vec::new(),
            outbound: Vec::new(),
            starts: vec![0; w * w + 1],
            cursor: Vec::with_capacity(w * w),
        }
    }

    /// Wire size of one frame.
    pub(crate) fn frame(&self) -> usize {
        self.frame
    }

    /// Queue a copy of row `row` of `src`'s table for `dst`, `slot` in its
    /// header. A lane carries its copies in the order they were emitted.
    pub(crate) fn emit(&mut self, src: usize, dst: usize, row: usize, slot: u32) {
        self.outbound.push(Outbound {
            src: src as u32,
            dst: dst as u32,
            row: row as u32,
            slot,
        });
    }

    /// Lay the emitted copies out as lanes: one count pass sizes every
    /// `(src, dst)` lane, then each copy is written into the next frame of
    /// its lane. `tables[src]` is what `src`'s rows index.
    pub(crate) fn scatter(&mut self, tables: &[Table]) {
        let (w, frame) = (self.w, self.frame);
        assert!(
            tables.len() == w && tables.iter().all(|t| t.dim == self.dim),
            "one table of {}-float rows per rank",
            self.dim
        );
        self.starts.fill(0);
        for copy in &self.outbound {
            self.starts[copy.src as usize * w + copy.dst as usize + 1] += 1;
        }
        for lane in 0..w * w {
            self.starts[lane + 1] += self.starts[lane];
        }
        let total = self.starts[w * w] * frame;
        if self.bytes.len() < total {
            self.bytes.resize(total, 0);
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..w * w]);
        for copy in self.outbound.drain(..) {
            let at = &mut self.cursor[copy.src as usize * w + copy.dst as usize];
            let table = &tables[copy.src as usize];
            let head = Head {
                slot: copy.slot,
                ..table.heads[copy.row as usize]
            };
            write(
                &mut self.bytes[*at * frame..][..frame],
                head,
                table.row(copy.row as usize),
            );
            *at += 1;
        }
    }

    /// What `src` sends `dst` in the hop last scattered.
    pub(crate) fn lane(&self, src: usize, dst: usize) -> &[u8] {
        let lane = src * self.w + dst;
        &self.bytes[self.starts[lane] * self.frame..self.starts[lane + 1] * self.frame]
    }

    /// Every lane of the hop last scattered, `lanes[src][dst]`: the
    /// argument of `Lockstep::all_to_all_v`.
    pub(crate) fn lanes(&self) -> Vec<Vec<&[u8]>> {
        (0..self.w)
            .map(|src| (0..self.w).map(|dst| self.lane(src, dst)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_collectives::Lockstep;
    use exflow_topology::{ClusterSpec, CostModel};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn token(id: u32, dim: usize) -> Token {
        Token {
            id,
            home: id % 4,
            domain: id % 3,
            slot: id % 2,
            emb: (0..dim).map(|i| id as f32 + i as f32 * 0.25).collect(),
        }
    }

    #[test]
    fn round_trip_preserves_tokens() {
        let frame = frame_size(2048, 16);
        let tokens: Vec<Token> = (0..7).map(|i| token(i, 16)).collect();
        let buf = encode(&tokens, frame);
        assert_eq!(buf.len(), 7 * frame);
        assert_eq!(decode(&buf, frame), tokens);
    }

    #[test]
    fn frame_size_respects_true_activation_width() {
        // GPT-M: 1024 dims of fp16 = 2048 bytes, far above header needs.
        assert_eq!(frame_size(2048, 16), 2048);
        // Tiny test models never shrink below what the header needs.
        assert!(frame_size(8, 32) >= HEADER + 128);
    }

    #[test]
    fn empty_token_list_is_empty_buffer() {
        let frame = frame_size(64, 4);
        assert!(encode(&[], frame).is_empty());
        assert!(decode(&[], frame).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole number of frames")]
    fn ragged_buffer_rejected() {
        let _ = decode(&[0u8; 100], 64);
    }

    #[test]
    fn padding_bytes_do_not_leak_between_tokens() {
        let frame = frame_size(2048, 4);
        let a = vec![token(1, 4)];
        let b = vec![token(1, 4), token(2, 4)];
        let enc_a = encode(&a, frame);
        let enc_b = encode(&b, frame);
        assert_eq!(&enc_b[..frame], &enc_a[..]);
    }

    #[test]
    #[should_panic(expected = "frame too small")]
    fn an_oversize_embedding_is_rejected_on_every_profile() {
        // Unchecked, the fifth float lands on the next token's id (and,
        // from the last token, past the buffer); a `debug_assert!` was the
        // only guard, so a release build wrote it.
        let frame = frame_size(0, 4);
        let _ = encode(&[token(1, 5), token(2, 4)], frame);
    }

    /// The parent commit's `encode`, kept word for word as the oracle the
    /// shared writer is held to: a fresh zeroed buffer, fields at fixed
    /// offsets.
    fn reference_encode(tokens: &[Token], frame: usize) -> Vec<u8> {
        let mut buf = vec![0u8; tokens.len() * frame];
        for (slot, tok) in tokens.iter().enumerate() {
            let base = slot * frame;
            buf[base..base + 4].copy_from_slice(&tok.id.to_le_bytes());
            buf[base + 4..base + 8].copy_from_slice(&tok.home.to_le_bytes());
            buf[base + 8..base + 12].copy_from_slice(&tok.domain.to_le_bytes());
            buf[base + 12..base + 16].copy_from_slice(&tok.slot.to_le_bytes());
            buf[base + 16..base + 20].copy_from_slice(&(tok.emb.len() as u32).to_le_bytes());
            for (i, &v) in tok.emb.iter().enumerate() {
                let off = base + HEADER + 4 * i;
                buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
        buf
    }

    /// The rows of a table as owned tokens.
    fn tokens_of(table: &Table) -> Vec<Token> {
        (table.heads().iter().enumerate())
            .map(|(row, &head)| Token::new(head, table.row(row).to_vec()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The real-byte-buffer property. Over several hops on one arena —
        /// lanes growing, shrinking and emptying between them — every lane
        /// handed to the collective is `encode` of the copies emitted for
        /// it, in emission order, and every rank's table after delivery is
        /// `decode` of its lanes in source-rank order.
        #[test]
        fn every_lane_is_what_encode_returns(
            w in 1usize..=8,
            (dim, width) in (0usize..10, 0u64..160),
            k in 1u32..=2,
            hops in proptest::collection::vec(0usize..=200, 2..6),
            dead in proptest::collection::vec(0u8..4, 8),
            seed in 0u64..1_000_000,
        ) {
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
            let mut fleet = Lockstep::new(ClusterSpec::new(1, w).unwrap(), CostModel::wilkes3());
            for n_tokens in hops {
                tables.iter_mut().for_each(Table::clear);
                for id in 0..n_tokens as u32 {
                    let head = Head {
                        id,
                        home: rng.gen_range(0..w as u32),
                        domain: rng.gen_range(0..8),
                        slot: 0,
                    };
                    let emb: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0..4.0f32)).collect();
                    tables[live[rng.gen_range(0..live.len())]].push(head, emb.into_iter());
                }
                let mut emitted: Vec<Vec<Vec<Token>>> = vec![vec![Vec::new(); w]; w];
                for (src, table) in tables.iter().enumerate() {
                    for (row, tok) in tokens_of(table).into_iter().enumerate() {
                        for slot in 0..k {
                            let dst = live[rng.gen_range(0..live.len())];
                            wire.emit(src, dst, row, slot);
                            emitted[src][dst].push(Token { slot, ..tok.clone() });
                        }
                    }
                }
                wire.scatter(&tables);
                for (src, row) in emitted.iter().enumerate() {
                    for (dst, tokens) in row.iter().enumerate() {
                        let encoded = encode(tokens, frame);
                        prop_assert_eq!(&encoded, &reference_encode(tokens, frame));
                        prop_assert_eq!(
                            wire.lane(src, dst), &encoded[..],
                            "lane {} -> {} of a {}-token hop", src, dst, n_tokens
                        );
                    }
                }
                let delivered = fleet.all_to_all_v(wire.lanes());
                for (dst, (table, lanes)) in tables.iter_mut().zip(&delivered).enumerate() {
                    table.clear();
                    for lane in lanes {
                        table.extend_from_lane(lane, frame);
                    }
                    let decoded: Vec<Token> =
                        (0..w).flat_map(|src| decode(wire.lane(src, dst), frame)).collect();
                    prop_assert_eq!(tokens_of(table), decoded, "delivery at {}", dst);
                }
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
            let (primaries, secondaries): (Vec<Token>, Vec<Token>) =
                tokens_of(&table).into_iter().partition(|t| t.slot == 0);
            let mut sec: BTreeMap<u32, Vec<f32>> =
                secondaries.into_iter().map(|t| (t.id, t.emb)).collect();
            let expected: Vec<Token> = primaries
                .into_iter()
                .map(|mut t| {
                    if let Some(s) = sec.remove(&t.id) {
                        for (a, b) in t.emb.iter_mut().zip(s.iter()) {
                            *a = TOP2_WEIGHTS.0 * *a + TOP2_WEIGHTS.1 * b;
                        }
                    }
                    t
                })
                .collect();
            table.merge_top2(&mut Vec::new());
            prop_assert_eq!(tokens_of(&table), expected);
        }
    }
}
