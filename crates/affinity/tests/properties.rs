//! Property-based tests for affinity estimation.

use std::collections::BTreeMap;

use exflow_affinity::{
    metrics, AffinityMatrix, AffinitySnapshot, RoutingTrace, SnapshotDelta, StreamingAffinity,
};
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{CorpusSpec, TokenBatch};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = RoutingTrace> {
    (2usize..16, 2usize..8, 1u64..500, 10usize..200).prop_map(|(e, l, seed, n)| {
        let model = AffinityModelSpec::new(l, e).with_seed(seed).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), n, 1, seed);
        RoutingTrace::from_batch(&batch, e)
    })
}

/// Raw traces over `L in 1..=5` layers and `E <= 40` experts whose ids
/// come from the first `active` experts only, so every row past `active`
/// stays unobserved (and few tokens leave more rows empty still).
fn arb_sparse_trace() -> impl Strategy<Value = RoutingTrace> {
    (
        1usize..=5,
        1usize..=40,
        1u16..=40,
        proptest::collection::vec(0u16..u16::MAX, 5..300),
    )
        .prop_map(|(l, e, active, raw)| {
            let active = active.min(e as u16);
            let paths = raw
                .chunks_exact(l)
                .map(|c| c.iter().map(|&x| x % active).collect())
                .collect();
            RoutingTrace::new(paths, e)
        })
}

/// Raw traces over `L in 2..=6` layers whose ids fill a band of `span in
/// 1..=600` values: either `E = span` (ids from 0), or `E = 65 536` with
/// the band ending at `u16::MAX`, where a packed `(from, to)` key uses
/// every bit.
fn arb_banded_trace() -> impl Strategy<Value = RoutingTrace> {
    (
        2usize..=6,
        1usize..=600,
        prop_oneof![Just(false), Just(true)],
        proptest::collection::vec(0u16..u16::MAX, 6..600),
    )
        .prop_map(|(l, span, high, raw)| {
            let (e, base) = if high {
                (1usize << 16, (1usize << 16) - span)
            } else {
                (span, 0)
            };
            let paths = raw
                .chunks_exact(l)
                .map(|c| {
                    c.iter()
                        .map(|&x| (base + x as usize % span) as u16)
                        .collect()
                })
                .collect();
            RoutingTrace::new(paths, e)
        })
}

/// `pair_counts` the obvious way: one ordered-map entry per token.
fn naive_pair_counts(trace: &RoutingTrace, from: usize, to: usize) -> Vec<((u16, u16), u64)> {
    let mut counts = BTreeMap::new();
    for t in 0..trace.n_tokens() {
        let key = (
            trace.expert_at(t, from) as u16,
            trace.expert_at(t, to) as u16,
        );
        *counts.entry(key).or_insert(0u64) += 1;
    }
    counts.into_iter().collect()
}

/// A stream of 2–6 windows over `L in 2..=5` layers and `E in 1..=24`
/// experts, with a decay that is moderate, exactly 1, or so small that a
/// row's mass reaches exactly zero within a window or a few. Each window
/// routes only through its own band of experts, so most rows go untouched
/// for several windows.
fn arb_window_stream() -> impl Strategy<Value = (usize, usize, f64, Vec<RoutingTrace>)> {
    let decay = prop_oneof![
        0.01f64..=1.0,
        Just(1.0),
        (100i32..=320).prop_map(|k| 10f64.powi(-k)),
    ];
    let window = (
        0u16..u16::MAX,
        1u16..=24,
        proptest::collection::vec(0u16..u16::MAX, 5..150),
    );
    (
        2usize..=5,
        1usize..=24,
        decay,
        proptest::collection::vec(window, 2..=6),
    )
        .prop_map(|(l, e, decay, windows)| {
            let traces = windows
                .into_iter()
                .map(|(lo, width, raw)| {
                    let (lo, width) = (lo as usize % e, (width as usize).min(e));
                    let paths = raw
                        .chunks_exact(l)
                        .map(|c| {
                            c.iter()
                                .map(|&x| ((lo + x as usize % width) % e) as u16)
                                .collect()
                        })
                        .collect();
                    RoutingTrace::new(paths, e)
                })
                .collect();
            (l, e, decay, traces)
        })
}

/// The estimate `StreamingAffinity` defines, kept the slow way: every
/// pair's mass and every row's mass decay eagerly, one multiplication per
/// window, then take the window's pair counts in ascending order. A row's
/// conditionals are divided out only when a window gives it counts, so an
/// untouched row keeps those of its last touch; a row whose mass is
/// exactly zero reads uniform.
struct EagerReference {
    e: usize,
    decay: f64,
    /// Per gap: joint mass of every pair ever observed.
    joint: Vec<BTreeMap<(u16, u16), f64>>,
    /// Per gap: decayed mass of each source row.
    mass: Vec<Vec<f64>>,
    /// Per gap, per row: `(column, conditional)` as of the row's last touch.
    rows: Vec<Vec<Vec<(usize, f64)>>>,
}

impl EagerReference {
    fn new(l: usize, e: usize, decay: f64) -> Self {
        EagerReference {
            e,
            decay,
            joint: vec![BTreeMap::new(); l - 1],
            mass: vec![vec![0.0; e]; l - 1],
            rows: vec![vec![Vec::new(); e]; l - 1],
        }
    }

    /// Fold one window; returns each gap's changed rows, ascending: the
    /// rows that received counts and the rows whose mass fell to zero.
    fn observe(&mut self, window: &RoutingTrace) -> Vec<Vec<usize>> {
        let mut changed = Vec::new();
        for gap in 0..self.joint.len() {
            for v in self.joint[gap].values_mut() {
                *v *= self.decay;
            }
            let mut rows: Vec<usize> = Vec::new();
            for (i, m) in self.mass[gap].iter_mut().enumerate() {
                let was_pos = *m > 0.0;
                *m *= self.decay;
                if was_pos && *m == 0.0 {
                    rows.push(i);
                }
            }
            let counts = naive_pair_counts(window, gap, gap + 1);
            for &((i, p), c) in &counts {
                *self.joint[gap].entry((i, p)).or_insert(0.0) += c as f64;
                self.mass[gap][i as usize] += c as f64;
            }
            for &((i, _), _) in &counts {
                let i = i as usize;
                let denom = self.mass[gap][i];
                self.rows[gap][i] = self.joint[gap]
                    .range((i as u16, 0)..=(i as u16, u16::MAX))
                    .map(|(&(_, p), &v)| (p as usize, v / denom))
                    .collect();
                rows.push(i);
            }
            rows.sort_unstable();
            rows.dedup();
            changed.push(rows);
        }
        changed
    }

    fn row(&self, gap: usize, i: usize) -> Vec<(usize, f64)> {
        if self.mass[gap][i] <= 0.0 {
            (0..self.e).map(|p| (p, 1.0 / self.e as f64)).collect()
        } else {
            self.rows[gap][i].clone()
        }
    }

    fn weights(&self, gap: usize) -> Vec<f64> {
        let mass = &self.mass[gap];
        let total: f64 = mass.iter().sum();
        if total <= 0.0 {
            vec![1.0 / self.e as f64; self.e]
        } else {
            mass.iter().map(|&m| m / total).collect()
        }
    }
}

fn bits(cols: &[usize], probs: &[f64]) -> Vec<(usize, u64)> {
    cols.iter()
        .zip(probs)
        .map(|(&c, p)| (c, p.to_bits()))
        .collect()
}

fn ref_bits(row: &[(usize, f64)]) -> Vec<(usize, u64)> {
    row.iter().map(|&(c, p)| (c, p.to_bits())).collect()
}

fn weight_bits(w: &[f64]) -> Vec<u64> {
    w.iter().map(|x| x.to_bits()).collect()
}

/// Every row and weight of `snap` against the reference, bit for bit.
fn check_snapshot(
    snap: &AffinitySnapshot,
    reference: &EagerReference,
    at: usize,
) -> Result<(), String> {
    for gap in 0..snap.n_gaps() {
        for i in 0..reference.e {
            let (cols, probs) = snap.row(gap, i);
            if bits(cols, probs) != ref_bits(&reference.row(gap, i)) {
                return Err(format!("window {at} gap {gap} row {i}"));
            }
        }
        if weight_bits(snap.gap_weights(gap)) != weight_bits(&reference.weights(gap)) {
            return Err(format!("window {at} gap {gap} weights"));
        }
    }
    Ok(())
}

/// The delta's rows, fragments and weights against the reference.
fn check_delta(
    delta: &SnapshotDelta,
    changed: &[Vec<usize>],
    reference: &EagerReference,
    at: usize,
) -> Result<(), String> {
    for (gap, rows) in changed.iter().enumerate() {
        if delta.touched_rows(gap) != rows.as_slice() {
            return Err(format!("window {at} gap {gap} delta rows"));
        }
        for (k, &i) in rows.iter().enumerate() {
            let (cols, probs) = delta.fragment(gap, k);
            if bits(cols, probs) != ref_bits(&reference.row(gap, i)) {
                return Err(format!("window {at} gap {gap} fragment of row {i}"));
            }
        }
        if weight_bits(delta.gap_weights(gap)) != weight_bits(&reference.weights(gap)) {
            return Err(format!("window {at} gap {gap} delta weights"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sorted, run-length pair counts against one map entry per token, on
    /// every layer pair, up to ids at `u16::MAX`.
    #[test]
    fn pair_counts_match_a_naive_count(trace in arb_banded_trace()) {
        let l = trace.n_layers();
        for from in 0..l {
            for to in from + 1..l {
                prop_assert_eq!(
                    trace.pair_counts(from, to),
                    naive_pair_counts(&trace, from, to),
                    "layers {} -> {}", from, to
                );
            }
        }
    }

    /// Every window of a multi-window fold against the eager-decay
    /// reference: the snapshot after `observe` and after `observe_delta`,
    /// the delta's rows, fragments and weights, and each gap's stored
    /// pair count, all bit for bit.
    #[test]
    fn every_window_of_a_fold_matches_the_eager_reference(
        (l, e, decay, windows) in arb_window_stream(),
    ) {
        let mut plain = StreamingAffinity::new(l, e, decay);
        let mut delta = StreamingAffinity::new(l, e, decay);
        let mut reference = EagerReference::new(l, e, decay);
        for (at, w) in windows.iter().enumerate() {
            plain.observe(w);
            let d = delta.observe_delta(w);
            let changed = reference.observe(w);
            prop_assert_eq!(d.window(), at as u64 + 1);
            if let Err(m) = check_delta(&d, &changed, &reference, at) {
                panic!("decay {decay}: {m}");
            }
            for est in [&plain, &delta] {
                if let Err(m) = check_snapshot(&est.snapshot(), &reference, at) {
                    panic!("decay {decay}: {m}");
                }
                for gap in 0..l - 1 {
                    prop_assert_eq!(est.gap_nnz(gap), reference.joint[gap].len());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The one trace -> CSR estimator against the dense reference: a first
    /// window defines `AffinityMatrix::from_trace`'s matrix cell for cell
    /// and its row-count marginals weight for weight, whatever the decay.
    #[test]
    fn first_window_snapshot_matches_dense_estimator_bitwise(
        trace in arb_sparse_trace(),
        decay in 0.01f64..=1.0,
    ) {
        let (l, e) = (trace.n_layers(), trace.n_experts());
        let mut estimate = StreamingAffinity::new(l, e, decay);
        estimate.observe(&trace);
        let snap = estimate.snapshot();
        prop_assert_eq!(snap.n_gaps(), l - 1);
        for gap in 0..l - 1 {
            let dense = AffinityMatrix::from_trace(&trace, gap, gap + 1);
            let mut nonzero = 0;
            for i in 0..e {
                for p in 0..e {
                    prop_assert_eq!(
                        snap.prob(gap, i, p).to_bits(),
                        dense.prob(i, p).to_bits(),
                        "gap {} cell ({},{})", gap, i, p
                    );
                    nonzero += usize::from(dense.prob(i, p) != 0.0);
                }
                let offline = dense.row_count(i) as f64 / dense.total_count() as f64;
                prop_assert_eq!(snap.gap_weights(gap)[i].to_bits(), offline.to_bits());
            }
            // Only the support is stored (unobserved rows: the uniform fill).
            prop_assert_eq!(snap.gap_nnz(gap), nonzero);
        }
    }

    #[test]
    fn estimated_rows_are_distributions(trace in arb_trace()) {
        for m in AffinityMatrix::consecutive(&trace) {
            for i in 0..m.n_experts() {
                let s: f64 = m.row(i).iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-9);
                prop_assert!(m.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }
    }

    #[test]
    fn histograms_partition_tokens(trace in arb_trace()) {
        for layer in 0..trace.n_layers() {
            let h = trace.layer_histogram(layer);
            prop_assert_eq!(h.iter().sum::<u64>(), trace.n_tokens() as u64);
        }
    }

    #[test]
    fn topk_mass_monotone_in_k(trace in arb_trace()) {
        let m = AffinityMatrix::from_trace(&trace, 0, 1);
        for i in 0..m.n_experts() {
            let mut prev = 0.0;
            for k in 1..=m.n_experts() {
                let cur = m.topk_mass(i, k);
                prop_assert!(cur + 1e-12 >= prev);
                prev = cur;
            }
            prop_assert!((prev - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn affinity_score_in_unit_interval(trace in arb_trace(), k in 1usize..4) {
        let m = AffinityMatrix::from_trace(&trace, 0, 1);
        let s = metrics::affinity_score(&m, k);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn stronger_affinity_scores_higher(seed in 0u64..200) {
        let make = |kappa: f64| {
            let model = AffinityModelSpec::new(2, 16)
                .with_affinity(kappa)
                .with_seed(seed)
                .build();
            let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 4000, 1, seed);
            let trace = RoutingTrace::from_batch(&batch, 16);
            AffinityMatrix::from_trace(&trace, 0, 1)
        };
        let weak = metrics::affinity_score(&make(0.2), 4);
        let strong = metrics::affinity_score(&make(0.9), 4);
        prop_assert!(strong > weak, "strong {} <= weak {}", strong, weak);
    }
}
