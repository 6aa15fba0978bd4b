//! Property-based tests for affinity estimation.

use exflow_affinity::io::{parse_trace_csv, write_trace_csv};
use exflow_affinity::{metrics, AffinityMatrix, RoutingTrace, StreamingAffinity};
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{CorpusSpec, TokenBatch};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = RoutingTrace> {
    arb_trace_of(10..200)
}

fn arb_trace_of(tokens: std::ops::Range<usize>) -> impl Strategy<Value = RoutingTrace> {
    (2usize..16, 2usize..8, 1u64..500, tokens).prop_map(|(e, l, seed, n)| {
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
    fn normalized_entropy_in_unit_interval(trace in arb_trace()) {
        let m = AffinityMatrix::from_trace(&trace, 0, 1);
        let h = metrics::normalized_entropy(&m);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&h));
    }

    #[test]
    fn self_transfer_is_perfect(trace in arb_trace(), k in 1usize..4) {
        let m = AffinityMatrix::from_trace(&trace, 0, 1);
        prop_assert!((metrics::transfer_score(&m, &m, k) - 1.0).abs() < 1e-9);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The trace CSV parser reads files an operator hands the deployment
    // stage: whatever it is given it must answer `Ok` or `Err`, never panic
    // (a panic in these bodies fails the test) and never allocate from a
    // header field.

    #[test]
    fn csv_parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_trace_csv(&text);
    }

    #[test]
    fn csv_parsers_never_panic_on_format_shaped_noise(
        picks in proptest::collection::vec(0usize..28, 0..40),
    ) {
        const ALPHABET: [&str; 28] = [
            "#", " ", "experts=", "from=", "to=", "0", "1", "2", "7", ",", "\n", "\r\n", "-",
            "+", ".", "e", "0.5", "nan", "inf", "-1", "1e308", "q", "é", "65535", "65536",
            "18446744073709551615", "18446744073709551616", "\t",
        ];
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = parse_trace_csv(&text);
        // ...and as the body under a header that parses.
        let _ = parse_trace_csv(&format!("# experts=4\n{text}"));
    }

    #[test]
    fn csv_parsers_survive_hostile_expert_counts(claimed in 0usize..8, rows in 0usize..4) {
        // Header fields far beyond anything the rows below could back: the
        // answer must come from the rows, not from an allocation (or a
        // product) sized by the header.
        const SIZES: [usize; 8] =
            [0, 1, 2, 3, 1 << 32, 3_037_000_500, 1 << 40, usize::MAX];
        let experts = SIZES[claimed];
        let trace = format!("# experts={experts}\n{}", "0,1\n".repeat(rows));
        if let Ok(t) = parse_trace_csv(&trace) {
            prop_assert!(experts >= 2, "ids 0 and 1 need two experts");
            prop_assert_eq!((t.n_experts(), t.n_tokens(), t.n_layers()), (experts, rows, 2));
        }
    }

    #[test]
    fn csv_parsers_never_panic_on_damaged_files(
        trace in arb_trace_of(4..40),
        at in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        let e = trace.n_experts();
        let text = write_trace_csv(&trace);
        prop_assert_eq!(parse_trace_csv(&text), Ok(trace.clone()));
        // Every prefix (the file is ASCII, so every cut is a char
        // boundary): a truncated file is rejected or parses to what its
        // header states.
        for cut in 0..text.len() {
            if let Ok(t) = parse_trace_csv(&text[..cut]) {
                prop_assert_eq!(t.n_experts(), e);
            }
        }
        // ...and a single-byte mutation anywhere.
        let mut bytes = text.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = parse_trace_csv(&String::from_utf8_lossy(&bytes));
    }
}
