//! Property-based tests for the engine layer.

use exflow_core::commvolume::{System, VolumeParams};
use exflow_core::frame::frame_size;
use exflow_core::json::Json;
use exflow_core::{InferenceEngine, ParallelismMode, ReplicationPlan, Scenario, WindowEvent};
use exflow_model::presets::moe_gpt_m;
use exflow_model::GateKind;
use exflow_topology::ClusterSpec;
use proptest::prelude::*;
use proptest::strategy::boxed;

/// Finite floats over the whole bit space, salted with the values a
/// text round trip is most likely to lose.
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        }),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(f64::from_bits(1)), // smallest subnormal
        Just(20.0),              // prints as an integer token
    ]
}

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x2_0000, 0..6)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Arbitrary JSON trees up to `depth` containers deep.
fn arb_json(depth: usize) -> Box<dyn Strategy<Value = Json>> {
    let leaf = prop_oneof![
        Just(Json::Null),
        (0u8..2).prop_map(|b| Json::Bool(b == 1)),
        prop_oneof![0u64..=u64::MAX, Just(u64::MAX)].prop_map(Json::U64),
        (i64::MIN..0).prop_map(Json::I64),
        arb_finite_f64().prop_map(Json::F64),
        arb_text().prop_map(Json::Str),
    ];
    if depth == 0 {
        return boxed(leaf);
    }
    boxed(prop_oneof![
        leaf,
        proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Json::Arr),
        proptest::collection::vec((arb_text(), arb_json(depth - 1)), 0..4).prop_map(Json::Obj),
    ])
}

fn arb_event() -> impl Strategy<Value = WindowEvent> {
    (
        (
            0usize..1000,
            arb_finite_f64(),
            arb_finite_f64(),
            0u64..=u64::MAX,
        ),
        (
            arb_finite_f64(),
            arb_finite_f64(),
            arb_finite_f64(),
            arb_finite_f64(),
        ),
        proptest::collection::vec(0u64..=u64::MAX, 6),
        proptest::collection::vec(0usize..64, 0..4),
        proptest::collection::vec(0usize..64, 0..4),
    )
        .prop_map(
            |((window, t_start, t_end, completed), (p50, p95, p99, drift), n, down, up)| {
                WindowEvent {
                    window,
                    t_start,
                    t_end,
                    completed,
                    p50,
                    p95,
                    p99,
                    queue_depth: window / 2,
                    drift,
                    replans: n[0],
                    bytes_local: n[1],
                    bytes_intra: n[2],
                    bytes_inter: n[3],
                    replicas_added: n[4],
                    replicas_dropped: n[5],
                    gpus_down: down,
                    gpus_up: up,
                }
            },
        )
}

/// Both parsers must reject or accept — never panic — on any text.
fn parsers_survive(text: &str) {
    let _ = Json::parse(text);
    let _ = WindowEvent::from_json(text);
}

proptest! {
    #[test]
    fn json_round_trips_value_for_value(v in arb_json(3)) {
        // `Json` equality is token equality, so floats compare by bits
        // and u64::MAX compares exactly.
        let compact = v.write().unwrap();
        prop_assert_eq!(&Json::parse(&compact).unwrap(), &v, "{}", compact);
        let pretty = v.write_pretty().unwrap();
        prop_assert_eq!(&Json::parse(&pretty).unwrap(), &v, "{}", pretty);
    }

    #[test]
    fn json_floats_survive_to_the_bit(x in arb_finite_f64()) {
        let text = Json::F64(x).write().unwrap();
        let back = Json::parse(&text).unwrap().as_f64().unwrap();
        prop_assert_eq!(back.to_bits(), x.to_bits(), "{}", text);
    }

    #[test]
    fn non_finite_floats_never_reach_the_wire(
        v in arb_json(2),
        bad in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
    ) {
        let doc = Json::Arr(vec![v, Json::obj(vec![("x", Json::F64(bad))])]);
        prop_assert!(doc.write().is_err());
        prop_assert!(doc.write_pretty().is_err());
    }

    #[test]
    fn events_round_trip_bit_for_bit(ev in arb_event()) {
        let line = ev.to_json();
        let back = WindowEvent::from_json(&line).unwrap();
        prop_assert_eq!(back.to_json(), line);
        prop_assert_eq!(back.p99.to_bits(), ev.p99.to_bits());
        prop_assert_eq!(back, ev);
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        parsers_survive(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parsers_never_panic_on_json_shaped_noise(
        picks in proptest::collection::vec(0usize..24, 0..60),
    ) {
        const ALPHABET: [&str; 24] = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d83d", "-", "0", "1", ".", "e",
            "E", "+", "null", "true", "false", " ", "\n", "é", "\"schema\"",
        ];
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        parsers_survive(&text);
    }

    #[test]
    fn parsers_never_panic_on_damaged_lines(
        ev in arb_event(),
        at in 0usize..10_000,
        byte in 0u8..=255,
    ) {
        let line = ev.to_json();
        // Every prefix (cut on a char boundary; the line is ASCII)...
        for cut in 0..line.len() {
            parsers_survive(&line[..cut]);
            prop_assert!(WindowEvent::from_json(&line[..cut]).is_err());
        }
        // ...and a single-byte mutation anywhere in it.
        let mut bytes = line.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        parsers_survive(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn frame_size_honors_both_bounds(width in 0u64..1_000_000, dim in 0usize..256) {
        let f = frame_size(width, dim);
        prop_assert!(f >= width as usize);
        prop_assert!(f >= 20 + 4 * dim);
    }

    #[test]
    fn volumes_scale_linearly_in_n(
        g in 2usize..64,
        n in 1usize..512,
        l in 1usize..48,
        p in 0.0f64..1.0,
    ) {
        let a = VolumeParams { g, n, l };
        let b = VolumeParams { g, n: n * 2, l };
        for system in System::ALL {
            let va = system.volume(a, p, 1);
            let vb = system.volume(b, p, 1);
            prop_assert!((vb - 2.0 * va).abs() < 1e-6, "{:?}", system);
        }
    }

    #[test]
    fn volumes_monotone_in_p(
        g in 2usize..64,
        n in 1usize..512,
        l in 1usize..48,
        p_lo in 0.0f64..1.0,
        p_hi in 0.0f64..1.0,
    ) {
        prop_assume!(p_lo <= p_hi);
        let params = VolumeParams { g, n, l };
        for system in System::ALL {
            prop_assert!(
                system.volume(params, p_lo, 1) <= system.volume(params, p_hi, 1) + 1e-9
            );
        }
    }

    #[test]
    fn exflow_beats_deepspeed_at_equal_p_when_deep(
        g in 2usize..32,
        n in 1usize..256,
        p in 0.05f64..1.0,
    ) {
        // With L >= 2G/p the AllGather term is amortized and one Alltoall
        // at fraction p beats two Alltoalls at the same p.
        let l = ((2.0 * g as f64 / p).ceil() as usize).max(2);
        let params = VolumeParams { g, n, l };
        let ds = System::DeepspeedMoe.volume(params, p, 1);
        let ex = System::ExFlow.volume(params, p, 1);
        prop_assert!(ex < ds, "g={} l={} p={}: exflow {} vs ds {}", g, l, p, ex, ds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A token's row crosses the wire as a frame and comes home: whichever
    /// mode, placement or replica set decides the lanes it takes, every
    /// token's output is the same (`output_digest` folds each token's
    /// provenance word in id order: every expert it visited and every
    /// copy merged into it), so no hop drops, duplicates or misroutes a
    /// row.
    #[test]
    fn frames_round_trip(
        (nodes, gpn) in (1usize..=2, prop_oneof![Just(1usize), Just(2), Just(4)]),
        layers in 2usize..=5,
        top2 in 0u8..2,
        seed in 0u64..1000,
    ) {
        let mut model = moe_gpt_m(8);
        model.n_layers = layers;
        if top2 == 1 {
            model = model.with_gate(GateKind::Top2);
        }
        let engine = InferenceEngine::builder(model, ClusterSpec::new(nodes, gpn).unwrap())
            .requests_per_gpu(4)
            .prompt_len(4)
            .n_iterations(2)
            .profile_tokens(500)
            .placement_restarts(0)
            .seed(seed)
            .build();
        let digest = |scenario: Scenario| engine.run_scenario(&scenario).expect_offline().output_digest;
        let vanilla = digest(Scenario::offline(ParallelismMode::Vanilla));
        for mode in ParallelismMode::ALL {
            prop_assert_eq!(digest(Scenario::offline(mode)), vanilla, "{}", mode);
            let base = engine.placement_for(mode).clone();
            let plan = ReplicationPlan::most_popular(engine.objective(), base, 3);
            let replicated = digest(Scenario::offline(mode).with_replication(plan));
            prop_assert_eq!(replicated, vanilla, "{} replicated", mode);
        }
    }
}
