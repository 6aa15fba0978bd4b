//! Property-based tests for the placement solvers.

use exflow_placement::objective::{measure_trace_locality, measure_trace_node_locality};
use exflow_placement::online::{plan_gpu_loss, plan_gpu_rejoin};
use exflow_placement::{
    solve, solve_budgeted_replicated_metered, GapBackend, MigrationPlan, Objective, Placement,
    ReplicaPolicy, ReplicationBudget, ReplicationPlan, SolverKind, SPARSE_DENSITY_THRESHOLD,
};
use exflow_topology::ClusterSpec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random row-stochastic objective with controllable structure.
fn random_objective(e: usize, gaps: usize, seed: u64) -> Objective {
    let mut rng = StdRng::seed_from_u64(seed);
    let gaps_vec = (0..gaps)
        .map(|_| {
            let mut m = vec![0.0f64; e * e];
            for i in 0..e {
                let mut s = 0.0;
                for p in 0..e {
                    let v: f64 = rng.gen_range(0.0..1.0f64).powi(4);
                    m[i * e + p] = v;
                    s += v;
                }
                for p in 0..e {
                    m[i * e + p] /= s;
                }
            }
            m
        })
        .collect();
    Objective::from_raw(gaps_vec, e)
}

fn divisor_pairs() -> impl Strategy<Value = (usize, usize)> {
    // (n_experts, n_units) with units | experts.
    prop_oneof![
        Just((4usize, 2usize)),
        Just((8, 2)),
        Just((8, 4)),
        Just((12, 3)),
        Just((12, 4)),
        Just((16, 4)),
        Just((6, 2)),
        Just((6, 3)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cross_mass_in_valid_range((e, u) in divisor_pairs(), gaps in 1usize..5, seed in 0u64..100) {
        let obj = random_objective(e, gaps, seed);
        let p = Placement::round_robin(gaps + 1, e, u);
        let c = obj.cross_mass(&p);
        prop_assert!((0.0..=gaps as f64 + 1e-9).contains(&c));
        let f = obj.local_fraction(&p);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&f));
    }

    #[test]
    fn swap_delta_agrees_with_recompute((e, u) in divisor_pairs(), seed in 0u64..50) {
        let gaps = 3;
        let obj = random_objective(e, gaps, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        let p = exflow_placement::local_search::random_placement(gaps + 1, e, u, &mut rng);
        for _ in 0..10 {
            let layer = rng.gen_range(0..gaps + 1);
            let e1 = rng.gen_range(0..e);
            let e2 = rng.gen_range(0..e);
            let delta = obj.swap_delta(&p, layer, e1, e2);
            let mut q = p.clone();
            q.swap(layer, e1, e2);
            let full = obj.cross_mass(&q) - obj.cross_mass(&p);
            prop_assert!((delta - full).abs() < 1e-9);
        }
    }

    #[test]
    fn solvers_preserve_balance((e, u) in divisor_pairs(), seed in 0u64..30) {
        let obj = random_objective(e, 3, seed);
        for kind in [SolverKind::Greedy, SolverKind::LocalSearch { restarts: 1 }] {
            let p = solve(&obj, u, kind, seed);
            let cap = e / u;
            for layer in 0..4 {
                for unit in 0..u {
                    prop_assert_eq!(p.experts_on(layer, unit).len(), cap);
                }
            }
        }
    }

    #[test]
    fn local_search_never_worse_than_greedy((e, u) in divisor_pairs(), seed in 0u64..30) {
        let obj = random_objective(e, 3, seed);
        let g = solve(&obj, u, SolverKind::Greedy, seed);
        let ls = solve(&obj, u, SolverKind::LocalSearch { restarts: 1 }, seed);
        prop_assert!(obj.cross_mass(&ls) <= obj.cross_mass(&g) + 1e-9);
    }

    #[test]
    fn exact_is_lower_bound_when_feasible(seed in 0u64..20) {
        let obj = random_objective(6, 3, seed);
        let (_, opt) = exflow_placement::exact::solve_exact(&obj, 2, 1000).unwrap();
        for kind in [
            SolverKind::RoundRobin,
            SolverKind::Greedy,
            SolverKind::LocalSearch { restarts: 2 },
        ] {
            let p = solve(&obj, 2, kind, seed);
            prop_assert!(opt <= obj.cross_mass(&p) + 1e-9);
        }
    }

    #[test]
    fn node_locality_dominates_gpu_locality(seed in 0u64..30) {
        use exflow_affinity::RoutingTrace;
        use exflow_model::routing::AffinityModelSpec;
        use exflow_model::{CorpusSpec, TokenBatch};
        let model = AffinityModelSpec::new(5, 8).with_seed(seed).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 300, 1, seed);
        let trace = RoutingTrace::from_batch(&batch, 8);
        let p = Placement::round_robin(5, 8, 4);
        let gpu = measure_trace_locality(&trace, &p).fraction();
        let node = measure_trace_node_locality(&trace, &p, 2).fraction();
        prop_assert!(node + 1e-12 >= gpu);
    }

    #[test]
    fn staged_consistency_holds(seed in 0u64..20) {
        let obj = random_objective(8, 3, seed);
        let cluster = ClusterSpec::new(2, 2).unwrap();
        let staged = exflow_placement::staged::solve_staged(&obj, &cluster, 1, seed);
        prop_assert!(staged.is_consistent(&cluster));
    }

    #[test]
    fn sparse_and_dense_backends_agree(
        (e, u) in divisor_pairs(),
        gaps in 1usize..4,
        density_pct in 0usize..=100,
        seed in 0u64..60,
    ) {
        // Random matrices across the whole density range: empty rows
        // (density 0 keeps only the diagonal fallback below), genuinely
        // sparse, and fully dense.
        let obj_gaps = random_gaps_with_density(e, gaps, density_pct, seed);
        let dense = Objective::from_raw_with(obj_gaps.clone(), e, GapBackend::Dense);
        let sparse = Objective::from_raw_with(obj_gaps, e, GapBackend::Sparse);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let p = exflow_placement::local_search::random_placement(gaps + 1, e, u, &mut rng);
        let (cd, cs) = (dense.cross_mass(&p), sparse.cross_mass(&p));
        prop_assert!((cd - cs).abs() < 1e-12, "cross_mass {cd} vs {cs}");
        prop_assert_eq!(cd.to_bits(), cs.to_bits());
        for _ in 0..12 {
            let layer = rng.gen_range(0..gaps + 1);
            let e1 = rng.gen_range(0..e);
            let e2 = rng.gen_range(0..e);
            let dd = dense.swap_delta(&p, layer, e1, e2);
            let ds = sparse.swap_delta(&p, layer, e1, e2);
            prop_assert!((dd - ds).abs() < 1e-12, "swap_delta {dd} vs {ds}");
            prop_assert_eq!(dd.to_bits(), ds.to_bits());
        }
    }

    #[test]
    fn incremental_maintenance_bit_equals_cold_rebuild(
        windows in 2usize..5,
        tokens in 40usize..160,
        seed in 0u64..40,
    ) {
        // Random window-delta streams: a delta-maintained objective (one
        // per gap backend) plus a persistent attraction-table buffer must
        // stay bit-equal to a cold `from_snapshot` rebuild solved without
        // one, window after window — the buffer and the in-place update
        // change what is allocated, never what is decided.
        use exflow_affinity::{RoutingTrace, StreamingAffinity};
        use exflow_model::routing::AffinityModelSpec;
        use exflow_model::{CorpusSpec, TokenBatch};
        use exflow_placement::local_search::solve_local_search_with;
        use exflow_placement::{solve_budgeted_metered, split_seed, Parallelism, SwapGainCache};

        let (layers, e, units) = (3usize, 8usize, 4usize);
        let model = AffinityModelSpec::new(layers, e).with_seed(seed).build();
        let trace_at = |s: u64| {
            let batch =
                TokenBatch::sample(&model, &CorpusSpec::pile_proxy(model.n_domains()), tokens, 1, s);
            RoutingTrace::from_batch(&batch, e)
        };

        let mut streaming = StreamingAffinity::new(layers, e, 0.5);
        streaming.observe(&trace_at(seed ^ 0xff));
        let snap0 = streaming.snapshot();
        let mut live_dense = Objective::from_snapshot_with(&snap0, GapBackend::Dense);
        let mut live_sparse = Objective::from_snapshot_with(&snap0, GapBackend::Sparse);
        let mut cache = SwapGainCache::for_objective(&live_dense);
        let mut placement = Placement::round_robin(layers, e, units);

        for w in 1..windows {
            let delta = streaming.observe_delta(&trace_at(split_seed(seed, w as u64)));
            live_dense.apply_snapshot_delta(&delta);
            live_sparse.apply_snapshot_delta(&delta);
            let snap = streaming.snapshot();
            let rebuilt_dense = Objective::from_snapshot_with(&snap, GapBackend::Dense);
            let rebuilt_sparse = Objective::from_snapshot_with(&snap, GapBackend::Sparse);
            prop_assert!(live_dense == rebuilt_dense, "dense objective diverged at window {w}");
            prop_assert!(live_sparse == rebuilt_sparse, "sparse objective diverged at window {w}");

            // Same incumbent, four budgeted solves: held buffer, local
            // table, cold rebuild, sparse backend.
            let (p_cached, c_cached) =
                solve_budgeted_metered(&live_dense, &placement, 6, u64::MAX, Some(&mut cache));
            let (p_fresh, c_fresh) =
                solve_budgeted_metered(&live_dense, &placement, 6, u64::MAX, None);
            let (p_cold, _) = solve_budgeted_metered(&rebuilt_dense, &placement, 6, u64::MAX, None);
            let (p_sparse, _) = solve_budgeted_metered(&live_sparse, &placement, 6, u64::MAX, None);
            prop_assert_eq!(&p_cached, &p_fresh, "cache changed the walk at window {}", w);
            prop_assert_eq!(&p_cached, &p_cold, "delta maintenance changed the walk at window {}", w);
            prop_assert_eq!(&p_cached, &p_sparse, "backend changed the walk at window {}", w);
            prop_assert_eq!(c_cached, c_fresh, "the buffer changed the work at window {}", w);
            prop_assert_eq!(c_cached.evaluated + c_cached.reused, c_cached.considered);

            let cm = live_dense.cross_mass(&p_cached);
            prop_assert_eq!(cm.to_bits(), rebuilt_dense.cross_mass(&p_cached).to_bits());
            prop_assert_eq!(cm.to_bits(), live_sparse.cross_mass(&p_cached).to_bits());
            prop_assert_eq!(cm.to_bits(), rebuilt_sparse.cross_mass(&p_cached).to_bits());

            // The delta-maintained objective must also stay bit-stable
            // under the thread-parallel solver at every width.
            let single = solve_local_search_with(&live_dense, units, 2, seed, Parallelism::single());
            for threads in [2usize, 8] {
                let multi =
                    solve_local_search_with(&live_dense, units, 2, seed, Parallelism::new(threads));
                prop_assert_eq!(&single, &multi, "{} threads diverged at window {}", threads, w);
                prop_assert_eq!(
                    rebuilt_dense.cross_mass(&multi).to_bits(),
                    live_dense.cross_mass(&single).to_bits()
                );
            }
            placement = p_cached;
        }
    }

    #[test]
    fn auto_selection_threshold_round_trips(e in 5usize..12, seed in 0u64..40) {
        // Just-under-threshold nnz must pick sparse, at-or-above dense.
        // (e >= 5 guarantees an under-threshold matrix exists at all: each
        // row needs at least one cell, and e/e^2 < 0.25 needs e > 4.)
        let cells = e * e;
        let under = ((SPARSE_DENSITY_THRESHOLD * cells as f64).ceil() as usize - 1).max(e);
        let over = (SPARSE_DENSITY_THRESHOLD * cells as f64).ceil() as usize;
        prop_assume!((under as f64) < SPARSE_DENSITY_THRESHOLD * cells as f64);
        let build = |nnz: usize| {
            let m = matrix_with_nnz(e, nnz, seed);
            Objective::from_raw(vec![m], e)
        };
        let sparse = build(under);
        prop_assert!(sparse.gap_is_sparse(0), "nnz {} of {} cells", under, cells);
        prop_assert_eq!(sparse.nnz(), under);
        if (over as f64) >= SPARSE_DENSITY_THRESHOLD * cells as f64 {
            let dense = build(over);
            prop_assert!(!dense.gap_is_sparse(0), "nnz {} of {} cells", over, cells);
            prop_assert_eq!(dense.nnz(), over);
        }
    }

    #[test]
    fn replica_subsets_are_well_formed_and_include_the_owner(
        (e, u) in divisor_pairs(),
        slots in 0u64..5,
        moves in 0u64..20,
        seed in 0u64..60,
    ) {
        // Whatever subsets the budgeted replicated solver materialises,
        // the owner is always implicitly available, subsets are sorted
        // non-owner GPU sets, and no in-range query panics.
        let obj = random_objective(e, 3, seed);
        let bpe = 1 + seed % 7;
        let budget = ReplicationBudget {
            replica_memory_bytes: slots * bpe,
            migration_budget_bytes: moves * bpe,
        };
        for policy in policies_for(u) {
            let incumbent = ReplicationPlan::bare(Placement::round_robin(4, e, u));
            let (plan, _) = solve_budgeted_replicated_metered(
                &obj, &incumbent, bpe, &budget, &policy, None,
            );
            for layer in 0..4 {
                for &(expert, ref units) in &plan.replicas[layer] {
                    let owner = plan.base.unit_of(layer, expert);
                    prop_assert!(!units.is_empty(), "empty subset survived sanitising");
                    prop_assert!(!units.contains(&owner), "owner listed as its own replica");
                    prop_assert!(units.windows(2).all(|w| w[0] < w[1]), "subset not sorted");
                    prop_assert!(units.iter().all(|&x| x < u), "unit out of range");
                }
                for expert in 0..e {
                    let owner = plan.base.unit_of(layer, expert);
                    prop_assert!(
                        plan.available_on(layer, expert, owner),
                        "owner must always serve its own expert"
                    );
                    let avail = (0..u).filter(|&x| plan.available_on(layer, expert, x)).count();
                    prop_assert_eq!(avail, 1 + plan.replica_units(layer, expert).len());
                }
            }
        }
    }

    #[test]
    fn replica_memory_and_migration_budgets_are_never_exceeded(
        (e, u) in divisor_pairs(),
        slots in 0u64..4,
        moves in 0u64..16,
        incumbent_picks in 0usize..4,
        seed in 0u64..60,
    ) {
        // Across random subsets, budgets, and seeds: no GPU ever holds
        // more extra copies than its slot budget allows, and the diff
        // against the incumbent never ships more bytes than the
        // migration budget — even when the incumbent itself arrives
        // over-provisioned and must be repacked.
        let obj = random_objective(e, 3, seed);
        let bpe = 2 + seed % 5;
        let budget = ReplicationBudget {
            replica_memory_bytes: slots * bpe,
            migration_budget_bytes: moves * bpe,
        };
        for policy in policies_for(u) {
            let base = Placement::round_robin(4, e, u);
            let listed: Vec<Vec<usize>> = (0..4)
                .map(|l| (0..incumbent_picks).map(|i| (l + i * 3) % e).collect())
                .collect();
            let incumbent = ReplicationPlan::with_policy(base, listed, &policy);
            let (plan, _) = solve_budgeted_replicated_metered(
                &obj, &incumbent, bpe, &budget, &policy, None,
            );
            let mut load = vec![0u64; u];
            for layer in 0..4 {
                for (_, units) in &plan.replicas[layer] {
                    for &x in units {
                        load[x] += 1;
                    }
                }
            }
            for (gpu, &l) in load.iter().enumerate() {
                prop_assert!(
                    l <= slots,
                    "GPU {gpu} holds {l} extra copies with only {slots} slots"
                );
            }
            prop_assert!(plan.extra_copies_per_gpu() as u64 <= slots);
            let diff = MigrationPlan::between_replicated(&incumbent, &plan, bpe);
            prop_assert!(
                diff.total_bytes() <= budget.migration_budget_bytes,
                "diff ships {} bytes over a {} byte budget",
                diff.total_bytes(),
                budget.migration_budget_bytes
            );
        }
    }

    #[test]
    fn replicated_dispatch_locality_is_thread_and_backend_invariant(
        density_pct in 20usize..=100,
        slots in 1u64..4,
        seed in 0u64..60,
    ) {
        // The replica-aware pipeline end to end — base solve, budgeted
        // replicated solve, the `serve` walk's dispatch locality — must be a
        // pure function of its inputs: bit-identical at 1, 2, and 8
        // solver threads and across the dense and CSR gap backends.
        use exflow_affinity::RoutingTrace;
        use exflow_model::routing::AffinityModelSpec;
        use exflow_model::{CorpusSpec, TokenBatch};
        use exflow_placement::local_search::solve_local_search_with;
        use exflow_placement::Parallelism;
        use exflow_topology::ClusterSpec;

        let (e, u) = (8usize, 4usize);
        let raw = random_gaps_with_density(e, 3, density_pct, seed);
        let bpe = 4u64;
        let budget = ReplicationBudget {
            replica_memory_bytes: slots * bpe,
            migration_budget_bytes: 8 * bpe,
        };
        let cluster = ClusterSpec::new(2, 2).unwrap();
        let policy = ReplicaPolicy::OnePerNode(cluster);
        let model = AffinityModelSpec::new(4, e).with_seed(seed).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 200, 1, seed);
        let trace = RoutingTrace::from_batch(&batch, e);

        let mut reference: Option<(ReplicationPlan, u64, u64)> = None;
        for backend in [GapBackend::Dense, GapBackend::Sparse] {
            let obj = Objective::from_raw_with(raw.clone(), e, backend);
            for threads in [1usize, 2, 8] {
                let base = solve_local_search_with(&obj, u, 1, seed, Parallelism::new(threads));
                let incumbent = ReplicationPlan::bare(base);
                let (plan, _) = solve_budgeted_replicated_metered(
                &obj, &incumbent, bpe, &budget, &policy, None,
            );
                let cross = exflow_placement::replicated_cross_mass(&obj, &plan).to_bits();
                let frac = plan.trace_locality(&trace, &cluster).fraction().to_bits();
                match &reference {
                    None => reference = Some((plan, cross, frac)),
                    Some((p0, c0, f0)) => {
                        prop_assert!(
                            &plan == p0,
                            "plan diverged at {threads} threads on {backend:?}"
                        );
                        prop_assert_eq!(cross, *c0, "cross mass bits diverged");
                        prop_assert_eq!(frac, *f0, "dispatch locality bits diverged");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relabelling_gpus_leaves_every_measure_unchanged(
        (e, u) in prop_oneof![
            Just((8usize, 2usize)),
            Just((8, 4)),
            Just((12, 3)),
            Just((12, 4)),
            Just((16, 4)),
            Just((16, 8)),
        ],
        gaps in 1usize..4,
        density_pct in 10usize..=100,
        budget in 0usize..4,
        seed in 0u64..1_000,
    ) {
        // A unit is a label: one permutation of the labels, applied at
        // every layer, keeps each unit's expert set, so no measure of a
        // placement may move — the objective's not by a bit, on either
        // gap backend.
        use exflow_affinity::RoutingTrace;
        use exflow_model::routing::AffinityModelSpec;
        use exflow_model::{CorpusSpec, TokenBatch};

        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e1a);
        let p = exflow_placement::local_search::random_placement(gaps + 1, e, u, &mut rng);
        let mut perm: Vec<usize> = (0..u).collect();
        for k in (1..u).rev() {
            perm.swap(k, rng.gen_range(0..=k));
        }
        let q = Placement::new(
            (0..=gaps)
                .map(|l| p.layer(l).iter().map(|&g| perm[g]).collect())
                .collect(),
            u,
        );

        let model = AffinityModelSpec::new(gaps + 1, e).with_seed(seed).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 200, 1, seed);
        let trace = RoutingTrace::from_batch(&batch, e);
        prop_assert_eq!(measure_trace_locality(&trace, &p), measure_trace_locality(&trace, &q));

        let raw = random_gaps_with_density(e, gaps, density_pct, seed);
        for backend in [GapBackend::Dense, GapBackend::Sparse] {
            let obj = Objective::from_raw_with(raw.clone(), e, backend);
            prop_assert_eq!(obj.cross_mass(&p).to_bits(), obj.cross_mass(&q).to_bits());
            for layer in 0..=gaps {
                for e1 in 0..e {
                    for e2 in e1 + 1..e {
                        prop_assert_eq!(
                            obj.swap_delta(&p, layer, e1, e2).to_bits(),
                            obj.swap_delta(&q, layer, e1, e2).to_bits(),
                            "swap_delta at layer {} of ({}, {}) on {:?}", layer, e1, e2, backend
                        );
                    }
                }
            }
            // The replica subsets map through the same permutation and
            // re-sort into exactly the plan the relabelled base gets.
            let plan = ReplicationPlan::most_popular(&obj, p.clone(), budget);
            let mapped = ReplicationPlan {
                base: q.clone(),
                replicas: plan
                    .replicas
                    .iter()
                    .map(|layer| {
                        layer
                            .iter()
                            .map(|(x, units)| {
                                let mut units: Vec<usize> = units.iter().map(|&g| perm[g]).collect();
                                units.sort_unstable();
                                (*x, units)
                            })
                            .collect()
                    })
                    .collect(),
            };
            prop_assert_eq!(&mapped, &ReplicationPlan::most_popular(&obj, q.clone(), budget));
            prop_assert_eq!(
                exflow_placement::replicated_cross_mass(&obj, &plan).to_bits(),
                exflow_placement::replicated_cross_mass(&obj, &mapped).to_bits()
            );
        }
    }
}

/// A random fleet state for the pure fleet planners: a random balanced
/// placement, random non-owner replica subsets, and then `n_dead` GPUs
/// already lost (each evacuated through [`plan_gpu_loss`] itself).
/// Returns the plan and the surviving ranks, ascending.
fn random_fleet(
    e: usize,
    u: usize,
    layers: usize,
    n_dead: usize,
    seed: u64,
) -> (ReplicationPlan, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee7);
    let base = exflow_placement::local_search::random_placement(layers, e, u, &mut rng);
    let replicas = (0..layers)
        .map(|l| {
            (0..e)
                .filter_map(|x| {
                    let owner = base.unit_of(l, x);
                    let units: Vec<usize> = (0..u)
                        .filter(|&r| r != owner && rng.gen_range(0..3) == 0)
                        .collect();
                    (!units.is_empty()).then_some((x, units))
                })
                .collect()
        })
        .collect();
    let mut plan = ReplicationPlan { base, replicas };
    let mut live: Vec<usize> = (0..u).collect();
    for _ in 0..n_dead {
        let gone = live.remove(rng.gen_range(0..live.len()));
        plan = plan_gpu_loss(&plan, &live, gone, 1).0;
    }
    (plan, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serve_sends_every_hop_to_a_live_holder(
        (e, u) in divisor_pairs(),
        layers in 1usize..4,
        dead in 0u32..16,
        seed in 0u64..500,
    ) {
        // On a random plan whose holders may be dead (bit r of `dead`),
        // under every cluster shape of its units: the unit `serve` picks
        // holds the expert, is the token's own unit exactly when that
        // unit holds it, and is live or the owner. Full fan-out and no
        // replicas leave nothing for the cluster to decide.
        let (plan, _) = random_fleet(e, u, layers, 0, seed);
        let is_live = |r: usize| dead >> r & 1 == 0;
        let clusters: Vec<ClusterSpec> = (1..=u)
            .filter(|&g| u.is_multiple_of(g))
            .map(|g| ClusterSpec::new(u / g, g).unwrap())
            .collect();
        let listed = plan
            .replicas
            .iter()
            .map(|lr| lr.iter().map(|r| r.0).collect())
            .collect();
        let everywhere = ReplicationPlan::everywhere(plan.base.clone(), listed);
        let bare = ReplicationPlan::bare(plan.base.clone());
        for layer in 0..layers {
            for expert in 0..e {
                let owner = plan.base.unit_of(layer, expert);
                // A token only ever sits on a live unit.
                for from in (0..u).filter(|&r| is_live(r)) {
                    let holds = plan.available_on(layer, expert, from);
                    for cluster in &clusters {
                        let to = plan.serve(cluster, from, layer, expert, is_live);
                        prop_assert!(plan.available_on(layer, expert, to), "{} lacks the expert", to);
                        prop_assert_eq!(to == from, holds, "from {} served on {}", from, to);
                        prop_assert!(is_live(to) || to == owner, "dead holder {} served", to);
                        for fixed in [&everywhere, &bare] {
                            prop_assert_eq!(
                                fixed.serve(cluster, from, layer, expert, is_live),
                                fixed.serve(&clusters[0], from, layer, expert, is_live)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gpu_loss_plans_evacuate_for_free_where_a_replica_survives(
        (e, u) in divisor_pairs(),
        layers in 1usize..4,
        dead_before in 0usize..2,
        seed in 0u64..500,
    ) {
        prop_assume!(u >= dead_before + 2);
        let (before, mut live) = random_fleet(e, u, layers, dead_before, seed);
        let gpu = live.remove(seed as usize % live.len());
        let (after, plan) = plan_gpu_loss(&before, &live, gpu, 8);

        for l in 0..layers {
            for x in 0..e {
                // Exactly one owner, and it is alive.
                prop_assert!(live.contains(&after.base.unit_of(l, x)));
            }
            for (x, units) in &after.replicas[l] {
                prop_assert!(!units.is_empty());
                prop_assert!(units.iter().all(|r| live.contains(r)), "replica on a dead GPU");
                prop_assert!(!units.contains(&after.base.unit_of(l, *x)), "owner in its subset");
            }
        }
        // Every expert the dead GPU owned moved exactly once: for free
        // onto a surviving holder when there was one, else restored — a
        // priced move — from a live source.
        let mut relocated = 0;
        for l in 0..layers {
            for x in (0..e).filter(|&x| before.base.unit_of(l, x) == gpu) {
                relocated += 1;
                let holders: Vec<usize> = before
                    .replica_units(l, x)
                    .iter()
                    .copied()
                    .filter(|&r| r != gpu)
                    .collect();
                let is = |m: &&exflow_placement::ExpertMove| m.layer == l && m.expert == x;
                let free = plan.free_moves.iter().find(is);
                let priced = plan.moves.iter().find(is);
                if holders.is_empty() {
                    let m = priced.expect("an unreplicated expert needs a restore");
                    prop_assert!(free.is_none());
                    prop_assert!(live.contains(&m.from), "restore from a dead GPU");
                    prop_assert_eq!(m.to, after.base.unit_of(l, x));
                } else {
                    let m = free.expect("a surviving holder must be promoted");
                    prop_assert!(priced.is_none(), "priced restore despite a live replica");
                    prop_assert!(holders.contains(&m.to));
                    prop_assert_eq!(m.to, after.base.unit_of(l, x));
                }
            }
        }
        prop_assert_eq!(plan.n_relocations(), relocated);
        prop_assert_eq!(plan.total_bytes(), 8 * plan.n_moves() as u64);
        let _ = plan.send_matrix(u);
    }

    #[test]
    fn gpu_rejoin_plans_restore_the_fair_share(
        (e, u) in divisor_pairs(),
        layers in 1usize..4,
        dead in 1usize..3,
        seed in 0u64..500,
    ) {
        prop_assume!(u > dead);
        let (degraded, live) = random_fleet(e, u, layers, dead, seed);
        let gpu = (0..u).find(|r| !live.contains(r)).expect("one GPU is down");
        let (healed, plan) = plan_gpu_rejoin(&degraded, gpu, 8);
        for l in 0..layers {
            prop_assert_eq!(healed.base.experts_on(l, gpu).len(), e / u);
        }
        prop_assert_eq!(&healed.replicas, &degraded.replicas);
        prop_assert_eq!(plan.n_moves(), layers * (e / u));
        prop_assert!(plan.free_moves.is_empty());
        for m in &plan.moves {
            prop_assert_eq!(m.to, gpu);
            prop_assert!(live.contains(&m.from), "pulled from a dead GPU");
            prop_assert_eq!(degraded.base.unit_of(m.layer, m.expert), m.from);
            prop_assert_eq!(healed.base.unit_of(m.layer, m.expert), gpu);
        }
        // The rejoin moves are exactly the diff of the two plans; their
        // order is free, since pricing sums a send matrix.
        let mut moves = plan.moves.clone();
        moves.sort_by_key(|m| (m.layer, m.expert));
        prop_assert_eq!(moves, MigrationPlan::between_replicated(&degraded, &healed, 8).moves);
        // Loss-then-rejoin plans only name ranks of the fleet.
        let _ = plan.send_matrix(u);
    }
}

/// The replica policies valid for a `u`-GPU fleet: the full fan-out plus
/// a one-per-node layout over the largest even split (falling back to
/// one-GPU nodes, where one-per-node degenerates to everywhere).
fn policies_for(u: usize) -> Vec<ReplicaPolicy> {
    use exflow_topology::ClusterSpec;
    let cluster = if u.is_multiple_of(2) && u > 2 {
        ClusterSpec::new(2, u / 2).unwrap()
    } else {
        ClusterSpec::new(u, 1).unwrap()
    };
    vec![
        ReplicaPolicy::Everywhere,
        ReplicaPolicy::OnePerNode(cluster),
    ]
}

/// Random row-stochastic gaps where roughly `density_pct`% of off-diagonal
/// cells are alive; rows that end up empty get a single diagonal cell, so
/// 0% yields the identity (rows of one cell) and 100% is fully dense.
fn random_gaps_with_density(e: usize, gaps: usize, density_pct: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..gaps)
        .map(|_| {
            let mut m = vec![0.0f64; e * e];
            for i in 0..e {
                let mut s = 0.0f64;
                for p in 0..e {
                    if rng.gen_range(0usize..100) < density_pct {
                        let v: f64 = rng.gen_range(0.0..1.0f64) + 1e-3;
                        m[i * e + p] = v;
                        s += v;
                    }
                }
                if s == 0.0 {
                    m[i * e + i] = 1.0;
                } else {
                    for p in 0..e {
                        m[i * e + p] /= s;
                    }
                }
            }
            m
        })
        .collect()
}

/// A row-stochastic matrix with exactly `nnz` alive cells (`e <= nnz <=
/// e*e`): every row gets one diagonal cell, the remainder spreads across
/// the earliest off-diagonal slots, and a seeded shuffle decides ties.
fn matrix_with_nnz(e: usize, nnz: usize, seed: u64) -> Vec<f64> {
    assert!((e..=e * e).contains(&nnz));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut extra_slots: Vec<(usize, usize)> = (0..e)
        .flat_map(|i| (0..e).filter(move |&p| p != i).map(move |p| (i, p)))
        .collect();
    for k in (1..extra_slots.len()).rev() {
        let j = rng.gen_range(0..=k);
        extra_slots.swap(k, j);
    }
    let mut m = vec![0.0f64; e * e];
    for i in 0..e {
        m[i * e + i] = 1.0;
    }
    for &(i, p) in extra_slots.iter().take(nnz - e) {
        m[i * e + p] = 1.0;
    }
    for i in 0..e {
        let s: f64 = m[i * e..(i + 1) * e].iter().sum();
        for p in 0..e {
            m[i * e + p] /= s;
        }
    }
    m
}
