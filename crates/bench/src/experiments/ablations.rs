//! Ablations beyond the paper's figures: solver quality, staged-vs-flat
//! placement, and how the end-to-end gain degrades as the model's
//! intrinsic affinity weakens.
//! Five tables, A–E, each an entry of `crate::table::TABLES` under the one
//! `ablations` artifact.

use exflow_affinity::RoutingTrace;
use exflow_core::json::Json;
use exflow_core::{InferenceEngine, ParallelismMode};
use exflow_model::presets::moe_gpt_m;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{CorpusSpec, GateKind, TokenBatch};
use exflow_placement::annealing::AnnealParams;
use exflow_placement::objective::measure_trace_locality;
use exflow_placement::replication::ReplicationPlan;
use exflow_placement::staged::solve_staged;
use exflow_placement::{solve, Objective, Placement, SolverKind};
use exflow_topology::ClusterSpec;

use crate::experiments::common::{cluster_for, run_offline, snapshot_of, Workload};
use crate::fmt::{f3, speedup};
use crate::sweep::par_map;
use crate::table::{find, int, num, nums, render_section, text, Bars};

/// A fixed-seed routing trace of `tokens` tokens on a fresh
/// `(l, e)` affinity model.
fn sample_trace(spec: &AffinityModelSpec, tokens: usize, seed: u64) -> RoutingTrace {
    let corpus = CorpusSpec::pile_proxy(spec.n_domains);
    let batch = TokenBatch::sample(&spec.build(), &corpus, tokens, 1, seed);
    RoutingTrace::from_batch(&batch, spec.n_experts)
}

fn profiled_objective(e: usize, seed: u64) -> Objective {
    let spec = AffinityModelSpec::new(12, e).with_seed(seed);
    let trace = sample_trace(&spec, 6000, seed);
    Objective::from_snapshot(&snapshot_of(&trace))
}

/// Ablation A — solver quality: cross mass achieved by each solver on the
/// same profiled instance (MoE-16, 12 layers, 4 GPUs; lower is better).
/// Solvers fan across the installed sweep pool.
pub fn solver_sweep(_: &Workload) -> Result<Vec<Json>, String> {
    let objective = profiled_objective(16, 5);
    let kinds: Vec<(&str, SolverKind)> = vec![
        ("round-robin", SolverKind::RoundRobin),
        ("greedy-chain", SolverKind::Greedy),
        ("local-search", SolverKind::LocalSearch { restarts: 2 }),
        ("annealing", SolverKind::Annealing(AnnealParams::default())),
        ("portfolio", SolverKind::portfolio(100)),
    ];
    Ok(par_map(kinds, |(name, kind)| {
        Json::obj(vec![
            // Solver name.
            ("solver", name.into()),
            // Expected cross-unit transitions per token.
            (
                "cross_mass",
                objective.cross_mass(&solve(&objective, 4, kind, 99)).into(),
            ),
        ])
    }))
}

/// Every optimizing solver beats round-robin.
pub(crate) fn solver_bars(rows: &[Json], bars: &mut Bars) {
    let Some(rr) = find(rows, "solver", "round-robin") else {
        return;
    };
    let baseline = num(rr, "cross_mass");
    for r in rows.iter().filter(|&r| !std::ptr::eq(r, rr)) {
        let cross = num(r, "cross_mass");
        let what = format!("{cross} not better than round-robin {baseline}");
        bars.fail_if(r, cross >= baseline, what);
    }
}

/// Ablation A as printed.
pub fn render_solvers(rows: &[Json]) -> String {
    render_section(
        "Ablation A: placement solver quality (lower cross-mass is better)",
        &[
            ("solver", &|r| text(r, "solver")),
            ("cross-mass", &|r| f3(num(r, "cross_mass"))),
        ],
        rows,
    )
}

/// Ablation B — staged vs. flat placement on 2 nodes x 4 GPUs (MoE-32):
/// inter-node crossing mass of the staged two-level solve versus a flat
/// GPU-level solve that ignores the node hierarchy.
pub fn staged_sweep(_: &Workload) -> Result<Vec<Json>, String> {
    let objective = profiled_objective(32, 6);
    let cluster = ClusterSpec::new(2, 4).unwrap();
    let gpn = cluster.gpus_per_node();

    let measure = |placement: &Placement| -> (f64, f64) {
        // Expected crossing fractions from the objective's matrices.
        let e = objective.n_experts();
        let gaps = objective.n_gaps();
        let mut node_cross = 0.0;
        let mut gpu_cross = 0.0;
        for gap in 0..gaps {
            for i in 0..e {
                let ug = placement.unit_of(gap, i);
                for p in 0..e {
                    let vg = placement.unit_of(gap + 1, p);
                    let prob = objective.row_weight(gap, i) * objective.gap_prob(gap, i, p);
                    if ug != vg {
                        gpu_cross += prob;
                    }
                    if ug / gpn != vg / gpn {
                        node_cross += prob;
                    }
                }
            }
        }
        (node_cross / gaps as f64, gpu_cross / gaps as f64)
    };

    let staged = solve_staged(&objective, &cluster, 2, 3);
    let flat = solve(
        &objective,
        cluster.world_size(),
        SolverKind::LocalSearch { restarts: 2 },
        3,
    );
    let rr = Placement::round_robin(
        objective.n_layers(),
        objective.n_experts(),
        cluster.world_size(),
    );

    Ok([
        ("round-robin", &rr),
        ("flat", &flat),
        ("staged", &staged.gpu_level),
    ]
    .into_iter()
    .map(|(name, p)| {
        let (internode_cross, gpu_cross) = measure(p);
        Json::obj(vec![
            // Strategy name.
            ("strategy", name.into()),
            // Expected fraction of transitions crossing nodes.
            ("internode_cross", internode_cross.into()),
            // Expected fraction of transitions crossing GPUs.
            ("gpu_cross", gpu_cross.into()),
        ])
    })
    .collect())
}

/// Staged's whole point: fewer inter-node crossings than round-robin, and
/// at least as good there as the flat solve.
pub(crate) fn staged_bars(rows: &[Json], bars: &mut Bars) {
    let row = |strategy| find(rows, "strategy", strategy);
    let (Some(staged), Some(rr), Some(flat)) = (row("staged"), row("round-robin"), row("flat"))
    else {
        return;
    };
    let [cross, rr, flat] = [staged, rr, flat].map(|r| num(r, "internode_cross"));
    let what = format!("inter-node cross {cross} vs round-robin {rr}, flat {flat}");
    bars.fail_if(staged, cross >= rr || cross > flat + 0.02, what);
}

/// Ablation B as printed.
pub fn render_staged(rows: &[Json]) -> String {
    render_section(
        "Ablation B: staged vs flat placement (2 nodes x 4 GPUs)",
        &[
            ("strategy", &|r| text(r, "strategy")),
            ("inter-node-cross", &|r| f3(num(r, "internode_cross"))),
            ("gpu-cross", &|r| f3(num(r, "gpu_cross"))),
        ],
        rows,
    )
}

/// Ablation C — affinity-strength sweep on MoE-16 / 8 GPUs: end-to-end
/// ExFlow speedup versus the model's intrinsic affinity concentration κ
/// (extension beyond the paper). Grid points are independent fixed-seed
/// engine runs, fanned across the installed sweep pool.
pub fn kappa_sweep(_: &Workload) -> Result<Vec<Json>, String> {
    Ok(par_map(vec![0.0, 0.25, 0.5, 0.75, 0.9], |kappa| {
        let model = moe_gpt_m(16);
        let spec = AffinityModelSpec::new(model.n_layers, model.n_experts).with_affinity(kappa);
        let engine = InferenceEngine::builder(model, cluster_for(8))
            .routing_spec(spec)
            .requests_per_gpu(8)
            .prompt_len(8)
            .n_iterations(2)
            .profile_tokens(4000)
            .placement_restarts(0)
            .seed(20_240_404)
            .build();
        let ds = run_offline(&engine, ParallelismMode::Vanilla).throughput();
        let aff = run_offline(&engine, ParallelismMode::ContextCoherentAffinity).throughput();
        Json::obj(vec![
            // Routing concentration κ.
            ("kappa", kappa.into()),
            // Full-ExFlow throughput relative to DeepSpeed.
            ("speedup", (aff / ds).into()),
        ])
    }))
}

/// The gain grows with the affinity there is to exploit: the strongest κ
/// beats the weakest.
pub(crate) fn kappa_bars(rows: &[Json], bars: &mut Bars) {
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return;
    };
    let (weak, strong) = (num(first, "speedup"), num(last, "speedup"));
    let what = format!("speedup {strong} should exceed kappa 0's {weak}");
    bars.fail_if(last, strong <= weak, what);
}

/// Ablation C as printed.
pub fn render_kappa(rows: &[Json]) -> String {
    render_section(
        "Ablation C: end-to-end speedup vs affinity strength kappa",
        &[
            ("kappa", &|r| f3(num(r, "kappa"))),
            ("exflow-speedup", &|r| speedup(num(r, "speedup"))),
        ],
        rows,
    )
}

/// Ablation D — the paper's §VI comparison against Lina-style expert
/// popularity on MoE-16 / 4 GPUs: locality as a function of the replica
/// memory budget, versus ExFlow's zero-replica placement.
pub fn replication_sweep(_: &Workload) -> Result<Vec<Json>, String> {
    let (e, l) = (16, 12);
    let spec = AffinityModelSpec::new(l, e);
    let profile = sample_trace(&spec, 6000, 41);
    let eval = sample_trace(&spec, 6000, 42);
    let objective = Objective::from_snapshot(&snapshot_of(&profile));
    let base = Placement::round_robin(l, e, 4);

    let row = |strategy: &str, extra_copies: usize, local_fraction: f64| {
        Json::obj(vec![
            // Strategy label.
            ("strategy", strategy.into()),
            // Extra expert copies stored per GPU (memory cost).
            ("extra_copies", extra_copies.into()),
            // Fraction of layer transitions served locally.
            ("local_fraction", local_fraction.into()),
        ])
    };
    let mut rows: Vec<Json> = [0usize, 2, 4, 8]
        .into_iter()
        .map(|budget| {
            let plan = ReplicationPlan::most_popular(&objective, base.clone(), budget);
            row(
                &format!("replicate-top{budget}"),
                plan.extra_copies_per_gpu(),
                plan.trace_locality(&eval, &cluster_for(4)).fraction(),
            )
        })
        .collect();
    let exflow = solve(&objective, 4, SolverKind::LocalSearch { restarts: 2 }, 7);
    let locality = measure_trace_locality(&eval, &exflow).fraction();
    rows.push(row("exflow-placement", 0, locality));
    Ok(rows)
}

/// ExFlow needs no replicas to beat the zero-budget baseline, and the
/// replication baseline's locality is monotone in its budget.
pub(crate) fn replication_bars(rows: &[Json], bars: &mut Bars) {
    let row = |strategy| find(rows, "strategy", strategy);
    if let (Some(exflow), Some(rep0)) = (row("exflow-placement"), row("replicate-top0")) {
        let [copies, ours] = nums(exflow, ["extra_copies", "local_fraction"]);
        let theirs = num(rep0, "local_fraction");
        let what = format!("{copies} copies, locality {ours} vs unreplicated {theirs}");
        bars.fail_if(exflow, copies != 0.0 || ours <= theirs, what);
    }
    let replicated = |r: &&Json| text(r, "strategy").starts_with("replicate");
    let budgets: Vec<&Json> = rows.iter().filter(replicated).collect();
    for pair in budgets.windows(2) {
        let less = num(pair[0], "local_fraction");
        let more = num(pair[1], "local_fraction");
        let what = format!("locality fell {less} -> {more}");
        bars.fail_if(pair[1], more + 1e-9 < less, what);
    }
}

/// Ablation D as printed.
pub fn render_replication(rows: &[Json]) -> String {
    render_section(
        "Ablation D: replication (Lina-style) vs ExFlow placement",
        &[
            ("strategy", &|r| text(r, "strategy")),
            ("extra-copies/GPU", &|r| text(r, "extra_copies")),
            ("local-fraction", &|r| f3(num(r, "local_fraction"))),
        ],
        rows,
    )
}

/// Ablation E — top-1 vs top-2 gating on MoE-16 / 8 GPUs: measured
/// cross-GPU Alltoall traffic per mode (Table I's two volume columns,
/// measured instead of analytic). One sweep task per gate.
pub fn gating_sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let per_gate = par_map(vec![GateKind::Top1, GateKind::Top2], |gate| {
        let model = w.cut(moe_gpt_m(16)).with_gate(gate);
        let engine = InferenceEngine::builder(model, cluster_for(8))
            .requests_per_gpu(w.requests_per_gpu)
            .prompt_len(8)
            .n_iterations(4)
            .profile_tokens(w.profile_tokens)
            .placement_restarts(0)
            .seed(20_240_405)
            .build();
        let baseline = run_offline(&engine, ParallelismMode::Vanilla);
        let rows = ParallelismMode::ALL.map(|mode| {
            let r = run_offline(&engine, mode);
            Json::obj(vec![
                // Gating kind label.
                ("gate", format!("top-{}", gate.k()).as_str().into()),
                // Execution mode label.
                ("mode", mode.label().into()),
                // Cross-GPU Alltoall bytes for the run.
                ("cross_gpu_bytes", r.alltoall_bytes.cross_gpu().into()),
                // Throughput relative to the same gate's DeepSpeed
                // baseline.
                (
                    "relative_throughput",
                    (r.throughput() / baseline.throughput()).into(),
                ),
            ])
        });
        rows.to_vec()
    });
    Ok(per_gate.into_iter().flatten().collect())
}

/// Top-2 roughly doubles vanilla's cross-GPU traffic. Under top-2,
/// affinity placement must recover the coherence overhead that plain
/// context coherence pays (the ordering, not a knife-edge threshold: the
/// absolute speedup over vanilla depends on depth and on the profiling
/// stream), and still cut cross-GPU traffic well below vanilla even though
/// top-2 doubles the dispatched tokens.
pub(crate) fn gating_bars(rows: &[Json], bars: &mut Bars) {
    let cell = |gate: &str, mode: ParallelismMode| {
        let is = |r: &Json, field, label| r.get(field).and_then(Json::as_str) == Some(label);
        let found = |r: &&Json| is(r, "gate", gate) && is(r, "mode", mode.label());
        rows.iter().find(found)
    };
    let (Some(v1), Some(v2), Some(coh2), Some(ex2)) = (
        cell("top-1", ParallelismMode::Vanilla),
        cell("top-2", ParallelismMode::Vanilla),
        cell("top-2", ParallelismMode::ContextCoherent),
        cell("top-2", ParallelismMode::ContextCoherentAffinity),
    ) else {
        return;
    };
    let [b1, b2, bytes] = [v1, v2, ex2].map(|r| num(r, "cross_gpu_bytes"));
    let what = format!("{b2} bytes vs top-1's {b1}: not doubled");
    bars.fail_if(v2, b2 <= 1.8 * b1, what);
    let [aff, coh] = [ex2, coh2].map(|r| num(r, "relative_throughput"));
    let what = format!("{aff} should beat plain coherence {coh}");
    bars.fail_if(ex2, aff <= coh, what);
    let what = format!("{bytes} bytes vs vanilla top-2's {b2}");
    bars.fail_if(ex2, bytes >= 0.8 * b2, what);
}

/// Ablation E as printed.
pub fn render_gating(rows: &[Json]) -> String {
    render_section(
        "Ablation E: top-1 vs top-2 gating traffic and throughput",
        &[
            ("gate", &|r| text(r, "gate")),
            ("mode", &|r| text(r, "mode")),
            ("xGPU-bytes", &|r| {
                format!("{}K", int(r, "cross_gpu_bytes") / 1024)
            }),
            ("rel-throughput", &|r| {
                speedup(num(r, "relative_throughput"))
            }),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    #[test]
    fn optimizing_solvers_beat_round_robin() {
        let edit = [(0, "cross_mass", 0.0.into())];
        assert_trips("ablation_solvers", &edit, "not better than round-robin");
    }

    #[test]
    fn staged_minimizes_internode_crossing() {
        let edit = [(2, "internode_cross", 0.9.into())];
        assert_trips("ablation_staged", &edit, "vs round-robin");
    }

    #[test]
    fn exflow_needs_no_replicas_to_beat_small_budgets() {
        let edit = [(4, "extra_copies", 1u64.into())];
        assert_trips("ablation_replication", &edit, "vs unreplicated");
        let edit = [(3, "local_fraction", 0.0.into())];
        assert_trips("ablation_replication", &edit, "locality fell");
    }

    #[test]
    fn top2_roughly_doubles_traffic_without_doubling_exflow() {
        // Rows: top-1 x (vanilla, coherent, affinity), then top-2's three.
        let edit = [(3, "cross_gpu_bytes", 1u64.into())];
        assert_trips("ablation_gating", &edit, "not doubled");
        let edit = [(5, "relative_throughput", 0.0.into())];
        assert_trips("ablation_gating", &edit, "should beat plain coherence");
        let edit = [(5, "cross_gpu_bytes", u64::MAX.into())];
        assert_trips("ablation_gating", &edit, "bytes vs vanilla top-2's");
    }

    #[test]
    fn speedup_grows_with_affinity_strength() {
        let edit = [(4, "speedup", 0.0.into())];
        assert_trips("ablation_kappa", &edit, "should exceed kappa 0's");
    }
}
