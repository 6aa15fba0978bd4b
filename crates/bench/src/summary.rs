//! The beyond-paper sweeps and the `BENCH_*.json` document `repro all`
//! builds from every [`TABLES`](crate::table::TABLES) entry's rows.
//!
//! One sweep per beyond-paper entry; each table's paragraph is the doc
//! comment of its sweep function below, and the `Json::obj` literal that
//! ends the sweep — one commented line per key — is the only place the
//! table's columns are declared.
//!
//! Every number in `BENCH_*.json` is a deterministic fact (CI
//! byte-compares the document with the committed baseline). Nothing here
//! reads a clock: host time is measured by `benchmark/`.

use exflow_affinity::{AffinitySnapshot, RoutingTrace, StreamingAffinity};
use exflow_core::json::Json;
use exflow_core::{
    BatchPolicy, InferenceEngine, OnlineConfig, ParallelismMode, Scenario, ServingConfig,
    ServingReport,
};
use exflow_model::presets::{large_zoo, moe_gpt_m, table2};
use exflow_model::routing::AffinityModelSpec;
use exflow_model::ArrivalProcess;
use exflow_model::{
    CorpusSpec, DriftSchedule, FaultKind, FaultSchedule, GateKind, ModelConfig, TokenBatch,
};
use exflow_placement::annealing::AnnealParams;
use exflow_placement::greedy::solve_greedy;
use exflow_placement::local_search::{improve, solve_local_search_with};
use exflow_placement::objective::measure_trace_locality;
use exflow_placement::online::MigrationPlan;
use exflow_placement::{
    replicated_cross_mass, solve_budgeted_metered, solve_budgeted_replicated_metered,
    solve_budgeted_toward_metered, solve_with, split_seed, CostMeter, GapBackend, Objective,
    Parallelism, Placement, ReplicaPolicy, ReplicationBudget, ReplicationPlan, SolverKind,
    SwapGainCache,
};
use exflow_topology::{ClusterSpec, CostModel, LinkCost};

use crate::sweep::par_map;

/// GPUs each Table II instance is solved for (divides every Table II
/// expert count).
const N_UNITS: usize = 4;

/// GPUs each `table_sparse` instance is solved for (divides 256 and 512).
const N_UNITS_LARGE: usize = 8;

/// Experts per layer of every `table_online` scenario.
const ONLINE_EXPERTS: usize = 16;

/// GPUs each `table_online` scenario is placed across.
const ONLINE_UNITS: usize = 4;

/// Windows between re-plans in the `table_online` scenarios.
const ONLINE_REPLAN_EVERY: usize = 1;

/// Expert moves one `table_online` re-plan may migrate (the byte budget
/// is this many expert weight payloads). An oracle re-solve after a full
/// structure flip relocates most of the `E x L` expert slots; this budget
/// is well under half of that.
const ONLINE_BUDGET_MOVES: u64 = 40;

/// Local-search restarts of the oracle re-solve.
const ONLINE_ORACLE_RESTARTS: usize = 2;

/// Decay of the streaming estimator in the online scenarios.
const ONLINE_DECAY: f64 = 0.5;

/// Expert moves one `table_replication_online` re-plan may migrate (joint
/// and owner-moves-only policies get exactly this many payloads of
/// migration traffic, so the comparison is at equal bytes). Deliberately
/// tighter than `ONLINE_BUDGET_MOVES`: the joint mode's edge is what it
/// buys when migration traffic is scarce.
const REPLICATION_BUDGET_MOVES: u64 = 16;

/// Extra replica payloads each GPU may hold in the joint policy (the
/// `replica_memory_bytes` axis of the joint budget, in expert payloads).
const REPLICATION_SLOTS: u64 = 8;

/// Experts per layer of every `table_serving` scenario (small enough
/// that each decode step's engine pass stays cheap: the sweep runs
/// hundreds of them).
const SERVING_EXPERTS: usize = 16;

/// Batch-size cap of the serving scenarios (also the occupancy the
/// arrival rates are calibrated against).
const SERVING_MAX_BATCH: usize = 32;

/// FFN inner dimension of the serving model's experts. Much narrower
/// than the GPT convention (`4 * d_model`): serving cells live in the
/// paper's communication-bounded regime (Fig. 9d), where dispatch
/// Alltoalls — the thing placement quality controls — are a large
/// share of step time, and expert payloads (hence migration stalls)
/// are small.
const SERVING_D_FF: usize = 128;

/// Decode steps (generated tokens) per request.
const SERVING_DECODE_STEPS: usize = 4;

/// Serving windows the virtual horizon divides into (drift checks fire
/// at window boundaries).
const SERVING_WINDOWS: usize = 6;

/// Offered load as a fraction of full-batch service capacity, measured
/// against the *profiled* placement on *profiled* traffic. Live drifted
/// traffic serves slower than that calibration, so the static incumbent
/// runs saturated and its queue backs up into the latency tail, while a
/// re-placed server recovers enough service rate to stay stable.
const SERVING_UTILIZATION: f64 = 0.96;

/// Inter-node line rate of the serving cells' cluster, bytes/s. A
/// quarter of the wilkes3 preset's 50 GB/s: the serving story plays out
/// in the paper's communication-bounded regime (Fig. 9d), where the
/// dispatch locality a placement buys — or loses, as traffic drifts —
/// moves the effective service rate, and queueing near saturation
/// amplifies that into the latency tail.
const SERVING_INTER_NODE_BW: f64 = 12.5e9;

/// Expert moves one serving re-plan may migrate, in expert payloads.
/// Migration stalls the server, so the budget trades re-placement
/// quality against tail-latency spikes; the serving model's narrow
/// experts ([`SERVING_D_FF`]) keep one full-budget stall small.
const SERVING_BUDGET_MOVES: u64 = 16;

/// Extra replica payloads per GPU in the replication-aware serving
/// policy.
const SERVING_REPLICA_SLOTS: u64 = 4;

/// Drift threshold of the serving re-placement policies.
const SERVING_DRIFT_THRESHOLD: f64 = 0.08;

/// Streaming-estimator decay of the serving scenarios.
const SERVING_DECAY: f64 = 0.3;

/// Offered load of the `table_elasticity` cells as a fraction of
/// full-*fleet* capacity. Deliberately below [`SERVING_UTILIZATION`]:
/// after one of the four GPUs dies the surviving fleet runs at 4/3 of
/// this figure, which must stay under saturation or the latency tail
/// never returns to its pre-fault level and "recovery time" stops
/// existing for either fleet.
const ELASTICITY_UTILIZATION: f64 = 0.6;

/// Requests per `table_elasticity` cell — enough completions on both
/// sides of the fault for the pre-fault p99 and the rolling recovery
/// window (`exflow_core::RECOVERY_WINDOW`) to be meaningful.
const ELASTICITY_REQUESTS: usize = 500;

/// When the GPU loss strikes, as a fraction of the arrival horizon.
const ELASTICITY_FAULT_AT: f64 = 0.4;

/// When the lost GPU rejoins (in the loss+rejoin scenario), as a
/// fraction of the arrival horizon.
const ELASTICITY_REJOIN_AT: f64 = 0.6;

/// Expert moves one `table_partial_replication` re-plan may migrate —
/// identical for the partial and everywhere policies, so the race is at
/// equal traffic.
const PARTIAL_BUDGET_MOVES: u64 = 12;

/// Extra replica payloads each GPU may hold in every
/// `table_partial_replication` cell — identical for both policies, so the
/// race is at equal memory. Partial fan-out ships fewer copies per
/// replicated expert, which is exactly the edge the sweep measures.
const PARTIAL_REPLICA_SLOTS: u64 = 4;

/// Expert moves one `table_replan_latency` re-plan may relocate. Each
/// accepted move costs the budgeted descent one full candidate rescan,
/// so this also sets how many rescans the rebuild path pays per re-plan
/// — the cost the incremental path's cache collapses to `O(dirty)`.
const REPLAN_LATENCY_MOVES: u64 = 40;

/// Tokens per `table_replan_latency` window. Deliberately
/// lean: the sweep studies solver latency on *sparse* instances, where a
/// swap's dirty set (the swapped experts plus their structural
/// neighbors) is a small fraction of the `E(E-1)` candidate space — the
/// regime the cache's `O(dirty)` rescan contract targets.
const REPLAN_LATENCY_TOKENS: usize = 800;

/// Layers of every `table_replan_latency` instance. Two layers (one gap)
/// keep the `E = 512` cells affordable while still exercising both the
/// successor (CSR-row) and predecessor (CSC-column) invalidation paths.
const REPLAN_LATENCY_LAYERS: usize = 2;

/// Schema tag of the summary document; bump it on any field change and
/// regenerate the baseline, which CI byte-compares, tag line included.
pub const SCHEMA: &str = "exflow-bench-summary/v10";

/// Master seed of the committed baseline (`BENCH_BASELINE.json`): the
/// seed `repro` regenerates the `table_*` artifacts at, so the printed
/// numbers are exactly the gated ones.
pub const BASELINE_SEED: u64 = 20_240_522;

/// One array section of the document: a [`TABLES`](crate::table::TABLES)
/// entry's key and the rows its sweep built.
pub type Section = (&'static str, Vec<Json>);

/// The [`SCHEMA`] document (see README) of `sections`, which `repro all`
/// hands over in `TABLES` order. Floats print with shortest round-trip
/// formatting or a fixed number of decimals, and each row is one line, so
/// byte equality of two documents — what CI checks — is bit equality of
/// every value, and a word diff shows a changed value on its row's line.
pub fn document(seed: u64, sections: Vec<Section>) -> String {
    let mut doc = vec![("schema", SCHEMA.into()), ("seed", seed.into())];
    doc.extend(
        sections
            .into_iter()
            .map(|(key, rows)| (key, Json::Arr(rows))),
    );
    Json::obj(doc)
        .write_pretty()
        .expect("bench summaries hold only finite numbers")
}

/// `num / den`, or 0 when the denominator is not positive: a degenerate
/// cell reports no ratio rather than an infinite one.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        return 0.0;
    }
    num / den
}

/// The solver roster of the Table II sweep, which records each solver's
/// cross mass.
pub fn roster() -> Vec<SolverKind> {
    vec![
        SolverKind::RoundRobin,
        SolverKind::Greedy,
        SolverKind::LocalSearch { restarts: 2 },
        SolverKind::Annealing(AnnealParams::default().with_starts(1)),
        SolverKind::portfolio(50),
    ]
}

/// Build the fixed-seed profiled instance for one Table II model. The
/// instance keeps a sixth of the model's layer count (so the sweep stays
/// time-boxed), so the 24L/32L/40L variants of the zoo
/// stay distinct instances. Placement only sees routing structure — model
/// width never enters the objective — so models that share an
/// (experts, layers) shape (M/16e vs XL/16e) are distinguished by a
/// model-specific seed stream instead.
fn instance(n_experts: usize, n_layers: usize, seed: u64) -> Objective {
    let layers = (n_layers / 6).max(2);
    Objective::from_snapshot(&profile(layers, n_experts, 1500, 1, seed))
}

/// Sample `tokens` top-`k` tokens from the fixed-seed routing model of an
/// `(layers, e)` instance and run the one profiling trace through the
/// streaming estimator: the CSR snapshot objectives are built from.
fn profile(layers: usize, e: usize, tokens: usize, k: usize, seed: u64) -> AffinitySnapshot {
    let spec = AffinityModelSpec::new(layers, e).with_seed(seed);
    let corpus = CorpusSpec::pile_proxy(spec.n_domains);
    let batch = TokenBatch::sample(&spec.build(), &corpus, tokens, k, seed);
    let mut estimate = StreamingAffinity::new(layers, e, 1.0);
    estimate.observe(&RoutingTrace::from_batch(&batch, e));
    estimate.snapshot()
}

/// Sample one serving window's routing trace from a drift schedule, at
/// gating fan-out `k` (top-2 cells route every token through two experts
/// per layer).
fn window_trace(
    drift: &DriftSchedule,
    window: usize,
    tokens: usize,
    k: usize,
    seed: u64,
) -> RoutingTrace {
    let model = drift.model_at(window);
    let batch = TokenBatch::sample(
        model,
        &CorpusSpec::pile_proxy(model.n_domains()),
        tokens,
        k,
        split_seed(seed, window as u64),
    );
    RoutingTrace::from_batch(&batch, model.n_experts())
}

/// The placement the window-by-window sweeps start from: greedy plus a
/// bounded polish — deterministic, and cheap enough for `E = 512`.
fn greedy_incumbent(objective: &Objective, units: usize) -> Placement {
    let mut placement = solve_greedy(objective, units);
    improve(objective, &mut placement, 10);
    placement
}

/// The per-window half of the byte-budget bars, which no row can express:
/// `Err` if `who`'s re-plan at `window` migrated more than its budget.
fn within_byte_budget(
    who: &str,
    window: usize,
    plan: &MigrationPlan,
    budget_bytes: u64,
) -> Result<(), String> {
    if plan.total_bytes() > budget_bytes {
        return Err(format!(
            "{who} re-plan at window {window} migrated {} bytes over the {budget_bytes} budget",
            plan.total_bytes()
        ));
    }
    Ok(())
}

/// The per-window half of the replica-memory bars: `Err` if `who`'s
/// re-plan at `window` leaves some GPU more than `slots` extra copies.
fn within_slot_budget(
    who: &str,
    window: usize,
    plan: &ReplicationPlan,
    slots: u64,
) -> Result<(), String> {
    if plan.extra_copies_per_gpu() as u64 > slots {
        return Err(format!(
            "{who} re-plan at window {window} holds {} extra copies over the {slots}-slot \
             memory budget",
            plan.extra_copies_per_gpu()
        ));
    }
    Ok(())
}

/// An `f64` that equals only its own bit pattern: what "identical" means
/// for a float everywhere in this crate.
#[derive(Debug, Clone, Copy)]
struct Bits(f64);

impl PartialEq for Bits {
    fn eq(&self, other: &Bits) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

/// The backend half of the bit-identity contract, checked wherever a sweep
/// solves: run `solve` on the dense and then on the CSR objective of one
/// snapshot, and return the dense result — or `Err(diverged(dense, csr))`
/// unless the two are equal. Floats go through as [`Bits`].
fn on_both_backends<T: PartialEq>(
    snapshot: &AffinitySnapshot,
    mut solve: impl FnMut(&Objective) -> T,
    diverged: impl FnOnce(&T, &T) -> String,
) -> Result<T, String> {
    let dense = solve(&Objective::from_snapshot_with(snapshot, GapBackend::Dense));
    let sparse = solve(&Objective::from_snapshot_with(snapshot, GapBackend::Sparse));
    if dense != sparse {
        return Err(diverged(&dense, &sparse));
    }
    Ok(dense)
}

/// [`on_both_backends`] for a float score, compared bit for bit; the
/// error names both values.
fn score_on_both_backends(
    snapshot: &AffinitySnapshot,
    what: &str,
    score: impl Fn(&Objective) -> f64,
) -> Result<f64, String> {
    let Bits(score) = on_both_backends(
        snapshot,
        |objective| Bits(score(objective)),
        |dense, sparse| {
            format!(
                "{what} diverged across gap backends: dense {} vs sparse {}",
                dense.0, sparse.0
            )
        },
    )?;
    Ok(score)
}

/// The solver width a sweep's thread-count check compares with width 1:
/// `jobs`, but never 1, so the check holds two different widths even at
/// `repro`'s default `--jobs 1`.
fn checked_width(jobs: usize) -> usize {
    jobs.max(2)
}

/// The engine-level bit-identity contract: `run(threads, backend)` must be
/// the same report at one solver thread on the dense backend (returned),
/// at every width in `widths`, and at one thread on the CSR backend.
fn at_widths<T: PartialEq>(
    what: &str,
    widths: &[usize],
    run: impl Fn(usize, GapBackend) -> T,
) -> Result<T, String> {
    let reference = run(1, GapBackend::Dense);
    for &threads in widths {
        if run(threads, GapBackend::Dense) != reference {
            return Err(format!(
                "{what} diverged across solver widths (1 vs {threads})"
            ));
        }
    }
    if run(1, GapBackend::Sparse) != reference {
        return Err(format!("{what} diverged across gap backends"));
    }
    Ok(reference)
}

/// The Table II sweep — the model zoo × the solver portfolio on fixed-seed
/// profiled instances, recording the achieved objective (cross mass) per
/// `SolverKind`. Instances and grid points fan across the sweep pool; each
/// solve runs sequentially inside its grid point.
pub fn solver_table(_jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
    let kinds = roster();
    let instances: Vec<(String, Objective)> = par_map(table2(), |m| {
        // Fold every identity-bearing field into the stream so no two
        // zoo rows ever measure the same instance.
        let stream = seed ^ (m.n_layers as u64) ^ ((m.d_model as u64) << 16) ^ m.base_params;
        (m.name, instance(m.n_experts, m.n_layers, stream))
    });
    let grid: Vec<(usize, usize)> = (0..instances.len())
        .flat_map(|m| (0..kinds.len()).map(move |s| (m, s)))
        .collect();
    Ok(par_map(grid, |(m, s)| {
        let (name, objective) = &instances[m];
        let kind = &kinds[s];
        let placement = solve_with(objective, N_UNITS, kind, seed, Parallelism::single());
        Json::obj(vec![
            // Table II model name.
            ("model", name.as_str().into()),
            // Stable solver label (`SolverKind::label`).
            ("solver", kind.label().as_str().into()),
            // Achieved objective: expected cross-unit transition mass
            // (lower is better; the same bits at any `jobs`).
            ("cross_mass", objective.cross_mass(&placement).into()),
        ])
    }))
}

/// Measure one `table_sparse` cell: profile a large-expert instance,
/// build the objective once per backend from the same CSR estimates, sum
/// one exact `swap_delta` pass over every swap candidate on each, run the
/// same bounded polish on each, and verify the results are identical.
fn sparse_cell(cfg: &ModelConfig, seed: u64) -> Result<Json, String> {
    let e = cfg.n_experts;
    let k = cfg.gate.k();
    let layers = 2;
    let snapshot = profile(layers, e, 3000, k, seed);

    /// What one backend's pass must reproduce bit for bit on the other.
    #[derive(PartialEq)]
    struct Pass {
        cost: Bits,
        scan: Bits,
        placement: Placement,
        nnz: usize,
        density: Bits,
    }
    let run = |objective: &Objective| {
        let mut placement = Placement::round_robin(layers, e, N_UNITS_LARGE);
        // The exact gain of every swap candidate once: `swap_delta` is
        // where the backends differ (`O(E)` flat vs `O(nnz)` indexed per
        // call), and what annealing and the walks' exact decisions pay.
        // The polish below prices candidates from the attraction table.
        let mut scan = 0.0f64;
        for layer in 0..layers {
            for e1 in 0..e {
                for e2 in (e1 + 1)..e {
                    scan += objective.swap_delta(&placement, layer, e1, e2);
                }
            }
        }
        Pass {
            cost: Bits(improve(objective, &mut placement, 1)),
            scan: Bits(scan),
            placement,
            nnz: objective.nnz(),
            density: Bits(objective.density()),
        }
    };
    let pass = on_both_backends(&snapshot, run, |dense, sparse| {
        format!(
            "backend divergence on {}: dense {} vs sparse {}",
            cfg.name, dense.cost.0, sparse.cost.0
        )
    })?;

    Ok(Json::obj(vec![
        // Large-zoo preset name.
        ("preset", cfg.name.as_str().into()),
        // Experts per layer.
        ("experts", e.into()),
        // Gating fan-out the instance was sampled with.
        ("k", k.into()),
        // Layers of the profiled instance (scaled down from the preset).
        ("layers", layers.into()),
        // Structural nonzeros across the instance's gap matrices
        // (backend-independent, deterministic).
        ("nnz", pass.nnz.into()),
        // `nnz` over the dense cell count.
        ("density", Json::Fixed(pass.density.0, 6)),
        // Final cross mass (bit-identical across backends — verified).
        ("cross_mass", pass.cost.0.into()),
    ]))
}

/// The `table_sparse` sweep: the large-expert zoo (`E = 256/512`, top-1
/// and top-2) solved once per objective backend (dense `E x E` vs CSR),
/// verifying the two produce identical placements, bit-identical cross
/// mass and the same sum over one exact `swap_delta` pass of every swap
/// candidate, and recording nnz/density per cell — the share of the dense
/// cells the CSR backend stores and walks. Errors if any cell's backends
/// diverge.
pub fn sparse_table(_jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
    let cells = par_map(large_zoo(), |cfg| {
        let stream = seed ^ ((cfg.n_experts as u64) << 20) ^ cfg.gate.k() as u64;
        sparse_cell(&cfg, stream)
    });
    cells.into_iter().collect()
}

/// Serve one drift scenario under the three policies. Every solve is
/// verified invariant: the oracle re-solve across thread counts
/// (1 vs [`checked_width`]), the budgeted re-solve and the final cross
/// mass across gap backends. Cross counts are measured on the realized
/// window traces.
fn online_scenario(
    drift: &DriftSchedule,
    layers: usize,
    window_tokens: usize,
    jobs: usize,
    seed: u64,
) -> Result<Json, String> {
    let e = ONLINE_EXPERTS;
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = ONLINE_BUDGET_MOVES * bytes_per_expert;
    let windows = drift.n_windows();

    // Profile window 0's routing and solve the shared initial placement —
    // exactly what all three policies start from.
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(drift, 0, window_tokens, 1, seed ^ 0x0ff1));
    let initial = solve_local_search_with(
        &Objective::from_snapshot(&streaming.snapshot()),
        ONLINE_UNITS,
        ONLINE_ORACLE_RESTARTS,
        seed,
        Parallelism::single(),
    );
    let static_placement = initial.clone();
    let mut oracle_placement = initial.clone();
    let mut budgeted_placement = initial;

    let (mut static_cross, mut oracle_cross, mut budgeted_cross) = (0u64, 0u64, 0u64);
    let mut migrated_bytes = 0u64;
    let mut replans = 0usize;

    for window in 0..windows {
        let trace = window_trace(drift, window, window_tokens, 1, seed);
        for (placement, acc) in [
            (&static_placement, &mut static_cross),
            (&oracle_placement, &mut oracle_cross),
            (&budgeted_placement, &mut budgeted_cross),
        ] {
            let loc = measure_trace_locality(&trace, placement);
            *acc += loc.transitions - loc.local;
        }
        streaming.observe(&trace);

        if (window + 1).is_multiple_of(ONLINE_REPLAN_EVERY) && window + 1 < windows {
            let snapshot = streaming.snapshot();
            // Oracle: from-scratch re-solve on the live estimate,
            // thread-count invariance verified.
            let live = Objective::from_snapshot(&snapshot);
            let oracle = |parallelism: Parallelism| {
                solve_local_search_with(
                    &live,
                    ONLINE_UNITS,
                    ONLINE_ORACLE_RESTARTS,
                    split_seed(seed, 0x0c0de ^ window as u64),
                    parallelism,
                )
            };
            oracle_placement = oracle(Parallelism::single());
            if oracle_placement != oracle(Parallelism::new(checked_width(jobs))) {
                return Err(format!(
                    "{}: oracle re-solve diverged across thread counts at window {window}",
                    drift.name()
                ));
            }

            // Budgeted incremental: walk toward the same oracle-quality
            // solution under the byte budget (the budget caps migration
            // traffic, not solver compute). Gap-backend invariance is
            // verified on the walk.
            let max_moves = budget_bytes / bytes_per_expert;
            let toward = |objective: &Objective| {
                solve_budgeted_toward_metered(
                    objective,
                    &budgeted_placement,
                    &oracle_placement,
                    max_moves,
                    &mut CostMeter::unlimited(),
                    None,
                )
            };
            let next = on_both_backends(&snapshot, toward, |_, _| {
                format!(
                    "{}: budgeted re-solve diverged across gap backends at window {window}",
                    drift.name()
                )
            })?;
            let plan = MigrationPlan::between(&budgeted_placement, &next, bytes_per_expert);
            within_byte_budget(&format!("{}:", drift.name()), window, &plan, budget_bytes)?;
            if !plan.is_empty() {
                migrated_bytes += plan.total_bytes();
                replans += 1;
            }
            budgeted_placement = next;
        }
    }

    // The reported objective: the budgeted placement scored on the final
    // live estimate, bit-compared across backends.
    let cross_mass = score_on_both_backends(
        &streaming.snapshot(),
        &format!("{}: final cross mass", drift.name()),
        |objective| objective.cross_mass(&budgeted_placement),
    )?;

    let (stat, oracle, budgeted) = (
        static_cross as f64,
        oracle_cross as f64,
        budgeted_cross as f64,
    );
    // Cross counts are realized cross-unit layer transitions summed over
    // every serving window — integers, so any drift across thread counts
    // or backends is unambiguous.
    Ok(Json::obj(vec![
        // Drift preset name (`piecewise-2phase`, `smooth`, ...).
        ("scenario", drift.name().into()),
        // Experts per layer.
        ("experts", e.into()),
        // MoE layers.
        ("layers", layers.into()),
        // Serving windows.
        ("windows", windows.into()),
        // Windows between re-plans.
        ("replan_every", ONLINE_REPLAN_EVERY.into()),
        // Byte budget of one budgeted re-plan.
        ("budget_bytes", budget_bytes.into()),
        // Bytes the budgeted policy actually migrated, whole run.
        ("migrated_bytes", migrated_bytes.into()),
        // Budgeted re-plans that moved at least one expert.
        ("replans", replans.into()),
        // Cross-unit transitions under the never-re-placed incumbent.
        ("static_cross", static_cross.into()),
        // Cross-unit transitions under from-scratch oracle re-solves.
        ("oracle_cross", oracle_cross.into()),
        // Cross-unit transitions under budgeted incremental re-placement.
        ("budgeted_cross", budgeted_cross.into()),
        // Fraction of the oracle's cross-traffic reduction the budgeted
        // policy recovers.
        (
            "recovery",
            Json::Fixed(online_recovery(stat, oracle, budgeted), 4),
        ),
        // Final cross mass of the budgeted placement on the live estimate
        // (bit-identical across backends — verified).
        ("cross_mass", cross_mass.into()),
    ]))
}

/// Fraction of the oracle's cross-traffic reduction the budgeted policy
/// recovers: `(static - budgeted) / (static - oracle)`. 1.0 when the
/// scenario gives the oracle nothing to improve.
pub(crate) fn online_recovery(static_cross: f64, oracle_cross: f64, budgeted_cross: f64) -> f64 {
    if static_cross <= oracle_cross {
        return 1.0;
    }
    (static_cross - budgeted_cross) / (static_cross - oracle_cross)
}

/// The `table_online` sweep: the non-stationary drift presets served
/// under three re-placement policies (static incumbent, oracle re-solve,
/// byte-budgeted incremental), recording realized cross-unit transition
/// counts, migrated bytes, and the recovery fraction — verified
/// bit-identical across thread counts and gap backends. Errors (instead of
/// panicking) if any invariance check fails.
pub fn online_table(jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
    let layers = 5;
    let windows = 12;
    let window_tokens = 1500;
    let spec = AffinityModelSpec::new(layers, ONLINE_EXPERTS).with_seed(seed ^ 0x07_11_13);
    DriftSchedule::presets(&spec, windows)
        .iter()
        .enumerate()
        .map(|(i, drift)| {
            online_scenario(
                drift,
                layers,
                window_tokens,
                jobs,
                split_seed(seed, 0xd1f7 ^ i as u64),
            )
        })
        .collect()
}

/// Serve one drift scenario under static / owner-moves-only / joint
/// replication-aware re-placement. Both adaptive policies get the same
/// per-re-plan migration byte budget; the joint policy additionally gets
/// `replica_slots` expert payloads of per-GPU replica memory. Every joint
/// re-solve and the final cross mass are verified invariant across gap
/// backends, and both policies are verified budget-compliant. Cross
/// counts are measured on the realized window traces.
fn replication_scenario(
    drift: &DriftSchedule,
    e: usize,
    units: usize,
    layers: usize,
    replan_every: usize,
    window_tokens: usize,
    seed: u64,
) -> Result<Json, String> {
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = REPLICATION_BUDGET_MOVES * bytes_per_expert;
    let joint_budget = ReplicationBudget {
        replica_memory_bytes: REPLICATION_SLOTS * bytes_per_expert,
        migration_budget_bytes: budget_bytes,
    };
    let windows = drift.n_windows();
    let scenario = format!("{}/E{e}", drift.name());

    // Profile window 0 and solve the shared initial placement (greedy +
    // bounded polish: deterministic and cheap enough for E = 256).
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(drift, 0, window_tokens, 1, seed ^ 0x0ff1));
    let initial = greedy_incumbent(&Objective::from_snapshot(&streaming.snapshot()), units);
    let static_placement = initial.clone();
    let mut owner_placement = initial.clone();
    let mut joint_plan = ReplicationPlan::bare(initial);

    let (mut static_cross, mut owner_cross, mut joint_cross) = (0u64, 0u64, 0u64);
    let (mut owner_migrated, mut joint_migrated) = (0u64, 0u64);
    let (mut owner_replans, mut joint_replans) = (0usize, 0usize);
    let (mut replicas_added, mut replicas_dropped) = (0u64, 0u64);

    for window in 0..windows {
        let trace = window_trace(drift, window, window_tokens, 1, seed);
        for (placement, acc) in [
            (&static_placement, &mut static_cross),
            (&owner_placement, &mut owner_cross),
        ] {
            let loc = measure_trace_locality(&trace, placement);
            *acc += loc.transitions - loc.local;
        }
        let loc = joint_plan.trace_locality(&trace);
        joint_cross += loc.transitions - loc.local;
        streaming.observe(&trace);

        if (window + 1).is_multiple_of(replan_every) && window + 1 < windows {
            // Owner-moves-only: the whole migration budget buys
            // relocations.
            let owner = |objective: &Objective| {
                let moves = REPLICATION_BUDGET_MOVES;
                solve_budgeted_metered(objective, &owner_placement, moves, u64::MAX, None).0
            };
            // Joint: replica adds/drops race owner moves under the same
            // migration budget plus the replica memory budget.
            let joint = |objective: &Objective| {
                solve_budgeted_replicated_metered(
                    objective,
                    &joint_plan,
                    bytes_per_expert,
                    &joint_budget,
                    &ReplicaPolicy::Everywhere,
                    u64::MAX,
                    None,
                )
                .0
            };
            let (owner_next, joint_next) = on_both_backends(
                &streaming.snapshot(),
                |objective| (owner(objective), joint(objective)),
                |dense, sparse| {
                    let policy = if dense.0 != sparse.0 {
                        "owner"
                    } else {
                        "joint"
                    };
                    format!(
                        "{scenario}: {policy} re-solve diverged across gap backends at window {window}"
                    )
                },
            )?;

            let plan = MigrationPlan::between(&owner_placement, &owner_next, bytes_per_expert);
            within_byte_budget(&format!("{scenario}: owner"), window, &plan, budget_bytes)?;
            if !plan.is_empty() {
                owner_migrated += plan.total_bytes();
                owner_replans += 1;
            }
            owner_placement = owner_next;

            let plan =
                MigrationPlan::between_replicated(&joint_plan, &joint_next, bytes_per_expert);
            let who = format!("{scenario}: joint");
            within_byte_budget(&who, window, &plan, budget_bytes)?;
            within_slot_budget(&who, window, &joint_next, REPLICATION_SLOTS)?;
            if !plan.is_empty() {
                joint_migrated += plan.total_bytes();
                joint_replans += 1;
                replicas_added += plan.n_replica_adds() as u64;
                replicas_dropped += plan.n_replica_drops() as u64;
            }
            joint_plan = joint_next;
        }
    }

    // The reported objective: the joint plan scored on the final live
    // estimate, bit-compared across backends.
    let cross_mass = score_on_both_backends(
        &streaming.snapshot(),
        &format!("{scenario}: final replicated cross mass"),
        |objective| replicated_cross_mass(objective, &joint_plan),
    )?;

    // Fraction of the static incumbent's cross traffic a policy
    // eliminated: `(static - cross) / static` (0 when the static run had
    // none).
    let recovery = |cross: u64| {
        let eliminated = static_cross as f64 - cross as f64;
        Json::Fixed(ratio(eliminated, static_cross as f64), 4)
    };
    // Cross counts are realized cross-unit layer transitions on the window
    // traces — the joint policy's counts honor replica availability
    // (`ReplicationPlan::trace_locality`).
    Ok(Json::obj(vec![
        // Drift preset plus the instance size (`piecewise-2phase/E16`, ...).
        ("scenario", scenario.as_str().into()),
        // Experts per layer.
        ("experts", e.into()),
        // MoE layers.
        ("layers", layers.into()),
        // GPUs the instance is placed across.
        ("units", units.into()),
        // Serving windows.
        ("windows", windows.into()),
        // Windows between re-plans.
        ("replan_every", replan_every.into()),
        // Migration byte budget of one re-plan (identical for both
        // adaptive policies).
        ("budget_bytes", budget_bytes.into()),
        // Per-GPU replica memory budget of the joint policy, in expert
        // payloads.
        ("replica_slots", REPLICATION_SLOTS.into()),
        // Bytes the owner-moves-only policy migrated, whole run.
        ("owner_migrated_bytes", owner_migrated.into()),
        // Bytes the joint policy migrated (owner moves + replica fan-out).
        ("joint_migrated_bytes", joint_migrated.into()),
        // Owner-policy re-plans that moved at least one expert.
        ("owner_replans", owner_replans.into()),
        // Joint-policy re-plans that changed anything.
        ("joint_replans", joint_replans.into()),
        // Replica copies the joint policy created, whole run.
        ("replicas_added", replicas_added.into()),
        // Replica copies the joint policy retired, whole run.
        ("replicas_dropped", replicas_dropped.into()),
        // Worst-case extra replica copies any GPU holds at the end of the
        // joint run (must stay within `replica_slots`).
        ("extra_copies", joint_plan.extra_copies_per_gpu().into()),
        // Cross-unit transitions under the never-re-placed incumbent.
        ("static_cross", static_cross.into()),
        // Cross-unit transitions under owner-moves-only re-placement.
        ("owner_cross", owner_cross.into()),
        // Cross-unit transitions under the joint policy.
        ("joint_cross", joint_cross.into()),
        // Locality recovery of the owner-moves-only policy.
        ("owner_recovery", recovery(owner_cross)),
        // Locality recovery of the joint policy.
        ("joint_recovery", recovery(joint_cross)),
        // Final replication-aware cross mass of the joint plan on the live
        // estimate (bit-identical across backends — verified).
        ("cross_mass", cross_mass.into()),
    ]))
}

/// The `table_replication_online` sweep: the 3 drift presets at `E = 16`,
/// then one `large_zoo()` sparse instance (`E = 256`, top-1) where the
/// CSR objective backend carries the re-solves, under static /
/// owner-moves-only / joint replication-aware re-placement. At equal
/// migration bytes the joint policy may additionally spend a per-GPU
/// replica memory budget; the sweep records cross counts, replica churn,
/// and budget compliance — verified invariant across gap backends. Errors
/// (instead of panicking) if any invariance or budget check fails.
pub fn replication_online_table(_jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
    let layers = 5;
    let windows = 10;
    let window_tokens = 1500;
    let spec = AffinityModelSpec::new(layers, ONLINE_EXPERTS).with_seed(seed ^ 0x05_17_19);
    let mut rows: Vec<Json> = DriftSchedule::presets(&spec, windows)
        .iter()
        .enumerate()
        .map(|(i, drift)| {
            replication_scenario(
                drift,
                ONLINE_EXPERTS,
                ONLINE_UNITS,
                layers,
                ONLINE_REPLAN_EVERY,
                window_tokens,
                split_seed(seed, 0x5e71 ^ i as u64),
            )
        })
        .collect::<Result<_, _>>()?;

    // One large sparse instance: E = 256 top-1 from the large zoo, few
    // windows (each re-solve walks a 256-expert swap neighborhood).
    let large = &large_zoo()[0];
    let large_layers = 2;
    let large_windows = 4;
    let large_spec =
        AffinityModelSpec::new(large_layers, large.n_experts).with_seed(seed ^ 0x23_29_31);
    let large_drift = DriftSchedule::piecewise(&large_spec, 2, large_windows);
    rows.push(replication_scenario(
        &large_drift,
        large.n_experts,
        N_UNITS_LARGE,
        large_layers,
        1,
        2000,
        split_seed(seed, 0x5e71 ^ 0xbeef),
    )?);
    Ok(rows)
}

/// The model every serving cell runs: `SERVING_EXPERTS` narrow experts.
fn serving_model(layers: usize) -> ModelConfig {
    let mut model = moe_gpt_m(SERVING_EXPERTS);
    model.n_layers = layers;
    model.d_ff = SERVING_D_FF;
    model
}

/// Build one serving engine. All policies share the model, cluster, and
/// master seed, so the profiled incumbent placement — and, downstream,
/// the arrival sample and per-request routing draws of the serving run —
/// are identical across policies; only the re-placement behavior differs.
fn serving_engine(
    layers: usize,
    online: OnlineConfig,
    threads: usize,
    backend: GapBackend,
    seed: u64,
) -> InferenceEngine {
    let cost = CostModel::new(
        LinkCost::from_latency_bandwidth(0.3e-6, 1.5e12),
        LinkCost::from_latency_bandwidth(1.0e-6, 300.0e9),
        LinkCost::from_latency_bandwidth(3.5e-6, SERVING_INTER_NODE_BW),
    )
    .with_alltoall_efficiency([1.0, 0.5, 0.16]);
    InferenceEngine::builder(serving_model(layers), ClusterSpec::new(2, 2).unwrap())
        .link_cost(cost)
        .requests_per_gpu(SERVING_MAX_BATCH / 4)
        .prompt_len(4)
        .profile_tokens(800)
        .parallelism(Parallelism::new(threads))
        .gap_backend(backend)
        .online(online)
        .seed(seed ^ 0x5e_4b_1e)
        .build()
}

/// One serving cell's arrival calibration, against a probed full-batch
/// step time (`InferenceEngine::probe_step_time`): `(rate, horizon,
/// config)`, where `rate` fills `utilization` of the cell's token-serving
/// capacity whatever the model shape, `horizon` is how long that rate
/// takes to deliver every request, and `config(arrival)` is the cell's
/// serving front-end under one arrival process.
fn calibrate_serving(
    eng: &InferenceEngine,
    mode: ParallelismMode,
    utilization: f64,
    n_requests: usize,
) -> Result<(f64, f64, impl Fn(ArrivalProcess) -> ServingConfig), String> {
    let step = eng.probe_step_time(mode, SERVING_MAX_BATCH);
    if step <= 0.0 {
        return Err(format!("probed step time {step} must be positive"));
    }
    let rate = utilization * SERVING_MAX_BATCH as f64 / (SERVING_DECODE_STEPS as f64 * step);
    let horizon = n_requests as f64 / rate;
    let config = move |arrival| ServingConfig {
        arrival,
        n_requests,
        decode_steps: SERVING_DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: SERVING_MAX_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: horizon / SERVING_WINDOWS as f64,
    };
    Ok((rate, horizon, config))
}

/// The `table_serving` sweep: Poisson, diurnal, and flash-crowd arrival
/// processes served end-to-end through the request-level front-end
/// (`Scenario::with_serving`) under static / budgeted-online /
/// replication-aware placements, recording p50/p95/p99 request latency,
/// goodput, re-plan counts, and migrated bytes per cell. All three
/// policies see the *same* arrival sample and routing draws, so the tails
/// differ only through placement quality and migration stalls; every
/// figure is a virtual-time fact. The cell runs at `SERVING_UTILIZATION`
/// (96%) of full-batch capacity. Errors (instead of panicking) if the
/// budgeted-online report is not bit-identical at `jobs` (at least 2)
/// solver threads or on the CSR gap backend, or if a policy dropped a
/// request, saw another arrival sample, or never re-planned.
pub fn serving_table(jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
    serving_cells(4, 1400, jobs, seed)?.collect()
}

/// The cells of [`serving_table`] for a `layers`-deep model serving
/// `n_requests` requests, one per arrival process (Poisson first), each
/// run when the iterator reaches it.
fn serving_cells(
    layers: usize,
    n_requests: usize,
    jobs: usize,
    seed: u64,
) -> Result<impl Iterator<Item = Result<Json, String>>, String> {
    let mode = ParallelismMode::ContextCoherentAffinity;

    let bytes_per_expert = serving_model(layers).expert_params() * 2;
    let static_oc = OnlineConfig {
        drift_threshold: f64::INFINITY,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };
    let online_oc = OnlineConfig {
        replan_every: 2,
        drift_threshold: SERVING_DRIFT_THRESHOLD,
        migration_budget_bytes: SERVING_BUDGET_MOVES * bytes_per_expert,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };
    let repl_oc = OnlineConfig {
        migration_budget_bytes: SERVING_BUDGET_MOVES / 2 * bytes_per_expert,
        replica_memory_bytes: SERVING_REPLICA_SLOTS * bytes_per_expert,
        ..online_oc
    };

    let static_eng = serving_engine(layers, static_oc, 1, GapBackend::Dense, seed);
    let repl_eng = serving_engine(layers, repl_oc, 1, GapBackend::Dense, seed);

    let drift = DriftSchedule::piecewise(&static_eng.config().routing_spec, 2, SERVING_WINDOWS);
    let (rate, horizon, config) =
        calibrate_serving(&static_eng, mode, SERVING_UTILIZATION, n_requests)?;
    // The flash crowd compresses the same mean load: a quiet base rate
    // with a 4x spike over 10% of the horizon.
    let arrivals = [
        ArrivalProcess::poisson(rate),
        ArrivalProcess::diurnal(rate, 0.5, horizon / 2.0),
        ArrivalProcess::flash_crowd(rate / 1.3, 4.0, 0.7 * horizon, 0.1 * horizon),
    ];

    Ok(arrivals.into_iter().map(move |arrival| {
        let name = arrival.name().to_string();
        let scenario = Scenario::offline(mode)
            .with_drift(drift.clone())
            .with_serving(config(arrival));
        let stat: ServingReport = static_eng.run_scenario(&scenario).expect_serving();
        // The budgeted-online policy, held to the bit-identity contract at
        // the requested solver width and on the CSR objective backend.
        let what = format!("{name}: serving report");
        let online = at_widths(&what, &[checked_width(jobs)], |threads, backend| {
            serving_engine(layers, online_oc, threads, backend, seed)
                .run_scenario(&scenario)
                .expect_serving()
        })?;
        let repl = repl_eng.run_scenario(&scenario).expect_serving();

        for (policy, r) in [
            ("static", &stat),
            ("online", &online),
            ("replicated", &repl),
        ] {
            if r.n_requests() != n_requests {
                return Err(format!(
                    "{name}/{policy}: served {} of {n_requests} requests",
                    r.n_requests()
                ));
            }
            if r.offered_load.to_bits() != stat.offered_load.to_bits() {
                return Err(format!(
                    "{name}/{policy}: policies saw different arrival samples"
                ));
            }
        }
        if online.migrations.replans == 0 {
            return Err(format!(
                "{name}: piecewise drift fired no budgeted-online re-plans"
            ));
        }

        Ok(Json::obj(vec![
            // Arrival-process label (`poisson`, `diurnal`, `flash-crowd`).
            ("arrival", name.as_str().into()),
            // Requests served per cell.
            ("requests", n_requests.into()),
            // Decode steps (generated tokens) per request.
            ("decode_steps", SERVING_DECODE_STEPS.into()),
            // Serving windows of the drift schedule.
            ("windows", SERVING_WINDOWS.into()),
            // Batch-size cap of the continuous-batching policy.
            ("max_batch", SERVING_MAX_BATCH.into()),
            // Requests per unit virtual time the arrival process offered.
            ("offered_load", stat.offered_load.into()),
            // p50 request latency under the static incumbent.
            ("static_p50", stat.p50().into()),
            // p95 request latency under the static incumbent.
            ("static_p95", stat.p95().into()),
            // p99 request latency under the static incumbent.
            ("static_p99", stat.p99().into()),
            // Completed requests per unit virtual time, static incumbent.
            ("static_goodput", stat.goodput().into()),
            // p50 request latency under budgeted-online re-placement.
            ("online_p50", online.p50().into()),
            // p95 request latency under budgeted-online re-placement.
            ("online_p95", online.p95().into()),
            // p99 request latency under budgeted-online re-placement.
            ("online_p99", online.p99().into()),
            // Completed requests per unit virtual time, budgeted-online.
            ("online_goodput", online.goodput().into()),
            // Re-plans the budgeted-online policy executed.
            ("online_replans", online.migrations.replans.into()),
            // Bytes the budgeted-online policy migrated, whole run.
            (
                "online_migrated_bytes",
                online.migrations.bytes.total().into(),
            ),
            // Virtual time the budgeted-online policy's weight copies
            // occupied the links (`MigrationStats::time`): the surcharge
            // its p99 may carry over the static incumbent's.
            ("online_migration_time", online.migrations.time.into()),
            // p50 request latency under replication-aware re-placement.
            ("repl_p50", repl.p50().into()),
            // p95 request latency under replication-aware re-placement.
            ("repl_p95", repl.p95().into()),
            // p99 request latency under replication-aware re-placement.
            ("repl_p99", repl.p99().into()),
            // Completed requests per unit virtual time, replication-aware.
            ("repl_goodput", repl.goodput().into()),
            // Replica copies the replication-aware policy created, whole
            // run.
            ("repl_replicas_added", repl.migrations.replicas_added.into()),
            // Virtual time the replication-aware policy's copies occupied
            // the links.
            ("repl_migration_time", repl.migrations.time.into()),
        ]))
    }))
}

/// The `table_elasticity` sweep: one Poisson arrival sample served
/// through a mid-run GPU loss (and, in the second cell, a later rejoin)
/// by two fleets that differ only in replication — none (lost experts
/// must be emergency-restored over the wire) vs full (failover is a
/// free ownership flip) — recording disrupted requests, degraded steps,
/// emergency migration bytes, and tail-recovery time per cell, all
/// deterministic virtual-time facts. The arrival rate is calibrated so the
/// *surviving* fleet stays below saturation (`ELASTICITY_UTILIZATION`),
/// which is what makes "time until the rolling p99 returns to its
/// pre-fault level" well-defined. Errors (instead of panicking) if the
/// faulted run is not bit-identical at `jobs` (at least 2) solver
/// threads and at 8, or on the CSR gap backend, or if a loss without a
/// rejoin costs the replicated fleet any emergency bytes.
pub fn elasticity_table(jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
    let layers = 4;
    let n_requests = ELASTICITY_REQUESTS;
    let mode = ParallelismMode::ContextCoherentAffinity;
    // A static (never drift-replanning) policy on both fleets: the only
    // re-placements in these cells are the emergency ones the fault
    // layer itself triggers, so the recovery clock measures elasticity,
    // not drift adaptation.
    let oc = OnlineConfig {
        drift_threshold: f64::INFINITY,
        decay: SERVING_DECAY,
        ..OnlineConfig::default()
    };

    let eng = serving_engine(layers, oc, 1, GapBackend::Dense, seed);
    let world = eng.config().cluster.world_size();
    let (rate, horizon, config) =
        calibrate_serving(&eng, mode, ELASTICITY_UTILIZATION, n_requests)?;
    let cfg = config(ArrivalProcess::poisson(rate));
    // The replicated fleet starts from the same profiled placement with
    // every expert replicated everywhere, so any lost expert has a live
    // copy. `everywhere` materializes the actual non-owner subsets, so
    // the memory figure below counts real copies, not a world-size
    // fan-out assumption.
    let full_replication = ReplicationPlan::everywhere(
        eng.placement_for(mode).clone(),
        vec![(0..SERVING_EXPERTS).collect(); layers],
    );

    let faults = [
        FaultSchedule::gpu_loss(world, 1, ELASTICITY_FAULT_AT * horizon),
        FaultSchedule::loss_and_rejoin(
            world,
            1,
            ELASTICITY_FAULT_AT * horizon,
            ELASTICITY_REJOIN_AT * horizon,
        ),
    ];

    let mut rows = Vec::with_capacity(faults.len());
    for fault in faults {
        let name = fault.name().to_string();
        let plain_scenario = Scenario::offline(mode)
            .with_serving(cfg.clone())
            .with_faults(fault.clone());
        let repl_scenario = plain_scenario
            .clone()
            .with_replication(full_replication.clone());
        // Bit-identity of the faulted run across solver widths and the
        // CSR objective backend, on the fleet that actually exercises
        // emergency re-placement.
        let what = format!("{name}: faulted serving report");
        let plain = at_widths(&what, &[checked_width(jobs), 8], |threads, backend| {
            serving_engine(layers, oc, threads, backend, seed)
                .run_scenario(&plain_scenario)
                .expect_serving()
        })?;
        let repl = eng.run_scenario(&repl_scenario).expect_serving();

        for (fleet, r) in [("no-replicas", &plain), ("replicated", &repl)] {
            if r.n_requests() != n_requests {
                return Err(format!(
                    "{name}/{fleet}: served {} of {n_requests} requests",
                    r.n_requests()
                ));
            }
            if r.disruption.requests_disrupted == 0 {
                return Err(format!(
                    "{name}/{fleet}: the loss disrupted nothing — the fault landed too late"
                ));
            }
        }
        // The loss evacuation is free under full replication; a rejoin
        // re-home still ships weights back to the returning GPU on both
        // fleets, so only the loss-only cell pins zero emergency bytes.
        let has_rejoin = fault.events().iter().any(|ev| ev.kind == FaultKind::Up);
        if !has_rejoin && repl.disruption.emergency_bytes != 0 {
            return Err(format!(
                "{name}: full replication still copied {} emergency bytes",
                repl.disruption.emergency_bytes
            ));
        }

        // Recovery times are `-1` when the fleet's rolling tail never
        // returned to its pre-fault p99 within the run.
        let recovery = |r: &ServingReport| r.recovery_time().unwrap_or(-1.0);
        rows.push(Json::obj(vec![
            // Fault-schedule label (`gpu-loss`, `gpu-loss+rejoin`).
            ("fault", name.as_str().into()),
            // Requests served per cell.
            ("requests", n_requests.into()),
            // Virtual time of the GPU loss.
            ("fault_time", fault.first_down_time().unwrap_or(0.0).into()),
            // p99 request latency of the no-replica fleet, whole run.
            ("plain_p99", plain.p99().into()),
            // In-flight requests the loss re-queued, no-replica fleet.
            (
                "plain_disrupted",
                plain.disruption.requests_disrupted.into(),
            ),
            // Decode steps served under emergency-migration contention,
            // no-replica fleet.
            (
                "plain_steps_degraded",
                plain.disruption.steps_degraded.into(),
            ),
            // Bytes the emergency re-placements copied, no-replica fleet.
            (
                "plain_emergency_bytes",
                plain.disruption.emergency_bytes.into(),
            ),
            // Virtual time from the loss until the rolling p99 recovered,
            // or `-1` if it never did.
            ("plain_recovery", recovery(&plain).into()),
            // p99 request latency of the fully replicated fleet, whole run.
            ("repl_p99", repl.p99().into()),
            // In-flight requests the loss re-queued, replicated fleet.
            ("repl_disrupted", repl.disruption.requests_disrupted.into()),
            // Decode steps served under emergency-migration contention,
            // replicated fleet.
            ("repl_steps_degraded", repl.disruption.steps_degraded.into()),
            // Bytes the emergency re-placements copied, replicated fleet
            // (zero without a rejoin: every lost expert has a live replica).
            (
                "repl_emergency_bytes",
                repl.disruption.emergency_bytes.into(),
            ),
            // Virtual time from the loss until the rolling p99 recovered,
            // or `-1` if it never did.
            ("repl_recovery", recovery(&repl).into()),
            // Worst-case extra replica copies any GPU holds in the
            // replicated fleet's starting plan — counted from the
            // materialized subsets, not a world-size fan-out assumption.
            (
                "repl_extra_copies",
                full_replication.extra_copies_per_gpu().into(),
            ),
        ]));
    }
    Ok(rows)
}

/// Measure one `table_replan_latency` cell: drift one large-expert
/// instance through a window stream and re-plan after every window along
/// two lockstep paths sharing one incumbent —
///
/// * **rebuild**: `Objective::from_snapshot` on the live estimate (paid
///   every re-plan), then `solve_budgeted_metered` building its
///   attraction table locally;
/// * **incremental**: `Objective::apply_snapshot_delta` with the
///   window's `SnapshotDelta`, then the same solver in a persistent
///   [`SwapGainCache`] buffer.
///
/// Every re-plan verifies the two objectives are equal, both paths pick
/// the same placement for the same `ReplanCost`, and — at the end — score
/// bit-identical cross mass. Any divergence is an `Err`:
/// it would mean incremental maintenance broke the determinism contract
/// and the JSON must not be published.
fn replan_latency_cell(cfg: &ModelConfig, seed: u64) -> Result<Json, String> {
    let e = cfg.n_experts;
    let k = cfg.gate.k();
    let layers = REPLAN_LATENCY_LAYERS;
    let windows = 3;
    let window_tokens = REPLAN_LATENCY_TOKENS;
    let spec = AffinityModelSpec::new(layers, e).with_seed(seed);
    let drift = DriftSchedule::piecewise(&spec, 2, windows);

    // Window 0 profiles the instance; both paths start from the same
    // snapshot-built objective and the same greedy-plus-polish incumbent.
    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(&drift, 0, window_tokens, 1, seed ^ 0x0ff1));
    let mut live = Objective::from_snapshot(&streaming.snapshot());
    let mut cache = SwapGainCache::for_objective(&live);
    let mut placement = greedy_incumbent(&live, N_UNITS_LARGE);

    let mut replans = 0usize;
    let (mut considered, mut evaluated_rebuild) = (0u64, 0u64);
    let (mut evaluated_incremental, mut reused) = (0u64, 0u64);

    for window in 1..windows {
        let trace = window_trace(&drift, window, window_tokens, 1, seed);
        let delta = streaming.observe_delta(&trace);

        // Rebuild path: pay the full objective reconstruction, then the
        // solve on a local table.
        let rebuilt = Objective::from_snapshot(&streaming.snapshot());
        let (next_rebuild, cost_rebuild) =
            solve_budgeted_metered(&rebuilt, &placement, REPLAN_LATENCY_MOVES, u64::MAX, None);

        // Incremental path: splice the window delta into the persistent
        // objective, then the solve in the held buffer.
        live.apply_snapshot_delta(&delta);
        let (next_incremental, cost_incremental) = solve_budgeted_metered(
            &live,
            &placement,
            REPLAN_LATENCY_MOVES,
            u64::MAX,
            Some(&mut cache),
        );

        if live != rebuilt {
            return Err(format!(
                "{}: delta-maintained objective diverged from the rebuild at window {window}",
                cfg.name
            ));
        }
        if next_incremental != next_rebuild {
            return Err(format!(
                "{}: cached incremental re-plan diverged from the rebuild at window {window}",
                cfg.name
            ));
        }
        if cost_rebuild != cost_incremental {
            return Err(format!(
                "{}: solver work differs at window {window}: {cost_rebuild:?} on a local \
                 table vs {cost_incremental:?} in the held buffer",
                cfg.name
            ));
        }
        considered += cost_rebuild.considered;
        evaluated_rebuild += cost_rebuild.evaluated;
        evaluated_incremental += cost_incremental.evaluated;
        reused += cost_incremental.reused;
        if next_rebuild != placement {
            replans += 1;
        }
        placement = next_rebuild;
    }

    let cm_rebuild = Objective::from_snapshot(&streaming.snapshot()).cross_mass(&placement);
    let cm_incremental = live.cross_mass(&placement);
    if cm_rebuild.to_bits() != cm_incremental.to_bits() {
        return Err(format!(
            "{}: final cross mass diverged: rebuild {cm_rebuild} vs incremental {cm_incremental}",
            cfg.name
        ));
    }

    Ok(Json::obj(vec![
        // Large-zoo preset name.
        ("preset", cfg.name.as_str().into()),
        // Experts per layer.
        ("experts", e.into()),
        // Gating fan-out the instance was sampled with.
        ("k", k.into()),
        // Layers of the drifting instance.
        ("layers", layers.into()),
        // Serving windows (window 0 profiles; every later window re-plans).
        ("windows", windows.into()),
        // Re-plans that actually moved at least one expert.
        ("replans", replans.into()),
        // Expert-move budget of each re-plan.
        ("max_moves", REPLAN_LATENCY_MOVES.into()),
        // Swap candidates the scan loops looked at, summed over every
        // re-plan — identical on both paths (verified; the meter charges
        // every candidate alike).
        ("considered", considered.into()),
        // Candidates the rebuild path decided by an exact `swap_delta`
        // call (both paths run the same table-driven solver: equals
        // `evaluated_incremental`, verified).
        ("evaluated_rebuild", evaluated_rebuild.into()),
        // Candidates the incremental path decided by an exact `swap_delta`
        // call.
        ("evaluated_incremental", evaluated_incremental.into()),
        // Candidates the incremental path's attraction table decided alone
        // (`considered - evaluated_incremental`).
        ("reused", reused.into()),
        // Candidates considered per exact gain evaluation paid — how much
        // of the scan the attraction table answers, which the acceptance
        // bar gates at `E = 512`.
        (
            "scan_reduction",
            Json::Fixed(ratio(considered as f64, evaluated_incremental as f64), 3),
        ),
        // Final cross mass of the rebuild path's placement on its
        // objective (bit-identical to the incremental path's — verified).
        ("cross_mass_rebuild", cm_rebuild.into()),
        // Final cross mass of the incremental path's placement on its
        // delta-maintained objective.
        ("cross_mass_incremental", cm_incremental.into()),
    ]))
}

/// The `table_replan_latency` sweep over the large-expert zoo
/// (`E = 256/512`, top-1 and top-2): what a re-plan costs in solver work
/// with and without incremental objective maintenance, one
/// `replan_latency_cell` per preset. Errors if any cell's paths diverge.
pub fn replan_latency_table(_jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
    let cells = par_map(large_zoo(), |cfg| {
        let stream = seed ^ ((cfg.n_experts as u64) << 20) ^ cfg.gate.k() as u64 ^ 0x9e37;
        replan_latency_cell(&cfg, stream)
    });
    cells.into_iter().collect()
}

/// Measure one `table_partial_replication` cell. Every re-plan races the
/// one-per-node and everywhere fan-out policies from the *same* shared
/// incumbent at equal budgets; the partial winner becomes the next
/// incumbent. The engine leg runs the context-coherent online loop under
/// the subset policy and verifies bit-identity at 1/2/8 solver threads
/// and across gap backends.
fn partial_replication_cell(e: usize, gate: GateKind, seed: u64) -> Result<Json, String> {
    let k = gate.k();
    let scenario = format!("E{e}/top{k}");
    let (units, cluster, layers, windows, window_tokens) = if e <= 16 {
        (ONLINE_UNITS, ClusterSpec::new(2, 2).unwrap(), 4, 6, 1500)
    } else {
        (N_UNITS_LARGE, ClusterSpec::new(2, 4).unwrap(), 2, 3, 2000)
    };
    let bytes_per_expert = moe_gpt_m(e).expert_params() * 2;
    let budget_bytes = PARTIAL_BUDGET_MOVES * bytes_per_expert;
    let budget = ReplicationBudget {
        replica_memory_bytes: PARTIAL_REPLICA_SLOTS * bytes_per_expert,
        migration_budget_bytes: budget_bytes,
    };
    let partial_policy = ReplicaPolicy::OnePerNode(cluster);

    let spec = AffinityModelSpec::new(layers, e).with_seed(seed ^ 0x9a_7d_11);
    let drift = DriftSchedule::piecewise(&spec, 2, windows);

    let mut streaming = StreamingAffinity::new(layers, e, ONLINE_DECAY);
    streaming.observe(&window_trace(&drift, 0, window_tokens, k, seed ^ 0x0ff1));
    let initial = greedy_incumbent(&Objective::from_snapshot(&streaming.snapshot()), units);
    let mut incumbent = ReplicationPlan::bare(initial);

    let mut realized_cross = 0u64;
    let (mut partial_cm, mut full_cm) = (0.0f64, 0.0f64);
    let (mut partial_migrated, mut full_migrated) = (0u64, 0u64);
    let mut partial_replans = 0usize;
    let mut replicas_added = 0u64;
    let mut full_extra_copies = 0u64;

    for window in 0..windows {
        let trace = window_trace(&drift, window, window_tokens, k, seed);
        let loc = incumbent.trace_locality(&trace);
        realized_cross += loc.transitions - loc.local;
        streaming.observe(&trace);

        if window + 1 < windows {
            let snapshot = streaming.snapshot();
            let solve_both = |policy: &ReplicaPolicy| -> Result<(ReplicationPlan, f64), String> {
                let solve = |objective: &Objective| {
                    let bpe = bytes_per_expert;
                    let (next, _) = solve_budgeted_replicated_metered(
                        objective,
                        &incumbent,
                        bpe,
                        &budget,
                        policy,
                        u64::MAX,
                        None,
                    );
                    let cm = Bits(replicated_cross_mass(objective, &next));
                    (next, cm)
                };
                let (next, Bits(cm)) = on_both_backends(&snapshot, solve, |dense, sparse| {
                    let what = if dense.0 != sparse.0 {
                        format!("{policy:?} solve")
                    } else {
                        "replicated cross mass".to_string()
                    };
                    format!("{scenario}: {what} diverged across gap backends at window {window}")
                })?;
                Ok((next, cm))
            };

            let (partial_next, cm_p) = solve_both(&partial_policy)?;
            let (full_next, cm_f) = solve_both(&ReplicaPolicy::Everywhere)?;
            if cm_p > cm_f {
                return Err(format!(
                    "{scenario}: partial fan-out lost to full at equal memory at window \
                     {window} ({cm_p} vs {cm_f})"
                ));
            }
            partial_cm += cm_p;
            full_cm += cm_f;

            let who = format!("{scenario}:");
            for (next, migrated) in [
                (&partial_next, &mut partial_migrated),
                (&full_next, &mut full_migrated),
            ] {
                let diff = MigrationPlan::between_replicated(&incumbent, next, bytes_per_expert);
                within_byte_budget(&who, window, &diff, budget_bytes)?;
                within_slot_budget(&who, window, next, PARTIAL_REPLICA_SLOTS)?;
                *migrated += diff.total_bytes();
            }
            let diff =
                MigrationPlan::between_replicated(&incumbent, &partial_next, bytes_per_expert);
            if !diff.is_empty() {
                partial_replans += 1;
                replicas_added += diff.n_replica_adds() as u64;
            }
            full_extra_copies = full_next.extra_copies_per_gpu() as u64;
            incumbent = partial_next;
        }
    }

    // The engine leg: the context-coherent online loop dispatching with
    // the meeting-point rule under the one-per-node policy, verified
    // bit-identical at 1/2/8 solver threads and across gap backends.
    let cc_engine = |threads: usize, backend: GapBackend| {
        let mut model = moe_gpt_m(e).with_gate(gate);
        model.n_layers = if e <= 16 { 4 } else { 2 };
        model.d_ff = SERVING_D_FF;
        let engine_bpe = model.expert_params() * 2;
        InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .requests_per_gpu(8)
            .n_iterations(2)
            .prompt_len(4)
            .profile_tokens(400)
            .parallelism(Parallelism::new(threads))
            .gap_backend(backend)
            .online(OnlineConfig {
                replan_every: 1,
                drift_threshold: 0.08,
                migration_budget_bytes: PARTIAL_BUDGET_MOVES * engine_bpe,
                decay: 0.3,
                replica_memory_bytes: PARTIAL_REPLICA_SLOTS * engine_bpe,
                ..OnlineConfig::default()
            })
            .seed(seed ^ 0x77_aa_01)
            .build()
    };
    let cc_windows = if e <= 16 { 4 } else { 3 };
    let cc_run = |threads: usize, backend: GapBackend| {
        let eng = cc_engine(threads, backend);
        let drift = DriftSchedule::piecewise(&eng.config().routing_spec, 2, cc_windows);
        eng.run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity).with_drift(drift),
        )
        .expect_online()
    };
    let baseline = at_widths(
        &format!("{scenario}: context-coherent run"),
        &[2, 8],
        cc_run,
    )?;

    Ok(Json::obj(vec![
        // Cell label (`E16/top1`, `E256/top2`, ...).
        ("scenario", scenario.as_str().into()),
        // Experts per layer.
        ("experts", e.into()),
        // Gating fan-out the window traces are sampled with.
        ("k", k.into()),
        // MoE layers of the placement instance.
        ("layers", layers.into()),
        // GPUs the instance is placed across.
        ("units", units.into()),
        // Serving windows.
        ("windows", windows.into()),
        // Extra replica payloads each GPU may hold (both policies).
        ("replica_slots", PARTIAL_REPLICA_SLOTS.into()),
        // Migration byte budget of one re-plan (both policies).
        ("budget_bytes", budget_bytes.into()),
        // Re-plans where the partial policy changed the plan.
        ("partial_replans", partial_replans.into()),
        // Replica copies the partial policy created, summed over re-plans
        // (each ships only to its chosen subset).
        ("replicas_added", replicas_added.into()),
        // Bytes the partial-policy re-plans actually migrated.
        ("partial_migrated_bytes", partial_migrated.into()),
        // Bytes the everywhere-policy solves would have migrated from the
        // same incumbents.
        ("full_migrated_bytes", full_migrated.into()),
        // Final worst-case extra copies per GPU under the partial policy.
        (
            "partial_extra_copies",
            incumbent.extra_copies_per_gpu().into(),
        ),
        // Worst-case extra copies per GPU of the last everywhere solve.
        ("full_extra_copies", full_extra_copies.into()),
        // Replicated cross mass of the partial solves, summed over
        // re-plans (bit-identical across gap backends — verified).
        ("partial_cross_mass", partial_cm.into()),
        // Replicated cross mass of the everywhere solves from the same
        // incumbents, summed over re-plans.
        ("full_cross_mass", full_cm.into()),
        // Realized cross-unit transitions of the partial trajectory on the
        // window traces (set-semantics replica locality).
        ("realized_cross", realized_cross.into()),
        // Replica copies the context-coherent engine run created under
        // the one-per-node policy (top-2 rows must not fall back to zero).
        (
            "cc_replicas_added",
            baseline.migrations.replicas_added.into(),
        ),
        // GPU-local dispatch fraction of that engine run.
        (
            "cc_local_fraction",
            Json::Fixed(baseline.dispatch().gpu_local_fraction(), 6),
        ),
    ]))
}

/// The `table_partial_replication` sweep: partial vs full replica fan-out
/// at `E ∈ {16, 256} × top-1/top-2`, one `partial_replication_cell` per
/// grid point. Errors (instead of panicking) if any cell fails its
/// invariance or budget checks. The table's bar — some context-coherent
/// top-2 cell buys a replica — is the regression the sweep exists to
/// catch: top-2 models silently falling back to owner-moves-only
/// re-planning.
pub fn partial_replication_table(_jobs: usize, seed: u64) -> Result<Vec<Json>, String> {
    let grid = [
        (16usize, GateKind::Top1),
        (16, GateKind::Top2),
        (256, GateKind::Top1),
        (256, GateKind::Top2),
    ];
    grid.iter()
        .map(|&(e, gate)| {
            let stream = seed ^ ((e as u64) << 24) ^ gate.k() as u64;
            partial_replication_cell(e, gate, split_seed(stream, 0x9a47))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::fixture::rows;
    use crate::table::{int, num, text, TABLES};

    fn keys(row: &Json) -> Vec<&str> {
        let Json::Obj(fields) = row else {
            panic!("a row is an object")
        };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn thread_checks_compare_two_widths_at_jobs_1() {
        assert_eq!(checked_width(1), 2);
        assert_eq!(checked_width(4), 4);
    }

    #[test]
    fn summary_covers_the_full_grid_and_quality_is_sane() {
        let n_models = table2().len();
        let n_solvers = roster().len();
        assert_eq!(rows("rows").len(), n_models * n_solvers);
        // Within each model, every optimizing solver beats round-robin.
        for chunk in rows("rows").chunks(n_solvers) {
            let rr = chunk
                .iter()
                .find(|r| text(r, "solver") == "round-robin")
                .expect("round-robin is in the roster");
            for row in chunk.iter().filter(|r| text(r, "solver") != "round-robin") {
                assert!(
                    num(row, "cross_mass") <= num(rr, "cross_mass") + 1e-9,
                    "{}/{} ({}) worse than round-robin ({})",
                    text(row, "model"),
                    text(row, "solver"),
                    text(row, "cross_mass"),
                    text(rr, "cross_mass")
                );
            }
        }
        // The sparse table covers the whole large zoo, each instance
        // genuinely sparse at these token budgets.
        assert_eq!(rows("sparse_rows").len(), large_zoo().len());
        for row in rows("sparse_rows") {
            assert!(int(row, "nnz") > 0);
            assert!(
                num(row, "density") < exflow_placement::SPARSE_DENSITY_THRESHOLD,
                "{} density {} not sparse",
                text(row, "preset"),
                text(row, "density")
            );
            assert!(num(row, "cross_mass").is_finite());
        }
    }

    #[test]
    fn every_table_sweeps_uniform_rows_that_clear_its_own_bars() {
        // In reverse: the tests below read the tables in document order,
        // so the two test threads sweep different tables at the same time
        // instead of one waiting on the other's `OnceLock`.
        for table in TABLES.iter().rev() {
            let rows = rows(table.key);
            assert!(!rows.is_empty(), "{}: the sweep is empty", table.key);
            let columns = keys(&rows[0]);
            for row in rows {
                assert_eq!(keys(row), columns, "{}: ragged rows", table.key);
            }
            for field in table.id {
                assert!(
                    columns.contains(field),
                    "{}: the entry names {field:?}, the sweep emits no such column",
                    table.key
                );
            }
            assert_eq!(
                table.violations(rows),
                Vec::<String>::new(),
                "{}",
                table.key
            );
            // A heading (or a header and its rule) above the content.
            assert!((table.render)(rows).lines().count() > 2, "{}", table.key);
        }
    }

    /// What the retired per-table tests asserted that no bar states.
    #[test]
    fn sweeps_hold_what_no_bar_states() {
        let online = rows("online_rows");
        assert_eq!(online.len(), 3, "one row per drift preset");
        for row in online {
            let scenario = text(row, "scenario");
            assert!(int(row, "replans") > 0, "{scenario}: no re-plans fired");
            // Drift must genuinely hurt the static incumbent, and both
            // adaptive policies must beat it.
            let stat = int(row, "static_cross");
            assert!(int(row, "oracle_cross") < stat, "{scenario}: oracle");
            assert!(int(row, "budgeted_cross") < stat, "{scenario}: budgeted");
            assert!(num(row, "cross_mass").is_finite());
        }

        let replication = rows("replication_online_rows");
        assert_eq!(replication.len(), 4, "3 presets at E=16 plus one large");
        assert_eq!(
            int(&replication[3], "experts"),
            large_zoo()[0].n_experts as u64
        );
        for row in replication {
            let scenario = text(row, "scenario");
            assert!(
                int(row, "joint_replans") > 0,
                "{scenario}: no joint re-plans"
            );
            let stat = int(row, "static_cross");
            assert!(int(row, "owner_cross") < stat, "{scenario}");
            assert!(int(row, "joint_cross") < stat, "{scenario}");
            assert!(num(row, "cross_mass").is_finite());
        }

        let serving = rows("serving_rows");
        assert_eq!(serving.len(), 3, "one row per arrival process");
        for row in serving {
            let arrival = text(row, "arrival");
            assert!(int(row, "online_replans") > 0, "{arrival}: no re-plans");
            assert!(int(row, "online_migrated_bytes") > 0, "{arrival}");
            for policy in ["static", "online", "repl"] {
                let [p50, p95, p99] =
                    ["p50", "p95", "p99"].map(|q| num(row, &format!("{policy}_{q}")));
                assert!(
                    p50 <= p95 && p95 <= p99 && p50 > 0.0,
                    "{arrival}: non-monotone percentiles {p50}/{p95}/{p99}"
                );
            }
        }

        let elasticity = rows("elasticity_rows");
        assert_eq!(elasticity.len(), 2, "one row per fault schedule");
        // The loss-only cell's failover is completely free; the rejoin
        // cell still ships weights back to the returning GPU.
        assert_eq!(
            int(&elasticity[0], "repl_emergency_bytes"),
            0,
            "loss-only failover not free"
        );

        let replan = rows("replan_latency_rows");
        assert_eq!(replan.len(), large_zoo().len(), "one row per large preset");
        for row in replan {
            let preset = text(row, "preset");
            assert!(
                int(row, "replans") > 0,
                "{preset}: no re-plan moved anything"
            );
            // Both paths run the same table-driven solver, and the split
            // always partitions the considered count.
            let evaluated = int(row, "evaluated_incremental");
            assert_eq!(int(row, "evaluated_rebuild"), evaluated, "{preset}");
            assert_eq!(
                evaluated + int(row, "reused"),
                int(row, "considered"),
                "{preset}"
            );
        }
        let covers_512 = replan.iter().any(|row| int(row, "experts") == 512);
        assert!(covers_512, "the sweep must cover E = 512");

        assert_eq!(rows("partial_replication_rows").len(), 4, "E x top-k grid");
    }

    /// The cell that exposed the over-strict serving bar: at 5 layers and
    /// 1 800 requests the budgeted-online policy's p99 lands above the
    /// static incumbent's, by far less than the migration time it reports.
    #[test]
    fn the_serving_bar_holds_in_the_deeper_poisson_cell() {
        let mut cells = serving_cells(5, 1800, 2, BASELINE_SEED).expect("calibrates");
        let row = cells.next().expect("poisson leads").expect("invariant");
        assert_eq!(text(&row, "arrival"), "poisson");
        let excess = num(&row, "online_p99") - num(&row, "static_p99");
        assert!(excess > 0.0, "the stricter bar would pass here: {excess}");
        assert!(excess < 0.01 * num(&row, "online_migration_time"));
        let table = crate::table::fixture::table("serving_rows");
        assert_eq!(table.violations(&[row]), Vec::<String>::new());
    }

    #[test]
    fn degenerate_ratios_and_recoveries_are_defined() {
        assert_eq!(ratio(8_000_000.0, 1_000.0), 8000.0);
        assert_eq!(ratio(8_000_000.0, 0.0), 0.0, "no evaluations, no ratio");
        assert_eq!(online_recovery(5000.0, 3000.0, 3200.0), 0.9);
        assert_eq!(online_recovery(3000.0, 3000.0, 3100.0), 1.0);
    }

    fn swept_sections() -> Vec<Section> {
        let swept = TABLES.iter().map(|t| (t.key, rows(t.key).to_vec()));
        swept.collect()
    }

    #[test]
    fn the_document_is_a_function_of_its_rows_and_holds_no_measurement() {
        let json = document(BASELINE_SEED, swept_sections());
        assert_eq!(json, document(BASELINE_SEED, swept_sections()), "same rows");
        let doc = Json::parse(&json).expect("the document is valid JSON");
        assert_eq!(
            keys(&doc).len(),
            2 + TABLES.len(),
            "schema, seed, an array a table"
        );
        for (key, swept) in swept_sections() {
            let parsed = doc.get(key).and_then(Json::as_arr).expect(key);
            let literal = Json::Arr(swept).write().unwrap();
            assert_eq!(Json::Arr(parsed.to_vec()), Json::parse(&literal).unwrap());
        }
        // No key (nor anything else) names a host-clock measurement.
        assert!(!json.contains("wall"), "a wall field is back");
    }

    /// The layout the diff gate reads: the header, then the sections in
    /// TABLES order, every row exactly one line holding its fields in
    /// order with their exact tokens — derived ratios with their fixed
    /// decimals, every other fact with shortest round-trip formatting.
    #[test]
    fn json_emits_the_sections_in_table_order_with_pinned_formats() {
        let json = document(BASELINE_SEED, swept_sections());
        let mut fixed = [
            ("density", 6, false),
            ("recovery", 4, false),
            ("owner_recovery", 4, false),
            ("joint_recovery", 4, false),
            ("scan_reduction", 3, false),
            ("cc_local_fraction", 6, false),
        ];
        let mut lines = json.lines();
        let schema = format!("  \"schema\": \"{SCHEMA}\",");
        let seed = format!("  \"seed\": {BASELINE_SEED},");
        let header: Vec<_> = lines.by_ref().take(3).collect();
        assert_eq!(header, ["{", &schema, &seed]);
        for (i, (key, swept)) in swept_sections().into_iter().enumerate() {
            assert_eq!(lines.next(), Some(format!("  \"{key}\": [").as_str()));
            for (j, row) in swept.iter().enumerate() {
                let Json::Obj(fields) = row else {
                    panic!("{key} row {j}")
                };
                let mut tokens = Vec::new();
                for (field, value) in fields {
                    let token = value.write().unwrap();
                    for (name, decimals, seen) in &mut fixed {
                        if name == field {
                            let (_, fraction) = token.split_once('.').expect(&token);
                            assert_eq!(fraction.len(), *decimals, "{key}.{field} = {token}");
                            *seen = true;
                        }
                    }
                    tokens.push(format!("\"{field}\": {token}"));
                }
                let comma = if j + 1 < swept.len() { "," } else { "" };
                let line = format!("    {{{}}}{comma}", tokens.join(", "));
                assert_eq!(lines.next(), Some(line.as_str()), "{key} row {j}");
            }
            let close = if i + 1 < TABLES.len() { "  ]," } else { "  ]" };
            assert_eq!(lines.next(), Some(close), "{key}");
        }
        assert_eq!(lines.collect::<Vec<_>>(), ["}"]);
        assert!(fixed.iter().all(|&(_, _, seen)| seen), "{fixed:?}");
    }
}
