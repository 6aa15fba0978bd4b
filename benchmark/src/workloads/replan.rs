//! `replan-e512`: the placement and affinity layers driven directly, with
//! no engine. Per window the harness does what the online loop does
//! between serving windows — fold the window into the streaming estimate,
//! patch the live objective with the delta, run the cached budgeted
//! re-plan, price the migration, and measure the *next* window's realized
//! locality under the new placement. The cold use of the same layers
//! (`from_snapshot` + greedy + polish) is the workload's set-up.
//!
//! The same sequence at an engine's own (much smaller) shape is what the
//! engine workloads' probe phase replays to fill the `affinity.*` and
//! `placement.*` per-layer metrics.

use std::hint::black_box;

use exflow::affinity::{RoutingTrace, StreamingAffinity};
use exflow::model::presets::moe_gpt_m;
use exflow::model::{AffinityModelSpec, CorpusSpec, DriftSchedule, TokenBatch};
use exflow::placement::greedy::solve_greedy;
use exflow::placement::local_search::improve;
use exflow::placement::objective::{measure_trace_locality, TraceLocality};
use exflow::placement::{
    solve_budgeted_metered, solve_staged_with, GapBackend, MigrationPlan, Objective, Parallelism,
    Placement, PricedMigration, ReplanCost, SwapGainCache,
};
use exflow::topology::{ClusterSpec, CostModel};

use crate::calibration as cal;
use crate::harness::{LayerValues, Outcome, Workload};
use crate::probes;
use crate::trace::Recorder;
use crate::workloads::{stream_seed, Stream};

/// Streaming-estimator decay between windows (the online tables' value).
const DECAY: f64 = 0.5;
/// Polish passes of the cold incumbent solve.
const COLD_POLISH_PASSES: usize = 10;

pub struct Replan {
    pub layers: usize,
    pub experts: usize,
    pub cluster: ClusterSpec,
    pub cost: CostModel,
    pub tokens_per_window: usize,
    /// Re-plan windows; one profiling window precedes them and one
    /// look-ahead window follows (its locality scores the last re-plan).
    pub windows: usize,
    pub phases: usize,
    pub max_moves: u64,
    pub bytes_per_expert: u64,
}

impl Replan {
    pub fn e512() -> Self {
        Replan {
            layers: cal::REPLAN_LAYERS,
            experts: cal::REPLAN_EXPERTS,
            cluster: ClusterSpec::new(2, 4).expect("2x4 is a valid cluster"),
            cost: CostModel::wilkes3(),
            tokens_per_window: cal::REPLAN_TOKENS_PER_WINDOW,
            windows: cal::REPLAN_WINDOWS,
            phases: cal::REPLAN_PHASES,
            max_moves: cal::REPLAN_MAX_MOVES,
            bytes_per_expert: moe_gpt_m(cal::REPLAN_EXPERTS).expert_params() * 2,
        }
    }

    /// A short sequence at `engine`'s own shape, for its probe phase.
    pub fn shaped_like(engine: &exflow::InferenceEngine, tokens_per_window: usize) -> Self {
        let cfg = engine.config();
        Replan {
            layers: cfg.model.n_layers,
            experts: cfg.model.n_experts,
            cluster: cfg.cluster,
            cost: cfg.link_cost,
            tokens_per_window,
            windows: 5,
            phases: 2,
            max_moves: 8,
            bytes_per_expert: cfg.model.expert_params() * 2,
        }
    }
}

pub struct ReplanInputs {
    /// `windows + 2` traces: profiling, re-plan windows, look-ahead.
    traces: Vec<RoutingTrace>,
    streaming: StreamingAffinity,
    live: Objective,
    cache: SwapGainCache,
    placement: Placement,
}

#[derive(Debug, PartialEq)]
pub struct WindowRecord {
    rows_touched: usize,
    cost: ReplanCost,
    moves: usize,
    priced: PricedMigration,
    next_window: TraceLocality,
}

#[derive(Debug, PartialEq)]
pub struct ReplanReport {
    windows: Vec<WindowRecord>,
    placement: Placement,
    cross_mass: f64,
}

impl Workload for Replan {
    type Inputs = ReplanInputs;
    type Report = ReplanReport;

    fn prepare(&self, seed: u64, rec: &Recorder) -> ReplanInputs {
        let spec = AffinityModelSpec::new(self.layers, self.experts)
            .with_seed(stream_seed(seed, Stream::Routing));
        let n_traces = self.windows + 2;
        let drift = DriftSchedule::piecewise(&spec, self.phases, n_traces);
        let traces: Vec<RoutingTrace> = (0..n_traces)
            .map(|w| {
                let _s = rec.span_ops("model.batch_sample", self.tokens_per_window as u64);
                let model = drift.model_at(w);
                let batch = TokenBatch::sample(
                    model,
                    &CorpusSpec::pile_proxy(model.n_domains()),
                    self.tokens_per_window,
                    1,
                    stream_seed(seed, Stream::Tokens) ^ w as u64,
                );
                RoutingTrace::from_batch(&batch, self.experts)
            })
            .collect();

        let mut streaming = StreamingAffinity::new(self.layers, self.experts, DECAY);
        streaming.observe(&traces[0]);
        let live = {
            let _s = rec.span("placement.objective_rebuild");
            Objective::from_snapshot(&streaming.snapshot())
        };
        let cache = SwapGainCache::for_objective(&live);
        let placement = {
            let _s = rec.span("placement.solve_cold");
            let mut p = solve_greedy(&live, self.cluster.world_size());
            improve(&live, &mut p, COLD_POLISH_PASSES);
            p
        };
        ReplanInputs {
            traces,
            streaming,
            live,
            cache,
            placement,
        }
    }

    fn run(&self, inputs: &mut ReplanInputs, rec: &Recorder) -> ReplanReport {
        let mut windows = Vec::with_capacity(self.windows);
        for w in 1..=self.windows {
            let delta = {
                let _s = rec.span("affinity.observe_delta");
                inputs.streaming.observe_delta(&inputs.traces[w])
            };
            {
                let _s = rec.span("placement.apply_delta");
                inputs.live.apply_snapshot_delta(&delta);
            }
            let (next, cost) = {
                let _s = rec.span("placement.solve_budgeted");
                solve_budgeted_metered(
                    &inputs.live,
                    &inputs.placement,
                    self.max_moves,
                    u64::MAX,
                    Some(&mut inputs.cache),
                )
            };
            let (moves, priced) = {
                let _s = rec.span("placement.migration_price");
                let plan = MigrationPlan::between(&inputs.placement, &next, self.bytes_per_expert);
                (plan.n_moves(), plan.priced(&self.cluster, &self.cost))
            };
            let next_window = {
                let _s = rec.span("placement.trace_locality");
                measure_trace_locality(&inputs.traces[w + 1], &next)
            };
            windows.push(WindowRecord {
                rows_touched: (0..delta.n_gaps())
                    .map(|g| delta.touched_rows(g).len())
                    .sum(),
                cost,
                moves,
                priced,
                next_window,
            });
            inputs.placement = next;
        }
        ReplanReport {
            cross_mass: inputs.live.cross_mass(&inputs.placement),
            placement: inputs.placement.clone(),
            windows,
        }
    }

    fn digest(&self, inputs: &ReplanInputs, report: &ReplanReport) -> Outcome {
        let mut violations = Vec::new();
        // The delta-maintained objective must equal a cold rebuild of the
        // final estimate: incremental maintenance is a pure optimisation.
        if Objective::from_snapshot(&inputs.streaming.snapshot()) != inputs.live {
            violations.push(
                "delta-maintained objective differs from a cold from_snapshot rebuild".to_string(),
            );
        }
        let sum = |f: fn(&WindowRecord) -> u64| report.windows.iter().map(f).sum::<u64>();
        let considered = sum(|w| w.cost.considered);
        let evaluated = sum(|w| w.cost.evaluated);
        let reused = sum(|w| w.cost.reused);
        if considered != evaluated + reused {
            violations.push(format!(
                "solver counters do not add up: {considered} considered, {evaluated} evaluated, {reused} reused"
            ));
        }
        let transitions = sum(|w| w.next_window.transitions);
        let crossing = transitions - sum(|w| w.next_window.local);
        let migration_s: f64 = report.windows.iter().map(|w| w.priced.time).sum();
        if migration_s <= 0.0 {
            violations
                .push("no re-plan moved an expert: the drift schedule did nothing".to_string());
        }
        let n = report.windows.len() as f64;
        let cross_share = crossing as f64 / transitions as f64;
        Outcome {
            steps: report.windows.len() as u64,
            attempted: report.windows.len() as u64,
            failed: 0,
            sim_steps_per_s: n / migration_s,
            sim_gpu_cross_share: cross_share,
            violations,
            layer: vec![
                (
                    "affinity.delta_rows_touched",
                    sum(|w| w.rows_touched as u64) as f64 / n,
                ),
                (
                    "affinity.gap_nnz",
                    (0..inputs.streaming.n_gaps())
                        .map(|g| inputs.streaming.gap_nnz(g))
                        .sum::<usize>() as f64,
                ),
                ("placement.considered", considered as f64),
                ("placement.evaluated", evaluated as f64),
                ("placement.reused", reused as f64),
                (
                    "placement.cache_hit_share",
                    reused as f64 / considered as f64,
                ),
                (
                    "placement.moves_per_replan",
                    sum(|w| w.moves as u64) as f64 / n,
                ),
                ("placement.cross_mass_final", report.cross_mass),
                ("placement.realized_cross_share", cross_share),
            ],
        }
    }

    fn probe(&self, inputs: &ReplanInputs, seed: u64, rec: &Recorder) -> LayerValues {
        // No engine and no payloads of its own: the substrate probes take
        // one window's tokens spread over the fleet's rank pairs.
        let model = moe_gpt_m(self.experts);
        let w = self.cluster.world_size();
        probes::substrate(
            &probes::SubstrateShape {
                cluster: self.cluster,
                cost: self.cost,
                pair_bytes: self.tokens_per_window / (w * w) * model.token_bytes() as usize,
                sim_dim: model.sim_dim,
                tokens_per_expert: (self.tokens_per_window / self.experts).max(1),
                arrival: exflow::ArrivalProcess::poisson(1.0),
                n_arrivals: self.tokens_per_window,
            },
            seed,
            rec,
        );
        self.probe_extras(inputs, seed, rec);
        LayerValues::new()
    }

    fn engine_shape(&self) -> Option<(usize, usize)> {
        None
    }
}

impl Replan {
    /// Layer calls the per-window loop does not make: estimator snapshot
    /// and drift signal, one swap-gain evaluation on either gap backend,
    /// and the staged (node-then-GPU) cold solve engines run at build.
    pub fn probe_extras(&self, inputs: &ReplanInputs, seed: u64, rec: &Recorder) {
        let snapshot = {
            let _s = rec.span("affinity.snapshot");
            inputs.streaming.snapshot()
        };
        {
            let _s = rec.span("affinity.divergence");
            black_box(inputs.streaming.divergence(&snapshot));
        }
        for (name, backend) in [
            ("placement.swap_delta_csr", GapBackend::Sparse),
            ("placement.swap_delta_dense", GapBackend::Dense),
        ] {
            let objective = Objective::from_snapshot_with(&snapshot, backend);
            const CALLS: u64 = 20_000;
            let e = self.experts as u64;
            let _s = rec.span_ops(name, CALLS);
            let mut acc = 0.0;
            for i in 0..CALLS {
                // Distinct experts, walking every layer and most pairs.
                let e1 = (i * 7919) % e;
                let e2 = (e1 + 1 + (i * 104_729) % (e - 1)) % e;
                let layer = (i % self.layers as u64) as usize;
                acc += objective.swap_delta(&inputs.placement, layer, e1 as usize, e2 as usize);
            }
            black_box(acc);
        }
        let _s = rec.span("placement.solve_staged");
        black_box(solve_staged_with(
            &inputs.live,
            &self.cluster,
            0,
            seed,
            Parallelism::new(1),
        ));
    }

    /// The whole sequence once, under spans: the engine workloads' probe
    /// of the affinity and placement layers at their own shape.
    pub fn probe_sequence(&self, seed: u64, rec: &Recorder) -> LayerValues {
        let mut inputs = self.prepare(seed, rec);
        let report = self.run(&mut inputs, rec);
        self.probe_extras(&inputs, seed, rec);
        self.digest(&inputs, &report).layer
    }
}
