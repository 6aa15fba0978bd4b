//! The ExFlow inference engine: orchestration of attention, gating,
//! dispatch, expert compute, and context coherence over the simulated
//! cluster.

use std::sync::{Arc, OnceLock};

use exflow_affinity::{AffinitySnapshot, RoutingTrace, StreamingAffinity};
use exflow_collectives::{Lockstep, OpKind};
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{ComputeCostModel, CorpusSpec, ModelConfig, RoutingModel, TokenBatch};
use exflow_placement::staged::solve_staged_with;
use exflow_placement::{GapBackend, Objective, Parallelism, Placement, ReplicationPlan};
use exflow_topology::{ClusterSpec, CostModel, Rank};

use crate::frame::{fold, frame_size};
use crate::modes::ParallelismMode;
use crate::report::{DispatchStats, InferenceReport, OpBreakdown, FNV_OFFSET};

/// Knobs of re-placement under drift in the serving loop
/// ([`crate::Scenario::with_serving`] with [`crate::Scenario::with_drift`]):
/// when to check for routing drift, how much drift justifies a re-plan,
/// how many bytes of expert weights one re-plan may migrate, and how much
/// per-GPU memory (if any) re-plans may spend on expert replicas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Serving windows between drift checks (the re-plan cadence).
    pub replan_every: usize,
    /// Windowed divergence above which a re-plan fires. `f64::INFINITY`
    /// disables re-placement entirely (the static-placement baseline).
    pub drift_threshold: f64,
    /// Byte budget of one re-plan: expert-weight bytes migrated per
    /// re-plan never exceed this. `u64::MAX` is the oracle end of the
    /// spectrum (migrate whatever the re-solve wants).
    pub migration_budget_bytes: u64,
    /// Exponential decay the streaming affinity estimator applies before
    /// folding in each new window (1.0 never forgets).
    pub decay: f64,
    /// Per-GPU byte budget for extra expert-replica copies (the
    /// `ReplicationPlan::extra_copies_per_gpu` convention: a copy on the
    /// owner GPU is the original and costs nothing). `0` — the default —
    /// disables replication-aware re-planning entirely: re-plans move
    /// owners only, exactly the pre-replication behavior. A selected
    /// replica fans out to one GPU per node other than the owner's (the
    /// paper's staged node-then-GPU topology); the budgeted solver still
    /// races a full fan-out candidate, so this never finishes behind
    /// copy-everywhere at equal budgets.
    pub replica_memory_bytes: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            replan_every: 1,
            drift_threshold: 0.05,
            migration_budget_bytes: u64::MAX,
            decay: 0.5,
            replica_memory_bytes: 0,
        }
    }
}

impl OnlineConfig {
    fn validate(&self) {
        assert!(self.replan_every >= 1, "replan cadence must be >= 1");
        assert!(self.drift_threshold >= 0.0, "drift threshold must be >= 0");
        assert!(
            self.decay > 0.0 && self.decay <= 1.0,
            "decay must be in (0, 1]"
        );
    }
}

/// Full configuration of an engine instance.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Model shape (Table II row).
    pub model: ModelConfig,
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// Per-link communication costs.
    pub link_cost: CostModel,
    /// Compute-time model.
    pub compute: ComputeCostModel,
    /// Synthetic routing process standing in for the pre-trained gate.
    pub routing_spec: AffinityModelSpec,
    /// Serving-time token distribution.
    pub corpus: CorpusSpec,
    /// Concurrent requests per GPU (`g_i` in the paper's §IV-A).
    pub requests_per_gpu: usize,
    /// Prompt length at the start of generation.
    pub prompt_len: usize,
    /// Generation iterations to simulate.
    pub n_iterations: usize,
    /// Tokens traced offline to estimate affinity for placement (Fig. 13's
    /// X axis; thousands suffice).
    pub profile_tokens: usize,
    /// Local-search restarts for the staged placement solve.
    pub placement_restarts: usize,
    /// Worker threads for the placement solve. Per-engine (no global
    /// state); results are bit-identical at any width, so this is purely
    /// a build-latency knob. Defaults to sequential — engines opt in.
    pub parallelism: Parallelism,
    /// Storage backend for the profiled affinity objective. Evaluations
    /// are bit-identical across backends, so like `parallelism` this is
    /// purely a speed/memory knob; `Auto` picks CSR per gap once density
    /// drops below the sparse threshold (the large-expert regime).
    pub gap_backend: GapBackend,
    /// Online re-planning knobs (consulted only by serving scenarios):
    /// re-plan cadence, drift threshold, migration byte budget, and
    /// estimator decay.
    pub online: OnlineConfig,
    /// Master seed.
    pub seed: u64,
}

/// Builder for [`InferenceEngine`] with evaluation-friendly defaults.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    cfg: EngineConfig,
}

impl EngineBuilder {
    fn new(model: ModelConfig, cluster: ClusterSpec) -> Self {
        let routing_spec = AffinityModelSpec::new(model.n_layers, model.n_experts);
        let corpus = CorpusSpec::pile_proxy(routing_spec.n_domains);
        EngineBuilder {
            cfg: EngineConfig {
                model,
                cluster,
                link_cost: CostModel::wilkes3(),
                compute: ComputeCostModel::a100(),
                routing_spec,
                corpus,
                requests_per_gpu: 8,
                prompt_len: 64,
                n_iterations: 4,
                profile_tokens: 2000,
                placement_restarts: 1,
                parallelism: Parallelism::single(),
                gap_backend: GapBackend::Auto,
                online: OnlineConfig::default(),
                seed: 7,
            },
        }
    }

    /// Override the link cost model.
    pub fn link_cost(mut self, link_cost: CostModel) -> Self {
        self.cfg.link_cost = link_cost;
        self
    }

    /// Override the synthetic routing process.
    pub fn routing_spec(mut self, spec: AffinityModelSpec) -> Self {
        assert_eq!(spec.n_layers, self.cfg.model.n_layers);
        assert_eq!(spec.n_experts, self.cfg.model.n_experts);
        self.cfg.routing_spec = spec;
        self.cfg.corpus = CorpusSpec::pile_proxy(self.cfg.routing_spec.n_domains);
        self
    }

    /// Override the serving corpus.
    pub fn corpus(mut self, corpus: CorpusSpec) -> Self {
        self.cfg.corpus = corpus;
        self
    }

    /// Concurrent requests per GPU.
    pub fn requests_per_gpu(mut self, g: usize) -> Self {
        assert!(g >= 1);
        self.cfg.requests_per_gpu = g;
        self
    }

    /// Prompt length.
    pub fn prompt_len(mut self, l: usize) -> Self {
        self.cfg.prompt_len = l;
        self
    }

    /// Number of generation iterations.
    pub fn n_iterations(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.cfg.n_iterations = n;
        self
    }

    /// Tokens used for offline affinity profiling.
    pub fn profile_tokens(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.cfg.profile_tokens = n;
        self
    }

    /// Local-search restarts for placement.
    pub fn placement_restarts(mut self, r: usize) -> Self {
        self.cfg.placement_restarts = r;
        self
    }

    /// Worker threads for the placement solve (the solve is bit-identical
    /// at any width, so this only changes build latency).
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.cfg.parallelism = par;
        self
    }

    /// Storage backend for the affinity objective (bit-identical results
    /// on either; `Auto` switches to CSR when the profiled matrices are
    /// sparse enough).
    pub fn gap_backend(mut self, backend: GapBackend) -> Self {
        self.cfg.gap_backend = backend;
        self
    }

    /// Online serving knobs (see [`OnlineConfig`]).
    pub fn online(mut self, online: OnlineConfig) -> Self {
        online.validate();
        self.cfg.online = online;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Profile affinity, solve placements, and produce the engine.
    pub fn build(self) -> InferenceEngine {
        InferenceEngine::from_config(self.cfg)
    }
}

/// The engine: owns the routing process, the profiled affinity objective,
/// and one placement per mode; [`InferenceEngine::run_scenario`] executes
/// a full multi-iteration generation benchmark on the simulated cluster.
pub struct InferenceEngine {
    cfg: EngineConfig,
    routing: RoutingModel,
    objective: Objective,
    profile_trace: RoutingTrace,
    /// The estimator after the profiling window and the snapshot
    /// `objective` was built from — what every adaptive run starts from.
    profile_estimate: StreamingAffinity,
    profile_snapshot: AffinitySnapshot,
    round_robin: Placement,
    affinity_gpu: Placement,
    all_ranks: Arc<[usize]>,
    /// The batches every offline pass runs; sampled by the first (see
    /// [`InferenceEngine::offline_batches`]).
    offline_batches: OnceLock<Vec<TokenBatch>>,
}

impl InferenceEngine {
    /// Start building an engine for `model` on `cluster`.
    pub fn builder(model: ModelConfig, cluster: ClusterSpec) -> EngineBuilder {
        EngineBuilder::new(model, cluster)
    }

    /// Build from a complete config ([`EngineBuilder::build`]).
    fn from_config(cfg: EngineConfig) -> Self {
        cfg.online.validate();
        let world = cfg.cluster.world_size();
        assert!(
            cfg.model.n_experts.is_multiple_of(world),
            "experts ({}) must divide across {} GPUs",
            cfg.model.n_experts,
            world
        );
        assert!(
            cfg.model.gate.k() <= cfg.model.n_experts,
            "top-k gating needs at least k experts"
        );
        let routing = cfg.routing_spec.build();

        // Offline profiling pass: trace tokens, estimate affinity, solve
        // the staged placement (paper §V-A: profile on the training split,
        // serve on the evaluation split — the serving seed differs).
        let profile_batch = TokenBatch::sample(
            &routing,
            &cfg.corpus,
            cfg.profile_tokens,
            1,
            cfg.seed ^ 0x0ff1_1e5e,
        );
        let profile_trace = RoutingTrace::from_batch(&profile_batch, cfg.model.n_experts);
        // Sparse-native ingestion: trace -> CSR snapshot without ever
        // materializing dense E x E tables (bit-identical to the dense
        // estimator); `gap_backend` then picks the evaluation layout.
        let mut profile_estimate =
            StreamingAffinity::new(cfg.model.n_layers, cfg.model.n_experts, cfg.online.decay);
        profile_estimate.observe(&profile_trace);
        let profile_snapshot = profile_estimate.snapshot();
        let objective = Objective::from_snapshot_with(&profile_snapshot, cfg.gap_backend);

        let staged = solve_staged_with(
            &objective,
            &cfg.cluster,
            cfg.placement_restarts,
            cfg.seed,
            cfg.parallelism,
        );
        let round_robin = Placement::round_robin(cfg.model.n_layers, cfg.model.n_experts, world);

        InferenceEngine {
            cfg,
            routing,
            objective,
            profile_trace,
            profile_estimate,
            profile_snapshot,
            round_robin,
            affinity_gpu: staged.gpu_level,
            all_ranks: (0..world).collect(),
            offline_batches: OnceLock::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The profiled affinity objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The offline profiling trace.
    pub fn profile_trace(&self) -> &RoutingTrace {
        &self.profile_trace
    }

    /// The streaming estimator as the profiling window left it, and the
    /// snapshot [`InferenceEngine::objective`] was built from.
    pub(crate) fn profile_estimate(&self) -> (&StreamingAffinity, &AffinitySnapshot) {
        (&self.profile_estimate, &self.profile_snapshot)
    }

    /// The routing model used for both profiling and serving.
    pub fn routing(&self) -> &RoutingModel {
        &self.routing
    }

    /// The placement a mode runs with.
    pub fn placement_for(&self, mode: ParallelismMode) -> &Placement {
        if mode.uses_affinity() {
            &self.affinity_gpu
        } else {
            &self.round_robin
        }
    }

    /// Every provisioned GPU, ascending: the `live_ranks` of a healthy
    /// fleet.
    pub(crate) fn all_ranks(&self) -> &Arc<[usize]> {
        &self.all_ranks
    }

    /// The batches every offline pass runs — [`Scenario::offline`] with or
    /// without a replication plan:
    /// fresh routes per generation iteration from the engine's own routing
    /// model, on seed streams disjoint from the profiling seed. They are a
    /// pure function of the config, so the first such pass samples them
    /// and every later one reads them.
    ///
    /// [`Scenario::offline`]: crate::Scenario::offline
    pub(crate) fn offline_batches(&self) -> &[TokenBatch] {
        self.offline_batches.get_or_init(|| {
            let cfg = &self.cfg;
            let w = cfg.cluster.world_size();
            (0..cfg.n_iterations)
                .map(|iter| {
                    let global_iter = iter as u64;
                    TokenBatch::sample(
                        &self.routing,
                        &cfg.corpus,
                        w * cfg.requests_per_gpu,
                        cfg.model.gate.k(),
                        cfg.seed
                            .wrapping_mul(0x9e37_79b9)
                            .wrapping_add(global_iter + 1),
                    )
                })
                .collect()
        })
    }

    /// One pass on a healthy fleet.
    pub(crate) fn run_once(
        &self,
        mode: ParallelismMode,
        plan: &ReplicationPlan,
        batches: &[TokenBatch],
    ) -> InferenceReport {
        let mut plane = Plane::new(&self.cfg);
        self.run_pass(mode, plan, batches, 0, &self.all_ranks, &mut plane)
    }

    /// Execute one pass over explicit batches, on the calling thread.
    /// `ctx_offset` shifts the per-iteration context length (tokens a
    /// serving step's requests generated in earlier steps are part of
    /// their context). Batches may be any size: tokens spread round-robin
    /// over the ranks, so the request-level serving loop
    /// (`crate::serving`) can feed it continuous-batching pools of
    /// whatever occupancy the queue yields.
    ///
    /// `live_ranks` lists the live GPUs ascending. Dead ranks hold no
    /// tokens or experts but still join every collective (with empty
    /// payloads), so the clocks stay synchronized across the provisioned
    /// fleet. With every rank live ([`InferenceEngine::all_ranks`]) token
    /// homing and context-setup accounting reduce to exactly the unmasked
    /// arithmetic: `live_ranks[id % live_ranks.len()]` is then `id % w`.
    ///
    /// `plane` is the caller's: whoever loops over passes keeps one
    /// ([`Plane::new`]) so its positions and counts allocate once per
    /// run, not once per pass.
    pub(crate) fn run_pass(
        &self,
        mode: ParallelismMode,
        plan: &ReplicationPlan,
        batches: &[TokenBatch],
        ctx_offset: usize,
        live_ranks: &[usize],
        plane: &mut Plane,
    ) -> InferenceReport {
        let cfg = &self.cfg;
        let w = cfg.cluster.world_size();
        assert_eq!(plan.base.n_units(), w, "placement must cover every GPU");
        assert_eq!(plan.base.n_layers(), cfg.model.n_layers);
        assert_eq!(plan.replicas.len(), cfg.model.n_layers);
        assert!(
            live_ranks.is_sorted() && live_ranks.last().is_some_and(|&r| r < w),
            "live ranks must be a non-empty ascending list of the fleet's GPUs"
        );

        let pass = Pass {
            cfg,
            mode,
            plan,
            live_ranks,
            batches,
            ctx_offset,
        };
        let output_digest = pass.run(plane);

        let fleet = &plane.fleet;
        let total_time = (0..w).map(|r| fleet.now(r)).fold(0.0f64, f64::max);
        let mut breakdown = OpBreakdown::default();
        let mut dispatch = DispatchStats::default();
        for r in &plane.acc {
            breakdown.merge(&r.breakdown);
            dispatch.merge(&r.dispatch);
        }
        let breakdown = breakdown.scaled(1.0 / w as f64);

        InferenceReport {
            mode,
            total_time,
            breakdown,
            tokens_processed: batches.iter().map(|b| b.len() as u64).sum(),
            dispatch,
            alltoall_bytes: fleet.totals(OpKind::Alltoall).sent,
            allgather_bytes: fleet.totals(OpKind::AllGather).sent,
            output_digest,
        }
    }
}

/// What a pass runs on: where every token of the iteration sits and
/// where each of its top-k copies runs, the fleet's clocks, and the
/// counts the stages read off those positions. Nothing in it outlives a
/// pass as *state* — the fleet and the ledgers are reset when a pass
/// starts, the positions are set by `home_tokens` and `route` — so one
/// plane serves any number of passes of one engine and only its
/// allocations carry over, with the prompt AllGather's prices, which are
/// a function of the engine and of the keys they are kept with.
pub(crate) struct Plane {
    /// `tokens[id]`: where token `id` of the iteration sits.
    tokens: Vec<Spot>,
    /// `copies[id * k + slot]`: where that top-k copy of token `id` runs.
    copies: Vec<Spot>,
    /// Bytes one copy occupies on the wire ([`frame_size`]).
    frame: usize,
    /// `lanes[src * w + dst]`: the bytes of the hop being built, which
    /// the exchange sends and leaves at zero.
    lanes: Vec<u64>,
    fleet: Lockstep,
    /// `acc[rank]`: each rank's share of the current pass.
    acc: Vec<RankResult>,
    /// `node_of[rank]`: the fleet's rank → node table, for `route`.
    node_of: Vec<usize>,
    /// `rows[rank]`: the tokens, or the copies, on each rank.
    rows: Vec<usize>,
    /// `run_experts`: `touched[rank]` counts the distinct experts each
    /// rank runs, which `seen[rank * E + expert]` marks.
    touched: Vec<usize>,
    seen: Vec<bool>,
    /// The AllGathers' byte count per rank.
    contribs: Vec<u64>,
    /// `gather_prompt_contexts`: `prompt_gather[n]` is the charge of an
    /// `n`-token iteration over the live ranks `prompt_live`, `None`
    /// until one is priced. Token count and live ranks are the only
    /// inputs of a plane's engine that it depends on, so a change of the
    /// live ranks drops every price.
    prompt_gather: Vec<Option<f64>>,
    prompt_live: Vec<usize>,
}

impl Plane {
    /// A fresh plane for the fleet and model of `cfg`.
    pub(crate) fn new(cfg: &EngineConfig) -> Self {
        let (w, model) = (cfg.cluster.world_size(), &cfg.model);
        Plane {
            tokens: Vec::new(),
            copies: Vec::new(),
            frame: frame_size(model.token_bytes(), model.sim_dim),
            lanes: vec![0; w * w],
            fleet: Lockstep::new(cfg.cluster, cfg.link_cost),
            acc: Vec::with_capacity(w),
            node_of: (0..w).map(|r| cfg.cluster.node_of(Rank(r))).collect(),
            rows: vec![0; w],
            touched: vec![0; w],
            seen: vec![false; w * model.n_experts],
            contribs: Vec::with_capacity(w),
            prompt_gather: Vec::new(),
            prompt_live: Vec::new(),
        }
    }
}

/// Where a token sits, or where one of its top-k copies runs, and its
/// provenance word: its origin, every `(layer, expert)` that ran it and
/// every top-2 copy merged into it, folded in order with [`fold`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Spot {
    rank: usize,
    word: u64,
}

/// `rows[rank]`: how many of `spots` sit on each rank.
fn count_rows(rows: &mut [usize], spots: &[Spot]) {
    rows.fill(0);
    for spot in spots {
        rows[spot.rank] += 1;
    }
}

/// One pass over the fleet: what every rank agrees on, all of it borrowed
/// from the caller. [`Pass::run`] is the superstep loop; its per-layer
/// stages are the methods below, in call order.
struct Pass<'e> {
    cfg: &'e EngineConfig,
    mode: ParallelismMode,
    plan: &'e ReplicationPlan,
    /// Live GPUs, ascending. Dead ranks own nothing and carry nothing but
    /// still enter every collective so the virtual clocks agree.
    live_ranks: &'e [usize],
    batches: &'e [TokenBatch],
    ctx_offset: usize,
}

/// One rank's share of a pass.
#[derive(Default)]
struct RankResult {
    breakdown: OpBreakdown,
    dispatch: DispatchStats,
    /// The rank's clock on entry to the collective being [`synced`].
    entered: f64,
}

/// A barrier, then the collective `op`: each rank's wait at the barrier
/// is charged to `imbalance` and its clock movement across `op` to the
/// breakdown field `slot` picks.
fn synced(
    fleet: &mut Lockstep,
    acc: &mut [RankResult],
    slot: fn(&mut OpBreakdown) -> &mut f64,
    op: impl FnOnce(&mut Lockstep),
) {
    for (r, a) in acc.iter_mut().enumerate() {
        a.entered = fleet.now(r);
    }
    fleet.barrier();
    // The barrier leaves every clock at the fleet's max.
    let released = fleet.now(0);
    op(fleet);
    for (r, a) in acc.iter_mut().enumerate() {
        a.breakdown.imbalance += released - a.entered;
        *slot(&mut a.breakdown) += fleet.now(r) - released;
    }
}

/// The Alltoall every token movement goes through, charged the bytes
/// of the hop `route` or `combine` built in `plane.lanes`, which it
/// leaves at zero. It is a synchronization point: straggler wait at
/// entry is attributed to `imbalance`, the collective's own cost to
/// `alltoall`.
fn exchange(plane: &mut Plane) {
    let Plane {
        lanes, fleet, acc, ..
    } = plane;
    synced(
        fleet,
        acc,
        |b| &mut b.alltoall,
        |fleet| fleet.all_to_all_v(lanes),
    );
}

impl Pass<'_> {
    /// The bulk-synchronous body: each stage is one walk over where the
    /// iteration's tokens and their copies are (`plane.tokens`,
    /// `plane.copies`), counting what each rank and each `(src, dst)`
    /// lane is charged, then charging rank 0, 1, .. in turn, dead or
    /// empty; the collectives between stages are single calls on
    /// `plane.fleet`, reset here first. Per MoE layer: attention and
    /// gating where the token sits, `route` and `exchange` (the dispatch
    /// Alltoall), `run_experts`, then `combine` — which for
    /// context-coherent top-1 moves nothing (tokens stay where their
    /// experts are: *one* Alltoall per layer) and for vanilla and
    /// context-coherent top-2 is a second `exchange`.
    /// Leaves the per-rank ledgers in `plane.acc` and returns
    /// [`InferenceReport::output_digest`].
    fn run(&self, plane: &mut Plane) -> u64 {
        let cfg = self.cfg;
        let w = cfg.cluster.world_size();
        plane.fleet.reset();
        plane.acc.clear();
        plane.acc.resize_with(w, RankResult::default);
        let mut digest = FNV_OFFSET;
        if self.mode.context_coherent() {
            self.gather_prompt_contexts(plane);
        }

        for (iter, batch) in self.batches.iter().enumerate() {
            let ctx_len = cfg.prompt_len + self.ctx_offset + iter;
            self.home_tokens(iter, batch, plane);

            for layer in 0..cfg.model.n_layers {
                // Attention: in-place on whatever GPU the token occupies
                // (context-coherent) or on the home GPU (vanilla — tokens
                // are home here because the previous layer combined).
                count_rows(&mut plane.rows, &plane.tokens);
                for (me, (&rows, a)) in plane.rows.iter().zip(&mut plane.acc).enumerate() {
                    let t_att = cfg.compute.attention_time(&cfg.model, rows, ctx_len);
                    plane.fleet.advance(me, t_att);
                    a.breakdown.attention += t_att;

                    let t_gate = cfg.compute.gating_time(&cfg.model, rows);
                    plane.fleet.advance(me, t_gate);
                    a.breakdown.gating += t_gate;
                }

                self.route(batch, layer, plane);
                exchange(plane);
                self.run_experts(batch, layer, plane);
                self.combine(batch, layer, plane);
            }
            // Every token's word, in id order, wherever it came to rest.
            digest = (plane.tokens.iter().enumerate()).fold(digest, |h, (id, token)| {
                fold(fold(fold(h, iter as u64), id as u64), token.word)
            });

            // Context coherence upkeep: broadcast this iteration's newly
            // generated tokens so every GPU's context stays complete. Each
            // rank contributes a frame per token it holds.
            let Plane {
                tokens,
                frame,
                fleet,
                acc,
                rows,
                contribs,
                ..
            } = plane;
            if self.mode.context_coherent() {
                count_rows(rows, tokens);
                contribs.clear();
                contribs.extend(rows.iter().map(|&n| (n * *frame) as u64));
                synced(
                    fleet,
                    acc,
                    |b| &mut b.allgather,
                    |fleet| fleet.all_gather_v(contribs),
                );
            }

            fleet.barrier();
        }
        digest
    }

    /// Context coherence setup: one AllGather of all prompt contexts.
    /// This happens once before generation and its payload (every prompt
    /// token on every GPU) would dominate the simulation's memory traffic
    /// without affecting any per-layer behaviour, so it is charged
    /// analytically: every rank advances by the ring AllGather time the
    /// cost model predicts for `frame`-byte tokens
    /// ([`Lockstep::ring_gather_time`]). The price depends on the
    /// tokens per iteration and the live ranks alone, so the plane keeps
    /// one per token count for the current live ranks, and a pass reads
    /// the one it has.
    fn gather_prompt_contexts(&self, plane: &mut Plane) {
        let cfg = self.cfg;
        let Plane {
            frame,
            fleet,
            acc,
            contribs,
            prompt_gather,
            prompt_live,
            ..
        } = plane;
        let n_tokens = self.batches.first().map_or(0, TokenBatch::len);
        if prompt_live[..] != *self.live_ranks {
            prompt_live.clear();
            prompt_live.extend_from_slice(self.live_ranks);
            prompt_gather.clear();
        }
        if prompt_gather.len() <= n_tokens {
            prompt_gather.resize(n_tokens + 1, None);
        }
        let t = match prompt_gather[n_tokens] {
            Some(t) => t,
            None => {
                let n_live = self.live_ranks.len();
                // Tokens are resident round-robin by id over the *live*
                // ranks, so the live rank at position `j` holds
                // `ceil`-or-`floor` of `n / n_live` of them and dead
                // ranks contribute nothing.
                contribs.clear();
                contribs.resize(acc.len(), 0);
                for (j, &r) in self.live_ranks.iter().enumerate() {
                    let mine = n_tokens / n_live + usize::from(j < n_tokens % n_live);
                    contribs[r] = (mine * cfg.prompt_len * *frame) as u64;
                }
                let t = fleet.ring_gather_time(contribs);
                prompt_gather[n_tokens] = Some(t);
                t
            }
        };
        for (r, a) in acc.iter_mut().enumerate() {
            fleet.advance(r, t);
            a.breakdown.allgather += t;
        }
    }

    /// Every request contributes one in-flight token, homed round-robin
    /// by id over the live ranks, whatever the batch size (dead ranks
    /// home nothing): token `id` sits on `live_ranks[id % n_live]`. A
    /// token's word starts as the fold of `(seed, iter, id)`.
    fn home_tokens(&self, iter: usize, batch: &TokenBatch, plane: &mut Plane) {
        let live = self.live_ranks;
        let origin = fold(fold(FNV_OFFSET, self.cfg.seed), iter as u64);
        plane.tokens.clear();
        plane.tokens.extend((0..batch.len()).map(|id| Spot {
            rank: live[id % live.len()],
            word: fold(origin, id as u64),
        }));
        let k = self.cfg.model.gate.k();
        plane.copies.resize(batch.len() * k, Spot::default());
    }

    /// Dispatch routing: one copy of every token per gated expert, put
    /// on the GPU that will serve it with the token's word, and counted
    /// in the token's rank's `DispatchStats` (the node by `node_of`) and
    /// in the bytes of its `(src, dst)` lane. At a layer without copies
    /// that GPU is the owner for every slot: what
    /// [`ReplicationPlan::serve`] returns for an expert with no copies,
    /// from any rank (`route_dispatches_where_serve_does`), so only a
    /// layer with copies asks `serve`.
    fn route(&self, batch: &TokenBatch, layer: usize, plane: &mut Plane) {
        let cluster = &self.cfg.cluster;
        let (w, k) = (cluster.world_size(), self.cfg.model.gate.k());
        let owners = self.plan.base.layer(layer);
        let no_copies = self.plan.replicas[layer].is_empty();
        // Meeting-point rule: in context-coherent top-2 the *primary*
        // always runs on the owner GPU, so every rank can derive the
        // secondary-merge destination from the route alone.
        let meeting_point = self.mode.context_coherent() && k > 1;
        let is_live = |u: usize| self.live_ranks.binary_search(&u).is_ok();
        let Plane {
            tokens,
            copies,
            frame,
            lanes,
            acc,
            node_of,
            ..
        } = plane;
        for (id, (token, copies)) in tokens.iter().zip(copies.chunks_exact_mut(k)).enumerate() {
            let me = token.rank;
            let dispatch = &mut acc[me].dispatch;
            let route = batch.route(id, layer);
            for (slot, (copy, &expert)) in copies.iter_mut().zip(route).enumerate() {
                let expert = usize::from(expert);
                let dst = if no_copies || (meeting_point && slot == 0) {
                    owners[expert]
                } else {
                    self.plan.serve(cluster, me, layer, expert, is_live)
                };
                dispatch.total += 1;
                dispatch.same_gpu += u64::from(dst == me);
                dispatch.same_node += u64::from(node_of[dst] == node_of[me]);
                lanes[me * w + dst] += *frame as u64;
                *copy = Spot {
                    rank: dst,
                    word: token.word,
                };
            }
        }
    }

    /// Expert FFN: every copy has `(layer, expert)` folded into its word,
    /// and each rank's clock advances by the true-dim cost of the copies
    /// it runs and of their distinct experts (`expert_time`'s
    /// `experts_touched`). A word depends on its own copy alone, so
    /// neither the order nor a grouping by expert would change one
    /// (`a_pass_charges_the_expert_ffn_of_the_sorted_grouping`).
    fn run_experts(&self, batch: &TokenBatch, layer: usize, plane: &mut Plane) {
        let cfg = self.cfg;
        let (k, e) = (cfg.model.gate.k(), cfg.model.n_experts);
        let Plane {
            copies,
            fleet,
            acc,
            rows,
            touched,
            seen,
            ..
        } = plane;
        rows.fill(0);
        touched.fill(0);
        seen.fill(false);
        for (id, copies) in copies.chunks_exact_mut(k).enumerate() {
            for (copy, &expert) in copies.iter_mut().zip(batch.route(id, layer)) {
                let (r, expert) = (copy.rank, usize::from(expert));
                rows[r] += 1;
                let mark = &mut seen[r * e + expert];
                if !*mark {
                    // Any rank could run any expert here, so routing and
                    // placement disagreeing would otherwise go unnoticed.
                    // Dead ranks hold nothing — an evacuated placement
                    // never routes to them anyway.
                    assert!(
                        self.live_ranks.binary_search(&r).is_ok()
                            && self.plan.available_on(layer, expert, r),
                        "token routed to an expert this rank does not hold"
                    );
                    *mark = true;
                    touched[r] += 1;
                }
                copy.word = fold(fold(copy.word, layer as u64), expert as u64);
            }
        }
        for (me, (&rows, &touched)) in rows.iter().zip(touched.iter()).enumerate() {
            let t_ffn = cfg.compute.expert_time(&cfg.model, rows, touched, 1);
            fleet.advance(me, t_ffn);
            acc[me].breakdown.expert_ffn += t_ffn;
        }
    }

    /// Where expert outputs go before the next layer's attention, and
    /// the top-2 merge.
    fn combine(&self, batch: &TokenBatch, layer: usize, plane: &mut Plane) {
        let (w, k) = (self.cfg.cluster.world_size(), self.cfg.model.gate.k());
        let coherent = self.mode.context_coherent();
        let Plane {
            tokens,
            copies,
            frame,
            lanes,
            ..
        } = plane;
        let frame = *frame as u64;
        // Vanilla: every copy returns to its home GPU, where the token
        // sits, so the next layer's attention can see its context.
        // Context-coherent top-1: the token stays where its expert ran.
        // Context-coherent top-2: the primary copy's GPU is the meeting
        // point; the secondary's output travels to it.
        for (id, (token, copies)) in tokens.iter_mut().zip(copies.chunks_exact(k)).enumerate() {
            match *copies {
                [copy] if coherent => *token = copy,
                [copy] => {
                    lanes[copy.rank * w + token.rank] += frame;
                    token.word = copy.word;
                }
                [primary, secondary] => {
                    let dst = if coherent {
                        // The secondary goes to its primary's owner, which
                        // is where `route` ran the primary: so the two
                        // always meet, and every merge finds both.
                        debug_assert_eq!(
                            primary.rank,
                            (self.plan.base).unit_of(layer, usize::from(batch.route(id, layer)[0])),
                            "a secondary's combine destination is its primary's rank"
                        );
                        primary.rank
                    } else {
                        lanes[primary.rank * w + token.rank] += frame;
                        token.rank
                    };
                    lanes[secondary.rank * w + dst] += frame;
                    *token = Spot {
                        rank: dst,
                        word: fold(primary.word, secondary.word),
                    };
                }
                _ => unreachable!("top-1 or top-2"),
            }
        }
        if !(coherent && k == 1) {
            exchange(plane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::tests::{
        adaptive_engine, adaptive_online, bytes_per_expert, drive, trajectory,
    };
    use crate::report::{fnv1a, ServingReport};
    use crate::scenario::Scenario;
    use crate::serving::{BatchPolicy, ServingConfig};
    use exflow_model::presets::moe_gpt_m;
    use exflow_model::{ArrivalProcess, DriftSchedule, GateKind};
    use exflow_placement::{LayerReplicas, ReplicaPolicy};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn offline(engine: &InferenceEngine, mode: ParallelismMode) -> InferenceReport {
        engine
            .run_scenario(&Scenario::offline(mode))
            .expect_offline()
    }

    fn replicated(
        engine: &InferenceEngine,
        mode: ParallelismMode,
        plan: &ReplicationPlan,
    ) -> InferenceReport {
        engine
            .run_scenario(&Scenario::offline(mode).with_replication(plan.clone()))
            .expect_offline()
    }

    fn tiny_engine(nodes: usize, gpn: usize) -> InferenceEngine {
        let mut model = moe_gpt_m(8);
        model.n_layers = 6; // keep tests fast
        InferenceEngine::builder(model, ClusterSpec::new(nodes, gpn).unwrap())
            .requests_per_gpu(16)
            .n_iterations(2)
            .prompt_len(16)
            .profile_tokens(1500)
            .seed(11)
            .build()
    }

    #[test]
    fn all_modes_process_every_token() {
        let engine = tiny_engine(2, 2);
        for mode in ParallelismMode::ALL {
            let r = offline(&engine, mode);
            assert_eq!(r.tokens_processed, 4 * 16 * 2, "{mode}");
            assert!(r.total_time > 0.0);
            assert!(r.breakdown.total() > 0.0);
        }
    }

    #[test]
    fn context_coherence_cuts_alltoall_traffic() {
        let engine = tiny_engine(2, 2);
        let vanilla = offline(&engine, ParallelismMode::Vanilla);
        let cc = offline(&engine, ParallelismMode::ContextCoherent);
        assert!(
            cc.alltoall_bytes.cross_gpu() < vanilla.alltoall_bytes.cross_gpu(),
            "cc {} vs vanilla {}",
            cc.alltoall_bytes.cross_gpu(),
            vanilla.alltoall_bytes.cross_gpu()
        );
        // Vanilla issues no AllGather at all.
        assert_eq!(vanilla.allgather_bytes.total(), 0);
        assert!(cc.allgather_bytes.total() > 0);
    }

    #[test]
    fn affinity_placement_improves_dispatch_locality() {
        let engine = tiny_engine(2, 2);
        let cc = offline(&engine, ParallelismMode::ContextCoherent);
        let aff = offline(&engine, ParallelismMode::ContextCoherentAffinity);
        assert!(
            aff.dispatch.gpu_local_fraction() > cc.dispatch.gpu_local_fraction(),
            "affinity {} vs cc {}",
            aff.dispatch.gpu_local_fraction(),
            cc.dispatch.gpu_local_fraction()
        );
    }

    #[test]
    fn exflow_beats_vanilla_end_to_end() {
        let engine = tiny_engine(2, 2);
        let vanilla = offline(&engine, ParallelismMode::Vanilla);
        let exflow = offline(&engine, ParallelismMode::ContextCoherentAffinity);
        assert!(
            exflow.throughput() > vanilla.throughput(),
            "exflow {} <= vanilla {}",
            exflow.throughput(),
            vanilla.throughput()
        );
    }

    #[test]
    fn parallel_build_yields_identical_placements_and_reports() {
        let build = |threads: usize| {
            let mut model = moe_gpt_m(8);
            model.n_layers = 6;
            InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
                .requests_per_gpu(16)
                .n_iterations(2)
                .prompt_len(16)
                .profile_tokens(1500)
                .placement_restarts(4)
                .parallelism(Parallelism::new(threads))
                .seed(11)
                .build()
        };
        let seq = build(1);
        for threads in [2, 8] {
            let par = build(threads);
            assert_eq!(
                par.placement_for(ParallelismMode::ContextCoherentAffinity),
                seq.placement_for(ParallelismMode::ContextCoherentAffinity),
                "{threads} threads diverged"
            );
            let a = offline(&seq, ParallelismMode::ContextCoherentAffinity);
            let b = offline(&par, ParallelismMode::ContextCoherentAffinity);
            assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
            assert_eq!(a.dispatch, b.dispatch);
        }
    }

    #[test]
    fn gap_backend_is_a_pure_speed_knob() {
        let build = |backend: GapBackend| {
            let mut model = moe_gpt_m(8);
            model.n_layers = 6;
            InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
                .requests_per_gpu(16)
                .n_iterations(2)
                .prompt_len(16)
                .profile_tokens(1500)
                .gap_backend(backend)
                .seed(11)
                .build()
        };
        let dense = build(GapBackend::Dense);
        let sparse = build(GapBackend::Sparse);
        assert_eq!(
            dense.placement_for(ParallelismMode::ContextCoherentAffinity),
            sparse.placement_for(ParallelismMode::ContextCoherentAffinity),
            "backends must solve to the same placement"
        );
        let a = offline(&dense, ParallelismMode::ContextCoherentAffinity);
        let b = offline(&sparse, ParallelismMode::ContextCoherentAffinity);
        assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
        assert_eq!(a.dispatch, b.dispatch);
    }

    #[test]
    fn runs_are_deterministic() {
        let engine = tiny_engine(1, 4);
        let a = offline(&engine, ParallelismMode::ContextCoherentAffinity);
        let b = offline(&engine, ParallelismMode::ContextCoherentAffinity);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.dispatch, b.dispatch);
        assert_eq!(a.alltoall_bytes, b.alltoall_bytes);
    }

    #[test]
    fn single_gpu_has_no_cross_traffic() {
        let mut model = moe_gpt_m(8);
        model.n_layers = 4;
        let engine = InferenceEngine::builder(model, ClusterSpec::single_node(1).unwrap())
            .requests_per_gpu(16)
            .n_iterations(1)
            .profile_tokens(500)
            .build();
        let r = offline(&engine, ParallelismMode::ContextCoherentAffinity);
        assert_eq!(r.alltoall_bytes.cross_gpu(), 0);
        assert_eq!(r.dispatch.gpu_local_fraction(), 1.0);
    }

    #[test]
    fn custom_placement_is_respected() {
        let engine = tiny_engine(1, 4);
        let rr = engine.placement_for(ParallelismMode::Vanilla).clone();
        let via_custom = replicated(
            &engine,
            ParallelismMode::ContextCoherent,
            &ReplicationPlan::bare(rr),
        );
        let via_default = offline(&engine, ParallelismMode::ContextCoherent);
        assert_eq!(via_custom.dispatch, via_default.dispatch);
    }

    #[test]
    #[should_panic(expected = "token routed to an expert this rank does not hold")]
    fn tokens_for_experts_held_elsewhere_are_rejected() {
        let engine = tiny_engine(1, 4);
        let cfg = engine.config();
        let mode = ParallelismMode::ContextCoherentAffinity;
        let plan = ReplicationPlan::bare(engine.placement_for(mode).clone());
        let batches = engine.offline_batches();
        let pass = Pass {
            cfg,
            mode,
            plan: &plan,
            live_ranks: engine.all_ranks(),
            batches,
            ctx_offset: 0,
        };
        // A dispatch that ignored the placement: every token, and its one
        // copy, on rank 0, wherever its expert lives.
        let batch = &batches[0];
        let mut plane = Plane::new(cfg);
        plane
            .acc
            .resize_with(cfg.cluster.world_size(), RankResult::default);
        pass.home_tokens(0, batch, &mut plane);
        plane.tokens.iter_mut().for_each(|token| token.rank = 0);
        plane.copies.copy_from_slice(&plane.tokens);
        assert_eq!(plane.copies.len(), batch.len());
        pass.run_experts(batch, 0, &mut plane);
    }

    #[test]
    #[should_panic(expected = "must divide across")]
    fn indivisible_expert_count_rejected() {
        let model = moe_gpt_m(8);
        let _ = InferenceEngine::builder(model, ClusterSpec::new(3, 1).unwrap()).build();
    }

    #[test]
    fn single_layer_model_builds_and_runs() {
        // Regression: an L = 1 model profiles into a gapless objective,
        // which the engine's builder used to reject ("need at least one
        // layer gap"). No transitions means nothing can leave its GPU.
        let mut model = moe_gpt_m(8);
        model.n_layers = 1;
        let engine = InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .requests_per_gpu(16)
            .n_iterations(2)
            .prompt_len(16)
            .profile_tokens(1500)
            .seed(11)
            .build();
        assert_eq!(engine.objective().n_gaps(), 0);
        for mode in ParallelismMode::ALL {
            let r = offline(&engine, mode);
            assert_eq!(r.tokens_processed, 4 * 16 * 2, "{mode}");
            let placement = engine.placement_for(mode);
            assert_eq!(engine.objective().local_fraction(placement), 1.0);
        }
    }

    #[test]
    fn from_config_rejects_a_bad_decay_with_the_config_message() {
        let mut cfg = tiny_engine(1, 2).config().clone();
        cfg.online.decay = 0.0;
        let panic = std::panic::catch_unwind(|| InferenceEngine::from_config(cfg))
            .err()
            .expect("a zero decay must not build");
        // The estimator's own assert says "..., got 0"; the config's does not.
        assert_eq!(
            panic.downcast_ref::<&str>().copied(),
            Some("decay must be in (0, 1]")
        );
    }

    /// The adaptive top-1 engine under `online`, on one solver thread.
    fn online_engine(online: OnlineConfig) -> InferenceEngine {
        adaptive_engine(GateKind::Top1, 1, online)
    }

    /// Serve 160 requests of six-window two-phase piecewise drift at 80 %
    /// of full-batch capacity (Poisson arrivals, 4 decode steps) in the
    /// full ExFlow mode, on five layers of eight narrow experts (small
    /// payloads, so re-plan copies land well inside a window).
    fn serve_drift(gate: GateKind, online: OnlineConfig) -> ServingReport {
        const DECODE_STEPS: usize = 4;
        const N_REQUESTS: usize = 160;
        const WINDOWS: usize = 6;
        let mode = ParallelismMode::ContextCoherentAffinity;
        let mut model = moe_gpt_m(8).with_gate(gate);
        model.n_layers = 5;
        model.d_ff = 128;
        let engine = InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .requests_per_gpu(8)
            .prompt_len(8)
            .profile_tokens(800)
            .online(online)
            .seed(11)
            .build();
        let batch = engine.config().cluster.world_size() * engine.config().requests_per_gpu;
        let step = engine.probe_step_time(mode, batch);
        let rate = 0.8 * batch as f64 / (DECODE_STEPS as f64 * step);
        let serving = ServingConfig {
            arrival: ArrivalProcess::poisson(rate),
            n_requests: N_REQUESTS,
            decode_steps: DECODE_STEPS,
            batch: BatchPolicy::SizeOrWait {
                max_size: batch,
                max_wait: 2.0 * step,
            },
            window_duration: N_REQUESTS as f64 / rate / WINDOWS as f64,
        };
        let drift = DriftSchedule::piecewise(&engine.config().routing_spec, 2, WINDOWS);
        engine
            .run_scenario(
                &Scenario::offline(mode)
                    .with_drift(drift)
                    .with_serving(serving),
            )
            .expect_serving()
    }

    #[test]
    fn online_adaptation_beats_static_placement_under_drift() {
        let adaptive = serve_drift(GateKind::Top1, adaptive_online());
        // Static baseline: infinite threshold never re-plans.
        let fixed = serve_drift(
            GateKind::Top1,
            OnlineConfig {
                drift_threshold: f64::INFINITY,
                ..adaptive_online()
            },
        );
        assert!(
            adaptive.migrations.replans > 0,
            "drift must trigger re-plans"
        );
        assert_eq!(fixed.migrations.replans, 0);
        assert!(
            adaptive.dispatch.gpu_local_fraction() > fixed.dispatch.gpu_local_fraction(),
            "adaptive {} vs static {}",
            adaptive.dispatch.gpu_local_fraction(),
            fixed.dispatch.gpu_local_fraction()
        );
    }

    #[test]
    fn online_drift_signal_spikes_at_the_phase_boundary() {
        let engine = online_engine(adaptive_online());
        let report = trajectory(&engine, ParallelismMode::ContextCoherentAffinity, 6);
        assert_eq!(report.drift.len(), 6);
        // The phase flips after window 2 (6 windows, 2 phases): the
        // signal at window 3 dwarfs the in-phase sampling noise before it.
        assert!(
            report.drift[3] > 1.75 * report.drift[1],
            "boundary {} vs in-phase {}",
            report.drift[3],
            report.drift[1]
        );
        // Migration accounting is internally consistent.
        let moved: u64 = report.replans.iter().map(|r| r.experts_moved).sum();
        assert_eq!(moved, report.migrations.experts_moved);
        assert_eq!(
            report.migrations.bytes.total(),
            report.replans.iter().map(|r| r.bytes_moved).sum::<u64>()
        );
        let time: f64 = report.replans.iter().map(|r| r.migration_time).sum();
        assert_eq!(time.to_bits(), report.migrations.time.to_bits());
    }

    #[test]
    fn online_budget_caps_bytes_per_replan() {
        let budget = 4 * bytes_per_expert();
        let capped = online_engine(OnlineConfig {
            migration_budget_bytes: budget,
            ..adaptive_online()
        });
        let report = trajectory(&capped, ParallelismMode::ContextCoherentAffinity, 6);
        assert!(report.migrations.replans > 0);
        for replan in &report.replans {
            assert!(
                replan.bytes_moved <= budget,
                "re-plan at window {} moved {} bytes over the {} budget",
                replan.window,
                replan.bytes_moved,
                budget
            );
        }
    }

    #[test]
    fn online_runs_are_thread_count_invariant() {
        let mode = ParallelismMode::ContextCoherentAffinity;
        let a = trajectory(&online_engine(adaptive_online()), mode, 4);
        assert!(a.migrations.replans > 0);
        for threads in [2, 8] {
            let par = adaptive_engine(GateKind::Top1, threads, adaptive_online());
            assert_eq!(trajectory(&par, mode, 4), a, "{threads} threads diverged");
        }
    }

    #[test]
    fn replicas_serve_dispatch_locally() {
        use exflow_placement::ReplicationPlan;
        let engine = tiny_engine(2, 2);
        let base = engine
            .placement_for(ParallelismMode::ContextCoherentAffinity)
            .clone();
        let bare = replicated(
            &engine,
            ParallelismMode::ContextCoherentAffinity,
            &ReplicationPlan::bare(base.clone()),
        );
        let plan = ReplicationPlan::most_popular(engine.objective(), base, 3);
        let rep = replicated(&engine, ParallelismMode::ContextCoherentAffinity, &plan);
        assert!(
            rep.dispatch.gpu_local_fraction() > bare.dispatch.gpu_local_fraction(),
            "replicas {} vs bare {}",
            rep.dispatch.gpu_local_fraction(),
            bare.dispatch.gpu_local_fraction()
        );
        // Same tokens served either way.
        assert_eq!(rep.tokens_processed, bare.tokens_processed);
        assert_eq!(rep.dispatch.total, bare.dispatch.total);
        // An empty plan is exactly the bare run.
        let empty = ReplicationPlan::bare(
            engine
                .placement_for(ParallelismMode::ContextCoherentAffinity)
                .clone(),
        );
        let same = replicated(&engine, ParallelismMode::ContextCoherentAffinity, &empty);
        assert_eq!(same, bare);
    }

    #[test]
    fn replication_aware_online_run_churns_replicas_within_budget() {
        let bpe = bytes_per_expert();
        let slots = 6u64;
        let engine = online_engine(OnlineConfig {
            replica_memory_bytes: slots * bpe,
            migration_budget_bytes: 24 * bpe,
            ..adaptive_online()
        });
        let report = trajectory(&engine, ParallelismMode::ContextCoherentAffinity, 6);
        assert!(report.migrations.replans > 0, "drift must trigger re-plans");
        assert!(
            report.migrations.replicas_added > 0,
            "the joint budget must buy at least one replica under drift"
        );
        assert!(report.live.extra_copies_per_gpu() as u64 <= slots);
        for replan in &report.replans {
            assert!(
                replan.bytes_moved <= replan.budget_bytes,
                "window {}: {} bytes over the {} budget",
                replan.window,
                replan.bytes_moved,
                replan.budget_bytes
            );
        }
        // Aggregate churn is consistent with the per-event log.
        let added: u64 = report.replans.iter().map(|r| r.replicas_added).sum();
        let dropped: u64 = report.replans.iter().map(|r| r.replicas_dropped).sum();
        assert_eq!(added, report.migrations.replicas_added);
        assert_eq!(dropped, report.migrations.replicas_dropped);
    }

    #[test]
    fn replication_beats_owner_moves_only_at_equal_migration_budget() {
        // Locality of each window's top-1 paths under the plan live during
        // that window: a hop is local when `ReplicationPlan::serve` keeps
        // the token on the GPU it sits on.
        let budget = 8 * bytes_per_expert();
        let local_fraction = |replica_memory: u64| {
            let engine = online_engine(OnlineConfig {
                migration_budget_bytes: budget,
                replica_memory_bytes: replica_memory,
                ..adaptive_online()
            });
            let drift = DriftSchedule::piecewise(&engine.config().routing_spec, 2, 6);
            let (mut local, mut hops) = (0u64, 0u64);
            let mode = ParallelismMode::ContextCoherentAffinity;
            let end = drive(&engine, mode, &drift, |live, batches| {
                for batch in batches {
                    let trace = RoutingTrace::from_batch(batch, engine.config().model.n_experts);
                    let loc = live.trace_locality(&trace, &engine.config().cluster);
                    (local, hops) = (local + loc.local, hops + loc.transitions);
                }
            });
            (local as f64 / hops as f64, end.live.extra_copies_per_gpu())
        };
        let (owner_only, owner_copies) = local_fraction(0);
        let (joint, _) = local_fraction(8 * bytes_per_expert());
        assert_eq!(owner_copies, 0);
        assert!(
            joint > owner_only,
            "joint {joint} vs owner-only {owner_only}"
        );
    }

    #[test]
    fn trace_locality_counts_the_dispatches_that_stay_on_their_gpu() {
        // Context-coherent top-1 leaves a token where its expert ran, so
        // every same-GPU dispatch is either a layer-0 hop its home GPU
        // serves or a later hop the replica walk calls local.
        for (nodes, gpn) in [(1, 4), (2, 2), (2, 4)] {
            let engine = tiny_engine(nodes, gpn);
            let cluster = engine.config().cluster;
            let (w, e) = (cluster.world_size(), engine.config().model.n_experts);
            for mode in [
                ParallelismMode::ContextCoherent,
                ParallelismMode::ContextCoherentAffinity,
            ] {
                let base = engine.placement_for(mode).clone();
                let popular = ReplicationPlan::most_popular(engine.objective(), base.clone(), 3);
                let experts = popular
                    .replicas
                    .iter()
                    .map(|lr| lr.iter().map(|r| r.0).collect())
                    .collect();
                let policy = ReplicaPolicy::OnePerNode(cluster);
                let one_per_node = ReplicationPlan::with_policy(base.clone(), experts, &policy);
                for plan in [ReplicationPlan::bare(base), popular, one_per_node] {
                    let mut local = 0;
                    for batch in engine.offline_batches() {
                        let trace = RoutingTrace::from_batch(batch, e);
                        local += (0..trace.n_tokens())
                            .filter(|&t| plan.available_on(0, trace.expert_at(t, 0), t % w))
                            .count() as u64;
                        local += plan.trace_locality(&trace, &cluster).local;
                    }
                    let report = replicated(&engine, mode, &plan);
                    assert_eq!(
                        local,
                        report.dispatch.same_gpu,
                        "{nodes}x{gpn} {mode}, {} replicated entries",
                        plan.replicas.iter().map(Vec::len).sum::<usize>()
                    );
                }
            }
        }
    }

    #[test]
    fn cc_top2_replication_serves_secondaries_from_replicas() {
        // Context-coherent top-2 does not fall back to owner moves:
        // primaries stay pinned to the owner (the route-derivable
        // secondary-merge meeting point) while secondaries serve from
        // replica holders, so a replica budget buys real locality.
        let run = |replica_memory: u64| {
            let online = OnlineConfig {
                replica_memory_bytes: replica_memory,
                ..adaptive_online()
            };
            serve_drift(GateKind::Top2, online)
        };
        let owner_only = run(0);
        let with_budget = run(1 << 30);
        assert!(
            with_budget.migrations.replicas_added > 0,
            "a generous replica budget must buy at least one replica"
        );
        assert!(
            with_budget.dispatch.gpu_local_fraction() > owner_only.dispatch.gpu_local_fraction(),
            "replicas {} vs owner-only {}",
            with_budget.dispatch.gpu_local_fraction(),
            owner_only.dispatch.gpu_local_fraction()
        );
    }

    #[test]
    fn replan_events_report_consistent_solver_costs() {
        let engine = online_engine(adaptive_online());
        let report = trajectory(&engine, ParallelismMode::ContextCoherentAffinity, 6);
        assert!(report.migrations.replans > 0);
        for replan in &report.replans {
            let c = replan.solver_cost;
            // Every considered candidate was decided either by an exact
            // evaluation or by the attraction table alone.
            assert_eq!(c.considered, c.evaluated + c.reused);
            assert!(c.considered > 0);
        }
    }

    #[test]
    fn online_without_affinity_mode_never_migrates() {
        let engine = online_engine(adaptive_online());
        let report = trajectory(&engine, ParallelismMode::ContextCoherent, 4);
        assert_eq!(report.migrations.replans, 0);
        assert!(report.replans.is_empty());
        assert_eq!(report.migrations.bytes.total(), 0);
    }

    fn top2_engine(nodes: usize, gpn: usize) -> InferenceEngine {
        use exflow_model::GateKind;
        // More layers than the top-1 tests: top-2 context coherence pays an
        // extra secondary-return Alltoall per layer, so its AllGather
        // amortization needs the paper's deeper-model regime to win.
        let mut model = moe_gpt_m(8).with_gate(GateKind::Top2);
        model.n_layers = 12;
        InferenceEngine::builder(model, ClusterSpec::new(nodes, gpn).unwrap())
            .requests_per_gpu(16)
            .n_iterations(2)
            .prompt_len(16)
            .profile_tokens(1500)
            .seed(11)
            .build()
    }

    #[test]
    fn top2_doubles_dispatch_decisions() {
        let mut model = moe_gpt_m(8);
        model.n_layers = 12; // same depth as the top-2 engine
        let e1 = InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .requests_per_gpu(16)
            .n_iterations(2)
            .prompt_len(16)
            .profile_tokens(1500)
            .seed(11)
            .build();
        let e2 = top2_engine(2, 2);
        let r1 = offline(&e1, ParallelismMode::Vanilla);
        let r2 = offline(&e2, ParallelismMode::Vanilla);
        assert_eq!(r2.dispatch.total, 2 * r1.dispatch.total);
        // Generated-token count is unchanged — copies merge back.
        assert_eq!(r1.tokens_processed, r2.tokens_processed);
    }

    #[test]
    fn top2_increases_alltoall_traffic() {
        let e1 = tiny_engine(2, 2);
        let e2 = top2_engine(2, 2);
        for mode in [ParallelismMode::Vanilla, ParallelismMode::ContextCoherent] {
            let b1 = offline(&e1, mode).alltoall_bytes.cross_gpu();
            let b2 = offline(&e2, mode).alltoall_bytes.cross_gpu();
            assert!(
                b2 as f64 > 1.5 * b1 as f64,
                "{mode}: top-2 bytes {b2} vs top-1 {b1}"
            );
        }
    }

    #[test]
    fn top2_exflow_still_beats_vanilla() {
        let engine = top2_engine(2, 2);
        let vanilla = offline(&engine, ParallelismMode::Vanilla);
        let exflow = offline(&engine, ParallelismMode::ContextCoherentAffinity);
        assert!(
            exflow.throughput() > vanilla.throughput(),
            "top-2 exflow {} <= vanilla {}",
            exflow.throughput(),
            vanilla.throughput()
        );
    }

    #[test]
    fn every_mode_computes_the_same_token_outputs() {
        // The abstract's one Alltoall "to deliver the same functionality"
        // with no "accuracy degradation": whichever mode, placement or
        // replica set moved a token, its output is the same bits.
        for (nodes, gpn) in [(2, 2), (2, 4)] {
            for engine in [tiny_engine(nodes, gpn), top2_engine(nodes, gpn)] {
                let gate = engine.config().model.gate;
                let vanilla = offline(&engine, ParallelismMode::Vanilla).output_digest;
                assert_ne!(vanilla, FNV_OFFSET, "nothing was hashed");
                for mode in ParallelismMode::ALL {
                    let bare = offline(&engine, mode).output_digest;
                    assert_eq!(bare, vanilla, "{nodes}x{gpn} {gate:?} {mode}");
                    let base = engine.placement_for(mode).clone();
                    let plan = ReplicationPlan::most_popular(engine.objective(), base, 3);
                    assert!(plan.replicas.iter().any(|lr| !lr.is_empty()));
                    let rep = replicated(&engine, mode, &plan).output_digest;
                    assert_eq!(rep, vanilla, "{nodes}x{gpn} {gate:?} {mode} replicated");
                }
            }
        }
    }

    #[test]
    fn offline_runs_after_other_runs_equal_runs_on_a_fresh_engine() {
        // Every offline scenario of an engine runs window 0: whichever
        // ran before on the same engine, a mode's report — its output
        // digest included — is the one a freshly built engine gives.
        for build in [tiny_engine, top2_engine] {
            let engine = build(2, 2);
            assert!(
                engine.offline_batches.get().is_none(),
                "build() samples no window"
            );
            for mode in ParallelismMode::ALL {
                assert_eq!(
                    offline(&engine, mode),
                    offline(&build(2, 2), mode),
                    "{mode}"
                );
            }
            let window = engine
                .offline_batches
                .get()
                .expect("sampled by the first pass")
                .as_slice();
            assert!(
                std::ptr::eq(window, engine.offline_batches()),
                "sampled once"
            );
            let mode = ParallelismMode::ContextCoherentAffinity;
            let base = engine.placement_for(mode).clone();
            let plan = ReplicationPlan::most_popular(engine.objective(), base, 3);
            assert_eq!(
                replicated(&engine, mode, &plan),
                replicated(&build(2, 2), mode, &plan),
                "replicated after plain runs"
            );
            assert!(std::ptr::eq(window, engine.offline_batches()));
        }
    }

    /// The digest a correct run must report, spelled out from the
    /// offline window alone: per iteration, every token in id order, its
    /// word folded from `(seed, iter, id)`, then through each layer — the
    /// one expert of a top-1 route, or under top-2 each slot's expert
    /// folded into the token's word and the secondary's result folded
    /// into the primary's.
    fn reference_digest(engine: &InferenceEngine) -> u64 {
        let fold = |h: u64, x: u64| fnv1a(h, &x.to_le_bytes());
        let cfg = engine.config();
        let mut digest = FNV_OFFSET;
        for (iter, batch) in engine.offline_batches().iter().enumerate() {
            for id in 0..batch.len() {
                let mut word = fold(fold(fold(FNV_OFFSET, cfg.seed), iter as u64), id as u64);
                for layer in 0..cfg.model.n_layers {
                    let run = |expert: u16| fold(fold(word, layer as u64), u64::from(expert));
                    word = match *batch.route(id, layer) {
                        [expert] => run(expert),
                        [primary, secondary] => fold(run(primary), run(secondary)),
                        _ => unreachable!("top-1 or top-2"),
                    };
                }
                digest = fold(fold(fold(digest, iter as u64), id as u64), word);
            }
        }
        digest
    }

    #[test]
    fn the_digest_is_the_fold_of_every_tokens_route() {
        // Exact, where `every_mode_computes_the_same_token_outputs` only
        // compares modes: a token dropped, an expert run twice or the
        // wrong one, or merge slots swapped move every mode alike, and
        // the oracle sees it without a pinned constant.
        for (nodes, gpn) in [(1, 4), (2, 2)] {
            for engine in [tiny_engine(nodes, gpn), top2_engine(nodes, gpn)] {
                let want = reference_digest(&engine);
                let gate = engine.config().model.gate;
                for mode in ParallelismMode::ALL {
                    let base = engine.placement_for(mode).clone();
                    let plan = ReplicationPlan::most_popular(engine.objective(), base, 3);
                    assert!(plan.replicas.iter().any(|lr| !lr.is_empty()));
                    let bare = offline(&engine, mode).output_digest;
                    assert_eq!(bare, want, "{nodes}x{gpn} {gate:?} {mode}");
                    let rep = replicated(&engine, mode, &plan).output_digest;
                    assert_eq!(rep, want, "{nodes}x{gpn} {gate:?} {mode} replicated");
                }
            }
        }
    }

    #[test]
    fn output_digest_sees_the_seed_the_iterations_and_the_route() {
        // A digest that ignored its inputs would pass the test above.
        let mode = ParallelismMode::ContextCoherentAffinity;
        let engine = tiny_engine(2, 2);
        let reference = offline(&engine, mode).output_digest;
        assert_eq!(offline(&engine, mode).output_digest, reference);

        let mut cfg = engine.config().clone();
        cfg.seed += 1;
        let reseeded = InferenceEngine::from_config(cfg);
        assert_ne!(offline(&reseeded, mode).output_digest, reference);

        let mut cfg = engine.config().clone();
        cfg.n_iterations += 1;
        let longer = InferenceEngine::from_config(cfg);
        assert_ne!(offline(&longer, mode).output_digest, reference);

        // The same window but for one token's layer-0 expert.
        let plan = ReplicationPlan::bare(engine.placement_for(mode).clone());
        let window = engine.offline_batches();
        assert_eq!(
            engine.run_once(mode, &plan, window).output_digest,
            reference
        );
        let n_experts = engine.config().model.n_experts as u16;
        let mut batches = window.to_vec();
        batches[0].clear();
        for t in 0..window[0].len() {
            let mut route = window[0].token(t).to_vec();
            if t == 0 {
                route[0] = (route[0] + 1) % n_experts;
            }
            batches[0].push(&route, window[0].domain(t));
        }
        assert_ne!(
            engine.run_once(mode, &plan, &batches).output_digest,
            reference
        );
    }

    #[test]
    fn top2_runs_are_deterministic() {
        let engine = top2_engine(1, 4);
        let a = offline(&engine, ParallelismMode::ContextCoherentAffinity);
        let b = offline(&engine, ParallelismMode::ContextCoherentAffinity);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.dispatch, b.dispatch);
    }

    #[test]
    fn a_pass_sends_each_copy_once_per_hop() {
        // Per token and layer: top-1 Vanilla dispatches a copy and
        // combines it home, context-coherent top-1 only dispatches. Top-2
        // dispatches two copies; Vanilla combines both home, context
        // coherence sends only the secondary, to where its primary ran.
        // Every copy is one frame on one lane, a self-send included.
        for (nodes, gpn) in [(1, 4), (2, 2)] {
            for engine in [tiny_engine(nodes, gpn), top2_engine(nodes, gpn)] {
                let cfg = engine.config();
                let batches = engine.offline_batches();
                let tokens: usize = batches.iter().map(TokenBatch::len).sum();
                let frame = frame_size(cfg.model.token_bytes(), cfg.model.sim_dim);
                for mode in ParallelismMode::ALL {
                    let per_token = match (cfg.model.gate.k(), mode.context_coherent()) {
                        (1, false) => 2,
                        (1, true) => 1,
                        (_, false) => 4,
                        (_, true) => 3,
                    };
                    let plan = ReplicationPlan::bare(engine.placement_for(mode).clone());
                    let report = engine.run_once(mode, &plan, batches);
                    assert_eq!(
                        report.alltoall_bytes.total(),
                        (per_token * tokens * cfg.model.n_layers * frame) as u64,
                        "{nodes}x{gpn} {:?} {mode}",
                        cfg.model.gate
                    );
                }
            }
        }
    }

    /// The copies rank `me` runs at `layer` and the experts they touch,
    /// counted as `run_experts` once grouped them: `(expert, copy)`
    /// pairs sorted, one group per expert.
    fn grouped_by_sorting(
        batch: &TokenBatch,
        layer: usize,
        k: usize,
        copies: &[Spot],
        me: usize,
    ) -> (usize, usize) {
        let mut order: Vec<(u16, usize)> = (copies.iter().enumerate())
            .filter(|(_, copy)| copy.rank == me)
            .map(|(c, _)| (batch.route(c / k, layer)[c % k], c))
            .collect();
        order.sort_unstable();
        (order.len(), order.chunk_by(|a, b| a.0 == b.0).count())
    }

    /// Each rank's `expert_ffn` over a pass, replayed stage by stage with
    /// the pass's own methods and charged by [`grouped_by_sorting`]:
    /// before the expert stage, rank by rank, so the sums compare to the
    /// bit.
    fn sorted_grouping_charges(
        engine: &InferenceEngine,
        mode: ParallelismMode,
        plan: &ReplicationPlan,
    ) -> Vec<f64> {
        let cfg = engine.config();
        let batches = engine.offline_batches();
        let pass = Pass {
            cfg,
            mode,
            plan,
            live_ranks: engine.all_ranks(),
            batches,
            ctx_offset: 0,
        };
        let mut replay = Plane::new(cfg);
        replay
            .acc
            .resize_with(cfg.cluster.world_size(), RankResult::default);
        let mut charges = vec![0.0f64; replay.acc.len()];
        for (iter, batch) in batches.iter().enumerate() {
            pass.home_tokens(iter, batch, &mut replay);
            for layer in 0..cfg.model.n_layers {
                pass.route(batch, layer, &mut replay);
                exchange(&mut replay);
                for (me, charge) in charges.iter_mut().enumerate() {
                    let (rows, touched) =
                        grouped_by_sorting(batch, layer, cfg.model.gate.k(), &replay.copies, me);
                    *charge += cfg.compute.expert_time(&cfg.model, rows, touched, 1);
                }
                pass.run_experts(batch, layer, &mut replay);
                pass.combine(batch, layer, &mut replay);
            }
        }
        charges
    }
    #[test]
    fn a_pass_charges_the_expert_ffn_of_the_sorted_grouping() {
        for (nodes, gpn) in [(1, 4), (2, 2)] {
            for engine in [tiny_engine(nodes, gpn), top2_engine(nodes, gpn)] {
                let gate = engine.config().model.gate;
                for mode in ParallelismMode::ALL {
                    let base = engine.placement_for(mode).clone();
                    let popular =
                        ReplicationPlan::most_popular(engine.objective(), base.clone(), 3);
                    for plan in [ReplicationPlan::bare(base), popular] {
                        let mut plane = Plane::new(engine.config());
                        let batches = engine.offline_batches();
                        engine.run_pass(mode, &plan, batches, 0, engine.all_ranks(), &mut plane);
                        let got: Vec<u64> = (plane.acc.iter())
                            .map(|a| a.breakdown.expert_ffn.to_bits())
                            .collect();
                        let want: Vec<u64> = (sorted_grouping_charges(&engine, mode, &plan).iter())
                            .map(|c| c.to_bits())
                            .collect();
                        assert_eq!(got, want, "{nodes}x{gpn} {gate:?} {mode}");
                    }
                }
            }
        }
    }

    /// One plane priced over changing live ranks at one token count
    /// charges what a fresh plane does each time: a kept price never
    /// outlives the live ranks it was priced for.
    #[test]
    fn a_plane_reprices_the_prompt_when_the_live_ranks_change() {
        let engine = tiny_engine(2, 2);
        let cfg = engine.config();
        let mode = ParallelismMode::ContextCoherentAffinity;
        let plan = ReplicationPlan::bare(engine.placement_for(mode).clone());
        let batches = &engine.offline_batches()[..1];
        let price = |plane: &mut Plane, live_ranks: &[usize]| {
            let pass = Pass {
                cfg,
                mode,
                plan: &plan,
                live_ranks,
                batches,
                ctx_offset: 0,
            };
            plane.fleet.reset();
            plane.acc.clear();
            plane.acc.resize_with(4, RankResult::default);
            pass.gather_prompt_contexts(plane);
            plane.fleet.now(0).to_bits()
        };
        let mut kept = Plane::new(cfg);
        let mut seen = Vec::new();
        for live in [
            &[0, 1, 2, 3][..],
            &[0, 1, 3],
            &[1, 3],
            &[0, 1, 3],
            &[0, 1, 2, 3],
        ] {
            let fresh = price(&mut Plane::new(cfg), live);
            assert_eq!(price(&mut kept, live), fresh, "{live:?}");
            seen.push(fresh);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3, "each live set has its own price");
    }

    /// The dispatch rule as `route` applied it to every layer alike:
    /// a context-coherent top-2 primary to its owner (the meeting
    /// point), every other slot where `ReplicationPlan::serve` sends it,
    /// counted by `node_of` divisions. Returns every copy, each lane's
    /// copies and each rank's counters.
    fn route_by_serve(
        pass: &Pass,
        batch: &TokenBatch,
        layer: usize,
        tokens: &[Spot],
    ) -> (Vec<Spot>, Vec<u64>, Vec<DispatchStats>) {
        let cluster = &pass.cfg.cluster;
        let (w, k) = (cluster.world_size(), pass.cfg.model.gate.k());
        let is_live = |u: usize| pass.live_ranks.binary_search(&u).is_ok();
        let mut copies = Vec::new();
        let mut lanes = vec![0u64; w * w];
        let mut dispatch = vec![DispatchStats::default(); w];
        for (id, token) in tokens.iter().enumerate() {
            let me = token.rank;
            for (slot, &expert) in batch.route(id, layer).iter().enumerate() {
                let expert = expert as usize;
                let dst = if pass.mode.context_coherent() && k > 1 && slot == 0 {
                    pass.plan.base.unit_of(layer, expert)
                } else {
                    pass.plan.serve(cluster, me, layer, expert, is_live)
                };
                let stats = &mut dispatch[me];
                stats.total += 1;
                if dst == me {
                    stats.same_gpu += 1;
                    stats.same_node += 1;
                } else if cluster.node_of(Rank(dst)) == cluster.node_of(Rank(me)) {
                    stats.same_node += 1;
                }
                lanes[me * w + dst] += 1;
                copies.push(Spot {
                    rank: dst,
                    word: token.word,
                });
            }
        }
        (copies, lanes, dispatch)
    }

    /// `v` in an order `rng` draws.
    fn shuffled<T>(mut v: Vec<T>, rng: &mut StdRng) -> Vec<T> {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `route` against [`route_by_serve`] for every rank, live or
        /// dead, every layer and every expert in every slot: where each
        /// copy runs and the word it starts from, the copies on every
        /// lane (as bytes) and every rank's dispatch counters. Each plan
        /// mixes layers with copies and layers without, its owners and
        /// holders drawn at random; a quarter of the ranks are dead;
        /// every mode, top-1 and top-2 (the context-coherent primary
        /// included).
        #[test]
        fn route_dispatches_where_serve_does(
            (nodes, gpn) in prop_oneof![Just((1usize, 4usize)), Just((2, 2)), Just((2, 4)), Just((4, 2))],
            (k, mode) in (1usize..=2, 0usize..3),
            seed in 0u64..1_000_000,
        ) {
            let n_layers = 4;
            let cluster = ClusterSpec::new(nodes, gpn).unwrap();
            let w = cluster.world_size();
            let n_experts = 2 * w;
            let mut rng = StdRng::seed_from_u64(seed);
            let gate = if k == 1 { GateKind::Top1 } else { GateKind::Top2 };
            let mut model = moe_gpt_m(n_experts).with_gate(gate);
            model.n_layers = n_layers;
            let cfg = InferenceEngine::builder(model, cluster).cfg;

            let assign = (0..n_layers)
                .map(|_| shuffled((0..n_experts).map(|e| e % w).collect(), &mut rng))
                .collect();
            let base = Placement::new(assign, w);
            // Neither every layer nor none holds copies.
            let with_copies = rng.gen_range(1..(1u32 << n_layers) - 1);
            let replicas = (0..n_layers)
                .map(|layer| {
                    if with_copies >> layer & 1 == 0 {
                        return Vec::new();
                    }
                    let mut entries: LayerReplicas = (0..n_experts)
                        .filter_map(|expert| {
                            let owner = base.unit_of(layer, expert);
                            let units: Vec<usize> =
                                (0..w).filter(|&u| u != owner && rng.gen_range(0..3) == 0).collect();
                            (!units.is_empty()).then_some((expert, units))
                        })
                        .collect();
                    if entries.is_empty() {
                        let owner = base.unit_of(layer, 0);
                        entries.push((0, vec![(owner + 1) % w]));
                    }
                    entries
                })
                .collect();
            let plan = ReplicationPlan { base, replicas };
            let mut live: Vec<usize> = (0..w).filter(|_| rng.gen_range(0..4) > 0).collect();
            if live.is_empty() {
                live.push(rng.gen_range(0..w));
            }

            // Every rank holds `E` tokens; the `t`-th of them runs slot `s`
            // at `layer` on `perm[layer][(t + s) % E]`: every expert in
            // every slot from every rank, the two slots distinct.
            let perms: Vec<Vec<u16>> = (0..n_layers)
                .map(|_| shuffled((0..n_experts as u16).collect(), &mut rng))
                .collect();
            let mut batch = TokenBatch::empty(n_layers, k);
            let mut plane = Plane::new(&cfg);
            for id in 0..w * n_experts {
                let route: Vec<u16> = (0..n_layers)
                    .flat_map(|layer| (0..k).map(move |s| (layer, s)))
                    .map(|(layer, s)| perms[layer][(id % n_experts + s) % n_experts])
                    .collect();
                batch.push(&route, 0);
                plane.tokens.push(Spot { rank: id / n_experts, word: rng.gen() });
            }
            plane.copies.resize(batch.len() * k, Spot::default());

            let mode = ParallelismMode::ALL[mode];
            let pass = Pass { cfg: &cfg, mode, plan: &plan, live_ranks: &live, batches: &[], ctx_offset: 0 };
            for layer in 0..n_layers {
                plane.acc.clear();
                plane.acc.resize_with(w, RankResult::default);
                plane.lanes.fill(0);
                pass.route(&batch, layer, &mut plane);
                let (copies, lanes, dispatch) = route_by_serve(&pass, &batch, layer, &plane.tokens);
                let got: Vec<DispatchStats> = plane.acc.iter().map(|a| a.dispatch).collect();
                prop_assert_eq!(got, dispatch, "layer {} of {:?}", layer, plan.replicas);
                let bytes: Vec<u64> = lanes.iter().map(|&n| n * plane.frame as u64).collect();
                prop_assert_eq!(&plane.lanes, &bytes, "layer {} of {:?}", layer, plan.replicas);
                prop_assert_eq!(&plane.copies, &copies, "layer {} of {:?}", layer, plan.replicas);
            }
        }
    }
}
