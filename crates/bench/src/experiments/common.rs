//! Shared workload construction for the experiment modules.

use exflow_core::{InferenceEngine, InferenceReport, ParallelismMode, Scenario};
use exflow_model::ModelConfig;
use exflow_topology::ClusterSpec;

/// The size of a paper sweep that builds engines: how large a cluster and
/// how deep a model it visits, and the offline batch [`engine_for`] runs.
/// Non-test code holds exactly one value, [`PAPER`]; a sweep's grids and
/// model presets are the paper's, written once in its module.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Largest cluster a sweep visits; grid points above it are skipped.
    pub max_gpus: usize,
    /// Deepest model a sweep builds; deeper presets are cut to this many
    /// MoE layers.
    pub max_layers: usize,
    /// Requests per GPU. Moderately large so the dispatch Alltoall is
    /// bandwidth- rather than straggler-dominated, matching the paper's
    /// batched serving scenario.
    pub requests_per_gpu: usize,
    /// Prompt tokens per request.
    pub prompt_len: usize,
    /// Generation iterations per run.
    pub n_iterations: usize,
    /// Tokens of the profiling trace placements are solved from.
    pub profile_tokens: usize,
    /// Local-search restarts of the placement solve.
    pub placement_restarts: usize,
}

/// The paper's evaluation: up to 64 GPUs, every preset at its own depth.
/// The size every `repro` artifact and every gated row runs at.
pub const PAPER: Workload = Workload {
    max_gpus: 64,
    max_layers: usize::MAX,
    requests_per_gpu: 48,
    prompt_len: 32,
    n_iterations: 6,
    profile_tokens: 3000,
    placement_restarts: 1,
};

impl Workload {
    /// `model`, no deeper than this workload builds (the expert count that
    /// drives the experiments is kept).
    pub fn cut(&self, mut model: ModelConfig) -> ModelConfig {
        model.n_layers = model.n_layers.min(self.max_layers);
        model
    }

    /// The cluster sizes of `grid` this workload visits.
    pub fn gpus(&self, grid: &[usize]) -> Vec<usize> {
        let visited = grid.iter().filter(|&&gpus| gpus <= self.max_gpus);
        visited.copied().collect()
    }

    /// The `(model, GPU count)` cells of a model x cluster-size sweep:
    /// each scenario's model [`cut`](Self::cut), on each size of its grid
    /// this workload visits.
    pub fn cells(&self, scenarios: &[(ModelConfig, &[usize])]) -> Vec<(ModelConfig, usize)> {
        let cells = scenarios.iter().flat_map(|(model, grid)| {
            let model = self.cut(model.clone());
            let visited = self.gpus(grid).into_iter();
            visited.map(move |gpus| (model.clone(), gpus))
        });
        cells.collect()
    }
}

/// Run the bare offline benchmark in `mode` through the [`Scenario`]
/// front door — the one-liner every figure/table experiment uses.
pub fn run_offline(engine: &InferenceEngine, mode: ParallelismMode) -> InferenceReport {
    engine
        .run_scenario(&Scenario::offline(mode))
        .expect_offline()
}

/// The cluster shape the paper evaluates on: 4 GPUs per node, so `gpus`
/// GPUs means `gpus / 4` nodes (or a partial single node below 4).
pub fn cluster_for(gpus: usize) -> ClusterSpec {
    if gpus < 4 {
        ClusterSpec::single_node(gpus).expect("gpus >= 1")
    } else {
        assert!(
            gpus.is_multiple_of(4),
            "multi-node shapes must fill 4-GPU nodes"
        );
        ClusterSpec::wilkes3(gpus / 4).expect("nodes >= 1")
    }
}

/// The relative cut in cross traffic a placement buys over the baseline's
/// local fraction: `1 - (1 - local) / (1 - base_local)`, or 0 when the
/// baseline already kept everything local.
pub fn reduction(base_local: f64, local: f64) -> f64 {
    let base_cross = 1.0 - base_local;
    if base_cross == 0.0 {
        return 0.0;
    }
    1.0 - (1.0 - local) / base_cross
}

/// Build an engine for `model` on `gpus` GPUs running `w`'s batch.
pub fn engine_for(model: ModelConfig, gpus: usize, w: &Workload) -> InferenceEngine {
    InferenceEngine::builder(model, cluster_for(gpus))
        .requests_per_gpu(w.requests_per_gpu)
        .prompt_len(w.prompt_len)
        .n_iterations(w.n_iterations)
        .profile_tokens(w.profile_tokens)
        .placement_restarts(w.placement_restarts)
        .seed(20_240_401)
        .build()
}

/// What tier-1's debug-profile tests sweep instead: the paper-sized
/// `fig10` alone takes minutes unoptimised, this takes about a second.
#[cfg(test)]
pub const FIXTURE: Workload = Workload {
    max_gpus: 8,
    max_layers: 6,
    requests_per_gpu: 16,
    prompt_len: 8,
    n_iterations: 2,
    profile_tokens: 1200,
    placement_restarts: 0,
};

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::presets::moe_gpt_m;

    #[test]
    fn cluster_shapes_follow_wilkes3() {
        assert_eq!(cluster_for(2).n_nodes(), 1);
        assert_eq!(cluster_for(4).n_nodes(), 1);
        assert_eq!(cluster_for(16).n_nodes(), 4);
        assert_eq!(cluster_for(16).gpus_per_node(), 4);
    }

    #[test]
    #[should_panic(expected = "4-GPU nodes")]
    fn partial_nodes_rejected() {
        let _ = cluster_for(6);
    }

    #[test]
    fn the_fixture_only_cuts_and_the_paper_cuts_nothing() {
        let engine = engine_for(FIXTURE.cut(moe_gpt_m(8)), 4, &FIXTURE);
        assert_eq!(engine.config().cluster.world_size(), 4);
        assert_eq!(engine.config().model.n_layers, FIXTURE.max_layers);
        assert_eq!(FIXTURE.gpus(&[1, 4, 8, 16, 64]), [1, 4, 8]);
        assert_eq!(PAPER.cut(moe_gpt_m(8)).n_layers, moe_gpt_m(8).n_layers);
        assert_eq!(PAPER.gpus(&[1, 4, 8, 16, 64]), [1, 4, 8, 16, 64]);
    }
}
