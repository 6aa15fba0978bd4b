//! Table III — consistency of expert affinity on out-of-distribution
//! corpora: profile the placement on the Pile proxy, serve C4/Dolma/Yelp
//! proxies, and compare the locality achieved against a placement profiled
//! on the serving corpus itself (row-normalized, 1.0 = perfect transfer).

use exflow_core::json::Json;
use exflow_core::{InferenceEngine, ParallelismMode, ReplicationPlan, Scenario};
use exflow_model::presets::moe_gpt_m;
use exflow_model::CorpusSpec;
use exflow_topology::ClusterSpec;

use crate::experiments::common::{run_offline, Workload};
use crate::fmt::{f3, render_table};
use crate::sweep::par_map;
use crate::table::{num, nums, text, Bars};

fn engine_with_corpus(corpus: CorpusSpec) -> InferenceEngine {
    let mut model = moe_gpt_m(32);
    model.n_layers = 12;
    InferenceEngine::builder(model, ClusterSpec::new(2, 4).unwrap())
        .requests_per_gpu(8)
        .prompt_len(8)
        .n_iterations(6)
        .profile_tokens(4000)
        .placement_restarts(1)
        .seed(20_240_402)
        .corpus(corpus)
        .build()
}

/// Regenerate Table III on a GPT-350M MoE-32 proxy over 2 nodes x 4 GPUs:
/// one row per serving corpus, fanned across the installed sweep pool.
pub fn sweep(_: &Workload) -> Result<Vec<Json>, String> {
    let n_domains = 4;
    let pile_engine = engine_with_corpus(CorpusSpec::pile_proxy(n_domains));
    let mode = ParallelismMode::ContextCoherentAffinity;
    let pile = ReplicationPlan::bare(pile_engine.placement_for(mode).clone());
    let pile = Scenario::offline(mode).with_replication(pile);

    Ok(par_map(CorpusSpec::table3(n_domains), |corpus| {
        let name = corpus.name.clone();
        // Engine serving this corpus, but *placed* from the Pile.
        let engine = engine_with_corpus(corpus);
        let transferred = engine.run_scenario(&pile).expect_offline();
        // Reference: the corpus profiled on itself.
        let self_profiled = run_offline(&engine, mode);
        let (moved, own) = (transferred.dispatch, self_profiled.dispatch);
        Json::obj(vec![
            // Serving corpus name.
            ("corpus", name.as_str().into()),
            // Intra-GPU locality with the Pile-profiled placement,
            // normalized by the self-profiled locality.
            (
                "intra_gpu",
                (moved.gpu_local_fraction() / own.gpu_local_fraction()).into(),
            ),
            // Intra-node locality, equally normalized.
            (
                "intra_node",
                (moved.node_local_fraction() / own.node_local_fraction()).into(),
            ),
        ])
    }))
}

/// The Pile itself is the identity comparison; the out-of-distribution
/// corpora retain nearly all the locality (paper: 0.989–1.005).
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for (i, r) in rows.iter().enumerate() {
        let [gpu, node] = nums(r, ["intra_gpu", "intra_node"]);
        let what = format!("self-transfer {gpu} is not the identity");
        bars.fail_if(r, i == 0 && (gpu - 1.0).abs() >= 1e-9, what);
        let what = format!("transfer too low: intra-GPU {gpu}, intra-node {node}");
        bars.fail_if(r, gpu <= 0.9 || node <= 0.9, what);
    }
}

/// The table in the paper's layout: one column per corpus.
pub fn render(rows: &[Json]) -> String {
    let corpora: Vec<String> = rows.iter().map(|r| text(r, "corpus")).collect();
    let headers: Vec<&str> = std::iter::once("metric")
        .chain(corpora.iter().map(String::as_str))
        .collect();
    let line = |label: &str, field: &str| -> Vec<String> {
        let cells = rows.iter().map(|r| f3(num(r, field)));
        std::iter::once(label.to_string()).chain(cells).collect()
    };
    let body = [
        line("Intra-GPU", "intra_gpu"),
        line("Intra-Node", "intra_node"),
    ];
    format!(
        "Table III: affinity transfer to out-of-distribution corpora\n\
         (locality with Pile-profiled placement / self-profiled, 1.0 = perfect)\n\n\
         {}\n",
        render_table(&headers, &body)
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::{assert_trips, rows};

    #[test]
    fn affinity_transfers_across_corpora() {
        assert_eq!(rows("table3").len(), 4);
        let edit = [(0, "intra_gpu", 0.95.into())];
        assert_trips("table3", &edit, "is not the identity");
        let edit = [(1, "intra_node", 0.9.into())];
        assert_trips("table3", &edit, "transfer too low");
    }
}
