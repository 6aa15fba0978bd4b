//! Fig. 8 — fraction of tokens whose next expert lives on their current
//! *node*, as the node count grows (MoE-64, 4 GPUs per node). The staged
//! placement prioritizes exactly this metric in stage 1.

use exflow_core::json::Json;
use exflow_core::ParallelismMode;
use exflow_model::presets::moe_gpt_m;

use crate::experiments::common::{engine_for, reduction, run_offline, Workload};
use crate::fmt::pct;
use crate::sweep::par_map;
use crate::table::{num, nums, render_section, text, Bars};

/// Regenerate the node sweep, one fixed-seed cell per node count, fanned
/// across the installed sweep pool.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let model = w.cut(moe_gpt_m(64));
    Ok(par_map(w.gpus(&[4, 8, 16, 32, 64]), |gpus| {
        let engine = engine_for(model.clone(), gpus, w);
        let base = run_offline(&engine, ParallelismMode::ContextCoherent);
        let aff = run_offline(&engine, ParallelismMode::ContextCoherentAffinity);
        let base_local = base.dispatch.node_local_fraction();
        let aff_local = aff.dispatch.node_local_fraction();
        Json::obj(vec![
            // Number of 4-GPU nodes.
            ("nodes", (gpus / 4).into()),
            // Tokens staying node-local under the DeepSpeed placement.
            ("deepspeed_local", base_local.into()),
            // Tokens staying node-local under the staged affinity
            // placement.
            ("affinity_local", aff_local.into()),
            // Relative reduction in inter-node token traffic.
            (
                "internode_reduction",
                reduction(base_local, aff_local).into(),
            ),
        ])
    }))
}

/// One node is fully node-local under both placements. Paper: "tokens are
/// on average 2x more likely to stay within the same node" — every
/// multi-node run must show a clear improvement.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for r in rows {
        let [nodes, ds, aff, cut] = nums(
            r,
            [
                "nodes",
                "deepspeed_local",
                "affinity_local",
                "internode_reduction",
            ],
        );
        if nodes == 1.0 {
            let all = (ds - 1.0).abs() < 1e-9 && (aff - 1.0).abs() < 1e-9;
            bars.fail_if(
                r,
                !all,
                format!("one node keeps {ds} / {aff} local, not all"),
            );
            continue;
        }
        let what = format!("affinity {aff} vs deepspeed {ds} (reduction {cut}): no clear gain");
        bars.fail_if(r, aff <= ds * 1.3 || cut <= 0.1, what);
    }
}

/// The series as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "Fig 8: tokens staying on the same node (MoE-64, 4 GPUs/node)",
        &[
            ("nodes", &|r| text(r, "nodes")),
            ("deepspeed-node-local", &|r| pct(num(r, "deepspeed_local"))),
            ("affinity-node-local", &|r| pct(num(r, "affinity_local"))),
            ("inter-node-reduction", &|r| {
                pct(num(r, "internode_reduction"))
            }),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    #[test]
    fn single_node_is_fully_node_local() {
        let edit = [(0, "affinity_local", 0.9.into())];
        assert_trips("fig8", &edit, "not all");
    }

    #[test]
    fn staged_affinity_keeps_tokens_on_node() {
        let edit = [
            (1, "deepspeed_local", 0.5.into()),
            (1, "affinity_local", 0.6.into()),
        ];
        assert_trips("fig8", &edit, "no clear gain");
    }
}
