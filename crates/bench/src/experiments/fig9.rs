//! Fig. 9 — share of step time per operator (gating, Alltoall, attention,
//! expert FFN) in vanilla expert parallelism as node count grows: the
//! motivation chart showing inference becoming Alltoall-bound.

use exflow_core::json::Json;
use exflow_core::ParallelismMode;
use exflow_model::presets::moe_gpt_m;

use crate::experiments::common::{engine_for, run_offline, Workload};
use crate::fmt::pct;
use crate::sweep::par_map;
use crate::table::{num, nums, render_section, text, Bars};

/// The operator columns.
const OPS: [&str; 4] = ["gating", "alltoall", "attention", "expert_ffn"];

/// Regenerate the sweep (vanilla mode, MoE-32), one cell per node count,
/// fanned across the installed sweep pool.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let model = w.cut(moe_gpt_m(32));
    Ok(par_map(w.gpus(&[4, 8, 16, 32]), |gpus| {
        let engine = engine_for(model.clone(), gpus, w);
        let b = run_offline(&engine, ParallelismMode::Vanilla).breakdown;
        let total = b.gating + b.alltoall + b.attention + b.expert_ffn;
        Json::obj(vec![
            // Number of 4-GPU nodes.
            ("nodes", (gpus / 4).into()),
            // Share of gating time.
            ("gating", (b.gating / total).into()),
            // Share of Alltoall time (the paper's annotation).
            ("alltoall", (b.alltoall / total).into()),
            // Share of attention time.
            ("attention", (b.attention / total).into()),
            // Share of expert FFN time.
            ("expert_ffn", (b.expert_ffn / total).into()),
        ])
    }))
}

/// The four shares sum to one and gating is negligible; one node is
/// compute-dominated, and the Alltoall share grows with every node added
/// (paper: 15 % at 1 node surging to 63 % at 2 nodes, 76 % at 8).
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for r in rows {
        let [gating, alltoall, attention, ffn] = nums(r, OPS);
        let sum = gating + alltoall + attention + ffn;
        bars.fail_if(r, (sum - 1.0).abs() >= 1e-9, format!("shares sum to {sum}"));
        let what = format!("gating share {gating} is not negligible");
        bars.fail_if(r, gating >= 0.05, what);
        let dominated = num(r, "nodes") == 1.0 && alltoall >= 0.5;
        let what = format!("alltoall share {alltoall} dominates one node");
        bars.fail_if(r, dominated, what);
    }
    for pair in rows.windows(2) {
        let (fewer, more) = (num(&pair[0], "alltoall"), num(&pair[1], "alltoall"));
        let what = format!("alltoall share {more} did not grow from {fewer}");
        bars.fail_if(&pair[1], more <= fewer, what);
    }
}

/// The series as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "Fig 9: operator share of step time (vanilla expert parallelism, MoE-32)",
        &[
            ("nodes", &|r| text(r, "nodes")),
            ("gating", &|r| pct(num(r, "gating"))),
            ("alltoall", &|r| pct(num(r, "alltoall"))),
            ("attention", &|r| pct(num(r, "attention"))),
            ("expert-ffn", &|r| pct(num(r, "expert_ffn"))),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    #[test]
    fn shares_sum_to_one() {
        let edit = [(0, "attention", 0.5.into())];
        assert_trips("fig9", &edit, "shares sum to");
    }

    #[test]
    fn alltoall_share_grows_with_nodes() {
        let edit = [(1, "alltoall", 0.01.into())];
        assert_trips("fig9", &edit, "did not grow");
    }

    #[test]
    fn single_node_is_compute_dominated() {
        let edit = [(0, "alltoall", 0.6.into())];
        assert_trips("fig9", &edit, "dominates one node");
    }

    #[test]
    fn gating_is_negligible() {
        let edit = [(0, "gating", 0.05.into())];
        assert_trips("fig9", &edit, "not negligible");
    }
}
