//! Fig. 10 — end-to-end inference throughput of the seven Table II model
//! variants across expert-parallel sizes, for the three systems
//! (DeepSpeed, ExFlow without affinity, full ExFlow). Normalized to the
//! DeepSpeed baseline per configuration, as the paper plots.

use exflow_core::json::Json;
use exflow_core::ParallelismMode;
use exflow_model::presets::{moe_gpt_m, moe_gpt_m_32e_32l, moe_gpt_m_32e_40l, moe_gpt_xl_16e};

use crate::experiments::common::{engine_for, run_offline, Workload};
use crate::fmt::speedup;
use crate::sweep::par_map;
use crate::table::{num, nums, render_section, text, Bars};

/// Regenerate the throughput sweep: one row per (model, GPU count) group,
/// the cells fanned across the installed sweep pool.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let scenarios: [(_, &[usize]); 7] = [
        (moe_gpt_m(8), &[4, 8]),
        (moe_gpt_m(16), &[4, 8, 16]),
        (moe_gpt_m(32), &[8, 16, 32]),
        (moe_gpt_m(64), &[8, 16, 32, 64]),
        (moe_gpt_m_32e_32l(), &[8, 16, 32]),
        (moe_gpt_m_32e_40l(), &[8, 16, 32]),
        (moe_gpt_xl_16e(), &[4, 8, 16]),
    ];
    Ok(par_map(w.cells(&scenarios), |(model, gpus)| {
        let name = model.name.clone();
        let engine = engine_for(model, gpus, w);
        let ds = run_offline(&engine, ParallelismMode::Vanilla).throughput();
        let cc = run_offline(&engine, ParallelismMode::ContextCoherent).throughput();
        let aff = run_offline(&engine, ParallelismMode::ContextCoherentAffinity).throughput();
        Json::obj(vec![
            // Model name.
            ("model", name.as_str().into()),
            // Expert-parallel GPU count.
            ("gpus", gpus.into()),
            // ExFlow without affinity, relative to DeepSpeed (= 1.0).
            ("exflow_no_affinity", (cc / ds).into()),
            // Full ExFlow, relative to DeepSpeed.
            ("exflow_affinity", (aff / ds).into()),
        ])
    }))
}

/// Full ExFlow beats DeepSpeed everywhere, affinity adds on top of context
/// coherence, and — paper: gains are small on 1 node (NVLink Alltoall is
/// cheap) and large once inter-node links dominate — a model gains more on
/// 8 GPUs than on 4.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for r in rows {
        let [cc, aff] = nums(r, ["exflow_no_affinity", "exflow_affinity"]);
        bars.fail_if(r, aff <= 1.0, format!("full ExFlow at {aff}x of DeepSpeed"));
        let what = format!("affinity {aff} below no-affinity {cc}");
        bars.fail_if(r, aff < cc - 0.02, what);
    }
    for pair in rows.windows(2) {
        let [single, multi] = pair else { continue };
        let same_model = single.get("model") == multi.get("model");
        if same_model && num(single, "gpus") == 4.0 && num(multi, "gpus") == 8.0 {
            let one = num(single, "exflow_affinity");
            let two = num(multi, "exflow_affinity");
            let what = format!("multi-node gain {two} should exceed single-node {one}");
            bars.fail_if(multi, two <= one, what);
        }
    }
}

/// The series as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "Fig 10: end-to-end inference throughput (DeepSpeed = 1.0)",
        &[
            ("model", &|r| text(r, "model")),
            ("gpus", &|r| text(r, "gpus")),
            ("deepspeed", &|_| speedup(1.0)),
            ("exflow-no-aff", &|r| speedup(num(r, "exflow_no_affinity"))),
            ("exflow-aff", &|r| speedup(num(r, "exflow_affinity"))),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    #[test]
    fn exflow_beats_deepspeed_everywhere() {
        let edit = [
            (0, "exflow_no_affinity", 0.99.into()),
            (0, "exflow_affinity", 1.0.into()),
        ];
        assert_trips("fig10", &edit, "of DeepSpeed");
    }

    #[test]
    fn affinity_adds_on_top_of_context_coherence() {
        let edit = [(0, "exflow_no_affinity", 9.0.into())];
        assert_trips("fig10", &edit, "below no-affinity");
    }

    #[test]
    fn multi_node_gains_exceed_intra_node_gains() {
        // Rows 0 and 1 are MoE-8 on 4 and on 8 GPUs.
        let edit = [(0, "exflow_affinity", 9.0.into())];
        assert_trips("fig10", &edit, "should exceed single-node");
    }
}
