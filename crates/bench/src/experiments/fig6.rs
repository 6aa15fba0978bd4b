//! Fig. 6 — collective-communication overhead of context-coherent expert
//! parallelism versus the baseline, across model variants and
//! expert-parallel sizes. Bars: baseline Alltoall, context-coherent
//! Alltoall, context-coherent AllGather (all scaled to the baseline).

use exflow_core::json::Json;
use exflow_core::ParallelismMode;
use exflow_model::presets::{moe_gpt_m, moe_gpt_m_32e_32l, moe_gpt_m_32e_40l};

use crate::experiments::common::{engine_for, run_offline, Workload};
use crate::fmt::f3;
use crate::sweep::par_map;
use crate::table::{num, nums, render_section, text, Bars};

/// Regenerate the figure's series: one row per (model, GPU count) bar
/// group, the cells fanned across the installed sweep pool.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let scenarios: [(_, &[usize]); 6] = [
        (moe_gpt_m(8), &[8]),
        (moe_gpt_m(16), &[8, 16]),
        (moe_gpt_m(32), &[16, 32]),
        (moe_gpt_m(64), &[32, 64]),
        (moe_gpt_m_32e_32l(), &[16, 32]),
        (moe_gpt_m_32e_40l(), &[16, 32]),
    ];
    Ok(par_map(w.cells(&scenarios), |(model, gpus)| {
        let name = model.name.clone();
        let engine = engine_for(model, gpus, w);
        let vanilla = run_offline(&engine, ParallelismMode::Vanilla);
        let cc = run_offline(&engine, ParallelismMode::ContextCoherent);
        let base = vanilla.breakdown.alltoall;
        Json::obj(vec![
            // Model name.
            ("model", name.as_str().into()),
            // Expert-parallel GPU count.
            ("gpus", gpus.into()),
            // Context-coherent Alltoall time relative to the baseline
            // (vanilla) Alltoall, which is 1.0 by construction.
            ("cc_alltoall", (cc.breakdown.alltoall / base).into()),
            // Context-coherent AllGather time relative to the baseline
            // Alltoall.
            ("cc_allgather", (cc.breakdown.allgather / base).into()),
        ])
    }))
}

/// The paper reports a > 50 % Alltoall reduction; every scenario must show
/// at least a meaningful cut, and the AllGather that context coherence
/// adds must not eat it.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for r in rows {
        let [a2a, gather] = nums(r, ["cc_alltoall", "cc_allgather"]);
        let total = a2a + gather;
        bars.fail_if(
            r,
            a2a >= 0.7,
            format!("cc alltoall {a2a} not reduced enough"),
        );
        bars.fail_if(
            r,
            total >= 1.0,
            format!("cc total {total} exceeds the baseline"),
        );
    }
}

/// The series as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "Fig 6: scaled communication latency (baseline Alltoall = 1.0)",
        &[
            ("model", &|r| text(r, "model")),
            ("gpus", &|r| text(r, "gpus")),
            ("baseline-a2a", &|_| f3(1.0)),
            ("cc-a2a", &|r| f3(num(r, "cc_alltoall"))),
            ("cc-allgather", &|r| f3(num(r, "cc_allgather"))),
            ("cc-total", &|r| {
                f3(num(r, "cc_alltoall") + num(r, "cc_allgather"))
            }),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    #[test]
    fn context_coherence_halves_alltoall() {
        let edit = [(0, "cc_alltoall", 0.7.into())];
        assert_trips("fig6", &edit, "not reduced enough");
    }

    #[test]
    fn total_cc_communication_still_wins() {
        let edit = [(0, "cc_allgather", 0.9.into())];
        assert_trips("fig6", &edit, "exceeds the baseline");
    }
}
