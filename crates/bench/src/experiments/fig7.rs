//! Fig. 7 — fraction of tokens whose next expert lives on their current
//! GPU, as the expert-parallel group grows (MoE-64). Bars: DeepSpeed
//! placement vs. affinity placement; line: reduction in cross-GPU traffic.

use exflow_core::json::Json;
use exflow_core::ParallelismMode;
use exflow_model::presets::moe_gpt_m;

use crate::experiments::common::{engine_for, reduction, run_offline, Workload};
use crate::fmt::pct;
use crate::sweep::par_map;
use crate::table::{num, nums, render_section, text, Bars};

/// Regenerate the sweep over expert-parallel sizes. GPU-count points are
/// independent fixed-seed runs, so they fan across the installed sweep
/// pool (`repro --jobs N`); output order and values are N-invariant.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let model = w.cut(moe_gpt_m(64));
    Ok(par_map(w.gpus(&[1, 4, 8, 16, 32, 64]), |gpus| {
        let engine = engine_for(model.clone(), gpus, w);
        let base = run_offline(&engine, ParallelismMode::ContextCoherent);
        let aff = run_offline(&engine, ParallelismMode::ContextCoherentAffinity);
        let base_local = base.dispatch.gpu_local_fraction();
        let aff_local = aff.dispatch.gpu_local_fraction();
        Json::obj(vec![
            // Expert-parallel GPU count.
            ("gpus", gpus.into()),
            // Tokens staying GPU-local under the DeepSpeed placement.
            ("deepspeed_local", base_local.into()),
            // Tokens staying GPU-local under the affinity placement.
            ("affinity_local", aff_local.into()),
            // Relative reduction in cross-GPU token traffic.
            ("comm_reduction", reduction(base_local, aff_local).into()),
        ])
    }))
}

/// Affinity placement never keeps fewer tokens local than DeepSpeed's; one
/// GPU keeps everything local; on more, the affinity-free locality is the
/// uniform `1 / G` and affinity cuts the cross-GPU traffic by over 10 %.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for r in rows {
        let [gpus, ds, aff, cut] = nums(
            r,
            [
                "gpus",
                "deepspeed_local",
                "affinity_local",
                "comm_reduction",
            ],
        );
        bars.fail_if(
            r,
            aff < ds - 1e-9,
            format!("affinity {aff} below deepspeed {ds}"),
        );
        if gpus == 1.0 {
            let all = (ds - 1.0).abs() < 1e-9;
            bars.fail_if(r, !all, format!("one GPU keeps {ds} local, not everything"));
            continue;
        }
        let uniform = (ds - 1.0 / gpus).abs() < 0.1;
        bars.fail_if(
            r,
            !uniform,
            format!("locality {ds} far from the uniform 1/G"),
        );
        bars.fail_if(
            r,
            cut <= 0.1,
            format!("cross-GPU reduction {cut} too small"),
        );
    }
}

/// The series as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "Fig 7: tokens staying on the same GPU (MoE-64)",
        &[
            ("gpus", &|r| text(r, "gpus")),
            ("deepspeed-local", &|r| pct(num(r, "deepspeed_local"))),
            ("affinity-local", &|r| pct(num(r, "affinity_local"))),
            ("xGPU-comm-reduction", &|r| pct(num(r, "comm_reduction"))),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    #[test]
    fn affinity_always_at_least_matches_deepspeed() {
        let edit = [(1, "affinity_local", 0.1.into())];
        assert_trips("fig7", &edit, "below deepspeed");
    }

    #[test]
    fn single_gpu_keeps_everything_local() {
        let edit = [(0, "deepspeed_local", 0.9.into())];
        assert_trips("fig7", &edit, "not everything");
    }

    #[test]
    fn deepspeed_locality_tracks_inverse_gpu_count() {
        let edit = [
            (1, "deepspeed_local", 0.5.into()),
            (1, "affinity_local", 0.6.into()),
        ];
        assert_trips("fig7", &edit, "far from the uniform 1/G");
    }

    #[test]
    fn affinity_reduces_cross_gpu_traffic_multi_gpu() {
        let edit = [(1, "comm_reduction", 0.1.into())];
        assert_trips("fig7", &edit, "reduction 0.1 too small");
    }
}
