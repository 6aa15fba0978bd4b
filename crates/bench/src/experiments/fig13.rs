//! Fig. 13 — how many profiled tokens are needed to capture expert
//! affinity: placements are solved from truncated profiling traces and the
//! resulting Alltoall speedup (vs. the affinity-free placement) is
//! measured end to end.

use exflow_core::json::Json;
use exflow_core::{InferenceEngine, ParallelismMode, ReplicationPlan, Scenario};
use exflow_model::presets::moe_gpt_m;
use exflow_placement::staged::solve_staged;
use exflow_placement::Objective;

use crate::experiments::common::{cluster_for, run_offline, snapshot_of, Workload};
use crate::fmt::speedup;
use crate::sweep::par_map;
use crate::table::{num, render_section, series, text, Bars};

/// Profiling-token budgets swept per model; the engine profiles the
/// largest so the trace can be truncated to the others.
const SIZES: [usize; 6] = [50, 1000, 2000, 3000, 4000, 5000];

/// Regenerate the sampling sweep on 8 GPUs (2 nodes), one series per
/// expert count, fanned across the installed sweep pool.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let series = par_map(vec![8usize, 16, 32, 64], |e| {
        let engine = InferenceEngine::builder(w.cut(moe_gpt_m(e)), cluster_for(8))
            .requests_per_gpu(8)
            .prompt_len(8)
            .n_iterations(2)
            .profile_tokens(SIZES[SIZES.len() - 1])
            .placement_restarts(0)
            .seed(20_240_403)
            .build();
        let baseline = run_offline(&engine, ParallelismMode::ContextCoherent);
        let base_a2a = baseline.breakdown.alltoall;

        let rows = SIZES.iter().map(|&n| {
            let trace = engine.profile_trace().truncated(n);
            let objective = Objective::from_snapshot(&snapshot_of(&trace));
            let (cluster, seed) = (&engine.config().cluster, engine.config().seed);
            let staged = solve_staged(&objective, cluster, 0, seed);
            let placed = Scenario::offline(ParallelismMode::ContextCoherentAffinity)
                .with_replication(ReplicationPlan::bare(staged.gpu_level));
            let report = engine.run_scenario(&placed).expect_offline();
            Json::obj(vec![
                // Experts per layer.
                ("experts", e.into()),
                // Profiling tokens used to solve the placement.
                ("tokens", n.into()),
                // Alltoall time speedup relative to the affinity-free
                // placement.
                (
                    "alltoall_speedup",
                    (base_a2a / report.breakdown.alltoall).into(),
                ),
            ])
        });
        rows.collect::<Vec<Json>>()
    });
    Ok(series.into_iter().flatten().collect())
}

/// Per model, the speedup curve saturates: the largest sample is at least
/// about as good as the smallest (the tolerance is relative because a
/// 50-token profile is noise-dominated and can get lucky), and the best
/// sample's speedup is real.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for series in series(rows, &["experts"]) {
        let (first, last) = (&series[0], &series[series.len() - 1]);
        let small = num(first, "alltoall_speedup");
        let large = num(last, "alltoall_speedup");
        let what = format!("speedup degraded from {small} to {large}");
        bars.fail_if(last, large < 0.85 * small, what);
        let best = series.iter().map(|r| num(r, "alltoall_speedup"));
        let best = best.fold(f64::MIN, f64::max);
        let what = format!("best alltoall speedup {best} is negligible");
        bars.fail_if(first, best <= 1.05, what);
    }
}

/// The series as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "Fig 13: Alltoall speedup vs profiling-token budget (8 GPUs)",
        &[
            ("experts", &|r| text(r, "experts")),
            ("profile-tokens", &|r| text(r, "tokens")),
            ("alltoall-speedup", &|r| speedup(num(r, "alltoall_speedup"))),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::SIZES;
    use crate::table::fixture::assert_trips;

    #[test]
    fn more_tokens_never_hurt_much() {
        let edit = [(SIZES.len() - 1, "alltoall_speedup", 0.5.into())];
        assert_trips("fig13", &edit, "speedup degraded");
    }

    #[test]
    fn saturated_speedup_is_real() {
        let flat = |row| (row, "alltoall_speedup", 1.0.into());
        let edit: Vec<_> = (0..SIZES.len()).map(flat).collect();
        assert_trips("fig13", &edit, "is negligible");
    }
}
