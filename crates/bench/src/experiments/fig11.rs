//! Fig. 11 — per-expert share of routed tokens at the last MoE layer over
//! the first 2000 training iterations: training starts collapsed onto a
//! few experts and rebalances under the GShard loss.

use exflow_core::json::Json;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::TrainingSimulator;

use crate::experiments::common::Workload;
use crate::fmt::pct;
use crate::table::{num, nums, render_section, series, text, Bars};

/// Regenerate the early-training sweep for the 8/16/32/64-expert models.
pub fn sweep(_: &Workload) -> Result<Vec<Json>, String> {
    let iters = [0u64, 100, 200, 300, 400, 500, 750, 1000, 1500, 2000];
    let mut rows = Vec::new();
    for e in [8usize, 16, 32, 64] {
        let sim = TrainingSimulator::new(AffinityModelSpec::new(12, e));
        for it in iters {
            let shares = sim.expert_share_at(it);
            let max_share = shares.iter().copied().fold(0.0f64, f64::max);
            rows.push(Json::obj(vec![
                // Experts per layer.
                ("experts", e.into()),
                // Training iteration.
                ("iteration", it.into()),
                // Largest single expert's token share.
                ("max_share", max_share.into()),
                // Number of experts receiving any tokens.
                (
                    "active_experts",
                    shares.iter().filter(|&&s| s > 0.0).count().into(),
                ),
            ]));
        }
    }
    Ok(rows)
}

/// Each model's series starts dominated by a few experts (iteration 0),
/// never loses an active expert, and ends balanced with every expert
/// active (iteration 2000).
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for series in series(rows, &["experts"]) {
        let (first, last) = (&series[0], &series[series.len() - 1]);
        let [e, initial] = nums(first, ["experts", "max_share"]);
        let what = format!("initial share {initial} is not skewed");
        bars.fail_if(first, initial <= 2.0 / e, what);
        let [balanced, active] = nums(last, ["max_share", "active_experts"]);
        let unbalanced = (balanced - 1.0 / e).abs() >= 1e-9 || active != e;
        let what = format!("final share {balanced} over {active} experts is not balanced");
        bars.fail_if(last, unbalanced, what);
        for pair in series.windows(2) {
            let before = num(&pair[0], "active_experts");
            let after = num(&pair[1], "active_experts");
            let what = format!("active experts fell {before} -> {after}");
            bars.fail_if(&pair[1], after < before, what);
        }
    }
}

/// The series as the printed table.
pub fn render(rows: &[Json]) -> String {
    render_section(
        "Fig 11: expert token share at the last MoE layer during early training",
        &[
            ("experts", &|r| text(r, "experts")),
            ("iteration", &|r| text(r, "iteration")),
            ("max-share", &|r| pct(num(r, "max_share"))),
            ("active", &|r| text(r, "active_experts")),
            ("balanced-share", &|r| pct(1.0 / num(r, "experts"))),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    #[test]
    fn training_starts_collapsed_and_rebalances() {
        let edit = [(0, "max_share", 0.125.into())];
        assert_trips("fig11", &edit, "is not skewed");
        let edit = [(9, "max_share", 0.5.into())];
        assert_trips("fig11", &edit, "is not balanced");
    }

    #[test]
    fn active_count_is_monotone_in_iteration() {
        let edit = [(1, "active_experts", 0u64.into())];
        assert_trips("fig11", &edit, "active experts fell");
    }
}
