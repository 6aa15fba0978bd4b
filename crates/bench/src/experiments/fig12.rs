//! Fig. 12 — scaled expert affinity across training: solve the placement
//! objective on checkpoints simulated at increasing training iterations
//! and plot the achievable locality, normalized per model (the paper's
//! "scaled expert affinity").

use exflow_affinity::RoutingTrace;
use exflow_core::json::Json;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{CorpusSpec, TokenBatch, TrainingSimulator};
use exflow_placement::{solve, Objective, SolverKind};

use crate::experiments::common::{snapshot_of, Workload};
use crate::fmt::f3;
use crate::sweep::par_map;
use crate::table::{num, render_section, series, text, Bars};

/// The two phases: `(label, title, checkpoint iterations)`.
const PHASES: [(&str, &str, &[u64]); 2] = [
    (
        "a",
        "Fig 12a (iterations 0-2000)",
        &[0, 200, 400, 600, 800, 1000, 2000],
    ),
    (
        "b",
        "Fig 12b (2000-18000)",
        &[
            2000, 4000, 6000, 8000, 10_000, 12_000, 14_000, 16_000, 18_000,
        ],
    ),
];

/// Raw affinity of the checkpoint at `iteration`.
fn measure(sim: &TrainingSimulator, iteration: u64, n_units: usize) -> f64 {
    let model = sim.model_at(iteration);
    let corpus = CorpusSpec::pile_proxy(model.n_domains());
    let batch = TokenBatch::sample(&model, &corpus, 4000, 1, 1000 + iteration);
    let trace = RoutingTrace::from_batch(&batch, model.n_experts());
    let objective = Objective::from_snapshot(&snapshot_of(&trace));
    let placement = solve(&objective, n_units, SolverKind::Greedy, iteration);
    objective.local_fraction(&placement)
}

/// Regenerate both phases, one series per (phase, expert count), the
/// series fanned across the installed sweep pool.
pub fn sweep(_: &Workload) -> Result<Vec<Json>, String> {
    let series = PHASES.iter().flat_map(|&(phase, _, iters)| {
        let expert_counts = [8usize, 16, 32, 64].into_iter();
        expert_counts.map(move |e| (phase, iters, e))
    });
    let rows = par_map(series.collect(), |(phase, iters, e)| {
        let sim = TrainingSimulator::new(AffinityModelSpec::new(8, e));
        let n_units = (e / 2).clamp(2, 4);
        let raw: Vec<f64> = iters.iter().map(|&it| measure(&sim, it, n_units)).collect();
        let max = raw.iter().copied().fold(f64::MIN, f64::max);
        let points = iters.iter().zip(raw);
        let rows = points.map(|(&it, affinity)| {
            Json::obj(vec![
                // `a` = iterations 0–2000 (Fig. 12a), `b` = 2000–18000.
                ("phase", phase.into()),
                // Experts per layer.
                ("experts", e.into()),
                // Training iteration of the simulated checkpoint.
                ("iteration", it.into()),
                // Locality achievable by the solved placement (raw).
                ("affinity", affinity.into()),
                // Affinity scaled to the series maximum.
                ("scaled", (affinity / max).into()),
            ])
        });
        rows.collect::<Vec<Json>>()
    });
    Ok(rows.into_iter().flatten().collect())
}

/// Every series peaks at a scaled 1.0. Fig. 12a: iteration-0 checkpoints
/// route through few experts, so measured affinity starts high before the
/// rebalancing dip. Fig. 12b: "as the training proceeds, expert affinity
/// steadily increases."
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for series in series(rows, &["phase", "experts"]) {
        let (first, last) = (&series[0], &series[series.len() - 1]);
        let peak = series.iter().map(|r| num(r, "scaled"));
        let peak = peak.fold(f64::MIN, f64::max);
        let what = format!("scaled series peaks at {peak}, not 1");
        bars.fail_if(first, (peak - 1.0).abs() >= 1e-9, what);
        let start = num(first, "affinity");
        if first.get("phase").and_then(Json::as_str) == Some("a") {
            let mid = num(&series[series.len() / 2], "affinity");
            let what = format!("iteration-0 affinity {start} should exceed mid-training {mid}");
            bars.fail_if(first, start <= mid, what);
        } else {
            let end = num(last, "affinity");
            bars.fail_if(
                last,
                end <= start,
                format!("affinity fell from {start} to {end}"),
            );
        }
    }
}

/// Both phases as the printed tables.
pub fn render(rows: &[Json]) -> String {
    let phases = series(rows, &["phase"])
        .zip(PHASES)
        .map(|(rows, (_, title, _))| {
            render_section(
                &format!("{title}: scaled expert affinity during training"),
                &[
                    ("experts", &|r| text(r, "experts")),
                    ("iteration", &|r| text(r, "iteration")),
                    ("affinity", &|r| f3(num(r, "affinity"))),
                    ("scaled", &|r| f3(num(r, "scaled"))),
                ],
                rows,
            )
        });
    phases.collect()
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    /// The first row of Fig. 12b: after the 4 expert counts x 7
    /// checkpoints of Fig. 12a.
    const LATE: usize = 28;

    #[test]
    fn late_training_affinity_increases() {
        let edit = [(LATE, "affinity", 0.99.into())];
        assert_trips("fig12", &edit, "affinity fell from 0.99");
    }

    #[test]
    fn early_training_shows_initial_high_affinity() {
        let edit = [(0, "affinity", 0.0.into())];
        assert_trips("fig12", &edit, "should exceed mid-training");
    }

    #[test]
    fn scaled_values_peak_at_one() {
        let edit = [(0, "scaled", 1.5.into())];
        assert_trips("fig12", &edit, "peaks at 1.5");
    }
}
