//! Table II — the model zoo used across the evaluation. The list itself
//! is static, so `table2` is a plain printer; `table_solvers` solves a
//! profiled instance of every zoo model with every solver of the
//! portfolio.

use exflow_core::json::Json;
use exflow_model::presets::table2;
use exflow_placement::annealing::AnnealParams;
use exflow_placement::{solve_with, Objective, Parallelism, SolverKind};

use crate::experiments::common::{profile, Workload};
use crate::fmt::render_table;
use crate::sweep::par_map;

/// GPUs each Table II instance is solved for (divides every Table II
/// expert count).
const N_UNITS: usize = 4;

/// Print the model list with derived parameter counts.
pub fn print() {
    println!("Table II: GPT MoE model zoo\n");
    let rows: Vec<Vec<String>> = table2()
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                format!("{}M", m.base_params / 1_000_000),
                m.n_experts.to_string(),
                m.n_layers.to_string(),
                m.d_model.to_string(),
                format!("{:.1}B", m.total_params() as f64 / 1e9),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "model",
                "base",
                "experts",
                "layers",
                "d_model",
                "total-params"
            ],
            &rows
        )
    );
}

/// The solver roster of the Table II sweep, which records each solver's
/// cross mass.
pub fn roster() -> Vec<SolverKind> {
    vec![
        SolverKind::RoundRobin,
        SolverKind::Greedy,
        SolverKind::LocalSearch { restarts: 2 },
        SolverKind::Annealing(AnnealParams::default().with_starts(1)),
        SolverKind::portfolio(50),
    ]
}

/// Build the fixed-seed profiled instance for one Table II model. The
/// instance keeps a sixth of the model's layer count (so the sweep stays
/// time-boxed), so the 24L/32L/40L variants of the zoo
/// stay distinct instances. Placement only sees routing structure — model
/// width never enters the objective — so models that share an
/// (experts, layers) shape (M/16e vs XL/16e) are distinguished by a
/// model-specific seed stream instead.
fn instance(n_experts: usize, n_layers: usize, seed: u64) -> Objective {
    let layers = (n_layers / 6).max(2);
    Objective::from_snapshot(&profile(layers, n_experts, 1500, 1, seed))
}

/// The `table_solvers` sweep — the model zoo × the solver portfolio on
/// fixed-seed profiled instances, recording the achieved objective (cross
/// mass) per `SolverKind`. Instances and grid points fan across the sweep
/// pool; each solve runs sequentially inside its grid point.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let kinds = roster();
    let instances: Vec<(String, Objective)> = par_map(table2(), |m| {
        // Fold every identity-bearing field into the stream so no two
        // zoo rows ever measure the same instance.
        let stream = w.seed ^ (m.n_layers as u64) ^ ((m.d_model as u64) << 16) ^ m.base_params;
        (m.name, instance(m.n_experts, m.n_layers, stream))
    });
    let grid: Vec<(usize, usize)> = (0..instances.len())
        .flat_map(|m| (0..kinds.len()).map(move |s| (m, s)))
        .collect();
    Ok(par_map(grid, |(m, s)| {
        let (name, objective) = &instances[m];
        let kind = &kinds[s];
        let placement = solve_with(objective, N_UNITS, kind, w.seed, Parallelism::single());
        Json::obj(vec![
            // Table II model name.
            ("model", name.as_str().into()),
            // Stable solver label (`SolverKind::label`).
            ("solver", kind.label().as_str().into()),
            // Achieved objective: expected cross-unit transition mass
            // (lower is better; the same bits at any `jobs`).
            ("cross_mass", objective.cross_mass(&placement).into()),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_rows() {
        let models = table2();
        assert_eq!(models.len(), 7);
        // 350M base appears for the four expert-count variants.
        assert_eq!(
            models
                .iter()
                .filter(|m| m.base_params == 350_000_000)
                .count(),
            4
        );
        // Expert counts cover 8..64.
        let experts: Vec<usize> = models.iter().map(|m| m.n_experts).collect();
        for e in [8, 16, 32, 64] {
            assert!(experts.contains(&e));
        }
    }
}
