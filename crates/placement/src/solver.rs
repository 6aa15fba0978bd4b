//! Unified solver front-end.

use crate::annealing::{solve_annealing_with, AnnealParams};
use crate::greedy::solve_greedy;
use crate::local_search::solve_local_search_with;
use crate::objective::Objective;
use crate::parallel::Parallelism;
use crate::placement::Placement;
use crate::portfolio::solve_portfolio;

/// Which algorithm to use for a (single-level) placement solve.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverKind {
    /// The DeepSpeed-MoE baseline: contiguous experts, no affinity
    /// awareness.
    RoundRobin,
    /// Greedy chain with exact per-gap Hungarian assignment.
    Greedy,
    /// Greedy seed + multi-start pairwise-swap hill climbing.
    LocalSearch {
        /// Number of random restarts beyond the greedy seed.
        restarts: usize,
    },
    /// Simulated annealing with the given schedule (multi-start per
    /// `AnnealParams::n_starts`).
    Annealing(AnnealParams),
    /// Race the roster [`crate::portfolio::default_roster`] sizes by
    /// `budget_ms` on worker threads and keep the best placement. Results
    /// are bit-identical at any thread count.
    Portfolio {
        /// Deterministic effort budget for the roster, in milliseconds of
        /// intended solve time. Never enforced by wall clock — that would
        /// break reproducibility — only used to size member effort.
        budget_ms: u64,
    },
}

impl SolverKind {
    /// A budget-sized portfolio.
    pub fn portfolio(budget_ms: u64) -> Self {
        SolverKind::Portfolio { budget_ms }
    }

    /// Short stable label (used by bench summaries and JSON artifacts).
    pub fn label(&self) -> String {
        match self {
            SolverKind::RoundRobin => "round-robin".to_string(),
            SolverKind::Greedy => "greedy".to_string(),
            SolverKind::LocalSearch { restarts } => format!("local-search-r{restarts}"),
            SolverKind::Annealing(p) => format!("annealing-s{}", p.n_starts),
            SolverKind::Portfolio { budget_ms } => format!("portfolio-b{budget_ms}"),
        }
    }
}

/// Solve a placement instance with the chosen algorithm, sequentially.
/// `seed` drives all stochastic solvers; deterministic for fixed inputs.
pub fn solve(objective: &Objective, n_units: usize, kind: SolverKind, seed: u64) -> Placement {
    solve_with(objective, n_units, &kind, seed, Parallelism::single())
}

/// Solve with an explicit parallelism width. For every solver the result
/// is bit-identical to the sequential run — `par` only changes how fast
/// the answer arrives (restarts, annealing starts, and portfolio members
/// fan across `par.threads` workers).
pub fn solve_with(
    objective: &Objective,
    n_units: usize,
    kind: &SolverKind,
    seed: u64,
    par: Parallelism,
) -> Placement {
    match kind {
        SolverKind::RoundRobin => {
            Placement::round_robin(objective.n_layers(), objective.n_experts(), n_units)
        }
        SolverKind::Greedy => solve_greedy(objective, n_units),
        SolverKind::LocalSearch { restarts } => {
            solve_local_search_with(objective, n_units, *restarts, seed, par)
        }
        SolverKind::Annealing(params) => {
            solve_annealing_with(objective, n_units, *params, seed, par)
        }
        SolverKind::Portfolio { budget_ms } => {
            solve_portfolio(objective, n_units, *budget_ms, seed, par)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;

    fn objective() -> Objective {
        let e = 8;
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + 3) % e] = 0.8;
            for p in 0..e {
                m[i * e + p] += 0.2 / e as f64;
            }
        }
        Objective::from_raw(vec![m; 4], e)
    }

    fn all_kinds() -> Vec<SolverKind> {
        vec![
            SolverKind::RoundRobin,
            SolverKind::Greedy,
            SolverKind::LocalSearch { restarts: 1 },
            SolverKind::Annealing(AnnealParams::default()),
            SolverKind::portfolio(50),
        ]
    }

    #[test]
    fn every_solver_returns_balanced_placements() {
        let obj = objective();
        for kind in all_kinds() {
            let p = solve(&obj, 4, kind.clone(), 0);
            assert_eq!(p.n_units(), 4);
            for layer in 0..5 {
                for unit in 0..4 {
                    assert_eq!(p.experts_on(layer, unit).len(), 2, "{kind:?}");
                }
            }
        }
        // 8 experts on 2 units: 8!/(4!)^2 = 70 states, within the DP limit.
        let (p, _) = solve_exact(&obj, 2, 1000).expect("70 states fit the DP");
        for layer in 0..5 {
            for unit in 0..2 {
                assert_eq!(p.experts_on(layer, unit).len(), 4);
            }
        }
    }

    #[test]
    fn affinity_solvers_beat_round_robin() {
        let obj = objective();
        let rr = solve(&obj, 4, SolverKind::RoundRobin, 0);
        let rr_cost = obj.cross_mass(&rr);
        for kind in [
            SolverKind::Greedy,
            SolverKind::LocalSearch { restarts: 1 },
            SolverKind::Annealing(AnnealParams::default()),
            SolverKind::portfolio(50),
        ] {
            let p = solve(&obj, 4, kind.clone(), 0);
            assert!(
                obj.cross_mass(&p) < rr_cost,
                "{kind:?} did not beat round-robin"
            );
        }
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<String> = all_kinds().iter().map(SolverKind::label).collect();
        let unique: std::collections::BTreeSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "{labels:?}");
        assert_eq!(SolverKind::Greedy.label(), "greedy");
        assert_eq!(
            SolverKind::LocalSearch { restarts: 2 }.label(),
            "local-search-r2"
        );
        assert_eq!(SolverKind::portfolio(50).label(), "portfolio-b50");
    }
}
