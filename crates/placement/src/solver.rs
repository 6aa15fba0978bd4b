//! Unified solver front-end.

use crate::annealing::{solve_annealing_with, AnnealParams};
use crate::exact::solve_exact;
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
    /// Exact DP over balanced partitions (small instances only; falls back
    /// to `LocalSearch` when the state space exceeds the internal limit).
    Exact,
    /// Race member solvers on worker threads and keep the best placement.
    /// With an empty `kinds` roster, a default roster sized by
    /// `budget_ms` is raced instead (see [`crate::portfolio`]). Results
    /// are bit-identical at any thread count.
    Portfolio {
        /// Member solvers to race (empty = budget-sized default roster).
        kinds: Vec<SolverKind>,
        /// Deterministic effort budget for the default roster, in
        /// milliseconds of intended solve time. Never enforced by wall
        /// clock — that would break reproducibility — only used to size
        /// member effort.
        budget_ms: u64,
    },
}

impl SolverKind {
    /// A sensible default for evaluation runs.
    pub fn default_heuristic() -> Self {
        SolverKind::LocalSearch { restarts: 2 }
    }

    /// A budget-sized default portfolio.
    pub fn portfolio(budget_ms: u64) -> Self {
        SolverKind::Portfolio {
            kinds: Vec::new(),
            budget_ms,
        }
    }

    /// Short stable label (used by bench summaries and JSON artifacts).
    pub fn label(&self) -> String {
        match self {
            SolverKind::RoundRobin => "round-robin".to_string(),
            SolverKind::Greedy => "greedy".to_string(),
            SolverKind::LocalSearch { restarts } => format!("local-search-r{restarts}"),
            SolverKind::Annealing(p) => format!("annealing-s{}", p.n_starts),
            SolverKind::Exact => "exact".to_string(),
            SolverKind::Portfolio { kinds, budget_ms } => {
                if kinds.is_empty() {
                    format!("portfolio-b{budget_ms}")
                } else {
                    // Member labels, not just the count: two different
                    // rosters must never collide on the BENCH_*.json row
                    // key that PRs are compared by.
                    let members: Vec<String> = kinds.iter().map(SolverKind::label).collect();
                    format!("portfolio[{}]", members.join("+"))
                }
            }
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
        SolverKind::Exact => match solve_exact(objective, n_units, 1000) {
            Ok((p, _)) => p,
            Err(_) => solve_local_search_with(objective, n_units, 4, seed, par),
        },
        SolverKind::Portfolio { kinds, budget_ms } => {
            solve_portfolio(objective, n_units, kinds, *budget_ms, seed, par)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            SolverKind::Exact,
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
    fn exact_falls_back_gracefully_on_large_instances() {
        // 16 experts / 4 units is beyond the exact limit; must not panic.
        let e = 16;
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + 1) % e] = 1.0;
        }
        let obj = Objective::from_raw(vec![m; 2], e);
        let p = solve(&obj, 4, SolverKind::Exact, 0);
        assert_eq!(p.n_units(), 4);
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
        // Explicit rosters of equal length but different members must get
        // different labels.
        let a = SolverKind::Portfolio {
            kinds: vec![SolverKind::Greedy, SolverKind::Exact],
            budget_ms: 0,
        };
        let b = SolverKind::Portfolio {
            kinds: vec![SolverKind::Greedy, SolverKind::LocalSearch { restarts: 1 }],
            budget_ms: 0,
        };
        assert_eq!(a.label(), "portfolio[greedy+exact]");
        assert_ne!(a.label(), b.label());
    }
}
