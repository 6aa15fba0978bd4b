//! Portfolio solving: race several member solvers on worker threads and
//! keep the best placement any of them finds.
//!
//! The members of a placement-solver portfolio have sharply different
//! cost/quality profiles (greedy is instant, local search scales with
//! restarts, annealing with its schedule), and which one wins depends on
//! the instance — exactly the situation where racing a portfolio beats
//! committing to one algorithm. Members run concurrently (each member is
//! one task on the pool), every member draws a [`split_seed`]-derived RNG
//! stream, and the winner is selected by final cross mass with an
//! earliest-member tie-break — so the returned placement is bit-identical
//! for every thread count.
//!
//! Determinism constrains what "budget" can mean: selecting by a
//! wall-clock cutoff would make the answer depend on machine load, so
//! `budget_ms` instead *sizes the default roster deterministically*
//! (restart and start counts grow with the budget) and every member runs
//! to completion.

use crate::objective::Objective;
use crate::parallel::{argmin_by_cost, split_seed, Parallelism};
use crate::placement::Placement;
use crate::solver::{solve_with, SolverKind};
use crate::AnnealParams;

/// The default roster for a `budget_ms` effort level: greedy (instant
/// floor), multi-start local search, and multi-start annealing, with
/// effort growing deterministically with the budget.
pub fn default_roster(budget_ms: u64) -> Vec<SolverKind> {
    let restarts = (budget_ms / 8).clamp(1, 32) as usize;
    let starts = (budget_ms / 64).clamp(1, 8) as usize;
    vec![
        SolverKind::Greedy,
        SolverKind::LocalSearch { restarts },
        SolverKind::Annealing(AnnealParams::default().with_starts(starts)),
    ]
}

/// Race the [`default_roster`] for `budget_ms` and return the best
/// placement found. Member `i` runs sequentially on stream
/// `split_seed(seed, i)`; the members themselves are the parallel grain,
/// fanned across `par.threads` workers.
///
/// ```
/// use exflow_placement::{solve, Objective, Placement, SolverKind};
///
/// // Shift affinity: expert i at layer j routes to expert i+1 at j+1.
/// let mut gap = vec![0.0; 36];
/// for i in 0..6 { gap[i * 6 + (i + 1) % 6] = 1.0; }
/// let objective = Objective::from_raw(vec![gap; 2], 6);
///
/// // Race the budget-sized default roster; the best member wins.
/// let best = solve(&objective, 2, SolverKind::portfolio(50), 7);
/// let round_robin = Placement::round_robin(3, 6, 2);
/// assert!(objective.cross_mass(&best) < objective.cross_mass(&round_robin));
/// ```
pub fn solve_portfolio(
    objective: &Objective,
    n_units: usize,
    budget_ms: u64,
    seed: u64,
    par: Parallelism,
) -> Placement {
    let members = default_roster(budget_ms);
    let results = par.map_indexed(members.len(), |i| {
        let placement = solve_with(
            objective,
            n_units,
            &members[i],
            split_seed(seed, i as u64),
            Parallelism::single(),
        );
        (objective.cross_mass(&placement), placement)
    });
    argmin_by_cost(results).expect("the roster is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;

    fn objective() -> Objective {
        let e = 12;
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + 5) % e] = 0.7;
            for p in 0..e {
                m[i * e + p] += 0.3 / e as f64;
            }
        }
        Objective::from_raw(vec![m; 5], e)
    }

    #[test]
    fn portfolio_at_least_matches_every_member() {
        let obj = objective();
        let kinds = default_roster(100);
        let best = solve_portfolio(&obj, 4, 100, 3, Parallelism::single());
        let best_cost = obj.cross_mass(&best);
        for (i, kind) in kinds.iter().enumerate() {
            let member = solve_with(
                &obj,
                4,
                kind,
                split_seed(3, i as u64),
                Parallelism::single(),
            );
            assert!(
                best_cost <= obj.cross_mass(&member) + 1e-12,
                "portfolio {best_cost} worse than member {kind:?}"
            );
        }
    }

    #[test]
    fn portfolio_is_thread_count_invariant() {
        let obj = objective();
        let kind = SolverKind::portfolio(50);
        let seq = solve(&obj, 4, kind.clone(), 17);
        for threads in [2, 3, 8] {
            let par = solve_with(&obj, 4, &kind, 17, Parallelism::new(threads));
            assert_eq!(par, seq, "{threads} threads diverged");
        }
    }

    #[test]
    fn default_roster_scales_with_the_budget() {
        let obj = objective();
        let p = solve_portfolio(&obj, 4, 0, 5, Parallelism::new(2));
        assert_eq!(p.n_units(), 4);
        // Budget scaling is monotone and clamped.
        assert_eq!(default_roster(0).len(), 3);
        let small = default_roster(8);
        let large = default_roster(10_000);
        let restarts_of = |kinds: &[SolverKind]| match kinds[1] {
            SolverKind::LocalSearch { restarts } => restarts,
            _ => unreachable!(),
        };
        assert!(restarts_of(&small) < restarts_of(&large));
        assert_eq!(restarts_of(&large), 32);
    }
}
