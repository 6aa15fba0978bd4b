//! Pairwise-swap hill climbing with O(E) delta evaluation — the workhorse
//! heuristic for the paper's ILP at the sizes where exact DP is infeasible
//! (E up to 64, L up to 40).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::greedy::solve_greedy;
use crate::incremental::{improve_metered, CostMeter};
use crate::objective::Objective;
use crate::parallel::{argmin_by_cost, split_seed, Parallelism};
use crate::placement::Placement;

/// Improve `placement` in place by first-improvement swap passes until a
/// local optimum or `max_passes`: the re-plan solvers' metered polish,
/// with an unlimited meter and no cache. Returns the final cross mass.
pub fn improve(objective: &Objective, placement: &mut Placement, max_passes: usize) -> f64 {
    improve_metered(
        objective,
        placement,
        max_passes,
        &mut CostMeter::unlimited(),
        None,
    )
}

/// A random balanced placement (restart seed for multi-start search).
pub fn random_placement<R: Rng>(
    n_layers: usize,
    n_experts: usize,
    n_units: usize,
    rng: &mut R,
) -> Placement {
    let cap = n_experts / n_units;
    let assign = (0..n_layers)
        .map(|_| {
            let mut experts: Vec<usize> = (0..n_experts).collect();
            for i in (1..experts.len()).rev() {
                let j = rng.gen_range(0..=i);
                experts.swap(i, j);
            }
            let mut row = vec![0usize; n_experts];
            for (pos, &expert) in experts.iter().enumerate() {
                row[expert] = pos / cap;
            }
            row
        })
        .collect();
    Placement::new(assign, n_units)
}

/// Multi-start local search: the greedy chain plus `restarts` random
/// starts, each polished by swap passes; returns the best placement found.
/// Every start —
/// task 0 is the greedy chain, tasks `1..=restarts` are random restarts —
/// draws from its own [`split_seed`]-derived RNG stream and is polished
/// independently, so the result is bit-identical for every thread count;
/// the best (cost, then earliest task) placement wins.
pub fn solve_local_search_with(
    objective: &Objective,
    n_units: usize,
    restarts: usize,
    seed: u64,
    par: Parallelism,
) -> Placement {
    let results = par.map_indexed(restarts + 1, |task| {
        let mut cand = if task == 0 {
            solve_greedy(objective, n_units)
        } else {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, task as u64));
            random_placement(
                objective.n_layers(),
                objective.n_experts(),
                n_units,
                &mut rng,
            )
        };
        let cost = improve(objective, &mut cand, 50);
        (cost, cand)
    });
    argmin_by_cost(results).expect("the greedy task always produces a placement")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_shift_objective(e: usize, gaps: usize, kappa: f64) -> Objective {
        // shift structure mixed with uniform: harder than pure permutation.
        let u = 1.0 / e as f64;
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            for p in 0..e {
                let s = f64::from(p == (i + 1) % e);
                m[i * e + p] = kappa * s + (1.0 - kappa) * u;
            }
        }
        Objective::from_raw(vec![m; gaps], e)
    }

    #[test]
    fn improve_never_worsens() {
        let obj = noisy_shift_objective(8, 4, 0.7);
        let mut p = Placement::round_robin(5, 8, 4);
        let before = obj.cross_mass(&p);
        let after = improve(&obj, &mut p, 10);
        assert!(after <= before + 1e-12);
    }

    #[test]
    fn local_search_reaches_swap_optimality() {
        let obj = noisy_shift_objective(8, 3, 0.8);
        let mut p = Placement::round_robin(4, 8, 2);
        improve(&obj, &mut p, 100);
        // No single swap can improve further.
        for layer in 0..4 {
            for e1 in 0..8 {
                for e2 in e1 + 1..8 {
                    assert!(obj.swap_delta(&p, layer, e1, e2) >= -1e-12);
                }
            }
        }
    }

    #[test]
    fn random_placement_is_balanced_and_seeded() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = random_placement(3, 12, 4, &mut rng);
        for layer in 0..3 {
            for unit in 0..4 {
                assert_eq!(p.experts_on(layer, unit).len(), 3);
            }
        }
        let mut rng2 = StdRng::seed_from_u64(5);
        assert_eq!(p, random_placement(3, 12, 4, &mut rng2));
    }

    #[test]
    fn solve_beats_round_robin_under_noise() {
        let obj = noisy_shift_objective(16, 6, 0.75);
        let rr = Placement::round_robin(7, 16, 4);
        let solved = solve_local_search_with(&obj, 4, 2, 0, Parallelism::single());
        assert!(obj.cross_mass(&solved) < obj.cross_mass(&rr));
    }

    #[test]
    fn parallel_restarts_match_sequential_bitwise() {
        let obj = noisy_shift_objective(12, 5, 0.7);
        let seq = solve_local_search_with(&obj, 4, 6, 9, Parallelism::single());
        for threads in [2, 3, 8] {
            let par = solve_local_search_with(&obj, 4, 6, 9, Parallelism::new(threads));
            assert_eq!(par, seq, "{threads} threads diverged");
            assert_eq!(
                obj.cross_mass(&par).to_bits(),
                obj.cross_mass(&seq).to_bits()
            );
        }
    }

    #[test]
    fn restarts_never_hurt() {
        let obj = noisy_shift_objective(8, 4, 0.6);
        let zero = solve_local_search_with(&obj, 4, 0, 1, Parallelism::single());
        let many = solve_local_search_with(&obj, 4, 4, 1, Parallelism::single());
        assert!(obj.cross_mass(&many) <= obj.cross_mass(&zero) + 1e-12);
    }
}
