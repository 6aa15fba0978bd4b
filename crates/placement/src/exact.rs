//! Exact solution of the placement ILP by dynamic programming over balanced
//! partitions — the oracle used to validate the heuristics.
//!
//! The objective (paper formula 8) decomposes over consecutive layer pairs,
//! so the optimum is a shortest path through layers where each layer's state
//! is a balanced assignment of experts to units. The labeled state count is
//! `E! / (C!)^P`, so this is only tractable for small instances; larger
//! instances must use the heuristics (which this module's tests certify).

use crate::objective::Objective;
use crate::placement::Placement;

/// Error returned when the instance is too large for exact DP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooLarge {
    /// Number of labeled states the instance would need.
    pub states: u64,
    /// The configured limit.
    pub limit: u64,
}

impl std::fmt::Display for TooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exact DP needs {} states, above the limit of {}",
            self.states, self.limit
        )
    }
}

impl std::error::Error for TooLarge {}

fn count_labeled_states(e: usize, units: usize) -> u64 {
    // E! / (C!)^P, computed carefully to avoid overflow for the small
    // instances we accept.
    let c = e / units;
    let mut num = 1f64;
    for i in 1..=e {
        num *= i as f64;
    }
    let mut den = 1f64;
    for _ in 0..units {
        for i in 1..=c {
            den *= i as f64;
        }
    }
    (num / den).round() as u64
}

/// Enumerate all balanced labeled assignments of `e` experts to `units`
/// units (each holding `e/units`).
fn enumerate_states(e: usize, units: usize) -> Vec<Vec<usize>> {
    let cap = e / units;
    let mut out = Vec::new();
    let mut row = vec![usize::MAX; e];
    let mut loads = vec![0usize; units];
    fn rec(
        idx: usize,
        e: usize,
        units: usize,
        cap: usize,
        row: &mut Vec<usize>,
        loads: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if idx == e {
            out.push(row.clone());
            return;
        }
        for u in 0..units {
            if loads[u] < cap {
                row[idx] = u;
                loads[u] += 1;
                rec(idx + 1, e, units, cap, row, loads, out);
                loads[u] -= 1;
            }
        }
    }
    rec(0, e, units, cap, &mut row, &mut loads, &mut out);
    out
}

/// Gap cost between two layer states under one transition matrix.
fn gap_cost(objective: &Objective, gap: usize, from: &[usize], to: &[usize]) -> f64 {
    let mut cost = 0.0f64;
    for (i, &from_unit) in from.iter().enumerate() {
        let w = objective.row_weight(gap, i);
        if w == 0.0 {
            continue;
        }
        objective.for_each_in_row(gap, i, |p, prob| {
            if from_unit != to[p] {
                cost += w * prob;
            }
        });
    }
    cost
}

/// Solve the placement ILP exactly. Fails with [`TooLarge`] when the
/// labeled state space exceeds `state_limit` (a practical default is 1000).
pub fn solve_exact(
    objective: &Objective,
    n_units: usize,
    state_limit: u64,
) -> Result<(Placement, f64), TooLarge> {
    let e = objective.n_experts();
    assert!(e.is_multiple_of(n_units));
    let states_count = count_labeled_states(e, n_units);
    if states_count > state_limit {
        return Err(TooLarge {
            states: states_count,
            limit: state_limit,
        });
    }
    let states = enumerate_states(e, n_units);
    let s = states.len();
    let l = objective.n_layers();

    // Unit labels are globally permutable, so pin layer 0 to the first
    // canonical state: partition structure at layer 0 does not matter
    // because cost only counts *changes* between layers... except it does
    // matter (which experts share a unit at layer 0 shapes gap 0). So we
    // must search layer-0 states too, but can quotient out global label
    // permutations by only keeping layer-0 states whose first occurrence
    // order of unit labels is canonical (unit labels appear in increasing
    // order of first use).
    let canonical: Vec<usize> = (0..s)
        .filter(|&i| {
            let row = &states[i];
            let mut next = 0usize;
            for &u in row {
                if u > next {
                    return false;
                }
                if u == next {
                    next += 1;
                }
            }
            true
        })
        .collect();

    // DP forward.
    let mut cost: Vec<f64> = vec![f64::INFINITY; s];
    let mut parent: Vec<Vec<usize>> = vec![vec![0; s]; l];
    for &i in &canonical {
        cost[i] = 0.0;
    }
    for gap in 0..l - 1 {
        let mut next_cost = vec![f64::INFINITY; s];
        for cur in 0..s {
            if !cost[cur].is_finite() {
                continue;
            }
            for (nxt, state) in states.iter().enumerate() {
                let c = cost[cur] + gap_cost(objective, gap, &states[cur], state);
                if c < next_cost[nxt] {
                    next_cost[nxt] = c;
                    parent[gap + 1][nxt] = cur;
                }
            }
        }
        cost = next_cost;
    }

    // Best terminal state, then backtrack.
    let (mut best_state, mut best_cost) = (0usize, f64::INFINITY);
    for (i, &c) in cost.iter().enumerate() {
        if c < best_cost {
            best_cost = c;
            best_state = i;
        }
    }
    let mut chain = vec![0usize; l];
    chain[l - 1] = best_state;
    for layer in (1..l).rev() {
        chain[layer - 1] = parent[layer][chain[layer]];
    }
    let assign = chain.into_iter().map(|i| states[i].clone()).collect();
    Ok((Placement::new(assign, n_units), best_cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::solve_greedy;
    use crate::local_search::solve_local_search_with;
    use crate::parallel::Parallelism;

    fn shift_objective(e: usize, gaps: usize) -> Objective {
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + 1) % e] = 1.0;
        }
        Objective::from_raw(vec![m; gaps], e)
    }

    fn random_objective(e: usize, gaps: usize, seed: u64) -> Objective {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let gaps_vec = (0..gaps)
            .map(|_| {
                let mut m = vec![0.0f64; e * e];
                for i in 0..e {
                    let mut s = 0.0;
                    for p in 0..e {
                        let v = rng.gen_range(0.0..1.0f64).powi(3);
                        m[i * e + p] = v;
                        s += v;
                    }
                    for p in 0..e {
                        m[i * e + p] /= s;
                    }
                }
                m
            })
            .collect();
        Objective::from_raw(gaps_vec, e)
    }

    #[test]
    fn state_count_formula() {
        assert_eq!(count_labeled_states(4, 2), 6);
        assert_eq!(count_labeled_states(6, 3), 90);
        assert_eq!(count_labeled_states(6, 2), 20);
    }

    #[test]
    fn enumeration_matches_count() {
        for (e, u) in [(4, 2), (6, 2), (6, 3)] {
            assert_eq!(
                enumerate_states(e, u).len() as u64,
                count_labeled_states(e, u)
            );
        }
    }

    #[test]
    fn exact_finds_zero_cost_on_shift() {
        let obj = shift_objective(6, 4);
        let (p, cost) = solve_exact(&obj, 2, 1000).unwrap();
        assert!(cost < 1e-12);
        assert!(obj.cross_mass(&p) < 1e-12);
    }

    #[test]
    fn exact_rejects_large_instances() {
        let obj = shift_objective(16, 2);
        let err = solve_exact(&obj, 4, 1000).unwrap_err();
        assert!(err.states > 1000);
        assert!(err.to_string().contains("states"));
    }

    #[test]
    fn exact_cost_consistent_with_evaluation() {
        let obj = random_objective(6, 3, 1);
        let (p, cost) = solve_exact(&obj, 2, 1000).unwrap();
        assert!((obj.cross_mass(&p) - cost).abs() < 1e-9);
    }

    #[test]
    fn heuristics_close_to_exact_optimum() {
        // The certification test: on random small instances, greedy is
        // within 50% and local search within 10% of the true optimum.
        // (Greedy has no approximation guarantee on these instances; the
        // bound just catches gross regressions across RNG streams.)
        for seed in 0..5 {
            let obj = random_objective(6, 4, seed);
            let (_, opt) = solve_exact(&obj, 2, 1000).unwrap();
            let greedy_cost = obj.cross_mass(&solve_greedy(&obj, 2));
            let ls = solve_local_search_with(&obj, 2, 4, seed, Parallelism::single());
            let ls_cost = obj.cross_mass(&ls);
            assert!(
                greedy_cost <= opt * 1.5 + 1e-9,
                "seed {seed}: greedy {greedy_cost} vs opt {opt}"
            );
            assert!(
                ls_cost <= opt * 1.10 + 1e-9,
                "seed {seed}: local search {ls_cost} vs opt {opt}"
            );
        }
    }

    #[test]
    fn exact_never_worse_than_heuristics() {
        for seed in 0..5 {
            let obj = random_objective(4, 3, seed + 100);
            let (_, opt) = solve_exact(&obj, 2, 1000).unwrap();
            let placement = solve_local_search_with(&obj, 2, 2, seed, Parallelism::single());
            let ls = obj.cross_mass(&placement);
            assert!(opt <= ls + 1e-9, "seed {seed}: opt {opt} > heuristic {ls}");
        }
    }
}
