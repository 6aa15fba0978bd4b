//! Simulated annealing over swap moves — escapes the local optima that
//! plain hill climbing can get stuck in on rugged instances (many layers,
//! moderate affinity).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::greedy::solve_greedy;
use crate::local_search::{improve, random_placement};
use crate::objective::Objective;
use crate::parallel::{argmin_by_cost, split_seed, Parallelism};
use crate::placement::Placement;

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealParams {
    /// Starting temperature (in cross-mass units).
    pub t_start: f64,
    /// Final temperature.
    pub t_end: f64,
    /// Swap proposals per temperature step.
    pub moves_per_temp: usize,
    /// Geometric cooling factor per step, in (0, 1).
    pub cooling: f64,
    /// Independent annealing starts (>= 1). Start 0 is seeded from the
    /// greedy chain, further starts from random placements; each start
    /// gets its own derived RNG stream, so multi-start results are
    /// bit-identical at any thread count and the best start wins.
    pub n_starts: usize,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            t_start: 0.05,
            t_end: 1e-4,
            moves_per_temp: 200,
            cooling: 0.9,
            n_starts: 1,
        }
    }
}

impl AnnealParams {
    /// This schedule with `n` independent starts.
    pub fn with_starts(mut self, n: usize) -> Self {
        assert!(n >= 1, "annealing needs at least one start");
        self.n_starts = n;
        self
    }
}

/// Solve by simulated annealing (multi-start per `params.n_starts`),
/// finished with a hill-climbing polish. Deterministic in `seed`. Start 0
/// reproduces the classic greedy-seeded single run on the master seed's
/// stream; starts `1..n_starts` anneal from random placements on
/// [`split_seed`]-derived streams. The lowest final cross mass (earliest
/// start on ties) wins, independent of thread count.
pub fn solve_annealing_with(
    objective: &Objective,
    n_units: usize,
    params: AnnealParams,
    seed: u64,
    par: Parallelism,
) -> Placement {
    assert!(params.t_start > params.t_end && params.t_end > 0.0);
    assert!((0.0..1.0).contains(&params.cooling) && params.cooling > 0.0);
    assert!(params.n_starts >= 1, "annealing needs at least one start");
    let results = par.map_indexed(params.n_starts, |start| {
        let (initial, mut rng) = if start == 0 {
            (
                solve_greedy(objective, n_units),
                StdRng::seed_from_u64(seed),
            )
        } else {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, start as u64));
            let initial = random_placement(
                objective.n_layers(),
                objective.n_experts(),
                n_units,
                &mut rng,
            );
            (initial, rng)
        };
        let placement = anneal_once(objective, initial, params, &mut rng);
        (objective.cross_mass(&placement), placement)
    });
    argmin_by_cost(results).expect("n_starts >= 1 produces a placement")
}

/// One annealing run from `initial` over `rng`'s stream, with the final
/// hill-climbing polish.
fn anneal_once(
    objective: &Objective,
    initial: Placement,
    params: AnnealParams,
    rng: &mut StdRng,
) -> Placement {
    let e = objective.n_experts();
    let l = objective.n_layers();

    let mut current = initial;
    let mut current_cost = objective.cross_mass(&current);
    let mut best = current.clone();
    let mut best_cost = current_cost;

    let mut temp = params.t_start;
    while temp > params.t_end {
        for _ in 0..params.moves_per_temp {
            let layer = rng.gen_range(0..l);
            let e1 = rng.gen_range(0..e);
            let e2 = rng.gen_range(0..e);
            if current.unit_of(layer, e1) == current.unit_of(layer, e2) {
                continue;
            }
            let delta = objective.swap_delta(&current, layer, e1, e2);
            if delta < 0.0 || rng.gen::<f64>() < (-delta / temp).exp() {
                current.swap(layer, e1, e2);
                current_cost += delta;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best = current.clone();
                }
            }
        }
        temp *= params.cooling;
    }

    // Polish: annealing's accumulated float drift is corrected by the final
    // exact evaluation inside `improve`.
    improve(objective, &mut best, 20);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hard_objective(e: usize, gaps: usize, seed: u64) -> Objective {
        // A blend of two competing permutation structures: greedy chains
        // follow one and miss the other.
        let mut rng = StdRng::seed_from_u64(seed);
        let gaps_vec = (0..gaps)
            .map(|_| {
                let mut m = vec![0.0f64; e * e];
                for i in 0..e {
                    let a = (i + 1) % e;
                    let b = rng.gen_range(0..e);
                    m[i * e + a] += 0.5;
                    m[i * e + b] += 0.3;
                    let u = 0.2 / e as f64;
                    for p in 0..e {
                        m[i * e + p] += u;
                    }
                }
                m
            })
            .collect();
        Objective::from_raw(gaps_vec, e)
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let obj = hard_objective(8, 4, 1);
        let a = solve_annealing_with(&obj, 4, AnnealParams::default(), 42, Parallelism::single());
        let b = solve_annealing_with(&obj, 4, AnnealParams::default(), 42, Parallelism::single());
        assert_eq!(a, b);
    }

    #[test]
    fn annealing_output_is_balanced() {
        let obj = hard_objective(12, 3, 2);
        let p = solve_annealing_with(&obj, 3, AnnealParams::default(), 0, Parallelism::single());
        for layer in 0..4 {
            for unit in 0..3 {
                assert_eq!(p.experts_on(layer, unit).len(), 4);
            }
        }
    }

    #[test]
    fn annealing_not_worse_than_round_robin() {
        let obj = hard_objective(8, 5, 3);
        let rr = Placement::round_robin(6, 8, 4);
        let annealed =
            solve_annealing_with(&obj, 4, AnnealParams::default(), 7, Parallelism::single());
        assert!(obj.cross_mass(&annealed) <= obj.cross_mass(&rr) + 1e-12);
    }

    #[test]
    fn multi_start_is_thread_count_invariant() {
        let obj = hard_objective(8, 4, 6);
        let params = AnnealParams::default().with_starts(4);
        let seq = solve_annealing_with(&obj, 4, params, 42, Parallelism::single());
        for threads in [2, 8] {
            let par = solve_annealing_with(&obj, 4, params, 42, Parallelism::new(threads));
            assert_eq!(par, seq, "{threads} threads diverged");
        }
    }

    #[test]
    fn more_starts_never_hurt() {
        let obj = hard_objective(10, 5, 9);
        let one = solve_annealing_with(&obj, 2, AnnealParams::default(), 3, Parallelism::single());
        let starts = AnnealParams::default().with_starts(4);
        let four = solve_annealing_with(&obj, 2, starts, 3, Parallelism::single());
        assert!(obj.cross_mass(&four) <= obj.cross_mass(&one) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn zero_starts_rejected() {
        let obj = hard_objective(4, 2, 4);
        let params = AnnealParams {
            n_starts: 0,
            ..AnnealParams::default()
        };
        let _ = solve_annealing_with(&obj, 2, params, 0, Parallelism::single());
    }

    #[test]
    #[should_panic]
    fn bad_schedule_rejected() {
        let obj = hard_objective(4, 2, 4);
        let _ = solve_annealing_with(
            &obj,
            2,
            AnnealParams {
                t_start: 0.001,
                t_end: 0.01,
                ..AnnealParams::default()
            },
            0,
            Parallelism::single(),
        );
    }
}
