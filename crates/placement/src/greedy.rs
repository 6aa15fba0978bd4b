//! Greedy chain construction: place layer 0 arbitrarily, then choose each
//! subsequent layer's placement *optimally given the previous layer* via the
//! Hungarian algorithm on the slot-expanded assignment problem — solved
//! from the `E x units` gain table itself
//! ([`crate::hungarian::solve_capacitated`]); no `E x E` matrix is built.
//!
//! This is the natural constructive reading of the paper's formulas 2–5
//! ("find the most affiliated experts at layer j+1 for the experts a GPU
//! holds at layer j") made globally consistent per layer pair — each gap is
//! solved to optimality, but the chain as a whole is still greedy (no
//! lookahead), which is why [`crate::local_search`] runs afterwards.

use crate::hungarian::solve_capacitated;
use crate::objective::Objective;
use crate::placement::Placement;

/// Build a placement by greedy chain construction.
pub fn solve_greedy(objective: &Objective, n_units: usize) -> Placement {
    let e = objective.n_experts();
    let l = objective.n_layers();
    assert!(
        e.is_multiple_of(n_units),
        "experts must divide across units"
    );
    let cap = e / n_units;

    let mut assign: Vec<Vec<usize>> = Vec::with_capacity(l);
    // Layer 0: the absolute labeling is arbitrary (cost depends only on
    // consecutive pairs), so start contiguous.
    assign.push((0..e).map(|i| i / cap).collect());

    for gap in 0..l - 1 {
        let prev = &assign[gap];
        // gain[p][u]: affinity mass flowing from unit u's layer-`gap`
        // experts into expert p at layer `gap+1`, weighted by each source
        // expert's marginal share of tokens.
        let mut gain = vec![0.0f64; e * n_units];
        for (i, &u) in prev.iter().enumerate() {
            let w = objective.row_weight(gap, i);
            if w == 0.0 {
                continue;
            }
            // Row iteration is O(nnz) on the sparse backend and skips
            // zero cells on the dense one — either way the accumulated
            // gains are bit-identical to the full dense loop.
            objective.for_each_in_row(gap, i, |p, prob| {
                gain[p * n_units + u] += w * prob;
            });
        }
        // Hungarian minimizes, so negate the gain; slot s belongs to unit
        // s / cap.
        gain.iter_mut().for_each(|g| *g = -*g);
        let slots = solve_capacitated(&gain, e, n_units);
        assign.push((0..e).map(|p| slots[p] / cap).collect());
    }

    Placement::new(assign, n_units)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shift_objective(e: usize, gaps: usize, shift: usize) -> Objective {
        let mut m = vec![0.0f64; e * e];
        for i in 0..e {
            m[i * e + (i + shift) % e] = 1.0;
        }
        Objective::from_raw(vec![m; gaps], e)
    }

    #[test]
    fn greedy_solves_shift_chains_perfectly() {
        // Deterministic shift routing is a permutation chain: a perfect
        // placement exists (follow the permutation), and each Hungarian gap
        // solve finds it.
        for shift in 1..4 {
            let obj = shift_objective(8, 5, shift);
            let p = solve_greedy(&obj, 4);
            assert!(
                obj.cross_mass(&p) < 1e-9,
                "shift {shift} not chained: cost {}",
                obj.cross_mass(&p)
            );
        }
    }

    #[test]
    fn greedy_beats_round_robin_on_structured_instances() {
        use exflow_affinity::{AffinityMatrix, RoutingTrace};
        use exflow_model::routing::AffinityModelSpec;
        use exflow_model::{CorpusSpec, TokenBatch};

        let model = AffinityModelSpec::new(8, 16).with_affinity(0.9).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 5000, 1, 17);
        let trace = RoutingTrace::from_batch(&batch, 16);
        let obj = Objective::from_affinities(&AffinityMatrix::consecutive(&trace));

        let rr = Placement::round_robin(8, 16, 4);
        let greedy = solve_greedy(&obj, 4);
        assert!(
            obj.cross_mass(&greedy) < obj.cross_mass(&rr) * 0.8,
            "greedy {} vs round-robin {}",
            obj.cross_mass(&greedy),
            obj.cross_mass(&rr)
        );
    }

    #[test]
    fn greedy_output_is_balanced() {
        let obj = shift_objective(12, 3, 1);
        let p = solve_greedy(&obj, 3);
        for layer in 0..4 {
            for unit in 0..3 {
                assert_eq!(p.experts_on(layer, unit).len(), 4);
            }
        }
    }

    // One NaN cell used to be read as a forbidden (expert, unit) edge and
    // returned a placement without a word.
    #[test]
    #[should_panic(expected = "assignment cost must be finite: cost[row 1][unit 0] = NaN")]
    fn a_nan_cell_panics_instead_of_being_solved_around() {
        let mut m = vec![0.25f64; 16];
        m[5] = f64::NAN;
        solve_greedy(&Objective::from_raw(vec![m], 4), 2);
    }

    // An expert with no finite unit left (here one NaN cell and one unit)
    // used to spin the gap solve forever.
    #[test]
    #[should_panic(expected = "assignment cost must be finite: cost[row 1][unit 0] = NaN")]
    fn an_expert_with_no_finite_unit_panics_instead_of_hanging() {
        let mut m = vec![0.25f64; 16];
        m[5] = f64::NAN;
        solve_greedy(&Objective::from_raw(vec![m], 4), 1);
    }

    #[test]
    fn capacity_one_works() {
        let obj = shift_objective(4, 2, 1);
        let p = solve_greedy(&obj, 4);
        assert!(obj.cross_mass(&p) < 1e-9);
        assert!((0..4).all(|u| p.experts_on(1, u).len() == 1));
    }
}
