//! Kuhn–Munkres (Hungarian) algorithm for the min-cost perfect assignment
//! problem — the exact solver for a *single* layer pair.
//!
//! When each GPU holds one expert per layer (capacity 1), choosing layer
//! `j+1`'s placement given layer `j`'s is exactly an assignment problem:
//! assign each expert to a GPU so the expected cross-GPU mass is minimal.
//! With capacity `C` the same holds after expanding each GPU into `C`
//! identical slots. The greedy chain solver ([`crate::greedy`]) applies
//! this gap by gap.
//!
//! The expansion is never materialised. [`solve_capacitated`] takes the
//! `rows x units` cost table and its inner scan visits *runs* — stretches of
//! a unit's slots that are interchangeable because their potentials are
//! equal — instead of slots. It performs the arithmetic of the textbook
//! column loop on the expanded matrix and returns that loop's slot vector,
//! ties included; the loop itself lives on as the test oracle.

/// Panic on the first non-finite cell. A row with no finite cost gives the
/// augmenting search no column to reach — it would spin forever — and a NaN
/// anywhere poisons the potentials.
fn assert_finite(cost: &[f64], n_units: usize) {
    if let Some(at) = cost.iter().position(|c| !c.is_finite()) {
        panic!(
            "assignment cost must be finite: cost[row {}][unit {}] = {}",
            at / n_units,
            at % n_units,
            cost[at]
        );
    }
}

/// `assignment[row] = slot` from the 1-indexed `p[slot] = row` matching.
fn slots_by_row(p: &[usize]) -> Vec<usize> {
    let mut assignment = vec![usize::MAX; p.len() - 1];
    for (j, &row) in p.iter().enumerate().skip(1) {
        if row != 0 {
            assignment[row - 1] = j - 1;
        }
    }
    debug_assert!(assignment.iter().all(|&c| c != usize::MAX));
    assignment
}

/// A maximal stretch `head..end` of adjacent, still unused slots of one
/// unit whose column potentials compared equal when the outer row began.
struct Run {
    unit: usize,
    head: usize,
    end: usize,
    /// The slots' common potential `v`.
    v: f64,
    /// The slots' common `minv` and the `way` recorded with it.
    minv: f64,
    way: usize,
}

/// Solve the min-cost assignment of `n_rows` rows to the slots of
/// `n_units` units, `n_rows / n_units` slots each, where a row pays
/// `cost[row * n_units + unit]` for any slot of `unit`. Returns
/// `slot[row]`; slot `s` belongs to unit `s / (n_rows / n_units)`.
///
/// The result is the slot vector the textbook column loop (potentials,
/// one augmenting path per row, every column scanned on every step — this
/// module's test oracle) returns on the `n_rows x n_rows` matrix with every
/// unit's column repeated once per slot. The algorithm and its `f64`
/// operations are that loop's, on the same values, but the inner scan
/// visits **runs** instead of slots: maximal stretches of adjacent slots of
/// one unit whose potentials `v` compare equal, rebuilt in one pass when an
/// outer row begins (no slot is used then). Why that is exact:
///
/// * the slots of a run share a cost column and `v`, so the column loop
///   would compute the same `cur` for each, hence the same `minv` and `way`
///   after every relaxation and every `-= delta`: one copy per run holds
///   them all. A run never crosses a unit boundary, or the columns differ;
/// * the column loop picks the lowest slot among those of minimal `minv`
///   (strict `<`, ascending index). That is the head of the first minimal
///   run in run order, so runs are scanned in slot order with the same
///   strict `<`;
/// * a picked slot therefore leaves its run from the head and the run
///   stays one contiguous range; `way` is read back only for picked slots,
///   so it is written only then;
/// * each used slot `j` (and its matched row `p[j]`, distinct per slot)
///   has its potential touched once per step, so updating them from the
///   list of used slots, in pick order, changes no value;
/// * a step with `delta == 0.0` updates nothing: adding or subtracting a
///   zero changes no value except possibly the sign of a zero, which no
///   comparison and no nonzero sum depends on (the same reason slots that
///   differ only in the sign of a zero `v` may share a run). A *negative*
///   `delta` — rounding produces them — is applied like any other.
pub fn solve_capacitated(cost: &[f64], n_rows: usize, n_units: usize) -> Vec<usize> {
    assert!(n_units >= 1 && n_rows >= 1);
    assert!(
        n_rows.is_multiple_of(n_units),
        "rows must divide across units"
    );
    assert_eq!(
        cost.len(),
        n_rows * n_units,
        "cost table must be rows*units"
    );
    assert_finite(cost, n_units);
    const INF: f64 = f64::INFINITY;
    let (n, cap) = (n_rows, n_rows / n_units);

    // 1-indexed potentials over rows (u) and slots (v).
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; n + 1];
    // p[slot] = row matched to slot (0 = unmatched); p[0] is the working row.
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];
    let mut runs: Vec<Run> = Vec::with_capacity(n);
    let mut used: Vec<usize> = Vec::with_capacity(n + 1);

    for i in 1..=n {
        p[0] = i;
        runs.clear();
        for unit in 0..n_units {
            // The unit's slots are `lo..hi` (1-indexed).
            let (lo, hi) = (unit * cap + 1, (unit + 1) * cap + 1);
            let mut head = lo;
            for j in lo + 1..=hi {
                if j == hi || v[j] != v[head] {
                    runs.push(Run {
                        unit,
                        head,
                        end: j,
                        v: v[head],
                        minv: INF,
                        way: 0,
                    });
                    head = j;
                }
            }
        }
        used.clear();
        let mut j0 = 0usize;
        loop {
            used.push(j0);
            let i0 = p[j0];
            let (row, u0) = (&cost[(i0 - 1) * n_units..][..n_units], u[i0]);
            let mut delta = INF;
            let mut pick = usize::MAX;
            for (r, run) in runs.iter_mut().enumerate() {
                if run.head == run.end {
                    continue;
                }
                let cur = row[run.unit] - u0 - run.v;
                if cur < run.minv {
                    run.minv = cur;
                    run.way = j0;
                }
                if run.minv < delta {
                    delta = run.minv;
                    pick = r;
                }
            }
            if delta != 0.0 {
                for &j in &used {
                    u[p[j]] += delta;
                    v[j] -= delta;
                }
                for run in &mut runs {
                    run.minv -= delta;
                }
            }
            let run = &mut runs[pick];
            j0 = run.head;
            run.head += 1;
            way[j0] = run.way;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    slots_by_row(&p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_search::random_placement;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Min-cost assignment on an `n x n` cost matrix (row-major):
    /// [`solve_capacitated`] with one slot per unit.
    fn solve_assignment(cost: &[f64], n: usize) -> Vec<usize> {
        solve_capacitated(cost, n, n)
    }

    /// Total cost of an assignment under a cost matrix.
    fn assignment_cost(cost: &[f64], n: usize, assignment: &[usize]) -> f64 {
        assignment
            .iter()
            .enumerate()
            .map(|(r, &c)| cost[r * n + c])
            .sum()
    }

    /// The oracle of [`solve_capacitated`]: the classic column loop over an
    /// `n x n` matrix, every column scanned on every step.
    fn reference_assignment(cost: &[f64], n: usize) -> Vec<usize> {
        assert_eq!(cost.len(), n * n, "cost matrix must be n*n");
        assert!(n >= 1);
        assert_finite(cost, n);
        const INF: f64 = f64::INFINITY;

        // 1-indexed potentials over rows (u) and columns (v).
        let mut u = vec![0.0f64; n + 1];
        let mut v = vec![0.0f64; n + 1];
        // p[col] = row matched to col (0 = unmatched); p[0] is the working row.
        let mut p = vec![0usize; n + 1];
        let mut way = vec![0usize; n + 1];

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![INF; n + 1];
            let mut used = vec![false; n + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if used[j] {
                        continue;
                    }
                    let cur = cost[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=n {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Augment along the alternating path.
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        slots_by_row(&p)
    }

    fn brute_force(cost: &[f64], n: usize) -> f64 {
        // Enumerate all permutations (n <= 7 in tests).
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 1 {
                return vec![vec![0]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for pos in 0..n {
                    let mut q: Vec<usize> = p.iter().map(|&x| x + usize::from(x >= pos)).collect();
                    q.insert(0, pos);
                    // rotate: we built "pos first" variants of sub-perm
                    out.push(q);
                }
            }
            out
        }
        perms(n)
            .into_iter()
            .map(|p| assignment_cost(cost, n, &p))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn one_by_one() {
        assert_eq!(solve_assignment(&[42.0], 1), vec![0]);
    }

    #[test]
    fn picks_off_diagonal_when_cheaper() {
        // Diagonal is expensive.
        let cost = vec![10.0, 1.0, 1.0, 10.0];
        let a = solve_assignment(&cost, 2);
        assert_eq!(a, vec![1, 0]);
        assert_eq!(assignment_cost(&cost, 2, &a), 2.0);
    }

    #[test]
    fn known_3x3() {
        // Classic example: optimal cost 5 (0->1, 1->0, 2->2 or similar).
        let cost = vec![
            4.0, 1.0, 3.0, //
            2.0, 0.0, 5.0, //
            3.0, 2.0, 2.0,
        ];
        let a = solve_assignment(&cost, 3);
        assert_eq!(assignment_cost(&cost, 3, &a), 5.0);
    }

    #[test]
    fn assignment_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 12;
        let cost: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.0..10.0)).collect();
        let a = solve_assignment(&cost, n);
        let mut seen = vec![false; n];
        for &c in &a {
            assert!(!seen[c], "column assigned twice");
            seen[c] = true;
        }
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let n = rng.gen_range(2..=6);
            let cost: Vec<f64> = (0..n * n).map(|_| rng.gen_range(0.0..5.0)).collect();
            let a = solve_assignment(&cost, n);
            let got = assignment_cost(&cost, n, &a);
            let best = brute_force(&cost, n);
            assert!(
                (got - best).abs() < 1e-9,
                "trial {trial} n={n}: hungarian {got} vs brute {best}"
            );
        }
    }

    #[test]
    fn handles_negative_costs() {
        let cost = vec![-5.0, 0.0, 0.0, -5.0];
        let a = solve_assignment(&cost, 2);
        assert_eq!(assignment_cost(&cost, 2, &a), -10.0);
    }

    // Each of these spun forever before the guard (`delta` stays infinite,
    // the picked column stays 0).
    #[test]
    #[should_panic(expected = "assignment cost must be finite: cost[row 0][unit 0] = NaN")]
    fn a_row_of_nans_panics_instead_of_spinning() {
        solve_assignment(&[f64::NAN, f64::NAN, 1.0, 2.0], 2);
    }

    #[test]
    #[should_panic(expected = "assignment cost must be finite: cost[row 0][unit 0] = inf")]
    fn a_row_of_infinities_panics_instead_of_spinning() {
        solve_assignment(&[f64::INFINITY, f64::INFINITY, 1.0, 2.0], 2);
    }

    #[test]
    #[should_panic(expected = "assignment cost must be finite: cost[row 1][unit 0] = NaN")]
    fn the_first_non_finite_cell_is_named() {
        solve_capacitated(&[1.0, 2.0, f64::NAN, f64::INFINITY], 2, 2);
    }

    #[test]
    #[should_panic(expected = "assignment cost must be finite: cost[row 0][unit 1] = -inf")]
    fn the_oracle_refuses_non_finite_costs_too() {
        reference_assignment(&[1.0, f64::NEG_INFINITY, 1.0, 2.0], 2);
    }

    /// The `n x n` matrix [`solve_capacitated`] never builds: every unit's
    /// column once per slot.
    fn slot_expanded(cost: &[f64], n: usize, n_units: usize) -> Vec<f64> {
        let cap = n / n_units;
        (0..n * n)
            .map(|at| cost[at / n * n_units + at % n / cap])
            .collect()
    }

    /// An `n x n_units` gain table; `n_units` is the `units_draw`-th divisor
    /// of `n`, so 1 and `n` both come up. `kind` picks the cell
    /// distribution — small integers and count ratios repeat across cells
    /// (exact ties), reals do not, the last kind is signed — `zero_pct` of
    /// the cells are exact zeros, and about a third of the rows copy an
    /// earlier row or are all zero.
    fn gain_table(
        n: usize,
        units_draw: usize,
        kind: u32,
        zero_pct: u64,
        seed: u64,
    ) -> (Vec<f64>, usize) {
        let divisors: Vec<usize> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
        let n_units = divisors[units_draw % divisors.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gain = vec![0.0f64; n * n_units];
        for row in 0..n {
            match rng.gen_range(0..6) {
                0 if row > 0 => {
                    let from = rng.gen_range(0..row) * n_units;
                    gain.copy_within(from..from + n_units, row * n_units);
                    continue;
                }
                1 => continue,
                _ => {}
            }
            for cell in &mut gain[row * n_units..][..n_units] {
                if rng.gen_range(0..100u64) < zero_pct {
                    continue;
                }
                *cell = match kind {
                    0 => f64::from(rng.gen_range(1..4u32)),
                    1 => f64::from(rng.gen_range(1..6u32)) / f64::from(rng.gen_range(1..7u32)),
                    2 => rng.gen_range(0.0..1.0),
                    _ => rng.gen_range(-1.0..1.0),
                };
            }
        }
        (gain, n_units)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The oracle of [`solve_capacitated`]: the column-scanning loop on
        /// the slot-expanded matrix, compared slot for slot.
        #[test]
        fn capacitated_solver_returns_the_column_loops_slots(
            n in 1usize..=64,
            units_draw in 0usize..64,
            kind in 0u32..4,
            zero_pct in 0u64..=90,
            negate in 0u32..2,
            seed in 0u64..1_000_000,
        ) {
            let (mut cost, n_units) = gain_table(n, units_draw, kind, zero_pct, seed);
            if negate == 1 {
                // What `solve_greedy` passes: zero gains become `-0.0`.
                cost.iter_mut().for_each(|c| *c = -*c);
            }
            let want = reference_assignment(&slot_expanded(&cost, n, n_units), n);
            prop_assert_eq!(solve_capacitated(&cost, n, n_units), want);
        }

        /// ROADMAP 6d, first property, at the gap solver: integer gains, so
        /// every total is exact.
        #[test]
        fn gap_solver_is_balanced_optimal_and_label_invariant(
            n in 1usize..=24,
            units_draw in 0usize..24,
            zero_pct in 0u64..=90,
            seed in 0u64..1_000_000,
        ) {
            let (gain, n_units) = gain_table(n, units_draw, 0, zero_pct, seed);
            let cap = n / n_units;
            let solve = |gain: &[f64]| -> (Vec<usize>, f64) {
                let cost: Vec<f64> = gain.iter().map(|g| -g).collect();
                let units: Vec<usize> =
                    solve_capacitated(&cost, n, n_units).iter().map(|s| s / cap).collect();
                let total = units.iter().enumerate().map(|(r, &u)| gain[r * n_units + u]).sum();
                (units, total)
            };
            let (units, total) = solve(&gain);
            for unit in 0..n_units {
                prop_assert_eq!(units.iter().filter(|&&u| u == unit).count(), cap);
            }
            if n <= 6 {
                let cost: Vec<f64> = gain.iter().map(|g| -g).collect();
                prop_assert_eq!(-total, brute_force(&slot_expanded(&cost, n, n_units), n));
            }
            // Relabel the experts (rows), then the units (columns).
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            let shuffled = |len: usize, rng: &mut StdRng| -> Vec<usize> {
                random_placement(1, len, len, rng).layer(0).to_vec()
            };
            let rows = shuffled(n, &mut rng);
            let by_row: Vec<f64> =
                (0..n * n_units).map(|at| gain[rows[at / n_units] * n_units + at % n_units]).collect();
            prop_assert_eq!(solve(&by_row).1, total);
            let cols = shuffled(n_units, &mut rng);
            let by_col: Vec<f64> =
                (0..n * n_units).map(|at| gain[at / n_units * n_units + cols[at % n_units]]).collect();
            prop_assert_eq!(solve(&by_col).1, total);
        }
    }
}
