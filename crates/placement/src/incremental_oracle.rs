//! Test oracle for the table-driven walks: the rescan walks that evaluate
//! every considered candidate with an exact [`Objective::swap_delta`] call
//! (the code the attraction table replaced), and the properties that hold
//! the two to the same swap sequence.
//!
//! A [`SwapGainCache`] built by [`SwapGainCache::reference`] routes the
//! three walks here, so a whole solver — `solve_budgeted_metered`,
//! `solve_budgeted_replicated_metered` — runs on either implementation
//! from the same public entry point. Both log every accepted swap in the
//! buffer's [`Probe`].

use super::*;

/// Test-only state of a [`SwapGainCache`]: which implementation the walks
/// run, and every swap they accepted, in order.
#[derive(Debug, Clone, Default)]
pub(super) struct Probe {
    pub reference: bool,
    pub swaps: Vec<Swap>,
}

impl SwapGainCache {
    /// A buffer whose walks are the rescan reference.
    fn reference(objective: &Objective) -> Self {
        let mut table = Self::for_objective(objective);
        table.probe.reference = true;
        table
    }
}

/// Reference for [`improve_metered`].
pub(super) fn improve(
    objective: &Objective,
    placement: &mut Placement,
    max_passes: usize,
    meter: &mut CostMeter,
    table: &mut SwapGainCache,
) -> f64 {
    let e = objective.n_experts();
    let l = objective.n_layers();
    'passes: for _ in 0..max_passes {
        let mut improved = false;
        for layer in 0..l {
            for e1 in 0..e {
                for e2 in (e1 + 1)..e {
                    if !meter.try_consider() {
                        break 'passes;
                    }
                    let delta = meter.exact_delta(objective, placement, (layer, e1, e2));
                    if delta < -1e-12 {
                        placement.swap(layer, e1, e2);
                        table.probe.swaps.push((layer, e1, e2));
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    objective.cross_mass(placement)
}

/// Reference for [`budgeted_walk`]: the two walks it merged.
pub(super) fn walk(
    objective: &Objective,
    incumbent: &Placement,
    target: Option<&Placement>,
    max_moves: u64,
    meter: &mut CostMeter,
    table: &mut SwapGainCache,
) -> Placement {
    match target {
        None => descent(objective, incumbent, max_moves, meter, table),
        Some(target) => toward(objective, incumbent, target, max_moves, meter, table),
    }
}

fn descent(
    objective: &Objective,
    incumbent: &Placement,
    max_moves: u64,
    meter: &mut CostMeter,
    table: &mut SwapGainCache,
) -> Placement {
    let e = objective.n_experts();
    let l = objective.n_layers();
    let mut placement = incumbent.clone();
    loop {
        let mut best: Option<(f64, usize, usize, usize)> = None;
        let mut exhausted = false;
        'scan: for layer in 0..l {
            for e1 in 0..e {
                for e2 in (e1 + 1)..e {
                    if !meter.try_consider() {
                        exhausted = true;
                        break 'scan;
                    }
                    let delta = meter.exact_delta(objective, &placement, (layer, e1, e2));
                    if delta < -1e-12 && best.is_none_or(|(b, _, _, _)| delta < b) {
                        best = Some((delta, layer, e1, e2));
                    }
                }
            }
        }
        let Some((_, layer, e1, e2)) = best else {
            break;
        };
        let mut next = placement.clone();
        next.swap(layer, e1, e2);
        if net_moves(incumbent, &next) > max_moves {
            break;
        }
        placement = next;
        table.probe.swaps.push((layer, e1, e2));
        if exhausted {
            break;
        }
    }
    placement
}

fn toward(
    objective: &Objective,
    incumbent: &Placement,
    target: &Placement,
    max_moves: u64,
    meter: &mut CostMeter,
    table: &mut SwapGainCache,
) -> Placement {
    let e = objective.n_experts();
    let l = objective.n_layers();
    let mut placement = incumbent.clone();
    let mut best = (objective.cross_mass(&placement), placement.clone());
    loop {
        let mut pick: Option<(f64, usize, usize, usize)> = None;
        let mut exhausted = false;
        'scan: for layer in 0..l {
            for e1 in 0..e {
                let want = target.unit_of(layer, e1);
                if placement.unit_of(layer, e1) == want {
                    continue;
                }
                for e2 in 0..e {
                    if e2 != e1
                        && placement.unit_of(layer, e2) == want
                        && target.unit_of(layer, e2) != want
                    {
                        if !meter.try_consider() {
                            exhausted = true;
                            break 'scan;
                        }
                        let delta = meter.exact_delta(objective, &placement, (layer, e1, e2));
                        if pick.is_none_or(|(b, _, _, _)| delta < b) {
                            pick = Some((delta, layer, e1, e2));
                        }
                    }
                }
            }
        }
        let Some((_, layer, e1, e2)) = pick else {
            break;
        };
        let mut next = placement.clone();
        next.swap(layer, e1, e2);
        if net_moves(incumbent, &next) > max_moves {
            break;
        }
        placement = next;
        table.probe.swaps.push((layer, e1, e2));
        let cost = objective.cross_mass(&placement);
        if cost < best.0 {
            best = (cost, placement.clone());
        }
        if exhausted {
            break;
        }
    }
    best.1
}

mod properties {
    use super::*;
    use crate::local_search::random_placement;
    use crate::objective::GapBackend;
    use exflow_affinity::AffinityMatrix;
    use exflow_topology::ClusterSpec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random instance on both backends plus a random start placement.
    ///
    /// `counts = true` draws small integer transition counts (about a
    /// fifth of the source experts never observed): the weights
    /// `row / total` and probabilities `cell / row` then repeat across
    /// experts, which produces exact delta ties, and the unobserved rows
    /// carry stored cells under a zero marginal weight. `counts = false`
    /// draws unnormalised real cells under uniform weights.
    fn instance(
        layers: usize,
        e: usize,
        units: usize,
        counts: bool,
        density_pct: u64,
        seed: u64,
    ) -> ([Objective; 2], Placement) {
        let mut rng = StdRng::seed_from_u64(seed);
        let objectives = if counts && layers > 1 {
            let mats: Vec<AffinityMatrix> = (0..layers - 1)
                .map(|gap| {
                    let mut cells = vec![0u64; e * e];
                    for i in 0..e {
                        if rng.gen_range(0..5) == 0 {
                            continue;
                        }
                        for p in 0..e {
                            if rng.gen_range(0..100u64) < density_pct {
                                cells[i * e + p] = rng.gen_range(1..4);
                            }
                        }
                    }
                    AffinityMatrix::from_counts(cells, e, gap, gap + 1)
                })
                .collect();
            [GapBackend::Dense, GapBackend::Sparse]
                .map(|backend| Objective::from_affinities_with(&mats, backend))
        } else {
            let gaps: Vec<Vec<f64>> = (0..layers - 1)
                .map(|_| {
                    (0..e * e)
                        .map(|_| {
                            let keep = rng.gen_range(0..100u64) < density_pct;
                            f64::from(keep) * rng.gen_range(0.0..1.0)
                        })
                        .collect()
                })
                .collect();
            [GapBackend::Dense, GapBackend::Sparse]
                .map(|backend| Objective::from_raw_with(gaps.clone(), e, backend))
        };
        let start = random_placement(layers, e, units, &mut rng);
        (objectives, start)
    }

    /// Shapes `(layers, experts, units)` drawn by index. The last two have
    /// rows long enough for the descent's row bound to skip some and keep
    /// others, and units crowded enough for the toward-target partner lists
    /// to hold several experts.
    const SHAPES: [(usize, usize, usize); 8] = [
        (1, 8, 4),
        (2, 6, 3),
        (2, 12, 4),
        (4, 8, 2),
        (4, 8, 4),
        (2, 16, 8),
        (2, 24, 4),
        (3, 32, 8),
    ];

    /// Run `walk` once on a table-driven buffer and once on the reference
    /// one; assert both accept the same swaps and report the same
    /// considered / truncated, and return the table-driven result and cost.
    fn same_walk<R: PartialEq + std::fmt::Debug>(
        objective: &Objective,
        scan_budget: u64,
        walk: impl Fn(&mut CostMeter, &mut SwapGainCache) -> R,
    ) -> (R, ReplanCost) {
        let mut table = SwapGainCache::for_objective(objective);
        let mut reference = SwapGainCache::reference(objective);
        let (mut m_table, mut m_ref) = (CostMeter::new(scan_budget), CostMeter::new(scan_budget));
        let got = walk(&mut m_table, &mut table);
        let want = walk(&mut m_ref, &mut reference);
        assert_eq!(table.probe.swaps, reference.probe.swaps, "swap sequence");
        assert_eq!(got, want, "result");
        let (c_table, c_ref) = (m_table.cost(), m_ref.cost());
        assert_eq!(c_table.considered, c_ref.considered);
        assert_eq!(c_table.truncated, c_ref.truncated);
        assert_eq!(c_ref.evaluated, c_ref.considered, "reference evaluates all");
        assert_eq!(c_table.evaluated + c_table.reused, c_table.considered);
        (got, c_table)
    }

    /// A scan budget from a draw: unlimited, a finite cut that lands
    /// anywhere from the first candidate to a few full scans in, or one at
    /// the end of a whole descent row `(layer, e1)` give or take a
    /// candidate — where a row charged in bulk must stop exactly as a row
    /// charged one candidate at a time.
    fn scan_budget(draw: u64, layers: usize, e: usize) -> u64 {
        let scan = (layers * e * (e - 1) / 2) as u64;
        let (kind, draw) = (draw % 4, draw / 4);
        match kind {
            0 => u64::MAX,
            1 => {
                let rows = (layers * e) as u64;
                let (k, nudge) = (draw % (3 * rows + 1), draw / (3 * rows + 1) % 3);
                let in_layer = k % e as u64;
                let whole_rows = k / rows * scan
                    + k % rows / e as u64 * (scan / layers as u64)
                    + (0..in_layer).map(|e1| e as u64 - e1 - 1).sum::<u64>();
                (whole_rows + nudge).saturating_sub(1)
            }
            _ => draw % (4 * scan + 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn table_walks_accept_the_reference_swap_sequence(
            shape in 0usize..8,
            counts in 0u64..2,
            density_pct in 15u64..100,
            max_moves in 0u64..12,
            budget_draw in 0u64..100_000,
            seed in 0u64..10_000,
        ) {
            let (layers, e, units) = SHAPES[shape];
            let (objectives, start) = instance(layers, e, units, counts == 1, density_pct, seed);
            let scan = scan_budget(budget_draw, layers, e);
            let target = random_placement(layers, e, units, &mut StdRng::seed_from_u64(seed ^ 1));
            let mut results = Vec::new();
            for obj in &objectives {
                let polished = same_walk(obj, scan, |meter, table| {
                    let mut p = start.clone();
                    let cost = improve_metered(obj, &mut p, 50, meter, Some(table));
                    (p, cost.to_bits())
                });
                let descent = same_walk(obj, scan, |meter, table| {
                    budgeted_walk(obj, &start, None, max_moves, meter, Some(table))
                });
                let toward = same_walk(obj, scan, |meter, table| {
                    budgeted_walk(obj, &start, Some(&target), max_moves, meter, Some(table))
                });
                let solved = same_walk(obj, scan, |meter, table| {
                    solve_budgeted_with_meter(obj, &start, max_moves, meter, Some(table))
                });
                results.push((polished, descent, toward, solved));
            }
            // Exact deltas are bit-identical across backends, so the whole
            // outcome is too — exact-call counts included.
            prop_assert_eq!(&results[0], &results[1]);
        }

        #[test]
        fn replicated_solve_matches_the_reference_under_each_policy(
            shape in 2usize..8,
            counts in 0u64..2,
            density_pct in 15u64..100,
            mem_slots in 0u64..4,
            move_slots in 0u64..10,
            budget_draw in 0u64..100_000,
            seed in 0u64..10_000,
        ) {
            let (layers, e, units) = SHAPES[shape];
            let (objectives, start) = instance(layers, e, units, counts == 1, density_pct, seed);
            let mut lists = vec![Vec::new(); layers];
            lists[layers - 1] = vec![seed as usize % e];
            let incumbent = ReplicationPlan::everywhere(start, lists);
            let budget = ReplicationBudget {
                replica_memory_bytes: mem_slots * 10,
                migration_budget_bytes: move_slots * 10,
            };
            let cluster = ClusterSpec::new(2, units / 2).unwrap();
            for policy in [ReplicaPolicy::Everywhere, ReplicaPolicy::OnePerNode(cluster)] {
                for obj in &objectives {
                    let solve = |cache: &mut SwapGainCache| {
                        solve_budgeted_replicated_metered(
                            obj,
                            &incumbent,
                            10,
                            &budget,
                            &policy,
                            scan_budget(budget_draw, layers, e),
                            Some(cache),
                        )
                    };
                    let mut table = SwapGainCache::for_objective(obj);
                    let mut reference = SwapGainCache::reference(obj);
                    let (got, c_table) = solve(&mut table);
                    let (want, c_ref) = solve(&mut reference);
                    prop_assert_eq!(&table.probe.swaps, &reference.probe.swaps);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(c_table.considered, c_ref.considered);
                    prop_assert_eq!(c_table.truncated, c_ref.truncated);
                }
            }
        }

        /// The two layer scans against the loops they replaced: every pair
        /// `e1 < e2` offered row by row, and every off-target expert's row
        /// filtered down to its partners. `upper` starts at each negative
        /// `approx - tol` the layer holds — where a row bound loose by the
        /// width of one band, or compared with `<`, skips a row that held
        /// a candidate — under an unlimited budget and a finite one.
        #[test]
        fn layer_scans_keep_and_charge_what_the_full_scans_do(
            shape in 0usize..8,
            counts in 0u64..2,
            density_pct in 15u64..100,
            seed in 0u64..10_000,
        ) {
            let (layers, e, n_units) = SHAPES[shape];
            let (objectives, start) = instance(layers, e, n_units, counts == 1, density_pct, seed);
            let target = random_placement(layers, e, n_units, &mut StdRng::seed_from_u64(seed ^ 1));
            let obj = &objectives[seed as usize % 2];
            let mut table = SwapGainCache::for_objective(obj);
            table.load(obj, &start);
            let fresh = |upper: f64, budget: u64| {
                (Shortlist { kept: Vec::new(), upper }, CostMeter::new(budget))
            };
            for layer in 0..layers {
                let (units, wanted) = (start.layer(layer), target.layer(layer));
                let pairs = |e1: usize| table.candidates(units, (layer, e1, e1 + 1));
                let mut uppers = vec![IMPROVES];
                for e1 in 0..e {
                    uppers.extend(pairs(e1).map(|(_, approx, tol)| approx - tol).filter(|&x| x < 0.0));
                }
                for (k, &upper) in uppers.iter().enumerate() {
                    let budget = [u64::MAX, (k * 37 % (e * e / 2 + 2)) as u64][k % 2];
                    let (mut pruned, mut m_pruned) = fresh(upper, budget);
                    let (mut full, mut m_full) = fresh(upper, budget);
                    let got = pruned.offer_pairs(&table, units, layer, &mut m_pruned);
                    let want = (0..e).all(|e1| full.offer_row(pairs(e1), (layer, e1), &mut m_full));
                    prop_assert_eq!((got, &pruned, m_pruned.cost()), (want, &full, m_full.cost()));
                }
                for budget in [u64::MAX, seed % (e * n_units) as u64] {
                    let (mut listed, mut m_listed) = fresh(f64::INFINITY, budget);
                    let (mut full, mut m_full) = fresh(f64::INFINITY, budget);
                    let got = listed.offer_trades(&table, units, wanted, layer, &mut m_listed);
                    let want = (0..e).filter(|&e1| wanted[e1] != units[e1]).all(|e1| {
                        let row = table.candidates(units, (layer, e1, 0)).filter(|&(e2, _, _)| {
                            units[e2] == wanted[e1] && wanted[e2] != units[e2]
                        });
                        full.offer_row(row, (layer, e1), &mut m_full)
                    });
                    prop_assert_eq!((got, &listed, m_listed.cost()), (want, &full, m_full.cost()));
                }
            }
        }

        #[test]
        fn table_delta_is_within_the_rounding_bound_and_refresh_is_exact(
            shape in 0usize..8,
            counts in 0u64..2,
            density_pct in 15u64..100,
            seed in 0u64..10_000,
        ) {
            let (layers, e, units) = SHAPES[shape];
            let (objectives, start) = instance(layers, e, units, counts == 1, density_pct, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 2);
            for obj in &objectives {
                let mut placement = start.clone();
                let mut table = SwapGainCache::for_objective(obj);
                table.load(obj, &placement);
                for _ in 0..6 {
                    for layer in 0..layers {
                        for e1 in 0..e {
                            let units = placement.layer(layer);
                            let all = table.candidates(units, (layer, e1, 0));
                            for (e2, approx, tol) in all {
                                let exact = obj.swap_delta(&placement, layer, e1, e2);
                                prop_assert!(
                                    (approx - exact).abs() <= tol,
                                    "({layer}, {e1}, {e2}): table {approx} vs exact {exact}, tol {tol}"
                                );
                            }
                        }
                    }
                    // Any swap, improving or not: the refreshed table must
                    // equal a fresh build bit for bit.
                    let swap = (rng.gen_range(0..layers), rng.gen_range(0..e), rng.gen_range(0..e));
                    placement.swap(swap.0, swap.1, swap.2);
                    table.refresh(obj, &placement, swap);
                    let mut fresh = SwapGainCache::for_objective(obj);
                    fresh.load(obj, &placement);
                    let bits = |t: &SwapGainCache| -> Vec<u64> {
                        t.attraction.iter().map(|x| x.to_bits()).collect()
                    };
                    prop_assert_eq!(bits(&table), bits(&fresh));
                }
            }
        }
    }
}
