//! The placement data structure: which unit (GPU or node) holds which
//! expert at each layer.

/// A balanced assignment of experts to `n_units` units for every layer.
///
/// This is the solution variable `x^p_{i,j}` of the paper's ILP in dense
/// form: `unit_of(layer, expert)` is the unit `p` with `x^p_{expert,layer} =
/// 1`. Constraints (formulas 9–10) are enforced structurally: every
/// constructor validates that each unit holds exactly `E / P` experts per
/// layer and that every expert is owned by exactly one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    n_units: usize,
    /// `assign[layer][expert]` = owning unit.
    assign: Vec<Vec<usize>>,
}

impl Placement {
    /// Build from an explicit assignment table, validating balance.
    pub fn new(assign: Vec<Vec<usize>>, n_units: usize) -> Self {
        assert!(!assign.is_empty(), "placement needs at least one layer");
        assert!(n_units >= 1);
        let e = assign[0].len();
        assert!(
            e >= n_units && e.is_multiple_of(n_units),
            "experts ({e}) must be a positive multiple of units ({n_units})"
        );
        let cap = e / n_units;
        for (layer, row) in assign.iter().enumerate() {
            assert_eq!(row.len(), e, "layer {layer} has wrong expert count");
            let mut loads = vec![0usize; n_units];
            for &u in row {
                assert!(u < n_units, "layer {layer}: unit {u} out of range");
                loads[u] += 1;
            }
            assert!(
                loads.iter().all(|&l| l == cap),
                "layer {layer} violates load balance: {loads:?}"
            );
        }
        Placement { n_units, assign }
    }

    /// Build from an explicit assignment table *without* the per-unit
    /// balance check, for degraded fleets: after a GPU loss the failed
    /// unit owns nothing and the survivors run over capacity until the
    /// fleet heals. Shape and unit-range are still validated. The
    /// budgeted online solvers mutate placements only through balance-
    /// *preserving* [`Placement::swap`]s, so a degraded placement stays
    /// evacuated through any number of re-plans.
    pub fn new_degraded(assign: Vec<Vec<usize>>, n_units: usize) -> Self {
        assert!(!assign.is_empty(), "placement needs at least one layer");
        assert!(n_units >= 1);
        let e = assign[0].len();
        assert!(e >= 1, "placement needs at least one expert");
        for (layer, row) in assign.iter().enumerate() {
            assert_eq!(row.len(), e, "layer {layer} has wrong expert count");
            for &u in row {
                assert!(u < n_units, "layer {layer}: unit {u} out of range");
            }
        }
        Placement { n_units, assign }
    }

    /// The vanilla (DeepSpeed-MoE) placement: expert `i` lives on unit
    /// `i / capacity` at every layer — experts are packed contiguously by
    /// rank, with no awareness of inter-layer affinity.
    pub fn round_robin(n_layers: usize, n_experts: usize, n_units: usize) -> Self {
        assert!(n_experts.is_multiple_of(n_units));
        let cap = n_experts / n_units;
        let row: Vec<usize> = (0..n_experts).map(|i| i / cap).collect();
        Placement::new(vec![row; n_layers], n_units)
    }

    /// Number of units (GPUs or nodes).
    pub fn n_units(&self) -> usize {
        self.n_units
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.assign.len()
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.assign[0].len()
    }

    /// The unit holding `expert` at `layer`.
    #[inline]
    pub fn unit_of(&self, layer: usize, expert: usize) -> usize {
        self.assign[layer][expert]
    }

    /// All experts held by `unit` at `layer`, ascending.
    pub fn experts_on(&self, layer: usize, unit: usize) -> Vec<usize> {
        self.assign[layer]
            .iter()
            .enumerate()
            .filter_map(|(e, &u)| (u == unit).then_some(e))
            .collect()
    }

    /// One layer's assignment row.
    pub fn layer(&self, layer: usize) -> &[usize] {
        &self.assign[layer]
    }

    /// Swap the units of two experts within a layer (keeps balance).
    pub fn swap(&mut self, layer: usize, e1: usize, e2: usize) {
        self.assign[layer].swap(e1, e2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_contiguous() {
        let p = Placement::round_robin(3, 8, 4);
        assert_eq!(p.layer(0), &[0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(p.experts_on(0, 3).len(), 2);
        assert_eq!(p.unit_of(2, 5), 2);
    }

    #[test]
    fn experts_on_returns_owned_set() {
        let p = Placement::round_robin(2, 8, 2);
        assert_eq!(p.experts_on(0, 0), vec![0, 1, 2, 3]);
        assert_eq!(p.experts_on(1, 1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn swap_preserves_balance() {
        let mut p = Placement::round_robin(2, 4, 2);
        p.swap(0, 0, 3);
        assert_eq!(p.unit_of(0, 0), 1);
        assert_eq!(p.unit_of(0, 3), 0);
        // Re-validating through the constructor must not panic.
        let _ = Placement::new((0..2).map(|l| p.layer(l).to_vec()).collect(), 2);
    }

    #[test]
    #[should_panic(expected = "load balance")]
    fn unbalanced_rejected() {
        let _ = Placement::new(vec![vec![0, 0, 0, 1]], 2);
    }

    #[test]
    fn degraded_constructor_accepts_evacuated_units() {
        // Unit 1 owns nothing (it failed); `new` would reject this exact
        // table, the degraded constructor must not.
        let p = Placement::new_degraded(vec![vec![0, 0, 2, 2], vec![2, 0, 0, 2]], 3);
        assert_eq!(p.n_units(), 3);
        assert_eq!(p.experts_on(0, 1), Vec::<usize>::new());
        assert_eq!(p.experts_on(0, 0), vec![0, 1]);
        assert_eq!(p.unit_of(1, 0), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degraded_constructor_still_validates_unit_range() {
        let _ = Placement::new_degraded(vec![vec![0, 3]], 3);
    }

    #[test]
    #[should_panic(expected = "wrong expert count")]
    fn degraded_constructor_still_validates_row_shape() {
        let _ = Placement::new_degraded(vec![vec![0, 1], vec![0]], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_unit_rejected() {
        let _ = Placement::new(vec![vec![0, 2]], 2);
    }

    #[test]
    #[should_panic(expected = "multiple of units")]
    fn non_divisible_rejected() {
        let _ = Placement::new(vec![vec![0, 1, 0]], 2);
    }
}
