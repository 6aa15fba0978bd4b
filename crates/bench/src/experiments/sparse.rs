//! `table_sparse` — the CSR objective backend at the expert counts it
//! exists for: how small a share of the dense backend's cells it stores.
//! The sweep solves each cell once. The tests below re-run every cell on
//! the dense and the CSR backend and hold both to the sweep's bits.

use exflow_affinity::AffinitySnapshot;
use exflow_core::json::Json;
use exflow_model::presets::large_zoo;
use exflow_model::ModelConfig;
use exflow_placement::local_search::improve;
use exflow_placement::{Objective, Placement};

use crate::experiments::common::{profile, Workload, N_UNITS_LARGE};
use crate::sweep::par_map;
use crate::table::{num, text, Bars};

/// On the `E = 512`, top-1 cell the CSR backend must store (and a
/// `swap_delta` pass walk) at most one in this many of the dense backend's
/// cells: `density <= 1 / MIN_SPARSE_SPEEDUP_512` (the acceptance bar of
/// the sparse backend; 0.006443 today, one in 155).
pub const MIN_SPARSE_SPEEDUP_512: f64 = 2.0;

/// Layers of every profiled instance (scaled down from the preset).
const LAYERS: usize = 2;

/// The instance of `cfg`'s cell at `w`: a [`LAYERS`]-deep profile of its
/// expert count and gating fan-out, on its own stream of `w`'s seed.
fn instance(cfg: &ModelConfig, w: &Workload) -> AffinitySnapshot {
    let stream = w.seed ^ ((cfg.n_experts as u64) << 20) ^ cfg.gate.k() as u64;
    profile(LAYERS, cfg.n_experts, 3000, cfg.gate.k(), stream)
}

/// The bounded polish every cell runs on `objective`: one local-search
/// pass from round-robin, as its final cross mass and placement.
fn polish(objective: &Objective) -> (f64, Placement) {
    let (layers, e) = (objective.n_layers(), objective.n_experts());
    let mut placement = Placement::round_robin(layers, e, N_UNITS_LARGE);
    (improve(objective, &mut placement, 1), placement)
}

/// The `table_sparse` sweep: the large-expert zoo (`E = 256/512`, top-1
/// and top-2), each instance solved once on the default backend, which
/// stores these sparse gaps as CSR. Each row records nnz and density, the
/// share of the dense backend's cells the CSR backend stores and walks,
/// and the cross mass of the bounded polish. The dense backend's pass over
/// the same cells is `tests::every_cell_is_the_same_on_both_backends`
/// (and its paper-size twin).
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    Ok(par_map(large_zoo(), |cfg| {
        let objective = Objective::from_snapshot(&instance(&cfg, w));
        let (cross_mass, _) = polish(&objective);
        Json::obj(vec![
            // Large-zoo preset name.
            ("preset", cfg.name.as_str().into()),
            // Experts per layer.
            ("experts", cfg.n_experts.into()),
            // Gating fan-out the instance was sampled with.
            ("k", cfg.gate.k().into()),
            // Layers of the profiled instance (scaled down from the preset).
            ("layers", LAYERS.into()),
            // Structural nonzeros across the instance's gap matrices
            // (backend-independent, deterministic).
            ("nnz", objective.nnz().into()),
            // `nnz` over the dense cell count.
            ("density", Json::Fixed(objective.density(), 6)),
            // Final cross mass of the polish.
            ("cross_mass", cross_mass.into()),
        ])
    }))
}

/// The sparse backend's win on the E=512 top-1 cell, as the count it is:
/// the CSR backend stores at most `1 / MIN_SPARSE_SPEEDUP_512` of the
/// dense backend's cells.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for f in rows {
        let density = num(f, "density");
        if num(f, "experts") == 512.0
            && num(f, "k") == 1.0
            && density * MIN_SPARSE_SPEEDUP_512 > 1.0
        {
            bars.fail(format!(
                "sparse backend on {} stores {density} of the dense cells, above the \
                 1/{MIN_SPARSE_SPEEDUP_512:.0} acceptance bar",
                text(f, "preset")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use exflow_placement::GapBackend;

    use super::*;
    use crate::experiments::common::{FIXTURE, PAPER};

    /// What a cell computes that one backend must reproduce on the other,
    /// floats as their bits: the polish, the objective's size, and the
    /// exact gain of every swap candidate of the round-robin start.
    /// `swap_delta` is where the backends differ (`O(E)` flat vs `O(nnz)`
    /// indexed per call), and what annealing and the walks' exact
    /// decisions pay; the polish prices candidates from the attraction
    /// table. Each gain is kept, not summed: a sum absorbs a one-ulp error
    /// in most of its terms.
    #[derive(PartialEq)]
    struct Pass {
        cost: u64,
        placement: Placement,
        deltas: Vec<u64>,
        nnz: usize,
        density: u64,
    }

    fn pass(objective: &Objective) -> Pass {
        let (layers, e) = (objective.n_layers(), objective.n_experts());
        let start = Placement::round_robin(layers, e, N_UNITS_LARGE);
        let mut deltas = Vec::new();
        for layer in 0..layers {
            for e1 in 0..e {
                for e2 in (e1 + 1)..e {
                    deltas.push(objective.swap_delta(&start, layer, e1, e2).to_bits());
                }
            }
        }
        let (cost, placement) = polish(objective);
        Pass {
            cost: cost.to_bits(),
            placement,
            deltas,
            nnz: objective.nnz(),
            density: objective.density().to_bits(),
        }
    }

    /// Every cell of the sweep at `w` is the same pass on the dense and
    /// the CSR backend as on the default one the sweep solves on.
    fn cells_are_the_same_on_both_backends(w: &Workload) {
        for cfg in large_zoo() {
            let snapshot = instance(&cfg, w);
            let on = |backend| pass(&Objective::from_snapshot_with(&snapshot, backend));
            let reference = on(GapBackend::Auto);
            for backend in [GapBackend::Dense, GapBackend::Sparse] {
                let other = on(backend);
                let at = (other.deltas.iter().zip(&reference.deltas)).position(|(a, b)| a != b);
                assert!(
                    other == reference,
                    "backend divergence on {}: {backend:?} vs Auto, polish cost {} vs {}, \
                     first differing swap gain {at:?}",
                    cfg.name,
                    f64::from_bits(other.cost),
                    f64::from_bits(reference.cost)
                );
            }
        }
    }

    #[test]
    fn every_cell_is_the_same_on_both_backends() {
        cells_are_the_same_on_both_backends(&FIXTURE);
    }

    #[test]
    #[ignore = "paper size: CI runs it on the release profile"]
    fn every_paper_cell_is_the_same_on_both_backends() {
        cells_are_the_same_on_both_backends(&PAPER);
    }
}
