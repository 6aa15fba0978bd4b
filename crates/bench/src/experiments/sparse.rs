//! `table_sparse` — the CSR objective backend against the dense one, at
//! the expert counts the CSR backend exists for.

use exflow_core::json::Json;
use exflow_model::presets::large_zoo;
use exflow_model::ModelConfig;
use exflow_placement::local_search::improve;
use exflow_placement::{Objective, Placement};

use crate::experiments::common::{on_both_backends, profile, Bits, Workload, N_UNITS_LARGE};
use crate::sweep::par_map;
use crate::table::{num, text, Bars};

/// On the `E = 512`, top-1 cell the CSR backend must store (and a
/// `swap_delta` pass walk) at most one in this many of the dense backend's
/// cells: `density <= 1 / MIN_SPARSE_SPEEDUP_512` (the acceptance bar of
/// the sparse backend; 0.006443 today, one in 155).
pub const MIN_SPARSE_SPEEDUP_512: f64 = 2.0;

/// Measure one `table_sparse` cell: profile a large-expert instance,
/// build the objective once per backend from the same CSR estimates, sum
/// one exact `swap_delta` pass over every swap candidate on each, run the
/// same bounded polish on each, and verify the results are identical.
fn cell(cfg: &ModelConfig, seed: u64) -> Result<Json, String> {
    let e = cfg.n_experts;
    let k = cfg.gate.k();
    let layers = 2;
    let snapshot = profile(layers, e, 3000, k, seed);

    /// What one backend's pass must reproduce bit for bit on the other.
    #[derive(PartialEq)]
    struct Pass {
        cost: Bits,
        scan: Bits,
        placement: Placement,
        nnz: usize,
        density: Bits,
    }
    let run = |objective: &Objective| {
        let mut placement = Placement::round_robin(layers, e, N_UNITS_LARGE);
        // The exact gain of every swap candidate once: `swap_delta` is
        // where the backends differ (`O(E)` flat vs `O(nnz)` indexed per
        // call), and what annealing and the walks' exact decisions pay.
        // The polish below prices candidates from the attraction table.
        let mut scan = 0.0f64;
        for layer in 0..layers {
            for e1 in 0..e {
                for e2 in (e1 + 1)..e {
                    scan += objective.swap_delta(&placement, layer, e1, e2);
                }
            }
        }
        Pass {
            cost: Bits(improve(objective, &mut placement, 1)),
            scan: Bits(scan),
            placement,
            nnz: objective.nnz(),
            density: Bits(objective.density()),
        }
    };
    let pass = on_both_backends(&snapshot, run, |dense, sparse| {
        format!(
            "backend divergence on {}: dense {} vs sparse {}",
            cfg.name, dense.cost.0, sparse.cost.0
        )
    })?;

    Ok(Json::obj(vec![
        // Large-zoo preset name.
        ("preset", cfg.name.as_str().into()),
        // Experts per layer.
        ("experts", e.into()),
        // Gating fan-out the instance was sampled with.
        ("k", k.into()),
        // Layers of the profiled instance (scaled down from the preset).
        ("layers", layers.into()),
        // Structural nonzeros across the instance's gap matrices
        // (backend-independent, deterministic).
        ("nnz", pass.nnz.into()),
        // `nnz` over the dense cell count.
        ("density", Json::Fixed(pass.density.0, 6)),
        // Final cross mass (bit-identical across backends — verified).
        ("cross_mass", pass.cost.0.into()),
    ]))
}

/// The `table_sparse` sweep: the large-expert zoo (`E = 256/512`, top-1
/// and top-2) solved once per objective backend (dense `E x E` vs CSR),
/// verifying the two produce identical placements, bit-identical cross
/// mass and the same sum over one exact `swap_delta` pass of every swap
/// candidate, and recording nnz/density per cell — the share of the dense
/// cells the CSR backend stores and walks. Errors if any cell's backends
/// diverge.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    let cells = par_map(large_zoo(), |cfg| {
        let stream = w.seed ^ ((cfg.n_experts as u64) << 20) ^ cfg.gate.k() as u64;
        cell(&cfg, stream)
    });
    cells.into_iter().collect()
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
