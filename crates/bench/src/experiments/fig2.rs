//! Fig. 2 — heatmaps of inter-layer expert routing preference on the
//! 12-layer, 32-expert profiling model, plus the appendix Figs. 14–16
//! (affinity from a layer to *all* later layers).
//!
//! The heatmaps are ASCII art, not rows, so `fig2` is a plain printer;
//! the gap study is the `fig14` entry of `crate::table::TABLES`.

use exflow_affinity::{metrics, AffinityMatrix, RoutingTrace};
use exflow_core::json::Json;
use exflow_model::presets::heatmap_model;
use exflow_model::routing::AffinityModelSpec;
use exflow_model::{CorpusSpec, TokenBatch};

use crate::experiments::common::Workload;
use crate::table::{int, num, series, Bars};

/// One heatmap: the conditional matrix plus summary stats.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Earlier layer.
    pub from_layer: usize,
    /// Later layer.
    pub to_layer: usize,
    /// The estimated conditional matrix.
    pub matrix: AffinityMatrix,
    /// Mean top-1 conditional mass (row "redness").
    pub top1_mass: f64,
    /// Normalized affinity score at k=3.
    pub score: f64,
}

fn profile_trace() -> RoutingTrace {
    let model = heatmap_model();
    let spec = AffinityModelSpec::new(model.n_layers, model.n_experts);
    let routing = spec.build();
    let corpus = CorpusSpec::pile_proxy(spec.n_domains);
    let batch = TokenBatch::sample(&routing, &corpus, 20_000, 1, 31);
    RoutingTrace::from_batch(&batch, model.n_experts)
}

/// The four consecutive-layer pairs Fig. 2 shows (paper labels layers
/// 1-based: "layer 0 and 1", ..., "layer 11 and 12").
pub fn heatmaps() -> Vec<Heatmap> {
    let trace = profile_trace();
    [(0usize, 1usize), (3, 4), (7, 8), (10, 11)]
        .into_iter()
        .map(|(a, b)| {
            let matrix = AffinityMatrix::from_trace(&trace, a, b);
            Heatmap {
                from_layer: a,
                to_layer: b,
                top1_mass: metrics::mean_top1_mass(&matrix),
                score: metrics::affinity_score(&matrix, 3),
                matrix,
            }
        })
        .collect()
}

/// Print the heatmaps (ASCII) and their summary stats.
pub fn print() {
    println!("Fig 2: inter-layer expert affinity heatmaps (32 experts, 12 layers)");
    println!("shade scale: ' ' < '.' < ':' < '+' < '#' < '@' (vs uniform)\n");
    for h in heatmaps() {
        println!(
            "Layer {} -> Layer {}   mean top-1 mass {:.3}, affinity score {:.3}",
            h.from_layer, h.to_layer, h.top1_mass, h.score
        );
        println!("{}", h.matrix.ascii_heatmap());
    }
}

/// Appendix Figs. 14–16: affinity from layers {0,3,7,10} to all later
/// layers, summarized by top-1 mass per gap — one row per layer pair.
pub fn gap_sweep(_: &Workload) -> Result<Vec<Json>, String> {
    let trace = profile_trace();
    let pairs = [0usize, 3, 7, 10]
        .into_iter()
        .flat_map(|from| (from + 1..trace.n_layers()).map(move |to| (from, to)));
    Ok(pairs
        .map(|(from, to)| {
            let m = AffinityMatrix::from_trace(&trace, from, to);
            Json::obj(vec![
                // Earlier layer.
                ("from_layer", from.into()),
                // Later layer.
                ("to_layer", to.into()),
                // Mean top-1 conditional mass between the two.
                ("top1_mass", metrics::mean_top1_mass(&m).into()),
            ])
        })
        .collect())
}

/// Consecutive layers are the most predictive; far layers decay toward
/// uniform (what the appendix heatmaps show).
pub(crate) fn gap_bars(rows: &[Json], bars: &mut Bars) {
    for series in series(rows, &["from_layer"]).filter(|s| s.len() >= 3) {
        let (near, far) = (&series[0], &series[series.len() - 1]);
        let (first, last) = (num(near, "top1_mass"), num(far, "top1_mass"));
        let what = format!("gap-1 mass {first} should exceed max-gap mass {last}");
        bars.fail_if(far, first <= last, what);
    }
}

/// The gap study as printed: one line per origin layer.
pub fn render_gaps(rows: &[Json]) -> String {
    let mut out =
        String::from("Figs 14-16: affinity from layer j to all later layers (mean top-1 mass)\n\n");
    for series in series(rows, &["from_layer"]) {
        out.push_str(&format!("layer {:2} ->", int(&series[0], "from_layer")));
        for r in series {
            let (to, mass) = (int(r, "to_layer"), num(r, "top1_mass"));
            out.push_str(&format!("  L{to}:{mass:.2}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::fixture::assert_trips;

    #[test]
    fn rows_show_sparse_affinity() {
        // "For each row, we can observe only a few columns are red."
        for h in heatmaps() {
            assert!(
                h.top1_mass > 3.0 / 32.0,
                "layer {}->{} top-1 mass {} is no better than uniform",
                h.from_layer,
                h.to_layer,
                h.top1_mass
            );
            assert!(h.score > 0.3, "affinity score {} too weak", h.score);
        }
    }

    #[test]
    fn four_pairs_match_figure() {
        let maps = heatmaps();
        let pairs: Vec<(usize, usize)> = maps.iter().map(|h| (h.from_layer, h.to_layer)).collect();
        assert_eq!(pairs, vec![(0, 1), (3, 4), (7, 8), (10, 11)]);
    }

    #[test]
    fn affinity_decays_with_gap() {
        let edit = [(0, "top1_mass", 0.0.into())];
        assert_trips("fig14", &edit, "should exceed max-gap mass");
    }
}
