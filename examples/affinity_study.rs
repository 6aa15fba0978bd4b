//! Affinity study: profile a pre-trained (simulated) MoE model and
//! visualize its inter-layer expert affinity — the measurement that makes
//! ExFlow's placement possible (paper Fig. 2).
//!
//! ```text
//! cargo run --release --example affinity_study
//! ```

use exflow::affinity::{metrics, AffinityMatrix, RoutingTrace};
use exflow::model::presets::heatmap_model;
use exflow::model::routing::AffinityModelSpec;
use exflow::model::{CorpusSpec, TokenBatch};

fn main() {
    let model = heatmap_model();
    println!(
        "profiling {} ({} layers x {} experts)\n",
        model.name, model.n_layers, model.n_experts
    );

    // Stand-in for "trace tokens from the Pile through the checkpoint".
    let spec = AffinityModelSpec::new(model.n_layers, model.n_experts);
    let routing = spec.build();
    let corpus = CorpusSpec::pile_proxy(spec.n_domains);
    let batch = TokenBatch::sample(&routing, &corpus, 8000, 1, 42);
    let trace = RoutingTrace::from_batch(&batch, model.n_experts);

    // Consecutive-layer conditional probabilities.
    println!("layer-pair affinity (top-1 conditional mass, normalized score):");
    for layer in 1..trace.n_layers() {
        let m = AffinityMatrix::from_trace(&trace, layer - 1, layer);
        println!(
            "  L{:<2} -> L{:<2}   top1 {:.3}   score(k=3) {:.3}",
            m.from_layer(),
            m.to_layer(),
            metrics::mean_top1_mass(&m),
            metrics::affinity_score(&m, 3),
        );
    }

    // One heatmap, rendered the way the paper's Fig. 2 shades cells.
    let m = AffinityMatrix::from_trace(&trace, 0, 1);
    println!("\nheatmap: layer 0 -> layer 1 (' '<'.'<':'<'+'<'#'<'@'):");
    println!("{}", m.ascii_heatmap());

    // The most affiliated successor of each expert (the paper's A*).
    println!("most affiliated successors at layer 0:");
    for i in 0..model.n_experts.min(8) {
        let (succ, p) = m.most_affine(i);
        println!("  expert {i:>2} -> expert {succ:>2}  (P = {p:.3})");
    }
}
