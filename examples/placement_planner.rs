//! Placement planner: given a model and a cluster, profile affinity, run
//! the staged ILP heuristics, and print the expert-to-GPU map a serving
//! stack would load — ExFlow's deploy-time artifact.
//!
//! ```text
//! cargo run --release --example placement_planner
//! ```

use exflow::affinity::{RoutingTrace, StreamingAffinity};
use exflow::model::presets::moe_gpt_m;
use exflow::model::routing::AffinityModelSpec;
use exflow::model::{CorpusSpec, TokenBatch};
use exflow::placement::objective::measure_trace_locality;
use exflow::placement::staged::solve_staged;
use exflow::placement::{Objective, Placement};
use exflow::topology::ClusterSpec;

fn main() {
    let model = moe_gpt_m(32);
    let cluster = ClusterSpec::new(2, 4).expect("valid cluster");
    println!(
        "planning {} on {} nodes x {} GPUs\n",
        model.name,
        cluster.n_nodes(),
        cluster.gpus_per_node()
    );

    // 1. Profile: trace a few thousand tokens offline.
    let spec = AffinityModelSpec::new(model.n_layers, model.n_experts);
    let routing = spec.build();
    let batch = TokenBatch::sample(
        &routing,
        &CorpusSpec::pile_proxy(spec.n_domains),
        3000,
        1,
        7,
    );
    let trace = RoutingTrace::from_batch(&batch, model.n_experts);
    let mut estimate = StreamingAffinity::new(model.n_layers, model.n_experts, 1.0);
    estimate.observe(&trace);
    let objective = Objective::from_snapshot(&estimate.snapshot());

    // 2. Solve: stage 1 (nodes) then stage 2 (GPUs within nodes).
    let staged = solve_staged(&objective, &cluster, 2, 7);
    assert!(staged.is_consistent(&cluster));

    // 3. Compare against the DeepSpeed-style contiguous placement.
    let rr = Placement::round_robin(model.n_layers, model.n_experts, cluster.world_size());
    let rr_local = measure_trace_locality(&trace, &rr).fraction();
    let opt_local = measure_trace_locality(&trace, &staged.gpu_level).fraction();
    println!("expected GPU-local transitions:");
    println!("  round-robin placement : {:.1}%", rr_local * 100.0);
    println!("  staged affinity       : {:.1}%\n", opt_local * 100.0);

    // 4. Print the loadable map for the first layers.
    println!("expert -> GPU map (first 4 layers):");
    for layer in 0..4 {
        print!("  layer {layer:>2}: ");
        for gpu in 0..cluster.world_size() {
            let experts = staged.gpu_level.experts_on(layer, gpu);
            let list: Vec<String> = experts.iter().map(|e| e.to_string()).collect();
            print!("gpu{gpu}[{}] ", list.join(","));
        }
        println!();
    }

    println!("\nstage-1 node map (layer 0):");
    for node in 0..cluster.n_nodes() {
        let experts = staged.node_level.experts_on(0, node);
        println!("  node {node}: {experts:?}");
    }
}
