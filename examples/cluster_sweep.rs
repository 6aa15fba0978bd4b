//! Cluster sweep: how ExFlow's advantage over the baseline scales with the
//! number of nodes — the deployment question an operator would ask before
//! adopting affinity placement.
//!
//! ```text
//! cargo run --release --example cluster_sweep
//! ```

use exflow::core::{InferenceEngine, ParallelismMode, Scenario};
use exflow::model::presets::moe_gpt_m;
use exflow::topology::ClusterSpec;

fn main() {
    let mut model = moe_gpt_m(32);
    model.n_layers = 12; // keep the sweep quick

    println!("{} across cluster sizes (4 GPUs per node)\n", model.name);
    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>10} {:>12}",
        "nodes", "gpus", "deepspeed t/s", "exflow t/s", "speedup", "a2a-share"
    );

    for nodes in [1usize, 2, 4, 8] {
        let cluster = ClusterSpec::wilkes3(nodes).expect("valid cluster");
        let engine = InferenceEngine::builder(model.clone(), cluster)
            .requests_per_gpu(8)
            .prompt_len(16)
            .n_iterations(2)
            .profile_tokens(2000)
            .placement_restarts(0)
            .build();

        let ds = engine
            .run_scenario(&Scenario::offline(ParallelismMode::Vanilla))
            .expect_offline();
        let ex = engine
            .run_scenario(&Scenario::offline(ParallelismMode::ContextCoherentAffinity))
            .expect_offline();
        println!(
            "{:>6} {:>6} {:>14.0} {:>14.0} {:>9.2}x {:>11.1}%",
            nodes,
            cluster.world_size(),
            ds.throughput(),
            ex.throughput(),
            ex.throughput() / ds.throughput(),
            ds.breakdown.alltoall / ds.breakdown.total() * 100.0
        );
    }

    println!(
        "\nThe speedup grows with node count because vanilla expert \
         parallelism becomes Alltoall-bound (paper Fig. 9) while ExFlow \
         keeps most dispatches on-GPU or on-node."
    );
}
