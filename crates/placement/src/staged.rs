//! The paper's staged optimization (§IV-C/D): stage 1 places experts on
//! *nodes* to minimize inter-node token routing; stage 2 refines each
//! node's expert sets onto its *GPUs* to minimize intra-node cross-GPU
//! routing, holding stage 1 fixed. "In stage 1, we will reduce the
//! inter-node routing as much as possible, and in stage 2, we will minimize
//! the intra-node routing based on stage 1 results."

use exflow_topology::ClusterSpec;

use crate::local_search::solve_local_search_with;
use crate::objective::Objective;
use crate::parallel::Parallelism;
use crate::placement::Placement;

/// Result of the two-stage optimization: the node-level placement from
/// stage 1 and the final GPU-level placement after stage 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedPlacement {
    /// Stage-1 output: units = nodes.
    pub node_level: Placement,
    /// Final output: units = GPUs (node-major rank order).
    pub gpu_level: Placement,
}

/// Run the staged solve. `restarts` controls the local-search effort of
/// each stage; `seed` makes the whole pipeline deterministic. Sequential
/// convenience wrapper around [`solve_staged_with`].
pub fn solve_staged(
    objective: &Objective,
    cluster: &ClusterSpec,
    restarts: usize,
    seed: u64,
) -> StagedPlacement {
    solve_staged_with(objective, cluster, restarts, seed, Parallelism::single())
}

/// Run the staged solve with explicit parallelism. Stage 1 fans its
/// restarts across the pool; stage 2's per-node sub-solves are mutually
/// independent (each is a pure function of the stage-1 result and its own
/// derived seed), so nodes are solved in parallel and the merged result
/// is bit-identical for every thread count.
pub fn solve_staged_with(
    objective: &Objective,
    cluster: &ClusterSpec,
    restarts: usize,
    seed: u64,
    par: Parallelism,
) -> StagedPlacement {
    let e = objective.n_experts();
    let l = objective.n_layers();
    let n_nodes = cluster.n_nodes();
    let gpn = cluster.gpus_per_node();
    assert!(
        e.is_multiple_of(cluster.world_size()),
        "experts must divide across GPUs"
    );

    // Stage 1: units = nodes. With one node this is trivially all-zero.
    let node_level = if n_nodes == 1 {
        Placement::new(vec![vec![0usize; e]; l], 1)
    } else {
        solve_local_search_with(objective, n_nodes, restarts, seed, par)
    };

    // Stage 2: within each node, place its per-layer expert sets onto the
    // node's GPUs. The sub-instance for node `n` keeps only transitions
    // between experts the node owns at consecutive layers; mass that leaves
    // the node is a constant under stage-2 moves and is dropped.
    let gpu_level = if gpn == 1 {
        // GPUs == nodes: stage 1 already decided everything.
        node_level.clone()
    } else {
        // Each node's sub-solve reads only the immutable stage-1 result;
        // fan nodes across the pool and merge in node order.
        let per_node: Vec<Vec<Vec<(usize, usize)>>> = par.map_indexed(n_nodes, |node| {
            // Per-layer expert lists this node owns (each of size cap2).
            let owned: Vec<Vec<usize>> = (0..l).map(|j| node_level.experts_on(j, node)).collect();
            let cap2 = owned[0].len();
            debug_assert!(owned.iter().all(|o| o.len() == cap2));

            // Sub-objective over local indices 0..cap2 per layer. Row
            // iteration keeps extraction O(cap2 x row-nnz) on the sparse
            // backend (per-cell `gap_prob` would binary-search every one
            // of the cap2^2 cells); the copied values are identical
            // either way.
            let sub_gaps: Vec<Vec<f64>> = (0..l - 1)
                .map(|gap| {
                    let mut local_next = vec![usize::MAX; e];
                    for (lp, &gp) in owned[gap + 1].iter().enumerate() {
                        local_next[gp] = lp;
                    }
                    let mut m = vec![0.0f64; cap2 * cap2];
                    for (li, &gi) in owned[gap].iter().enumerate() {
                        objective.for_each_in_row(gap, gi, |p, prob| {
                            if local_next[p] != usize::MAX {
                                m[li * cap2 + local_next[p]] = prob;
                            }
                        });
                    }
                    m
                })
                .collect();
            let sub_obj = Objective::from_raw(sub_gaps, cap2);
            // The node itself is the parallel grain here: its sub-solve
            // runs sequentially on a seed derived exactly as before.
            let sub_placement = solve_local_search_with(
                &sub_obj,
                gpn,
                restarts,
                seed ^ (node as u64 + 1),
                Parallelism::single(),
            );

            (0..l)
                .map(|layer| {
                    owned[layer]
                        .iter()
                        .enumerate()
                        .map(|(local, &global)| {
                            (global, node * gpn + sub_placement.unit_of(layer, local))
                        })
                        .collect()
                })
                .collect()
        });

        let mut assign: Vec<Vec<usize>> = vec![vec![usize::MAX; e]; l];
        for node_assign in per_node {
            for (layer, pairs) in node_assign.into_iter().enumerate() {
                for (global, gpu) in pairs {
                    assign[layer][global] = gpu;
                }
            }
        }
        Placement::new(assign, cluster.world_size())
    };

    StagedPlacement {
        node_level,
        gpu_level,
    }
}

impl StagedPlacement {
    /// Check that the GPU-level placement is consistent with the node-level
    /// one (every expert's GPU lives on the node stage 1 chose).
    pub fn is_consistent(&self, cluster: &ClusterSpec) -> bool {
        let gpn = cluster.gpus_per_node();
        for layer in 0..self.gpu_level.n_layers() {
            for expert in 0..self.gpu_level.n_experts() {
                let gpu = self.gpu_level.unit_of(layer, expert);
                let node = self.node_level.unit_of(layer, expert);
                if self.node_level.n_units() > 1 && gpu / gpn != node {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::measure_trace_node_locality;
    use exflow_affinity::{AffinityMatrix, RoutingTrace};
    use exflow_model::routing::AffinityModelSpec;
    use exflow_model::{CorpusSpec, TokenBatch};

    fn build_instance(e: usize, l: usize, kappa: f64) -> (Objective, RoutingTrace) {
        let model = AffinityModelSpec::new(l, e).with_affinity(kappa).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 6000, 1, 9);
        let trace = RoutingTrace::from_batch(&batch, e);
        let obj = Objective::from_affinities(&AffinityMatrix::consecutive(&trace));
        (obj, trace)
    }

    #[test]
    fn staged_output_is_consistent_and_balanced() {
        let (obj, _) = build_instance(16, 6, 0.85);
        let cluster = ClusterSpec::new(2, 2).unwrap();
        let staged = solve_staged(&obj, &cluster, 1, 0);
        assert!(staged.is_consistent(&cluster));
        assert_eq!(staged.gpu_level.n_units(), 4);
        assert_eq!(staged.gpu_level.experts_on(0, 3).len(), 4);
        assert_eq!(staged.node_level.experts_on(0, 1).len(), 8);
    }

    #[test]
    fn single_node_skips_stage_one() {
        let (obj, _) = build_instance(8, 4, 0.8);
        let cluster = ClusterSpec::single_node(4).unwrap();
        let staged = solve_staged(&obj, &cluster, 1, 0);
        assert_eq!(staged.node_level.n_units(), 1);
        assert_eq!(staged.gpu_level.n_units(), 4);
        assert!(staged.is_consistent(&cluster));
    }

    #[test]
    fn one_gpu_per_node_reuses_stage_one() {
        let (obj, _) = build_instance(8, 4, 0.8);
        let cluster = ClusterSpec::new(4, 1).unwrap();
        let staged = solve_staged(&obj, &cluster, 1, 0);
        assert_eq!(staged.gpu_level, staged.node_level);
    }

    #[test]
    fn staged_reduces_internode_traffic_vs_round_robin() {
        let (obj, trace) = build_instance(16, 8, 0.9);
        let cluster = ClusterSpec::new(2, 2).unwrap();
        let staged = solve_staged(&obj, &cluster, 2, 0);
        let rr = Placement::round_robin(8, 16, 4);
        let rr_node = measure_trace_node_locality(&trace, &rr, 2).fraction();
        let st_node = measure_trace_node_locality(&trace, &staged.gpu_level, 2).fraction();
        assert!(
            st_node > rr_node,
            "staged node locality {st_node} should beat round-robin {rr_node}"
        );
    }

    #[test]
    fn staged_is_deterministic() {
        let (obj, _) = build_instance(8, 5, 0.8);
        let cluster = ClusterSpec::new(2, 2).unwrap();
        let a = solve_staged(&obj, &cluster, 1, 3);
        let b = solve_staged(&obj, &cluster, 1, 3);
        assert_eq!(a.gpu_level, b.gpu_level);
    }

    #[test]
    fn staged_is_thread_count_invariant() {
        let (obj, _) = build_instance(16, 6, 0.85);
        let cluster = ClusterSpec::new(2, 2).unwrap();
        let seq = solve_staged_with(&obj, &cluster, 2, 5, Parallelism::single());
        for threads in [2, 8] {
            let par = solve_staged_with(&obj, &cluster, 2, 5, Parallelism::new(threads));
            assert_eq!(par.gpu_level, seq.gpu_level, "{threads} threads diverged");
            assert_eq!(par.node_level, seq.node_level);
        }
    }
}
