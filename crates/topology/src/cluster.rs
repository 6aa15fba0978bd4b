//! Cluster shape: nodes, GPUs per node, and the node-major rank layout.

use crate::error::TopologyError;
use crate::link::LinkClass;

/// A flat rank in the expert-parallel group (one rank per simulated GPU).
///
/// Ranks are assigned node-major: ranks `0..gpus_per_node` live on node 0,
/// the next `gpus_per_node` on node 1, and so on — the same convention
/// MPI + one-process-per-GPU launchers use on the paper's Wilkes3 cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rank(pub usize);

impl Rank {
    /// The flat index of this rank.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// The shape of a cluster: `n_nodes` nodes, each with `gpus_per_node` GPUs.
///
/// This is the only topology information ExFlow's placement stage consumes:
/// the staged ILP first partitions experts across *nodes*, then across the
/// *GPUs* of each node (paper §IV-C/D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    n_nodes: usize,
    gpus_per_node: usize,
}

impl ClusterSpec {
    /// Build a cluster of `n_nodes` nodes with `gpus_per_node` GPUs each.
    ///
    /// Returns an error if either dimension is zero.
    pub fn new(n_nodes: usize, gpus_per_node: usize) -> Result<Self, TopologyError> {
        if n_nodes == 0 {
            return Err(TopologyError::EmptyDimension { what: "nodes" });
        }
        if gpus_per_node == 0 {
            return Err(TopologyError::EmptyDimension {
                what: "gpus_per_node",
            });
        }
        Ok(ClusterSpec {
            n_nodes,
            gpus_per_node,
        })
    }

    /// A single node with `gpus` GPUs (the paper's 1-node baseline case).
    pub fn single_node(gpus: usize) -> Result<Self, TopologyError> {
        ClusterSpec::new(1, gpus)
    }

    /// The paper's evaluation node shape: 4 A100 GPUs per node.
    pub fn wilkes3(n_nodes: usize) -> Result<Self, TopologyError> {
        ClusterSpec::new(n_nodes, 4)
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// GPUs per node.
    #[inline]
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Total number of ranks (GPUs) in the cluster.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.n_nodes * self.gpus_per_node
    }

    /// Node index of a flat rank.
    #[inline]
    pub fn node_of(&self, rank: Rank) -> usize {
        rank.0 / self.gpus_per_node
    }

    /// Classify the link between two ranks into the three-level hierarchy.
    #[inline]
    pub fn link_class(&self, a: Rank, b: Rank) -> LinkClass {
        if a == b {
            LinkClass::Local
        } else if self.node_of(a) == self.node_of(b) {
            LinkClass::IntraNode
        } else {
            LinkClass::InterNode
        }
    }

    /// Iterate over all ranks.
    pub fn ranks(&self) -> impl Iterator<Item = Rank> {
        (0..self.world_size()).map(Rank)
    }

    /// One rank on every node *other than* `owner`'s, chosen by rotating
    /// `salt` through each node's local GPU slots — the node-aware replica
    /// fan-out subset of the paper's topology (the owner's node is already
    /// covered by the owner itself). The result is sorted ascending and
    /// never contains `owner`; different salts land on different local
    /// GPUs so many subsets spread across a node instead of piling onto
    /// slot 0.
    ///
    /// ```
    /// use exflow_topology::{ClusterSpec, Rank};
    ///
    /// let c = ClusterSpec::new(3, 2).unwrap();
    /// assert_eq!(c.one_per_node(Rank(0), 0), vec![Rank(3), Rank(4)]);
    /// assert_eq!(c.one_per_node(Rank(0), 1), vec![Rank(2), Rank(5)]);
    /// assert!(ClusterSpec::single_node(4).unwrap().one_per_node(Rank(1), 7).is_empty());
    /// ```
    pub fn one_per_node(&self, owner: Rank, salt: usize) -> Vec<Rank> {
        debug_assert!(owner.0 < self.world_size());
        let g = self.gpus_per_node;
        (0..self.n_nodes)
            .filter(|&n| n != self.node_of(owner))
            .map(|n| Rank(n * g + (salt + n) % g))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dimensions() {
        assert!(ClusterSpec::new(0, 4).is_err());
        assert!(ClusterSpec::new(2, 0).is_err());
    }

    #[test]
    fn world_size_and_mapping_round_trip() {
        let c = ClusterSpec::new(3, 4).unwrap();
        assert_eq!(c.world_size(), 12);
        assert_eq!(c.ranks().count(), 12);
    }

    #[test]
    fn node_major_rank_layout() {
        let c = ClusterSpec::new(2, 4).unwrap();
        let nodes: Vec<usize> = c.ranks().map(|r| c.node_of(r)).collect();
        assert_eq!(nodes, [0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn link_classification() {
        let c = ClusterSpec::new(2, 2).unwrap();
        assert_eq!(c.link_class(Rank(1), Rank(1)), LinkClass::Local);
        assert_eq!(c.link_class(Rank(0), Rank(1)), LinkClass::IntraNode);
        assert_eq!(c.link_class(Rank(1), Rank(2)), LinkClass::InterNode);
        // Symmetry.
        assert_eq!(c.link_class(Rank(2), Rank(1)), LinkClass::InterNode);
    }

    #[test]
    fn one_per_node_skips_the_owner_node_and_rotates_slots() {
        let c = ClusterSpec::new(2, 4).unwrap();
        for salt in 0..8 {
            for owner in c.ranks() {
                let subset = c.one_per_node(owner, salt);
                assert_eq!(subset.len(), 1, "one replica target per other node");
                assert_ne!(c.node_of(subset[0]), c.node_of(owner));
            }
        }
        // Distinct salts rotate through every local slot of the far node.
        let slots: std::collections::BTreeSet<usize> =
            (0..4).map(|s| c.one_per_node(Rank(0), s)[0].0).collect();
        assert_eq!(slots.len(), 4);
    }

    #[test]
    fn single_node_has_no_internode_links() {
        let c = ClusterSpec::single_node(8).unwrap();
        for a in c.ranks() {
            for b in c.ranks() {
                assert_ne!(c.link_class(a, b), LinkClass::InterNode);
            }
        }
    }
}
