//! Link classes: the three-level communication hierarchy.

/// Classification of the path between two ranks.
///
/// The paper's optimization is entirely organized around this hierarchy
/// (§IV-C "Staged Experts Affinity"): keep the most affine experts on the
/// *same GPU* (no transfer at all), the next tier within the *same node*
/// (NVLink), and only the residue crosses the *inter-node* fabric
/// (InfiniBand), which has the highest latency and lowest bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same GPU: a token's next expert lives where the token already is.
    Local,
    /// Different GPUs on the same node (NVLink in the paper's testbed).
    IntraNode,
    /// GPUs on different nodes (InfiniBand in the paper's testbed).
    InterNode,
}

impl LinkClass {
    /// All link classes, cheapest first.
    pub const ALL: [LinkClass; 3] = [LinkClass::Local, LinkClass::IntraNode, LinkClass::InterNode];

    /// A stable small index for table/array addressing.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            LinkClass::Local => 0,
            LinkClass::IntraNode => 1,
            LinkClass::InterNode => 2,
        }
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            LinkClass::Local => "local",
            LinkClass::IntraNode => "intra-node",
            LinkClass::InterNode => "inter-node",
        }
    }

    /// Whether traffic over this link class leaves the GPU.
    #[inline]
    pub fn crosses_gpu(self) -> bool {
        self != LinkClass::Local
    }

    /// Whether traffic over this link class leaves the node.
    #[inline]
    pub fn crosses_node(self) -> bool {
        self == LinkClass::InterNode
    }
}

impl std::fmt::Display for LinkClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_cost_hierarchy() {
        assert!(LinkClass::Local.index() < LinkClass::IntraNode.index());
        assert!(LinkClass::IntraNode.index() < LinkClass::InterNode.index());
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, lc) in LinkClass::ALL.iter().enumerate() {
            assert_eq!(lc.index(), i);
        }
    }

    #[test]
    fn crossing_predicates() {
        assert!(!LinkClass::Local.crosses_gpu());
        assert!(LinkClass::IntraNode.crosses_gpu());
        assert!(!LinkClass::IntraNode.crosses_node());
        assert!(LinkClass::InterNode.crosses_node());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            LinkClass::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), 3);
    }
}
