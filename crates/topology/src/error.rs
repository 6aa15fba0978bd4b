//! Error type for topology construction and queries.

use std::fmt;

/// Errors produced when building or querying a cluster topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A cluster dimension (nodes or GPUs per node) was zero.
    EmptyDimension {
        /// Which dimension was empty (`"nodes"` or `"gpus_per_node"`).
        what: &'static str,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EmptyDimension { what } => {
                write!(f, "cluster dimension `{what}` must be non-zero")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_empty_dimension() {
        let e = TopologyError::EmptyDimension { what: "nodes" };
        assert!(e.to_string().contains("nodes"));
    }
}
