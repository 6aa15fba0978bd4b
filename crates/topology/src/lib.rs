//! # exflow-topology
//!
//! Hierarchical cluster topology model for the ExFlow Mixture-of-Experts
//! inference suite.
//!
//! The paper ("Exploiting Inter-Layer Expert Affinity for Accelerating
//! Mixture-of-Experts Model Inference", IPDPS 2024) evaluates on clusters of
//! nodes with 4 NVLink-connected A100 GPUs each, joined by HDR200 InfiniBand.
//! Everything ExFlow decides — expert placement, which transfers are "cheap"
//! (intra-node) and which are "expensive" (inter-node) — depends only on the
//! *shape* of that hierarchy and the *relative* cost of its link classes, so
//! this crate models exactly that:
//!
//! * [`ClusterSpec`] — how many nodes, how many GPUs per node, and the
//!   bijection between flat ranks and `(node, gpu)` coordinates.
//! * [`LinkClass`] — the three-level hierarchy (same GPU, intra-node,
//!   inter-node) that classifies any rank pair.
//! * [`CostModel`] — an α–β (latency–bandwidth) model per link class, with
//!   presets calibrated to the paper's hardware.
//! * [`collective_cost`] — closed-form cost estimates for the collectives the
//!   engine issues (AlltoallV, AllGatherV), used for cross-checking the
//!   simulated communicator in `exflow-collectives`.
//!
//! ```
//! use exflow_topology::{ClusterSpec, CostModel, LinkClass, Rank};
//!
//! let cluster = ClusterSpec::new(2, 4).unwrap(); // 2 nodes x 4 GPUs
//! assert_eq!(cluster.world_size(), 8);
//! assert_eq!(cluster.link_class(Rank(0), Rank(3)), LinkClass::IntraNode);
//! assert_eq!(cluster.link_class(Rank(0), Rank(4)), LinkClass::InterNode);
//!
//! let cost = CostModel::wilkes3();
//! // A 1 MiB transfer across InfiniBand is slower than across NVLink.
//! let ib = cost.transfer_time(LinkClass::InterNode, 1 << 20);
//! let nv = cost.transfer_time(LinkClass::IntraNode, 1 << 20);
//! assert!(ib > nv);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod collective_cost;
pub mod cost;
pub mod error;
pub mod link;

pub use cluster::{ClusterSpec, Rank};
pub use collective_cost::CollectiveCostModel;
pub use cost::{CostModel, LinkCost};
pub use error::TopologyError;
pub use link::LinkClass;
