//! # exflow-model
//!
//! The GPT Mixture-of-Experts model substrate for the ExFlow (IPDPS 2024)
//! reproduction.
//!
//! The paper evaluates on pre-trained GPT MoE checkpoints (350M–1.3B
//! parameters, 8–64 experts per layer) served by DeepSpeed-Megatron on A100
//! clusters, and profiles token routing on the Pile corpus. Neither trained
//! checkpoints nor corpora are available here, so this crate builds the
//! closest synthetic equivalents:
//!
//! * [`config`] / [`presets`] — the paper's Table II model zoo, plus a
//!   FLOP/byte cost model per operator ([`cost`]);
//! * [`tensor`] / [`expert`] — small but *real* dense linear algebra
//!   (one mat-vec + GELU kernel body over blocks of rows, with three
//!   builds, portable, AVX2 and AVX-512, chosen at run time; a naive
//!   matmul as its reference), which the benchmark's expert-kernel probe
//!   times; the engine itself charges expert FFNs to the clock only;
//! * [`routing`] — the core substitution: a layer-to-layer Markov routing
//!   process over experts whose transition structure is a mixture of
//!   permutation matrices (doubly stochastic, hence GShard-load-balanced)
//!   with tunable *affinity concentration*. This reproduces the class of
//!   conditional-probability structure the paper's Fig. 2 heatmaps show;
//! * [`corpus`] — domain-mixture token streams standing in for Pile / C4 /
//!   Dolma / Yelp (Table III);
//! * [`drift`] — non-stationary routing schedules (piecewise-phase and
//!   smoothly-interpolating drift presets) feeding the online serving
//!   mode's streaming-affinity and re-placement machinery;
//! * [`arrival`] — seeded request arrival processes (Poisson, diurnal,
//!   flash-crowd) feeding the request-level serving front-end's
//!   discrete-event loop;
//! * [`fault`] — deterministic fleet fault/elasticity schedules (GPU
//!   loss, rejoin, seeded churn) driving the serving engine's
//!   failover and emergency re-placement paths;
//! * [`training`] — a gating-evolution simulator reproducing the training
//!   dynamics of Figs. 11–12 (early expert collapse, rebalancing, steady
//!   affinity growth).

// `unsafe_code` is denied workspace-wide; the one `#[expect]` of it in
// this crate is the call of the AVX2 and AVX-512 kernels
// (`Expert::forward_rows`).
#![warn(missing_docs)]

pub mod arrival;
pub mod config;
pub mod corpus;
pub mod cost;
pub mod drift;
pub mod expert;
pub mod fault;
pub mod presets;
pub mod routing;
pub mod tensor;
pub mod training;

pub use arrival::{ArrivalKind, ArrivalProcess};
pub use config::{GateKind, ModelConfig};
pub use corpus::{CorpusSpec, TokenBatch};
pub use cost::ComputeCostModel;
pub use drift::{DriftKind, DriftSchedule};
pub use expert::Expert;
pub use fault::{FaultEvent, FaultKind, FaultSchedule};
pub use routing::{AffinityModelSpec, RoutingModel};
pub use tensor::Matrix;
pub use training::TrainingSimulator;
