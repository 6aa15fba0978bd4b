//! Facade crate: re-exports the whole ExFlow suite.
//!
//! The workspace architecture (crate map, data flow, determinism
//! invariants, online serving mode) is documented below, straight from
//! `ARCHITECTURE.md` — the rustdoc build (`-D warnings` in CI) keeps it
//! compiling and link-checked.
#![doc = include_str!("../ARCHITECTURE.md")]
#![forbid(unsafe_code)]
pub use exflow_affinity as affinity;
pub use exflow_collectives as collectives;
pub use exflow_core as core;
pub use exflow_model as model;
pub use exflow_placement as placement;
pub use exflow_topology as topology;

// The headline entry points, lifted to the facade root: one scenario
// value + one run call covers offline, online, serving, and faulted
// runs — plus the serving-facing surface that scenario compositions are
// built from and the JSONL event stream every serving report exports.
pub use exflow_core::{
    events_from_report, render_events, to_jsonl, BatchPolicy, InferenceEngine, Scenario,
    ScenarioReport, ServingConfig, WindowEvent, EVENT_SCHEMA,
};
pub use exflow_model::{ArrivalProcess, FaultSchedule};
