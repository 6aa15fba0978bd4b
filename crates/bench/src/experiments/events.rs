//! `render-events` — the JSONL event stream of a faulted serving run:
//! one `exflow-events/v1` line per serving window, followed by the
//! fixed-width rendering of the same stream.
//!
//! This is the observability artifact of the fault-tolerance layer: a
//! loss-and-rejoin cycle lands mid-run, so the stream shows queue
//! buildup, the emergency re-placement's migration bytes, and the fleet
//! transitions (`-g` / `+g`) inline. Every emitted line is round-tripped
//! through [`WindowEvent::from_json`] before printing, so the artifact
//! doubles as an end-to-end check that the schema parses its own output
//! bit for bit.

use exflow_core::{
    events_from_report, render_events, to_jsonl, BatchPolicy, InferenceEngine, OnlineConfig,
    ParallelismMode, Scenario, ServingConfig, WindowEvent, EVENT_SCHEMA,
};
use exflow_model::presets::moe_gpt_m;
use exflow_model::{ArrivalProcess, DriftSchedule, FaultSchedule};
use exflow_placement::Parallelism;
use exflow_topology::ClusterSpec;

use crate::experiments::common::PAPER;

const MODE: ParallelismMode = ParallelismMode::ContextCoherentAffinity;
const MAX_BATCH: usize = 16;
const DECODE_STEPS: usize = 4;
const WINDOWS: usize = 8;
const N_REQUESTS: usize = 96;
/// World size of the engine below (`ClusterSpec::new(2, 2)`).
const WORLD: usize = 4;

/// Run one faulted serving scenario and return its window events.
pub fn run() -> Vec<WindowEvent> {
    let mut model = moe_gpt_m(8);
    model.n_layers = 4;
    let online = OnlineConfig {
        replan_every: 2,
        drift_threshold: 0.08,
        migration_budget_bytes: u64::MAX,
        decay: 0.3,
        ..OnlineConfig::default()
    };
    let eng = InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
        .requests_per_gpu(MAX_BATCH / 4)
        .prompt_len(4)
        .profile_tokens(400)
        .parallelism(Parallelism::new(1))
        .online(online)
        .seed(PAPER.seed)
        .build();
    let drift = DriftSchedule::piecewise(&eng.config().routing_spec, 2, WINDOWS);
    let step = eng.probe_step_time(MODE, MAX_BATCH);
    let rate = 0.9 * MAX_BATCH as f64 / (DECODE_STEPS as f64 * step);
    let horizon = N_REQUESTS as f64 / rate;
    let cfg = ServingConfig {
        arrival: ArrivalProcess::poisson(rate),
        n_requests: N_REQUESTS,
        decode_steps: DECODE_STEPS,
        batch: BatchPolicy::SizeOrWait {
            max_size: MAX_BATCH,
            max_wait: 2.0 * step,
        },
        window_duration: horizon / WINDOWS as f64,
    };
    let faults = FaultSchedule::loss_and_rejoin(WORLD, 1, 0.3 * horizon, 0.65 * horizon);
    let report = eng
        .run_scenario(
            &Scenario::offline(MODE)
                .with_drift(drift)
                .with_serving(cfg)
                .with_faults(faults),
        )
        .expect_serving();
    events_from_report(&report)
}

/// Print the JSONL stream (round-tripping every line first) and its
/// rendered table.
pub fn print() {
    println!("render-events: {EVENT_SCHEMA} stream of a faulted serving run");
    println!("(loss at 30% of the horizon, rejoin at 65%; one JSONL line per window,");
    println!(" each parsed back and bit-compared before printing)\n");
    let events = run();
    let jsonl = to_jsonl(&events);
    for (i, line) in jsonl.lines().enumerate() {
        let back = WindowEvent::from_json(line)
            .unwrap_or_else(|e| panic!("window {i}: emitted line does not parse: {e}"));
        assert_eq!(back, events[i], "window {i}: round-trip changed the event");
    }
    print!("{jsonl}");
    println!("\n{}", render_events(&events));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_stream_round_trips_and_marks_the_fleet_transitions() {
        let events = run();
        assert!(events.len() >= WINDOWS, "windows missing from the stream");
        let downs: Vec<usize> = events.iter().flat_map(|e| e.gpus_down.clone()).collect();
        let ups: Vec<usize> = events.iter().flat_map(|e| e.gpus_up.clone()).collect();
        assert_eq!(downs, vec![1], "the loss must be marked exactly once");
        assert_eq!(ups, vec![1], "the rejoin must be marked exactly once");
        assert!(
            events.iter().any(|e| e.replans > 0),
            "drift re-plans must appear in the stream"
        );
        for ev in &events {
            let line = ev.to_json();
            assert_eq!(&WindowEvent::from_json(&line).unwrap(), ev);
        }
    }
}
