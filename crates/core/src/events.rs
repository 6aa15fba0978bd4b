//! Versioned JSONL event stream of a serving run: one record per serving
//! window, derived post-hoc from a [`ServingReport`] — the time-resolved
//! view a dashboard (or the `repro render-events` renderer) consumes.
//!
//! Each line is one flat JSON object carrying the window's latency
//! quantiles, completion count, queue depth, drift signal, re-plan and
//! replica churn, migrated bytes split by link class, and the fleet
//! fault/recovery markers that fired inside the window. Every record is
//! stamped with [`EVENT_SCHEMA`]; the parser rejects lines from any other
//! schema version, so downstream consumers can never silently misread a
//! field that moved.
//!
//! Both directions go through the workspace's one JSON layer
//! ([`crate::json`]): [`WindowEvent::to_json`] prints floats with Rust's
//! shortest round-trip formatting and [`WindowEvent::from_json`] parses
//! them back to the exact bits — so `from_json(to_json(e)) == e` holds
//! field-for-field, and CI can assert the round-trip on every emitted
//! line.
//!
//! ```
//! use exflow_core::events::{events_from_report, WindowEvent, EVENT_SCHEMA};
//! use exflow_core::ServingReport;
//!
//! let report = ServingReport {
//!     completions: vec![(0.5, 0.5), (1.5, 0.7)],
//!     makespan: 1.5,
//!     window_duration: 1.0,
//!     ..ServingReport::default()
//! };
//! let events = events_from_report(&report);
//! assert_eq!(events.len(), 2);
//! let line = events[0].to_json();
//! assert!(line.contains(EVENT_SCHEMA));
//! assert_eq!(WindowEvent::from_json(&line).unwrap(), events[0]);
//! ```

use crate::json::Json;
use crate::report::{nearest_rank, ServingReport};

/// Schema tag every emitted line carries; bump on any field change.
pub const EVENT_SCHEMA: &str = "exflow-events/v1";

/// One serving window's record in the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowEvent {
    /// Serving window index (0-based).
    pub window: usize,
    /// Window start, virtual seconds.
    pub t_start: f64,
    /// Window end, virtual seconds.
    pub t_end: f64,
    /// Requests that completed inside the window.
    pub completed: u64,
    /// Nearest-rank p50 latency of the window's completions (0 if none).
    pub p50: f64,
    /// Nearest-rank p95 latency of the window's completions (0 if none).
    pub p95: f64,
    /// Nearest-rank p99 latency of the window's completions (0 if none).
    pub p99: f64,
    /// Deepest the waiting queue got inside the window.
    pub queue_depth: usize,
    /// Drift signal at the window's close (0 when the run ended first).
    pub drift: f64,
    /// Drift-triggered re-plans that fired when this window ended.
    pub replans: u64,
    /// Migrated bytes over GPU-local links (drift re-plans).
    pub bytes_local: u64,
    /// Migrated bytes over intra-node links (drift re-plans).
    pub bytes_intra: u64,
    /// Migrated bytes over inter-node links (drift re-plans).
    pub bytes_inter: u64,
    /// Replica copies created by this window's re-plans.
    pub replicas_added: u64,
    /// Replica copies retired by this window's re-plans.
    pub replicas_dropped: u64,
    /// GPUs lost inside the window, in event order.
    pub gpus_down: Vec<usize>,
    /// GPUs rejoined inside the window, in event order.
    pub gpus_up: Vec<usize>,
}

/// Bucket a [`ServingReport`] into per-window [`WindowEvent`]s. The
/// stream spans every window any completion, queue sample, drift sample,
/// or fault marker landed in; an empty report (or a zero
/// `window_duration`, the defaulted-report convention) yields no events.
/// One pass over each list drops every sample into its window; then each
/// window's latencies are sorted for its quantiles.
pub fn events_from_report(report: &ServingReport) -> Vec<WindowEvent> {
    let dur = report.window_duration;
    if dur <= 0.0 || !dur.is_finite() {
        return Vec::new();
    }
    let window_of = |t: f64| (t / dur) as usize;
    let mut last = report.drift.len().saturating_sub(1);
    for &(t, _) in &report.completions {
        last = last.max(window_of(t));
    }
    for &(t, _) in &report.queue_depth {
        last = last.max(window_of(t));
    }
    for m in &report.disruption.faults {
        last = last.max(window_of(m.time));
    }
    if report.completions.is_empty()
        && report.queue_depth.is_empty()
        && report.disruption.faults.is_empty()
        && report.drift.is_empty()
    {
        return Vec::new();
    }
    let n = last + 1;

    let mut events: Vec<WindowEvent> = (0..n)
        .map(|w| WindowEvent {
            window: w,
            t_start: w as f64 * dur,
            t_end: (w + 1) as f64 * dur,
            completed: 0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            queue_depth: 0,
            drift: report.drift.get(w).copied().unwrap_or(0.0),
            replans: 0,
            bytes_local: 0,
            bytes_intra: 0,
            bytes_inter: 0,
            replicas_added: 0,
            replicas_dropped: 0,
            gpus_down: Vec::new(),
            gpus_up: Vec::new(),
        })
        .collect();
    let mut lats = vec![Vec::new(); n];
    for &(t, latency) in &report.completions {
        lats[window_of(t)].push(latency);
    }
    for &(t, depth) in &report.queue_depth {
        let ev = &mut events[window_of(t)];
        ev.queue_depth = ev.queue_depth.max(depth);
    }
    // A re-plan is filed under the window it closed, which may lie past
    // the stream's last window; such a re-plan has no line.
    for replan in &report.replans {
        let Some(ev) = events.get_mut(replan.window) else {
            continue;
        };
        ev.replans += 1;
        ev.replicas_added += replan.replicas_added;
        ev.replicas_dropped += replan.replicas_dropped;
        ev.bytes_local += replan.bytes_by_class.local;
        ev.bytes_intra += replan.bytes_by_class.intra_node;
        ev.bytes_inter += replan.bytes_by_class.inter_node;
    }
    for m in &report.disruption.faults {
        let ev = &mut events[window_of(m.time)];
        if m.up {
            &mut ev.gpus_up
        } else {
            &mut ev.gpus_down
        }
        .push(m.gpu);
    }
    for (ev, mut lats) in events.iter_mut().zip(lats) {
        lats.sort_by(f64::total_cmp);
        ev.completed = lats.len() as u64;
        ev.p50 = nearest_rank(&lats, 50.0);
        ev.p95 = nearest_rank(&lats, 95.0);
        ev.p99 = nearest_rank(&lats, 99.0);
    }
    events
}

fn usize_list(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| x.into()).collect())
}

fn as_usize(v: &Json) -> Option<usize> {
    usize::try_from(v.as_u64()?).ok()
}

fn as_usize_list(v: &Json) -> Option<Vec<usize>> {
    v.as_arr()?.iter().map(as_usize).collect()
}

/// Field `key` of the event object `doc`, read as a `T`.
fn field<T>(doc: &Json, key: &str, read: fn(&Json) -> Option<T>) -> Result<T, String> {
    let v = doc
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))?;
    read(v).ok_or_else(|| format!("field {key:?} has the wrong type: {v:?}"))
}

impl WindowEvent {
    /// One JSONL line (no trailing newline). Floats print with shortest
    /// round-trip formatting, so the line re-parses to the exact bits.
    ///
    /// # Panics
    ///
    /// If a float field is NaN or infinite (JSON has no token for either;
    /// events bucketed from a [`ServingReport`] of finite times never are).
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("schema", EVENT_SCHEMA.into()),
            ("window", self.window.into()),
            ("t_start", self.t_start.into()),
            ("t_end", self.t_end.into()),
            ("completed", self.completed.into()),
            ("p50", self.p50.into()),
            ("p95", self.p95.into()),
            ("p99", self.p99.into()),
            ("queue_depth", self.queue_depth.into()),
            ("drift", self.drift.into()),
            ("replans", self.replans.into()),
            ("bytes_local", self.bytes_local.into()),
            ("bytes_intra", self.bytes_intra.into()),
            ("bytes_inter", self.bytes_inter.into()),
            ("replicas_added", self.replicas_added.into()),
            ("replicas_dropped", self.replicas_dropped.into()),
            ("gpus_down", usize_list(&self.gpus_down)),
            ("gpus_up", usize_list(&self.gpus_up)),
        ])
        .write()
        .expect("window events hold only finite floats")
    }

    /// Parse one JSONL line emitted by [`WindowEvent::to_json`]. Rejects
    /// lines that are not one JSON object, carry an unknown schema tag,
    /// or miss/mistype any field — the CI schema check.
    pub fn from_json(line: &str) -> Result<WindowEvent, String> {
        let doc = &Json::parse(line)?;
        if !matches!(doc, Json::Obj(_)) {
            return Err(format!("not a JSON object: {line}"));
        }
        let schema = field(doc, "schema", |v| v.as_str().map(str::to_string))?;
        if schema != EVENT_SCHEMA {
            return Err(format!(
                "schema mismatch: got {schema:?}, expected {EVENT_SCHEMA:?}"
            ));
        }
        Ok(WindowEvent {
            window: field(doc, "window", as_usize)?,
            t_start: field(doc, "t_start", Json::as_f64)?,
            t_end: field(doc, "t_end", Json::as_f64)?,
            completed: field(doc, "completed", Json::as_u64)?,
            p50: field(doc, "p50", Json::as_f64)?,
            p95: field(doc, "p95", Json::as_f64)?,
            p99: field(doc, "p99", Json::as_f64)?,
            queue_depth: field(doc, "queue_depth", as_usize)?,
            drift: field(doc, "drift", Json::as_f64)?,
            replans: field(doc, "replans", Json::as_u64)?,
            bytes_local: field(doc, "bytes_local", Json::as_u64)?,
            bytes_intra: field(doc, "bytes_intra", Json::as_u64)?,
            bytes_inter: field(doc, "bytes_inter", Json::as_u64)?,
            replicas_added: field(doc, "replicas_added", Json::as_u64)?,
            replicas_dropped: field(doc, "replicas_dropped", Json::as_u64)?,
            gpus_down: field(doc, "gpus_down", as_usize_list)?,
            gpus_up: field(doc, "gpus_up", as_usize_list)?,
        })
    }
}

/// Emit the whole stream: one line per window, trailing newline included.
pub fn to_jsonl(events: &[WindowEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.to_json());
        out.push('\n');
    }
    out
}

/// Render the event stream as a fixed-width text table (the
/// `repro render-events` output): one row per window, with fault markers
/// called out inline.
pub fn render_events(events: &[WindowEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6}  {:>18}  {:>5}  {:>9}  {:>9}  {:>9}  {:>5}  {:>7}  {:>7}  {:>14}  {:>9}  {}\n",
        "window",
        "span",
        "done",
        "p50",
        "p95",
        "p99",
        "queue",
        "drift",
        "replans",
        "bytes l/i/x",
        "replicas",
        "fleet"
    ));
    for ev in events {
        let fleet = if ev.gpus_down.is_empty() && ev.gpus_up.is_empty() {
            String::new()
        } else {
            let down: Vec<String> = ev.gpus_down.iter().map(|g| format!("-{g}")).collect();
            let up: Vec<String> = ev.gpus_up.iter().map(|g| format!("+{g}")).collect();
            [down, up].concat().join(" ")
        };
        out.push_str(&format!(
            "{:>6}  {:>8.2}..{:<8.2}  {:>5}  {:>9.4}  {:>9.4}  {:>9.4}  {:>5}  {:>7.4}  {:>7}  {:>4}/{:>4}/{:>4}  {:>4}/{:<4}  {}\n",
            ev.window,
            ev.t_start,
            ev.t_end,
            ev.completed,
            ev.p50,
            ev.p95,
            ev.p99,
            ev.queue_depth,
            ev.drift,
            ev.replans,
            ev.bytes_local,
            ev.bytes_intra,
            ev.bytes_inter,
            ev.replicas_added,
            ev.replicas_dropped,
            fleet
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DisruptionStats, FaultMarker, ReplanEvent};
    use exflow_topology::collective_cost::BytesByClass;
    use proptest::prelude::*;

    /// The bucketing [`events_from_report`] replaced: every list filtered
    /// once per window.
    fn events_by_filter(report: &ServingReport) -> Vec<WindowEvent> {
        let dur = report.window_duration;
        if dur <= 0.0 || !dur.is_finite() {
            return Vec::new();
        }
        let window_of = |t: f64| (t / dur) as usize;
        let mut last = report.drift.len().saturating_sub(1);
        for &(t, _) in &report.completions {
            last = last.max(window_of(t));
        }
        for &(t, _) in &report.queue_depth {
            last = last.max(window_of(t));
        }
        for m in &report.disruption.faults {
            last = last.max(window_of(m.time));
        }
        let n = if report.completions.is_empty()
            && report.queue_depth.is_empty()
            && report.disruption.faults.is_empty()
            && report.drift.is_empty()
        {
            return Vec::new();
        } else {
            last + 1
        };

        (0..n)
            .map(|w| {
                let mut lats: Vec<f64> = report
                    .completions
                    .iter()
                    .filter(|&&(t, _)| window_of(t) == w)
                    .map(|&(_, l)| l)
                    .collect();
                lats.sort_by(f64::total_cmp);
                let queue_depth = report
                    .queue_depth
                    .iter()
                    .filter(|&&(t, _)| window_of(t) == w)
                    .map(|&(_, d)| d)
                    .max()
                    .unwrap_or(0);
                let (mut replans, mut ra, mut rd) = (0u64, 0u64, 0u64);
                let (mut bl, mut bi, mut bx) = (0u64, 0u64, 0u64);
                for ev in report.replans.iter().filter(|ev| ev.window == w) {
                    replans += 1;
                    ra += ev.replicas_added;
                    rd += ev.replicas_dropped;
                    bl += ev.bytes_by_class.local;
                    bi += ev.bytes_by_class.intra_node;
                    bx += ev.bytes_by_class.inter_node;
                }
                let gpus_down = report
                    .disruption
                    .faults
                    .iter()
                    .filter(|m| !m.up && window_of(m.time) == w)
                    .map(|m| m.gpu)
                    .collect();
                let gpus_up = report
                    .disruption
                    .faults
                    .iter()
                    .filter(|m| m.up && window_of(m.time) == w)
                    .map(|m| m.gpu)
                    .collect();
                WindowEvent {
                    window: w,
                    t_start: w as f64 * dur,
                    t_end: (w + 1) as f64 * dur,
                    completed: lats.len() as u64,
                    p50: nearest_rank(&lats, 50.0),
                    p95: nearest_rank(&lats, 95.0),
                    p99: nearest_rank(&lats, 99.0),
                    queue_depth,
                    drift: report.drift.get(w).copied().unwrap_or(0.0),
                    replans,
                    bytes_local: bl,
                    bytes_intra: bi,
                    bytes_inter: bx,
                    replicas_added: ra,
                    replicas_dropped: rd,
                    gpus_down,
                    gpus_up,
                }
            })
            .collect()
    }

    fn sample_event() -> WindowEvent {
        WindowEvent {
            window: 3,
            t_start: 4.5,
            t_end: 6.0,
            completed: 17,
            p50: 0.1,
            p95: 1.0 / 3.0,
            p99: 2.7755575615628914e-17,
            queue_depth: 5,
            drift: 0.125,
            replans: 1,
            bytes_local: 0,
            bytes_intra: 1 << 20,
            bytes_inter: 3 << 20,
            replicas_added: 2,
            replicas_dropped: 1,
            gpus_down: vec![2, 5],
            gpus_up: vec![],
        }
    }

    #[test]
    fn json_round_trips_bit_for_bit() {
        let ev = sample_event();
        let line = ev.to_json();
        let back = WindowEvent::from_json(&line).unwrap();
        assert_eq!(back, ev);
        // Emit -> parse -> emit is a fixed point: the schema check CI
        // runs on every line.
        assert_eq!(back.to_json(), line);
        // Float bits survive exactly, not just approximately.
        assert_eq!(back.p99.to_bits(), ev.p99.to_bits());
    }

    #[test]
    fn wire_layout_is_pinned() {
        // The exflow-events/v1 bytes: field order, no whitespace, floats
        // in positional (never exponent) shortest round-trip form.
        assert_eq!(
            sample_event().to_json(),
            "{\"schema\":\"exflow-events/v1\",\"window\":3,\"t_start\":4.5,\"t_end\":6,\
             \"completed\":17,\"p50\":0.1,\"p95\":0.3333333333333333,\
             \"p99\":0.000000000000000027755575615628914,\"queue_depth\":5,\"drift\":0.125,\
             \"replans\":1,\"bytes_local\":0,\"bytes_intra\":1048576,\"bytes_inter\":3145728,\
             \"replicas_added\":2,\"replicas_dropped\":1,\"gpus_down\":[2,5],\"gpus_up\":[]}"
        );
    }

    #[test]
    fn unknown_schema_and_malformed_lines_are_rejected() {
        let ev = sample_event();
        let wrong = ev.to_json().replace("exflow-events/v1", "exflow-events/v0");
        assert!(WindowEvent::from_json(&wrong)
            .unwrap_err()
            .contains("schema mismatch"));
        assert!(WindowEvent::from_json("not json").is_err());
        assert!(WindowEvent::from_json("{}").unwrap_err().contains("schema"));
        let missing = ev.to_json().replace("\"p99\"", "\"p99x\"");
        assert!(WindowEvent::from_json(&missing)
            .unwrap_err()
            .contains("p99"));
    }

    #[test]
    fn report_buckets_by_window() {
        let report = ServingReport {
            completions: vec![(0.2, 0.2), (0.9, 0.4), (1.1, 0.3), (2.5, 0.9)],
            queue_depth: vec![(0.1, 2), (0.5, 4), (1.2, 1)],
            drift: vec![0.01, 0.2],
            replans: vec![ReplanEvent {
                window: 1,
                drift: 0.2,
                experts_moved: 3,
                replicas_added: 1,
                replicas_dropped: 0,
                bytes_moved: 3000,
                budget_bytes: 4000,
                migration_time: 0.1,
                bytes_by_class: BytesByClass {
                    local: 1000,
                    intra_node: 2000,
                    inter_node: 0,
                },
                solver_cost: exflow_placement::ReplanCost {
                    considered: 40,
                    evaluated: 28,
                    reused: 12,
                },
            }],
            disruption: DisruptionStats {
                faults: vec![
                    FaultMarker {
                        time: 1.5,
                        gpu: 2,
                        up: false,
                    },
                    FaultMarker {
                        time: 2.4,
                        gpu: 2,
                        up: true,
                    },
                ],
                ..DisruptionStats::default()
            },
            window_duration: 1.0,
            ..ServingReport::default()
        };
        let events = events_from_report(&report);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].completed, 2);
        assert_eq!(events[0].queue_depth, 4);
        assert_eq!(events[0].p50, 0.2);
        assert_eq!(events[0].p99, 0.4);
        assert_eq!(events[1].replans, 1);
        assert_eq!(events[1].bytes_intra, 2000);
        assert_eq!(events[1].replicas_added, 1);
        assert_eq!(events[1].gpus_down, vec![2]);
        assert_eq!(events[2].gpus_up, vec![2]);
        assert_eq!(events[2].completed, 1);
        // Every line of the stream round-trips.
        for (line, ev) in to_jsonl(&events).lines().zip(&events) {
            assert_eq!(&WindowEvent::from_json(line).unwrap(), ev);
        }
    }

    #[test]
    fn empty_and_defaulted_reports_emit_nothing() {
        assert!(events_from_report(&ServingReport::default()).is_empty());
        let idle = ServingReport {
            window_duration: 1.0,
            ..ServingReport::default()
        };
        assert!(events_from_report(&idle).is_empty());
    }

    /// A sample time in window `w` of `dur`: exactly on its start edge,
    /// or `frac` of the way in.
    fn at(w: usize, frac: f64, edge: bool, dur: f64) -> f64 {
        (w as f64 + if edge { 0.0 } else { frac }) * dur
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass bucketing against the per-window filter it
        /// replaced, on generated reports: windows with no sample, samples
        /// exactly on a window edge, queue samples, fault markers both
        /// ways, re-plans (some filed past the last window) and drift
        /// logs shorter and longer than the samples' span. The events are
        /// equal and so are their JSONL bytes.
        #[test]
        fn one_pass_events_are_the_filtered_events(
            dur in prop_oneof![Just(1.0), Just(0.1), Just(0.25), Just(3.0), 0.01f64..10.0],
            completions in proptest::collection::vec(
                (0usize..12, 0.0f64..1.0, 0u8..3, 0.0f64..5.0),
                0..40,
            ),
            queue in proptest::collection::vec((0usize..12, 0.0f64..1.0, 0u8..3, 0usize..30), 0..30),
            faults in proptest::collection::vec(
                (0usize..12, 0.0f64..1.0, 0u8..3, 0usize..8, 0u8..2),
                0..5,
            ),
            replans in proptest::collection::vec((0usize..16, 0u64..4, 0u64..1000), 0..6),
            drift in proptest::collection::vec(0.0f64..1.0, 0..14),
        ) {
            let report = ServingReport {
                completions: (completions.into_iter())
                    .map(|(w, frac, edge, latency)| (at(w, frac, edge == 0, dur), latency))
                    .collect(),
                queue_depth: (queue.into_iter())
                    .map(|(w, frac, edge, depth)| (at(w, frac, edge == 0, dur), depth))
                    .collect(),
                drift,
                replans: (replans.into_iter())
                    .map(|(window, added, bytes)| ReplanEvent {
                        window,
                        drift: 0.5,
                        experts_moved: 1,
                        replicas_added: added,
                        replicas_dropped: added / 2,
                        bytes_moved: 3 * bytes,
                        budget_bytes: u64::MAX,
                        migration_time: 0.1,
                        bytes_by_class: BytesByClass {
                            local: bytes,
                            intra_node: 2 * bytes,
                            inter_node: 3 * bytes,
                        },
                        solver_cost: exflow_placement::ReplanCost::default(),
                    })
                    .collect(),
                disruption: DisruptionStats {
                    faults: (faults.into_iter())
                        .map(|(w, frac, edge, gpu, up)| FaultMarker {
                            time: at(w, frac, edge == 0, dur),
                            gpu,
                            up: up == 1,
                        })
                        .collect(),
                    ..DisruptionStats::default()
                },
                window_duration: dur,
                ..ServingReport::default()
            };
            let (got, want) = (events_from_report(&report), events_by_filter(&report));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(to_jsonl(&got), to_jsonl(&want));
        }
    }

    #[test]
    fn renderer_mentions_fleet_churn() {
        let ev = sample_event();
        let text = render_events(&[ev]);
        assert!(text.contains("window"));
        assert!(text.contains("-2 -5"));
    }
}
