//! The measurement loop every workload runs through: timed repetitions
//! with a fresh set of inputs each, of which the fastest is reported,
//! output checks, and — on a traced run — one extra repetition plus the
//! per-layer probe phase with the span recorder on.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, nearest_rank, peak_rss_mib, quartiles};
use crate::trace::{durations_ns, self_times_ns, to_jsonl, Recorder, Span};

#[derive(Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the process runs (see `affinity`), stated beside every result.
    pub cpus: String,
}

/// Per-layer values a workload reads off its own reports or probes.
pub type LayerValues = Vec<(&'static str, f64)>;

/// What one repetition's report amounts to once checked.
pub struct Outcome {
    /// The workload's unit of progress (see `spec::WORKLOADS`).
    pub steps: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Steps per virtual second the modelled cluster is busy.
    pub sim_steps_per_s: f64,
    /// Share of token dispatches whose target expert sat on another GPU.
    pub sim_gpu_cross_share: f64,
    /// Output checks that did not hold; any entry fails the whole run.
    pub violations: Vec<String>,
    pub layer: LayerValues,
}

pub trait Workload {
    /// Everything one repetition consumes, built fresh per repetition so
    /// no state (worlds, caches, experts) is carried between them.
    type Inputs;
    type Report: PartialEq;

    /// Untimed: build engines and generate inputs from the seed.
    fn prepare(&self, seed: u64, rec: &Recorder) -> Self::Inputs;
    /// The timed section.
    fn run(&self, inputs: &mut Self::Inputs, rec: &Recorder) -> Self::Report;
    /// Untimed: check the outputs and account operations.
    fn digest(&self, inputs: &Self::Inputs, report: &Self::Report) -> Outcome;
    /// Traced runs only: replay workload-shaped inputs through each
    /// layer's public functions under spans.
    fn probe(&self, inputs: &Self::Inputs, seed: u64, rec: &Recorder) -> LayerValues;
    /// `(world size, experts regenerated per decode step)` of the
    /// workload's engine, the base of `step_overhead_*_est`.
    fn engine_shape(&self) -> Option<(usize, usize)>;
}

pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
    /// Output checks that did not hold; the run is correct exactly when
    /// there are none.
    pub violations: Vec<String>,
    /// What a reader needs beside the medians: repetition count,
    /// quartiles, every timed wall.
    pub note: String,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

struct Repetition<W: Workload> {
    inputs: W::Inputs,
    report: W::Report,
    setup_s: f64,
    wall_s: f64,
}

impl<W: Workload> Repetition<W> {
    fn times(&self) -> (f64, f64) {
        (self.setup_s, self.wall_s)
    }
}

fn repetition<W: Workload>(w: &W, seed: u64, rec: &Recorder) -> Repetition<W> {
    let t = Instant::now();
    let mut inputs = {
        let _s = rec.span("harness.setup");
        w.prepare(seed, rec)
    };
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = {
        let _s = rec.span("harness.repetition");
        w.run(&mut inputs, rec)
    };
    let wall_s = t.elapsed().as_secs_f64();
    Repetition {
        inputs,
        report,
        setup_s,
        wall_s,
    }
}

/// Repetitions timed even when `--seconds` is shorter than they take.
const MIN_REPETITIONS: usize = 3;

pub fn measure<W: Workload>(workload: &'static str, w: &W, opts: &Options) -> RunResult {
    let started = Instant::now();
    let off = Recorder::off();
    // The first repetition pays for lazy first-use work (page faults, the
    // allocator's first growth). It is timed like the rest — the fastest
    // repetition is reported, so a slow one costs nothing — and its report
    // is the one every later repetition must equal.
    let Repetition {
        inputs,
        report: first_report,
        setup_s: first_setup_s,
        wall_s: first_wall_s,
    } = repetition(w, opts.seed, &off);
    let outcome = w.digest(&inputs, &first_report);
    // Only the report is kept for the equality checks: a second set of
    // inputs alive through every repetition would be charged to peak RSS.
    drop(inputs);
    let mut violations = outcome.violations.clone();

    let rec = if opts.trace {
        Recorder::on()
    } else {
        Recorder::off()
    };
    // `(setup_s, wall_s)` of every untraced repetition, first to last.
    let mut times = vec![(first_setup_s, first_wall_s)];
    let mut diverged = 0usize;
    let mut checked = |rec: &Recorder| {
        let rep = repetition(w, opts.seed, rec);
        diverged += usize::from(rep.report != first_report);
        rep
    };
    let mut traced = None;
    if opts.trace {
        // One untraced repetition on either side of the traced one, so
        // slow drift of the host cancels out of the tracing overhead.
        times.push(checked(&off).times());
        traced = Some(checked(&rec));
        times.push(checked(&off).times());
    } else {
        // Repetition length is fixed work; as many as fit fill `--seconds`,
        // set-ups included, so a slow host runs fewer repetitions and not a
        // longer run.
        loop {
            let (setup_s, wall_s) = times[times.len() - 1];
            let fits = started.elapsed().as_secs_f64() + setup_s + wall_s <= opts.seconds;
            if times.len() >= MIN_REPETITIONS && !fits {
                break;
            }
            times.push(checked(&off).times());
        }
    }
    let (setups, walls): (Vec<f64>, Vec<f64>) = times.into_iter().unzip();
    if diverged > 0 {
        violations.push(format!(
            "{diverged} repetitions produced a report different from repetition 0"
        ));
    }
    let reps = walls.len();
    let wall = quartiles(&walls);
    let setup = quartiles(&setups);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(traced) = traced {
        let probed = {
            let _s = rec.span("harness.probe");
            w.probe(&traced.inputs, opts.seed, &rec)
        };
        let spans = rec.into_spans();
        if let Err(e) = write_trace(workload, &spans) {
            violations.push(e);
        }
        values.extend(span_metrics(&spans));
        values.extend(outcome.layer.iter().copied());
        values.extend(probed);
        derive_layer_metrics(&mut values, &spans, w.engine_shape());
        values.insert("harness.repetitions", reps as f64);
        values.insert("harness.wall_s_q1", wall.q1);
        values.insert("harness.wall_s_q3", wall.q3);
        values.insert(
            "harness.first_rep_excess_share",
            first_wall_s / wall.min - 1.0,
        );
        let neighbours = walls[1..].iter().sum::<f64>() / (reps - 1) as f64;
        values.insert(
            "harness.trace_overhead_share",
            traced.wall_s / neighbours - 1.0,
        );
        values.insert("harness.spans", spans.len() as f64);
        values.insert("harness.nproc", nproc() as f64);
    } else {
        values.insert("setup_s", setup.median);
        values.insert("steps_per_s", outcome.steps as f64 / wall.min);
        match peak_rss_mib() {
            Ok(mib) => values.insert("peak_rss_mb", mib),
            Err(e) => {
                violations.push(e);
                None
            }
        };
        values.insert("sim_steps_per_s", outcome.sim_steps_per_s);
        values.insert("sim_gpu_cross_share", outcome.sim_gpu_cross_share);
    }

    let declared: Vec<Metric> = if opts.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(m, _)| *m).collect()
    };
    let mut metrics = Vec::with_capacity(declared.len());
    for m in declared {
        // A layer the workload does not exercise reads 0; an end-to-end
        // metric has no such excuse.
        let v = match values.remove(m.name) {
            Some(v) => v,
            None if opts.trace => 0.0,
            None => {
                violations.push(format!("end-to-end metric {} was not measured", m.name));
                0.0
            }
        };
        if !v.is_finite() || (!opts.trace && v <= 0.0) {
            violations.push(format!("metric {} has unusable value {v}", m.name));
        }
        metrics.push((m, if v.is_finite() { v } else { 0.0 }));
    }
    assert!(
        values.is_empty(),
        "values reported under undeclared metric names: {:?}",
        values.keys().collect::<Vec<_>>()
    );

    let attempted = outcome.attempted * reps as u64;
    let failed = if violations.is_empty() {
        outcome.failed * reps as u64
    } else {
        attempted
    };
    let note = format!(
        "host clock: steps_per_s from the fastest, {:.4} s, of {} timed repetitions (q1 {:.4}, median {:.4}, q3 {:.4}); \
         setup_s median of {} set-ups (q1 {:.4}, q3 {:.4}); {}; every timed wall, first to last: {:.3?}",
        wall.min, wall.n, wall.q1, wall.median, wall.q3, setup.n, setup.q1, setup.q3, opts.cpus, walls
    );
    RunResult {
        workload,
        attempted,
        failed,
        metrics,
        violations,
        note,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn write_trace(workload: &str, spans: &[Span]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.jsonl"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, to_jsonl(spans)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// How a group of same-named spans becomes one per-layer number.
#[derive(Clone, Copy)]
enum Agg {
    /// Median span duration.
    P50,
    P95,
    /// The highest percentile the sample supports (see `stats`).
    Highest,
    /// Total duration over total `ops`: cost per call of a probe loop.
    PerOp,
    Sum,
}

/// `(span name, metric, aggregation, nanoseconds per metric unit)`.
const SPAN_METRICS: &[(&str, &str, Agg, f64)] = &[
    (
        "topology.alltoallv_time",
        "topology.alltoallv_time_ns",
        Agg::PerOp,
        1.0,
    ),
    (
        "topology.allgatherv_time",
        "topology.allgatherv_time_ns",
        Agg::PerOp,
        1.0,
    ),
    (
        "collectives.world_spawn_w4",
        "collectives.world_spawn_us_w4",
        Agg::P50,
        1e3,
    ),
    (
        "collectives.world_spawn_w8",
        "collectives.world_spawn_us_w8",
        Agg::P50,
        1e3,
    ),
    (
        "collectives.alltoall",
        "collectives.alltoall_us",
        Agg::PerOp,
        1e3,
    ),
    (
        "collectives.allgather",
        "collectives.allgather_us",
        Agg::PerOp,
        1e3,
    ),
    (
        "collectives.barrier",
        "collectives.barrier_us",
        Agg::PerOp,
        1e3,
    ),
    ("model.expert_init", "model.expert_init_us", Agg::PerOp, 1e3),
    (
        "model.expert_forward",
        "model.expert_forward_us",
        Agg::PerOp,
        1e3,
    ),
    // `ops` counts tokens, and ns per token is us per kilo-token.
    (
        "model.batch_sample",
        "model.batch_sample_us_per_ktok",
        Agg::PerOp,
        1.0,
    ),
    (
        "model.arrival_sample",
        "model.arrival_sample_us",
        Agg::P50,
        1e3,
    ),
    (
        "affinity.observe_delta",
        "affinity.observe_delta_ms_p50",
        Agg::P50,
        1e6,
    ),
    ("affinity.snapshot", "affinity.snapshot_ms", Agg::P50, 1e6),
    (
        "affinity.divergence",
        "affinity.divergence_ms",
        Agg::P50,
        1e6,
    ),
    (
        "placement.apply_delta",
        "placement.apply_delta_ms_p50",
        Agg::P50,
        1e6,
    ),
    (
        "placement.solve_budgeted",
        "placement.solve_budgeted_ms_p50",
        Agg::P50,
        1e6,
    ),
    (
        "placement.solve_budgeted",
        "placement.solve_budgeted_ms_hi",
        Agg::Highest,
        1e6,
    ),
    (
        "placement.migration_price",
        "placement.migration_price_us",
        Agg::P50,
        1e3,
    ),
    (
        "placement.swap_delta_csr",
        "placement.swap_delta_ns_csr",
        Agg::PerOp,
        1.0,
    ),
    (
        "placement.swap_delta_dense",
        "placement.swap_delta_ns_dense",
        Agg::PerOp,
        1.0,
    ),
    (
        "placement.objective_rebuild",
        "placement.objective_rebuild_ms",
        Agg::P50,
        1e6,
    ),
    (
        "placement.solve_cold",
        "placement.solve_cold_ms",
        Agg::P50,
        1e6,
    ),
    (
        "placement.solve_staged",
        "placement.solve_staged_ms",
        Agg::P50,
        1e6,
    ),
    ("core.engine.build", "core.engine.build_ms", Agg::P50, 1e6),
    (
        "core.engine.probe_step",
        "core.engine.probe_step_us_p50",
        Agg::P50,
        1e3,
    ),
    (
        "core.engine.probe_step",
        "core.engine.probe_step_us_p95",
        Agg::P95,
        1e3,
    ),
    (
        "core.engine.offline_run.vanilla",
        "core.engine.offline_run_ms_vanilla",
        Agg::P50,
        1e6,
    ),
    (
        "core.engine.offline_run.cc",
        "core.engine.offline_run_ms_cc",
        Agg::P50,
        1e6,
    ),
    (
        "core.engine.offline_run.cca",
        "core.engine.offline_run_ms_cca",
        Agg::P50,
        1e6,
    ),
    ("core.serving.run", "core.serving.run_ms", Agg::Sum, 1e6),
    ("core.events.export", "core.events.export_us", Agg::P50, 1e3),
];

fn span_metrics(spans: &[Span]) -> LayerValues {
    let mut out = LayerValues::new();
    for &(span_name, metric, agg, ns_per_unit) in SPAN_METRICS {
        let group: Vec<&Span> = spans.iter().filter(|s| s.name == span_name).collect();
        if group.is_empty() {
            continue;
        }
        let mut sorted: Vec<f64> = group.iter().map(|s| s.duration_ns() as f64).collect();
        sorted.sort_by(f64::total_cmp);
        let total: f64 = sorted.iter().sum();
        let ns = match agg {
            Agg::P50 => nearest_rank(&sorted, 50.0),
            Agg::P95 => nearest_rank(&sorted, 95.0),
            Agg::Highest => nearest_rank(&sorted, highest_supported_percentile(sorted.len())),
            Agg::PerOp => total / group.iter().map(|s| s.ops).sum::<u64>() as f64,
            Agg::Sum => total,
        };
        out.push((metric, ns / ns_per_unit));
    }
    out
}

/// Per-layer numbers that combine several spans or counts.
fn derive_layer_metrics(
    values: &mut BTreeMap<&'static str, f64>,
    spans: &[Span],
    engine_shape: Option<(usize, usize)>,
) {
    let get = |values: &BTreeMap<&'static str, f64>, k: &str| values.get(k).copied().unwrap_or(0.0);

    let solves = durations_ns(spans, "placement.solve_budgeted");
    if !solves.is_empty() {
        values.insert(
            "placement.solve_budgeted_hi_pct",
            highest_supported_percentile(solves.len()),
        );
    }
    values.insert("core.events.parse_us", {
        // One span per parsed line; the metric is the whole stream.
        durations_ns(spans, "core.events.parse").iter().sum::<u64>() as f64 / 1e3
    });

    // Share of the traced repetition's wall spent inside the budgeted
    // solver: only spans opened within the repetition count, not the
    // probe phase's.
    if let Some(rep) = spans.iter().find(|s| s.name == "harness.repetition") {
        let inside: u64 = spans
            .iter()
            .filter(|s| s.name == "placement.solve_budgeted")
            .filter(|s| s.start_ns >= rep.start_ns && s.end_ns <= rep.end_ns)
            .map(Span::duration_ns)
            .sum();
        values.insert(
            "placement.solve_budgeted_wall_share",
            inside as f64 / rep.duration_ns() as f64,
        );
        let own = self_times_ns(spans)[rep.id as usize];
        values.insert(
            "harness.repetition_self_share",
            own as f64 / rep.duration_ns() as f64,
        );
    }

    let steps = get(values, "core.serving.decode_steps");
    let run_us = get(values, "core.serving.run_ms") * 1e3;
    let probe_us = get(values, "core.engine.probe_step_us_p50");
    if steps > 0.0 && run_us > 0.0 {
        values.insert("core.serving.host_us_per_step", run_us / steps);
        values.insert(
            "core.serving.loop_overhead_us_per_step",
            run_us / steps - probe_us,
        );
        values.insert(
            "core.serving.probe_explained_share",
            probe_us * steps / run_us,
        );
    }

    // ROADMAP item 1 guessed that thread spawn and expert regeneration are
    // the bulk of a decode step; this is the measured estimate. Rank
    // threads regenerate their experts concurrently, on at most `nproc`
    // cores.
    if let Some((world, experts)) = engine_shape {
        let spawn_us = get(
            values,
            if world == 4 {
                "collectives.world_spawn_us_w4"
            } else {
                "collectives.world_spawn_us_w8"
            },
        );
        let init_us = get(values, "model.expert_init_us");
        let overhead_us = spawn_us + experts as f64 * init_us / world.min(nproc()) as f64;
        values.insert("core.engine.step_overhead_us_est", overhead_us);
        if probe_us > 0.0 {
            values.insert(
                "core.engine.step_overhead_share_est",
                overhead_us / probe_us,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_span_metric_is_a_declared_per_layer_metric() {
        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for &(_, metric, _, _) in SPAN_METRICS {
            assert!(declared.contains(metric), "{metric} is not in PER_LAYER");
        }
    }

    #[test]
    fn span_groups_aggregate_by_their_rule() {
        let span = |name, start_ns, end_ns, ops| Span {
            id: 0,
            parent: None,
            name,
            start_ns,
            end_ns,
            ops,
        };
        let spans = [
            span("model.expert_init", 0, 4_000, 4),
            span("model.expert_init", 0, 8_000, 2),
            span("core.serving.run", 0, 2_000_000, 1),
            span("core.serving.run", 0, 3_000_000, 1),
            span("placement.solve_budgeted", 0, 5_000_000, 1),
            span("placement.solve_budgeted", 0, 1_000_000, 1),
            span("placement.solve_budgeted", 0, 9_000_000, 1),
        ];
        let got: BTreeMap<_, _> = span_metrics(&spans).into_iter().collect();
        assert_eq!(got["model.expert_init_us"], 2.0); // 12 us over 6 calls
        assert_eq!(got["core.serving.run_ms"], 5.0);
        assert_eq!(got["placement.solve_budgeted_ms_p50"], 5.0);
        // Three samples support no tail: the highest percentile is the median.
        assert_eq!(got["placement.solve_budgeted_ms_hi"], 5.0);
        assert!(!got.contains_key("core.engine.build_ms"));
    }
}
