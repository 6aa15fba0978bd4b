//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`--print-spec`), and a
//! unit test keeps the committed file and the tables identical, so the
//! names the harness emits cannot drift from the names the driver reads.

/// Which clock a number is read from. `Sim` values (virtual seconds of the
/// modelled cluster, and exact operation counts) are bit-equal across runs
/// of one seed; `Host` values are wall time of our own code and carry the
/// sandbox's noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

const fn host(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        clock: Clock::Host,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock: Clock::Sim,
    }
}

use Better::{Higher, Lower};

/// The program and arguments the driver runs from the checkout root; it
/// appends `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seconds one run measures for: eleven to fourteen repetitions of
/// 2-2.5 s, set-ups included. The driver makes 4 + 22 x 4 runs inside
/// 3420 s, two builds included, which leaves a run about 36 s with its
/// start-up; a run here ends inside its `--seconds`, a second over at most.
pub const RUN_SECONDS: u64 = 33;

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "offline-fig10",
        "paper Fig. 10 batch generation in all three modes: one long-lived world per mode, so collectives and expert FFN matmuls do the work; placement only in setup, serving unused",
    ),
    (
        "serve-steady",
        "8-GPU Poisson serving at 50/80/95% load on a static placement: every decode step spawns a world and regenerates experts, so per-step overhead dominates; re-planning unused",
    ),
    (
        "serve-churn",
        "4-GPU flash crowd with drift, online re-plans, GPU loss and rejoin, then the JSONL event round trip: the adaptive serving and placement paths serve-steady bypasses",
    ),
    (
        "replan-e512",
        "no engine: streaming affinity, delta-patched CSR objective and cached budgeted re-plan at E=512; collectives, expert FFN and serving unused",
    ),
];

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen. Every one is defined, and non-zero, on all four workloads.
/// Host time appears once, as `steps_per_s`: the fastest repetition's wall
/// is the same number upside down (and, on the serving workloads, with the
/// seed's step count left in), so gating on both only doubled the ways one
/// noisy run could fail.
///
/// The bounds are set from the spreads measured when the benchmark was
/// defined (ten runs, ten seeds, interquartile distance over median; see
/// the README). Host time on the shared sandbox comes in bursts of +20-45 %
/// lasting seconds on top of a level that drifts by +-15 % over minutes
/// with the neighbours' memory traffic; the fastest repetition sheds the
/// bursts, nothing sheds the drift, so the host-time bounds are the 25 %
/// the contract allows. The sim bounds cover the spread *across seeds* —
/// for one seed a sim metric is bit-equal from run to run.
pub const END_TO_END: &[(Metric, f64)] = &[
    (host("setup_s", "s"), 0.25),
    (
        Metric {
            name: "steps_per_s",
            unit: "1/s",
            better: Higher,
            clock: Clock::Host,
        },
        0.25,
    ),
    (host("peak_rss_mb", "MiB"), 0.15),
    (sim("sim_steps_per_s", "1/s", Higher), 0.25),
    (sim("sim_gpu_cross_share", "share", Lower), 0.12),
];

/// Per-layer metrics; the module prefix names the layer. A metric whose
/// layer a workload does not exercise reads 0 on that workload.
pub const PER_LAYER: &[Metric] = &[
    host("topology.alltoallv_time_ns", "ns"),
    host("topology.allgatherv_time_ns", "ns"),
    host("collectives.world_spawn_us_w4", "us"),
    host("collectives.world_spawn_us_w8", "us"),
    host("collectives.alltoall_us", "us"),
    host("collectives.allgather_us", "us"),
    host("collectives.barrier_us", "us"),
    sim("collectives.alltoall_bytes_local", "B", Higher),
    sim("collectives.alltoall_bytes_intra_node", "B", Lower),
    sim("collectives.alltoall_bytes_inter_node", "B", Lower),
    sim("collectives.allgather_bytes_inter_node", "B", Lower),
    host("model.expert_init_us", "us"),
    host("model.expert_forward_us", "us"),
    host("model.batch_sample_us_per_ktok", "us"),
    host("model.arrival_sample_us", "us"),
    host("affinity.observe_delta_ms_p50", "ms"),
    host("affinity.snapshot_ms", "ms"),
    host("affinity.divergence_ms", "ms"),
    sim("affinity.delta_rows_touched", "count", Lower),
    sim("affinity.gap_nnz", "count", Lower),
    host("placement.apply_delta_ms_p50", "ms"),
    host("placement.solve_budgeted_ms_p50", "ms"),
    host("placement.solve_budgeted_ms_hi", "ms"),
    host("placement.solve_budgeted_hi_pct", "%"),
    sim("placement.considered", "count", Lower),
    sim("placement.evaluated", "count", Lower),
    sim("placement.reused", "count", Higher),
    sim("placement.cache_hit_share", "share", Higher),
    sim("placement.moves_per_replan", "count", Lower),
    host("placement.migration_price_us", "us"),
    host("placement.swap_delta_ns_csr", "ns"),
    host("placement.swap_delta_ns_dense", "ns"),
    host("placement.objective_rebuild_ms", "ms"),
    host("placement.solve_cold_ms", "ms"),
    host("placement.solve_staged_ms", "ms"),
    sim("placement.cross_mass_final", "mass", Lower),
    sim("placement.realized_cross_share", "share", Lower),
    host("placement.solve_budgeted_wall_share", "share"),
    host("core.engine.build_ms", "ms"),
    host("core.engine.probe_step_us_p50", "us"),
    host("core.engine.probe_step_us_p95", "us"),
    sim("core.engine.probe_sim_step_s", "s", Lower),
    host("core.engine.step_overhead_us_est", "us"),
    host("core.engine.step_overhead_share_est", "share"),
    host("core.engine.offline_run_ms_vanilla", "ms"),
    host("core.engine.offline_run_ms_cc", "ms"),
    host("core.engine.offline_run_ms_cca", "ms"),
    sim("core.engine.sim_gating_s_vanilla", "s", Lower),
    sim("core.engine.sim_attention_s_vanilla", "s", Lower),
    sim("core.engine.sim_expert_ffn_s_vanilla", "s", Lower),
    sim("core.engine.sim_alltoall_s_vanilla", "s", Lower),
    sim("core.engine.sim_allgather_s_vanilla", "s", Lower),
    sim("core.engine.sim_imbalance_s_vanilla", "s", Lower),
    sim("core.engine.sim_gating_s_cca", "s", Lower),
    sim("core.engine.sim_attention_s_cca", "s", Lower),
    sim("core.engine.sim_expert_ffn_s_cca", "s", Lower),
    sim("core.engine.sim_alltoall_s_cca", "s", Lower),
    sim("core.engine.sim_allgather_s_cca", "s", Lower),
    sim("core.engine.sim_imbalance_s_cca", "s", Lower),
    host("core.serving.run_ms", "ms"),
    host("core.serving.host_us_per_step", "us"),
    host("core.serving.loop_overhead_us_per_step", "us"),
    host("core.serving.probe_explained_share", "share"),
    sim("core.serving.decode_steps", "count", Lower),
    sim("core.serving.mean_batch_occupancy", "count", Higher),
    sim("core.serving.max_queue_depth", "count", Lower),
    sim("core.serving.busy_share", "share", Lower),
    sim("core.serving.goodput_rps", "1/s", Higher),
    sim("core.serving.p99_s_u50", "s", Lower),
    sim("core.serving.p99_s_u80", "s", Lower),
    sim("core.serving.p99_s_u95", "s", Lower),
    sim("core.serving.replans", "count", Lower),
    sim("core.serving.migrated_bytes", "B", Lower),
    sim("core.serving.replicas_added", "count", Lower),
    sim("core.serving.requests_disrupted", "count", Lower),
    sim("core.serving.steps_degraded", "count", Lower),
    sim("core.serving.emergency_bytes", "B", Lower),
    host("core.events.export_us", "us"),
    host("core.events.parse_us", "us"),
    sim("core.events.windows", "count", Lower),
    sim("core.events.roundtrip_failures", "count", Lower),
    sim("sim.tokens_per_s", "1/s", Higher),
    sim("sim.speedup_vs_vanilla", "ratio", Higher),
    sim("sim.p50_latency_s", "s", Lower),
    sim("sim.p99_latency_s", "s", Lower),
    sim("sim.latency_samples", "count", Higher),
    sim("sim.max_rate_in_slo_rps", "1/s", Higher),
    sim("sim.recovery_s", "s", Lower),
    Metric {
        name: "harness.repetitions",
        unit: "count",
        better: Higher,
        clock: Clock::Host,
    },
    host("harness.wall_s_q1", "s"),
    host("harness.wall_s_q3", "s"),
    host("harness.first_rep_excess_share", "share"),
    host("harness.trace_overhead_share", "share"),
    host("harness.spans", "count"),
    host("harness.repetition_self_share", "share"),
    host("harness.nproc", "count"),
];

fn json_str(s: &str) -> String {
    assert!(
        s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()),
        "spec strings must not need JSON escaping: {s}"
    );
    format!("\"{s}\"")
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn render_benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(name),
                json_str(why)
            )
        })
        .collect();
    let entry = |m: &Metric, bound: String| {
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label()),
        )
    };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| entry(m, format!(", \"bound\": {bound}")))
        .collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|m| entry(m, String::new())).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn committed_benchmark_json_is_rendered_from_these_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            render_benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --print-spec > BENCHMARK.json"
        );
    }

    #[test]
    fn tables_stay_inside_the_driver_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(seen.insert(name), "name used twice: {name}");
        }
        for m in END_TO_END.iter().map(|m| &m.0).chain(PER_LAYER.iter()) {
            assert!(well_formed(m.unit, 16, "_/%.-"), "bad unit {}", m.unit);
        }
        for (m, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = &END_TO_END[0].0;
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        assert!(render_benchmark_json().len() <= 64 * 1024);
    }
}
