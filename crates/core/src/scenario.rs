//! The unified run front door: one [`Scenario`] value names everything a
//! run can vary — execution mode, drift schedule, serving front-end,
//! fault schedule, starting replication plan — and
//! [`InferenceEngine::run_scenario`] dispatches it to the right engine
//! path.
//!
//! Composition rules:
//!
//! * A bare scenario runs the offline generation benchmark.
//! * `with_replication` alone runs the offline benchmark with the plan's
//!   base placement and replica sets.
//! * `with_drift` alone runs the windowed online loop (drift detection +
//!   budgeted re-placement between windows).
//! * `with_serving` runs the request-level discrete-event loop; a drift
//!   schedule is optional (stationary traffic otherwise), a fault
//!   schedule is optional (no fleet churn otherwise), and a replication
//!   plan seeds the placement the loop starts from — the replicas
//!   emergency failover draws on.
//! * `with_faults` requires `with_serving`: fleet churn is an event-loop
//!   phenomenon, so there is nothing for a windowed or offline run to do
//!   with it.
//!
//! ```
//! use exflow_core::{InferenceEngine, ParallelismMode, Scenario};
//! use exflow_model::presets::moe_gpt_m;
//! use exflow_topology::ClusterSpec;
//!
//! let engine = InferenceEngine::builder(moe_gpt_m(8), ClusterSpec::new(2, 4).unwrap())
//!     .requests_per_gpu(16)
//!     .n_iterations(2)
//!     .build();
//! let report = engine.run_scenario(&Scenario::offline(ParallelismMode::ContextCoherentAffinity));
//! assert!(report.expect_offline().throughput() > 0.0);
//! ```

use exflow_model::{DriftSchedule, FaultSchedule};
use exflow_placement::ReplicationPlan;

use crate::engine::InferenceEngine;
use crate::modes::ParallelismMode;
use crate::report::{InferenceReport, OnlineReport, ServingReport};
use crate::serving::ServingConfig;

/// One run's full specification: mode plus the optional layers that turn
/// an offline benchmark into an online, serving, or faulted run. Built
/// with [`Scenario::offline`] and the `with_*` methods; executed by
/// [`InferenceEngine::run_scenario`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Execution mode every layer runs under.
    pub mode: ParallelismMode,
    /// Non-stationary traffic: serving windows drawn from this schedule,
    /// with drift detection and budgeted re-placement between them.
    pub drift: Option<DriftSchedule>,
    /// Request-level serving front-end (arrivals, queueing, continuous
    /// batching).
    pub serving: Option<ServingConfig>,
    /// Fleet churn (GPU loss / rejoin / scale events); requires
    /// `serving`.
    pub faults: Option<FaultSchedule>,
    /// Starting placement + replica sets. Offline: run exactly this plan.
    /// Serving: seed the loop with it (failover capacity under faults).
    pub replication: Option<ReplicationPlan>,
}

impl Scenario {
    /// The bare offline benchmark in `mode`; layer on the rest with the
    /// `with_*` builders.
    pub fn offline(mode: ParallelismMode) -> Self {
        Scenario {
            mode,
            drift: None,
            serving: None,
            faults: None,
            replication: None,
        }
    }

    /// Serve non-stationary traffic drawn from `drift`: one window per
    /// entry of the schedule, maintaining a streaming affinity estimate
    /// of the live traffic and incrementally re-placing experts when the
    /// estimate drifts from the one the current placement was solved
    /// against. (Under [`Scenario::with_serving`] the same re-plan logic
    /// runs inside the request-level event loop instead.)
    ///
    /// Per window: serve `EngineConfig::n_iterations` generation
    /// iterations from the window's routing model, fold the realized
    /// routing paths into the decayed `StreamingAffinity` estimate, and
    /// compute the drift signal. Every `OnlineConfig::replan_every`
    /// windows, if the drift exceeds `OnlineConfig::drift_threshold` (and
    /// `mode` uses affinity placement at all), a budgeted incremental
    /// re-placement runs from the incumbent and the resulting
    /// `MigrationPlan` is executed over the simulated collectives before
    /// the next window starts.
    ///
    /// Every re-plan migrates at most
    /// `OnlineConfig::migration_budget_bytes`. With
    /// `OnlineConfig::replica_memory_bytes > 0` the
    /// re-plan is **replication-aware**: it may also add or drop expert
    /// replicas onto one-GPU-per-node subsets (`solve_budgeted_replicated_metered`
    /// races subset selection against full fan-out and owner-move descent
    /// under the joint budget), replica
    /// fan-out traffic to the selected subset is priced into the same
    /// migration budget, and dispatch serves replicated experts from the
    /// token's own GPU — or a same-node holder — whenever the subset
    /// covers one. Context-coherent top-2 joins in: primaries always run
    /// on the owner (the route-derivable secondary-merge meeting point),
    /// secondaries serve from replicas. The whole run is a pure function
    /// of (config, drift schedule): bit-identical at any parallelism
    /// width, and cadence-invariant whenever no re-plan fires.
    pub fn with_drift(mut self, drift: DriftSchedule) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Serve request-level traffic through the discrete-event front-end.
    pub fn with_serving(mut self, serving: ServingConfig) -> Self {
        self.serving = Some(serving);
        self
    }

    /// Inject fleet churn into the serving loop.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Start from an explicit replication plan instead of the
    /// engine-solved placement: dispatch serves a token's expert from a
    /// local (or same-node) replica whenever the plan holds one there.
    /// Context-coherent top-2 keeps its secondary-merge meeting point
    /// computable from the route alone by always running the *primary*
    /// copy on the owner GPU; secondaries are free to be served from
    /// replicas.
    pub fn with_replication(mut self, plan: ReplicationPlan) -> Self {
        self.replication = Some(plan);
        self
    }
}

/// What a [`Scenario`] produced: the report type tracks the execution
/// path the scenario dispatched to.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioReport {
    /// An offline generation benchmark (with or without replication).
    Offline(InferenceReport),
    /// A windowed online run.
    Online(OnlineReport),
    /// A request-level serving run.
    Serving(ServingReport),
}

impl ScenarioReport {
    /// The offline report, panicking if the scenario dispatched
    /// elsewhere (the common accessor in offline benchmarks).
    pub fn expect_offline(self) -> InferenceReport {
        match self {
            ScenarioReport::Offline(r) => r,
            other => panic!("scenario did not run offline: {other:?}"),
        }
    }

    /// The windowed online report, panicking if the scenario dispatched
    /// elsewhere.
    pub fn expect_online(self) -> OnlineReport {
        match self {
            ScenarioReport::Online(r) => r,
            other => panic!("scenario did not run the windowed online loop: {other:?}"),
        }
    }

    /// The serving report, panicking if the scenario did not serve
    /// requests (the common accessor in serving benchmarks).
    pub fn expect_serving(self) -> ServingReport {
        match self {
            ScenarioReport::Serving(r) => r,
            other => panic!("scenario did not run the serving front-end: {other:?}"),
        }
    }
}

impl InferenceEngine {
    /// Run one [`Scenario`] end to end. Dispatch follows the composition
    /// rules in the [module docs](crate::scenario); every path is
    /// deterministic, so equal scenarios produce equal reports.
    ///
    /// # Panics
    ///
    /// If the scenario composes layers that have no execution path:
    /// faults without serving, or a replication plan under the windowed
    /// (non-serving) drift loop.
    pub fn run_scenario(&self, scenario: &Scenario) -> ScenarioReport {
        let mode = scenario.mode;
        if let Some(serving) = &scenario.serving {
            let w = self.config().cluster.world_size();
            let stationary;
            let drift = match &scenario.drift {
                Some(d) => d,
                None => {
                    stationary = DriftSchedule::piecewise(&self.config().routing_spec, 1, 1);
                    &stationary
                }
            };
            let none;
            let faults = match &scenario.faults {
                Some(f) => f,
                None => {
                    none = FaultSchedule::none(w);
                    &none
                }
            };
            return ScenarioReport::Serving(self.run_serving_impl(
                mode,
                drift,
                serving,
                faults,
                scenario.replication.as_ref(),
            ));
        }
        assert!(
            scenario.faults.is_none(),
            "fault schedules require the serving front-end (add with_serving)"
        );
        if let Some(drift) = &scenario.drift {
            assert!(
                scenario.replication.is_none(),
                "explicit replication plans are a serving/offline layer; the windowed \
                 online loop manages its own (set `OnlineConfig::replica_memory_bytes`)"
            );
            return ScenarioReport::Online(self.run_online_impl(mode, drift));
        }
        if let Some(plan) = &scenario.replication {
            return ScenarioReport::Offline(self.run_once(mode, plan, self.offline_batches()));
        }
        ScenarioReport::Offline(self.run_with_placement(mode, self.placement_for(mode)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::presets::moe_gpt_m;
    use exflow_model::ArrivalProcess;
    use exflow_topology::ClusterSpec;

    use crate::engine::OnlineConfig;
    use crate::serving::BatchPolicy;

    fn engine() -> InferenceEngine {
        let mut model = moe_gpt_m(8);
        model.n_layers = 4;
        InferenceEngine::builder(model, ClusterSpec::new(2, 2).unwrap())
            .requests_per_gpu(8)
            .prompt_len(8)
            .profile_tokens(800)
            .online(OnlineConfig {
                drift_threshold: f64::INFINITY,
                decay: 0.3,
                ..OnlineConfig::default()
            })
            .seed(11)
            .build()
    }

    fn serving_cfg(e: &InferenceEngine, mode: ParallelismMode) -> ServingConfig {
        let step = e.probe_step_time(mode, 8);
        ServingConfig {
            arrival: ArrivalProcess::poisson(0.8 * 8.0 / (2.0 * step)),
            n_requests: 24,
            decode_steps: 2,
            batch: BatchPolicy::SizeOrWait {
                max_size: 8,
                max_wait: 0.0,
            },
            window_duration: 50.0 * step,
        }
    }

    #[test]
    fn serving_without_drift_serves_stationary_traffic() {
        let eng = engine();
        let mode = ParallelismMode::ContextCoherentAffinity;
        let cfg = serving_cfg(&eng, mode);
        let r = eng
            .run_scenario(&Scenario::offline(mode).with_serving(cfg.clone()))
            .expect_serving();
        assert_eq!(r.n_requests(), cfg.n_requests);
        assert!(r.replans.is_empty(), "stationary traffic never re-plans");
    }

    #[test]
    #[should_panic(expected = "require the serving front-end")]
    fn faults_without_serving_are_rejected() {
        let eng = engine();
        let faults = FaultSchedule::gpu_loss(4, 1, 1.0);
        let _ = eng.run_scenario(
            &Scenario::offline(ParallelismMode::ContextCoherentAffinity).with_faults(faults),
        );
    }

    #[test]
    #[should_panic(expected = "explicit replication plans are a serving/offline layer")]
    fn replication_under_the_windowed_loop_is_rejected() {
        let eng = engine();
        let mode = ParallelismMode::ContextCoherentAffinity;
        let drift = DriftSchedule::piecewise(&eng.config().routing_spec, 1, 1);
        let plan = ReplicationPlan::bare(eng.placement_for(mode).clone());
        let _ = eng.run_scenario(
            &Scenario::offline(mode)
                .with_drift(drift)
                .with_replication(plan),
        );
    }

    #[test]
    #[should_panic(expected = "scenario did not run offline")]
    fn expect_offline_rejects_another_path() {
        let _ = ScenarioReport::Serving(ServingReport::default()).expect_offline();
    }

    #[test]
    #[should_panic(expected = "scenario did not run the windowed online loop")]
    fn expect_online_rejects_another_path() {
        let _ = ScenarioReport::Serving(ServingReport::default()).expect_online();
    }

    #[test]
    #[should_panic(expected = "scenario did not run the serving front-end")]
    fn expect_serving_rejects_another_path() {
        let eng = engine();
        let _ = eng
            .run_scenario(&Scenario::offline(ParallelismMode::Vanilla))
            .expect_serving();
    }
}
