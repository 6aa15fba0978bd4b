//! Table I — comparison of MoE optimization methods: topology awareness,
//! extra memory, forward communication volume (top-1 and top-2 gating),
//! inference applicability.
//!
//! The volume columns are the paper's closed forms evaluated with routing
//! fractions *measured* from engine runs: `p` from the round-robin
//! placement, `p*` from the affinity placement, and `p_topo` modeled as the
//! paper describes (topology-aware gating keeps a tuned fraction of tokens
//! local during training; we evaluate its formula at the same measured `p`
//! discounted by the locality FasterMoE reports, ~30%).

use exflow_core::commvolume::{System, VolumeParams};
use exflow_core::json::Json;
use exflow_core::ParallelismMode;
use exflow_model::presets::moe_gpt_m;

use crate::experiments::common::{engine_for, run_offline, Workload};
use crate::fmt::f3;
use crate::table::{find, num, nums, render_section, text, Bars};

fn yes_no(flag: bool) -> Json {
    if flag { "yes" } else { "no" }.into()
}

/// Regenerate Table I, one row per system. The measurement scenario is
/// MoE-GPT-M/16e on 8 GPUs (2 nodes), the configuration where the paper
/// reports its headline 2.2x.
pub fn sweep(w: &Workload) -> Result<Vec<Json>, String> {
    // Table I's ExFlow advantage amortizes the AllGather term over the
    // layer count, so the measurement keeps the model's true 24 layers
    // under every workload (a smaller one trims the batch, not the model).
    let model = moe_gpt_m(16);
    let gpus = 8;
    let engine = engine_for(model.clone(), gpus, w);

    let cc = run_offline(&engine, ParallelismMode::ContextCoherent);
    let aff = run_offline(&engine, ParallelismMode::ContextCoherentAffinity);
    let p = 1.0 - cc.dispatch.gpu_local_fraction();
    let p_star = 1.0 - aff.dispatch.gpu_local_fraction();
    // FasterMoE/TA-MoE report keeping roughly a third of the dispatch
    // local on their training clusters; the fraction is not transferable
    // to inference (Table I's point) but its magnitude is modeled here.
    let p_topo = p * 0.7;

    let params = VolumeParams {
        g: gpus,
        n: engine.config().requests_per_gpu,
        l: model.n_layers,
    };
    Ok(System::ALL
        .iter()
        .map(|&system| {
            let topo_aware = matches!(system, System::FasterMoe | System::TaMoe);
            let frac = match system {
                System::FasterMoe | System::TaMoe => p_topo,
                System::DeepspeedMoe => p,
                System::ExFlow => p_star,
            };
            Json::obj(vec![
                // System name.
                ("system", system.label().into()),
                // Scenario dimensions: GPUs, requests per GPU, MoE layers.
                ("gpus", params.g.into()),
                ("requests_per_gpu", params.n.into()),
                ("layers", params.l.into()),
                // Whether the system's gating is topology-aware.
                ("topo_aware", yes_no(topo_aware)),
                // Whether it stores extra expert copies.
                ("extra_memory", yes_no(system.extra_memory())),
                // Routing fraction the system achieves: the measured
                // cross-GPU fraction `p` (DeepSpeed), the modeled `p_topo`,
                // or the measured `p*` under affinity placement (ExFlow).
                ("routing_fraction", frac.into()),
                // Forward volume (token-units) under top-1 gating.
                ("volume_top1", system.volume(params, frac, 1).into()),
                // Forward volume under top-2 gating.
                ("volume_top2", system.volume(params, frac, 2).into()),
                // Whether the method applies at inference time.
                ("inference_ok", yes_no(system.applicable_in_inference())),
            ])
        })
        .collect())
}

/// ExFlow moves the smallest forward volume, affinity placement lowers the
/// measured routing fraction (`p* < p`, with `p` a fraction), and top-2
/// gating costs every system more than top-1.
pub(crate) fn bars(rows: &[Json], bars: &mut Bars) {
    for r in rows {
        let [top1, top2] = nums(r, ["volume_top1", "volume_top2"]);
        let what = format!("top-2 volume {top2} not above top-1 {top1}");
        bars.fail_if(r, top2 <= top1, what);
    }
    let row = |system: System| find(rows, "system", system.label());
    let (Some(exflow), Some(deepspeed), Some(faster)) = (
        row(System::ExFlow),
        row(System::DeepspeedMoe),
        row(System::FasterMoe),
    ) else {
        return;
    };
    let [volume, p_star] = nums(exflow, ["volume_top1", "routing_fraction"]);
    for other in [deepspeed, faster] {
        let theirs = num(other, "volume_top1");
        let what = format!("volume {theirs} not above ExFlow's {volume}");
        bars.fail_if(other, volume >= theirs, what);
    }
    let p = num(deepspeed, "routing_fraction");
    let what = format!("affinity p* {p_star} should be below p {p}");
    bars.fail_if(exflow, p_star >= p || p <= 0.0 || p > 1.0, what);
}

/// The table in the paper's layout.
pub fn render(rows: &[Json]) -> String {
    let fraction = |system: System| {
        let row = find(rows, "system", system.label());
        row.map_or(f64::NAN, |r| num(r, "routing_fraction"))
    };
    let Some(first) = rows.first() else {
        return String::new();
    };
    let title = format!(
        "Table I: forward communication volume (token-units), G={} N={} L={}\n\
         measured p = {:.3}, p* = {:.3}",
        text(first, "gpus"),
        text(first, "requests_per_gpu"),
        text(first, "layers"),
        fraction(System::DeepspeedMoe),
        fraction(System::ExFlow)
    );
    render_section(
        &title,
        &[
            ("system", &|r| text(r, "system")),
            ("topo-aware", &|r| text(r, "topo_aware")),
            ("extra-mem", &|r| text(r, "extra_memory")),
            ("routing-frac", &|r| f3(num(r, "routing_fraction"))),
            ("comm@top1", &|r| format!("{:.0}", num(r, "volume_top1"))),
            ("comm@top2", &|r| format!("{:.0}", num(r, "volume_top2"))),
            ("inference-ok", &|r| text(r, "inference_ok")),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use crate::table::fixture::assert_trips;

    // Row order is `System::ALL`: FasterMoE, TA-MoE, Deepspeed-MoE, ExFlow.

    #[test]
    fn exflow_achieves_smallest_volume() {
        let edit = [
            (3, "volume_top1", 1e9.into()),
            (3, "volume_top2", 2e9.into()),
        ];
        assert_trips("table1", &edit, "not above ExFlow's");
    }

    #[test]
    fn affinity_reduces_routing_fraction() {
        let edit = [(3, "routing_fraction", 1.0.into())];
        assert_trips("table1", &edit, "should be below p");
    }

    #[test]
    fn top2_volumes_exceed_top1() {
        let edit = [(0, "volume_top2", 0.0.into())];
        assert_trips("table1", &edit, "not above top-1");
    }
}
