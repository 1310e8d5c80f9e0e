//! The traced run: each workload composed from the workspace's public
//! functions, with a span around every call into a layer.
//!
//! `run_fedtiny_with` owns its round hook, so the FedTiny pipeline is
//! rebuilt here step for step after `fedtiny`'s runner: candidate pool →
//! adaptive-BN selection → `apply_mask` → `ft_fl::run_with` with a hook
//! around `progressive_adjust` and the runner's ledger bookkeeping. The
//! dense baseline is rebuilt after `ft_pruning::run_fedavg_dense`. Each must
//! reproduce the untraced `RunResult` field for field; the benchmark
//! checks that it does.

use crate::trace::{span, ExchangeStats, TimedTransport, Tracer};
use crate::workload::{fedtiny_cfg, Workload};
use fedtiny::{
    adaptive_bn_selection, generate_candidate_pool, progressive::progressive_adjust, FedTinyConfig,
    SelectionConfig, SelectionMode,
};
use ft_fl::{
    no_hook, run_with, AdversarialTransport, CostLedger, ExperimentEnv, InProcess, MetricsHub,
    ModelSpec, RunOptions, RunResult, SimTime, TimelineEvent, Transport,
};
use ft_metrics::{densities_from_mask, device_memory_bytes, total_params, ExtraMemory};
use ft_nn::{apply_mask, sparse_layout, Model};
use ft_sparse::Mask;
use std::cell::RefCell;
use std::sync::Arc;

/// What one traced run produced besides its spans.
pub struct Traced {
    pub result: RunResult,
    /// The final global model and mask (for the training-step probe).
    pub model: Box<dyn Model>,
    pub mask: Mask,
    pub exchange: ExchangeStats,
    pub selection: SelectionCounts,
    pub progressive: ProgressiveCounts,
    pub timeline: Vec<TimelineEvent>,
    pub faults: ft_fl::FaultCounters,
    /// The attached metrics hub's text exposition after the run.
    pub scrape: String,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SelectionCounts {
    pub candidates: usize,
    pub upload_bytes: f64,
    pub extra_flops: f64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ProgressiveCounts {
    /// Hook invocations that reached `progressive_adjust`.
    pub calls: usize,
    /// Of those, calls that changed the mask.
    pub applied: usize,
    pub upload_bytes: f64,
}

/// Runs `workload` on `env` with every layer call inside a span of
/// `tracer`, under a root `run` span.
pub fn run_traced(workload: Workload, env: &ExperimentEnv, tracer: &RefCell<Tracer>) -> Traced {
    let root = tracer.borrow_mut().enter("run");
    let traced = match workload {
        Workload::FedTinyResNet18 => fedtiny(env, &fedtiny_cfg(workload, env), InProcess, tracer),
        Workload::HostileFleetVgg11 => {
            let behaviors = workload.behaviors(env.num_devices());
            let transport = AdversarialTransport::new(SimTime, behaviors, env.cfg.seed);
            fedtiny(env, &fedtiny_cfg(workload, env), transport, tracer)
        }
        Workload::FedAvgResNet18 => fedavg(env, &workload.spec(), tracer),
    };
    tracer.borrow_mut().exit(root);
    traced
}

/// `fedtiny::run_fedtiny_with` over `transport`, composed.
pub fn fedtiny<T: Transport>(
    env: &ExperimentEnv,
    cfg: &FedTinyConfig,
    transport: T,
    tracer: &RefCell<Tracer>,
) -> Traced {
    assert_eq!(cfg.selection, SelectionMode::AdaptiveBn);
    let pcfg = cfg
        .progressive
        .expect("FedTiny workloads prune progressively");
    let env = &*env.codec_view(cfg.codec);
    let mut global = span(tracer, "nn.build", || env.build_model(&cfg.model));
    let sel_cfg = SelectionConfig {
        d_target: cfg.d_target,
        pool_size: cfg.pool_size,
        noise_spread: cfg.noise_spread,
        seed: env.cfg.seed,
    };

    let pool = span(tracer, "selection.pool", || {
        generate_candidate_pool(global.as_ref(), &sel_cfg)
    });
    let outcome = span(tracer, "selection.select", || {
        adaptive_bn_selection(global.as_ref(), env, &pool)
    });
    let mut mask = outcome.mask.clone();
    apply_mask(global.as_mut(), &mask);

    let mut ledger = CostLedger::new();
    ledger.add_extra_flops(outcome.extra_flops);
    ledger.add_comm(outcome.comm_bytes);
    ledger.add_payload_comm(outcome.payload_bytes);
    let selection = SelectionCounts {
        candidates: pool.len(),
        upload_bytes: outcome.payload_bytes,
        extra_flops: outcome.extra_flops,
    };

    // The runner's round hook, with its counters held here.
    let units = pcfg.units(global.as_ref(), mask.num_layers());
    let mut adjustment_counter = 0usize;
    let mut max_buffer = 0usize;
    let mut progressive = ProgressiveCounts::default();
    let mut hook =
        |model: &mut dyn Model, mask: &mut Mask, round: usize, ledger: &mut CostLedger| -> f64 {
            if round < pcfg.start_round || !pcfg.schedule.adjusts_at(round) {
                return 0.0;
            }
            let unit = &units[adjustment_counter % units.len()];
            let report = span(tracer, "progressive.adjust", || {
                progressive_adjust(model, mask, env, &pcfg, unit, round)
            });
            progressive.calls += 1;
            if report.adjusted.is_empty() {
                return 0.0;
            }
            progressive.applied += 1;
            progressive.upload_bytes += report.payload_bytes;
            adjustment_counter += 1;
            max_buffer = max_buffer.max(report.max_buffer);
            ledger.add_comm(report.comm_bytes);
            ledger.add_payload_comm(report.payload_bytes);
            report.extra_flops
        };

    let mut timed = TimedTransport::new(transport, tracer);
    let hub = MetricsHub::new();
    let history = span(tracer, "server", || {
        let mut opts = RunOptions::new(&mut timed);
        opts.metrics = Some(Arc::clone(&hub));
        run_with(
            global.as_mut(),
            &mut mask,
            env,
            cfg.eval_every,
            &mut ledger,
            &mut hook,
            opts,
        )
    })
    .expect("traced fedtiny run failed");

    let arch = global.arch();
    let densities = densities_from_mask(&mask);
    let result = RunResult::from_ledger(
        "fedtiny",
        history,
        mask.density(),
        device_memory_bytes(&arch, &densities, ExtraMemory::TopKBuffer(max_buffer)),
        cfg.codec.name(),
        &ledger,
    );
    Traced {
        result,
        model: global,
        mask,
        exchange: timed.stats,
        selection,
        progressive,
        timeline: ledger.timeline().to_vec(),
        faults: *ledger.faults(),
        scrape: hub.render_text(),
    }
}

/// `ft_pruning::run_fedavg_dense`, composed.
pub fn fedavg(env: &ExperimentEnv, spec: &ModelSpec, tracer: &RefCell<Tracer>) -> Traced {
    let eval_every = (env.cfg.rounds / 5).max(1);
    let env = &*env.codec_view(ft_fl::Codec::Dense);
    let mut global = span(tracer, "nn.build", || env.build_model(spec));
    let mut mask = Mask::ones(&sparse_layout(global.as_ref()));
    apply_mask(global.as_mut(), &mask);
    let mut ledger = CostLedger::new();
    let mut timed = TimedTransport::new(InProcess, tracer);
    let hub = MetricsHub::new();
    let history = span(tracer, "server", || {
        let mut opts = RunOptions::new(&mut timed);
        opts.metrics = Some(Arc::clone(&hub));
        run_with(
            global.as_mut(),
            &mut mask,
            env,
            eval_every,
            &mut ledger,
            &mut no_hook(),
            opts,
        )
    })
    .expect("traced fedavg run failed");
    // A dense model needs no index storage: plain dense bytes.
    let memory = 8.0 * total_params(&global.arch()) as f64;
    let result = RunResult::from_ledger(
        "fedavg",
        history,
        mask.density(),
        memory,
        env.cfg.codec.name(),
        &ledger,
    );
    Traced {
        result,
        model: global,
        mask,
        exchange: timed.stats,
        selection: SelectionCounts::default(),
        progressive: ProgressiveCounts::default(),
        timeline: ledger.timeline().to_vec(),
        faults: *ledger.faults(),
        scrape: hub.render_text(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::result_diff;
    use fedtiny::run_fedtiny;
    use ft_bench::methods::fedtiny_config;
    use ft_bench::{Scale, ScaleKind};
    use ft_data::DatasetProfile;

    #[test]
    fn composed_fedtiny_equals_run_fedtiny() {
        let env = ExperimentEnv::tiny_for_tests(21);
        let cfg = FedTinyConfig::tiny_for_tests(0.3);
        let want = run_fedtiny(&env, &cfg);
        let tracer = RefCell::new(Tracer::default());
        let got = fedtiny(&env, &cfg, InProcess, &tracer);
        assert_eq!(result_diff(&want, &got.result), Vec::<&str>::new());
        assert!(got.progressive.calls > 0, "the tiny schedule adjusts");
        let names: Vec<_> = tracer.borrow().spans().iter().map(|s| s.name).collect();
        for layer in [
            "selection.pool",
            "selection.select",
            "server",
            "progressive.adjust",
        ] {
            assert!(names.contains(&layer), "{layer} missing from {names:?}");
        }
    }

    #[test]
    fn composed_fedtiny_equals_run_fedtiny_on_resnet18() {
        let scale = Scale::new(ScaleKind::Smoke);
        let env = scale.env(DatasetProfile::Cifar10, 3);
        let cfg = fedtiny_config(&env, &scale.resnet(), 0.2);
        let want = run_fedtiny(&env, &cfg);
        let got = fedtiny(&env, &cfg, InProcess, &RefCell::new(Tracer::default()));
        assert_eq!(result_diff(&want, &got.result), Vec::<&str>::new());
    }

    #[test]
    fn composed_fedavg_equals_run_fedavg_dense() {
        let scale = Scale::new(ScaleKind::Smoke);
        let env = scale.env(DatasetProfile::Cifar10, 4);
        let spec = scale.resnet();
        let want = ft_pruning::run_fedavg_dense(&env, &spec, (env.cfg.rounds / 5).max(1));
        let got = fedavg(&env, &spec, &RefCell::new(Tracer::default()));
        assert_eq!(result_diff(&want, &got.result), Vec::<&str>::new());
    }
}
