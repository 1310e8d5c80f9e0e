//! The three benchmark workloads: how each builds its environment from a
//! seed and how its untraced run calls the program.

use fedtiny::{run_fedtiny_with, FedTinyConfig, FedTinyRunOptions};
use ft_bench::methods::fedtiny_config;
use ft_bench::{run_method, Method, Scale, ScaleKind};
use ft_data::DatasetProfile;
use ft_fl::{
    fleet_spread_deadline, AdversarialTransport, Aggregator, Behavior, DeviceProfile,
    ExperimentEnv, InProcess, ModelSpec, RunResult, Scheduler, SimTime,
};
use ft_nn::sparse_layout;
use ft_pruning::BaselineMethod;
use std::cell::RefCell;

use crate::trace::{maybe_span, Tracer};

/// Target overall density of every workload.
pub const D_TARGET: f32 = 0.05;

/// Device ids of the hostile fleet and what they send.
pub const GARBAGE_DEVICE: usize = 1;
pub const INFLATE_DEVICE: usize = 5;
pub const SIGN_FLIP_DEVICE: usize = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// FedTiny on ResNet18, 4 devices, uniform fleet, synchronous,
    /// in-process transport, FedAvg.
    FedTinyResNet18,
    /// Dense FedAvg (Dense codec) on the same environment and model.
    FedAvgResNet18,
    /// FedTiny on VGG11 with 16 small devices (three hostile) on a mixed
    /// fleet under a deadline, over the frame boundary, TrimmedMean.
    HostileFleetVgg11,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FedTinyResNet18,
        Workload::FedAvgResNet18,
        Workload::HostileFleetVgg11,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FedTinyResNet18 => "fedtiny_resnet18",
            Workload::FedAvgResNet18 => "fedavg_resnet18",
            Workload::HostileFleetVgg11 => "hostile_fleet_vgg11",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs FedTiny (selection + progressive pruning)
    /// rather than dense FedAvg.
    pub fn is_fedtiny(self) -> bool {
        self != Workload::FedAvgResNet18
    }

    /// Distinct seeds one benchmark run covers: accuracy varies a lot
    /// from seed to seed at this scale, so quality, traffic and makespan
    /// are averaged over several.
    pub fn seeds_per_run(self) -> usize {
        match self {
            Workload::FedTinyResNet18 => 12,
            Workload::FedAvgResNet18 => 9,
            Workload::HostileFleetVgg11 => 8,
        }
    }

    fn scale(self) -> Scale {
        let mut scale = Scale::new(ScaleKind::Lab);
        if self == Workload::HostileFleetVgg11 {
            scale.devices = 16;
            scale.train_per_class = 40;
        }
        scale
    }

    pub fn spec(self) -> ModelSpec {
        match self {
            Workload::HostileFleetVgg11 => self.scale().vgg(),
            _ => self.scale().resnet(),
        }
    }

    /// Per-device behaviors of the fleet (empty = all honest).
    pub fn behaviors(self, devices: usize) -> Vec<Behavior> {
        if self != Workload::HostileFleetVgg11 {
            return Vec::new();
        }
        let mut b = vec![Behavior::Honest; devices];
        b[GARBAGE_DEVICE] = Behavior::GarbageFrames;
        b[INFLATE_DEVICE] = Behavior::InflateSamples { factor: 8 };
        b[SIGN_FLIP_DEVICE] = Behavior::SignFlip { scale: 8.0 };
        b
    }
}

/// Set-up for one seed: builds the environment (`data` layer) and the
/// model (`nn` layer), each in its own span when a tracer is given. The
/// runs build their own model; this one sizes the hostile fleet's
/// deadline and measures model construction.
pub fn setup(workload: Workload, seed: u64, tracer: Option<&RefCell<Tracer>>) -> ExperimentEnv {
    let scale = workload.scale();
    let mut env = maybe_span(tracer, "data.env", || {
        scale.env(DatasetProfile::Cifar10, seed)
    });
    let model = maybe_span(tracer, "nn.build", || env.build_model(&workload.spec()));
    if workload == Workload::HostileFleetVgg11 {
        env.cfg.aggregator = Aggregator::TrimmedMean { beta: 0.2 };
        env.fleet = DeviceProfile::fleet_mixed(env.num_devices());
        // A deadline inside the fleet's spread at the target density: the
        // fast tier lands, the slow tier is cut.
        let densities = vec![D_TARGET; sparse_layout(model.as_ref()).num_layers()];
        let deadline_secs = fleet_spread_deadline(&env, &model.arch(), &densities);
        env.scheduler = Scheduler::Deadline { deadline_secs };
    }
    env
}

/// The FedTiny configuration of a FedTiny workload.
pub fn fedtiny_cfg(workload: Workload, env: &ExperimentEnv) -> FedTinyConfig {
    fedtiny_config(env, &workload.spec(), D_TARGET)
}

/// The untraced run: the program's own entry point, nothing attached.
pub fn run(workload: Workload, env: &ExperimentEnv) -> RunResult {
    match workload {
        Workload::FedTinyResNet18 => {
            let mut transport = InProcess;
            run_fedtiny_with(
                env,
                &fedtiny_cfg(workload, env),
                FedTinyRunOptions::new(&mut transport),
            )
            .expect("fedtiny run failed")
        }
        Workload::FedAvgResNet18 => run_method(
            env,
            &workload.spec(),
            Method::Baseline(BaselineMethod::FedAvgDense),
            D_TARGET,
        ),
        Workload::HostileFleetVgg11 => {
            let mut transport = AdversarialTransport::new(
                SimTime,
                workload.behaviors(env.num_devices()),
                env.cfg.seed,
            );
            run_fedtiny_with(
                env,
                &fedtiny_cfg(workload, env),
                FedTinyRunOptions::new(&mut transport),
            )
            .expect("hostile fleet run failed")
        }
    }
}

/// Local samples one run trains: every cohort member trains its whole
/// partition for `local_epochs` every round (participation is 1.0, and
/// hostile devices train honestly before corrupting their upload).
pub fn samples_per_run(env: &ExperimentEnv) -> f64 {
    (env.total_train_samples() * env.cfg.local_epochs * env.cfg.rounds) as f64
}
