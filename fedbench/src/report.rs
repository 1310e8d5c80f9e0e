//! Turning runs and spans into the reported metrics.

use crate::checks::Checks;
use crate::pipeline::Traced;
use crate::trace::Tracer;
use crate::workload::Workload;
use ft_bench::allocated_bytes;
use ft_fl::{
    device_rng_seed, evaluate, local_train_scratch, ExperimentEnv, RunResult, TrainScratch,
};
use ft_nn::optim::Sgd;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;
use std::time::Instant;

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The result line. A non-finite value cannot be printed as JSON; it
    /// fails the run instead.
    pub fn to_json(&self, checks: &Checks) -> String {
        let bad: Vec<_> = self.0.iter().filter(|m| !m.1.is_finite()).collect();
        for (name, value, _) in &bad {
            eprintln!("check failed: metric {name} is {value}");
        }
        let failed = checks.failed + bad.len() as u64;
        let attempted = checks.attempted + bad.len() as u64;
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Untraced measurements of one benchmark run.
#[derive(Default)]
pub struct EndToEnd {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    samples_per_s: Vec<f64>,
    wall_run_s: Vec<f64>,
    accuracy: Vec<f64>,
    comm_bytes: Vec<f64>,
    memory_bytes: Vec<f64>,
    makespan_s: Vec<f64>,
}

impl EndToEnd {
    /// `wall_s` is the run's wall seconds; `setup_s` and `run_s` are at the
    /// nominal host speed, which the time metrics report.
    pub fn push_run(&mut self, setup_s: f64, wall_s: f64, run_s: f64, samples: f64) {
        self.setup_s.push(setup_s);
        self.wall_run_s.push(wall_s);
        self.run_s.push(run_s);
        self.samples_per_s.push(samples / run_s);
    }

    pub fn push_result(&mut self, r: &RunResult) {
        self.accuracy.push(r.accuracy as f64);
        self.comm_bytes.push(r.payload_comm_bytes);
        self.memory_bytes.push(r.memory_bytes);
        self.makespan_s.push(r.sim_makespan_secs);
    }

    /// Timings are medians over every run; result fields are means over
    /// the distinct seeds. Quality is reported as top-1 error: near chance
    /// (the hostile fleet) accuracy is a small number whose relative
    /// seed-to-seed spread no bound can hold.
    pub fn metrics(&self, checks: &Checks) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("run_s", median(&self.run_s), "s");
        m.put("train_samples_per_s", median(&self.samples_per_s), "1/s");
        m.put("final_error", 1.0 - mean(&self.accuracy), "ratio");
        m.put("comm_bytes", mean(&self.comm_bytes), "bytes");
        m.put("device_memory_bytes", mean(&self.memory_bytes), "bytes");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("sim_makespan_s", mean(&self.makespan_s), "s");
        m.put("checks_passed_ratio", checks.passed_ratio(), "ratio");
        println!(
            "end-to-end: {} runs over {} seeds; wall run seconds {:?} (median {:.4}); \
             accuracy by seed {:?}",
            self.run_s.len(),
            self.accuracy.len(),
            self.wall_run_s,
            median(&self.wall_run_s),
            self.accuracy
        );
        m
    }
}

/// One measured `local_train_scratch` epoch.
#[derive(Clone, Copy, Debug)]
pub struct Epoch {
    secs: f64,
    flops: f64,
    alloc: f64,
}

/// Traced measurements of one benchmark run.
#[derive(Default)]
pub struct Layers {
    /// Per traced run: its per-layer metrics, in print order.
    runs: Vec<Metrics>,
    /// Per traced run: self seconds of every layer span inside the run.
    self_s: Vec<Vec<(&'static str, f64)>>,
    /// Per traced run: `RunResult.train_wall_secs`, for the report.
    train_wall_s: Vec<f64>,
    /// Every round's exchange seconds, pooled over the traced runs.
    round_s: Vec<f64>,
    epochs: Vec<Epoch>,
}

impl Layers {
    /// Records traced run `run`; `untraced_run_s` is the untraced run
    /// time of the same seed.
    pub fn push(
        &mut self,
        tracer: &Tracer,
        run: u64,
        t: &Traced,
        env: &ExperimentEnv,
        untraced_run_s: f64,
    ) {
        // Set-up spans and the root have no parent; everything inside the
        // run is summed by span name as (self seconds, self bytes).
        let (mut env_s, mut build_s, mut run_s) = (0.0, 0.0, 0.0);
        let mut layers: Vec<(&'static str, f64, f64)> = Vec::new();
        for (id, span) in tracer.run_spans(run) {
            match (span.parent, span.name) {
                (None, "data.env") => env_s += span.secs(),
                (None, "nn.build") => build_s += span.secs(),
                (None, name) => {
                    assert_eq!(name, "run", "unexpected top-level span");
                    run_s = span.secs();
                }
                (Some(_), name) => {
                    let (secs, bytes) = (tracer.self_secs(id), tracer.self_alloc(id) as f64);
                    match layers.iter_mut().find(|l| l.0 == name) {
                        Some(l) => (l.1, l.2) = (l.1 + secs, l.2 + bytes),
                        None => layers.push((name, secs, bytes)),
                    }
                }
            }
        }
        let layer = |name: &str| {
            layers
                .iter()
                .find(|l| l.0 == name)
                .map_or((0.0, 0.0), |l| (l.1, l.2))
        };
        let (pool_s, pool_bytes) = layer("selection.pool");
        let (select_s, select_bytes) = layer("selection.select");
        let (adjust_s, adjust_bytes) = layer("progressive.adjust");
        let (exchange_s, exchange_bytes) = layer("transport.exchange");
        let (server_s, server_bytes) = layer("server");
        let attributed_s: f64 = layers.iter().map(|l| l.1).sum();
        let eval_s = eval_secs(t, env);
        let (x, sel, prog) = (&t.exchange, &t.selection, &t.progressive);
        let applied = t.timeline.iter().filter(|e| e.applied).count();

        let mut m = Metrics::default();
        m.put("data.env_s", env_s, "s");
        m.put("nn.build_s", build_s, "s");
        m.put("selection.pool_s", pool_s, "s");
        m.put("selection.select_s", select_s, "s");
        m.put("selection.candidates", sel.candidates as f64, "count");
        m.put("selection.upload_bytes", sel.upload_bytes, "bytes");
        m.put("selection.extra_flops", sel.extra_flops, "flops");
        m.put("progressive.adjust_s", adjust_s, "s");
        m.put("progressive.calls", prog.calls as f64, "count");
        let applied_ratio = prog.applied as f64 / prog.calls.max(1) as f64;
        m.put("progressive.applied_ratio", applied_ratio, "ratio");
        m.put("progressive.upload_bytes", prog.upload_bytes, "bytes");
        m.put("transport.exchange_s", exchange_s, "s");
        m.put("transport.updates", x.updates as f64, "count");
        m.put(
            "transport.quarantined.malformed_frame",
            x.malformed as f64,
            "count",
        );
        m.put(
            "transport.quarantined.inflated_samples",
            x.inflated as f64,
            "count",
        );
        m.put("transport.quarantined.replay", x.replay as f64, "count");
        m.put(
            "transport.quarantined.disconnected",
            x.disconnected as f64,
            "count",
        );
        m.put("transport.upload_bytes", x.upload_bytes as f64, "bytes");
        let gflops = x.realized_flops / exchange_s.max(f64::MIN_POSITIVE) / 1e9;
        m.put("transport.realized_gflops", gflops, "GFLOP/s");
        m.put("server.self_s", server_s, "s");
        m.put("server.eval_s", eval_s, "s");
        m.put("server.other_s", server_s - eval_s, "s");
        let timeline = t.timeline.len().max(1) as f64;
        m.put("server.applied_ratio", applied as f64 / timeline, "ratio");
        m.put("alloc.selection_bytes", pool_bytes + select_bytes, "bytes");
        m.put("alloc.transport_bytes", exchange_bytes, "bytes");
        m.put("alloc.progressive_bytes", adjust_bytes, "bytes");
        m.put("alloc.server_bytes", server_bytes, "bytes");
        m.put("trace.run_s", run_s, "s");
        m.put("trace.overhead_s", run_s - untraced_run_s, "s");
        m.put(
            "trace.unattributed_share",
            1.0 - attributed_s / run_s,
            "ratio",
        );

        self.runs.push(m);
        self.self_s
            .push(layers.iter().map(|l| (l.0, l.1)).collect());
        self.train_wall_s.push(t.result.train_wall_secs);
        self.round_s.extend_from_slice(&x.round_secs);
    }

    pub fn push_epoch(&mut self, epochs: Vec<Epoch>) {
        self.epochs = epochs;
    }

    /// Median over the traced runs of the per-run metric `name`.
    fn med(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.0.iter().find(|m| m.0 == name).map(|m| m.1))
            .collect();
        median(&values)
    }

    /// Per-run metrics as medians over the traced runs, then the ones
    /// pooled over rounds and epochs.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, _, unit) in &self.runs.first().expect("at least one traced run").0 {
            m.put(name, self.med(name), unit);
        }
        let (p50, high, pct) = round_percentiles(&self.round_s);
        m.put("transport.round_p50_s", p50, "s");
        m.put("transport.round_high_s", high, "s");
        m.put("transport.round_high_pct", pct, "%");
        m.put(
            "transport.rounds_sampled",
            self.round_s.len() as f64,
            "count",
        );
        let epoch = |f: fn(&Epoch) -> f64| median(&self.epochs.iter().map(f).collect::<Vec<_>>());
        m.put("nn.epoch_s", epoch(|e| e.secs), "s");
        m.put(
            "nn.epoch_gflops",
            epoch(|e| e.flops / e.secs / 1e9),
            "GFLOP/s",
        );
        m.put("nn.epoch_alloc_bytes", epoch(|e| e.alloc), "bytes");
        m
    }

    /// The reconciliation report: each layer's self time against the
    /// traced `run_s`, and what no span covers.
    pub fn print_reconciliation(&self, workload: Workload) {
        let run_s = self.med("trace.run_s");
        println!(
            "reconciliation ({}; medians of {} traced runs):",
            workload.name(),
            self.runs.len()
        );
        let row = |name: &str, v: f64| {
            println!("  {name:<20} {v:>9.4} s  {:>5.1}%", 100.0 * v / run_s);
        };
        let layer_med = |name: &str| {
            let v: Vec<f64> = (self.self_s.iter())
                .map(|r| r.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1))
                .collect();
            median(&v)
        };
        for &(name, _) in self.self_s.last().into_iter().flatten() {
            row(name, layer_med(name));
        }
        let attributed: Vec<f64> = (self.self_s.iter())
            .map(|r| r.iter().map(|l| l.1).sum())
            .collect();
        row("sum of self times", median(&attributed));
        row("unattributed", run_s * self.med("trace.unattributed_share"));
        println!("  {:<20} {run_s:>9.4} s", "traced run_s");
        println!(
            "  {:<20} {:>+9.4} s  (traced minus untraced run_s, same seed)",
            "tracing overhead",
            self.med("trace.overhead_s")
        );
        println!(
            "  server.eval_s {:.4} s of server self {:.4} s",
            self.med("server.eval_s"),
            self.med("server.self_s")
        );
        println!(
            "  RunResult.train_wall_secs {:.4} s (slowest device per round) \
             vs transport.exchange_s {:.4} s",
            median(&self.train_wall_s),
            self.med("transport.exchange_s")
        );
    }
}

/// The median and the highest percentile with at least ten samples above
/// it (the maximum when there are fewer than eleven samples).
fn round_percentiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let h = n.saturating_sub(11);
    let h = if n < 11 { n - 1 } else { h };
    (median(&s), s[h], 100.0 * (h + 1) as f64 / n as f64)
}

/// `evaluate` time on the final model, times the number of evaluations
/// the server ran.
fn eval_secs(t: &Traced, env: &ExperimentEnv) -> f64 {
    let mut model = t.model.clone_model();
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            evaluate(model.as_mut(), &env.test);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times) * t.result.history.len() as f64
}

/// Epochs of `local_train_scratch` on device 0's partition with the run's
/// final model and mask, after one warm-up epoch.
pub fn train_epoch(t: &Traced, env: &ExperimentEnv) -> Vec<Epoch> {
    let mut model = t.model.clone_model();
    let data = &env.parts[0];
    let mut sgd = Sgd::new(env.cfg.sgd);
    let mut rng = ChaCha8Rng::seed_from_u64(device_rng_seed(env.cfg.seed, 0, 0));
    let mut scratch = TrainScratch::default();
    let mut epoch = |model: &mut dyn ft_nn::Model| {
        model.reset_realized_flops();
        let alloc = allocated_bytes();
        let start = Instant::now();
        local_train_scratch(
            model,
            data,
            Some(&t.mask),
            1,
            env.cfg.batch_size,
            &mut sgd,
            &mut rng,
            0.0,
            &mut scratch,
        );
        Epoch {
            secs: start.elapsed().as_secs_f64(),
            flops: model.realized_flops(),
            alloc: (allocated_bytes() - alloc) as f64,
        }
    };
    epoch(model.as_mut());
    (0..7).map(|_| epoch(model.as_mut())).collect()
}

/// Writes every span as JSON lines to `fedbench/out/`.
pub fn write_spans(workload: Workload, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}
