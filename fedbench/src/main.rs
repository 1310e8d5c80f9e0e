//! `fedbench` — end-to-end and per-layer benchmark of the FedTiny
//! workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path fedbench/Cargo.toml -- \
//!     --workload fedtiny_resnet18 --seed 1 --seconds 35 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of untraced runs; with
//! `--trace 1` the per-layer metrics of runs traced from the benchmark's own
//! code. The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod checks;
mod pipeline;
mod report;
mod trace;
mod workload;

use checks::Checks;
use ft_fl::RunResult;
use report::Metrics;
use std::cell::RefCell;
use std::time::Instant;
use trace::Tracer;
use workload::Workload;

#[global_allocator]
static ALLOC: ft_bench::CountingAlloc = ft_bench::CountingAlloc;

/// Every run executes on one worker thread.
const THREADS: &str = "1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // Pin the worker pool before anything resolves its thread count.
    std::env::set_var("FT_THREADS", THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "error: {e}\nusage: fedbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "fedbench: workload {} seed {} seconds {} trace {} | FT_THREADS={THREADS} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut checks = Checks::default();
    let metrics = run(&args, &mut checks);
    println!("{}", metrics.to_json(&checks));
}

/// A closure's result and the seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Seconds [`reference_s`] takes at the usual fast speed of the host the
/// benchmark was defined on (a 2-vCPU KVM guest on a Xeon).
const REFERENCE_NOMINAL_S: f64 = 0.0135;

/// Times a fixed compute loop that belongs to the benchmark, not to the
/// program. The host's speed moves between levels up to about 2× apart
/// for seconds to minutes at a time; this loop, timed before and after
/// every untraced run, tells which level the run saw.
fn reference_s() -> f64 {
    const N: usize = 128;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut c = vec![0f32; N * N];
    let start = Instant::now();
    for _ in 0..40 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * a[k * N + j];
                }
            }
        }
    }
    std::hint::black_box(&c);
    start.elapsed().as_secs_f64()
}

/// One untraced set-up and run of `seed`, with its timings recorded in
/// `e2e`: the run's wall time, and set-up and run scaled to the nominal
/// host speed.
fn untraced_run(w: Workload, seed: u64, e2e: &mut report::EndToEnd) -> RunResult {
    let before = reference_s();
    let (env, setup_s) = timed(|| workload::setup(w, seed, None));
    let (result, run_s) = timed(|| workload::run(w, &env));
    let scale = REFERENCE_NOMINAL_S / (before * reference_s()).sqrt();
    let samples = workload::samples_per_run(&env);
    e2e.push_run(setup_s * scale, run_s, run_s * scale, samples);
    result
}

/// The distinct seeds one run covers, derived from `--seed`.
fn sub_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    let n = workload.seeds_per_run() as u64;
    (0..n)
        .map(|i| seed.wrapping_mul(n).wrapping_add(i))
        .collect()
}

fn run(args: &Args, checks: &mut Checks) -> Metrics {
    let seeds = sub_seeds(args.workload, args.seed);
    if args.trace {
        traced_runs(args, &seeds, checks)
    } else {
        untraced_runs(args, &seeds, checks)
    }
}

/// `--trace 0`: one untraced run per seed, then repeats, cycling through
/// the seeds, until the time is up (at least one).
fn untraced_runs(args: &Args, seeds: &[u64], checks: &mut Checks) -> Metrics {
    let w = args.workload;
    let started = Instant::now();

    // Pass 1: one untraced run per seed. Quality, traffic, memory and
    // makespan come from these.
    let mut e2e = report::EndToEnd::default();
    let mut firsts = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let result = untraced_run(w, seed, &mut e2e);
        checks.result(w, seed, &result);
        e2e.push_result(&result);
        firsts.push(result);
    }

    // Untraced repeats: each rebuilds its environment from the seed and
    // must reproduce the first run exactly.
    let mut rep = 0;
    while rep == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let i = rep % seeds.len();
        let result = untraced_run(w, seeds[i], &mut e2e);
        checks.same_result("repeat", seeds[i], &firsts[i], &result);
        rep += 1;
    }
    e2e.metrics(checks)
}

/// `--trace 1`: pairs of an untraced and a traced run of one seed,
/// cycling through the seeds, until the time is up (at least two pairs).
/// The traced run must reproduce the untraced result.
fn traced_runs(args: &Args, seeds: &[u64], checks: &mut Checks) -> Metrics {
    let w = args.workload;
    let started = Instant::now();
    let tracer = RefCell::new(Tracer::default());
    let mut layers = report::Layers::default();
    let mut last = None;
    let mut n = 0;
    while n < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let seed = seeds[n % seeds.len()];
        let env = workload::setup(w, seed, None);
        let (untraced, untraced_s) = timed(|| workload::run(w, &env));
        checks.result(w, seed, &untraced);
        tracer.borrow_mut().begin_run(n as u64);
        let env = workload::setup(w, seed, Some(&tracer));
        let traced = pipeline::run_traced(w, &env, &tracer);
        checks.same_result("traced run", seed, &untraced, &traced.result);
        checks.traced(w, seed, &traced);
        layers.push(&tracer.borrow(), n as u64, &traced, &env, untraced_s);
        last = Some((traced, env));
        n += 1;
    }
    let (traced, env) = last.expect("at least two traced runs");
    layers.push_epoch(report::train_epoch(&traced, &env));
    report::write_spans(w, args.seed, &tracer.borrow());
    layers.print_reconciliation(w);
    layers.metrics()
}
