//! Output checks. Every check counts as attempted; a failing one is
//! reported on stderr and counted as failed.

use crate::pipeline::Traced;
use crate::workload::{Workload, D_TARGET, GARBAGE_DEVICE, INFLATE_DEVICE};
use ft_fl::{FaultKind, RunResult};

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn passed_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Plausibility of one run's result.
    pub fn result(&mut self, workload: Workload, seed: u64, r: &RunResult) {
        let acc_ok = |a: f32| a.is_finite() && (0.0..=1.0).contains(&a);
        self.check(
            !r.history.is_empty() && r.history.iter().all(|&a| acc_ok(a)) && acc_ok(r.accuracy),
            || {
                format!(
                    "seed {seed}: accuracy {} / history {:?}",
                    r.accuracy, r.history
                )
            },
        );
        if workload.is_fedtiny() {
            self.check(r.final_density <= D_TARGET + 0.01, || {
                format!(
                    "seed {seed}: final density {} > {}",
                    r.final_density,
                    D_TARGET + 0.01
                )
            });
        } else {
            self.check(r.final_density == 1.0, || {
                format!("seed {seed}: dense run has density {}", r.final_density)
            });
        }
    }

    /// `got` must equal `want` in every field but the wall-clock one.
    pub fn same_result(&mut self, what: &str, seed: u64, want: &RunResult, got: &RunResult) {
        let diff = result_diff(want, got);
        self.check(diff.is_empty(), || {
            format!("seed {seed}: {what} differs in {}", diff.join(", "))
        });
    }

    /// The traced run's own observations: per-device quarantine on the
    /// hostile fleet, and the metrics-hub scrape against the ledger.
    pub fn traced(&mut self, workload: Workload, seed: u64, t: &Traced) {
        if workload == Workload::HostileFleetVgg11 {
            for (round, outcomes) in t.exchange.outcomes.iter().enumerate() {
                let ok = outcomes.iter().all(|(k, fault)| match (*k, fault) {
                    (GARBAGE_DEVICE, Some(FaultKind::MalformedFrame(_))) => true,
                    (INFLATE_DEVICE, Some(FaultKind::InflatedSamples { .. })) => true,
                    (GARBAGE_DEVICE | INFLATE_DEVICE, _) => false,
                    (_, fault) => fault.is_none(),
                });
                self.check(ok, || {
                    format!("seed {seed}: round {round} quarantine pattern {outcomes:?}")
                });
            }
        } else {
            self.check(t.exchange.quarantined() == 0, || {
                format!("seed {seed}: honest fleet had quarantined updates")
            });
        }
        let f = &t.faults;
        for (kind, want) in [
            ("malformed_frame", f.malformed_frames),
            ("replay", f.replays),
            ("disconnect", f.disconnects),
            ("inflated_samples", f.inflated_samples),
        ] {
            let line = format!("ft_faults_total{{kind=\"{kind}\"}}");
            let got = scrape_value(&t.scrape, &line);
            self.check(got == Some(want as f64), || {
                format!("seed {seed}: scrape {line} = {got:?}, ledger {want}")
            });
        }
        let events = scrape_value(&t.scrape, "ft_update_staleness_rounds_count");
        self.check(events == Some(t.timeline.len() as f64), || {
            format!(
                "seed {seed}: scrape counts {events:?} events, ledger {}",
                t.timeline.len()
            )
        });
    }
}

/// Names of the fields where two results differ (`train_wall_secs`, a
/// wall-clock reading, excepted).
pub fn result_diff(a: &RunResult, b: &RunResult) -> Vec<&'static str> {
    // Bit equality; widening an f32 keeps its bits distinct.
    let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
    let history = a.history.len() == b.history.len()
        && a.history
            .iter()
            .zip(&b.history)
            .all(|(x, y)| eq(*x as f64, *y as f64));
    [
        ("method", a.method == b.method),
        ("codec", a.codec == b.codec),
        ("accuracy", eq(a.accuracy as f64, b.accuracy as f64)),
        ("history", history),
        (
            "final_density",
            eq(a.final_density as f64, b.final_density as f64),
        ),
        ("max_round_flops", eq(a.max_round_flops, b.max_round_flops)),
        ("memory_bytes", eq(a.memory_bytes, b.memory_bytes)),
        ("comm_bytes", eq(a.comm_bytes, b.comm_bytes)),
        (
            "payload_comm_bytes",
            eq(a.payload_comm_bytes, b.payload_comm_bytes),
        ),
        (
            "payload_upload_bytes",
            eq(a.payload_upload_bytes, b.payload_upload_bytes),
        ),
        ("extra_flops", eq(a.extra_flops, b.extra_flops)),
        (
            "realized_round_flops",
            eq(a.realized_round_flops, b.realized_round_flops),
        ),
        (
            "sim_makespan_secs",
            eq(a.sim_makespan_secs, b.sim_makespan_secs),
        ),
    ]
    .into_iter()
    .filter_map(|(name, same)| (!same).then_some(name))
    .collect()
}

/// The value of the first exposition line starting with `series `.
fn scrape_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}
