//! In-memory span recording and the timing transport wrapper.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! workspace's public functions; the program itself carries no
//! instrumentation. Each span keeps its name, start and end (nanoseconds
//! since the tracer was created), its parent span, the traced run it
//! belongs to, and the allocator's byte counter at both ends.

use ft_bench::allocated_bytes;
use ft_fl::{Delivery, DeviceUpdate, FaultKind, RoundRequest, Transport, TransportError, WireCtx};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
    pub alloc_start: u64,
    pub alloc_end: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn alloc(&self) -> u64 {
        self.alloc_end - self.alloc_start
    }
}

/// Collects spans in memory; nested spans get the innermost open span as
/// their parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

impl Tracer {
    /// Starts a new traced run: later spans carry this id.
    pub fn begin_run(&mut self, run: u64) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            alloc_start: allocated_bytes(),
            alloc_end: 0,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.alloc_end = allocated_bytes();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans of one traced run.
    pub fn run_spans(&self, run: u64) -> impl Iterator<Item = (usize, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.run == run)
    }

    /// Span duration minus the part its direct children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self.children(id).map(Span::secs).sum();
        self.spans[id].secs() - children
    }

    /// Span allocation minus what its direct children allocated.
    pub fn self_alloc(&self, id: usize) -> u64 {
        let children: u64 = self.children(id).map(Span::alloc).sum();
        self.spans[id].alloc() - children
    }

    fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"alloc_bytes\":{}}}",
                s.name,
                s.run,
                s.start_ns,
                s.end_ns,
                s.alloc()
            );
        }
        out
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tracer.borrow_mut().enter(name);
    let out = f();
    tracer.borrow_mut().exit(id);
    out
}

/// What the wrapped transport moved in one traced run.
#[derive(Clone, Debug, Default)]
pub struct ExchangeStats {
    /// Wall seconds of every `exchange_round` call, in round order.
    pub round_secs: Vec<f64>,
    /// Updates that passed screening.
    pub updates: u64,
    pub malformed: u64,
    pub inflated: u64,
    pub replay: u64,
    pub disconnected: u64,
    /// Sum of the surviving updates' `payload.encoded_len`.
    pub upload_bytes: u64,
    /// Sum of the surviving updates' `realized_flops`.
    pub realized_flops: f64,
    /// Per round, the cohort's devices with their fault (`None` = update
    /// delivered).
    pub outcomes: Vec<Vec<(usize, Option<FaultKind>)>>,
}

impl ExchangeStats {
    pub fn quarantined(&self) -> u64 {
        self.malformed + self.inflated + self.replay + self.disconnected
    }
}

/// A delegating [`Transport`] that records an `transport.exchange` span
/// around every `exchange_round` and tallies what came back. It hands the
/// inner transport's deliveries through untouched.
pub struct TimedTransport<'a, T: Transport> {
    inner: T,
    tracer: &'a RefCell<Tracer>,
    pub stats: ExchangeStats,
}

impl<'a, T: Transport> TimedTransport<'a, T> {
    pub fn new(inner: T, tracer: &'a RefCell<Tracer>) -> Self {
        TimedTransport {
            inner,
            tracer,
            stats: ExchangeStats::default(),
        }
    }
}

impl<T: Transport> Transport for TimedTransport<'_, T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_local(&self) -> bool {
        self.inner.is_local()
    }

    fn exchange_round(
        &mut self,
        req: &mut RoundRequest<'_>,
    ) -> Result<Vec<Delivery>, TransportError> {
        let id = self.tracer.borrow_mut().enter("transport.exchange");
        let out = self.inner.exchange_round(req);
        self.tracer.borrow_mut().exit(id);
        self.stats
            .round_secs
            .push(self.tracer.borrow().spans()[id].secs());
        if let Ok(deliveries) = &out {
            let mut outcomes = Vec::with_capacity(deliveries.len());
            for (d, &k) in deliveries.iter().zip(req.cohort.iter()) {
                match d {
                    Delivery::Update(u) => {
                        self.stats.updates += 1;
                        self.stats.upload_bytes += u.payload.encoded_len(req.ctx) as u64;
                        self.stats.realized_flops += u.realized_flops;
                    }
                    Delivery::Faulted(f) => match f {
                        FaultKind::MalformedFrame(_) => self.stats.malformed += 1,
                        FaultKind::InflatedSamples { .. } => self.stats.inflated += 1,
                        FaultKind::Replay { .. } => self.stats.replay += 1,
                        FaultKind::Disconnected(_) => self.stats.disconnected += 1,
                    },
                }
                outcomes.push((k, d.fault().cloned()));
            }
            self.stats.outcomes.push(outcomes);
        }
        out
    }

    fn deliver_update(&mut self, update: DeviceUpdate, ctx: &WireCtx) -> DeviceUpdate {
        self.inner.deliver_update(update, ctx)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// [`span`] when a tracer is given, a plain call otherwise.
pub fn maybe_span<R>(
    tracer: Option<&RefCell<Tracer>>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => span(t, name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::result_diff;
    use fedtiny::{run_fedtiny_with, FedTinyConfig, FedTinyRunOptions};
    use ft_fl::{AdversarialTransport, Behavior, ExperimentEnv, InProcess, RunResult, SimTime};

    fn run_over(env: &ExperimentEnv, transport: &mut dyn Transport) -> RunResult {
        let cfg = FedTinyConfig::tiny_for_tests(0.3);
        run_fedtiny_with(env, &cfg, FedTinyRunOptions::new(transport)).unwrap()
    }

    #[test]
    fn timed_transport_is_transparent_over_in_process() {
        let env = ExperimentEnv::tiny_for_tests(11);
        let plain = run_over(&env, &mut InProcess);
        let tracer = RefCell::new(Tracer::default());
        let mut timed = TimedTransport::new(InProcess, &tracer);
        let wrapped = run_over(&env, &mut timed);
        assert_eq!(result_diff(&plain, &wrapped), Vec::<&str>::new());
        let rounds = env.cfg.rounds;
        assert_eq!(timed.stats.round_secs.len(), rounds);
        assert_eq!(tracer.borrow().spans().len(), rounds);
        assert_eq!(timed.stats.updates as usize, rounds * env.num_devices());
        assert_eq!(timed.stats.quarantined(), 0);
    }

    #[test]
    fn timed_transport_is_transparent_over_adversarial_sim_time() {
        let env = ExperimentEnv::tiny_for_tests(12);
        let behaviors = vec![
            Behavior::Honest,
            Behavior::GarbageFrames,
            Behavior::InflateSamples { factor: 8 },
        ];
        let mut plain_transport = AdversarialTransport::new(SimTime, behaviors.clone(), 12);
        let plain = run_over(&env, &mut plain_transport);
        let tracer = RefCell::new(Tracer::default());
        let inner = AdversarialTransport::new(SimTime, behaviors, 12);
        let mut timed = TimedTransport::new(inner, &tracer);
        let wrapped = run_over(&env, &mut timed);
        assert_eq!(result_diff(&plain, &wrapped), Vec::<&str>::new());
        let rounds = env.cfg.rounds as u64;
        assert_eq!(timed.stats.malformed, rounds);
        assert_eq!(timed.stats.inflated, rounds);
        assert_eq!(timed.stats.updates, rounds);
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = RefCell::new(Tracer::default());
        span(&tracer, "outer", || {
            span(&tracer, "inner", || (0..100_000u64).sum::<u64>());
            span(&tracer, "inner", || (0..100_000u64).sum::<u64>())
        });
        let t = tracer.borrow();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        let children = t.spans()[1].secs() + t.spans()[2].secs();
        assert!((t.self_secs(0) + children - t.spans()[0].secs()).abs() < 1e-12);
        assert!(t.self_secs(0) >= 0.0);
    }
}
