//! Server-side aggregation: one entry point, [`Aggregator::aggregate_into`],
//! turns a cohort's encoded update deltas into the next global model, and
//! [`try_aggregate_bn_stats`] averages their BatchNorm statistics.
//!
//! Both scheduler loops call the same engine. The synchronous barrier
//! passes sample counts as weights and the round's anchor; the buffered
//! event loop passes sample counts discounted by [`staleness_weight`] and
//! the current global. Sparse payloads are decoded-and-accumulated straight
//! out of their wire form, shard by shard, into recycled scratch.
//!
//! The [`Aggregator`] enum layers the robust rules of the trimmed-mean /
//! median family (Yin et al., ICML'18) and norm-bounded clipping on top of
//! the same payload pipeline, so a hostile cohort member's poisoned delta
//! is bounded or outvoted instead of averaged in.

use crate::config::ConfigError;
use ft_nn::BnStats;
use ft_runtime::Runtime;
use ft_sparse::{Payload, PayloadView, ShardPlan, WireCtx};
use serde::{Deserialize, Serialize};

/// FedBuff-style staleness discount: an update computed `staleness` server
/// versions ago is weighted by `1 / sqrt(1 + staleness)` (Nguyen et al.,
/// "Federated Learning with Buffered Asynchronous Aggregation").
pub fn staleness_weight(staleness: usize) -> f64 {
    1.0 / (1.0 + staleness as f64).sqrt()
}

/// The one weight screen of every weighted average: a weight that is not
/// finite and strictly positive (a zero sample claim, an overflowed cast, a
/// NaN) drops its update before the normalizing sum. It can then neither
/// void the honest survivors' round nor add `0 × NaN` into the global.
fn usable_weight(w: f64) -> bool {
    w.is_finite() && w > 0.0
}

/// The sum of the usable weights, or `None` when no update carries usable
/// weight (or the sum overflows): the degenerate cohort on which the caller
/// keeps the previous global.
fn screened_total(weights: impl Iterator<Item = f64>) -> Option<f64> {
    let total: f64 = weights.filter(|&w| usable_weight(w)).sum();
    (total.is_finite() && total > 0.0).then_some(total)
}

/// Weighted average of per-layer BatchNorm statistics (Eq. 4):
/// `µ = Σ_k (|D̂_k|/Σ|D̂_j|) µ_k` and likewise for `σ²`, over the updates
/// whose weight passes the same screen as the parameter average.
///
/// Returns `None` when no update carries usable weight, so schedulers can
/// keep the previous global statistics instead.
///
/// # Panics
///
/// Panics if the layer or channel structures differ.
pub fn try_aggregate_bn_stats(updates: &[(Vec<BnStats>, f64)]) -> Option<Vec<BnStats>> {
    let total_w = screened_total(updates.iter().map(|(_, w)| *w))?;
    let mut usable = updates.iter().filter(|(_, w)| usable_weight(*w)).peekable();
    let layers = usable.peek()?.0.len();
    let mut out: Vec<BnStats> = usable
        .peek()?
        .0
        .iter()
        .map(|s| BnStats {
            mean: vec![0.0; s.mean.len()],
            var: vec![0.0; s.var.len()],
        })
        .collect();
    for (stats, w) in usable {
        assert_eq!(stats.len(), layers, "bn layer count mismatch");
        let wn = (*w / total_w) as f32;
        for (o, s) in out.iter_mut().zip(stats.iter()) {
            assert_eq!(o.mean.len(), s.mean.len(), "bn channel count mismatch");
            for (om, &sm) in o.mean.iter_mut().zip(s.mean.iter()) {
                *om += wn * sm;
            }
            for (ov, &sv) in o.var.iter_mut().zip(s.var.iter()) {
                *ov += wn * sv;
            }
        }
    }
    Some(out)
}

/// Server aggregation rule: how one round's accepted payloads become the
/// next global model. `FedAvg` is the throughput default; the other rules
/// trade compute (each payload is decoded to a dense delta) for robustness
/// against poisoned cohort members, per the standard Byzantine-tolerant
/// aggregation families.
///
/// Selected via `FlConfig.aggregator` and validated by
/// `FlConfig::validate`; works under both scheduler loops (the synchronous
/// barrier applies the rule against the round's anchor, the buffered event
/// loop against the current global).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Aggregator {
    /// Weighted averaging of payload deltas under the screened weights.
    #[default]
    FedAvg,
    /// Coordinate-wise β-trimmed mean: per coordinate, drop the
    /// `t = min(⌊β·n⌋, (n−1)/2)` largest and smallest delta values and
    /// average the rest, unweighted. Tolerates up to `t` arbitrary
    /// (sign-flipped, scaled, NaN) cohort members per coordinate.
    TrimmedMean {
        /// Trim fraction per tail, in `[0, 0.5)`.
        beta: f64,
    },
    /// Coordinate-wise median of the delta values (mean of the two middle
    /// order statistics for even cohorts) — the β→0.5 limit of trimming.
    CoordinateMedian,
    /// FedAvg over norm-bounded deltas: each decoded delta is scaled by
    /// `min(1, τ / ‖δ‖₂)` before the weighted average, bounding any single
    /// device's pull on the global (the norm-clipping defense against
    /// model poisoning).
    NormClipped {
        /// L2 clipping threshold, finite and positive.
        tau: f64,
    },
}

impl Aggregator {
    /// Stable CLI / display name (`fedavg`, `trimmed_mean`, `median`,
    /// `norm_clipped`).
    pub fn name(&self) -> &'static str {
        match self {
            Aggregator::FedAvg => "fedavg",
            Aggregator::TrimmedMean { .. } => "trimmed_mean",
            Aggregator::CoordinateMedian => "median",
            Aggregator::NormClipped { .. } => "norm_clipped",
        }
    }

    /// Parses `name` or `name:param` (`trimmed_mean:0.25`,
    /// `norm_clipped:2.0`); parameterized rules fall back to `β = 0.2` /
    /// `τ = 1.0` when the parameter is omitted. Returns `None` for unknown
    /// names or unparseable parameters — validity of the *value* is
    /// [`validate`](Self::validate)'s job.
    pub fn from_name(s: &str) -> Option<Aggregator> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let parsed = match param {
            Some(p) => Some(p.parse::<f64>().ok()?),
            None => None,
        };
        match name {
            "fedavg" => Some(Aggregator::FedAvg),
            "trimmed_mean" => Some(Aggregator::TrimmedMean {
                beta: parsed.unwrap_or(0.2),
            }),
            "median" | "coordinate_median" => Some(Aggregator::CoordinateMedian),
            "norm_clipped" => Some(Aggregator::NormClipped {
                tau: parsed.unwrap_or(1.0),
            }),
            _ => None,
        }
    }

    /// Checks the rule's parameter: `β` must be finite in `[0, 0.5)`, `τ`
    /// finite and strictly positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            Aggregator::FedAvg | Aggregator::CoordinateMedian => Ok(()),
            Aggregator::TrimmedMean { beta } => {
                if beta.is_finite() && (0.0..0.5).contains(&beta) {
                    Ok(())
                } else {
                    Err(ConfigError::BadTrimFraction { beta })
                }
            }
            Aggregator::NormClipped { tau } => {
                if tau.is_finite() && tau > 0.0 {
                    Ok(())
                } else {
                    Err(ConfigError::BadClipNorm { tau })
                }
            }
        }
    }
}

/// An encoded update the sharded aggregation engine can drain: the owned
/// [`Payload`] (in-process and buffered updates) and the borrowed
/// [`PayloadView`] (the zero-copy receive path) answer the same three
/// questions, so [`Aggregator::aggregate_into`] serves both without a copy.
pub trait ShardAccumulate: Sync {
    /// Decoded flat length.
    fn vec_len(&self) -> usize;
    /// Adds `weight · value` for the coordinates of `plan`'s shard `s` into
    /// the shard's accumulator slice (see [`Payload::accumulate_shard_into`]).
    fn shard_accumulate(
        &self,
        weight: f64,
        acc: &mut [f64],
        ctx: &WireCtx,
        plan: &ShardPlan,
        s: usize,
    );
    /// Dense decode into a caller-owned buffer (zero-filled first).
    fn dense_decode_into(&self, out: &mut [f32], ctx: &WireCtx);
}

impl ShardAccumulate for Payload {
    fn vec_len(&self) -> usize {
        self.len()
    }
    fn shard_accumulate(
        &self,
        weight: f64,
        acc: &mut [f64],
        ctx: &WireCtx,
        plan: &ShardPlan,
        s: usize,
    ) {
        self.accumulate_shard_into(weight, acc, ctx, plan, s);
    }
    fn dense_decode_into(&self, out: &mut [f32], ctx: &WireCtx) {
        self.decode_into(out, ctx);
    }
}

impl ShardAccumulate for PayloadView<'_> {
    fn vec_len(&self) -> usize {
        self.len()
    }
    fn shard_accumulate(
        &self,
        weight: f64,
        acc: &mut [f64],
        ctx: &WireCtx,
        plan: &ShardPlan,
        s: usize,
    ) {
        self.accumulate_shard_into(weight, acc, ctx, plan, s);
    }
    fn dense_decode_into(&self, out: &mut [f32], ctx: &WireCtx) {
        self.decode_into(out, ctx);
    }
}

/// Round-persistent scratch for [`Aggregator::aggregate_into`]: every buffer
/// the sharded engine touches lives here and is recycled round over round,
/// so a steady-state round (same mask epoch, same cohort size) allocates
/// nothing. The shard plan is the reuse key — it is rebuilt only when the
/// mask epoch, model length, or shard count changes
/// ([`ShardPlan::matches`]).
#[derive(Debug, Default)]
pub struct AggScratch {
    /// `f64` delta accumulator, one slot per coordinate.
    acc: Vec<f64>,
    /// The produced global parameters (what [`AggregateRef::params`]
    /// borrows).
    params: Vec<f32>,
    /// Decoded dense deltas for the robust rules, one per accepted update.
    deltas: Vec<Vec<f32>>,
    /// Screened normalized weights (`NormClipped`), aligned with `deltas`.
    weights: Vec<f64>,
    /// Per-worker sort columns for the rank-based rules.
    cols: Vec<Vec<f32>>,
    /// Cached shard plan, rebuilt on `(epoch, len, shard count)` change.
    plan: Option<ShardPlan>,
}

impl AggScratch {
    /// Empty scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached shard plan for `ctx` under `rt`'s deterministic coordinate
    /// chunking, rebuilding it only when the reuse key changed.
    fn plan(&mut self, ctx: &WireCtx, rt: &Runtime) -> &ShardPlan {
        // `chunk_ranges(n, t)` produces min(t, n) ranges (none for n == 0);
        // computed directly so the steady-state check allocates nothing.
        let num_shards = rt.threads().min(ctx.len());
        let stale = match &self.plan {
            Some(p) => !p.matches(ctx, num_shards),
            None => true,
        };
        if stale {
            self.plan = Some(ShardPlan::build(ctx, rt.ranges(ctx.len())));
        }
        self.plan.as_ref().expect("plan was just ensured")
    }
}

/// What [`Aggregator::aggregate_into`] produced for one round: `params`
/// points into the caller's [`AggScratch`] instead of a fresh allocation.
#[derive(Debug, PartialEq)]
pub struct AggregateRef<'a> {
    /// The new global parameters, or `None` when the cohort was degenerate
    /// (empty, fully quarantined, or without usable weight) and the caller
    /// should keep the previous global.
    pub params: Option<&'a [f32]>,
    /// How many accepted updates were norm-clipped (always 0 for the
    /// rank-based rules and `FedAvg`).
    pub clipped: usize,
}

/// Element offset where shard `s` starts (`s == num_shards` → the end).
fn shard_offset(plan: &ShardPlan, s: usize) -> usize {
    if s == plan.num_shards() {
        plan.len()
    } else {
        plan.range(s).start
    }
}

/// Runs `f(s, shard slice)` for every shard of `plan` over `buf`, fanning
/// shards out on `rt`. Shards are disjoint output ranges, so any schedule
/// is race-free; with one shard (the sequential runtime) `f` runs inline on
/// the calling thread with no spawn and no allocation.
fn for_each_shard<T: Send>(
    rt: &Runtime,
    plan: &ShardPlan,
    buf: &mut [T],
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert_eq!(buf.len(), plan.len(), "shard buffer length mismatch");
    match plan.num_shards() {
        0 => {}
        1 => f(0, buf),
        n => {
            let jobs = rt.split_at_offsets_mut(buf, n, |s| shard_offset(plan, s));
            rt.scatter(
                jobs,
                |(shards, slice): (std::ops::Range<usize>, &mut [T])| {
                    let base = shard_offset(plan, shards.start);
                    let mut rest = slice;
                    let mut consumed = base;
                    for s in shards {
                        let end = shard_offset(plan, s + 1);
                        let (head, tail) = rest.split_at_mut(end - consumed);
                        consumed = end;
                        rest = tail;
                        f(s, head);
                    }
                },
            );
        }
    }
}

/// The cohort members a weighted rule averages: those whose weight passes
/// [`usable_weight`], in cohort order.
fn usable<'u, P>(updates: &'u [(&'u P, f64)]) -> impl Iterator<Item = (&'u P, f64)> {
    updates
        .iter()
        .filter(|(_, w)| usable_weight(*w))
        .map(|&(p, w)| (p, w))
}

impl Aggregator {
    /// The one aggregation entry point: combines a cohort's
    /// `(update, weight)` pairs against `anchor` into the next global,
    /// decoding-and-accumulating each update shard-by-shard on `rt`'s pool
    /// and reusing every buffer in `scratch` across rounds. Accepts owned
    /// [`Payload`]s and borrowed [`PayloadView`]s alike (anything
    /// [`ShardAccumulate`]).
    ///
    /// The barrier loop passes sample counts and the round's anchor; the
    /// buffered loop passes sample counts discounted by
    /// [`staleness_weight`] and the current global. The weighted rules
    /// (`FedAvg`, `NormClipped`) screen weights first: an update whose
    /// weight is not finite and positive is dropped. The rank-based rules
    /// ignore weights by construction (order statistics have none).
    /// `params: None` means "keep the previous global".
    ///
    /// Deterministic for any shard count: shards partition the *output
    /// coordinates*, so per coordinate the same values are added in the
    /// same (cohort) order as one sequential pass.
    ///
    /// # Panics
    ///
    /// Panics if a payload's length differs from `anchor`, or if a payload
    /// is inconsistent with `ctx` (caller bug — hostile payloads are
    /// screened before they reach this).
    pub fn aggregate_into<'s, P: ShardAccumulate>(
        &self,
        updates: &[(&P, f64)],
        anchor: &[f32],
        ctx: &WireCtx,
        rt: &Runtime,
        scratch: &'s mut AggScratch,
    ) -> AggregateRef<'s> {
        for (p, _) in updates {
            assert_eq!(
                p.vec_len(),
                anchor.len(),
                "payload length differs from the global model"
            );
        }
        let total_w = screened_total(updates.iter().map(|(_, w)| *w));
        let n = updates.len();
        let (params, clipped) = match (*self, total_w) {
            (Aggregator::TrimmedMean { beta }, _) => {
                let t = ((beta * n as f64).floor() as usize).min(n.saturating_sub(1) / 2);
                let params = rank_into(updates, anchor, ctx, rt, scratch, move |col| {
                    let kept = &col[t..n - t];
                    kept.iter().map(|&v| v as f64).sum::<f64>() / kept.len() as f64
                });
                (params, 0)
            }
            (Aggregator::CoordinateMedian, _) => {
                let params = rank_into(updates, anchor, ctx, rt, scratch, move |col| {
                    if n % 2 == 1 {
                        col[n / 2] as f64
                    } else {
                        (col[n / 2 - 1] as f64 + col[n / 2] as f64) / 2.0
                    }
                });
                (params, 0)
            }
            (_, None) => (None, 0),
            (Aggregator::FedAvg, Some(total_w)) => (
                Some(fedavg_into(updates, total_w, anchor, ctx, rt, scratch)),
                0,
            ),
            (Aggregator::NormClipped { tau }, Some(total_w)) => {
                let (params, clipped) =
                    norm_clipped_into(updates, total_w, anchor, tau, ctx, rt, scratch);
                (Some(params), clipped)
            }
        };
        AggregateRef { params, clipped }
    }
}

/// Sharded weighted mean: `anchor + Σ_k (w_k / total_w) · decode(update_k)`
/// over the usable updates, with the accumulator filled shard-by-shard on
/// the pool and recycled from `scratch`.
fn fedavg_into<'s, P: ShardAccumulate>(
    updates: &[(&P, f64)],
    total_w: f64,
    anchor: &[f32],
    ctx: &WireCtx,
    rt: &Runtime,
    scratch: &'s mut AggScratch,
) -> &'s [f32] {
    scratch.plan(ctx, rt);
    let AggScratch {
        acc, params, plan, ..
    } = scratch;
    let plan = plan.as_ref().expect("plan ensured above");
    acc.resize(anchor.len(), 0.0);
    acc.fill(0.0);
    for_each_shard(rt, plan, acc, |s, acc_s| {
        for (p, w) in usable(updates) {
            p.shard_accumulate(w / total_w, acc_s, ctx, plan, s);
        }
    });
    params.resize(anchor.len(), 0.0);
    for_each_shard(rt, plan, params, |s, out| {
        let start = plan.range(s).start;
        for (k, o) in out.iter_mut().enumerate() {
            let i = start + k;
            *o = (anchor[i] as f64 + acc[i]) as f32;
        }
    });
    params
}

/// Sharded rank-based rule over recycled delta buffers: decodes every
/// update into `scratch.deltas` (fanned out per update), then reduces
/// sorted per-coordinate columns shard-parallel. Per coordinate the column
/// is gathered in cohort order and sorted with `total_cmp`, so adversarial
/// NaNs land at the tails. `None` for an empty cohort.
fn rank_into<'s, P: ShardAccumulate>(
    updates: &[(&P, f64)],
    anchor: &[f32],
    ctx: &WireCtx,
    rt: &Runtime,
    scratch: &'s mut AggScratch,
    reduce: impl Fn(&[f32]) -> f64 + Sync,
) -> Option<&'s [f32]> {
    let n = updates.len();
    if n == 0 {
        return None;
    }
    scratch.plan(ctx, rt);
    let AggScratch {
        params,
        deltas,
        cols,
        plan,
        ..
    } = scratch;
    let plan = plan.as_ref().expect("plan ensured above");
    deltas.resize_with(n, Vec::new);
    for d in deltas.iter_mut() {
        d.resize(anchor.len(), 0.0);
    }
    let decode_jobs: Vec<(&P, &mut Vec<f32>)> = updates
        .iter()
        .map(|(p, _)| *p)
        .zip(deltas.iter_mut())
        .collect();
    rt.scatter(decode_jobs, |(p, d)| p.dense_decode_into(d, ctx));
    let deltas = &deltas[..n];
    cols.resize_with(plan.num_shards().max(1), Vec::new);
    for col in cols.iter_mut() {
        col.resize(n, 0.0);
    }
    params.resize(anchor.len(), 0.0);
    // One sort column per shard: shards are disjoint output ranges, and the
    // scatter below hands shard `s` exactly `cols[s]`.
    let col_slots: Vec<std::sync::Mutex<&mut Vec<f32>>> =
        cols.iter_mut().map(std::sync::Mutex::new).collect();
    for_each_shard(rt, plan, params, |s, out| {
        let mut col = col_slots[s].lock().expect("column mutex poisoned");
        let start = plan.range(s).start;
        for (k, o) in out.iter_mut().enumerate() {
            let i = start + k;
            for (c, d) in col.iter_mut().zip(deltas.iter()) {
                *c = d[i];
            }
            col.sort_unstable_by(|a, b| a.total_cmp(b));
            *o = (anchor[i] as f64 + reduce(col.as_slice())) as f32;
        }
    });
    Some(params)
}

/// Sharded weighted mean over norm-clipped deltas: each usable update is
/// decoded and scaled by `min(1, τ / ‖δ‖₂)` (a zero or non-finite norm
/// leaves it unscaled — clipping bounds magnitudes, it cannot repair
/// NaNs). Norms are computed sequentially per delta (one full-vector `f64`
/// sum each); only the weighted accumulation and the anchor add fan out
/// shard-parallel. Returns the new global and the clip count.
fn norm_clipped_into<'s, P: ShardAccumulate>(
    updates: &[(&P, f64)],
    total_w: f64,
    anchor: &[f32],
    tau: f64,
    ctx: &WireCtx,
    rt: &Runtime,
    scratch: &'s mut AggScratch,
) -> (&'s [f32], usize) {
    scratch.plan(ctx, rt);
    let AggScratch {
        acc,
        params,
        deltas,
        weights,
        plan,
        ..
    } = scratch;
    let plan = plan.as_ref().expect("plan ensured above");
    let m = usable(updates).count();
    deltas.resize_with(m, Vec::new);
    for d in deltas.iter_mut() {
        d.resize(anchor.len(), 0.0);
    }
    let decode_jobs: Vec<(&P, &mut Vec<f32>)> = usable(updates)
        .map(|(p, _)| p)
        .zip(deltas.iter_mut())
        .collect();
    rt.scatter(decode_jobs, |(p, d)| p.dense_decode_into(d, ctx));
    let deltas = &deltas[..m];
    let mut clipped = 0usize;
    weights.clear();
    for ((_, w), delta) in usable(updates).zip(deltas.iter()) {
        let norm = delta
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt();
        let scale = if norm.is_finite() && norm > tau {
            clipped += 1;
            tau / norm
        } else {
            1.0
        };
        weights.push((w / total_w) * scale);
    }
    acc.resize(anchor.len(), 0.0);
    acc.fill(0.0);
    for_each_shard(rt, plan, acc, |s, acc_s| {
        let r = plan.range(s);
        for (delta, &wn) in deltas.iter().zip(weights.iter()) {
            for (a, &d) in acc_s.iter_mut().zip(delta[r.clone()].iter()) {
                *a += wn * d as f64;
            }
        }
    });
    params.resize(anchor.len(), 0.0);
    for_each_shard(rt, plan, params, |s, out| {
        let start = plan.range(s).start;
        for (k, o) in out.iter_mut().enumerate() {
            let i = start + k;
            *o = (anchor[i] as f64 + acc[i]) as f32;
        }
    });
    (params, clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Straight-line `f64` reference for every rule: decode each payload
    /// densely, then take the screened weighted mean, the trimmed mean, the
    /// median, or the norm-clipped weighted mean of the deltas. Returns the
    /// new global (`None` for a degenerate cohort) and the clip count.
    fn reference(
        rule: Aggregator,
        updates: &[(&Payload, f64)],
        anchor: &[f32],
        ctx: &WireCtx,
    ) -> (Option<Vec<f32>>, usize) {
        let apply = |delta: Vec<f64>| -> Vec<f32> {
            anchor
                .iter()
                .zip(delta)
                .map(|(&a, d)| (a as f64 + d) as f32)
                .collect()
        };
        let n = updates.len();
        let rank = |reduce: &dyn Fn(&[f32]) -> f64| -> (Option<Vec<f32>>, usize) {
            if n == 0 {
                return (None, 0);
            }
            let deltas: Vec<Vec<f32>> = updates.iter().map(|(p, _)| p.decode(ctx)).collect();
            let out = (0..anchor.len())
                .map(|i| {
                    let mut col: Vec<f32> = deltas.iter().map(|d| d[i]).collect();
                    col.sort_unstable_by(|a, b| a.total_cmp(b));
                    reduce(&col)
                })
                .collect();
            (Some(apply(out)), 0)
        };
        let tau = match rule {
            Aggregator::TrimmedMean { beta } => {
                let t = ((beta * n as f64).floor() as usize).min(n.saturating_sub(1) / 2);
                return rank(&|col| {
                    let kept = &col[t..n - t];
                    kept.iter().map(|&v| v as f64).sum::<f64>() / kept.len() as f64
                });
            }
            Aggregator::CoordinateMedian => {
                return rank(&|col| {
                    if n % 2 == 1 {
                        col[n / 2] as f64
                    } else {
                        (col[n / 2 - 1] as f64 + col[n / 2] as f64) / 2.0
                    }
                });
            }
            Aggregator::FedAvg => f64::INFINITY,
            Aggregator::NormClipped { tau } => tau,
        };
        let kept: Vec<(Vec<f32>, f64)> = updates
            .iter()
            .filter(|(_, w)| w.is_finite() && *w > 0.0)
            .map(|(p, w)| (p.decode(ctx), *w))
            .collect();
        let total: f64 = kept.iter().map(|(_, w)| *w).sum();
        if kept.is_empty() || !total.is_finite() {
            return (None, 0);
        }
        let mut acc = vec![0.0f64; anchor.len()];
        let mut clipped = 0;
        for (delta, w) in &kept {
            let norm = delta
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>()
                .sqrt();
            let scale = if norm.is_finite() && norm > tau {
                clipped += 1;
                tau / norm
            } else {
                1.0
            };
            let wn = (w / total) * scale;
            for (a, &d) in acc.iter_mut().zip(delta) {
                *a += wn * d as f64;
            }
        }
        (Some(apply(acc)), clipped)
    }

    /// [`Aggregator::aggregate_into`] on the sequential runtime with fresh
    /// scratch, copied out.
    fn agg(
        rule: Aggregator,
        updates: &[(&Payload, f64)],
        anchor: &[f32],
        ctx: &WireCtx,
    ) -> (Option<Vec<f32>>, usize) {
        let mut scratch = AggScratch::new();
        let got = rule.aggregate_into(updates, anchor, ctx, &Runtime::sequential(), &mut scratch);
        (got.params.map(<[f32]>::to_vec), got.clipped)
    }

    fn dense(values: &[f32]) -> Payload {
        Payload::Dense {
            values: values.to_vec(),
        }
    }

    const RULES: [Aggregator; 4] = [
        Aggregator::FedAvg,
        Aggregator::TrimmedMean { beta: 0.2 },
        Aggregator::CoordinateMedian,
        Aggregator::NormClipped { tau: 0.5 },
    ];

    #[test]
    fn payload_fedavg_weighted_mean() {
        let ctx = WireCtx::dense(2);
        let (a, b) = (dense(&[1.0, 0.0]), dense(&[0.0, 1.0]));
        let got = agg(Aggregator::FedAvg, &[(&a, 1.0), (&b, 3.0)], &[0.0; 2], &ctx)
            .0
            .unwrap();
        assert!((got[0] - 0.25).abs() < 1e-6);
        assert!((got[1] - 0.75).abs() < 1e-6);
        // Raw dataset sizes and normalized weights agree.
        let (c, d) = (dense(&[2.0]), dense(&[4.0]));
        let ctx = WireCtx::dense(1);
        let raw = agg(Aggregator::FedAvg, &[(&c, 10.0), (&d, 30.0)], &[0.0], &ctx);
        let norm = agg(Aggregator::FedAvg, &[(&c, 0.25), (&d, 0.75)], &[0.0], &ctx);
        assert!((raw.0.unwrap()[0] - norm.0.unwrap()[0]).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "payload length differs")]
    fn payload_fedavg_rejects_ragged() {
        let ctx = WireCtx::dense(1);
        let (a, b) = (dense(&[1.0]), dense(&[1.0, 2.0]));
        let _ = agg(Aggregator::FedAvg, &[(&a, 1.0), (&b, 1.0)], &[0.0], &ctx);
    }

    fn bn(mean: &[f32], var: &[f32]) -> Vec<BnStats> {
        vec![BnStats {
            mean: mean.to_vec(),
            var: var.to_vec(),
        }]
    }

    #[test]
    fn bn_aggregation_weighted() {
        let got = try_aggregate_bn_stats(&[
            (bn(&[1.0, 2.0], &[1.0, 1.0]), 1.0),
            (bn(&[3.0, 4.0], &[3.0, 3.0]), 1.0),
        ])
        .unwrap();
        assert_eq!(got[0].mean, vec![2.0, 3.0]);
        assert_eq!(got[0].var, vec![2.0, 2.0]);
        // An unusable weight drops its statistics, NaNs included.
        let got = try_aggregate_bn_stats(&[
            (bn(&[2.0], &[2.0]), 4.0),
            (bn(&[f32::NAN], &[f32::NAN]), 0.0),
        ])
        .unwrap();
        assert_eq!((got[0].mean[0], got[0].var[0]), (2.0, 2.0));
    }

    #[test]
    fn bn_aggregation_respects_dataset_sizes() {
        let got = try_aggregate_bn_stats(&[(bn(&[0.0], &[0.0]), 9.0), (bn(&[10.0], &[10.0]), 1.0)])
            .unwrap();
        assert!((got[0].mean[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sim_empty_cohort_returns_previous_global_not_nan() {
        // The division hazard pinned: an empty surviving cohort or an
        // all-zero weight vector keeps the previous global, never a
        // NaN-filled vector.
        let ctx = WireCtx::dense(3);
        let previous = vec![0.25f32, -1.5, 3.0];
        let p = dense(&[9.0, 9.0, 9.0]);
        for rule in RULES {
            assert_eq!(
                agg(rule, &[], &previous, &ctx),
                (None, 0),
                "{}",
                rule.name()
            );
        }
        for rule in [Aggregator::FedAvg, Aggregator::NormClipped { tau: 1.0 }] {
            let got = agg(rule, &[(&p, 0.0), (&p, f64::NAN)], &previous, &ctx);
            assert_eq!(got, (None, 0), "{}", rule.name());
        }
        assert_eq!(try_aggregate_bn_stats(&[]), None);
        assert_eq!(try_aggregate_bn_stats(&[(Vec::new(), 0.0)]), None);
    }

    #[test]
    fn sim_staleness_weight_decays_from_one() {
        assert_eq!(staleness_weight(0), 1.0);
        assert!(staleness_weight(1) < 1.0);
        assert!(staleness_weight(8) < staleness_weight(3));
        assert!((staleness_weight(3) - 0.5).abs() < 1e-12); // 1/sqrt(4)
    }

    #[test]
    fn sim_unusable_weight_does_not_void_or_poison_honest_survivors() {
        // One NaN-, infinite-, negative- or zero-weighted update (carrying a
        // NaN delta) neither makes the total non-finite — voiding the
        // honest survivors' round — nor adds `0 × NaN` into the global.
        let ctx = WireCtx::dense(2);
        let current = vec![0.0f32, 0.0];
        let honest = dense(&[1.0, 1.0]);
        let hostile = dense(&[f32::NAN, 9.0]);
        for rule in [Aggregator::FedAvg, Aggregator::NormClipped { tau: 10.0 }] {
            for bad_w in [f64::NAN, f64::INFINITY, -4.0, 0.0] {
                let stale_w = 5.0 * staleness_weight(2);
                let got = agg(
                    rule,
                    &[(&honest, stale_w), (&hostile, bad_w)],
                    &current,
                    &ctx,
                );
                assert_eq!(
                    got,
                    (Some(vec![1.0, 1.0]), 0),
                    "{}: bad weight {bad_w}",
                    rule.name()
                );
            }
        }
    }

    #[test]
    fn payload_trimmed_mean_outvotes_sign_flipped_outlier() {
        // Five honest devices push +1 per coordinate; one poisoned device
        // pushes a scaled sign-flip. One trim level removes it entirely.
        let ctx = WireCtx::dense(2);
        let anchor = vec![0.0f32, 0.0];
        let honest = dense(&[1.0, 1.0]);
        let poison = dense(&[-80.0, -80.0]);
        let mut updates: Vec<(&Payload, f64)> = vec![(&honest, 1.0); 5];
        updates.push((&poison, 50.0)); // inflated weight is irrelevant: rank-based
        let got = agg(
            Aggregator::TrimmedMean { beta: 0.2 },
            &updates,
            &anchor,
            &ctx,
        );
        assert_eq!(got.0.unwrap(), vec![1.0, 1.0]);
        // Plain FedAvg on the same cohort is dragged far negative.
        let avg = agg(Aggregator::FedAvg, &updates, &anchor, &ctx).0.unwrap();
        assert!(avg[0] < -70.0, "fedavg should be poisoned, got {}", avg[0]);
    }

    #[test]
    fn payload_trimmed_mean_survives_adversarial_nans() {
        let ctx = WireCtx::dense(1);
        let honest = dense(&[2.0]);
        let nan = dense(&[f32::NAN]);
        let updates: Vec<(&Payload, f64)> =
            vec![(&honest, 1.0), (&honest, 1.0), (&honest, 1.0), (&nan, 1.0)];
        let got = agg(
            Aggregator::TrimmedMean { beta: 0.25 },
            &updates,
            &[0.0],
            &ctx,
        );
        assert_eq!(got.0.unwrap(), vec![2.0], "NaN must be trimmed at the tail");
    }

    #[test]
    fn payload_median_even_cohort_averages_middles() {
        let ctx = WireCtx::dense(1);
        let payloads: Vec<Payload> = [1.0f32, 3.0, 5.0, 100.0]
            .iter()
            .map(|&v| dense(&[v]))
            .collect();
        let updates: Vec<(&Payload, f64)> = payloads.iter().map(|p| (p, 1.0)).collect();
        let got = agg(Aggregator::CoordinateMedian, &updates, &[10.0], &ctx);
        assert_eq!(got.0.unwrap(), vec![14.0]); // 10 + (3+5)/2
    }

    #[test]
    fn payload_norm_clip_bounds_single_device_pull() {
        let ctx = WireCtx::dense(2);
        let honest = dense(&[0.5, 0.5]); // norm ~0.707: untouched at tau 1.0
        let poison = dense(&[600.0, 800.0]); // norm 1000: scaled to norm tau
        let updates: Vec<(&Payload, f64)> = vec![(&honest, 1.0), (&poison, 1.0)];
        let (got, clipped) = agg(
            Aggregator::NormClipped { tau: 1.0 },
            &updates,
            &[0.0; 2],
            &ctx,
        );
        assert_eq!(clipped, 1);
        let got = got.unwrap();
        // Both deltas now have norm <= 1, so the mean has norm <= 1.
        let norm = (got[0] as f64).hypot(got[1] as f64);
        assert!(norm <= 1.0 + 1e-6, "clipped mean norm {norm}");
        // Poison rescales to [0.6, 0.8]; mean with honest [0.5, 0.5].
        assert!((got[0] - 0.55).abs() < 1e-6 && (got[1] - 0.65).abs() < 1e-6);
    }

    #[test]
    fn aggregator_names_parse_and_validate() {
        assert_eq!(Aggregator::from_name("fedavg"), Some(Aggregator::FedAvg));
        assert_eq!(
            Aggregator::from_name("trimmed_mean:0.25"),
            Some(Aggregator::TrimmedMean { beta: 0.25 })
        );
        assert_eq!(
            Aggregator::from_name("trimmed_mean"),
            Some(Aggregator::TrimmedMean { beta: 0.2 })
        );
        assert_eq!(
            Aggregator::from_name("median"),
            Some(Aggregator::CoordinateMedian)
        );
        assert_eq!(
            Aggregator::from_name("norm_clipped:2.5"),
            Some(Aggregator::NormClipped { tau: 2.5 })
        );
        assert_eq!(Aggregator::from_name("krum"), None);
        assert_eq!(Aggregator::from_name("trimmed_mean:lots"), None);
        for agg in [
            Aggregator::FedAvg,
            Aggregator::TrimmedMean { beta: 0.0 },
            Aggregator::CoordinateMedian,
            Aggregator::NormClipped { tau: 0.5 },
        ] {
            assert!(agg.validate().is_ok(), "{}", agg.name());
            assert_eq!(
                Aggregator::from_name(agg.name()).map(|a| a.name()),
                Some(agg.name())
            );
        }
        assert!(Aggregator::TrimmedMean { beta: 0.5 }.validate().is_err());
        assert!(Aggregator::TrimmedMean { beta: -0.1 }.validate().is_err());
        assert!(Aggregator::TrimmedMean { beta: f64::NAN }
            .validate()
            .is_err());
        assert!(Aggregator::NormClipped { tau: 0.0 }.validate().is_err());
        assert!(Aggregator::NormClipped { tau: f64::INFINITY }
            .validate()
            .is_err());
    }

    #[test]
    fn sharded_aggregate_into_matches_reference_bit_exactly() {
        // The engine both scheduler loops run must be the reference math,
        // bit for bit, for every rule, shard count, and codec — golden
        // traces depend on it. Weights include staleness-discounted and
        // unusable ones. Scratch is reused across calls to also exercise
        // the recycled-buffer path (stale contents must not leak through).
        use ft_sparse::Codec;
        let n = 37; // awkward length: uneven shard splits
        let mut ctx = WireCtx::dense(n);
        ctx.epoch = 5;
        for (i, a) in ctx.alive.iter_mut().enumerate() {
            *a = i % 3 != 1; // sparse mask for the MaskCsr/TopK codecs
        }
        let anchor: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        for codec in [
            Codec::Dense,
            Codec::MaskCsr,
            Codec::QuantInt8,
            Codec::TopK {
                k_frac: 0.25,
                error_feedback: false,
            },
        ] {
            let payloads: Vec<Payload> = (0..6)
                .map(|d| {
                    let delta: Vec<f32> = (0..n)
                        .map(|i| {
                            let v = ((d * 31 + i) as f32 * 0.11).cos() * (d as f32 - 2.0);
                            if ctx.alive[i] {
                                v
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    codec.encode(&delta, &ctx, ctx.epoch, None)
                })
                .collect();
            let weights = [
                1.0,
                2.0 * staleness_weight(1),
                3.0,
                4.0 * staleness_weight(3),
                5.0,
                0.0,
            ];
            let updates: Vec<(&Payload, f64)> = payloads.iter().zip(weights).collect();
            for rule in RULES {
                let (want, want_clipped) = reference(rule, &updates, &anchor, &ctx);
                let want_bits: Option<Vec<u32>> =
                    want.map(|p| p.iter().map(|v| v.to_bits()).collect());
                for threads in [1usize, 3] {
                    let rt = Runtime::exact(threads);
                    let mut scratch = AggScratch::new();
                    for pass in 0..2 {
                        let got = rule.aggregate_into(&updates, &anchor, &ctx, &rt, &mut scratch);
                        assert_eq!(got.clipped, want_clipped);
                        let got_bits: Option<Vec<u32>> =
                            got.params.map(|p| p.iter().map(|v| v.to_bits()).collect());
                        assert_eq!(
                            got_bits,
                            want_bits,
                            "{} diverged ({codec:?}, {threads} threads, pass {pass})",
                            rule.name()
                        );
                    }
                }
            }
        }
        // Degenerate cohorts keep the previous global through the sharded
        // path too.
        let mut scratch = AggScratch::new();
        let rt = Runtime::sequential();
        for rule in RULES {
            let got = rule.aggregate_into::<Payload>(&[], &anchor, &ctx, &rt, &mut scratch);
            assert_eq!(got.params, None, "{}", rule.name());
            assert_eq!(got.clipped, 0);
        }
    }

    mod props {
        use super::super::*;
        use super::{agg, dense, reference};
        use ft_sparse::Codec;
        use proptest::prelude::*;

        /// The global the payload pipeline produces from `raw` parameter
        /// vectors: each is encoded under `codec` as a delta against
        /// `anchor`, then aggregated with FedAvg.
        fn via_deltas(raw: &[(Vec<f32>, f64)], anchor: &[f32], codec: Codec) -> Vec<f32> {
            let ctx = WireCtx::dense(anchor.len());
            let payloads: Vec<Payload> = raw
                .iter()
                .map(|(p, _)| {
                    let delta: Vec<f32> = p.iter().zip(anchor.iter()).map(|(x, a)| x - a).collect();
                    codec.encode(&delta, &ctx, ctx.epoch, None)
                })
                .collect();
            let updates: Vec<(&Payload, f64)> =
                payloads.iter().zip(raw.iter().map(|(_, w)| *w)).collect();
            agg(Aggregator::FedAvg, &updates, anchor, &ctx).0.unwrap()
        }

        /// The reference weighted mean of the raw parameter vectors
        /// themselves (a zero anchor, dense "deltas" equal to the params).
        fn classic(raw: &[(Vec<f32>, f64)]) -> Vec<f32> {
            let n = raw[0].0.len();
            let payloads: Vec<Payload> = raw.iter().map(|(p, _)| dense(p)).collect();
            let updates: Vec<(&Payload, f64)> =
                payloads.iter().zip(raw.iter().map(|(_, w)| *w)).collect();
            reference(
                Aggregator::FedAvg,
                &updates,
                &vec![0.0; n],
                &WireCtx::dense(n),
            )
            .0
            .unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Dense payload aggregation agrees with the weighted mean of
            /// the decoded parameters to numerical tolerance.
            #[test]
            fn payload_dense_fedavg_matches_classic(
                raw in proptest::collection::vec(
                    (proptest::collection::vec(-2.0f32..2.0, 6), 1.0f64..40.0),
                    1..6,
                ),
                anchor in proptest::collection::vec(-2.0f32..2.0, 6),
            ) {
                let classic = classic(&raw);
                let via_payloads = via_deltas(&raw, &anchor, Codec::Dense);
                for (&a, &b) in classic.iter().zip(via_payloads.iter()) {
                    prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
                }
            }

            /// Quantized (int8) payload aggregation stays within the
            /// accumulated quantization bound of the dense mean: each
            /// delta's error is at most half a step of its own range, and
            /// FedAvg is a convex combination, so the aggregate error is
            /// bounded by the largest per-device bound.
            #[test]
            fn payload_quantized_fedavg_within_tolerance(
                raw in proptest::collection::vec(
                    (proptest::collection::vec(-2.0f32..2.0, 6), 1.0f64..40.0),
                    1..6,
                ),
                anchor in proptest::collection::vec(-2.0f32..2.0, 6),
            ) {
                let classic = classic(&raw);
                let quantized = via_deltas(&raw, &anchor, Codec::QuantInt8);
                let worst_bound = raw
                    .iter()
                    .map(|(p, _)| {
                        let deltas: Vec<f32> =
                            p.iter().zip(anchor.iter()).map(|(x, a)| x - a).collect();
                        let lo = deltas.iter().cloned().fold(f32::INFINITY, f32::min);
                        let hi = deltas.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        (hi - lo) / 510.0
                    })
                    .fold(0.0f32, f32::max);
                for (&a, &b) in classic.iter().zip(quantized.iter()) {
                    prop_assert!(
                        (a - b).abs() <= worst_bound + 1e-5,
                        "{a} vs {b} beyond {worst_bound}"
                    );
                }
            }

            /// All-zero staleness makes the staleness-discounted weights
            /// exactly the sample weights, so the aggregate is plain
            /// FedAvg, bit for bit.
            #[test]
            fn sim_zero_staleness_is_plain_fedavg(
                raw in proptest::collection::vec(
                    (proptest::collection::vec(-2.0f32..2.0, 5), 1.0f64..40.0),
                    1..6,
                ),
            ) {
                let ctx = WireCtx::dense(5);
                let previous = vec![7.0f32; 5];
                let payloads: Vec<Payload> = raw.iter().map(|(p, _)| dense(p)).collect();
                let plain: Vec<(&Payload, f64)> =
                    payloads.iter().zip(raw.iter().map(|(_, w)| *w)).collect();
                let stale: Vec<(&Payload, f64)> = payloads
                    .iter()
                    .zip(raw.iter().map(|(_, w)| w * staleness_weight(0)))
                    .collect();
                prop_assert_eq!(
                    agg(Aggregator::FedAvg, &stale, &previous, &ctx),
                    agg(Aggregator::FedAvg, &plain, &previous, &ctx)
                );
            }

            /// Positive staleness never increases an update's weight, and
            /// the result stays a convex combination (bounded by the
            /// per-coordinate min/max of the inputs).
            #[test]
            fn sim_staleness_result_is_convex_combination(
                raw in proptest::collection::vec(
                    (proptest::collection::vec(-2.0f32..2.0, 4), 1.0f64..40.0, 0usize..10),
                    1..6,
                ),
            ) {
                let ctx = WireCtx::dense(4);
                let payloads: Vec<Payload> = raw.iter().map(|(p, _, _)| dense(p)).collect();
                for (_, _, s) in &raw {
                    prop_assert!(staleness_weight(*s) <= 1.0);
                }
                let updates: Vec<(&Payload, f64)> = payloads
                    .iter()
                    .zip(raw.iter().map(|(_, w, s)| w * staleness_weight(*s)))
                    .collect();
                let got = agg(Aggregator::FedAvg, &updates, &[0.0; 4], &ctx).0.unwrap();
                for i in 0..4 {
                    let lo = raw.iter().map(|(p, _, _)| p[i]).fold(f32::INFINITY, f32::min);
                    let hi = raw.iter().map(|(p, _, _)| p[i]).fold(f32::NEG_INFINITY, f32::max);
                    prop_assert!(got[i] >= lo - 1e-5 && got[i] <= hi + 1e-5,
                        "coord {} = {} outside [{}, {}]", i, got[i], lo, hi);
                }
            }
        }
    }
}
