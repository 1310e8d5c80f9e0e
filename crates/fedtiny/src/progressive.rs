//! Progressive pruning (Algorithm 2): grow/prune adjustments with `O(a)`
//! device memory.

use ft_fl::ExperimentEnv;
use ft_metrics::{densities_from_mask, forward_flops, layer_forward_flops};
use ft_nn::loss::softmax_cross_entropy;
use ft_nn::{prunable_param_indices, LayerArch, Mode, Model};
use ft_sparse::{top_k_sorted, Mask, PruneSchedule, TopKBuffer};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How much of the model one adjustment round touches (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// One prunable layer per adjustment.
    Layer,
    /// One Fig. 2 block per adjustment (the paper's choice).
    Block,
    /// Every prunable layer every adjustment.
    Entire,
}

/// Progressive-pruning configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgressiveConfig {
    /// When adjustments happen and how large they are.
    pub schedule: PruneSchedule,
    /// Adjustment granularity.
    pub granularity: Granularity,
    /// Iterate units from the output toward the input (`(b)` rows of
    /// Table III; the paper's best setting).
    pub backward_order: bool,
    /// First round at which adjustments may fire. Algorithm 2 adjusts at
    /// `t = 0` (untrained weights), which is harmless over the paper's 300
    /// rounds but destructive in short runs where magnitude-based dropping
    /// has no signal yet; scaled runs set this to `ΔR`.
    pub start_round: usize,
}

impl ProgressiveConfig {
    /// The paper's defaults: block granularity, backward order,
    /// `ΔR = 10`, `R_stop = 100`.
    pub fn paper_default(local_iters: usize) -> Self {
        ProgressiveConfig {
            schedule: PruneSchedule::paper_default(local_iters),
            granularity: Granularity::Block,
            backward_order: true,
            start_round: 0,
        }
    }

    /// Fast schedule for unit tests (adjusts every round, stops early).
    pub fn tiny_for_tests() -> Self {
        ProgressiveConfig {
            schedule: PruneSchedule {
                delta_r: 1,
                r_stop: 3,
                local_iters: 1,
            },
            granularity: Granularity::Block,
            backward_order: true,
            start_round: 0,
        }
    }

    /// The sequence of *units* (groups of prunable-layer indices) that
    /// adjustments rotate through, already ordered according to
    /// `backward_order`.
    pub fn units(&self, model: &dyn Model, num_prunable: usize) -> Vec<Vec<usize>> {
        let mut units = match self.granularity {
            Granularity::Layer => (0..num_prunable).map(|l| vec![l]).collect(),
            Granularity::Block => model.block_partition(),
            Granularity::Entire => vec![(0..num_prunable).collect()],
        };
        if self.backward_order {
            units.reverse();
        }
        units
    }
}

/// One grow/prune adjustment's bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct AdjustmentReport {
    /// Per adjusted layer: `(layer, a_t)` counts actually applied.
    pub adjusted: Vec<(usize, usize)>,
    /// *Analytic* upload volume in bytes (top-k gradients, all devices).
    pub comm_bytes: f64,
    /// *Measured* upload volume: the exact wire size of every device's
    /// `(index, gradient)` pair payload.
    pub payload_bytes: f64,
    /// Extra per-device FLOPs for the dense-gradient batch.
    pub extra_flops: f64,
    /// Largest buffer capacity any device needed (`O(a)` bound).
    pub max_buffer: usize,
}

/// Performs one adjustment (Alg. 2 lines 10–26) on the layers of `unit`.
///
/// Device side: each device runs one forward/backward batch on the sparse
/// model, streams the gradients of *pruned* coordinates of each target layer
/// through a [`TopKBuffer`] of capacity `a_t^l`, and uploads the surviving
/// `(index, gradient)` pairs. Server side: gradients are aggregated weighted
/// by `|D_k|` (Eq. 7), the top `a_t^l` pruned coordinates by aggregated
/// magnitude are grown, and the same number of surviving coordinates with
/// the smallest weight magnitude (excluding the just-grown ones) are
/// dropped. The mask is updated in place; grown weights start at zero.
///
/// # Panics
///
/// Panics if `mask` does not match the model's prunable layout.
pub fn progressive_adjust(
    global: &mut dyn Model,
    mask: &mut Mask,
    env: &ExperimentEnv,
    cfg: &ProgressiveConfig,
    unit: &[usize],
    round: usize,
) -> AdjustmentReport {
    let mut report = AdjustmentReport::default();
    // a_t^l per target layer, from the cosine schedule over *alive* counts.
    let counts: Vec<(usize, usize)> = unit
        .iter()
        .map(|&l| {
            let alive = mask.layer_ones(l);
            let pruned = mask.layer(l).len() - alive;
            let a = cfg.schedule.count_at(round, alive).min(pruned).min(alive);
            (l, a)
        })
        .filter(|&(_, a)| a > 0)
        .collect();
    if counts.is_empty() {
        return report;
    }

    // --- Device side: top-a gradients of pruned coordinates (Eq. 6).
    let collect_one = |k: usize| -> Vec<Vec<(usize, f32)>> {
        let mut model = global.clone_model();
        // The grow step scores gradients of *pruned* coordinates, which the
        // sparse execution path does not compute — force this probe batch
        // onto the dense path. Its cost is already accounted below as the
        // dense-minus-sparse backward share.
        model.set_sparse_crossover(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(
            env.cfg.seed ^ 0x9d0f ^ ((round as u64) << 20) ^ ((k as u64) << 44),
        );
        let data = &env.parts[k];
        let bs = env.cfg.batch_size.min(data.len());
        let mut idx: Vec<usize> = (0..data.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(bs);
        let (x, y) = data.batch(&idx);
        let logits = model.forward(&x, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        model.backward(&grad);
        let prunable_pos = prunable_param_indices(model.as_ref());
        let params = model.params();
        counts
            .iter()
            .map(|&(l, a)| {
                let g = params[prunable_pos[l]].grad.data();
                let mut buf = TopKBuffer::new(a);
                for (i, alive) in mask.layer(l).iter().enumerate() {
                    if !alive {
                        buf.push(i, g[i]);
                    }
                }
                buf.into_sorted()
            })
            .collect()
    };

    let rt = env.cfg.runtime();
    let device_grads: Vec<Vec<Vec<(usize, f32)>>> =
        if env.cfg.parallel && env.parts.len() > 1 && rt.is_parallel() {
            // Devices draw on the run's bounded worker pool instead of one
            // unbounded OS thread each.
            type DeviceGrads = Vec<Vec<(usize, f32)>>;
            let mut out: Vec<Option<DeviceGrads>> = vec![None; env.parts.len()];
            let jobs: Vec<_> = out.iter_mut().enumerate().collect();
            rt.scatter(jobs, |(k, slot)| *slot = Some(collect_one(k)));
            out.into_iter()
                .map(|o| o.expect("gradient job completed"))
                .collect()
        } else {
            (0..env.parts.len()).map(collect_one).collect()
        };

    // --- Server side: Eq. 7 aggregation, then grow / drop.
    let weights = env.device_weights();
    let prunable_pos = prunable_param_indices(global);
    for (ui, &(l, a)) in counts.iter().enumerate() {
        let mut agg: BTreeMap<usize, f64> = BTreeMap::new();
        for (k, grads) in device_grads.iter().enumerate() {
            for &(i, g) in &grads[ui] {
                *agg.entry(i).or_insert(0.0) += weights[k] * g as f64;
            }
            report.comm_bytes += grads[ui].len() as f64 * 8.0;
            report.payload_bytes += ft_sparse::topk_pairs_encoded_len(grads[ui].len()) as f64;
        }
        // Grow: top-a pruned indices by |aggregated gradient|, ties by
        // ascending index.
        let grow: Vec<usize> = top_k_sorted(agg.iter().map(|(&i, &g)| (i, g as f32)), a)
            .into_iter()
            .map(|(i, _)| i)
            .collect();

        // Drop: a surviving coordinates with smallest |weight|, excluding
        // the just-grown ones (they are zero and would be dropped at once).
        let wdata = {
            let params = global.params();
            params[prunable_pos[l]].data.data().to_vec()
        };
        let mut alive: Vec<usize> = mask.alive_indices(l);
        alive.sort_by(|&x, &y| {
            wdata[x]
                .abs()
                .partial_cmp(&wdata[y].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.cmp(&y))
        });
        let drop_n = grow.len();
        let dropped: Vec<usize> = alive.into_iter().take(drop_n).collect();

        for &i in &grow {
            mask.set(l, i, true);
        }
        for &i in &dropped {
            mask.set(l, i, false);
        }
        // Zero the dropped weights; grown weights are already zero.
        {
            let mut params = global.params_mut();
            let w = params[prunable_pos[l]].data.data_mut();
            for &i in &dropped {
                w[i] = 0.0;
            }
        }
        report.adjusted.push((l, grow.len()));
        report.max_buffer = report.max_buffer.max(a);
    }

    // --- Cost accounting: one extra batch with dense gradients for the
    // target layers. Training the batch costs 3× forward at current
    // density; computing dense weight gradients for the unit layers adds
    // the dense-minus-sparse backward share of those layers.
    let arch = global.arch();
    let densities = densities_from_mask(mask);
    let bs = env
        .parts
        .iter()
        .map(|p| env.cfg.batch_size.min(p.len()))
        .max()
        .unwrap_or(0) as f64;
    let mut extra = 3.0 * forward_flops(&arch, &densities);
    for layer in &arch.layers {
        let pi = match layer {
            LayerArch::Conv {
                prunable_idx: Some(i),
                ..
            }
            | LayerArch::Linear {
                prunable_idx: Some(i),
                ..
            } => *i,
            _ => continue,
        };
        if counts.iter().any(|&(l, _)| l == pi) {
            let dense = layer_forward_flops(layer, 1.0);
            let sparse = layer_forward_flops(layer, densities[pi]);
            extra += dense - sparse; // dense weight-gradient GEMM share
        }
    }
    report.extra_flops = extra * bs;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_fl::ModelSpec;
    use ft_nn::{apply_mask, sparse_layout};
    use ft_sparse::uniform_density_vector;

    fn setup(density: f32) -> (ExperimentEnv, Box<dyn Model>, Mask) {
        let env = ExperimentEnv::tiny_for_tests(2);
        let mut model = env.build_model(&ModelSpec::small_cnn_test());
        let layout = sparse_layout(model.as_ref());
        let weights: Vec<&[f32]> = model
            .params()
            .into_iter()
            .filter(|p| p.prunable)
            .map(|p| p.data.data())
            .collect();
        let mask =
            ft_sparse::magnitude_mask(&layout, &weights, &uniform_density_vector(&layout, density));
        drop(weights);
        apply_mask(model.as_mut(), &mask);
        (env, model, mask)
    }

    #[test]
    fn adjustment_preserves_density() {
        let (env, mut model, mut mask) = setup(0.3);
        let before = mask.ones_count();
        let cfg = ProgressiveConfig::tiny_for_tests();
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let report = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 0);
        assert!(!report.adjusted.is_empty(), "no adjustment happened");
        assert_eq!(mask.ones_count(), before, "density drifted");
    }

    #[test]
    fn adjustment_changes_mask() {
        let (env, mut model, mut mask) = setup(0.3);
        let before = mask.clone();
        let cfg = ProgressiveConfig::tiny_for_tests();
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let _ = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 0);
        assert_ne!(mask, before, "mask unchanged by adjustment");
    }

    #[test]
    fn pruned_weights_stay_zero_after_adjustment() {
        let (env, mut model, mut mask) = setup(0.4);
        let cfg = ProgressiveConfig::tiny_for_tests();
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let _ = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 0);
        let prunable_pos = prunable_param_indices(model.as_ref());
        let params = model.params();
        for l in 0..mask.num_layers() {
            let w = params[prunable_pos[l]].data.data();
            for (i, alive) in mask.layer(l).iter().enumerate() {
                if !alive {
                    assert_eq!(w[i], 0.0, "layer {l} weight {i} nonzero while pruned");
                }
            }
        }
    }

    #[test]
    fn beyond_rstop_is_noop() {
        let (env, mut model, mut mask) = setup(0.3);
        let before = mask.clone();
        let cfg = ProgressiveConfig::tiny_for_tests(); // r_stop = 3
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let report = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 10);
        assert!(report.adjusted.is_empty());
        assert_eq!(mask, before);
    }

    #[test]
    fn units_rotation_orders() {
        let (_, model, _) = setup(0.5);
        let layer_cfg = ProgressiveConfig {
            granularity: Granularity::Layer,
            backward_order: true,
            ..ProgressiveConfig::tiny_for_tests()
        };
        let units = layer_cfg.units(model.as_ref(), 2);
        assert_eq!(units, vec![vec![1], vec![0]]); // backward: output first
        let entire = ProgressiveConfig {
            granularity: Granularity::Entire,
            backward_order: false,
            ..ProgressiveConfig::tiny_for_tests()
        };
        assert_eq!(entire.units(model.as_ref(), 2), vec![vec![0, 1]]);
    }

    #[test]
    fn buffer_capacity_respects_schedule() {
        let (env, mut model, mut mask) = setup(0.3);
        let cfg = ProgressiveConfig::tiny_for_tests();
        let unit: Vec<usize> = (0..mask.num_layers()).collect();
        let report = progressive_adjust(model.as_mut(), &mut mask, &env, &cfg, &unit, 0);
        // At t=0 the cosine gives 0.30 · alive; buffers must not exceed that.
        let max_alive = (0..mask.num_layers())
            .map(|l| mask.layer_ones(l))
            .max()
            .unwrap();
        assert!(report.max_buffer <= (0.31 * max_alive as f32) as usize + 1);
        assert!(report.comm_bytes > 0.0);
        assert!(report.extra_flops > 0.0);
    }
}
