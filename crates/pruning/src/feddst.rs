//! FedDST (Bibikar et al., AAAI 2022), adapted per Sec. IV-A3.
//!
//! The server random-prunes the initial model (uniform layer-wise density);
//! devices adjust the mask RigL-style (grow by gradient magnitude, drop by
//! weight magnitude) over the *entire* model each adjustment, with the same
//! `a_t` schedule as FedTiny; the server unifies the mask by weighted
//! gradient aggregation followed by magnitude pruning. Devices spend extra
//! recovery epochs around each adjustment (3 training + 2 fine-tuning per
//! paper), which is what makes FedDST's adjustment rounds expensive.

use ft_fl::{run_federated_rounds, CostLedger, ExperimentEnv, ModelSpec, RunResult};
use ft_metrics::{densities_from_mask, device_memory_bytes, training_flops, ExtraMemory};
use ft_nn::loss::softmax_cross_entropy;
use ft_nn::{apply_mask, prunable_param_indices, sparse_layout, Mode, Model};
use ft_sparse::{
    random_mask, top_k_sorted, uniform_density_vector, Mask, PruneSchedule, TopKBuffer,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Extra local epochs spent recovering grown weights per adjustment (the
/// paper configures 3 adjustment + 2 fine-tuning epochs).
pub const RECOVERY_EPOCHS: f64 = 2.0;

/// Runs FedDST.
pub fn run_feddst(
    env: &ExperimentEnv,
    spec: &ModelSpec,
    d_target: f32,
    schedule: PruneSchedule,
    eval_every: usize,
) -> RunResult {
    let mut global = env.build_model(spec);
    let layout = sparse_layout(global.as_ref());
    let mut rng = ChaCha8Rng::seed_from_u64(env.cfg.seed ^ 0x00fe_dd57);
    let mut mask = random_mask(
        &mut rng,
        &layout,
        &uniform_density_vector(&layout, d_target),
    );
    apply_mask(global.as_mut(), &mask);

    let arch = global.arch();
    let mut ledger = CostLedger::new();
    let max_samples = env.parts.iter().map(|p| p.len()).max().unwrap_or(0) as f64;

    let history = {
        let mut hook = |model: &mut dyn Model,
                        mask: &mut Mask,
                        round: usize,
                        ledger: &mut CostLedger|
         -> f64 {
            if !schedule.adjusts_at(round) {
                return 0.0;
            }
            adjust_entire_model(model, mask, env, &schedule, round, ledger);
            // Recovery epochs around the adjustment.
            let densities = densities_from_mask(mask);
            RECOVERY_EPOCHS * training_flops(&arch, &densities) * max_samples
        };
        run_federated_rounds(
            global.as_mut(),
            &mut mask,
            env,
            eval_every,
            &mut ledger,
            &mut hook,
        )
    };

    let densities = densities_from_mask(&mask);
    RunResult::from_ledger(
        "feddst",
        history,
        mask.density(),
        device_memory_bytes(&arch, &densities, ExtraMemory::MaskBits),
        env.cfg.codec.name(),
        &ledger,
    )
}

/// RigL-style grow/drop over every prunable layer: devices upload the top
/// `a_t^l` gradients of pruned coordinates, the server aggregates (weighted)
/// and grows the winners, dropping the smallest-magnitude survivors.
fn adjust_entire_model(
    global: &mut dyn Model,
    mask: &mut Mask,
    env: &ExperimentEnv,
    schedule: &PruneSchedule,
    round: usize,
    ledger: &mut CostLedger,
) {
    let counts: Vec<(usize, usize)> = (0..mask.num_layers())
        .map(|l| {
            let alive = mask.layer_ones(l);
            let pruned = mask.layer(l).len() - alive;
            (l, schedule.count_at(round, alive).min(pruned).min(alive))
        })
        .filter(|&(_, a)| a > 0)
        .collect();
    if counts.is_empty() {
        return;
    }
    let weights = env.device_weights();
    let mut agg: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); counts.len()];
    for (k, data) in env.parts.iter().enumerate() {
        let mut model = global.clone_model();
        // Grow scoring reads gradients of pruned coordinates; the sparse
        // execution path only produces mask-alive gradients.
        model.set_sparse_crossover(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(
            env.cfg.seed ^ 0xd57 ^ ((round as u64) << 20) ^ ((k as u64) << 44),
        );
        let bs = env.cfg.batch_size.min(data.len());
        let mut idx: Vec<usize> = (0..data.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(bs);
        let (x, y) = data.batch(&idx);
        let logits = model.forward(&x, Mode::Train);
        let (_, grad) = softmax_cross_entropy(&logits, &y);
        model.backward(&grad);
        let pos = prunable_param_indices(model.as_ref());
        let params = model.params();
        for (ui, &(l, a)) in counts.iter().enumerate() {
            let g = params[pos[l]].grad.data();
            let mut buf = TopKBuffer::new(a);
            for (i, alive) in mask.layer(l).iter().enumerate() {
                if !alive {
                    buf.push(i, g[i]);
                }
            }
            let top = buf.into_sorted();
            ledger.add_comm(top.len() as f64 * 8.0);
            ledger.add_payload_comm(ft_sparse::topk_pairs_encoded_len(top.len()) as f64);
            for (i, gv) in top {
                *agg[ui].entry(i).or_insert(0.0) += weights[k] * gv as f64;
            }
        }
    }
    let pos = prunable_param_indices(global);
    for (ui, &(l, a)) in counts.iter().enumerate() {
        // Ties by ascending index.
        let grow: Vec<usize> = top_k_sorted(agg[ui].iter().map(|(&i, &g)| (i, g as f32)), a)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        let wdata = global.params()[pos[l]].data.data().to_vec();
        let mut alive = mask.alive_indices(l);
        alive.sort_by(|&x, &y| {
            wdata[x]
                .abs()
                .partial_cmp(&wdata[y].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.cmp(&y))
        });
        let dropped: Vec<usize> = alive.into_iter().take(grow.len()).collect();
        for &i in &grow {
            mask.set(l, i, true);
        }
        for &i in &dropped {
            mask.set(l, i, false);
        }
        let mut params = global.params_mut();
        let w = params[pos[l]].data.data_mut();
        for &i in &dropped {
            w[i] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feddst_preserves_density() {
        let env = ExperimentEnv::tiny_for_tests(40);
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 2,
            local_iters: 1,
        };
        let r = run_feddst(&env, &ModelSpec::small_cnn_test(), 0.2, schedule, 2);
        assert_eq!(r.method, "feddst");
        assert!(r.final_density <= 0.21, "density {}", r.final_density);
        assert!(r.max_round_flops > 0.0);
    }

    #[test]
    fn adjustment_rounds_cost_more() {
        // Compare a FedDST run (with recovery epochs) against a fixed-mask
        // run at the same density: max round FLOPs must be higher.
        let env = ExperimentEnv::tiny_for_tests(41);
        let spec = ModelSpec::small_cnn_test();
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 2,
            local_iters: 1,
        };
        let dst = run_feddst(&env, &spec, 0.2, schedule, 0);
        let model = env.build_model(&spec);
        let mask = crate::atinit::l1_oneshot_mask(model.as_ref(), 0.2);
        let fixed =
            crate::fixed::run_with_fixed_mask(&env, &spec, &mask, "x", ExtraMemory::None, 0);
        assert!(dst.max_round_flops > fixed.max_round_flops);
    }

    #[test]
    fn mask_changes_over_run() {
        let env = ExperimentEnv::tiny_for_tests(42);
        let spec = ModelSpec::small_cnn_test();
        // Initial random mask at 0.2; history should show a live method.
        let schedule = PruneSchedule {
            delta_r: 1,
            r_stop: 3,
            local_iters: 1,
        };
        let r = run_feddst(&env, &spec, 0.2, schedule, 1);
        assert!(!r.history.is_empty());
        assert!(r.comm_bytes > 0.0);
    }
}
