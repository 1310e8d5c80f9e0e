//! CIFAR-style ResNet18.

use super::scaled;
use crate::layer::{BatchNorm2d, BnStats, Conv2d, GlobalAvgPool, Linear, Mode, Relu};
use crate::model::{ArchInfo, LayerArch, Model};
use crate::param::Param;
use ft_tensor::Tensor;
use rand::Rng;

/// One residual basic block: two 3×3 conv-BN pairs with an optional
/// 1×1-conv-BN downsample shortcut.
#[derive(Clone, Debug)]
struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    down: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Relu,
}

impl BasicBlock {
    #[allow(clippy::too_many_arguments)]
    fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_c: usize,
        out_c: usize,
        stride: usize,
        name: &str,
    ) -> Self {
        let down = if stride != 1 || in_c != out_c {
            Some((
                Conv2d::new(
                    rng,
                    in_c,
                    out_c,
                    1,
                    stride,
                    0,
                    true,
                    &format!("{name}.down"),
                ),
                BatchNorm2d::new(out_c, &format!("{name}.down.bn")),
            ))
        } else {
            None
        };
        BasicBlock {
            conv1: Conv2d::new(
                rng,
                in_c,
                out_c,
                3,
                stride,
                1,
                true,
                &format!("{name}.conv1"),
            ),
            bn1: BatchNorm2d::new(out_c, &format!("{name}.bn1")),
            relu1: Relu::new(),
            conv2: Conv2d::new(rng, out_c, out_c, 3, 1, 1, true, &format!("{name}.conv2")),
            bn2: BatchNorm2d::new(out_c, &format!("{name}.bn2")),
            down,
            relu_out: Relu::new(),
        }
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut main = self.conv1.forward(x, mode);
        main = self.bn1.forward(&main, mode);
        main = self.relu1.forward(&main, mode);
        main = self.conv2.forward(&main, mode);
        main = self.bn2.forward(&main, mode);
        let short = match &mut self.down {
            Some((conv, bn)) => {
                let s = conv.forward(x, mode);
                bn.forward(&s, mode)
            }
            None => x.clone(),
        };
        let sum = main.add(&short);
        self.relu_out.forward(&sum, mode)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g_sum = self.relu_out.backward(grad);
        // The addition fans the gradient to both branches.
        let mut g_main = self.bn2.backward(&g_sum);
        g_main = self.conv2.backward(&g_main);
        g_main = self.relu1.backward(&g_main);
        g_main = self.bn1.backward(&g_main);
        let gx_main = self.conv1.backward(&g_main);
        let gx_short = match &mut self.down {
            Some((conv, bn)) => {
                let g = bn.backward(&g_sum);
                conv.backward(&g)
            }
            None => g_sum,
        };
        gx_main.add(&gx_short)
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![
            &self.conv1.w,
            &self.bn1.gamma,
            &self.bn1.beta,
            &self.conv2.w,
            &self.bn2.gamma,
            &self.bn2.beta,
        ];
        if let Some((conv, bn)) = &self.down {
            v.extend([&conv.w, &bn.gamma, &bn.beta]);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![
            &mut self.conv1.w,
            &mut self.bn1.gamma,
            &mut self.bn1.beta,
            &mut self.conv2.w,
            &mut self.bn2.gamma,
            &mut self.bn2.beta,
        ];
        if let Some((conv, bn)) = &mut self.down {
            v.push(&mut conv.w);
            v.push(&mut bn.gamma);
            v.push(&mut bn.beta);
        }
        v
    }

    fn bn_stats(&self) -> Vec<&BnStats> {
        let mut v = vec![&self.bn1.stats, &self.bn2.stats];
        if let Some((_, bn)) = &self.down {
            v.push(&bn.stats);
        }
        v
    }

    fn bn_stats_mut(&mut self) -> Vec<&mut BnStats> {
        let mut v = vec![&mut self.bn1.stats, &mut self.bn2.stats];
        if let Some((_, bn)) = &mut self.down {
            v.push(&mut bn.stats);
        }
        v
    }

    fn set_bn_momentum(&mut self, momentum: f32) {
        self.bn1.set_momentum(momentum);
        self.bn2.set_momentum(momentum);
        if let Some((_, bn)) = &mut self.down {
            bn.set_momentum(momentum);
        }
    }

    fn set_sparse_crossover(&mut self, crossover: f32) {
        self.conv1.set_sparse_crossover(crossover);
        self.conv2.set_sparse_crossover(crossover);
        if let Some((conv, _)) = &mut self.down {
            conv.set_sparse_crossover(crossover);
        }
    }

    fn set_runtime(&mut self, rt: ft_runtime::Runtime) {
        self.conv1.set_runtime(rt);
        self.conv2.set_runtime(rt);
        if let Some((conv, _)) = &mut self.down {
            conv.set_runtime(rt);
        }
    }

    fn realized_flops(&self) -> f64 {
        let mut f = self.conv1.realized_flops() + self.conv2.realized_flops();
        if let Some((conv, _)) = &self.down {
            f += conv.realized_flops();
        }
        f
    }

    fn reset_realized_flops(&mut self) {
        self.conv1.reset_realized_flops();
        self.conv2.reset_realized_flops();
        if let Some((conv, _)) = &mut self.down {
            conv.reset_realized_flops();
        }
    }
}

/// CIFAR-style ResNet18: a 3×3 stem (no max-pool), four stages of two
/// basic blocks with channel widths `64·w, 128·w, 256·w, 512·w`, global
/// average pooling and a linear classifier.
///
/// The stem convolution and the classifier are not prunable; the 19
/// convolution weights inside the residual stages are, partitioned into 5
/// blocks (one per stage, the last stage split in two) per Fig. 2.
#[derive(Clone, Debug)]
pub struct ResNet18 {
    stem_conv: Conv2d,
    stem_bn: BatchNorm2d,
    stem_relu: Relu,
    stages: Vec<BasicBlock>, // 8 blocks: 2 per stage
    gap: GlobalAvgPool,
    fc: Linear,
    arch: ArchInfo,
    blocks: Vec<Vec<usize>>,
}

impl ResNet18 {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if `input_size < 8` (three stride-2 stages must fit).
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        width: f32,
        classes: usize,
        in_c: usize,
        input_size: usize,
    ) -> Self {
        assert!(
            input_size >= 8,
            "ResNet18 needs input_size >= 8, got {input_size}"
        );
        let c = [
            scaled(64, width),
            scaled(128, width),
            scaled(256, width),
            scaled(512, width),
        ];
        let stem_conv = Conv2d::new(rng, in_c, c[0], 3, 1, 1, false, "stem.conv");
        let stem_bn = BatchNorm2d::new(c[0], "stem.bn");

        let mut stages = Vec::with_capacity(8);
        let mut layers = Vec::new();
        let mut s = input_size;
        layers.push(LayerArch::Conv {
            in_c,
            out_c: c[0],
            kernel: 3,
            out_h: s,
            out_w: s,
            prunable_idx: None,
        });
        layers.push(LayerArch::BatchNorm {
            channels: c[0],
            spatial: s * s,
        });

        let mut prunable_idx = 0usize;
        let mut stage_groups: Vec<Vec<usize>> = Vec::new();
        let mut prev_c = c[0];
        for (stage, &out_c) in c.iter().enumerate() {
            let mut group = Vec::new();
            for b in 0..2 {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                if stride == 2 {
                    s /= 2;
                }
                let name = format!("layer{}.{}", stage + 1, b);
                let block = BasicBlock::new(rng, prev_c, out_c, stride, &name);
                // Arch entries: conv1, conv2, optional downsample.
                layers.push(LayerArch::Conv {
                    in_c: prev_c,
                    out_c,
                    kernel: 3,
                    out_h: s,
                    out_w: s,
                    prunable_idx: Some(prunable_idx),
                });
                group.push(prunable_idx);
                prunable_idx += 1;
                layers.push(LayerArch::BatchNorm {
                    channels: out_c,
                    spatial: s * s,
                });
                layers.push(LayerArch::Conv {
                    in_c: out_c,
                    out_c,
                    kernel: 3,
                    out_h: s,
                    out_w: s,
                    prunable_idx: Some(prunable_idx),
                });
                group.push(prunable_idx);
                prunable_idx += 1;
                layers.push(LayerArch::BatchNorm {
                    channels: out_c,
                    spatial: s * s,
                });
                if block.down.is_some() {
                    layers.push(LayerArch::Conv {
                        in_c: prev_c,
                        out_c,
                        kernel: 1,
                        out_h: s,
                        out_w: s,
                        prunable_idx: Some(prunable_idx),
                    });
                    group.push(prunable_idx);
                    prunable_idx += 1;
                    layers.push(LayerArch::BatchNorm {
                        channels: out_c,
                        spatial: s * s,
                    });
                }
                stages.push(block);
                prev_c = out_c;
            }
            stage_groups.push(group);
        }

        // Fig. 2: five blocks. Stages give four groups; split the last stage
        // into its two residual blocks to obtain five.
        let last = stage_groups.pop().expect("four stages");
        let (a, b) = last.split_at(last.len() / 2);
        stage_groups.push(a.to_vec());
        stage_groups.push(b.to_vec());

        let fc = Linear::new(rng, prev_c, classes, false, "fc");
        layers.push(LayerArch::Linear {
            in_dim: prev_c,
            out_dim: classes,
            prunable_idx: None,
        });

        ResNet18 {
            stem_conv,
            stem_bn,
            stem_relu: Relu::new(),
            stages,
            gap: GlobalAvgPool::new(),
            fc,
            arch: ArchInfo {
                name: "resnet18".into(),
                input: [in_c, input_size, input_size],
                classes,
                layers,
            },
            blocks: stage_groups,
        }
    }

    /// Backward through every layer above the stem conv, returning the
    /// gradient at the stem conv's output.
    fn backward_to_stem(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut g = self.fc.backward(grad_logits);
        g = self.gap.backward(&g);
        for block in self.stages.iter_mut().rev() {
            g = block.backward(&g);
        }
        g = self.stem_relu.backward(&g);
        self.stem_bn.backward(&g)
    }
}

impl Model for ResNet18 {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut h = self.stem_conv.forward(x, mode);
        h = self.stem_bn.forward(&h, mode);
        h = self.stem_relu.forward(&h, mode);
        for block in &mut self.stages {
            h = block.forward(&h, mode);
        }
        let pooled = self.gap.forward(&h, mode);
        self.fc.forward(&pooled, mode)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        let g = self.backward_to_stem(grad_logits);
        let _ = self.stem_conv.backward(&g);
    }

    /// The stem conv's input gradient is dead — no layer sits before it —
    /// so its dCol GEMM and col2im are skipped. Parameter gradients are
    /// identical to [`Model::backward`].
    fn backward_scratch(&mut self, grad_logits: &Tensor) {
        let g = self.backward_to_stem(grad_logits);
        self.stem_conv.backward_params_only(&g);
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.stem_conv.w, &self.stem_bn.gamma, &self.stem_bn.beta];
        for b in &self.stages {
            v.extend(b.params());
        }
        v.push(&self.fc.w);
        v.push(&self.fc.b);
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![
            &mut self.stem_conv.w,
            &mut self.stem_bn.gamma,
            &mut self.stem_bn.beta,
        ];
        for b in &mut self.stages {
            v.extend(b.params_mut());
        }
        v.push(&mut self.fc.w);
        v.push(&mut self.fc.b);
        v
    }

    fn bn_stats(&self) -> Vec<&BnStats> {
        let mut v = vec![&self.stem_bn.stats];
        for b in &self.stages {
            v.extend(b.bn_stats());
        }
        v
    }

    fn bn_stats_mut(&mut self) -> Vec<&mut BnStats> {
        let mut v = vec![&mut self.stem_bn.stats];
        for b in &mut self.stages {
            v.extend(b.bn_stats_mut());
        }
        v
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }

    fn arch(&self) -> ArchInfo {
        self.arch.clone()
    }

    fn block_partition(&self) -> Vec<Vec<usize>> {
        self.blocks.clone()
    }

    fn set_bn_momentum(&mut self, momentum: f32) {
        self.stem_bn.set_momentum(momentum);
        for b in &mut self.stages {
            b.set_bn_momentum(momentum);
        }
    }

    fn set_sparse_crossover(&mut self, crossover: f32) {
        self.stem_conv.set_sparse_crossover(crossover);
        for b in &mut self.stages {
            b.set_sparse_crossover(crossover);
        }
        self.fc.set_sparse_crossover(crossover);
    }

    fn set_runtime(&mut self, rt: ft_runtime::Runtime) {
        self.stem_conv.set_runtime(rt);
        for b in &mut self.stages {
            b.set_runtime(rt);
        }
        self.gap.set_runtime(rt);
        self.fc.set_runtime(rt);
    }

    fn realized_flops(&self) -> f64 {
        self.stem_conv.realized_flops()
            + self
                .stages
                .iter()
                .map(BasicBlock::realized_flops)
                .sum::<f64>()
            + self.fc.realized_flops()
    }

    fn reset_realized_flops(&mut self) {
        self.stem_conv.reset_realized_flops();
        for b in &mut self.stages {
            b.reset_realized_flops();
        }
        self.fc.reset_realized_flops();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::sparse_layout;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_resnet() -> ResNet18 {
        ResNet18::new(&mut ChaCha8Rng::seed_from_u64(5), 0.125, 10, 3, 8)
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = tiny_resnet();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = m.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 10]);
        m.backward(&Tensor::ones(y.shape()));
        assert!(m.params().iter().any(|p| p.grad.max_abs() > 0.0));
    }

    #[test]
    fn has_nineteen_prunable_layers() {
        // 8 blocks x 2 convs + 3 downsample convs = 19.
        let m = tiny_resnet();
        assert_eq!(sparse_layout(&m).num_layers(), 19);
    }

    #[test]
    fn blocks_partition_into_five() {
        let m = tiny_resnet();
        let blocks = m.block_partition();
        assert_eq!(blocks.len(), 5);
        let mut flat: Vec<usize> = blocks.into_iter().flatten().collect();
        flat.sort_unstable();
        assert_eq!(flat, (0..19).collect::<Vec<_>>());
    }

    #[test]
    fn downsample_shortcut_exists_per_stage() {
        let m = tiny_resnet();
        let with_down = m.stages.iter().filter(|b| b.down.is_some()).count();
        assert_eq!(with_down, 3, "stages 2-4 begin with a stride-2 block");
    }

    #[test]
    fn full_width_parameter_count_matches_resnet18() {
        // ~11.17M parameters at width 1.0 on 3x32x32/10 classes.
        let m = ResNet18::new(&mut ChaCha8Rng::seed_from_u64(6), 1.0, 10, 3, 32);
        let total: usize = m.params().iter().map(|p| p.len()).sum();
        assert!(
            (11_000_000..11_400_000).contains(&total),
            "got {total} parameters"
        );
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let mut m = tiny_resnet();
        let x = Tensor::ones(&[1, 3, 8, 8]);
        let y1 = m.forward(&x, Mode::Eval);
        let y2 = m.forward(&x, Mode::Eval);
        assert_eq!(y1, y2);
    }

    #[test]
    fn gradient_flows_to_stem() {
        let mut m = tiny_resnet();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let x = ft_tensor::normal(&mut rng, &[2, 3, 8, 8], 0.0, 1.0);
        let y = m.forward(&x, Mode::Train);
        m.backward(&Tensor::ones(y.shape()));
        assert!(
            m.stem_conv.w.grad.max_abs() > 0.0,
            "residual paths must reach the stem"
        );
    }

    /// `backward_scratch` skips only the stem conv's input gradient: every
    /// parameter gradient is bit-identical to `backward`'s, and the skipped
    /// dCol pass shows up as fewer realized FLOPs.
    #[test]
    fn backward_scratch_matches_backward_params_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let x = ft_tensor::normal(&mut rng, &[3, 3, 8, 8], 0.0, 1.0);
        let grads = |m: &mut ResNet18, scratch: bool| {
            m.reset_realized_flops();
            let y = m.forward(&x, Mode::Train);
            let g = Tensor::from_vec(
                (0..y.numel()).map(|i| (i as f32).sin()).collect(),
                y.shape(),
            );
            if scratch {
                m.backward_scratch(&g);
            } else {
                m.backward(&g);
            }
            let bits: Vec<Vec<u32>> = m
                .params()
                .iter()
                .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                .collect();
            (bits, m.realized_flops())
        };
        let (full, full_flops) = grads(&mut tiny_resnet(), false);
        let (lean, lean_flops) = grads(&mut tiny_resnet(), true);
        assert_eq!(full, lean);
        assert!(lean_flops < full_flops, "{lean_flops} vs {full_flops}");
    }
}
