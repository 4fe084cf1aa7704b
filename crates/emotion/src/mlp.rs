//! A from-scratch multilayer perceptron — the paper's "neural network as
//! a classifier".
//!
//! Architecture: fully-connected layers with ReLU activations and a
//! softmax output trained with cross-entropy loss via mini-batch SGD
//! with momentum. Weights use Xavier/He initialization from a seeded
//! RNG so training is fully deterministic and reproducible.

// Dense linear-algebra loops read clearest with explicit indices.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Shape and initialization parameters of an MLP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input dimension.
    pub input: usize,
    /// Hidden layer widths (may be empty for a linear softmax model).
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub output: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

/// Optimization hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 16,
            epochs: 40,
            weight_decay: 1e-4,
        }
    }
}

/// One fully-connected layer: `y = W·x + b` (row-major weights).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    rows: usize,
    cols: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Layer {
    fn new(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        // He initialization, appropriate for ReLU.
        let scale = (2.0 / cols as f64).sqrt();
        let w = (0..rows * cols)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            rows,
            cols,
            w,
            b: vec![0.0; rows],
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.cols);
        out.clear();
        out.reserve(self.rows);
        for r in 0..self.rows {
            let row = &self.w[r * self.cols..(r + 1) * self.cols];
            let mut acc = self.b[r];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
        }
    }
}

/// One buffer per layer parameter: a mini-batch's gradient
/// accumulators, or the SGD momentum that lives for one
/// [`Mlp::train`] call.
struct Grads {
    gw: Vec<Vec<f64>>,
    gb: Vec<Vec<f64>>,
}

impl Grads {
    fn zeros(layers: &[Layer]) -> Self {
        Grads {
            gw: layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            gb: layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }
}

/// Reusable buffers for the one-sample forward pass
/// ([`Mlp::predict_proba_with`], the oracle of the batched pass) and
/// for backpropagation during training, which runs the same forward
/// pass. A scratch is cheap to create empty — buffers grow to the
/// network's widths on first use and are reused afterwards, so reuse
/// never changes a result bit.
#[derive(Debug, Default, Clone)]
pub struct MlpScratch {
    /// `activations[0]` = input copy; `activations[i]` = output of
    /// layer `i-1` after ReLU (raw logits for the last layer).
    activations: Vec<Vec<f64>>,
    /// Softmax output of the last forward pass.
    probs: Vec<f64>,
    /// Backprop: current layer's delta.
    delta: Vec<f64>,
    /// Backprop: next (earlier) layer's delta under construction.
    prev: Vec<f64>,
}

impl MlpScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        MlpScratch::default()
    }
}

/// Reusable buffers for the batched forward pass
/// ([`Mlp::predict_proba_batch_with`]).
///
/// Holds two flat ping-pong activation planes (`samples × width`,
/// sample-major) plus the flat probability output. Buffers grow to the
/// largest batch seen and are reused afterwards, so steady-state
/// batched inference performs zero heap allocation.
#[derive(Debug, Default, Clone)]
pub struct MlpBatchScratch {
    /// Current layer's input plane, sample-major `samples × cols`.
    a: Vec<f64>,
    /// Current layer's output plane, sample-major `samples × rows`.
    b: Vec<f64>,
    /// Softmax output, sample-major `samples × output`.
    probs: Vec<f64>,
}

impl MlpBatchScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        MlpBatchScratch::default()
    }
}

/// A feed-forward network with ReLU hidden layers and softmax output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds a network with randomly initialized weights.
    ///
    /// # Panics
    /// Panics when any dimension is zero.
    pub fn new(config: MlpConfig) -> Self {
        assert!(
            config.input > 0 && config.output > 0,
            "dimensions must be positive"
        );
        assert!(
            config.hidden.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut dims = vec![config.input];
        dims.extend(&config.hidden);
        dims.push(config.output);
        let layers = dims
            .windows(2)
            .map(|d| Layer::new(d[1], d[0], &mut rng))
            .collect();
        Mlp { config, layers }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// One-sample forward pass into reusable buffers; returns the class
    /// probabilities (borrowed from `scratch`, valid until the next
    /// pass).
    ///
    /// This is the oracle of
    /// [`predict_proba_batch_with`](Self::predict_proba_batch_with),
    /// the production entry point, and the forward pass training
    /// backpropagates through.
    ///
    /// # Panics
    /// Panics when `x.len() != config.input`.
    pub fn predict_proba_with<'s>(&self, x: &[f64], scratch: &'s mut MlpScratch) -> &'s [f64] {
        assert_eq!(x.len(), self.config.input, "input dimension mismatch");
        self.forward_full(x, scratch);
        &scratch.probs
    }

    /// Batched forward pass — the production entry point: `samples`
    /// inputs packed flat (sample-major `samples × input`) produce
    /// `samples × output` probabilities, borrowed from `scratch` and
    /// valid until the next pass.
    ///
    /// Each layer's matmul runs with the weight row as the *outer* loop
    /// and the sample as the inner loop, so one traversal of the weight
    /// matrix serves the whole batch (the row stays in L1 across
    /// samples). The per-sample dot product itself — `acc = bias`, then
    /// `acc += w[c] * x[c]` ascending `c` — and the per-sample softmax
    /// keep the exact operation order of `Layer::forward` /
    /// [`predict_proba_with`](Self::predict_proba_with), so every
    /// output is bit-identical to the scalar path (asserted by
    /// `tests/property_kernels.rs`).
    ///
    /// # Panics
    /// Panics when `inputs.len() != samples * config.input`.
    pub fn predict_proba_batch_with<'s>(
        &self,
        samples: usize,
        inputs: &[f64],
        scratch: &'s mut MlpBatchScratch,
    ) -> &'s [f64] {
        assert_eq!(
            inputs.len(),
            samples * self.config.input,
            "input dimension mismatch"
        );
        scratch.a.clear();
        scratch.a.extend_from_slice(inputs);
        for (i, layer) in self.layers.iter().enumerate() {
            let (rows, cols) = (layer.rows, layer.cols);
            scratch.b.clear();
            scratch.b.resize(samples * rows, 0.0);
            for r in 0..rows {
                let wrow = &layer.w[r * cols..(r + 1) * cols];
                let bias = layer.b[r];
                for s in 0..samples {
                    let x = &scratch.a[s * cols..(s + 1) * cols];
                    let mut acc = bias;
                    for (wi, xi) in wrow.iter().zip(x) {
                        acc += wi * xi;
                    }
                    scratch.b[s * rows + r] = acc;
                }
            }
            if i + 1 != self.layers.len() {
                for v in scratch.b.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        let out = self.config.output;
        scratch.probs.clear();
        scratch.probs.resize(samples * out, 0.0);
        for s in 0..samples {
            softmax_slice(
                &scratch.a[s * out..(s + 1) * out],
                &mut scratch.probs[s * out..(s + 1) * out],
            );
        }
        &scratch.probs
    }

    /// Forward pass keeping every layer's post-activation output
    /// (needed for backprop) in `scratch.activations`, where
    /// `activations[0] = x` and `activations[i]` is the output of
    /// layer `i-1` after ReLU (raw logits for the last layer).
    /// Softmax probabilities land in `scratch.probs`.
    fn forward_full(&self, x: &[f64], scratch: &mut MlpScratch) {
        scratch
            .activations
            .resize_with(self.layers.len() + 1, Vec::new);
        scratch.activations[0].clear();
        scratch.activations[0].extend_from_slice(x);
        for (i, layer) in self.layers.iter().enumerate() {
            // Split so the input (index i) and output (index i+1)
            // buffers can be borrowed simultaneously.
            let (head, tail) = scratch.activations.split_at_mut(i + 1);
            let out = &mut tail[0];
            layer.forward(&head[i], out);
            let is_last = i + 1 == self.layers.len();
            if !is_last {
                for v in out.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }
        softmax_into(&scratch.activations[self.layers.len()], &mut scratch.probs);
    }

    /// Trains on `(features, labels)` for the configured number of
    /// epochs; returns the mean cross-entropy loss per epoch.
    ///
    /// Sample order is shuffled deterministically per epoch from the
    /// model seed. Momentum starts at zero on every call.
    ///
    /// # Panics
    /// Panics on empty data, dimension mismatch, or out-of-range labels.
    pub fn train(
        &mut self,
        features: &[Vec<f64>],
        labels: &[usize],
        tc: &TrainingConfig,
    ) -> Vec<f64> {
        assert!(!features.is_empty(), "training set must be non-empty");
        assert_eq!(
            features.len(),
            labels.len(),
            "features/labels length mismatch"
        );
        for f in features {
            assert_eq!(f.len(), self.config.input, "feature dimension mismatch");
        }
        assert!(
            labels.iter().all(|&l| l < self.config.output),
            "label out of range"
        );
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut epoch_losses = Vec::with_capacity(tc.epochs);
        let mut scratch = MlpScratch::new();
        let mut velocity = Grads::zeros(&self.layers);

        for _ in 0..tc.epochs {
            // Fisher–Yates shuffle.
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut total_loss = 0.0;
            for chunk in order.chunks(tc.batch_size.max(1)) {
                total_loss +=
                    self.train_batch(features, labels, chunk, tc, &mut velocity, &mut scratch);
            }
            epoch_losses.push(total_loss / features.len() as f64);
        }
        epoch_losses
    }

    /// Runs one mini-batch update; returns the summed loss over the batch.
    fn train_batch(
        &mut self,
        features: &[Vec<f64>],
        labels: &[usize],
        batch: &[usize],
        tc: &TrainingConfig,
        velocity: &mut Grads,
        scratch: &mut MlpScratch,
    ) -> f64 {
        let mut grads = Grads::zeros(&self.layers);
        let mut loss = 0.0;
        for &idx in batch {
            let x = &features[idx];
            let y = labels[idx];
            self.forward_full(x, scratch);
            loss += -(scratch.probs[y].max(1e-12)).ln();

            // Output delta: softmax + cross-entropy ⇒ p − onehot(y).
            scratch.delta.clear();
            scratch.delta.extend_from_slice(&scratch.probs);
            scratch.delta[y] -= 1.0;

            for li in (0..self.layers.len()).rev() {
                let input = &scratch.activations[li];
                let layer = &self.layers[li];
                // Accumulate gradients for this layer.
                for r in 0..layer.rows {
                    grads.gb[li][r] += scratch.delta[r];
                    let base = r * layer.cols;
                    for (c, xi) in input.iter().enumerate() {
                        grads.gw[li][base + c] += scratch.delta[r] * xi;
                    }
                }
                if li > 0 {
                    // Propagate delta through W and the ReLU derivative of
                    // the previous layer's output.
                    scratch.prev.clear();
                    scratch.prev.resize(layer.cols, 0.0);
                    for r in 0..layer.rows {
                        let base = r * layer.cols;
                        let d = scratch.delta[r];
                        for (c, p) in scratch.prev.iter_mut().enumerate() {
                            *p += layer.w[base + c] * d;
                        }
                    }
                    for (p, &a) in scratch.prev.iter_mut().zip(input.iter()) {
                        if a <= 0.0 {
                            *p = 0.0;
                        }
                    }
                    std::mem::swap(&mut scratch.delta, &mut scratch.prev);
                }
            }
        }

        // Apply SGD with momentum and weight decay.
        let scale = 1.0 / batch.len() as f64;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let (vw, vb) = (&mut velocity.gw[li], &mut velocity.gb[li]);
            for (i, w) in layer.w.iter_mut().enumerate() {
                let g = grads.gw[li][i] * scale + tc.weight_decay * *w;
                vw[i] = tc.momentum * vw[i] - tc.learning_rate * g;
                *w += vw[i];
            }
            for (i, b) in layer.b.iter_mut().enumerate() {
                let g = grads.gb[li][i] * scale;
                vb[i] = tc.momentum * vb[i] - tc.learning_rate * g;
                *b += vb[i];
            }
        }
        loss
    }
}

/// Numerically-stable softmax into a reusable buffer (max-shift, exp,
/// sum, divide — in that order, so every caller gets bit-identical
/// results regardless of buffer reuse).
fn softmax_into(logits: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.resize(logits.len(), 0.0);
    softmax_slice(logits, out);
}

/// The softmax kernel shared by the scalar and batched paths: same
/// max-shift/exp/sum/divide sequence over a pre-sized slice, so both
/// paths produce bit-identical probabilities.
fn softmax_slice(logits: &[f64], out: &mut [f64]) {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (e, &l) in out.iter_mut().zip(logits) {
        *e = (l - max).exp();
    }
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// Index of the maximum element under `f64::total_cmp`: the *last*
/// one on ties, as `Iterator::max_by` returns; 0 for an empty slice.
pub(crate) fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let features = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let labels = vec![0, 1, 1, 0];
        (features, labels)
    }

    /// Share of samples whose most probable class is their label.
    fn accuracy(mlp: &Mlp, features: &[Vec<f64>], labels: &[usize]) -> f64 {
        let mut scratch = MlpScratch::new();
        let correct = features
            .iter()
            .zip(labels)
            .filter(|(x, &y)| argmax(mlp.predict_proba_with(x, &mut scratch)) == y)
            .count();
        correct as f64 / features.len() as f64
    }

    #[test]
    fn argmax_returns_the_last_maximum_on_ties() {
        assert_eq!(argmax(&[0.25, 0.5, 0.5, 0.1]), 2);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut p = Vec::new();
        softmax_into(&[1000.0, 1001.0, 999.0], &mut p);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x.is_finite() && x > 0.0));
        assert!(p[1] > p[0] && p[0] > p[2]);
    }

    #[test]
    fn untrained_outputs_valid_distribution() {
        let mlp = Mlp::new(MlpConfig {
            input: 5,
            hidden: vec![8],
            output: 3,
            seed: 1,
        });
        let mut scratch = MlpScratch::new();
        let p = mlp.predict_proba_with(&[0.1, -0.2, 0.3, 0.0, 1.0], &mut scratch);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn learns_xor() {
        let (features, labels) = xor_data();
        let mut mlp = Mlp::new(MlpConfig {
            input: 2,
            hidden: vec![8],
            output: 2,
            seed: 42,
        });
        let tc = TrainingConfig {
            learning_rate: 0.2,
            momentum: 0.9,
            batch_size: 4,
            epochs: 400,
            weight_decay: 0.0,
        };
        let losses = mlp.train(&features, &labels, &tc);
        assert!(
            losses.last().unwrap() < &0.1,
            "final loss {:?}",
            losses.last()
        );
        assert_eq!(accuracy(&mlp, &features, &labels), 1.0);
    }

    #[test]
    fn loss_decreases_on_separable_data() {
        // Two Gaussian-ish clusters.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let t = i as f64 / 40.0;
            features.push(vec![t * 0.2, 1.0 + t * 0.1]);
            labels.push(0);
            features.push(vec![1.0 + t * 0.2, t * 0.1]);
            labels.push(1);
        }
        let mut mlp = Mlp::new(MlpConfig {
            input: 2,
            hidden: vec![4],
            output: 2,
            seed: 7,
        });
        let losses = mlp.train(&features, &labels, &TrainingConfig::default());
        assert!(losses.first().unwrap() > losses.last().unwrap());
        assert!(accuracy(&mlp, &features, &labels) > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let (features, labels) = xor_data();
        let build = || {
            let mut m = Mlp::new(MlpConfig {
                input: 2,
                hidden: vec![6],
                output: 2,
                seed: 9,
            });
            m.train(
                &features,
                &labels,
                &TrainingConfig {
                    epochs: 20,
                    ..TrainingConfig::default()
                },
            );
            m
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same seed must give identical weights");
    }

    #[test]
    fn linear_model_no_hidden_layers() {
        let mut mlp = Mlp::new(MlpConfig {
            input: 2,
            hidden: vec![],
            output: 2,
            seed: 3,
        });
        // Linearly separable: class = x0 > x1.
        let features: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 5.0])
            .collect();
        let labels: Vec<usize> = features.iter().map(|f| usize::from(f[0] > f[1])).collect();
        mlp.train(&features, &labels, &TrainingConfig::default());
        assert!(accuracy(&mlp, &features, &labels) > 0.9);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mlp = Mlp::new(MlpConfig {
            input: 3,
            hidden: vec![],
            output: 2,
            seed: 0,
        });
        let _ = mlp.predict_proba_with(&[1.0, 2.0], &mut MlpScratch::new());
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let mut mlp = Mlp::new(MlpConfig {
            input: 1,
            hidden: vec![],
            output: 2,
            seed: 0,
        });
        let _ = mlp.train(&[vec![1.0]], &[5], &TrainingConfig::default());
    }

    #[test]
    fn batched_forward_is_bit_identical_to_scalar() {
        let mlp = Mlp::new(MlpConfig {
            input: 5,
            hidden: vec![7, 4],
            output: 3,
            seed: 17,
        });
        let inputs: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..5).map(|c| ((i * 5 + c) as f64).sin()).collect())
            .collect();
        let flat: Vec<f64> = inputs.iter().flatten().copied().collect();
        let mut batch = MlpBatchScratch::new();
        let probs = mlp.predict_proba_batch_with(inputs.len(), &flat, &mut batch);
        assert_eq!(probs.len(), inputs.len() * 3);
        let mut scalar = MlpScratch::new();
        for (s, x) in inputs.iter().enumerate() {
            assert_eq!(
                &probs[s * 3..(s + 1) * 3],
                mlp.predict_proba_with(x, &mut scalar),
                "sample {s} must match the scalar path bit-for-bit"
            );
        }
        // Empty batch is a no-op, not a panic.
        let empty = mlp.predict_proba_batch_with(0, &[], &mut batch);
        assert!(empty.is_empty());
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let (features, labels) = xor_data();
        let mut mlp = Mlp::new(MlpConfig {
            input: 2,
            hidden: vec![6],
            output: 2,
            seed: 11,
        });
        mlp.train(
            &features,
            &labels,
            &TrainingConfig {
                epochs: 50,
                ..TrainingConfig::default()
            },
        );
        let json = serde_json::to_string(&mlp).unwrap();
        let restored: Mlp = serde_json::from_str(&json).unwrap();
        let (mut a, mut b) = (MlpScratch::new(), MlpScratch::new());
        for f in &features {
            assert_eq!(
                mlp.predict_proba_with(f, &mut a),
                restored.predict_proba_with(f, &mut b)
            );
        }
    }
}
