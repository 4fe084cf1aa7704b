//! A from-scratch multilayer perceptron — the paper's "neural network as
//! a classifier".
//!
//! Architecture: fully-connected layers with ReLU activations and a
//! softmax output trained with cross-entropy loss via mini-batch SGD
//! with momentum. Weights use Xavier/He initialization from a seeded
//! RNG so training is fully deterministic and reproducible.
//!
//! Each layer stores its weights in panels of 16 rows, column by
//! column, so the forward kernel advances 16 independent dot products
//! per input instead of one serial chain of adds. Every output row
//! still computes `b[r]`, then `+= w[r][c] · x[c]` in ascending `c`,
//! rounding after each operation as a plain row-major loop does, so
//! results are bit-identical to one. Saved models store the weights
//! row-major.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Rows per weight panel: one panel's accumulators fit in the sixteen
/// SSE registers of baseline x86-64 as eight 2-lane vectors, leaving
/// room for the broadcast input and the weight loads.
const PANEL: usize = 16;

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

impl MlpConfig {
    /// Layer widths from input to output.
    fn widths(&self) -> Vec<usize> {
        let mut widths = vec![self.input];
        widths.extend(&self.hidden);
        widths.push(self.output);
        widths
    }
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

/// One fully-connected layer: `y = W·x + b`, with `W` of `rows × cols`.
///
/// `W` is stored once, in `⌈rows / PANEL⌉` panels of [`PANEL`] rows.
/// Panel `p` holds rows `p·PANEL ..` column-major, so `W[p·PANEL + k][c]`
/// sits at `w[(p·cols + c)·PANEL + k]`. `b` is padded to whole panels
/// the same way. The rows past `rows` in the last panel start at zero;
/// the forward kernel computes them and drops them, and no real row's
/// result ever reads them.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    rows: usize,
    cols: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

/// A [`Layer`] as models are saved: row-major `w` (`rows × cols`) and
/// `b` of `rows`.
#[derive(Serialize, Deserialize)]
struct RowMajorLayer {
    rows: usize,
    cols: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Layer {
    fn new(rows: usize, cols: usize, rng: &mut StdRng) -> Self {
        // He initialization, appropriate for ReLU; drawn in row-major
        // order.
        let scale = (2.0 / cols as f64).sqrt();
        let w: Vec<f64> = (0..rows * cols)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Layer::pack(rows, cols, &w, &vec![0.0; rows])
    }

    /// Stores row-major `w` (`rows × cols`) and `b` (`rows`) in panels.
    fn pack(rows: usize, cols: usize, w: &[f64], b: &[f64]) -> Self {
        let padded = rows.div_ceil(PANEL) * PANEL;
        let mut layer = Layer {
            rows,
            cols,
            w: vec![0.0; padded * cols],
            b: vec![0.0; padded],
        };
        for (r, row) in w.chunks_exact(cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                let i = layer.index(r, c);
                layer.w[i] = v;
            }
        }
        layer.b[..rows].copy_from_slice(b);
        layer
    }

    /// Position of `W[r][c]` in the panel layout.
    fn index(&self, r: usize, c: usize) -> usize {
        ((r / PANEL) * self.cols + c) * PANEL + r % PANEL
    }

    /// `y = W·x + b` for one input — the one forward kernel.
    ///
    /// Per panel, [`PANEL`] accumulators start at the biases and take
    /// `+= w · x[c]` for each column `c` in ascending order; Rust never
    /// fuses the multiply and the add, and the fixed-width inner loop
    /// autovectorizes, so each row is the row-major dot product to the
    /// bit.
    fn forward(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        let panels = self.w.chunks_exact(self.cols * PANEL);
        let biases = self.b.as_chunks::<PANEL>().0;
        for ((panel, bias), out) in panels.zip(biases).zip(out.chunks_mut(PANEL)) {
            let mut acc = *bias;
            for (column, &xc) in panel.as_chunks::<PANEL>().0.iter().zip(x) {
                for (a, &w) in acc.iter_mut().zip(column) {
                    *a += w * xc;
                }
            }
            out.copy_from_slice(&acc[..out.len()]);
        }
    }
}

impl From<&Layer> for RowMajorLayer {
    fn from(layer: &Layer) -> Self {
        let (rows, cols) = (layer.rows, layer.cols);
        RowMajorLayer {
            rows,
            cols,
            w: (0..rows * cols)
                .map(|i| layer.w[layer.index(i / cols, i % cols)])
                .collect(),
            b: layer.b[..rows].to_vec(),
        }
    }
}

impl TryFrom<RowMajorLayer> for Layer {
    type Error = String;

    fn try_from(l: RowMajorLayer) -> Result<Self, String> {
        let (rows, cols, w, b) = (l.rows, l.cols, l.w.len(), l.b.len());
        if rows == 0 || cols == 0 || rows.checked_mul(cols) != Some(w) || b != rows {
            return Err(format!(
                "a {rows}×{cols} layer with {w} weights and {b} biases; a layer needs \
                 positive sides, rows × cols weights and one bias per row"
            ));
        }
        Ok(Layer::pack(rows, cols, &l.w, &l.b))
    }
}

impl Serialize for Layer {
    fn serialize(&self) -> serde::Value {
        RowMajorLayer::from(self).serialize()
    }
}

impl Deserialize for Layer {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        Layer::try_from(RowMajorLayer::deserialize(value)?).map_err(serde::Error::custom)
    }
}

/// One buffer per layer parameter, in the layer's panel layout: a
/// mini-batch's gradient accumulators, or the SGD momentum that lives
/// for one [`Mlp::train`] call.
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

/// Reusable buffers for backpropagation: the training forward pass
/// keeps every layer's output here. Buffers grow to the network's
/// widths on first use and are reused afterwards, so reuse never
/// changes a result bit.
#[derive(Debug, Default)]
struct MlpScratch {
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

/// Reusable buffers for the batched forward pass
/// ([`Mlp::predict_proba_batch_with`]).
///
/// Holds two flat ping-pong activation planes (`samples × width`,
/// sample-major) plus the flat probability output. Buffers grow to the
/// largest batch seen and are reused afterwards, so steady-state
/// batched inference performs zero heap allocation.
#[derive(Debug, Default, Clone)]
pub struct MlpBatchScratch {
    /// One layer's output plane, sample-major `samples × rows`.
    a: Vec<f64>,
    /// The other layer's output plane.
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
///
/// A deserialized network is checked: its layers chain from
/// `config.input` through `config.hidden` to `config.output`, and each
/// layer holds `rows × cols` weights and `rows` biases.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Layer>,
}

/// Deserializes member `name` of the object `value`, a serialized
/// `owner`, naming both in the error as the derived impls do.
pub(crate) fn member<T: Deserialize>(
    value: &serde::Value,
    owner: &str,
    name: &str,
) -> Result<T, serde::Error> {
    T::deserialize(&value[name]).map_err(|e| serde::Error::custom(format!("{owner}.{name}: {e}")))
}

impl Deserialize for Mlp {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let mlp = Mlp {
            config: member(value, "Mlp", "config")?,
            layers: member(value, "Mlp", "layers")?,
        };
        let widths = mlp.config.widths();
        let chain: Vec<(usize, usize)> = widths.windows(2).map(|d| (d[0], d[1])).collect();
        let shapes: Vec<(usize, usize)> = mlp.layers.iter().map(|l| (l.cols, l.rows)).collect();
        if shapes != chain {
            return Err(serde::Error::custom(format!(
                "Mlp: layers of (cols, rows) {shapes:?} do not chain the widths {widths:?}"
            )));
        }
        Ok(mlp)
    }
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
        let layers = config
            .widths()
            .windows(2)
            .map(|d| Layer::new(d[1], d[0], &mut rng))
            .collect();
        Mlp { config, layers }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Batched forward pass — the production entry point: `samples`
    /// inputs packed flat (sample-major `samples × input`) produce
    /// `samples × output` probabilities, borrowed from `scratch` and
    /// valid until the next pass.
    ///
    /// Every sample runs the panel kernel layer by layer, then the
    /// softmax: the operations, in the same order, of the forward pass
    /// training backpropagates through. Each probability is
    /// bit-identical to a row-major dot product per output row (the
    /// oracle in `tests/support/oracle.rs`, asserted by
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
        let MlpBatchScratch { a, b, probs } = scratch;
        let (mut src, mut dst) = (a, b);
        for (i, layer) in self.layers.iter().enumerate() {
            let x: &[f64] = if i == 0 { inputs } else { src };
            dst.clear();
            dst.resize(samples * layer.rows, 0.0);
            for (x, y) in x
                .chunks_exact(layer.cols)
                .zip(dst.chunks_exact_mut(layer.rows))
            {
                layer.forward(x, y);
            }
            if i + 1 != self.layers.len() {
                relu(dst);
            }
            std::mem::swap(&mut src, &mut dst);
        }
        let out = self.config.output;
        probs.clear();
        probs.resize(samples * out, 0.0);
        for (logits, p) in src.chunks_exact(out).zip(probs.chunks_exact_mut(out)) {
            softmax_slice(logits, p);
        }
        probs
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
            out.clear();
            out.resize(layer.rows, 0.0);
            layer.forward(&head[i], out);
            if i + 1 != self.layers.len() {
                relu(out);
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
        let mut scratch = MlpScratch::default();
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
    ///
    /// Backpropagation walks each layer's panels. Every gradient
    /// element takes one `+= delta · x` per sample, in sample order, and
    /// each propagated delta sums its products over ascending rows, so
    /// training is bit-identical to the same loops over row-major
    /// weights.
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
                let panel_len = layer.cols * PANEL;
                // Accumulate gradients for this layer. A panel's rows
                // past `rows` take a zero delta, so for finite inputs
                // their gradients stay zero.
                let gws = grads.gw[li].chunks_exact_mut(panel_len);
                let gbs = grads.gb[li].as_chunks_mut::<PANEL>().0;
                for ((gw, gb), delta) in gws.zip(gbs).zip(scratch.delta.chunks(PANEL)) {
                    let mut d = [0.0; PANEL];
                    d[..delta.len()].copy_from_slice(delta);
                    for (g, &dk) in gb.iter_mut().zip(&d) {
                        *g += dk;
                    }
                    for (column, &xc) in gw.as_chunks_mut::<PANEL>().0.iter_mut().zip(input) {
                        for (g, &dk) in column.iter_mut().zip(&d) {
                            *g += dk * xc;
                        }
                    }
                }
                if li > 0 {
                    // Propagate delta through W and the ReLU derivative of
                    // the previous layer's output. Only real rows are
                    // summed: a padded row's `+0.0` would turn a `-0.0`
                    // sum into `+0.0`.
                    scratch.prev.clear();
                    scratch.prev.resize(layer.cols, 0.0);
                    let panels = layer.w.chunks_exact(panel_len);
                    for (panel, delta) in panels.zip(scratch.delta.chunks(PANEL)) {
                        let columns = panel.as_chunks::<PANEL>().0;
                        for (p, column) in scratch.prev.iter_mut().zip(columns) {
                            for (&w, &d) in column.iter().zip(delta) {
                                *p += w * d;
                            }
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

        // Apply SGD with momentum and weight decay, element by element;
        // with finite hyper-parameters the zero padding stays zero.
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

/// ReLU in place: `-0.0` and NaN pass through unchanged.
fn relu(v: &mut [f64]) {
    for x in v {
        if *x < 0.0 {
            *x = 0.0;
        }
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

/// The softmax kernel shared by both forward passes: same
/// max-shift/exp/sum/divide sequence over a pre-sized slice, so both
/// produce bit-identical probabilities.
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
    use crate::oracle::bits;

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

    /// Class probabilities of one input through the production pass.
    fn proba(mlp: &Mlp, x: &[f64]) -> Vec<f64> {
        mlp.predict_proba_batch_with(1, x, &mut MlpBatchScratch::new())
            .to_vec()
    }

    /// Share of samples whose most probable class is their label.
    fn accuracy(mlp: &Mlp, features: &[Vec<f64>], labels: &[usize]) -> f64 {
        let correct = features
            .iter()
            .zip(labels)
            .filter(|(x, &y)| argmax(&proba(mlp, x)) == y)
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
        let p = proba(&mlp, &[0.1, -0.2, 0.3, 0.0, 1.0]);
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
        let _ = proba(&mlp, &[1.0, 2.0]);
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
        // Both forward passes against the row-major oracle, with hidden
        // widths below, at and across the panel width.
        for (hidden, seed) in [(vec![7, 4], 17), (vec![16], 5), (vec![17, 33], 8)] {
            let mut mlp = Mlp::new(MlpConfig {
                input: 5,
                hidden,
                output: 3,
                seed,
            });
            // `Mlp::new` starts every bias at zero.
            for (li, layer) in mlp.layers.iter_mut().enumerate() {
                for (r, b) in layer.b[..layer.rows].iter_mut().enumerate() {
                    *b = ((li * 31 + r) as f64).cos();
                }
            }
            let model = serde_json::to_value(&mlp).unwrap();
            let inputs: Vec<Vec<f64>> = (0..9)
                .map(|i| (0..5).map(|c| ((i * 5 + c) as f64).sin()).collect())
                .collect();
            let flat: Vec<f64> = inputs.iter().flatten().copied().collect();
            let mut batch = MlpBatchScratch::new();
            let probs = mlp.predict_proba_batch_with(inputs.len(), &flat, &mut batch);
            assert_eq!(probs.len(), inputs.len() * 3);
            let mut scratch = MlpScratch::default();
            for (s, x) in inputs.iter().enumerate() {
                let expect = bits(&crate::oracle::mlp_proba(&model, x));
                assert_eq!(
                    bits(&probs[s * 3..(s + 1) * 3]),
                    expect,
                    "batched, sample {s}"
                );
                mlp.forward_full(x, &mut scratch);
                assert_eq!(bits(&scratch.probs), expect, "training pass, sample {s}");
            }
            // Empty batch is a no-op, not a panic.
            let empty = mlp.predict_proba_batch_with(0, &[], &mut batch);
            assert!(empty.is_empty());
        }
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
        assert_eq!(restored, mlp);
        for f in &features {
            assert_eq!(bits(&proba(&mlp, f)), bits(&proba(&restored, f)));
        }
    }

    #[test]
    fn serialized_weights_are_row_major() {
        // One shape inside a panel, one across a panel boundary.
        for (rows, cols) in [(3, 20), (20, 3)] {
            let w: Vec<f64> = (0..rows * cols).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..rows).map(|r| -(r as f64)).collect();
            let layer = Layer::pack(rows, cols, &w, &b);
            let json = serde_json::to_value(&layer).unwrap();
            assert_eq!(json["rows"].as_u64(), Some(rows as u64));
            assert_eq!(json["cols"].as_u64(), Some(cols as u64));
            let floats = |v: &serde_json::Value| -> Vec<f64> {
                v.as_array()
                    .unwrap()
                    .iter()
                    .map(|x| x.as_f64().unwrap())
                    .collect()
            };
            assert_eq!(floats(&json["w"]), w, "{rows}×{cols} weights");
            assert_eq!(floats(&json["b"]), b, "{rows}×{cols} biases");
            assert_eq!(serde_json::from_value::<Layer>(json).unwrap(), layer);
        }
    }

    #[test]
    fn empty_or_oversized_layers_are_refused() {
        // The kernel walks panels of `cols × PANEL` weights, which needs
        // `cols > 0`; `rows × cols` must not wrap.
        for (rows, cols, expect) in [
            (0u64, 3u64, "a 0×3 layer"),
            (3, 0, "a 3×0 layer"),
            (u64::MAX / 2 + 1, 2, "×2 layer with 0 weights"),
        ] {
            let json = serde_json::json!({"rows": rows, "cols": cols, "w": [], "b": []});
            let err = serde_json::from_value::<Layer>(json).unwrap_err();
            assert!(err.to_string().contains(expect), "{rows}×{cols}: {err}");
        }
    }
}
