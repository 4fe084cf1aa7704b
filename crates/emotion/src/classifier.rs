//! The end-to-end emotion classifier: LBP features → normalizer → MLP.
//!
//! This is the component the paper describes as "a trained model for
//! emotion recognition" (§II-C): given face patches it produces, per
//! face, a distribution over the six basic emotions plus neutral.

use crate::dataset::{ConfusionMatrix, Dataset, Normalizer};
use crate::label::Emotion;
use crate::lbp::{lbp_feature_vector_with, LbpConfig, LbpScratch, UNIFORM_BINS};
use crate::mlp::{argmax, member, Mlp, MlpBatchScratch, MlpConfig, TrainingConfig};
use dievent_video::GrayFrame;
use serde::{Deserialize, Serialize};

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean cross-entropy per epoch.
    pub epoch_losses: Vec<f64>,
    /// Accuracy on the held-out split.
    pub test_accuracy: f64,
    /// Confusion matrix on the held-out split.
    pub confusion: ConfusionMatrix,
}

/// Fewest labelled patches [`EmotionClassifier::train`] accepts.
pub const MIN_TRAINING_PATCHES: usize = 10;

/// LBP + MLP emotion classifier over face patches.
///
/// A deserialized classifier is checked: the LBP descriptor's length,
/// the normalizer's and the MLP's input agree, and the MLP has one
/// output per [`Emotion`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EmotionClassifier {
    lbp: LbpConfig,
    normalizer: Normalizer,
    mlp: Mlp,
}

impl Deserialize for EmotionClassifier {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        const NAME: &str = "EmotionClassifier";
        let clf = EmotionClassifier {
            lbp: member(value, NAME, "lbp")?,
            normalizer: member(value, NAME, "normalizer")?,
            mlp: member(value, NAME, "mlp")?,
        };
        let (grid, config) = (clf.lbp.grid.max(1), clf.mlp.config());
        let bins = grid
            .checked_mul(grid)
            .and_then(|cells| cells.checked_mul(UNIFORM_BINS));
        if bins != Some(config.input) {
            return Err(serde::Error::custom(format!(
                "{NAME}: a {grid}×{grid} LBP grid does not give the MLP's {} inputs",
                config.input
            )));
        }
        clf.normalizer
            .check_dim(config.input)
            .map_err(|e| serde::Error::custom(format!("{NAME}.normalizer: {e}")))?;
        if config.output != Emotion::COUNT {
            return Err(serde::Error::custom(format!(
                "{NAME}: the MLP has {} outputs, not one per emotion ({})",
                config.output,
                Emotion::COUNT
            )));
        }
        Ok(clf)
    }
}

impl EmotionClassifier {
    /// Trains a classifier on labelled face patches.
    ///
    /// `hidden` sets the MLP hidden-layer widths; `seed` fixes all
    /// randomness. One fifth of the samples (every 5th) is held out to
    /// report test accuracy.
    ///
    /// # Panics
    /// Panics when fewer than [`MIN_TRAINING_PATCHES`] samples are
    /// provided.
    pub fn train(
        patches: &[(GrayFrame, Emotion)],
        lbp: LbpConfig,
        hidden: &[usize],
        seed: u64,
        tc: &TrainingConfig,
    ) -> (EmotionClassifier, TrainReport) {
        assert!(
            patches.len() >= MIN_TRAINING_PATCHES,
            "need at least {MIN_TRAINING_PATCHES} training patches"
        );
        let mut data = Dataset::new();
        let mut lbp_scratch = LbpScratch::new();
        for (patch, emotion) in patches {
            let mut feature = Vec::new();
            lbp_feature_vector_with(patch, &lbp, &mut feature, &mut lbp_scratch);
            data.push(feature, emotion.index());
        }
        let (train_raw, test_raw) = data.split_every_kth(5);
        let normalizer = Normalizer::fit(&train_raw);
        let train = normalizer.apply_dataset(&train_raw);
        let test = normalizer.apply_dataset(&test_raw);

        let mut mlp = Mlp::new(MlpConfig {
            input: lbp.feature_len(),
            hidden: hidden.to_vec(),
            output: Emotion::COUNT,
            seed,
        });
        let epoch_losses = mlp.train(&train.features, &train.labels, tc);

        // One sample at a time: packing the held-out split for the
        // batched pass would allocate a second copy of it.
        let mut confusion = ConfusionMatrix::new(Emotion::COUNT);
        let mut mlp_scratch = MlpBatchScratch::new();
        for (f, &l) in test.features.iter().zip(&test.labels) {
            let probs = mlp.predict_proba_batch_with(1, f, &mut mlp_scratch);
            confusion.record(l, argmax(probs));
        }
        let report = TrainReport {
            epoch_losses,
            test_accuracy: confusion.accuracy(),
            confusion,
        };
        (
            EmotionClassifier {
                lbp,
                normalizer,
                mlp,
            },
            report,
        )
    }

    /// Classifies every face patch of one frame — the classifier's one
    /// entry point. Every patch's LBP descriptor is extracted with the
    /// arena's shared bin image, normalized features are packed flat,
    /// and one [`Mlp::predict_proba_batch_with`] call runs the layer
    /// matmuls across all faces at once.
    ///
    /// Per face, bit-identical to the kernel oracles chained one face at
    /// a time — [`lbp_feature_vector_reference`](crate::lbp_feature_vector_reference),
    /// [`Normalizer::apply_extend`], then the row-major MLP of
    /// `tests/support/oracle.rs` — because every kernel keeps its
    /// oracle's operation order per sample (asserted by
    /// `tests/property_kernels.rs` and this module's tests). In steady
    /// state (arena buffers grown to the largest frame seen) this path
    /// performs zero heap allocation (asserted by
    /// `tests/alloc_steady_state.rs`).
    pub fn classify_batch_with<'s>(
        &self,
        patches: &[&GrayFrame],
        arena: &'s mut ExtractArena,
    ) -> BatchPredictions<'s> {
        arena.features.clear();
        for patch in patches {
            lbp_feature_vector_with(patch, &self.lbp, &mut arena.raw, &mut arena.lbp);
            self.normalizer
                .apply_extend(&arena.raw, &mut arena.features);
        }
        let probs =
            self.mlp
                .predict_proba_batch_with(patches.len(), &arena.features, &mut arena.mlp);
        BatchPredictions {
            probs,
            classes: Emotion::COUNT,
        }
    }
}

/// Per-worker arena for the batched extract path: the LBP padded patch
/// and bin image, raw descriptor, packed normalized features, and the
/// batched MLP's ping-pong activation planes — all reused across every
/// frame the worker processes. Buffers grow to the largest frame seen
/// and are never shrunk, so the steady-state extract path allocates
/// nothing.
#[derive(Debug, Default, Clone)]
pub struct ExtractArena {
    /// Raw (pre-normalization) LBP descriptor of the current face.
    raw: Vec<f64>,
    /// Packed normalized features, sample-major `faces × feature_len`.
    features: Vec<f64>,
    /// Shared LBP bin-image scratch.
    lbp: LbpScratch,
    /// Batched MLP forward buffers.
    mlp: MlpBatchScratch,
}

impl ExtractArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        ExtractArena::default()
    }
}

/// The result of one [`EmotionClassifier::classify_batch_with`] call:
/// a flat view of `faces × Emotion::COUNT` probabilities borrowed from
/// the arena, valid until its next use.
#[derive(Debug, Clone, Copy)]
pub struct BatchPredictions<'a> {
    probs: &'a [f64],
    classes: usize,
}

impl<'a> BatchPredictions<'a> {
    /// Number of faces classified.
    pub fn len(&self) -> usize {
        self.probs.len() / self.classes.max(1)
    }

    /// Returns `true` when no faces were classified.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability distribution of face `i`, indexed by
    /// [`Emotion::index`].
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn probabilities(&self, i: usize) -> &'a [f64] {
        &self.probs[i * self.classes..(i + 1) * self.classes]
    }

    /// Most probable emotion of face `i` and its probability; on a tie
    /// the later emotion in [`Emotion::ALL`] order wins.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn top(&self, i: usize) -> (Emotion, f64) {
        let p = self.probabilities(i);
        let best = argmax(p);
        (
            Emotion::from_index(best).unwrap_or(Emotion::Neutral),
            p[best],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbp::lbp_feature_vector_reference;
    use crate::oracle::bits;

    /// Synthetic "expression" patches: each emotion gets a distinct
    /// mouth/eye texture layout, plus deterministic per-sample jitter.
    /// (The real renderer lives in `dievent-scene`; this sketch exists so
    /// the classifier crate is testable standalone.)
    fn sketch(emotion: Emotion, variant: u32) -> GrayFrame {
        let mut f = GrayFrame::new(32, 32, 160);
        let j = (variant % 3) as i64 - 1; // −1, 0, +1 pixel jitter
                                          // Eyes.
        f.fill_disk(10.0 + j as f64, 11.0, 2.0, 30);
        f.fill_disk(22.0 + j as f64, 11.0, 2.0, 30);
        match emotion {
            Emotion::Neutral => f.fill_rect(11 + j, 23, 10, 2, 60),
            Emotion::Happy => {
                // Upward arc.
                for x in 0..12i64 {
                    let y = 25 - ((x - 6).pow(2) / 6);
                    f.fill_rect(10 + x + j, y, 2, 2, 50);
                }
            }
            Emotion::Sad => {
                // Downward arc.
                for x in 0..12i64 {
                    let y = 22 + ((x - 6).pow(2) / 6);
                    f.fill_rect(10 + x + j, y, 2, 2, 50);
                }
            }
            Emotion::Angry => {
                f.fill_rect(9 + j, 22, 14, 3, 20);
                f.fill_rect(7 + j, 7, 7, 2, 20);
                f.fill_rect(18 + j, 7, 7, 2, 20);
            }
            Emotion::Disgust => {
                f.fill_rect(9 + j, 24, 8, 2, 40);
                f.fill_rect(14 + j, 20, 8, 2, 90);
            }
            Emotion::Fear => {
                f.fill_disk(16.0 + j as f64, 24.0, 3.0, 70);
                f.fill_rect(8 + j, 6, 16, 1, 40);
            }
            Emotion::Surprise => {
                f.fill_disk(16.0 + j as f64, 24.0, 4.5, 25);
            }
        }
        // Per-sample noise texture.
        f.mutate(|d| {
            for (i, px) in d.iter_mut().enumerate() {
                let n = ((i as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add(variant * 97)
                    >> 28) as i32;
                *px = (*px as i32 + n - 8).clamp(0, 255) as u8;
            }
        });
        f
    }

    fn training_set(samples_per_class: u32) -> Vec<(GrayFrame, Emotion)> {
        let mut out = Vec::new();
        for v in 0..samples_per_class {
            for e in Emotion::ALL {
                out.push((sketch(e, v), e));
            }
        }
        out
    }

    fn small_classifier() -> EmotionClassifier {
        let tc = TrainingConfig {
            epochs: 10,
            ..TrainingConfig::default()
        };
        EmotionClassifier::train(&training_set(10), LbpConfig::default(), &[16], 1, &tc).0
    }

    #[test]
    fn trains_to_high_accuracy_on_sketches() {
        let patches = training_set(12);
        let tc = TrainingConfig {
            epochs: 30,
            ..TrainingConfig::default()
        };
        let (clf, report) =
            EmotionClassifier::train(&patches, LbpConfig::default(), &[32], 42, &tc);
        assert!(
            report.test_accuracy > 0.9,
            "test accuracy {} too low; confusion {:?}",
            report.test_accuracy,
            report.confusion
        );
        // Spot-check classification of fresh variants.
        let emotions = [Emotion::Happy, Emotion::Sad, Emotion::Surprise];
        let frames: Vec<GrayFrame> = emotions.iter().map(|&e| sketch(e, 99)).collect();
        let refs: Vec<&GrayFrame> = frames.iter().collect();
        let mut arena = ExtractArena::new();
        let preds = clf.classify_batch_with(&refs, &mut arena);
        for (i, &e) in emotions.iter().enumerate() {
            let (emotion, _) = preds.top(i);
            assert_eq!(
                emotion,
                e,
                "misclassified {e}: {:?}",
                preds.probabilities(i)
            );
        }
    }

    #[test]
    fn prediction_distribution_is_valid() {
        let clf = small_classifier();
        let patch = sketch(Emotion::Neutral, 50);
        let mut arena = ExtractArena::new();
        let preds = clf.classify_batch_with(&[&patch], &mut arena);
        let probabilities = preds.probabilities(0);
        let (emotion, confidence) = preds.top(0);
        assert_eq!(probabilities.len(), Emotion::COUNT);
        assert!((probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(confidence > 0.0 && confidence <= 1.0);
        assert!(
            (probabilities[emotion.index()] - confidence).abs() < 1e-12,
            "confidence must match the argmax probability"
        );
    }

    #[test]
    fn classify_batch_matches_classify_with() {
        // The batched path against the three kernel oracles chained one
        // face at a time: reference LBP, normalizer, row-major MLP.
        let clf = small_classifier();
        let model = serde_json::to_value(&clf.mlp).unwrap();
        let frames: Vec<GrayFrame> = Emotion::ALL.iter().map(|&e| sketch(e, 77)).collect();
        let refs: Vec<&GrayFrame> = frames.iter().collect();
        let mut arena = ExtractArena::new();
        // Twice through the same arena: reuse must not change any bit.
        for _ in 0..2 {
            let batch = clf.classify_batch_with(&refs, &mut arena);
            assert_eq!(batch.len(), frames.len());
            for (i, frame) in frames.iter().enumerate() {
                let raw = lbp_feature_vector_reference(frame, &clf.lbp);
                let mut x = Vec::new();
                clf.normalizer.apply_extend(&raw, &mut x);
                let oracle = &crate::oracle::mlp_proba(&model, &x)[..];
                assert_eq!(
                    bits(batch.probabilities(i)),
                    bits(oracle),
                    "face {i} must match"
                );
                let best = argmax(oracle);
                assert_eq!(
                    batch.top(i),
                    (Emotion::ALL[best], oracle[best]),
                    "face {i} top must match"
                );
            }
        }
        // Empty frames are a no-op, not a panic.
        let empty = clf.classify_batch_with(&[], &mut arena);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn top_picks_the_later_emotion_on_a_tie() {
        let probs = [0.1, 0.3, 0.0, 0.0, 0.3, 0.2, 0.1];
        let preds = BatchPredictions {
            probs: &probs,
            classes: Emotion::COUNT,
        };
        assert_eq!(preds.top(0), (Emotion::Disgust, 0.3));
    }

    #[test]
    fn losses_decrease_during_training() {
        let patches = training_set(8);
        let tc = TrainingConfig {
            epochs: 20,
            ..TrainingConfig::default()
        };
        let (_, report) = EmotionClassifier::train(&patches, LbpConfig::default(), &[16], 5, &tc);
        let first = report.epoch_losses.first().unwrap();
        let last = report.epoch_losses.last().unwrap();
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    #[should_panic]
    fn too_few_samples_panics() {
        let patches = training_set(1);
        let _ = EmotionClassifier::train(
            &patches[..5],
            LbpConfig::default(),
            &[8],
            0,
            &TrainingConfig::default(),
        );
    }
}
