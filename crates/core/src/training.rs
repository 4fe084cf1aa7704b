//! Training the emotion classifier (paper §II-C: "a trained model for
//! emotion recognition").
//!
//! The paper uses a model pretrained on real expression data; here the
//! training set is generated from the same face sprites the renderer
//! draws (see `dievent-scene::face`), which is the honest synthetic
//! equivalent: the classifier learns from the deployment domain's
//! imagery, then runs on extractor-cropped patches at inference time.

use dievent_emotion::{Emotion, EmotionClassifier, LbpConfig, TrainReport, TrainingConfig};
use dievent_scene::render_face_patch;
use dievent_video::GrayFrame;
use dievent_vision::contract;
use serde::{Deserialize, Serialize};

/// Training-set generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingSetConfig {
    /// Samples per (emotion, identity) pair.
    pub variants: u32,
    /// Number of identities (tones) to mix.
    pub identities: usize,
    /// Patch side length (must match the extractor's patch size).
    pub patch_size: u32,
}

impl Default for TrainingSetConfig {
    fn default() -> Self {
        TrainingSetConfig {
            variants: 16,
            identities: 4,
            patch_size: 48,
        }
    }
}

/// Generates the labelled training set.
pub fn default_training_set(config: &TrainingSetConfig) -> Vec<(GrayFrame, Emotion)> {
    let mut out = Vec::with_capacity(config.variants as usize * config.identities * Emotion::COUNT);
    for id in 0..config.identities {
        let tone = contract::skin_tone(id);
        for v in 0..config.variants {
            for e in Emotion::ALL {
                let variant = v * 131 + id as u32 * 17 + e.index() as u32;
                out.push((
                    render_face_patch(e, tone, id, variant, config.patch_size),
                    e,
                ));
            }
        }
    }
    out
}

/// Trains the default classifier; deterministic for a given seed.
pub fn train_emotion_classifier(
    config: &TrainingSetConfig,
    seed: u64,
) -> (EmotionClassifier, TrainReport) {
    let data = default_training_set(config);
    let tc = TrainingConfig {
        epochs: 40,
        ..TrainingConfig::default()
    };
    EmotionClassifier::train(&data, LbpConfig::default(), &[48], seed, &tc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dievent_emotion::ExtractArena;

    #[test]
    fn training_set_is_balanced() {
        let cfg = TrainingSetConfig {
            variants: 3,
            identities: 2,
            patch_size: 48,
        };
        let data = default_training_set(&cfg);
        assert_eq!(data.len(), 3 * 2 * Emotion::COUNT);
        for e in Emotion::ALL {
            let count = data.iter().filter(|(_, l)| *l == e).count();
            assert_eq!(count, 6);
        }
    }

    #[test]
    fn classifier_reaches_high_accuracy() {
        let cfg = TrainingSetConfig {
            variants: 10,
            identities: 4,
            patch_size: 48,
        };
        let (_clf, report) = train_emotion_classifier(&cfg, 42);
        assert!(
            report.test_accuracy >= 0.9,
            "accuracy {} below target",
            report.test_accuracy
        );
    }

    /// FNV-1a over the value's JSON (the recipe `pool_determinism` uses).
    fn fnv(value: &impl serde::Serialize) -> u64 {
        serde_json::to_string(value)
            .expect("serializes")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Each face's batched probabilities and `top`, for one rendered
    /// probe per emotion.
    fn probe_outputs(clf: &EmotionClassifier) -> Vec<(Vec<f64>, Emotion, f64)> {
        let probes: Vec<GrayFrame> = Emotion::ALL
            .iter()
            .map(|&e| render_face_patch(e, 225, 1, 999, 48))
            .collect();
        let refs: Vec<&GrayFrame> = probes.iter().collect();
        let mut arena = ExtractArena::new();
        let preds = clf.classify_batch_with(&refs, &mut arena);
        (0..preds.len())
            .map(|i| {
                let (emotion, confidence) = preds.top(i);
                (preds.probabilities(i).to_vec(), emotion, confidence)
            })
            .collect()
    }

    #[test]
    fn training_is_deterministic() {
        let cfg = TrainingSetConfig {
            variants: 4,
            identities: 2,
            patch_size: 48,
        };
        let (a, report_a) = train_emotion_classifier(&cfg, 7);
        let (b, report_b) = train_emotion_classifier(&cfg, 7);
        assert_eq!(a, b);
        assert_eq!(report_a, report_b);
        // Pinned hashes: a refactor of the emotion kernels must not move
        // the trained model (whose JSON also fixes the `lbp` layout
        // that readers of the serialized model rely on), its report or
        // its outputs by one bit.
        assert_eq!(fnv(&a), 0xf284_6bd7_161a_57ae, "classifier JSON");
        assert_eq!(fnv(&report_a), 0xbe49_1297_2d91_a1b3, "train report JSON");
        assert_eq!(
            fnv(&probe_outputs(&a)),
            0x1032_2fa1_c7e4_4318,
            "batched probabilities and top"
        );
    }
}
