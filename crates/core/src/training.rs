//! The emotion classifier (paper §II-C: "a trained model for emotion
//! recognition"): where the pipeline's model comes from, and how it
//! is trained.
//!
//! The paper uses a model pretrained on real expression data; here the
//! training set is generated from the same face sprites the renderer
//! draws (see `dievent-scene::face`), which is the honest synthetic
//! equivalent: the classifier learns from the deployment domain's
//! imagery, then runs on extractor-cropped patches at inference time.
//!
//! The model is an input to the pipeline, not work it does per run.
//! The default config's model ships with the crate:
//! `default_classifier.json` is exactly what
//! [`train_emotion_classifier`] returns for
//! [`TrainingSetConfig::default`] and [`DEFAULT_TRAINING_SEED`]. It is
//! parsed at most once per process, and every pipeline and session
//! shares that one instance. Any other training config trains its own
//! model, once per pipeline. Regenerate the artifact with
//! `cargo run --release --example train_default_model >
//! crates/core/src/default_classifier.json`; a test fails when it
//! drifts from what training returns.

use dievent_emotion::{Emotion, EmotionClassifier, LbpConfig, TrainReport, TrainingConfig};
use dievent_scene::render_face_patch;
use dievent_video::GrayFrame;
use dievent_vision::contract;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Seed of the default emotion model, [`PipelineConfig::default`]'s
/// `training_seed`.
///
/// [`PipelineConfig::default`]: crate::PipelineConfig
pub const DEFAULT_TRAINING_SEED: u64 = 42;

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

impl TrainingSetConfig {
    /// Patches in the training set, `variants × identities ×
    /// Emotion::COUNT`; `None` when that overflows `usize`.
    pub(crate) fn patch_count(&self) -> Option<usize> {
        (self.variants as usize)
            .checked_mul(self.identities)?
            .checked_mul(Emotion::COUNT)
    }
}

/// Generates the labelled training set.
pub fn default_training_set(config: &TrainingSetConfig) -> Vec<(GrayFrame, Emotion)> {
    let mut out = Vec::with_capacity(config.patch_count().unwrap_or(0));
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

/// `serde_json::to_string` of the default config's trained model.
const DEFAULT_CLASSIFIER_JSON: &str = include_str!("default_classifier.json");

/// The model for a training config and seed: the shared embedded
/// default for the default config, a freshly trained one otherwise.
pub(crate) fn load_emotion_classifier(
    config: &TrainingSetConfig,
    seed: u64,
) -> Arc<EmotionClassifier> {
    static DEFAULT: OnceLock<Arc<EmotionClassifier>> = OnceLock::new();
    if *config == TrainingSetConfig::default() && seed == DEFAULT_TRAINING_SEED {
        let shared = DEFAULT.get_or_init(|| {
            let parsed = serde_json::from_str(DEFAULT_CLASSIFIER_JSON);
            // lint:allow(no_panic): the embedded JSON is a serialized classifier, pinned byte for byte by `embedded_default_model_matches_training`
            Arc::new(parsed.expect("the embedded default classifier parses"))
        });
        Arc::clone(shared)
    } else {
        Arc::new(train_emotion_classifier(config, seed).0)
    }
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

    /// FNV-1a (the recipe `pool_determinism` uses).
    fn fnv_bytes(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a over the value's JSON.
    fn fnv(value: &impl serde::Serialize) -> u64 {
        fnv_bytes(serde_json::to_string(value).expect("serializes").as_bytes())
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
        // its outputs by one bit. The JSON pin moved once, when the MLP
        // stopped serializing its SGD momentum buffers: the new value is
        // the old JSON with its `vw`/`vb` members cut out, while the
        // report and probe pins stayed put.
        assert_eq!(fnv(&a), 0x8e83_66ba_78e9_e7ec, "classifier JSON");
        assert_eq!(fnv(&report_a), 0xbe49_1297_2d91_a1b3, "train report JSON");
        assert_eq!(
            fnv(&probe_outputs(&a)),
            0x1032_2fa1_c7e4_4318,
            "batched probabilities and top"
        );
    }

    /// Member `key` of a JSON object, for editing.
    fn member<'v>(v: &'v mut serde_json::Value, key: &str) -> &'v mut serde_json::Value {
        match v {
            serde_json::Value::Object(m) => m.get_mut(key).expect("the member exists"),
            other => panic!("{key}: expected an object, got {}", other.kind_name()),
        }
    }

    /// The items of a JSON array, for editing.
    fn items(v: &mut serde_json::Value) -> &mut Vec<serde_json::Value> {
        match v {
            serde_json::Value::Array(a) => a,
            other => panic!("expected an array, got {}", other.kind_name()),
        }
    }

    /// Layer `i` of the serialized classifier's MLP.
    fn layer(v: &mut serde_json::Value, i: usize) -> &mut serde_json::Value {
        &mut items(member(member(v, "mlp"), "layers"))[i]
    }

    #[test]
    fn malformed_models_are_refused_at_load() {
        // Before these checks, each model below loaded; four then
        // panicked on their first classify and one classified silently.
        type Mutation = fn(&mut serde_json::Value);
        let mutations: [(Mutation, &str); 5] = [
            (
                |v| drop(items(member(layer(v, 0), "w")).pop()),
                "a 48×944 layer with 45311 weights",
            ),
            (
                |v| drop(items(member(layer(v, 0), "b")).pop()),
                "a 48×944 layer with 45312 weights and 47 biases",
            ),
            (
                |v| *member(layer(v, 1), "cols") = serde_json::json!(47),
                "a 7×47 layer with 336 weights",
            ),
            (
                |v| *member(member(member(v, "mlp"), "config"), "input") = serde_json::json!(943),
                "do not chain",
            ),
            (
                |v| drop(items(member(member(v, "normalizer"), "mean")).pop()),
                "943 means and 944 inverse deviations",
            ),
        ];
        let model: serde_json::Value =
            serde_json::from_str(DEFAULT_CLASSIFIER_JSON).expect("the artifact parses");
        assert!(serde_json::from_value::<EmotionClassifier>(model.clone()).is_ok());
        for (mutate, expect) in mutations {
            let mut v = model.clone();
            mutate(&mut v);
            let err = serde_json::from_value::<EmotionClassifier>(v)
                .expect_err(expect)
                .to_string();
            assert!(err.contains(expect), "expected {expect:?}, got {err:?}");
        }
    }

    #[test]
    fn embedded_default_model_matches_training() {
        let (trained, _) =
            train_emotion_classifier(&TrainingSetConfig::default(), DEFAULT_TRAINING_SEED);
        let json = serde_json::to_string(&trained).expect("serializes");
        assert!(
            json == DEFAULT_CLASSIFIER_JSON,
            "the embedded default model drifted from training; regenerate with \
             `cargo run --release --example train_default_model > \
             crates/core/src/default_classifier.json`"
        );
        assert_eq!(
            fnv_bytes(DEFAULT_CLASSIFIER_JSON.as_bytes()),
            0x4a9d_eb2a_2718_9817,
            "artifact bytes"
        );
        let loaded = load_emotion_classifier(&TrainingSetConfig::default(), DEFAULT_TRAINING_SEED);
        assert_eq!(*loaded, trained, "the parsed model equals the trained one");
        assert_eq!(
            fnv(&probe_outputs(&loaded)),
            0xa502_7c66_3a2d_daf3,
            "loaded model's batched probabilities and top"
        );
    }
}
