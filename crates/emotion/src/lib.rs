//! Emotion recognition substrate for the DiEvent framework.
//!
//! Paper §II-C: *"To recognize the basic emotions (happy, sad, angry,
//! disgust, fear, and surprise), we consider the Local Binary Patterns
//! as a feature extractor and neural network as a classifier."*
//!
//! This crate implements precisely that, from scratch:
//!
//! * [`label`] — the six basic emotions plus neutral;
//! * [`lbp`] — Local Binary Pattern codes, the uniform-LBP mapping, and
//!   spatially-gridded LBP histograms as the face descriptor;
//! * [`mlp`] — a multilayer perceptron with ReLU hidden layers, softmax
//!   output, cross-entropy loss, and mini-batch SGD with momentum;
//! * [`dataset`] — feature/label containers, normalization, splits, and
//!   evaluation metrics;
//! * [`classifier`] — [`classifier::EmotionClassifier`], the trained
//!   LBP → MLP pipeline applied to face patches.
//!
//! Each kernel has one production entry point, allocation-free with
//! reused buffers, and at most one oracle that tests check it against
//! bit for bit:
//!
//! | Kernel | Production entry point | Oracle |
//! |---|---|---|
//! | LBP descriptor | [`lbp_feature_vector_with`] + [`LbpScratch`] | [`lbp_feature_vector_reference`] |
//! | Normalizer | [`Normalizer::apply_extend`] | — |
//! | MLP forward | [`Mlp::predict_proba_batch_with`] + [`MlpBatchScratch`] | [`Mlp::predict_proba_with`] + [`MlpScratch`] |
//! | Classifier | [`EmotionClassifier::classify_batch_with`] + [`ExtractArena`] | the three above, chained |
//!
//! The paper used a pretrained model on real faces; here the classifier
//! is trained on synthetically rendered expression patches (see
//! `dievent-scene::face`), exercising the identical code path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod dataset;
pub mod label;
pub mod lbp;
pub mod mlp;

pub use classifier::{
    BatchPredictions, EmotionClassifier, ExtractArena, TrainReport, MIN_TRAINING_PATCHES,
};
pub use dataset::{ConfusionMatrix, Dataset, Normalizer};
pub use label::Emotion;
pub use lbp::{lbp_feature_vector_reference, lbp_feature_vector_with, LbpConfig, LbpScratch};
pub use mlp::{Mlp, MlpBatchScratch, MlpConfig, MlpScratch, TrainingConfig};
