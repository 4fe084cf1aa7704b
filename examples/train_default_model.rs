//! Regenerates the embedded default emotion model.
//!
//! Trains the classifier with the default training-set config and
//! [`DEFAULT_TRAINING_SEED`], and prints its JSON to stdout with no
//! trailing newline. `dievent-core` embeds that JSON as
//! `crates/core/src/default_classifier.json`, and its
//! `embedded_default_model_matches_training` test fails when the two
//! drift apart.
//!
//! Run with:
//! `cargo run --release --example train_default_model > crates/core/src/default_classifier.json`

use dievent_core::{train_emotion_classifier, TrainingSetConfig, DEFAULT_TRAINING_SEED};
use std::io::Write;

fn main() {
    let (classifier, _) =
        train_emotion_classifier(&TrainingSetConfig::default(), DEFAULT_TRAINING_SEED);
    let json = serde_json::to_string(&classifier).expect("the classifier serializes");
    std::io::stdout()
        .write_all(json.as_bytes())
        .expect("stdout is writable");
}
