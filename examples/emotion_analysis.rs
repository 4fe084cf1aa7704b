//! Emotion recognition and overall-emotion estimation (paper §II-C,
//! §II-D-2, Fig. 5): the smart-restaurant satisfaction use case.
//!
//! Trains the LBP + MLP classifier on rendered expression patches,
//! reports its held-out confusion matrix, then tracks the overall
//! happiness (OH) of a dinner whose emotion dynamics are biased happy
//! ("a good meal").
//!
//! Run with: `cargo run --release --example emotion_analysis`

use dievent_core::{
    train_emotion_classifier, DiEventPipeline, PipelineConfig, Recording, TrainingSetConfig,
    DEFAULT_TRAINING_SEED,
};
use dievent_emotion::Emotion;
use dievent_scene::{EmotionDynamicsConfig, Scenario};

fn main() {
    // --- Classifier training report. ---
    let cfg = TrainingSetConfig::default();
    let (_classifier, report) = train_emotion_classifier(&cfg, DEFAULT_TRAINING_SEED);
    println!(
        "emotion classifier: {:.1}% held-out accuracy over {} classes",
        report.test_accuracy * 100.0,
        Emotion::COUNT
    );
    println!("confusion matrix (rows = actual, cols = predicted):");
    print!("        ");
    for e in Emotion::ALL {
        print!("{:>9}", e.to_string());
    }
    println!();
    for actual in Emotion::ALL {
        print!("{:>8}", actual.to_string());
        for predicted in Emotion::ALL {
            print!(
                "{:>9}",
                report.confusion.get(actual.index(), predicted.index())
            );
        }
        println!();
    }

    // --- A "good meal": emotion dynamics biased toward happy. ---
    let mut scenario = Scenario::two_camera_dinner(300, 99);
    scenario.emotion_config = EmotionDynamicsConfig {
        stay_probability: 0.96,
        happy_weight: 8.0,
        neutral_weight: 2.0,
        other_weight: 0.2,
    };
    let recording = Recording::capture(scenario);
    let pipeline = DiEventPipeline::new(PipelineConfig::default());
    let analysis = pipeline.run(&recording).expect("pipeline run");

    println!("\noverall happiness (OH) over time (Fig. 5 series):");
    let step = analysis.overall.len() / 20;
    for (f, o) in analysis.overall.iter().enumerate().step_by(step.max(1)) {
        let bars = (o.overall_happiness / 4.0).round() as usize;
        println!(
            "  t={:>5.1}s OH={:>5.1}% {}",
            f as f64 / analysis.fps,
            o.overall_happiness,
            "█".repeat(bars)
        );
    }
    println!("\nmean OH: {:.1}%", analysis.mean_overall_happiness());
    println!(
        "emotion-shift highlights: {}",
        analysis
            .highlights
            .iter()
            .filter(|h| matches!(
                h.kind,
                dievent_summarize::HighlightKind::EmotionShift { .. }
            ))
            .count()
    );
}
