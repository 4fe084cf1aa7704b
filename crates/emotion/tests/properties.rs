//! Property-based tests for the emotion substrate.

use dievent_emotion::lbp::UNIFORM_BINS;
use dievent_emotion::{
    lbp_feature_vector_with, Dataset, LbpConfig, LbpScratch, Mlp, MlpBatchScratch, MlpConfig,
    Normalizer,
};
use dievent_video::GrayFrame;
use proptest::prelude::*;

/// The production LBP descriptor into fresh buffers.
fn descriptor(frame: &GrayFrame, config: &LbpConfig) -> Vec<f64> {
    let mut feature = Vec::new();
    lbp_feature_vector_with(frame, config, &mut feature, &mut LbpScratch::new());
    feature
}

fn patch() -> impl Strategy<Value = GrayFrame> {
    (
        8u32..32,
        8u32..32,
        0u8..=255,
        proptest::collection::vec((0i64..32, 0i64..32, 1u32..10, 1u32..10, 0u8..=255), 0..4),
    )
        .prop_map(|(w, h, bg, rects)| {
            let mut f = GrayFrame::new(w, h, bg);
            for (x, y, rw, rh, v) in rects {
                f.fill_rect(x, y, rw, rh, v);
            }
            f
        })
}

proptest! {
    /// LBP descriptors are valid per-cell distributions.
    #[test]
    fn lbp_descriptor_is_per_cell_normalized(f in patch(), grid in 1usize..5) {
        let cfg = LbpConfig { grid, threshold: 8 };
        let v = descriptor(&f, &cfg);
        prop_assert_eq!(v.len(), cfg.feature_len());
        for cell in v.chunks(UNIFORM_BINS) {
            let s: f64 = cell.iter().sum();
            // Degenerate sub-pixel cells may be all-zero.
            prop_assert!(s.abs() < 1e-9 || (s - 1.0).abs() < 1e-9, "cell sum {}", s);
            prop_assert!(cell.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    /// Illumination invariance: adding a constant (without clipping)
    /// never changes the descriptor.
    #[test]
    fn lbp_is_offset_invariant(f in patch(), offset in 1u8..40) {
        // Avoid clipping by compressing the source range first.
        let mut base = f.clone();
        base.mutate(|d| {
            for px in d.iter_mut() {
                *px = *px / 2 + 40;
            }
        });
        let mut shifted = base.clone();
        shifted.mutate(|d| {
            for px in d.iter_mut() {
                *px += offset; // ≤ 167 + 40 < 255: no clipping
            }
        });
        let cfg = LbpConfig::default();
        prop_assert_eq!(descriptor(&base, &cfg), descriptor(&shifted, &cfg));
    }

    /// MLP softmax outputs are always valid distributions, whatever the
    /// weights and inputs.
    #[test]
    fn mlp_outputs_distributions(
        seed in 0u64..1000,
        x in proptest::collection::vec(-10.0..10.0f64, 6),
    ) {
        let mlp = Mlp::new(MlpConfig { input: 6, hidden: vec![5], output: 4, seed });
        let mut scratch = MlpBatchScratch::new();
        let p = mlp.predict_proba_batch_with(1, &x, &mut scratch);
        prop_assert_eq!(p.len(), 4);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| v.is_finite() && v >= 0.0));
    }

    /// Standardization then re-standardization is idempotent on the
    /// training set itself.
    #[test]
    fn normalizer_is_idempotent_on_fit_data(
        rows in proptest::collection::vec(proptest::collection::vec(-50.0..50.0f64, 3), 2..20),
    ) {
        let mut d = Dataset::new();
        for (i, r) in rows.iter().enumerate() {
            d.push(r.clone(), i % 2);
        }
        let n1 = Normalizer::fit(&d);
        let once = n1.apply_dataset(&d);
        let n2 = Normalizer::fit(&once);
        let twice = n2.apply_dataset(&once);
        for (a, b) in once.features.iter().zip(&twice.features) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!((x - y).abs() < 1e-6, "{} vs {}", x, y);
            }
        }
    }
}
