//! Oracle tests for the vectorized hot kernels: the edge-padded LBP
//! descriptor against the clamped per-pixel reference, and the
//! panel-layout MLP forward pass against a row-major dot product per
//! output row (`support/oracle.rs`). Every comparison is exact — the
//! kernels are required to be bit-identical, not merely close.

#[path = "support/oracle.rs"]
mod oracle;

use dievent_emotion::{
    lbp_feature_vector_reference, lbp_feature_vector_with, LbpConfig, LbpScratch, Mlp,
    MlpBatchScratch, MlpConfig,
};
use dievent_video::GrayFrame;
use proptest::prelude::*;
use serde_json::Value;

/// Deterministic pseudo-random fill so every pixel pattern is exercised
/// without a strategy allocating whole pixel vectors.
fn noisy_frame(w: u32, h: u32, salt: u32) -> GrayFrame {
    let mut f = GrayFrame::new(w, h, 0);
    f.mutate(|d| {
        for (i, px) in d.iter_mut().enumerate() {
            *px = ((i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(salt.wrapping_mul(0x85eb_ca6b))
                >> 24) as u8;
        }
    });
    f
}

fn vectorized(f: &GrayFrame, cfg: &LbpConfig) -> Vec<f64> {
    let mut feature = Vec::new();
    let mut scratch = LbpScratch::new();
    // Twice through the same scratch: reuse must not change any bit.
    lbp_feature_vector_with(f, cfg, &mut feature, &mut scratch);
    let first = feature.clone();
    lbp_feature_vector_with(f, cfg, &mut feature, &mut scratch);
    assert_eq!(first, feature, "scratch reuse changed the descriptor");
    feature
}

/// Degenerate and non-divisible shapes: no pixels, no interior at
/// all, one interior row/column, and grids that don't divide the patch
/// evenly; thresholds that push `centre + threshold` past 255.
#[test]
fn edge_shapes_match_reference() {
    for &(w, h) in &[
        (0u32, 4u32),
        (4, 0),
        (1, 1),
        (1, 7),
        (7, 1),
        (2, 2),
        (2, 5),
        (3, 3),
        (4, 3),
        (33, 17),
        (48, 48),
    ] {
        for grid in [1usize, 3, 4, 5] {
            for threshold in [0u8, 8, 200, 255] {
                let f = noisy_frame(w, h, w * 31 + h);
                let cfg = LbpConfig { grid, threshold };
                assert_eq!(
                    vectorized(&f, &cfg),
                    lbp_feature_vector_reference(&f, &cfg),
                    "{w}x{h} grid={grid} t={threshold}"
                );
            }
        }
    }
}

/// Hidden widths below, at and across the 16-row panel boundaries.
fn hidden_widths() -> impl Strategy<Value = Vec<usize>> {
    let width = prop_oneof![
        Just(1usize),
        Just(7),
        Just(15),
        Just(16),
        Just(17),
        Just(32),
        Just(33),
        Just(48),
    ];
    proptest::collection::vec(width, 0..3)
}

/// Finite inputs that stress rounding beside ordinary values: signed
/// zeros, subnormals of either sign, and magnitudes near 1e300.
fn input_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -8.0..8.0f64,
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => (1u64..1 << 52).prop_map(f64::from_bits),
        1 => (1u64..1 << 52).prop_map(|b| -f64::from_bits(b)),
        1 => (-1.0..1.0f64).prop_map(|m| m * 1e300),
    ]
}

/// `mlp` rebuilt from its serialized form with its biases taken from
/// `biases` in turn (`Mlp::new` starts every bias at zero), and that
/// serialized form.
fn with_biases(mlp: &Mlp, biases: &[f64]) -> (Mlp, Value) {
    let mut model = serde_json::to_value(mlp).unwrap();
    let Value::Object(members) = &mut model else {
        panic!("an Mlp serializes to an object");
    };
    let Some(Value::Array(layers)) = members.get_mut("layers") else {
        panic!("an Mlp has layers");
    };
    let mut next = biases.iter().copied().cycle();
    for layer in layers {
        let Value::Object(layer) = layer else {
            panic!("a layer serializes to an object");
        };
        let rows = layer["rows"].as_u64().unwrap() as usize;
        let b: Vec<f64> = next.by_ref().take(rows).collect();
        layer.insert("b".into(), serde_json::to_value(&b).unwrap());
    }
    (serde_json::from_value(model.clone()).unwrap(), model)
}

proptest! {
    /// Random frame shapes, contents and thresholds (including ones
    /// where `centre + threshold > 255`): the vectorized descriptor is
    /// bin-for-bin identical to the clamped per-pixel reference.
    #[test]
    fn lbp_kernel_matches_reference(
        w in 1u32..40,
        h in 1u32..40,
        salt in 0u32..1000,
        grid in 1usize..6,
        threshold in prop_oneof![Just(0u8), 1u8..32, 128u8..255, Just(255u8)],
    ) {
        let f = noisy_frame(w, h, salt);
        let cfg = LbpConfig { grid, threshold };
        prop_assert_eq!(vectorized(&f, &cfg), lbp_feature_vector_reference(&f, &cfg));
    }

    /// The batched forward pass is bit-identical (`to_bits`, so a
    /// sign-of-zero difference fails) to the row-major oracle, for
    /// networks with zero to two hidden layers whose widths cross the
    /// panel boundaries, input widths 1 to 69, and batches of 0 to 9.
    #[test]
    fn batched_mlp_matches_scalar(
        seed in 0u64..500,
        input in 1usize..70,
        hidden in hidden_widths(),
        output in prop_oneof![Just(7usize), 1usize..20],
        samples in 0usize..10,
        xs in proptest::collection::vec(input_value(), 69 * 9),
        biases in proptest::collection::vec(-2.0..2.0f64, 1..60),
    ) {
        let random = Mlp::new(MlpConfig { input, hidden, output, seed });
        let (mlp, model) = with_biases(&random, &biases);
        let flat = &xs[..samples * input];
        let mut batch = MlpBatchScratch::new();
        // A first pass over other inputs: reuse must not change any bit.
        mlp.predict_proba_batch_with(1, &xs[xs.len() - input..], &mut batch);
        let probs = mlp.predict_proba_batch_with(samples, flat, &mut batch);
        prop_assert_eq!(probs.len(), samples * output);
        for (s, x) in flat.chunks(input).enumerate() {
            let expect = oracle::bits(&oracle::mlp_proba(&model, x));
            prop_assert_eq!(oracle::bits(&probs[s * output..(s + 1) * output]), expect, "sample {}", s);
        }
    }
}
