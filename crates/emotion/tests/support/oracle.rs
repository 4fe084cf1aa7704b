//! The MLP forward pass as it was before the weights moved into
//! panels: one row-major dot product per output row. It is the
//! reference the panel kernel must match bit for bit.
//!
//! Written against a network's serialized form only (the
//! `serde_json::Value` of an `Mlp`, whose `w` is row-major), so any
//! test target, the crate's own unit tests included, can include it
//! with `#[path = ".../oracle.rs"] mod oracle;`.

use serde_json::Value;

/// Class probabilities of input `x` under the serialized network
/// `mlp`. Per layer and output row, `acc = b[r]`, then
/// `acc += w[r·cols + c] · x[c]` in ascending `c`; ReLU between
/// layers; then the max-shifted softmax (exp, sum, divide).
pub fn mlp_proba(mlp: &Value, x: &[f64]) -> Vec<f64> {
    let layers = mlp["layers"].as_array().expect("an Mlp has layers");
    let mut a = x.to_vec();
    for (i, layer) in layers.iter().enumerate() {
        let cols = layer["cols"].as_u64().expect("a layer has cols") as usize;
        let (w, b) = (floats(&layer["w"]), floats(&layer["b"]));
        assert_eq!(a.len(), cols, "layer {i} input width");
        let mut y: Vec<f64> = w
            .chunks(cols)
            .zip(&b)
            .map(|(row, &bias)| {
                let mut acc = bias;
                for (wi, xi) in row.iter().zip(&a) {
                    acc += wi * xi;
                }
                acc
            })
            .collect();
        if i + 1 < layers.len() {
            for v in &mut y {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        a = y;
    }
    let max = a.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut p: Vec<f64> = a.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = p.iter().sum();
    for v in &mut p {
        *v /= sum;
    }
    p
}

/// The bit patterns of `v`: comparing these, unlike `==` on `f64`,
/// fails on a sign-of-zero difference.
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn floats(v: &Value) -> Vec<f64> {
    v.as_array()
        .expect("an array of numbers")
        .iter()
        .map(|x| x.as_f64().expect("a number"))
        .collect()
}
