//! Labelled datasets, feature normalization, and evaluation metrics.

use serde::{Deserialize, Serialize};

/// A labelled feature dataset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature vectors (all the same length).
    pub features: Vec<Vec<f64>>,
    /// Class labels, parallel to `features`.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    /// Panics when the feature length differs from existing samples.
    pub fn push(&mut self, feature: Vec<f64>, label: usize) {
        if let Some(first) = self.features.first() {
            assert_eq!(first.len(), feature.len(), "inconsistent feature length");
        }
        self.features.push(feature);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Deterministic stratification-free split: every `k`-th sample goes
    /// to the second (test) part. `k = 5` gives an 80/20 split with both
    /// parts seeing all phases of a generated sweep — appropriate for the
    /// deterministic synthetic sweeps used in training.
    ///
    /// # Panics
    /// Panics when `k < 2`.
    pub fn split_every_kth(&self, k: usize) -> (Dataset, Dataset) {
        assert!(k >= 2, "k must be at least 2");
        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for (i, (f, &l)) in self.features.iter().zip(&self.labels).enumerate() {
            if (i + 1) % k == 0 {
                test.push(f.clone(), l);
            } else {
                train.push(f.clone(), l);
            }
        }
        (train, test)
    }

    /// Per-class sample counts, indexed by label (length = max label + 1).
    pub fn class_counts(&self) -> Vec<usize> {
        let max = self.labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut counts = vec![0usize; max];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

/// Per-dimension standardization (x − mean) / std fitted on a training
/// set and applied to any sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    mean: Vec<f64>,
    inv_std: Vec<f64>,
}

impl Normalizer {
    /// Fits mean/std on the dataset.
    ///
    /// Dimensions with (near-)zero variance pass through unscaled, which
    /// is common for LBP bins that never fire on synthetic faces.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset) -> Self {
        assert!(
            !data.is_empty(),
            "cannot fit a normalizer on an empty dataset"
        );
        let n = data.len() as f64;
        let dim = data.dim();
        let mut mean = vec![0.0; dim];
        for f in &data.features {
            for (m, &x) in mean.iter_mut().zip(f) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for f in &data.features {
            for ((v, &x), &m) in var.iter_mut().zip(f).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let inv_std = var
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s < 1e-9 {
                    1.0
                } else {
                    1.0 / s
                }
            })
            .collect();
        Normalizer { mean, inv_std }
    }

    /// Appends the transformed sample to `out` **without clearing it** —
    /// the batched classifier packs every face's normalized feature
    /// vector into one flat sample-major buffer this way, and
    /// [`apply_dataset`](Self::apply_dataset) fills one fresh vector
    /// per sample.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn apply_extend(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        out.extend(
            x.iter()
                .zip(&self.mean)
                .zip(&self.inv_std)
                .map(|((&xi, &m), &s)| (xi - m) * s),
        );
    }

    /// Checks that the normalizer transforms `dim`-long samples.
    pub(crate) fn check_dim(&self, dim: usize) -> Result<(), String> {
        let (m, s) = (self.mean.len(), self.inv_std.len());
        if m == dim && s == dim {
            Ok(())
        } else {
            Err(format!(
                "{m} means and {s} inverse deviations for {dim}-long samples"
            ))
        }
    }

    /// Applies the transform to every sample of a dataset.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn apply_dataset(&self, data: &Dataset) -> Dataset {
        let features = data
            .features
            .iter()
            .map(|f| {
                let mut out = Vec::with_capacity(f.len());
                self.apply_extend(f, &mut out);
                out
            })
            .collect();
        Dataset {
            features,
            labels: data.labels.clone(),
        }
    }
}

/// A confusion matrix over `n` classes: `m[actual][predicted]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    n: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Creates an empty `n × n` matrix.
    pub fn new(n: usize) -> Self {
        ConfusionMatrix {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Records one (actual, predicted) observation.
    ///
    /// # Panics
    /// Panics when either index is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        assert!(
            actual < self.n && predicted < self.n,
            "class index out of range"
        );
        self.counts[actual * self.n + predicted] += 1;
    }

    /// Count at `(actual, predicted)`.
    pub fn get(&self, actual: usize, predicted: usize) -> usize {
        self.counts[actual * self.n + predicted]
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Overall accuracy (0 for an empty matrix).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: usize = (0..self.n).map(|i| self.get(i, i)).sum();
        diag as f64 / total as f64
    }

    /// Recall of class `c` (`None` when the class never occurs).
    pub fn recall(&self, c: usize) -> Option<f64> {
        let row: usize = (0..self.n).map(|p| self.get(c, p)).sum();
        (row > 0).then(|| self.get(c, c) as f64 / row as f64)
    }

    /// Precision of class `c` (`None` when the class is never predicted).
    pub fn precision(&self, c: usize) -> Option<f64> {
        let col: usize = (0..self.n).map(|a| self.get(a, c)).sum();
        (col > 0).then(|| self.get(c, c) as f64 / col as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Dataset {
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![i as f64, 2.0 * i as f64], i % 2);
        }
        d
    }

    #[test]
    fn push_and_dims() {
        let d = sample_data();
        assert_eq!(d.len(), 10);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.class_counts(), vec![5, 5]);
    }

    #[test]
    #[should_panic]
    fn inconsistent_dims_panic() {
        let mut d = sample_data();
        d.push(vec![1.0], 0);
    }

    #[test]
    fn split_every_kth_partitions() {
        let d = sample_data();
        let (train, test) = d.split_every_kth(5);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        assert_eq!(train.len() + test.len(), d.len());
    }

    #[test]
    fn normalizer_standardizes() {
        let d = sample_data();
        let norm = Normalizer::fit(&d);
        let nd = norm.apply_dataset(&d);
        for dim in 0..2 {
            let mean: f64 = nd.features.iter().map(|f| f[dim]).sum::<f64>() / nd.len() as f64;
            let var: f64 = nd
                .features
                .iter()
                .map(|f| (f[dim] - mean).powi(2))
                .sum::<f64>()
                / nd.len() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn normalizer_handles_constant_dims() {
        let mut d = Dataset::new();
        d.push(vec![5.0, 1.0], 0);
        d.push(vec![5.0, 2.0], 1);
        let norm = Normalizer::fit(&d);
        let mut out = Vec::new();
        norm.apply_extend(&[5.0, 1.5], &mut out);
        assert!(out[0].abs() < 1e-9, "constant dim centers to zero");
        assert!(out[0].is_finite() && out[1].is_finite());
    }

    #[test]
    fn confusion_matrix_metrics() {
        let mut m = ConfusionMatrix::new(2);
        // 3 true positives of class 0, 1 miss, 2 correct class 1.
        m.record(0, 0);
        m.record(0, 0);
        m.record(0, 0);
        m.record(0, 1);
        m.record(1, 1);
        m.record(1, 1);
        assert_eq!(m.total(), 6);
        assert!((m.accuracy() - 5.0 / 6.0).abs() < 1e-12);
        assert!((m.recall(0).unwrap() - 0.75).abs() < 1e-12);
        assert!((m.precision(1).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ConfusionMatrix::new(3).recall(0), None);
        assert_eq!(ConfusionMatrix::new(3).accuracy(), 0.0);
    }
}
