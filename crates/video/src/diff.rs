//! Inter-frame dissimilarity metrics.
//!
//! Shot boundary detection (paper §II-B step 1) needs a scalar measure of
//! how different two consecutive frames are. Following the classic video
//! indexing literature the paper cites (its reference 19), this module
//! provides three complementary metrics and a blended [`frame_distance`]:
//!
//! * **histogram distance** — robust to small motion, catches global
//!   content changes (cuts);
//! * **pixel MAD** — mean absolute difference, sensitive to all change;
//! * **edge change ratio** — fraction of edge pixels that appear or
//!   disappear, robust to illumination shifts.

use crate::frame::{EdgeBits, GrayFrame, Histogram};

/// Sobel magnitude above which [`frame_distance`] counts a pixel as an
/// edge.
const DISTANCE_EDGE_THRESHOLD: u16 = 150;

/// Pixels per block of [`pixel_mad`]'s sum: 255 · 2¹⁶ fits a `u32`.
const MAD_BLOCK: usize = 1 << 16;

/// Histogram intersection similarity in `[0, 1]` (1 = identical).
pub fn histogram_intersection(a: &Histogram, b: &Histogram) -> f64 {
    a.bins
        .iter()
        .zip(b.bins.iter())
        .map(|(&x, &y)| x.min(y))
        .sum()
}

/// χ² distance between histograms (0 = identical, larger = more
/// different). Symmetric form: `Σ (a−b)² / (a+b)`.
pub fn histogram_chi_square(a: &Histogram, b: &Histogram) -> f64 {
    a.bins
        .iter()
        .zip(b.bins.iter())
        .map(|(&x, &y)| {
            let s = x + y;
            if s <= 0.0 {
                0.0
            } else {
                (x - y) * (x - y) / s
            }
        })
        .sum()
}

/// Mean absolute pixel difference, normalized to `[0, 1]`.
///
/// # Panics
/// Panics when the frames have different dimensions.
pub fn pixel_mad(a: &GrayFrame, b: &GrayFrame) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "frames must share dimensions"
    );
    if a.data().is_empty() {
        return 0.0;
    }
    // Exact integer sums in `u32` lanes, widened once per block.
    let sum: u64 = a
        .data()
        .chunks(MAD_BLOCK)
        .zip(b.data().chunks(MAD_BLOCK))
        .map(|(x, y)| {
            let block: u32 = x
                .iter()
                .zip(y)
                .map(|(&p, &q)| u32::from(p.abs_diff(q)))
                .sum();
            u64::from(block)
        })
        .sum();
    sum as f64 / (a.data().len() as f64 * 255.0)
}

/// Edge change ratio in `[0, 1]`: the larger of the fractions of edges
/// entering and exiting between the two frames.
///
/// # Panics
/// Panics when the frames have different dimensions.
pub fn edge_change_ratio(a: &GrayFrame, b: &GrayFrame, edge_threshold: u16) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "frames must share dimensions"
    );
    edge_bits_change_ratio(&a.edge_bits(edge_threshold), &b.edge_bits(edge_threshold))
}

/// [`edge_change_ratio`] of two same-sized packed edge maps.
fn edge_bits_change_ratio(a: &EdgeBits, b: &EdgeBits) -> f64 {
    if a.count == 0 && b.count == 0 {
        return 0.0;
    }
    let (mut exiting, mut entering) = (0usize, 0usize);
    for (&x, &y) in a.words.iter().zip(&b.words) {
        exiting += (x & !y).count_ones() as usize;
        entering += (!x & y).count_ones() as usize;
    }
    let out_ratio = if a.count > 0 {
        exiting as f64 / a.count as f64
    } else {
        1.0
    };
    let in_ratio = if b.count > 0 {
        entering as f64 / b.count as f64
    } else {
        1.0
    };
    out_ratio.max(in_ratio)
}

/// What [`frame_distance`] needs of one frame besides its pixels,
/// computed once so a stream compares each frame with its predecessor
/// without recomputing either.
#[derive(Debug, Clone)]
pub(crate) struct FrameFeatures {
    pub(crate) histogram: Histogram,
    edges: EdgeBits,
}

impl FrameFeatures {
    /// The features of a frame whose histogram counts are `counts`.
    pub(crate) fn new(frame: &GrayFrame, counts: &[u32; crate::HISTOGRAM_BINS]) -> Self {
        FrameFeatures {
            histogram: Histogram::from_counts(counts, frame.data().len()),
            edges: frame.edge_bits(DISTANCE_EDGE_THRESHOLD),
        }
    }
}

/// [`frame_distance`] from each frame's precomputed features.
///
/// # Panics
/// Panics when the frames have different dimensions.
pub(crate) fn feature_distance(
    a: &GrayFrame,
    fa: &FrameFeatures,
    b: &GrayFrame,
    fb: &FrameFeatures,
) -> f64 {
    let chi = histogram_chi_square(&fa.histogram, &fb.histogram) / 2.0;
    let mad = pixel_mad(a, b);
    let ecr = edge_bits_change_ratio(&fa.edges, &fb.edges);
    0.5 * chi + 0.3 * mad + 0.2 * ecr
}

/// Blended frame dissimilarity in `[0, 1]` used by the shot detector:
/// `0.5·χ²/2 + 0.3·MAD + 0.2·ECR` (χ² is bounded by 2 for normalized
/// histograms, so the blend stays in the unit interval).
///
/// # Panics
/// Panics when the frames have different dimensions.
pub fn frame_distance(a: &GrayFrame, b: &GrayFrame) -> f64 {
    let fa = FrameFeatures::new(a, &a.histogram_counts());
    let fb = FrameFeatures::new(b, &b.histogram_counts());
    feature_distance(a, &fa, b, &fb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: u8) -> GrayFrame {
        GrayFrame::new(32, 32, v)
    }

    fn textured(seed: u8) -> GrayFrame {
        let mut f = GrayFrame::new(32, 32, 0);
        f.mutate(|d| {
            for (i, px) in d.iter_mut().enumerate() {
                *px = ((i as u32 * 37 + seed as u32 * 101) % 256) as u8;
            }
        });
        f
    }

    #[test]
    fn identical_frames_have_zero_distance() {
        let f = textured(1);
        assert!(pixel_mad(&f, &f).abs() < 1e-12);
        assert!(edge_change_ratio(&f, &f, 150).abs() < 1e-12);
        let h = f.histogram();
        assert!(histogram_chi_square(&h, &h).abs() < 1e-12);
        assert!((histogram_intersection(&h, &h) - 1.0).abs() < 1e-9);
        assert!(frame_distance(&f, &f).abs() < 1e-9);
    }

    #[test]
    fn opposite_frames_have_max_mad() {
        let a = flat(0);
        let b = flat(255);
        assert!((pixel_mad(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi_square_bounded_by_two() {
        let a = flat(0).histogram();
        let b = flat(255).histogram();
        let chi = histogram_chi_square(&a, &b);
        assert!(chi > 1.9 && chi <= 2.0 + 1e-12);
        assert!(histogram_intersection(&a, &b).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = textured(1);
        let b = textured(9);
        assert!((frame_distance(&a, &b) - frame_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn small_change_scores_below_cut() {
        let a = textured(1);
        // Shift one pixel — tiny change.
        let mut b = a.clone();
        b.set(3, 3, 255);
        let small = frame_distance(&a, &b);
        // Complete content replacement — large change.
        let c = flat(240);
        let big = frame_distance(&a, &c);
        assert!(small < 0.05, "small = {small}");
        assert!(big > 0.3, "big = {big}");
        assert!(big > 5.0 * small);
    }

    #[test]
    fn ecr_detects_appearing_edges() {
        let blank = flat(0);
        let mut edged = flat(0);
        edged.fill_rect(10, 0, 10, 32, 255);
        let ecr = edge_change_ratio(&blank, &edged, 150);
        assert!((ecr - 1.0).abs() < 1e-12, "all edges are new");
        // Symmetric: disappearing edges count too.
        assert!((edge_change_ratio(&edged, &blank, 150) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ecr_zero_for_two_blank_frames() {
        assert_eq!(edge_change_ratio(&flat(0), &flat(0), 150), 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_dims_panic() {
        let a = GrayFrame::new(4, 4, 0);
        let b = GrayFrame::new(5, 4, 0);
        let _ = pixel_mad(&a, &b);
    }

    #[test]
    fn distance_in_unit_interval() {
        for (a, b) in [
            (flat(0), flat(255)),
            (textured(3), textured(200)),
            (flat(128), textured(5)),
        ] {
            let d = frame_distance(&a, &b);
            assert!((0.0..=1.0).contains(&d), "d = {d}");
        }
    }
}
