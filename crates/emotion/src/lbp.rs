//! Local Binary Patterns — the paper's face feature extractor.
//!
//! The LBP code of a pixel compares it with its 8 neighbours: each
//! neighbour at least as bright as the centre contributes a 1-bit. The
//! classical *uniform* patterns (at most two 0↔1 transitions around the
//! ring) carry most texture information; the 58 uniform codes get their
//! own histogram bins and all non-uniform codes share one, giving a
//! 59-bin histogram. Faces are described by concatenating the histograms
//! of a grid of cells over the face patch, which preserves the spatial
//! layout of mouth/eye texture that distinguishes expressions.

use dievent_video::GrayFrame;
use serde::{Deserialize, Serialize};

/// Number of histogram bins for uniform LBP (58 uniform + 1 catch-all).
pub const UNIFORM_BINS: usize = 59;

/// Configuration of the LBP descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LbpConfig {
    /// Cells per row/column of the spatial grid (e.g. 4 → 4×4 = 16 cells).
    pub grid: usize,
    /// Comparison threshold: a neighbour sets its bit only when it is at
    /// least `center + threshold`. A small positive threshold (above the
    /// sensor-noise amplitude) makes codes on flat regions collapse to a
    /// stable 0 instead of noise — the classic LTP/census robustness fix.
    pub threshold: u8,
}

impl Default for LbpConfig {
    fn default() -> Self {
        LbpConfig {
            grid: 4,
            threshold: 8,
        }
    }
}

impl LbpConfig {
    /// Total descriptor length: `grid² × 59`, with `grid` clamped to at
    /// least 1 as the descriptors clamp it.
    pub fn feature_len(&self) -> usize {
        let g = self.grid.max(1);
        g * g * UNIFORM_BINS
    }
}

/// Number of 0↔1 transitions in the circular 8-bit pattern.
const fn transitions(code: u8) -> u32 {
    let rotated = code.rotate_left(1);
    (code ^ rotated).count_ones()
}

/// Builds the uniform-pattern lookup table: uniform codes map to bins
/// `0..58` in ascending code order, everything else to bin 58.
///
/// `const`-evaluated once at compile time; the old implementation
/// rebuilt this 256-entry table on every descriptor call, which
/// dominated small-patch histogram cost.
const fn build_uniform_table() -> [u8; 256] {
    let mut table = [58u8; 256];
    let mut bin = 0u8;
    let mut code = 0usize;
    while code < 256 {
        if transitions(code as u8) <= 2 {
            table[code] = bin;
            bin += 1;
        }
        code += 1;
    }
    table
}

static UNIFORM_TABLE: [u8; 256] = build_uniform_table();

/// The uniform-pattern lookup table (compile-time constant).
fn uniform_table() -> &'static [u8; 256] {
    &UNIFORM_TABLE
}

/// Reusable buffers for the LBP kernel: the edge-replicated patch, the
/// per-patch uniform-bin image and one row of `centre + threshold`
/// values.
///
/// One scratch per worker, reused across every patch it processes —
/// buffers grow to the largest patch seen and are never shrunk, so the
/// steady-state descriptor path performs zero heap allocation (asserted
/// by `tests/alloc_steady_state.rs`).
#[derive(Debug, Default, Clone)]
pub struct LbpScratch {
    /// The current patch with a one-pixel border that repeats its edge,
    /// row-major `(w+2) × (h+2)`.
    padded: Vec<u8>,
    /// Per-pixel uniform-LBP bin (`0..59`) of the current patch,
    /// row-major `w × h`.
    bins: Vec<u8>,
    /// One row of `centre + threshold`, saturated at 255.
    centers: Vec<u8>,
}

impl LbpScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        LbpScratch::default()
    }
}

/// Raw LBP code of the pixel at `(x, y)` (clamp-to-edge at borders),
/// with comparison threshold `t` (see [`LbpConfig::threshold`]). Only
/// the oracle [`lbp_feature_vector_reference`] computes codes one pixel
/// at a time.
///
/// Bit `i` corresponds to the `i`-th neighbour clockwise from the top-left.
fn lbp_code(frame: &GrayFrame, x: i64, y: i64, t: u8) -> u8 {
    const OFFSETS: [(i64, i64); 8] = [
        (-1, -1),
        (0, -1),
        (1, -1),
        (1, 0),
        (1, 1),
        (0, 1),
        (-1, 1),
        (-1, 0),
    ];
    let center = frame.get_clamped(x, y) as u16 + t as u16;
    let mut code = 0u8;
    for (i, (dx, dy)) in OFFSETS.iter().enumerate() {
        if frame.get_clamped(x + dx, y + dy) as u16 >= center {
            code |= 1 << i;
        }
    }
    code
}

/// One branchless comparison pass over a row: lane `i` compares the
/// neighbour row (pre-shifted so index `i` is the neighbour of centre
/// `i`) against `centers[i]` and ORs the result into bit `bit` of the
/// code. Three equal-length `u8` slices, so the loop autovectorizes to
/// 16-lane byte compares.
#[inline]
fn compare_pass(codes: &mut [u8], neighbours: &[u8], centers: &[u8], bit: u8) {
    for ((code, &n), &center) in codes.iter_mut().zip(neighbours).zip(centers) {
        *code |= u8::from(n >= center) << bit;
    }
}

/// Fills `scratch.bins` with the uniform-LBP bin of every pixel.
///
/// The patch is first copied into `scratch.padded` with its edge
/// repeated one pixel out, which is exactly the clamp-to-edge of
/// [`lbp_code`]; then every row of the patch, borders included, takes
/// eight whole-row [`compare_pass`]es, one per neighbour, and a remap
/// through the const uniform table.
///
/// The compares run on `u8` against `centre + t` saturated at 255. Where
/// `centre + t` exceeds 255 no neighbour can reach it, so the true code
/// is 0 and the remap clears whatever the saturated compares set.
fn fill_bin_image(frame: &GrayFrame, t: u8, scratch: &mut LbpScratch) {
    let table = uniform_table();
    let w = frame.width() as usize;
    let h = frame.height() as usize;
    scratch.bins.clear();
    scratch.bins.resize(w * h, 0);
    if w == 0 || h == 0 {
        return;
    }
    let data = frame.data();
    let pw = w + 2;
    scratch.padded.clear();
    for y in 0..h + 2 {
        let row = &data[y.saturating_sub(1).min(h - 1) * w..][..w];
        scratch.padded.push(row[0]);
        scratch.padded.extend_from_slice(row);
        scratch.padded.push(row[w - 1]);
    }
    scratch.centers.clear();
    scratch.centers.resize(w, 0);
    let limit = 255 - t;
    for (y, codes) in scratch.bins.chunks_exact_mut(w).enumerate() {
        let up = &scratch.padded[y * pw..][..pw];
        let mid = &scratch.padded[(y + 1) * pw..][..pw];
        let down = &scratch.padded[(y + 2) * pw..][..pw];
        for (center, &m) in scratch.centers.iter_mut().zip(&mid[1..=w]) {
            *center = m.saturating_add(t);
        }
        let centers = &scratch.centers[..];
        // Neighbour order matches `lbp_code`'s OFFSETS: clockwise from
        // the top-left. Each pass reads the neighbour row shifted by
        // the neighbour's dx, so lane `i` always compares against
        // centre `i`.
        compare_pass(codes, &up[..w], centers, 0);
        compare_pass(codes, &up[1..=w], centers, 1);
        compare_pass(codes, &up[2..], centers, 2);
        compare_pass(codes, &mid[2..], centers, 3);
        compare_pass(codes, &down[2..], centers, 4);
        compare_pass(codes, &down[1..=w], centers, 5);
        compare_pass(codes, &down[..w], centers, 6);
        compare_pass(codes, &mid[..w], centers, 7);
        for (code, &m) in codes.iter_mut().zip(&mid[1..=w]) {
            *code = if m > limit {
                table[0]
            } else {
                table[*code as usize]
            };
        }
    }
}

/// The spatial-grid LBP descriptor — the production entry point: the
/// per-cell normalized histograms concatenated row-major, written into
/// `feature` (cleared and resized to [`LbpConfig::feature_len`]).
///
/// Cells partition the patch as evenly as possible; a patch smaller
/// than the grid still works (cells smaller than a pixel stay
/// all-zero). The bin image is computed once into `scratch` by the
/// edge-padded, row-vectorized `fill_bin_image` kernel, then each grid
/// cell accumulates integer bin counts over its rectangle and normalizes;
/// with a reused `feature` and `scratch` the call allocates nothing.
///
/// Bit-identical to the oracle [`lbp_feature_vector_reference`]:
/// integer counts converted once via `count as f64 / n` equal the
/// reference's repeated `+= 1.0` accumulation exactly, because every
/// count is far below 2⁵³.
pub fn lbp_feature_vector_with(
    frame: &GrayFrame,
    config: &LbpConfig,
    feature: &mut Vec<f64>,
    scratch: &mut LbpScratch,
) {
    let g = config.grid.max(1);
    let w = frame.width() as usize;
    let h = frame.height() as usize;
    feature.clear();
    feature.resize(g * g * UNIFORM_BINS, 0.0);
    fill_bin_image(frame, config.threshold, scratch);

    // Cell boundaries (inclusive-exclusive) along each axis.
    let bound = |n: usize, i: usize| i * n / g;

    for cy in 0..g {
        let y0 = bound(h, cy);
        let y1 = bound(h, cy + 1);
        for cx in 0..g {
            let x0 = bound(w, cx);
            let x1 = bound(w, cx + 1);
            let mut counts = [0u32; UNIFORM_BINS];
            for y in y0..y1 {
                for &bin in &scratch.bins[y * w + x0..y * w + x1] {
                    counts[bin as usize] += 1;
                }
            }
            let base = (cy * g + cx) * UNIFORM_BINS;
            let cell = &mut feature[base..base + UNIFORM_BINS];
            let count = (x1 - x0) * (y1 - y0);
            if count > 0 {
                let n = count as f64;
                for (v, &c) in cell.iter_mut().zip(counts.iter()) {
                    *v = c as f64 / n;
                }
            }
        }
    }
}

/// The oracle for [`lbp_feature_vector_with`]: the same descriptor
/// built exclusively from the clamped per-pixel `lbp_code` with f64
/// accumulation. The property tests (`tests/property_kernels.rs`)
/// compare the production kernel against it; it is never used on the
/// hot path.
pub fn lbp_feature_vector_reference(frame: &GrayFrame, config: &LbpConfig) -> Vec<f64> {
    let table = uniform_table();
    let g = config.grid.max(1);
    let w = frame.width() as usize;
    let h = frame.height() as usize;
    let mut feature = vec![0.0f64; g * g * UNIFORM_BINS];
    let bound = |n: usize, i: usize| i * n / g;
    for cy in 0..g {
        let y0 = bound(h, cy);
        let y1 = bound(h, cy + 1);
        for cx in 0..g {
            let x0 = bound(w, cx);
            let x1 = bound(w, cx + 1);
            let base = (cy * g + cx) * UNIFORM_BINS;
            for y in y0..y1 {
                for x in x0..x1 {
                    let code = lbp_code(frame, x as i64, y as i64, config.threshold);
                    feature[base + table[code as usize] as usize] += 1.0;
                }
            }
            let count = (x1 - x0) * (y1 - y0);
            if count > 0 {
                let n = count as f64;
                for v in &mut feature[base..base + UNIFORM_BINS] {
                    *v /= n;
                }
            }
        }
    }
    feature
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The production descriptor into fresh buffers.
    fn descriptor(frame: &GrayFrame, config: &LbpConfig) -> Vec<f64> {
        let mut feature = Vec::new();
        lbp_feature_vector_with(frame, config, &mut feature, &mut LbpScratch::new());
        feature
    }

    /// Every pixel's uniform-LBP bin (`0..59`) under threshold `t`.
    fn bin_image(frame: &GrayFrame, t: u8) -> Vec<u8> {
        let mut scratch = LbpScratch::new();
        fill_bin_image(frame, t, &mut scratch);
        scratch.bins
    }

    #[test]
    fn transitions_counts_ring_changes() {
        assert_eq!(transitions(0b0000_0000), 0);
        assert_eq!(transitions(0b1111_1111), 0);
        assert_eq!(transitions(0b0000_1111), 2);
        assert_eq!(transitions(0b0101_0101), 8);
    }

    /// The pre-const-table implementation, kept as the reference the
    /// compile-time table must match.
    fn dynamic_uniform_table() -> [u8; 256] {
        let mut table = [58u8; 256];
        let mut bin = 0u8;
        for code in 0..=255u8 {
            if transitions(code) <= 2 {
                table[code as usize] = bin;
                bin += 1;
            }
        }
        assert_eq!(bin, 58);
        table
    }

    #[test]
    fn const_table_matches_dynamic_builder() {
        assert_eq!(uniform_table(), &dynamic_uniform_table());
    }

    #[test]
    fn interior_fast_path_matches_clamped_path() {
        // Pseudo-random frame: every pixel's bin, borders included,
        // and so the descriptor must match the clamped per-pixel
        // `lbp_code`, also where `centre + threshold` passes 255.
        let mut f = GrayFrame::new(37, 29, 0);
        f.mutate(|d| {
            for (i, px) in d.iter_mut().enumerate() {
                *px = ((i as u32).wrapping_mul(2654435761) >> 24) as u8;
            }
        });
        for threshold in [8, 250] {
            let expect: Vec<u8> = (0..29)
                .flat_map(|y| (0..37).map(move |x| (x, y)))
                .map(|(x, y)| uniform_table()[lbp_code(&f, x, y, threshold) as usize])
                .collect();
            assert_eq!(bin_image(&f, threshold), expect, "t={threshold}");
            let cfg = LbpConfig { grid: 4, threshold };
            assert_eq!(
                descriptor(&f, &cfg),
                lbp_feature_vector_reference(&f, &cfg),
                "fast path must be bit-identical"
            );
        }
    }

    #[test]
    fn feature_vector_into_reuses_buffer() {
        let mut f = GrayFrame::new(24, 24, 0);
        f.fill_disk(12.0, 12.0, 7.0, 200);
        let cfg = LbpConfig::default();
        let mut buf = vec![123.0; 7]; // wrong size, stale contents
        lbp_feature_vector_with(&f, &cfg, &mut buf, &mut LbpScratch::new());
        assert_eq!(buf, lbp_feature_vector_reference(&f, &cfg));
    }

    #[test]
    fn uniform_table_has_58_uniform_codes() {
        let t = uniform_table();
        let distinct: std::collections::HashSet<u8> = t.iter().copied().collect();
        assert_eq!(distinct.len(), 59);
        // 0 and 255 are uniform (0 transitions).
        assert_ne!(t[0], 58);
        assert_ne!(t[255], 58);
        // 0b01010101 is maximally non-uniform.
        assert_eq!(t[0b0101_0101], 58);
    }

    #[test]
    fn flat_patch_codes_are_stable() {
        // With threshold 0, every neighbour equals the centre, so every
        // comparison is >= and the code is 0xFF; with a positive
        // threshold nothing clears the bar and the code is 0. Either
        // way: uniform codes, stable across the patch.
        let f = GrayFrame::new(8, 8, 100);
        assert_eq!(lbp_code(&f, 4, 4, 0), 0xFF);
        assert_eq!(lbp_code(&f, 4, 4, 8), 0x00);
        let img = bin_image(&f, 8);
        assert!(img.iter().all(|&b| b == img[0]));
    }

    #[test]
    fn threshold_suppresses_sensor_noise() {
        // Two noisy renderings of the same flat patch: with threshold 0
        // the descriptors diverge, with threshold 8 they collapse to the
        // same stable code image.
        let noisy = |salt: u32| {
            let mut f = GrayFrame::new(16, 16, 120);
            f.mutate(|d| {
                for (i, px) in d.iter_mut().enumerate() {
                    let h = (i as u32)
                        .wrapping_mul(2654435761)
                        .wrapping_add(salt.wrapping_mul(0x85eb_ca6b))
                        .wrapping_mul(0xc2b2_ae35);
                    *px = (*px as i32 + (h >> 29) as i32 - 3).clamp(0, 255) as u8;
                }
            });
            f
        };
        let a = noisy(1);
        let b = noisy(2);
        assert_eq!(
            bin_image(&a, 8),
            bin_image(&b, 8),
            "thresholded codes are noise-stable"
        );
        let raw_a = bin_image(&a, 0);
        let raw_b = bin_image(&b, 0);
        assert_ne!(raw_a, raw_b, "unthresholded codes chase the noise");
    }

    #[test]
    fn feature_vector_length_matches_config() {
        let f = GrayFrame::new(32, 32, 10);
        for grid in [0usize, 1, 2, 4, 5] {
            let cfg = LbpConfig { grid, threshold: 8 };
            assert_eq!(descriptor(&f, &cfg).len(), cfg.feature_len());
            assert_eq!(
                lbp_feature_vector_reference(&f, &cfg).len(),
                cfg.feature_len()
            );
        }
    }

    #[test]
    fn per_cell_histograms_normalized() {
        let mut f = GrayFrame::new(24, 24, 30);
        f.fill_disk(12.0, 12.0, 8.0, 220);
        let cfg = LbpConfig {
            grid: 3,
            threshold: 8,
        };
        let v = descriptor(&f, &cfg);
        for cell in 0..9 {
            let s: f64 = v[cell * UNIFORM_BINS..(cell + 1) * UNIFORM_BINS]
                .iter()
                .sum();
            assert!((s - 1.0).abs() < 1e-9, "cell {cell} sums to {s}");
        }
    }

    #[test]
    fn descriptor_is_translation_sensitive_across_cells() {
        // The same blob in different cells must change the descriptor —
        // that's the point of the spatial grid.
        let mut top = GrayFrame::new(32, 32, 20);
        top.fill_disk(8.0, 8.0, 5.0, 220);
        let mut bottom = GrayFrame::new(32, 32, 20);
        bottom.fill_disk(24.0, 24.0, 5.0, 220);
        let cfg = LbpConfig {
            grid: 4,
            threshold: 8,
        };
        let a = descriptor(&top, &cfg);
        let b = descriptor(&bottom, &cfg);
        let dist: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(
            dist > 0.5,
            "descriptor must separate spatial layouts, dist = {dist}"
        );
    }

    #[test]
    fn descriptor_is_illumination_invariant() {
        // LBP thresholds against the local centre, so adding a constant
        // offset to all pixels leaves the descriptor unchanged.
        let mut a = GrayFrame::new(32, 32, 40);
        a.fill_disk(16.0, 10.0, 6.0, 90);
        a.fill_rect(8, 20, 16, 4, 70);
        let mut b = a.clone();
        b.mutate(|d| {
            for px in d.iter_mut() {
                *px = px.saturating_add(60);
            }
        });
        let cfg = LbpConfig::default();
        let fa = descriptor(&a, &cfg);
        let fb = descriptor(&b, &cfg);
        let dist: f64 = fa.iter().zip(&fb).map(|(x, y)| (x - y).abs()).sum();
        assert!(
            dist < 1e-9,
            "LBP must ignore global illumination, dist = {dist}"
        );
    }

    #[test]
    fn degenerate_tiny_patch() {
        let f = GrayFrame::new(2, 2, 128);
        let cfg = LbpConfig {
            grid: 4,
            threshold: 8,
        };
        let v = descriptor(&f, &cfg);
        assert_eq!(v.len(), cfg.feature_len());
        // Cells smaller than a pixel stay all-zero; others are normalized.
        assert!(v.iter().all(|&x| x.is_finite()));
    }
}
