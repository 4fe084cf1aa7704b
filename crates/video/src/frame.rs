//! Pixel frames and luminance histograms.
//!
//! Frames are the unit of exchange between the acquisition platform, the
//! renderer, and every analysis stage. Grayscale is the working format
//! (LBP, histograms, and the face detector all operate on luminance);
//! [`RgbFrame`] exists for rendering color-coded participants and is
//! convertible via [`RgbFrame::to_gray`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Number of bins used by luminance histograms throughout the crate.
pub const HISTOGRAM_BINS: usize = 64;

/// A video timestamp: seconds since the start of the recording.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Timestamp(pub f64);

impl Timestamp {
    /// Creates a timestamp from seconds.
    pub const fn from_secs(s: f64) -> Self {
        Timestamp(s)
    }

    /// Seconds since the start of the recording.
    pub const fn as_secs(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

/// An 8-bit grayscale frame.
///
/// Pixel data is stored row-major in a reference-counted buffer: frames
/// flow through several pipeline stages (parsing, detection, feature
/// extraction) and sharing the underlying allocation keeps that free of
/// copies. [`from_data`](Self::from_data) takes its `Vec` without
/// copying it. Mutation happens through the builder-style raster
/// methods, which take `&mut self` and copy-on-write only when shared.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct GrayFrame {
    width: u32,
    height: u32,
    /// Capture time.
    pub timestamp: Timestamp,
    data: Arc<Vec<u8>>,
}

impl fmt::Debug for GrayFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GrayFrame")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("timestamp", &self.timestamp)
            .field("data", &format_args!("{} bytes", self.data.len()))
            .finish()
    }
}

impl GrayFrame {
    /// Creates a frame filled with `fill`.
    pub fn new(width: u32, height: u32, fill: u8) -> Self {
        GrayFrame {
            width,
            height,
            timestamp: Timestamp::default(),
            data: Arc::new(vec![fill; (width * height) as usize]),
        }
    }

    /// Creates a frame from raw row-major pixel data, keeping `data`'s
    /// buffer (no copy).
    ///
    /// # Panics
    /// Panics when `data.len() != width * height`.
    pub fn from_data(width: u32, height: u32, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            (width * height) as usize,
            "pixel buffer size must match {width}x{height}"
        );
        GrayFrame {
            width,
            height,
            timestamp: Timestamp::default(),
            data: Arc::new(data),
        }
    }

    /// Sets the timestamp (builder style).
    pub fn with_timestamp(mut self, t: Timestamp) -> Self {
        self.timestamp = t;
        self
    }

    /// Frame width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw row-major pixel data.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Pixel value at `(x, y)`; panics out of bounds in debug builds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.data[(y * self.width + x) as usize]
    }

    /// Pixel value at `(x, y)`, or `None` out of bounds.
    #[inline]
    pub fn try_get(&self, x: i64, y: i64) -> Option<u8> {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            None
        } else {
            Some(self.data[(y as u32 * self.width + x as u32) as usize])
        }
    }

    /// Pixel value with clamp-to-edge semantics for out-of-bounds reads
    /// (used by convolution kernels at the border).
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> u8 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.get(cx, cy)
    }

    /// Sets the pixel at `(x, y)`; ignores out-of-bounds writes.
    pub fn set(&mut self, x: i64, y: i64, value: u8) {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            return;
        }
        let idx = (y as u32 * self.width + x as u32) as usize;
        self.mutate(|data| data[idx] = value);
    }

    /// Applies a closure to the pixel buffer, copying it first only
    /// when another frame shares it.
    pub fn mutate(&mut self, f: impl FnOnce(&mut [u8])) {
        f(Arc::make_mut(&mut self.data).as_mut_slice());
    }

    /// Fills the whole frame with `value`.
    pub fn fill(&mut self, value: u8) {
        self.mutate(|d| d.fill(value));
    }

    /// Fills an axis-aligned rectangle (clipped to the frame).
    pub fn fill_rect(&mut self, x0: i64, y0: i64, w: u32, h: u32, value: u8) {
        let width = self.width as i64;
        let height = self.height as i64;
        let x_start = x0.max(0);
        let y_start = y0.max(0);
        let x_end = (x0 + w as i64).min(width);
        let y_end = (y0 + h as i64).min(height);
        if x_start >= x_end || y_start >= y_end {
            return;
        }
        let fw = self.width as usize;
        self.mutate(|d| {
            for y in y_start..y_end {
                let row = y as usize * fw;
                d[row + x_start as usize..row + x_end as usize].fill(value);
            }
        });
    }

    /// Draws a filled disk (clipped to the frame). Used by the renderer
    /// for head blobs.
    pub fn fill_disk(&mut self, cx: f64, cy: f64, radius: f64, value: u8) {
        if radius <= 0.0 {
            return;
        }
        let x0 = (cx - radius).floor().max(0.0) as i64;
        let x1 = (cx + radius).ceil().min(self.width as f64 - 1.0) as i64;
        let y0 = (cy - radius).floor().max(0.0) as i64;
        let y1 = (cy + radius).ceil().min(self.height as f64 - 1.0) as i64;
        if x0 > x1 || y0 > y1 {
            return;
        }
        let r2 = radius * radius;
        let fw = self.width as usize;
        self.mutate(|d| {
            for y in y0..=y1 {
                let dy = y as f64 - cy;
                for x in x0..=x1 {
                    let dx = x as f64 - cx;
                    if dx * dx + dy * dy <= r2 {
                        d[y as usize * fw + x as usize] = value;
                    }
                }
            }
        });
    }

    /// Mean luminance of the frame.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.data.iter().map(|&v| v as u64).sum();
        sum as f64 / self.data.len() as f64
    }

    /// Normalized luminance [`Histogram`] of the frame.
    pub fn histogram(&self) -> Histogram {
        Histogram::from_counts(&self.histogram_counts(), self.data.len())
    }

    /// Pixels per luminance bin: value `v` falls in bin `v >> 2`. Four
    /// interleaved tallies keep runs of equal pixels from serializing
    /// on one counter.
    pub(crate) fn histogram_counts(&self) -> [u32; HISTOGRAM_BINS] {
        let mut tallies = [[0u32; HISTOGRAM_BINS]; 4];
        let quads = self.data.chunks_exact(4);
        for &v in quads.remainder() {
            tallies[0][usize::from(v >> 2)] += 1;
        }
        for quad in quads {
            for (tally, &v) in tallies.iter_mut().zip(quad) {
                tally[usize::from(v >> 2)] += 1;
            }
        }
        let mut counts = tallies[0];
        for tally in &tallies[1..] {
            for (c, t) in counts.iter_mut().zip(tally) {
                *c += t;
            }
        }
        counts
    }

    /// Row `y`, clamped to the frame (clamp-to-edge, as
    /// [`get_clamped`](Self::get_clamped) reads).
    fn clamped_row(&self, y: i64) -> &[u8] {
        let w = self.width as usize;
        let y = y.clamp(0, self.height as i64 - 1) as usize;
        &self.data[y * w..(y + 1) * w]
    }

    /// 2× box-filter downsample (dimensions halved, rounding down).
    ///
    /// Each output row averages one pair of source rows, two columns at
    /// a time; a one-pixel-wide or one-pixel-high frame pairs its only
    /// column or row with itself.
    pub fn downsample2(&self) -> GrayFrame {
        let w = (self.width / 2).max(1);
        let h = (self.height / 2).max(1);
        let mut out = vec![0u8; (w * h) as usize];
        for (y, out_row) in out.chunks_exact_mut(w as usize).enumerate() {
            let top = self.clamped_row(2 * y as i64);
            let bottom = self.clamped_row(2 * y as i64 + 1);
            if self.width == 1 {
                out_row[0] = ((2 * u16::from(top[0]) + 2 * u16::from(bottom[0])) / 4) as u8;
                continue;
            }
            // Each column pair read as one little-endian u16 (left pixel
            // low): whole-word masks and shifts, which vectorize, where
            // byte-pair indexing does not. The sum is at most 4 × 255.
            let (top, _) = top.as_chunks::<2>();
            let (bottom, _) = bottom.as_chunks::<2>();
            for ((o, t), b) in out_row.iter_mut().zip(top).zip(bottom) {
                let (t, b) = (u16::from_le_bytes(*t), u16::from_le_bytes(*b));
                *o = (((t & 0xff) + (t >> 8) + (b & 0xff) + (b >> 8)) / 4) as u8;
            }
        }
        GrayFrame::from_data(w, h, out).with_timestamp(self.timestamp)
    }

    /// Extracts a rectangular patch with clamp-to-edge semantics for
    /// out-of-bounds regions.
    ///
    /// Each output row is one clamped source row: the columns left of
    /// the frame repeat its first pixel, the columns inside are copied,
    /// and the columns right of it repeat its last pixel.
    pub fn patch(&self, x0: i64, y0: i64, w: u32, h: u32) -> GrayFrame {
        let mut out = vec![0u8; (w * h) as usize];
        if w > 0 {
            let (fw, pw) = (self.width as i64, w as i64);
            // Patch columns `[inside, outside)` lie within the frame.
            let inside = x0.saturating_neg().clamp(0, pw);
            let outside = fw.saturating_sub(x0).clamp(inside, pw);
            let (inside, outside) = (inside as usize, outside as usize);
            // The frame column under patch column `inside`; clamped only
            // so that an empty middle still slices within the row.
            let first = (x0 + inside as i64).clamp(0, fw - 1) as usize;
            for (y, out_row) in (y0..).zip(out.chunks_exact_mut(w as usize)) {
                let row = self.clamped_row(y);
                out_row[..inside].fill(row[0]);
                out_row[inside..outside].copy_from_slice(&row[first..first + outside - inside]);
                out_row[outside..].fill(row[row.len() - 1]);
            }
        }
        GrayFrame::from_data(w, h, out).with_timestamp(self.timestamp)
    }

    /// Bilinear resize to `(w, h)`.
    ///
    /// Each output column's two source columns and weight are computed
    /// once per call, each output row's once per row. Output rows read
    /// source rows in ascending order, so each source row is blended
    /// across the columns once, into an f64 row that the output rows
    /// reading it share (a row read again past the frame's top or
    /// bottom edge is blended once more). Every pixel still evaluates
    /// the same f64 expression, in the same order, as a per-pixel
    /// evaluation with clamped reads would.
    ///
    /// # Panics
    /// Panics when either target dimension is zero.
    pub fn resize(&self, w: u32, h: u32) -> GrayFrame {
        assert!(w > 0 && h > 0, "target dimensions must be non-zero");
        let sx = self.width as f64 / w as f64;
        let sy = self.height as f64 / h as f64;
        let last_x = self.width as i64 - 1;
        // Per output column: left and right source column, and weight.
        let columns: Vec<(usize, usize, f64)> = (0..w)
            .map(|x| {
                let fx = (x as f64 + 0.5) * sx - 0.5;
                let x0 = fx.floor();
                let left = x0 as i64;
                (
                    left.clamp(0, last_x) as usize,
                    (left + 1).clamp(0, last_x) as usize,
                    fx - x0,
                )
            })
            .collect();
        // Source row `y` blended across the columns, keyed by `y`.
        let blend = |y: i64, row: &mut (i64, Vec<f64>)| {
            let source = self.clamped_row(y);
            for (b, &(left, right, tx)) in row.1.iter_mut().zip(&columns) {
                *b = f64::from(source[left]) * (1.0 - tx) + f64::from(source[right]) * tx;
            }
            row.0 = y;
        };
        let mut upper = (i64::MIN, vec![0.0; w as usize]);
        let mut lower = (i64::MIN, vec![0.0; w as usize]);
        let mut out = vec![0u8; (w * h) as usize];
        for (y, out_row) in out.chunks_exact_mut(w as usize).enumerate() {
            let fy = (y as f64 + 0.5) * sy - 0.5;
            let y0 = fy.floor();
            let ty = fy - y0;
            let y0 = y0 as i64;
            // The last output row's lower row is often this one's upper.
            if lower.0 == y0 {
                std::mem::swap(&mut upper, &mut lower);
            }
            if upper.0 != y0 {
                blend(y0, &mut upper);
            }
            if lower.0 != y0 + 1 {
                blend(y0 + 1, &mut lower);
            }
            for ((o, &top), &bot) in out_row.iter_mut().zip(&upper.1).zip(&lower.1) {
                *o = round_to_u8(top * (1.0 - ty) + bot * ty);
            }
        }
        GrayFrame::from_data(w, h, out).with_timestamp(self.timestamp)
    }

    /// Sobel gradient magnitude, thresholded to a binary edge map
    /// (`true` = edge). Used by the edge-change-ratio dissimilarity.
    pub fn edge_map(&self, threshold: u16) -> Vec<bool> {
        let edges = self.edge_bits(threshold);
        (0..self.data.len())
            .map(|i| (edges.words[i / 64] >> (i % 64)) & 1 == 1)
            .collect()
    }

    /// [`edge_map`](Self::edge_map), packed into an [`EdgeBits`].
    ///
    /// The 3×3 Sobel kernel is separable: per column, a vertical
    /// `[1 2 1]` smoothing feeds `gx` and a vertical `[-1 0 1]`
    /// difference feeds `gy`, both computed on row slices. Reads past
    /// the frame clamp to the nearest pixel, as
    /// [`get_clamped`](Self::get_clamped) does: border rows reuse
    /// their own row, and only the two border columns clamp per pixel.
    /// Flags land one byte per pixel and are packed 64 at a time.
    pub(crate) fn edge_bits(&self, threshold: u16) -> EdgeBits {
        let (w, h) = (self.width as usize, self.height as usize);
        let mut flags = vec![0u8; self.data.len().div_ceil(64) * 64];
        if w > 0 && h > 0 {
            let row = |y: usize| &self.data[y * w..(y + 1) * w];
            // |gx| + |gy| ≤ 2·1020, so i16 lanes hold every term exactly.
            let mut smooth = vec![0i16; w];
            let mut diff = vec![0i16; w];
            for (y, edge) in flags.chunks_exact_mut(w).take(h).enumerate() {
                let (up, mid, down) = (row(y.saturating_sub(1)), row(y), row((y + 1).min(h - 1)));
                for ((s, d), ((&a, &b), &c)) in smooth
                    .iter_mut()
                    .zip(diff.iter_mut())
                    .zip(up.iter().zip(mid).zip(down))
                {
                    let (a, b, c) = (i16::from(a), i16::from(b), i16::from(c));
                    *s = a + 2 * b + c;
                    *d = c - a;
                }
                let magnitude = |l: usize, x: usize, r: usize| {
                    let gx = smooth[r] - smooth[l];
                    let gy = diff[l] + 2 * diff[x] + diff[r];
                    u8::from(gx.unsigned_abs() + gy.unsigned_abs() > threshold)
                };
                edge[0] = magnitude(0, 0, 1.min(w - 1));
                edge[w - 1] = magnitude(w.saturating_sub(2), w - 1, w - 1);
                if w > 2 {
                    for (e, ((s, t), (l, (m, r)))) in edge[1..w - 1].iter_mut().zip(
                        smooth
                            .iter()
                            .zip(&smooth[2..])
                            .zip(diff.iter().zip(diff[1..].iter().zip(&diff[2..]))),
                    ) {
                        let gx = t - s;
                        let gy = l + 2 * m + r;
                        *e = u8::from(gx.unsigned_abs() + gy.unsigned_abs() > threshold);
                    }
                }
            }
        }
        let words: Vec<u64> = flags
            .chunks_exact(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0, |word, (k, &e)| word | (u64::from(e) << k))
            })
            .collect();
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        EdgeBits { words, count }
    }
}

/// `v.round().clamp(0.0, 255.0) as u8` without a libm call: on the
/// baseline x86-64 target `f64::round` is a function call, and the
/// resize kernel rounds once per output pixel.
///
/// Equal for every `f64`. Truncation saturates, so negatives and NaN
/// give 0 (as the clamp and the cast do) and values from 255 up give
/// 255. Below 255, `v - t` is exact, and adding one from a fraction of
/// one half rounds halves away from zero, as `round` does.
#[inline]
fn round_to_u8(v: f64) -> u8 {
    let t = (v as u32).min(255);
    let up = u32::from(v - f64::from(t) >= 0.5);
    (t + up).min(255) as u8
}

/// A binary edge map packed 64 pixels to a word: pixel `i` (row-major)
/// is bit `i % 64` of word `i / 64`, and the padding bits of the last
/// word are zero.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EdgeBits {
    pub(crate) words: Vec<u64>,
    /// Edge pixels in the map.
    pub(crate) count: usize,
}

/// An 8-bit RGB frame (interleaved `r,g,b` row-major).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RgbFrame {
    width: u32,
    height: u32,
    /// Capture time.
    pub timestamp: Timestamp,
    data: Vec<u8>,
}

impl RgbFrame {
    /// Creates a frame filled with the given color.
    pub fn new(width: u32, height: u32, fill: [u8; 3]) -> Self {
        let mut data = Vec::with_capacity((width * height * 3) as usize);
        for _ in 0..width * height {
            data.extend_from_slice(&fill);
        }
        RgbFrame {
            width,
            height,
            timestamp: Timestamp::default(),
            data,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel at `(x, y)`.
    pub fn get(&self, x: u32, y: u32) -> [u8; 3] {
        let i = ((y * self.width + x) * 3) as usize;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Sets the pixel at `(x, y)`; ignores out-of-bounds writes.
    pub fn set(&mut self, x: i64, y: i64, rgb: [u8; 3]) {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            return;
        }
        let i = ((y as u32 * self.width + x as u32) * 3) as usize;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Draws a filled disk (clipped to the frame).
    pub fn fill_disk(&mut self, cx: f64, cy: f64, radius: f64, rgb: [u8; 3]) {
        let x0 = (cx - radius).floor() as i64;
        let x1 = (cx + radius).ceil() as i64;
        let y0 = (cy - radius).floor() as i64;
        let y1 = (cy + radius).ceil() as i64;
        let r2 = radius * radius;
        for y in y0..=y1 {
            for x in x0..=x1 {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                if dx * dx + dy * dy <= r2 {
                    self.set(x, y, rgb);
                }
            }
        }
    }

    /// Converts to grayscale using the Rec. 601 luma weights.
    pub fn to_gray(&self) -> GrayFrame {
        let mut out = Vec::with_capacity((self.width * self.height) as usize);
        for px in self.data.chunks_exact(3) {
            let y = 0.299 * px[0] as f64 + 0.587 * px[1] as f64 + 0.114 * px[2] as f64;
            out.push(y.round().clamp(0.0, 255.0) as u8);
        }
        GrayFrame::from_data(self.width, self.height, out).with_timestamp(self.timestamp)
    }
}

/// A normalized luminance histogram (sums to 1 for non-empty frames).
///
/// Not serializable by design: histograms are derived data, recomputed
/// from frames on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Normalized bin weights.
    pub bins: [f64; HISTOGRAM_BINS],
}

impl Histogram {
    /// A histogram with all mass in bin 0 (an all-black frame).
    pub fn zeroed() -> Self {
        let mut bins = [0.0; HISTOGRAM_BINS];
        bins[0] = 1.0;
        Histogram { bins }
    }

    /// Normalizes per-bin pixel counts of a `pixels`-pixel frame.
    pub(crate) fn from_counts(counts: &[u32; HISTOGRAM_BINS], pixels: usize) -> Self {
        let total = pixels.max(1) as f64;
        Histogram {
            bins: counts.map(|c| f64::from(c) / total),
        }
    }

    /// Sum of all bins (≈1 for a normalized histogram).
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frame_is_uniform() {
        let f = GrayFrame::new(8, 4, 77);
        assert_eq!(f.width(), 8);
        assert_eq!(f.height(), 4);
        assert!(f.data().iter().all(|&v| v == 77));
        assert!((f.mean() - 77.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn from_data_size_mismatch_panics() {
        let _ = GrayFrame::from_data(4, 4, vec![0; 15]);
    }

    #[test]
    fn set_get_round_trip() {
        let mut f = GrayFrame::new(10, 10, 0);
        f.set(3, 4, 200);
        assert_eq!(f.get(3, 4), 200);
        assert_eq!(f.try_get(3, 4), Some(200));
        assert_eq!(f.try_get(-1, 0), None);
        assert_eq!(f.try_get(10, 0), None);
    }

    #[test]
    fn out_of_bounds_writes_ignored() {
        let mut f = GrayFrame::new(4, 4, 0);
        f.set(-1, 0, 255);
        f.set(0, 99, 255);
        assert!(f.data().iter().all(|&v| v == 0));
    }

    #[test]
    fn clone_shares_then_diverges_on_write() {
        let pixels = vec![10u8; 36];
        let ptr = pixels.as_ptr();
        let mut a = GrayFrame::from_data(6, 6, pixels);
        assert_eq!(a.data().as_ptr(), ptr, "from_data keeps the Vec's buffer");
        a.set(1, 1, 50);
        assert_eq!(a.data().as_ptr(), ptr, "an unshared frame mutates in place");
        let b = a.clone();
        a.set(0, 0, 99);
        assert_eq!(a.get(0, 0), 99);
        assert_eq!(b.get(0, 0), 10, "clone must not observe the write");
        assert_eq!(b.get(1, 1), 50);
        assert_eq!(
            b.data().as_ptr(),
            ptr,
            "the untouched clone keeps the buffer"
        );
    }

    #[test]
    fn debug_prints_the_size_not_the_pixels() {
        let frame = GrayFrame::from_data(4, 3, vec![7; 12]);
        assert_eq!(
            format!("{frame:?}"),
            "GrayFrame { width: 4, height: 3, timestamp: Timestamp(0.0), data: 12 bytes }"
        );
    }

    #[test]
    fn fill_rect_clips() {
        let mut f = GrayFrame::new(8, 8, 0);
        f.fill_rect(6, 6, 10, 10, 50);
        assert_eq!(f.get(7, 7), 50);
        assert_eq!(f.get(5, 5), 0);
        // Entirely outside: no-op.
        f.fill_rect(-20, -20, 5, 5, 99);
        assert_eq!(f.get(0, 0), 0);
    }

    #[test]
    fn disk_is_round() {
        let mut f = GrayFrame::new(21, 21, 0);
        f.fill_disk(10.0, 10.0, 5.0, 255);
        assert_eq!(f.get(10, 10), 255);
        assert_eq!(f.get(10, 14), 255);
        assert_eq!(f.get(10, 16), 0);
        // Corners of the bounding box stay empty.
        assert_eq!(f.get(6, 6), 0);
    }

    #[test]
    fn histogram_is_normalized() {
        let mut f = GrayFrame::new(16, 16, 0);
        f.fill_rect(0, 0, 8, 16, 255);
        let h = f.histogram();
        assert!((h.total() - 1.0).abs() < 1e-9);
        assert!((h.bins[0] - 0.5).abs() < 1e-9);
        assert!((h.bins[HISTOGRAM_BINS - 1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn downsample_halves_dimensions() {
        let f = GrayFrame::new(640, 480, 128);
        let d = f.downsample2();
        assert_eq!(d.width(), 320);
        assert_eq!(d.height(), 240);
        assert!((d.mean() - 128.0).abs() < 1.0);
    }

    #[test]
    fn patch_clamps_at_border() {
        let mut f = GrayFrame::new(4, 4, 7);
        f.set(0, 0, 100);
        let p = f.patch(-2, -2, 3, 3);
        // Everything clamps to (0,0).
        assert!(p.data().iter().all(|&v| v == 100));
    }

    #[test]
    fn resize_preserves_uniform_frames() {
        let f = GrayFrame::new(17, 13, 99);
        let r = f.resize(48, 48);
        assert_eq!((r.width(), r.height()), (48, 48));
        assert!(r.data().iter().all(|&v| v == 99));
    }

    #[test]
    fn resize_identity_is_lossless() {
        let mut f = GrayFrame::new(9, 9, 0);
        f.fill_disk(4.0, 4.0, 3.0, 200);
        let r = f.resize(9, 9);
        assert_eq!(r.data(), f.data());
    }

    #[test]
    fn resize_upscales_structure() {
        let mut f = GrayFrame::new(8, 8, 0);
        f.fill_rect(0, 0, 4, 8, 200);
        let r = f.resize(16, 16);
        assert!(r.get(1, 8) > 150, "left half stays bright");
        assert!(r.get(14, 8) < 50, "right half stays dark");
    }

    #[test]
    #[should_panic]
    fn resize_to_zero_panics() {
        let _ = GrayFrame::new(4, 4, 0).resize(0, 4);
    }

    #[test]
    fn edge_map_finds_step_edge() {
        let mut f = GrayFrame::new(16, 16, 0);
        f.fill_rect(8, 0, 8, 16, 255);
        let edges = f.edge_map(100);
        // Edge pixels concentrate around column 8.
        let edge_count_near = (0..16)
            .filter(|&y| edges[y * 16 + 7] || edges[y * 16 + 8])
            .count();
        assert!(edge_count_near >= 14);
        assert!(!edges[5 * 16 + 2], "flat region has no edges");
    }

    #[test]
    fn rgb_to_gray_weights() {
        let mut f = RgbFrame::new(2, 1, [0, 0, 0]);
        f.set(0, 0, [255, 0, 0]);
        f.set(1, 0, [0, 255, 0]);
        let g = f.to_gray();
        assert_eq!(g.get(0, 0), 76); // 0.299*255
        assert_eq!(g.get(1, 0), 150); // 0.587*255
    }

    #[test]
    fn rgb_disk_clips() {
        let mut f = RgbFrame::new(8, 8, [0, 0, 0]);
        f.fill_disk(0.0, 0.0, 3.0, [10, 20, 30]);
        assert_eq!(f.get(0, 0), [10, 20, 30]);
        assert_eq!(f.get(7, 7), [0, 0, 0]);
    }

    #[test]
    fn timestamp_formatting() {
        assert_eq!(Timestamp::from_secs(1.5).to_string(), "1.500s");
        assert_eq!(Timestamp::from_secs(1.5).as_secs(), 1.5);
    }
}
