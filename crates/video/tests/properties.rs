//! Property-based tests for the video substrate.

#[path = "support/oracle.rs"]
mod oracle;

use dievent_video::{
    edge_change_ratio, frame_distance, histogram_chi_square, histogram_intersection, pixel_mad,
    GrayFrame, KeyframeConfig, SceneConfig, ShotDetectorConfig, Timestamp, VideoParser,
    VideoParserConfig, VideoSpec,
};
use proptest::prelude::*;

/// Arbitrary small frames with structured content (mix of rectangles),
/// plus free parameters for jitter.
fn frame_strategy() -> impl Strategy<Value = GrayFrame> {
    (
        4u32..24,
        4u32..24,
        0u8..=255,
        proptest::collection::vec((0i64..24, 0i64..24, 1u32..12, 1u32..12, 0u8..=255), 0..4),
    )
        .prop_map(|(w, h, bg, rects)| {
            let mut f = GrayFrame::new(w, h, bg);
            for (x, y, rw, rh, v) in rects {
                f.fill_rect(x, y, rw, rh, v);
            }
            f
        })
}

/// Frames of any size from 1×1, so the Sobel borders and one-pixel
/// rows and columns are covered.
fn any_size_frame() -> impl Strategy<Value = GrayFrame> {
    (
        1u32..24,
        1u32..24,
        0u8..=255,
        proptest::collection::vec((0i64..24, 0i64..24, 1u32..12, 1u32..12, 0u8..=255), 0..5),
    )
        .prop_map(|(w, h, bg, rects)| {
            let mut f = GrayFrame::new(w, h, bg);
            for (x, y, rw, rh, v) in rects {
                f.fill_rect(x, y, rw, rh, v);
            }
            f
        })
}

/// A textured frame: `content` shifts the luminance band (so takes
/// differ in pixels and histogram) and `jitter` adds sensor noise.
fn textured(w: u32, h: u32, content: u32, jitter: u32) -> GrayFrame {
    let mut f = GrayFrame::new(w, h, 0);
    f.mutate(|d| {
        let offset = (content * 37) % 180;
        for (i, px) in d.iter_mut().enumerate() {
            let base = offset + (i as u32 * 29) % 40;
            *px = (base + (i as u32 * 13 + jitter * 7) % 9).min(255) as u8;
        }
    });
    f.fill_rect(
        (content % 5) as i64 * 2,
        (content % 3) as i64 * 3,
        4,
        3,
        250,
    );
    f
}

/// A random edit: `(kind, content, len)` segments rendered at one size.
/// Kind 0 is a take of `len` frames, 1 a dissolve from the last frame
/// to `content` over `len` frames, 2 a one-frame flash.
fn video_strategy() -> impl Strategy<Value = Vec<GrayFrame>> {
    (
        6u32..20,
        6u32..20,
        proptest::collection::vec((0u8..3, 0u32..12, 1usize..25), 1..9),
    )
        .prop_map(|(w, h, segments)| {
            let mut frames: Vec<GrayFrame> = Vec::new();
            for (n, (kind, content, len)) in segments.into_iter().enumerate() {
                match kind {
                    0 => frames
                        .extend((0..len).map(|j| textured(w, h, content, (n * 31 + j) as u32))),
                    1 => {
                        let from = frames
                            .last()
                            .cloned()
                            .unwrap_or_else(|| GrayFrame::new(w, h, 0));
                        let to = textured(w, h, content, 0);
                        for k in 1..=len {
                            let t = k as f64 / (len + 1) as f64;
                            let mut mix = GrayFrame::new(w, h, 0);
                            mix.mutate(|d| {
                                for (i, px) in d.iter_mut().enumerate() {
                                    let v =
                                        from.data()[i] as f64 * (1.0 - t) + to.data()[i] as f64 * t;
                                    *px = v as u8;
                                }
                            });
                            frames.push(mix);
                        }
                    }
                    _ => frames.push(GrayFrame::new(w, h, (content * 23 % 256) as u8)),
                }
            }
            frames
        })
}

/// Parser configurations: the defaults, or every field drawn at random,
/// degenerate values (`window: 0`, `max_per_shot: 0`, `lookback: 0`,
/// `min_shot_len: 0`, `min_cut_distance < gradual_low`) included.
fn config_strategy() -> impl Strategy<Value = VideoParserConfig> {
    let random = (
        (0.0..0.4f64, 0.0..6.0f64, 0usize..30),
        (0.0..0.2f64, 0.0..1.0f64, 0usize..8),
        (0.0..0.3f64, 0usize..6),
        (0.0..1.0f64, 0usize..5),
    )
        .prop_map(
            |(
                (min_cut_distance, sigma_factor, window),
                (gradual_low, gradual_accum, min_shot_len),
                (drift_threshold, max_per_shot),
                (coherence_threshold, lookback),
            )| {
                VideoParserConfig {
                    shots: ShotDetectorConfig {
                        min_cut_distance,
                        sigma_factor,
                        window,
                        gradual_low,
                        gradual_accum,
                        min_shot_len,
                    },
                    keyframes: KeyframeConfig {
                        drift_threshold,
                        max_per_shot,
                    },
                    scenes: SceneConfig {
                        coherence_threshold,
                        lookback,
                    },
                }
            },
        );
    prop_oneof![1 => Just(VideoParserConfig::default()), 3 => random]
}

fn spec_of(frames: &[GrayFrame]) -> VideoSpec {
    VideoSpec {
        width: frames.first().map_or(0, GrayFrame::width),
        height: frames.first().map_or(0, GrayFrame::height),
        fps: 25.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn streaming_parser_matches_the_batch_oracle(
        frames in video_strategy(),
        config in config_strategy(),
    ) {
        let spec = spec_of(&frames);
        let streamed = VideoParser::new(config).parse_frames(spec, &frames);
        let batch = oracle::parse(&config, spec, &frames);
        prop_assert_eq!(streamed, batch, "config {:?}", config);
    }
}

/// The kernels' fast paths give today's bits.
fn bits(h: &dievent_video::Histogram) -> Vec<u64> {
    h.bins.iter().map(|b| b.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counting_histogram_matches_float_histogram(f in any_size_frame()) {
        prop_assert_eq!(bits(&f.histogram()), bits(&oracle::histogram(&f)));
    }

    #[test]
    fn row_slice_sobel_matches_clamped_sobel(f in any_size_frame(), threshold in 0u16..700) {
        prop_assert_eq!(f.edge_map(threshold), oracle::edge_map(&f, threshold));
    }

    #[test]
    fn packed_kernels_match_pixelwise_kernels(
        a in any_size_frame(),
        b in any_size_frame(),
        threshold in 0u16..700,
    ) {
        let b = b.resize(a.width(), a.height());
        prop_assert_eq!(
            edge_change_ratio(&a, &b, threshold).to_bits(),
            oracle::edge_change_ratio(&a, &b, threshold).to_bits()
        );
        prop_assert_eq!(pixel_mad(&a, &b).to_bits(), oracle::pixel_mad(&a, &b).to_bits());
        prop_assert_eq!(
            frame_distance(&a, &b).to_bits(),
            oracle::frame_distance(&a, &b).to_bits()
        );
    }
}

/// Frames of any size from 1×1 to 39×39 with independent random pixels
/// and a timestamp, so every rounding and averaging case is reached.
fn noise_frame() -> impl Strategy<Value = GrayFrame> {
    (
        1u32..40,
        1u32..40,
        proptest::collection::vec(0u8..=255, 39 * 39),
        0u32..1000,
    )
        .prop_map(|(w, h, mut pixels, t)| {
            pixels.truncate((w * h) as usize);
            GrayFrame::from_data(w, h, pixels).with_timestamp(Timestamp(f64::from(t) / 25.0))
        })
}

/// A `w × h` frame of hashed pixels.
fn hashed(w: u32, h: u32, seed: u32) -> GrayFrame {
    let pixels = (0..w * h)
        .map(|i| (i.wrapping_add(seed).wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    GrayFrame::from_data(w, h, pixels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn row_pair_downsample_matches_clamped_downsample(
        f in noise_frame(),
        g in any_size_frame(),
    ) {
        prop_assert_eq!(f.downsample2(), oracle::downsample2(&f));
        prop_assert_eq!(g.downsample2(), oracle::downsample2(&g));
    }

    #[test]
    fn row_slice_patch_matches_clamped_patch(
        f in noise_frame(),
        x0 in -50i64..50,
        y0 in -50i64..50,
        w in 0u32..48,
        h in 0u32..48,
    ) {
        prop_assert_eq!(f.patch(x0, y0, w, h), oracle::patch(&f, x0, y0, w, h));
    }

    #[test]
    fn precomputed_resize_matches_per_pixel_resize(
        f in noise_frame(),
        g in any_size_frame(),
        (cw, ch, seed) in (1u32..72, 1u32..72, 0u32..u32::MAX),
        w in 1u32..150,
        h in 1u32..150,
    ) {
        // Sources up to face-crop size, shrunk and stretched.
        for f in [f, g, hashed(cw, ch, seed)] {
            prop_assert_eq!(f.resize(w, h), oracle::resize(&f, w, h));
        }
    }
}

/// Every source size up to 7×7, including 1×N and N×1: downsample,
/// crops hanging off each edge (and wholly outside), and resizes to
/// sizes on both sides of the source.
#[test]
fn pixel_kernels_match_oracles_on_small_sizes() {
    for w in 1..=7u32 {
        for h in 1..=7u32 {
            let f = hashed(w, h, w * 31 + h);
            assert_eq!(f.downsample2(), oracle::downsample2(&f), "{w}x{h}");
            for x0 in -9..=9 {
                for y0 in [-9, -3, -1, 0, 1, 3, 9] {
                    for (pw, ph) in [(1, 1), (3, 2), (5, 5), (9, 4), (0, 3), (4, 0)] {
                        assert_eq!(
                            f.patch(x0, y0, pw, ph),
                            oracle::patch(&f, x0, y0, pw, ph),
                            "{w}x{h} patch at ({x0}, {y0}) of {pw}x{ph}"
                        );
                    }
                }
            }
            for (rw, rh) in [(1, 1), (1, 9), (9, 1), (2, 3), (w, h), (13, 11), (48, 48)] {
                assert_eq!(
                    f.resize(rw, rh),
                    oracle::resize(&f, rw, rh),
                    "{w}x{h} resized to {rw}x{rh}"
                );
            }
        }
    }
}

/// Square face crops of every side from 1 to 70 pixels (the
/// prototype's are 39–69), resized to 48 and to sizes on both sides of
/// the source, and 1-pixel rows and columns stretched and squeezed:
/// a source row feeds no output row, one, or many.
#[test]
fn row_reusing_resize_matches_oracle_at_crop_ratios() {
    for side in 1..=70u32 {
        let f = hashed(side, side, side);
        for target in [1, 2, 35, 47, 48, 49, 96, 141] {
            assert_eq!(
                f.resize(target, target),
                oracle::resize(&f, target, target),
                "{side}x{side} resized to {target}x{target}"
            );
        }
    }
    for (w, h) in [(1, 1), (1, 70), (70, 1), (3, 61), (61, 3), (48, 48)] {
        let f = hashed(w, h, w ^ h);
        for (rw, rh) in [
            (1, 1),
            (1, 48),
            (48, 1),
            (48, 48),
            (200, 2),
            (2, 200),
            (7, 300),
        ] {
            assert_eq!(
                f.resize(rw, rh),
                oracle::resize(&f, rw, rh),
                "{w}x{h} resized to {rw}x{rh}"
            );
        }
    }
}

/// A full camera frame through the monitor path (two downsamples) and
/// a 61-pixel face crop resized to 48×48, as the pipeline runs them.
#[test]
fn pixel_kernels_match_oracles_at_pipeline_sizes() {
    let frame = hashed(640, 480, 7);
    let half = frame.downsample2();
    assert_eq!(half, oracle::downsample2(&frame));
    assert_eq!(half.downsample2(), oracle::downsample2(&half));
    for (x0, y0) in [(-20, -20), (300, 200), (600, 450), (-61, 100), (640, 479)] {
        let crop = frame.patch(x0, y0, 61, 61);
        assert_eq!(crop, oracle::patch(&frame, x0, y0, 61, 61));
        assert_eq!(crop.resize(48, 48), oracle::resize(&crop, 48, 48));
    }
}

/// `pixel_mad` sums in 65,536-pixel blocks: a 320×240 pair spans two.
#[test]
fn pixel_mad_sums_exactly_across_blocks() {
    let noise = |seed: u32| {
        let mut f = GrayFrame::new(320, 240, 0);
        f.mutate(|d| {
            for (i, px) in d.iter_mut().enumerate() {
                *px = ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed) >> 24) as u8;
            }
        });
        f
    };
    let (a, b) = (noise(1), noise(0x7f00_0000));
    assert_eq!(
        pixel_mad(&a, &b).to_bits(),
        oracle::pixel_mad(&a, &b).to_bits()
    );
    let (black, white) = (GrayFrame::new(320, 240, 0), GrayFrame::new(320, 240, 255));
    assert_eq!(pixel_mad(&black, &white), 1.0);
}

proptest! {
    #[test]
    fn histogram_is_a_distribution(f in frame_strategy()) {
        let h = f.histogram();
        prop_assert!((h.total() - 1.0).abs() < 1e-9);
        prop_assert!(h.bins.iter().all(|&b| (0.0..=1.0).contains(&b)));
    }

    #[test]
    fn histogram_metrics_agree_on_identity(f in frame_strategy()) {
        let h = f.histogram();
        prop_assert!(histogram_chi_square(&h, &h).abs() < 1e-12);
        prop_assert!((histogram_intersection(&h, &h) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chi_square_is_symmetric_and_bounded(a in frame_strategy(), b in frame_strategy()) {
        let (ha, hb) = (a.histogram(), b.histogram());
        let d1 = histogram_chi_square(&ha, &hb);
        let d2 = histogram_chi_square(&hb, &ha);
        prop_assert!((d1 - d2).abs() < 1e-12);
        prop_assert!((0.0..=2.0 + 1e-9).contains(&d1));
    }

    #[test]
    fn frame_distance_is_a_premetric(a in frame_strategy()) {
        // Same dimensions needed: compare a frame against itself and a
        // re-filled variant.
        prop_assert!(frame_distance(&a, &a).abs() < 1e-9);
        let mut b = a.clone();
        b.fill(128);
        let d = frame_distance(&a, &b);
        let d2 = frame_distance(&b, &a);
        prop_assert!((d - d2).abs() < 1e-12, "symmetric");
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn resize_stays_in_range_and_preserves_flatness(
        f in frame_strategy(),
        w in 1u32..40,
        h in 1u32..40,
    ) {
        let r = f.resize(w, h);
        prop_assert_eq!((r.width(), r.height()), (w, h));
        // Bilinear interpolation never exceeds the input range.
        let (min_in, max_in) = f
            .data()
            .iter()
            .fold((255u8, 0u8), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        prop_assert!(r.data().iter().all(|&v| v >= min_in && v <= max_in));
    }

    #[test]
    fn downsample_halves_and_preserves_mean(f in frame_strategy()) {
        let d = f.downsample2();
        prop_assert_eq!(d.width(), (f.width() / 2).max(1));
        prop_assert_eq!(d.height(), (f.height() / 2).max(1));
        // Box filtering keeps the mean close — but only claim it for
        // even dimensions, where no row/column is dropped.
        if f.width() % 2 == 0 && f.height() % 2 == 0 {
            prop_assert!((d.mean() - f.mean()).abs() < 8.0);
        }
        // Range containment always holds.
        let (lo, hi) = f
            .data()
            .iter()
            .fold((255u8, 0u8), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        prop_assert!(d.data().iter().all(|&v| v >= lo && v <= hi));
    }

    #[test]
    fn shots_always_partition_the_video(
        frames in proptest::collection::vec(frame_strategy(), 0..30),
    ) {
        // Frames may differ in size here — a stream must share one
        // size, so normalize first.
        let normalized: Vec<GrayFrame> = frames.iter().map(|f| f.resize(16, 16)).collect();
        let parsed = VideoParser::default().parse_frames(spec_of(&normalized), &normalized);
        let (shots, boundaries) = (parsed.shots, parsed.boundaries);
        if normalized.is_empty() {
            prop_assert!(shots.is_empty());
        } else {
            prop_assert_eq!(shots.first().unwrap().start, 0);
            prop_assert_eq!(shots.last().unwrap().end, normalized.len());
            for w in shots.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            for b in &boundaries {
                prop_assert!(b.frame < normalized.len());
                prop_assert!(shots.iter().any(|s| s.start == b.frame));
            }
        }
    }

    #[test]
    fn patch_never_reads_out_of_bounds(
        f in frame_strategy(),
        x0 in -30i64..30,
        y0 in -30i64..30,
        w in 1u32..20,
        h in 1u32..20,
    ) {
        let p = f.patch(x0, y0, w, h);
        prop_assert_eq!((p.width(), p.height()), (w, h));
        // Clamp semantics: every value exists in the source frame.
        for &v in p.data() {
            prop_assert!(f.data().contains(&v));
        }
    }
}
