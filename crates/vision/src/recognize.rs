//! Face recognition — the OpenFace-library substitute's recognition
//! half.
//!
//! Each enrolled person is represented by an appearance embedding;
//! probes match to the nearest gallery embedding under a distance
//! threshold. The embedding is deliberately simple but honest: the mean
//! luminance of the face (identity-coded in the synthetic footage just
//! as the paper's prototype color-codes its participants) concatenated
//! with a coarse radial luminance profile of the normalized face patch,
//! which captures per-identity texture.

use crate::detect::FaceDetection;
use crate::types::PersonId;
use dievent_video::GrayFrame;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Length of the radial profile part of the embedding.
const PROFILE_BINS: usize = 8;

/// An appearance embedding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding(Vec<f64>);

impl Embedding {
    /// Euclidean distance between embeddings.
    pub fn distance(&self, other: &Embedding) -> f64 {
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// Computes the embedding of a face from its detection and a normalized
/// (resized) face patch.
///
/// The mean-luminance channel is weighted heavily: it is the dominant
/// identity cue, with the radial profile breaking ties between
/// similar tones.
pub fn embed(det: &FaceDetection, patch: &GrayFrame) -> Embedding {
    let mut v = Vec::with_capacity(1 + PROFILE_BINS);
    v.push(det.mean_luminance);

    // Radial profile: mean luminance in concentric rings around the
    // patch centre, normalized to the patch mean to decouple from tone.
    // Ring sums are integers, exact as the f64 they convert to; the
    // last slot collects the pixels outside the inscribed circle, so
    // the nine slots add up to the patch's own sum.
    let mut sums = [0u64; PROFILE_BINS + 1];
    let counts = RINGS.with_borrow_mut(|rings| {
        let rings = rings.for_size(patch.width(), patch.height());
        let data = patch.data();
        for span in &rings.spans {
            sums[usize::from(span.ring)] += data[span.start..span.end]
                .iter()
                .map(|&v| u64::from(v))
                .sum::<u64>();
        }
        rings.counts
    });
    // `GrayFrame::mean` from the slot sums (an empty patch's is 0).
    let pixels = patch.data().len().max(1);
    let mean = (sums.iter().sum::<u64>() as f64 / pixels as f64).max(1.0);
    for (s, c) in sums.iter().zip(&counts).take(PROFILE_BINS) {
        // Scaled to be secondary to the tone channel.
        v.push(if *c > 0 {
            *s as f64 / *c as f64 / mean * 10.0
        } else {
            0.0
        });
    }
    Embedding(v)
}

thread_local! {
    /// The ring table of the last patch size embedded on this thread:
    /// the pipeline crops every face to one size.
    static RINGS: RefCell<RingTable> = const {
        RefCell::new(RingTable {
            width: 0,
            height: 0,
            spans: Vec::new(),
            counts: [0; PROFILE_BINS + 1],
        })
    };
}

/// The profile rings of a `width × height` patch as runs of row-major
/// pixels in one ring, and each ring's pixel count; ring
/// [`PROFILE_BINS`] holds the pixels outside the inscribed circle.
///
/// A pixel's ring never falls as its distance from the centre grows, so
/// a row crosses each ring in at most two spans.
struct RingTable {
    width: u32,
    height: u32,
    spans: Vec<RingSpan>,
    counts: [usize; PROFILE_BINS + 1],
}

/// Pixels `[start, end)` of a patch, row major, all in `ring`.
struct RingSpan {
    start: usize,
    end: usize,
    ring: u8,
}

impl RingTable {
    /// The table for `width × height`, rebuilt when the size changes.
    fn for_size(&mut self, width: u32, height: u32) -> &RingTable {
        if (self.width, self.height) != (width, height) {
            let (w, h) = (width as f64, height as f64);
            let (cx, cy) = (w / 2.0, h / 2.0);
            let max_r = cx.min(cy);
            self.spans.clear();
            self.counts = [0; PROFILE_BINS + 1];
            for y in 0..height {
                for x in 0..width {
                    let dx = x as f64 + 0.5 - cx;
                    let dy = y as f64 + 0.5 - cy;
                    let r = (dx * dx + dy * dy).sqrt() / max_r;
                    let ring = if r >= 1.0 {
                        PROFILE_BINS
                    } else {
                        (r * PROFILE_BINS as f64) as usize
                    };
                    self.counts[ring] += 1;
                    let at = (y * width + x) as usize;
                    match self.spans.last_mut() {
                        Some(span) if usize::from(span.ring) == ring => span.end = at + 1,
                        _ => self.spans.push(RingSpan {
                            start: at,
                            end: at + 1,
                            ring: ring as u8,
                        }),
                    }
                }
            }
            (self.width, self.height) = (width, height);
        }
        self
    }
}

/// Recognizer tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecognizerConfig {
    /// Maximum embedding distance for a match.
    pub max_distance: f64,
}

impl Default for RecognizerConfig {
    fn default() -> Self {
        RecognizerConfig { max_distance: 14.0 }
    }
}

/// A successful gallery match.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recognition {
    /// The matched identity.
    pub person: PersonId,
    /// Embedding distance of the match.
    pub distance: f64,
}

/// An enrolled gallery of identities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaceGallery {
    entries: Vec<(PersonId, Embedding)>,
    config: RecognizerConfig,
}

impl Default for FaceGallery {
    fn default() -> Self {
        FaceGallery::new(RecognizerConfig::default())
    }
}

impl FaceGallery {
    /// Creates an empty gallery.
    pub fn new(config: RecognizerConfig) -> Self {
        FaceGallery {
            entries: Vec::new(),
            config,
        }
    }

    /// Number of enrolled identities.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is enrolled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enrolls a person from a reference detection + patch. Re-enrolling
    /// the same id replaces the previous embedding.
    pub fn enroll(&mut self, person: PersonId, det: &FaceDetection, patch: &GrayFrame) {
        let emb = embed(det, patch);
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == person) {
            e.1 = emb;
        } else {
            self.entries.push((person, emb));
        }
    }

    /// Matches a probe against the gallery.
    pub fn recognize(&self, det: &FaceDetection, patch: &GrayFrame) -> Option<Recognition> {
        let probe = embed(det, patch);
        let (person, distance) = self
            .entries
            .iter()
            .map(|(p, e)| (*p, e.distance(&probe)))
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        (distance <= self.config.max_distance).then_some(Recognition { person, distance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic face patch with the given tone and a per-identity
    /// freckle texture.
    fn face_fixture(tone: u8, texture_seed: u32) -> (FaceDetection, GrayFrame) {
        let mut patch = GrayFrame::new(48, 48, 0);
        patch.fill_disk(24.0, 24.0, 22.0, tone);
        // Freckles.
        for k in 0..10u32 {
            let h = k.wrapping_mul(2654435761).wrapping_add(texture_seed * 77);
            let x = 12.0 + (h % 24) as f64;
            let y = 12.0 + ((h >> 8) % 24) as f64;
            patch.fill_disk(x, y, 1.2, tone.saturating_sub(30));
        }
        let det = FaceDetection {
            cx: 100.0,
            cy: 100.0,
            radius: 22.0,
            bbox: (78, 78, 122, 122),
            area: 1520,
            mean_luminance: tone as f64 - 3.0,
        };
        (det, patch)
    }

    #[test]
    fn enroll_and_recognize_distinct_tones() {
        let mut g = FaceGallery::new(RecognizerConfig::default());
        let people: Vec<(PersonId, u8)> = vec![
            (PersonId(0), 250),
            (PersonId(1), 225),
            (PersonId(2), 200),
            (PersonId(3), 175),
        ];
        for &(p, tone) in &people {
            let (det, patch) = face_fixture(tone, p.0 as u32);
            g.enroll(p, &det, &patch);
        }
        assert_eq!(g.len(), 4);
        for &(p, tone) in &people {
            // Probe with slightly perturbed tone (shading/noise).
            let (mut det, patch) = face_fixture(tone, p.0 as u32);
            det.mean_luminance += 4.0;
            let r = g.recognize(&det, &patch).expect("match");
            assert_eq!(r.person, p, "tone {tone} must match {p}");
        }
    }

    #[test]
    fn unknown_face_rejected() {
        let mut g = FaceGallery::new(RecognizerConfig::default());
        let (det, patch) = face_fixture(250, 0);
        g.enroll(PersonId(0), &det, &patch);
        // A much darker stranger.
        let (sdet, spatch) = face_fixture(120, 9);
        assert!(g.recognize(&sdet, &spatch).is_none());
    }

    #[test]
    fn empty_gallery_matches_nothing() {
        let g = FaceGallery::new(RecognizerConfig::default());
        let (det, patch) = face_fixture(200, 0);
        assert!(g.recognize(&det, &patch).is_none());
    }

    #[test]
    fn re_enroll_replaces() {
        let mut g = FaceGallery::new(RecognizerConfig::default());
        let (det, patch) = face_fixture(250, 0);
        g.enroll(PersonId(0), &det, &patch);
        let (det2, patch2) = face_fixture(180, 0);
        g.enroll(PersonId(0), &det2, &patch2);
        assert_eq!(g.len(), 1);
        let r = g.recognize(&det2, &patch2).expect("match after re-enroll");
        assert_eq!(r.person, PersonId(0));
        assert!(r.distance < 1.0);
    }

    #[test]
    fn embedding_distance_properties() {
        let (det, patch) = face_fixture(220, 1);
        let e = embed(&det, &patch);
        assert_eq!(e.distance(&e), 0.0);
        let (det2, patch2) = face_fixture(200, 2);
        let e2 = embed(&det2, &patch2);
        assert!(
            (e.distance(&e2) - e2.distance(&e)).abs() < 1e-12,
            "symmetric"
        );
        assert!(e.distance(&e2) > 0.0);
    }
}
