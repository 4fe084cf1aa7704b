//! Open-loop schedule and per-frame latency accounting.
//!
//! In an open loop every camera input has a due time fixed in advance,
//! independent of how fast the program runs. A frame's latency runs
//! from the due time of its last camera input until `poll` returns the
//! frame's analysis — measured from when the input was *due*, not from
//! when the generator got round to pushing it, so a stall that makes
//! the generator late is charged to every frame it delays.

use std::time::Duration;

/// When each camera input of a paced recording is due, relative to the
/// start of the run.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// One frame-set per period.
    pub period: Duration,
    /// Cameras per frame-set.
    pub cameras: usize,
    /// Staggered: camera `c` is due `c / cameras` of a period after
    /// camera 0. Otherwise every camera is due at the period's start.
    pub staggered: bool,
}

impl OpenLoop {
    /// Seconds after the start at which `camera`'s input for `frame` is due.
    pub fn due_s(&self, frame: usize, camera: usize) -> f64 {
        let period = self.period.as_secs_f64();
        let offset = if self.staggered {
            period * camera as f64 / self.cameras as f64
        } else {
            0.0
        };
        period * frame as f64 + offset
    }

    /// Due time of the frame's last camera input.
    pub fn frame_due_s(&self, frame: usize) -> f64 {
        (0..self.cameras)
            .map(|c| self.due_s(frame, c))
            .fold(f64::MIN, f64::max)
    }

    /// Every `(frame, camera)` input in due order.
    pub fn order(&self, frames: usize) -> Vec<(usize, usize)> {
        let mut order: Vec<(usize, usize)> = (0..frames)
            .flat_map(|f| (0..self.cameras).map(move |c| (f, c)))
            .collect();
        order.sort_by(|a, b| self.due_s(a.0, a.1).total_cmp(&self.due_s(b.0, b.1)));
        order
    }
}

/// Per-frame results and per-push lateness of one run.
#[derive(Debug, Default, Clone)]
pub struct LatencyLedger {
    /// Seconds each push started after its due time.
    pub lateness_s: Vec<f64>,
    /// `(frame, latency_s)` for every frame `poll` returned.
    pub latency_s: Vec<(usize, f64)>,
}

impl LatencyLedger {
    /// Records that an input due at `due_s` was pushed at `pushed_s`.
    pub fn pushed(&mut self, due_s: f64, pushed_s: f64) {
        self.lateness_s.push(pushed_s - due_s);
    }

    /// Records that `frame`, whose last input was due at `due_s`, was
    /// returned by `poll` at `done_s`.
    pub fn done(&mut self, frame: usize, due_s: f64, done_s: f64) {
        self.latency_s.push((frame, done_s - due_s));
    }

    /// Latencies in milliseconds, in the order frames were returned.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latency_s.iter().map(|&(_, s)| s * 1e3).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live() -> OpenLoop {
        OpenLoop {
            period: Duration::from_millis(10),
            cameras: 4,
            staggered: true,
        }
    }

    #[test]
    fn staggered_cameras_are_spread_over_the_period() {
        let s = live();
        assert!((s.due_s(0, 0) - 0.0).abs() < 1e-12);
        assert!((s.due_s(0, 1) - 0.0025).abs() < 1e-12);
        assert!((s.due_s(3, 2) - 0.035).abs() < 1e-12);
        assert!((s.frame_due_s(3) - 0.0375).abs() < 1e-12);
        assert_eq!(&s.order(2)[..5], &[(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]);

        let sync = OpenLoop {
            staggered: false,
            ..s
        };
        assert!((sync.frame_due_s(3) - 0.030).abs() < 1e-12);
    }

    #[test]
    fn latency_counts_from_due_time_when_the_generator_runs_late() {
        let s = live();
        let mut ledger = LatencyLedger::default();
        // Frame 5's inputs are due at 50.0, 52.5, 55.0 and 57.5 ms, but
        // a 20 ms stall makes every push late; the result appears at 80 ms.
        for c in 0..4 {
            let due = s.due_s(5, c);
            ledger.pushed(due, 0.0775 + 0.0001 * c as f64);
        }
        ledger.done(5, s.frame_due_s(5), 0.080);
        // Latency runs from the last input's due time (57.5 ms), not
        // from its late push (77.8 ms): 22.5 ms, not 2.2 ms.
        let lat = ledger.latencies_ms();
        assert_eq!(lat.len(), 1);
        assert!((lat[0] - 22.5).abs() < 1e-9, "latency {lat:?}");
        // Lateness is recorded per push: 27.5, 25.1, 22.7, 20.3 ms.
        let late: Vec<f64> = ledger.lateness_s.iter().map(|s| s * 1e3).collect();
        for (got, want) in late.iter().zip([27.5, 25.1, 22.7, 20.3]) {
            assert!((got - want).abs() < 1e-9, "lateness {late:?}");
        }
    }
}
