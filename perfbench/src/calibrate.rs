//! Host-speed calibration.
//!
//! On a shared host the speed of a vCPU changes by a third and more
//! over minutes as neighbours come and go: the same process then needs
//! that much more CPU per frame, and every timing moves together. The
//! benchmark times a fixed computation of its own between iterations,
//! and the closed-loop workloads divide their compute-bound timings by
//! the run's slowdown against a fixed nominal time, so a run reports
//! what the program would take on the host in its nominal state. The
//! computation is shaped like the pipeline's own work — a dense
//! multiply-add sweep as in MLP training, and a 3×3 neighbour
//! comparison over a 640×480 frame as in detection and LBP — and calls
//! nothing in the program, so a change to the program leaves it as it
//! is.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's nominal time, in seconds: about its mean time on the
/// two-vCPU host the bounds were set on. Reported figures are scaled to
/// it; its value sets only their scale, not their spread.
pub const NOMINAL_S: f64 = 0.0040;

/// One timed pass of the calibration kernel, in seconds.
fn kernel_s() -> f64 {
    const N: usize = 128;
    const SWEEPS: usize = 64;
    const W: usize = 640;
    const H: usize = 480;
    let weights: Vec<f64> = (0..N * N)
        .map(|i| ((i * 7919 % 1000) as f64 - 500.0) * 1e-4)
        .collect();
    let image: Vec<u8> = (0..W * H)
        .map(|i| ((i * 2_654_435_761) >> 13) as u8)
        .collect();
    let (weights, image) = (black_box(weights), black_box(image));

    let start = Instant::now();
    let mut x = vec![0.5f64; N];
    let mut y = vec![0.0f64; N];
    for _ in 0..SWEEPS {
        for (row, out) in weights.chunks_exact(N).zip(y.iter_mut()) {
            let s: f64 = row.iter().zip(&x).map(|(w, v)| w * v).sum();
            *out = s / (1.0 + s.abs());
        }
        std::mem::swap(&mut x, &mut y);
    }
    let mut codes = 0u64;
    for r in (1..H - 1).chain(1..H - 1) {
        for c in 1..W - 1 {
            let centre = image[r * W + c];
            let mut code = 0u32;
            for (bit, (dr, dc)) in [
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 2),
                (2, 1),
                (2, 0),
                (1, 0),
            ]
            .into_iter()
            .enumerate()
            {
                let v = image[(r + dr - 1) * W + (c + dc - 1)];
                code |= u32::from(v >= centre) << bit;
            }
            codes += u64::from(code);
        }
    }
    black_box((x, codes));
    start.elapsed().as_secs_f64()
}

/// One calibration sample: the kernel on every logical CPU at once,
/// since the program uses them all and their speeds differ; per CPU the
/// fastest of three passes, so a preemption during one pass does not
/// count as a slow host. Returns the mean over the CPUs.
pub fn sample_s() -> f64 {
    let threads = crate::nproc();
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| (0..3).map(|_| kernel_s()).fold(f64::INFINITY, f64::min)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The host's slowdown over a run: the mean sample against
/// [`NOMINAL_S`] (above 1 when the host runs slower than nominal).
pub fn slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_sample_over_nominal() {
        let s = slowdown(&[NOMINAL_S * 2.0, NOMINAL_S * 1.5, NOMINAL_S * 2.5]);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(slowdown(&[]), 1.0);
    }

    #[test]
    fn a_sample_takes_measurable_time() {
        let s = sample_s();
        assert!(s > 0.0 && s < 1.0, "{s}");
    }
}
