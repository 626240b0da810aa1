//! Drift-normalized timing: every chunk of work is bracketed by runs of a
//! calibration kernel, and its wall time is rescaled by how fast the host
//! ran the kernel at that moment.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::calib::{Calibrator, Kernel};
use crate::stats::Chunk;

/// Per-call timing inside one chunk.
#[derive(Default)]
pub struct Calls {
    latencies_s: Vec<f64>,
    items: u64,
}

impl Calls {
    /// Times one call into the program, which processes `items` items.
    pub fn time<R>(&mut self, items: u64, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = call();
        self.latencies_s.push(start.elapsed().as_secs_f64());
        self.items += items;
        out
    }
}

/// What a run measured, in a form that merges across processes.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Timing {
    /// Items timed in the measured window.
    pub items: u64,
    /// Raw wall seconds inside timed calls.
    pub wall_s: f64,
    /// Normalized seconds inside timed calls.
    pub normalized_s: f64,
    /// Normalized latencies of the run's first calls (a fixed number per
    /// process), in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Every calibration run, in seconds.
    pub calibrations_s: Vec<f64>,
    /// Normalized seconds of each cold start.
    pub setups_s: Vec<f64>,
    /// `latencies_ms` before normalization, for comparison.
    pub raw_latencies_ms: Vec<f64>,
    /// `setups_s` before normalization, for comparison.
    pub raw_setups_s: Vec<f64>,
}

impl Timing {
    /// Folds another process's timing into this one.
    pub fn merge(&mut self, other: Timing) {
        self.items += other.items;
        self.wall_s += other.wall_s;
        self.normalized_s += other.normalized_s;
        self.latencies_ms.extend(other.latencies_ms);
        self.calibrations_s.extend(other.calibrations_s);
        self.setups_s.extend(other.setups_s);
        self.raw_latencies_ms.extend(other.raw_latencies_ms);
        self.raw_setups_s.extend(other.raw_setups_s);
    }
}

/// Accumulates drift-normalized chunk timings for one run.
pub struct Meter {
    calibrator: Calibrator,
    sensitivity: f64,
    latency_calls: usize,
    last_calib_s: f64,
    last_scale: f64,
    timing: Timing,
}

impl Meter {
    /// A meter normalizing by `kernel` at `sensitivity` (see
    /// [`Chunk::scale`]), warmed up by one run of the kernel, that keeps the
    /// latencies of the first `latency_calls` measured calls. A fixed count
    /// keeps the latency percentiles on the same, seed-determined calls
    /// whatever the host's speed.
    pub fn new(kernel: Kernel, sensitivity: f64, latency_calls: usize) -> Meter {
        let mut calibrator = Calibrator::new(kernel);
        let last_calib_s = calibrator.run();
        Meter {
            calibrator,
            sensitivity,
            latency_calls,
            last_calib_s,
            last_scale: 1.0,
            timing: Timing::default(),
        }
    }

    /// Runs `work` between two calibrations. Only the time inside
    /// [`Calls::time`] counts; checks the workload makes between calls do
    /// not.
    fn bracket<T>(&mut self, work: impl FnOnce(&mut Calls) -> T) -> (T, Calls, Chunk) {
        let mut calls = Calls::default();
        let out = work(&mut calls);
        let after = self.calibrator.run();
        self.timing.calibrations_s.push(after);
        let chunk = Chunk {
            wall_s: calls.latencies_s.iter().sum(),
            calib_before_s: self.last_calib_s,
            calib_after_s: after,
        };
        self.last_calib_s = after;
        (out, calls, chunk)
    }

    /// Times one chunk of the measured window.
    pub fn chunk<T>(&mut self, work: impl FnOnce(&mut Calls) -> T) -> T {
        let (out, calls, chunk) = self.bracket(work);
        let scale = chunk.scale(self.calibrator.reference_s(), self.sensitivity);
        self.last_scale = scale;
        let t = &mut self.timing;
        t.items += calls.items;
        t.wall_s += chunk.wall_s;
        t.normalized_s += chunk.wall_s * scale;
        let keep = self.latency_calls.saturating_sub(t.latencies_ms.len());
        let kept = &calls.latencies_s[..keep.min(calls.latencies_s.len())];
        t.latencies_ms.extend(kept.iter().map(|l| l * scale * 1e3));
        t.raw_latencies_ms.extend(kept.iter().map(|l| l * 1e3));
        out
    }

    /// Times `work` as one cold start, kept out of the measured window.
    pub fn setup<T>(&mut self, work: impl FnOnce(&mut Calls) -> T) -> T {
        let (out, _, chunk) = self.bracket(work);
        let s = chunk.normalized_s(self.calibrator.reference_s(), self.sensitivity);
        self.timing.setups_s.push(s);
        self.timing.raw_setups_s.push(chunk.wall_s);
        out
    }

    /// The normalization factor of the last measured chunk, for timing
    /// work done right after it on the same scale.
    pub fn last_scale(&self) -> f64 {
        self.last_scale
    }

    /// Ends the run and hands over its timing.
    pub fn finish(self) -> Timing {
        self.timing
    }
}
