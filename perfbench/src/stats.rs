//! Order statistics and host-drift normalization shared by every workload.

/// Median of `values` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Percentiles the tail rule considers, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency together with the percentile and sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 95.0 for p95).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank, or `None` when
/// even the median does not (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&percentile| {
        // Nearest rank: the smallest rank covering `percentile`% of samples.
        let rank = ((percentile / 100.0) * n as f64).ceil() as usize;
        let beyond = n.checked_sub(rank.max(1))?;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile,
            value: sorted[rank - 1],
            samples: n,
            beyond,
        })
    })
}

/// One timed chunk of work, bracketed by two runs of the calibration
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    /// Wall time of the chunk, in seconds.
    pub wall_s: f64,
    /// Calibration kernel time measured just before the chunk, in seconds.
    pub calib_before_s: f64,
    /// Calibration kernel time measured just after the chunk, in seconds.
    pub calib_after_s: f64,
}

impl Chunk {
    /// The factor that maps this chunk's wall time onto the reference host
    /// speed: `(calib_ref / calib_measured)^sensitivity`, with the faster of
    /// the two bracketing calibrations as the measurement (a calibration
    /// that was preempted only ever reads slow, so the minimum is the less
    /// disturbed reading of the host's speed). `sensitivity` is how strongly
    /// the workload's speed follows the kernel's: 1 when a host that slows
    /// the kernel by 10% slows the workload by 10%.
    pub fn scale(&self, calib_ref_s: f64, sensitivity: f64) -> f64 {
        (calib_ref_s / self.calib_before_s.min(self.calib_after_s)).powf(sensitivity)
    }

    /// The chunk's drift-normalized time, in seconds.
    pub fn normalized_s(&self, calib_ref_s: f64, sensitivity: f64) -> f64 {
        self.wall_s * self.scale(calib_ref_s, sensitivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_the_count() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&samples).expect("200 samples support a tail");
        // p95 of 200 is rank 190: exactly ten samples beyond it; p98
        // (rank 196) would leave only four.
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.samples, 200);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_climbs_with_more_samples_and_gives_up_below_20() {
        let many: Vec<f64> = (0..2_000).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.percentile), Some(99.5));
        let few: Vec<f64> = (0..20).map(f64::from).collect();
        let t = tail(&few).expect("20 samples support a median");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 9.0, 10));
        assert_eq!(tail(&few[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut samples: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let a = tail(&samples);
        samples.sort_by(f64::total_cmp);
        assert_eq!(a, tail(&samples));
    }

    /// A synthetic host whose speed drifts from chunk to chunk: every chunk
    /// does the same work, and the chunk and its calibrations slow by the
    /// host's factor at that moment. Normalization recovers the same time
    /// for every chunk, while raw wall time swings with the host.
    #[test]
    fn normalization_cancels_synthetic_drift() {
        let (work_s, calib_ref_s) = (0.25, 0.004);
        let slowdown = [1.0, 1.3, 1.3, 0.9, 1.1, 1.25, 1.0];
        let chunks: Vec<Chunk> = slowdown
            .iter()
            .map(|&f| Chunk {
                wall_s: work_s * f,
                calib_before_s: calib_ref_s * f,
                calib_after_s: calib_ref_s * f,
            })
            .collect();
        for chunk in &chunks {
            assert!((chunk.normalized_s(calib_ref_s, 1.0) - work_s).abs() < 1e-12);
        }
        let raw: Vec<f64> = chunks.iter().map(|c| c.wall_s).collect();
        assert!(
            raw.iter().cloned().fold(0.0, f64::max) / raw.iter().cloned().fold(1.0, f64::min) > 1.4
        );
    }

    /// Two runs of the same work on hosts drifting differently report the
    /// same normalized total, and the reference unit cancels in their
    /// ratio.
    #[test]
    fn normalized_totals_agree_across_drift_profiles() {
        let work_s = [0.1, 0.3, 0.2, 0.4];
        let total = |slowdown: &[f64], calib_ref_s: f64| -> f64 {
            work_s
                .iter()
                .zip(slowdown)
                .map(|(w, f)| {
                    Chunk {
                        wall_s: w * f,
                        calib_before_s: 0.001 * f,
                        calib_after_s: 0.001 * f * 1.5,
                    }
                    .normalized_s(calib_ref_s, 1.0)
                })
                .sum()
        };
        let steady = total(&[1.0, 1.0, 1.0, 1.0], 0.001);
        let drifting = total(&[1.2, 0.8, 1.5, 1.1], 0.001);
        assert!((steady - drifting).abs() < 1e-12);
        assert!((total(&[1.2, 0.8, 1.5, 1.1], 0.002) / drifting - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_preempted_calibration_does_not_inflate_the_scale() {
        let chunk = Chunk {
            wall_s: 1.0,
            calib_before_s: 0.010,
            calib_after_s: 0.030,
        };
        assert!((chunk.scale(0.010, 1.0) - 1.0).abs() < 1e-12);
    }

    /// A workload that slows by 1.2^1.25 when the kernel slows by 1.2 is
    /// normalized exactly at sensitivity 1.25, and under-corrected at 1.
    #[test]
    fn sensitivity_matches_a_workload_that_follows_the_kernel_more_steeply() {
        let (calib_ref_s, work_s, slow) = (0.001, 0.05, 1.2_f64);
        let chunk = Chunk {
            wall_s: work_s * slow.powf(1.25),
            calib_before_s: calib_ref_s * slow,
            calib_after_s: calib_ref_s * slow,
        };
        assert!((chunk.normalized_s(calib_ref_s, 1.25) - work_s).abs() < 1e-12);
        assert!(chunk.normalized_s(calib_ref_s, 1.0) > work_s * 1.04);
    }
}
