//! Calibration kernels: fixed work, owned by the benchmark, whose run time
//! tracks how fast the host is right now.
//!
//! The kernels share no code with the measured program, so a change to the
//! program cannot move them. Each run does identical work on identical
//! data; only the host's state (sibling-thread and cache contention from
//! neighbours, frequency, preemption) changes its duration. Each workload
//! uses the kernel whose time tracked its own best; NOTES.md gives the
//! evidence, including the kernels that lost.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const SORT_LEN: usize = 32 * 1024;
const CHURN_ROUNDS: u64 = 6_000;
const CHURN_KEPT: usize = 64;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One calibration kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Refill 32 Ki `u64` (256 KiB) from a fixed xorshift stream and sort
    /// them: branchy, L2-resident work, like the analysis engine's.
    Sort,
    /// Allocator churn: thousands of short-lived queues of up to 24 words,
    /// filtered into vectors, with a ring of 64 kept alive — the shape of
    /// the simulator's per-job queues and per-cycle scratch vectors.
    Churn,
}

impl Kernel {
    /// The reference duration `calib_ref` of one run, in seconds: a fixed
    /// unit that maps normalized times onto roughly real seconds on a
    /// 2-vCPU x86-64 cloud host. It cancels in every comparison between
    /// two runs of the benchmark.
    pub fn reference_s(self) -> f64 {
        match self {
            Kernel::Sort => 0.85e-3,
            Kernel::Churn => 1.0e-3,
        }
    }
}

/// A kernel with its buffer, allocated once so a sort run allocates
/// nothing.
pub struct Calibrator {
    kernel: Kernel,
    buf: Vec<u64>,
}

impl Calibrator {
    /// Prepares `kernel`.
    pub fn new(kernel: Kernel) -> Calibrator {
        let len = if kernel == Kernel::Sort { SORT_LEN } else { 0 };
        Calibrator {
            kernel,
            buf: vec![0; len],
        }
    }

    /// The kernel's reference duration, in seconds.
    pub fn reference_s(&self) -> f64 {
        self.kernel.reference_s()
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        match self.kernel {
            Kernel::Sort => {
                for x in &mut self.buf {
                    *x = xorshift(&mut state);
                }
                self.buf.sort_unstable();
                black_box(self.buf[SORT_LEN / 2]);
            }
            Kernel::Churn => {
                let mut kept: Vec<VecDeque<u64>> = Vec::with_capacity(CHURN_KEPT);
                for round in 0..CHURN_ROUNDS {
                    let len = (xorshift(&mut state) % 24) as usize;
                    let queue: VecDeque<u64> = (0..len as u64).map(|k| k ^ round).collect();
                    let even: Vec<u64> = queue.iter().copied().filter(|x| x & 1 == 0).collect();
                    black_box(&even);
                    if kept.len() < CHURN_KEPT {
                        kept.push(queue);
                    } else {
                        kept[(state % CHURN_KEPT as u64) as usize] = queue;
                    }
                }
                black_box(kept.len());
            }
        }
        start.elapsed().as_secs_f64()
    }
}
