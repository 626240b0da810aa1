//! `paper_sweep`: the six paper configurations over the Fig. 3a cores axis
//! and the Fig. 3c cache-size axis, one utilization point per call.
//!
//! Fig. 3 is about twenty times Fig. 2 and dominates regenerating the
//! paper's artifacts. The two axes vary task-set size (8 to 40 tasks) and
//! block-set size against the engine's retained curves and BAO slots. The
//! call into the program is `evaluate_point_chained`, exactly as `fig3a`/`fig3c`
//! make it, with one `ChainState` carried across every point of a run.

use std::time::Instant;

use cpa_analysis::{
    analyze_with, AnalysisConfig, AnalysisContext, AnalysisScratch, BusPolicy, ContextBuffers,
    CrpdApproach, PersistenceMode,
};
use cpa_experiments::runner::{
    default_grid, derive_seed, evaluate_point_chained, platform_for, ChainState, SweepOptions,
};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::calib::Kernel;
use crate::meter::{Calls, Meter};
use crate::report::{vm_hwm_mb, Layers, Metrics, Part};
use crate::Opts;

/// Task sets per utilization point.
const SETS_PER_POINT: usize = 12;
/// Calibration kernel and the workload's sensitivity to it; NOTES.md gives
/// the evidence for both.
const SENSITIVITY: f64 = 1.0;
const KERNEL: Kernel = Kernel::Sort;
/// Rounds always measured; the latency percentiles, `schedulable_ratio`
/// and `peak_rss_mb` cover them, so they do not depend on how fast the
/// host is.
const PREFIX_ROUNDS: u64 = 4;
/// Cold starts measured for `setup_s`.
const SETUPS: usize = 2;
/// Keeps the round seeds apart from other derived streams.
const ROUND_STREAM: u64 = 0x5EE9;

/// Solve-time and inner-iteration metrics of each paper configuration, in
/// `configs()` order.
pub const SOLVES: [(&str, &str); 6] = [
    (
        "analysis.solve_us.fp.aware",
        "analysis.inner_iters.fp.aware",
    ),
    (
        "analysis.solve_us.fp.oblivious",
        "analysis.inner_iters.fp.oblivious",
    ),
    (
        "analysis.solve_us.rr.aware",
        "analysis.inner_iters.rr.aware",
    ),
    (
        "analysis.solve_us.rr.oblivious",
        "analysis.inner_iters.rr.oblivious",
    ),
    (
        "analysis.solve_us.tdma.aware",
        "analysis.inner_iters.tdma.aware",
    ),
    (
        "analysis.solve_us.tdma.oblivious",
        "analysis.inner_iters.tdma.oblivious",
    ),
];

/// The six paper configurations, aware before oblivious per bus (the
/// figure's order), at the paper's two slots per core.
pub fn configs() -> [AnalysisConfig; 6] {
    let [fp, rr, tdma] = BusPolicy::paper_buses(2);
    let (aware, oblivious) = (PersistenceMode::Aware, PersistenceMode::Oblivious);
    [
        (fp, aware),
        (fp, oblivious),
        (rr, aware),
        (rr, oblivious),
        (tdma, aware),
        (tdma, oblivious),
    ]
    .map(|(bus, mode)| AnalysisConfig::new(bus, mode))
}

/// One row per x-value: the Fig. 3a cores axis, then the Fig. 3c cache axis.
fn rows() -> Vec<GeneratorConfig> {
    let cores = [2, 4, 6, 8, 10].map(|c| GeneratorConfig::paper_default().with_cores(c));
    let caches =
        [32, 64, 128, 256, 512, 1024].map(|s| GeneratorConfig::paper_default().with_cache_sets(s));
    cores.into_iter().chain(caches).collect()
}

fn round_options(seed: u64, round: u64) -> SweepOptions {
    SweepOptions::paper()
        .with_sets_per_point(SETS_PER_POINT)
        .with_threads(1)
        .with_seed(derive_seed(seed, ROUND_STREAM, round))
}

/// Schedulable sets per configuration at one point, plus the sets seen.
type Tally = ([u64; 6], u64);

/// Drives one row (every utilization point of one x-value) through the
/// sweep, checking aware ≥ oblivious at each point.
fn drive_row(
    base: &GeneratorConfig,
    opts: &SweepOptions,
    chain: &mut ChainState,
    calls: &mut Calls,
    part: &mut Part,
) -> Vec<Tally> {
    let configs = configs();
    default_grid()
        .iter()
        .enumerate()
        .map(|(ui, &u)| {
            let gen = base.clone().with_per_core_utilization(u);
            let stats = calls.time(SETS_PER_POINT as u64, || {
                evaluate_point_chained(
                    &gen,
                    &configs,
                    opts,
                    ui as u64,
                    CrpdApproach::EcbUnion,
                    chain,
                )
            });
            let tally: Tally = (
                std::array::from_fn(|i| stats.config(i).schedulable_count()),
                stats.config(0).samples(),
            );
            let dominated = (0..3).all(|b| tally.0[2 * b] >= tally.0[2 * b + 1]);
            part.check(dominated && tally.1 == SETS_PER_POINT as u64, || {
                format!("point u={u}: tallies {tally:?} break aware >= oblivious")
            });
            tally
        })
        .collect()
}

/// Replays one row layer by layer — generation, context fill, one solve per
/// configuration — timing each layer, and returns the per-point tallies.
fn replay_row(
    base: &GeneratorConfig,
    opts: &SweepOptions,
    state: &mut (AnalysisScratch, ContextBuffers),
    layers: &mut Layers,
    scale: f64,
) -> Vec<Tally> {
    let configs = configs();
    let (scratch, buffers) = state;
    default_grid()
        .iter()
        .enumerate()
        .map(|(ui, &u)| {
            let gen = base.clone().with_per_core_utilization(u);
            let generator = TaskSetGenerator::new(gen.clone()).expect("paper configs are valid");
            let platform = platform_for(&gen);
            let mut tally: Tally = ([0; 6], 0);
            for set in 0..SETS_PER_POINT {
                let mut rng =
                    ChaCha8Rng::seed_from_u64(derive_seed(opts.seed, ui as u64, set as u64));
                let t = Instant::now();
                let tasks = generator.generate(&mut rng).expect("generation succeeds");
                layers.add(
                    "workload.generate_us",
                    t.elapsed().as_secs_f64() * scale * 1e6,
                );
                let t = Instant::now();
                let ctx = AnalysisContext::with_crpd_approach_buffers(
                    &platform,
                    &tasks,
                    CrpdApproach::EcbUnion,
                    buffers,
                )
                .expect("task set fits platform");
                layers.add(
                    "analysis.context_us",
                    t.elapsed().as_secs_f64() * scale * 1e6,
                );
                for (i, cfg) in configs.iter().enumerate() {
                    let t = Instant::now();
                    let result = analyze_with(&ctx, cfg, scratch);
                    let (solve, iters) = SOLVES[i];
                    layers.add(solve, t.elapsed().as_secs_f64() * scale * 1e6);
                    layers.add(
                        iters,
                        result.inner_iteration_counts().iter().sum::<u64>() as f64,
                    );
                    layers.add("analysis.outer_iters", f64::from(result.outer_iterations()));
                    tally.0[i] += u64::from(result.is_schedulable());
                }
                ctx.recycle(buffers);
                tally.1 += 1;
            }
            tally
        })
        .collect()
}

fn compare(part: &mut Part, driven: &[Tally], replayed: &[Tally]) {
    for (ui, (d, r)) in driven.iter().zip(replayed).enumerate() {
        part.check(d == r, || {
            format!("point {ui}: sweep tallies {d:?} differ from replay {r:?}")
        });
    }
}

/// Runs the workload: per-layer metrics when tracing, otherwise none
/// (the caller derives the end-to-end ones from the returned part).
pub fn run(opts: &Opts) -> (Part, Metrics) {
    let mut part = Part::default();
    let rows = rows();
    let mut meter = Meter::new(
        KERNEL,
        SENSITIVITY,
        PREFIX_ROUNDS as usize * rows.len() * default_grid().len(),
    );
    let seed = opts.stream_seed();
    let first = round_options(seed, 0);

    for _ in 0..SETUPS {
        meter.setup(|calls| {
            let mut chain = ChainState::default();
            drive_row(&rows[0], &first, &mut chain, calls, &mut part)
        });
    }

    let mut chain = ChainState::default();
    let mut layers = Layers::default();
    let mut replay_state = (AnalysisScratch::new(), ContextBuffers::new());
    let mut first_row = Vec::new();
    let mut traced_wall_s = 0.0;
    let start = Instant::now();
    let mut round = 0u64;
    // Whole rounds only: a round covers every row once, so a run never
    // over-represents the cheap first rows.
    while round < PREFIX_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        let sweep = round_options(seed, round);
        for (r, base) in rows.iter().enumerate() {
            let traced = Instant::now();
            let driven = meter.chunk(|calls| {
                if opts.trace {
                    layers.counting(|| drive_row(base, &sweep, &mut chain, calls, &mut part))
                } else {
                    drive_row(base, &sweep, &mut chain, calls, &mut part)
                }
            });
            if opts.trace {
                let scale = meter.last_scale();
                let replayed = replay_row(base, &sweep, &mut replay_state, &mut layers, scale);
                compare(&mut part, &driven, &replayed);
                traced_wall_s += traced.elapsed().as_secs_f64();
            }
            if round < PREFIX_ROUNDS {
                for t in &driven {
                    part.schedulable += t.0.iter().sum::<u64>();
                    part.judged += 6 * t.1;
                }
                if round == 0 && r == 0 {
                    first_row = driven;
                }
            }
        }
        round += 1;
        if round == PREFIX_ROUNDS {
            part.peak_rss_mb.push(vm_hwm_mb());
        }
    }
    part.timing = meter.finish();

    let mut metrics = Vec::new();
    if opts.trace {
        let layer_us: f64 = ["workload.generate_us", "analysis.context_us"]
            .into_iter()
            .chain(SOLVES.iter().map(|(solve, _)| *solve))
            .map(|n| layers.sum(n))
            .sum();
        let t = &part.timing;
        let driver_us = (t.normalized_s * 1e6 - layer_us) / t.items as f64;
        metrics.push(("experiments.driver_us", driver_us));
        for name in [
            "workload.generate_us",
            "analysis.context_us",
            "analysis.outer_iters",
        ]
        .into_iter()
        .chain(SOLVES.iter().flat_map(|(solve, iters)| [*solve, *iters]))
        {
            metrics.push((name, layers.mean(name)));
        }
        metrics.extend(layers.engine_ratios());
        metrics.extend(part.host(traced_wall_s));
    } else {
        // Untraced runs check the replay on the first row only, after the
        // measured window.
        let mut state = (AnalysisScratch::new(), ContextBuffers::new());
        let replayed = replay_row(&rows[0], &first, &mut state, &mut layers, 1.0);
        compare(&mut part, &first_row, &replayed);
    }
    (part, metrics)
}
