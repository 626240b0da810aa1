//! `validate_campaign`: `run_campaign` with the full oracle profile, in
//! chunks of consecutive seeds.
//!
//! Almost all of a campaign's time is in `Simulator::run`, and a fraction
//! of a percent in analysis: it is the only simulator-bound workload, so a
//! change to the shared model that helps analysis but slows the simulator
//! shows here.

use std::time::Instant;

use cpa_analysis::{
    analyze_with, AnalysisConfig, AnalysisContext, AnalysisScratch, BusPolicy, ContextBuffers,
    PersistenceMode,
};
use cpa_experiments::runner::{derive_seed, platform_for};
use cpa_model::TaskSet;
use cpa_sim::{ReleaseModel, SimConfig, Simulator};
use cpa_validate::campaign::CAMPAIGN_POINT;
use cpa_validate::oracle::{arbitration_of, check_task_set_with, horizon_for, CheckOptions};
use cpa_validate::{run_campaign, CampaignOptions};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::calib::Kernel;
use crate::meter::Meter;
use crate::report::{vm_hwm_mb, Layers, Metrics, Part};
use crate::sweep::SOLVES;
use crate::Opts;

/// Task sets per `run_campaign` call.
const CHUNK_SETS: u64 = 4;
/// Calibration kernel and the workload's sensitivity to it; NOTES.md gives
/// the evidence for both.
const SENSITIVITY: f64 = 1.0;
const KERNEL: Kernel = Kernel::Churn;
/// Cold starts measured for `setup_s`.
const SETUPS: usize = 2;
/// Calls always measured; the latency percentiles, `schedulable_ratio`
/// and `peak_rss_mb` cover them, so they do not depend on how fast the
/// host is.
const PREFIX_CHUNKS: u64 = 25;
/// Every how many sets the campaign also re-checks determinism.
const DETERMINISM_STRIDE: u64 = 8;
/// Keeps chunk seeds apart from other derived streams.
const CHUNK_STREAM: u64 = 0xCA4F;

/// Base seed of chunk `i`: consecutive seeds from a seed-derived start.
fn chunk_seed(seed: u64, i: u64) -> u64 {
    derive_seed(seed, CHUNK_STREAM, 0).wrapping_add(i)
}

fn options(seed: u64, i: u64) -> CampaignOptions {
    CampaignOptions::new()
        .with_sets(CHUNK_SETS)
        .with_seed(chunk_seed(seed, i))
        .with_threads(1)
}

/// The campaign's per-set profile, drawn from the set seed exactly as
/// `cpa_validate::campaign` draws it: the generator configuration and the
/// RNG positioned where generation continues.
fn profile(set_seed: u64) -> (GeneratorConfig, ChaCha8Rng) {
    let mut rng = ChaCha8Rng::seed_from_u64(set_seed);
    let utilization = rng.gen_range(0.10..0.55);
    let tasks_per_core = rng.gen_range(3usize..6);
    let cache_sets = if rng.gen_bool(0.5) { 256 } else { 128 };
    let mut config = GeneratorConfig {
        cores: 2,
        tasks_per_core,
        ..GeneratorConfig::paper_default()
    }
    .with_per_core_utilization(utilization)
    .with_cache_sets(cache_sets);
    config.d_mem = GeneratorConfig::paper_default().d_mem;
    (config, rng)
}

const SIM_RUNS: [&str; 3] = ["sim.run_ms.fp", "sim.run_ms.rr", "sim.run_ms.tdma"];

/// Replays one set layer by layer: generation, the whole oracle bundle,
/// the analysis matrix alone and one synchronous simulation per bus.
/// Returns the oracle checks the bundle made.
fn replay_set(
    set_seed: u64,
    determinism: bool,
    state: &mut (AnalysisScratch, ContextBuffers),
    layers: &mut Layers,
    scale: f64,
) -> u64 {
    let (scratch, buffers) = state;
    let (config, mut rng) = profile(set_seed);
    let generator = TaskSetGenerator::new(config.clone()).expect("campaign profiles are valid");
    let t = Instant::now();
    let tasks: TaskSet = generator.generate(&mut rng).expect("generation succeeds");
    layers.add(
        "workload.generate_us",
        t.elapsed().as_secs_f64() * scale * 1e6,
    );
    let platform = platform_for(&config);
    let mut check = CheckOptions::new();
    check.sporadic_seed = set_seed;
    check.determinism = determinism;

    let t = Instant::now();
    let checked = check_task_set_with(&platform, &tasks, &check, scratch, buffers)
        .expect("generated sets fit their platform");
    layers.add("validate.set_ms", t.elapsed().as_secs_f64() * scale * 1e3);

    let buses = BusPolicy::paper_buses(check.slots);
    let mut analysis_s = 0.0;
    scratch.forget_warm();
    for &approach in &check.approaches {
        let t = Instant::now();
        let ctx = AnalysisContext::with_crpd_approach_buffers(&platform, &tasks, approach, buffers)
            .expect("generated sets fit their platform");
        let elapsed = t.elapsed().as_secs_f64() * scale;
        layers.add("analysis.context_us", elapsed * 1e6);
        analysis_s += elapsed;
        for (&bus, names) in buses.iter().zip(SOLVES.chunks(2)) {
            for (mode, (solve, iters)) in [PersistenceMode::Aware, PersistenceMode::Oblivious]
                .into_iter()
                .zip(names)
            {
                let t = Instant::now();
                let result = analyze_with(&ctx, &AnalysisConfig::new(bus, mode), scratch);
                let elapsed = t.elapsed().as_secs_f64() * scale;
                layers.add(solve, elapsed * 1e6);
                layers.add(
                    iters,
                    result.inner_iteration_counts().iter().sum::<u64>() as f64,
                );
                layers.add("analysis.outer_iters", f64::from(result.outer_iterations()));
                analysis_s += elapsed;
            }
        }
        ctx.recycle(buffers);
    }
    layers.add("validate.analysis_ms", analysis_s * 1e3);

    let horizon = horizon_for(&tasks, check.horizon_cap);
    for (&bus, name) in buses.iter().zip(SIM_RUNS) {
        let simulator = || {
            let config = SimConfig::new(arbitration_of(bus))
                .with_horizon(horizon)
                .with_releases(ReleaseModel::Synchronous);
            Simulator::new(&platform, &tasks, config).expect("generated sets fit")
        };
        let sim = simulator();
        let t = Instant::now();
        std::hint::black_box(sim.run());
        layers.add(name, t.elapsed().as_secs_f64() * scale * 1e3);
        // The simulator reports its skip counters only while cpa-obs
        // instrumentation is on, which slows it: count them on a second,
        // untimed run.
        cpa_obs::enable_metrics();
        layers.counting(|| simulator().run());
        cpa_obs::disable();
    }
    checked.stats.total_checks()
}

/// Runs the workload: per-layer metrics when tracing, otherwise none
/// (the caller derives the end-to-end ones from the returned part).
pub fn run(opts: &Opts) -> (Part, Metrics) {
    let mut part = Part::default();
    let mut meter = Meter::new(KERNEL, SENSITIVITY, PREFIX_CHUNKS as usize);
    let seed = opts.stream_seed();

    for _ in 0..SETUPS {
        meter.setup(|calls| calls.time(CHUNK_SETS, || run_campaign(&options(seed, 0))));
    }

    let mut layers = Layers::default();
    let mut state = (AnalysisScratch::new(), ContextBuffers::new());
    let (mut chunks, mut checks, mut traced_wall_s) = (0u64, 0u64, 0.0);
    let start = Instant::now();
    while chunks < PREFIX_CHUNKS || start.elapsed().as_secs_f64() < opts.seconds {
        let campaign = options(seed, chunks);
        let traced = Instant::now();
        let done = meter.chunk(|calls| {
            calls.time(CHUNK_SETS, || {
                if opts.trace {
                    layers.counting(|| run_campaign(&campaign))
                } else {
                    run_campaign(&campaign)
                }
            })
        });
        let stats = &done.report.stats;
        part.check(
            stats.violations.is_empty()
                && stats.generation_failures == 0
                && stats.checked_sets == CHUNK_SETS,
            || format!("campaign chunk {chunks}: {}", done.report.summary()),
        );
        if opts.trace {
            let scale = meter.last_scale();
            let mut replayed = 0;
            for set in 0..CHUNK_SETS {
                let set_seed = derive_seed(campaign.seed, CAMPAIGN_POINT, set);
                let determinism = set % DETERMINISM_STRIDE == 0;
                // The campaign adds one generation-determinism check on
                // the sets it re-checks.
                replayed += replay_set(set_seed, determinism, &mut state, &mut layers, scale)
                    + u64::from(determinism);
            }
            checks += replayed;
            let total = stats.oracles.total_checks();
            part.check(replayed == total, || {
                format!("campaign chunk {chunks}: replay made {replayed} checks, campaign {total}")
            });
            traced_wall_s += traced.elapsed().as_secs_f64();
        }
        if chunks < PREFIX_CHUNKS {
            part.judged += stats.checked_sets;
            part.schedulable += stats.schedulable_sets;
        }
        chunks += 1;
        if chunks == PREFIX_CHUNKS {
            part.peak_rss_mb.push(vm_hwm_mb());
        }
    }
    part.timing = meter.finish();

    let mut metrics = Vec::new();
    if opts.trace {
        let runs = layers.counter("sim.runs") as f64;
        let cycles = layers.counter("sim.cycles") as f64;
        metrics.extend([
            (
                "sim.cycles_skipped_ratio",
                layers.counter("sim.cycles_skipped") as f64 / cycles,
            ),
            (
                "sim.transactions_per_run",
                layers.counter("sim.bus_transactions") as f64 / runs,
            ),
            (
                "sim.skip_spans_per_run",
                layers.counter("sim.skip_spans") as f64 / runs,
            ),
            (
                "validate.checks_per_set",
                checks as f64 / part.timing.items as f64,
            ),
        ]);
        for name in [
            "workload.generate_us",
            "analysis.context_us",
            "analysis.outer_iters",
            "validate.set_ms",
            "validate.analysis_ms",
        ]
        .into_iter()
        .chain(SIM_RUNS)
        .chain(SOLVES.iter().flat_map(|(solve, iters)| [*solve, *iters]))
        {
            metrics.push((name, layers.mean(name)));
        }
        metrics.extend(layers.engine_ratios());
        metrics.extend(part.host(traced_wall_s));
    }
    (part, metrics)
}
