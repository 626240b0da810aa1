//! Property tests over randomly generated paper-style task sets: the
//! theoretical dominance and monotonicity relations the analysis promises.

use cpa_analysis::{
    analyze, AnalysisConfig, AnalysisContext, BusPolicy, CrpdApproach, PersistenceMode,
};
use cpa_model::{CacheGeometry, Platform, TaskSet, Time};
use cpa_workload::{GeneratorConfig, TaskSetGenerator};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn platform_for(config: &GeneratorConfig) -> Platform {
    Platform::builder()
        .cores(config.cores)
        .cache(CacheGeometry::direct_mapped(config.cache_sets, 32))
        .memory_latency(config.d_mem)
        .build()
        .expect("valid platform")
}

fn generate(seed: u64, util: f64) -> (TaskSet, Platform) {
    let gen_cfg = GeneratorConfig {
        cores: 2,
        tasks_per_core: 4,
        ..GeneratorConfig::paper_default()
    }
    .with_per_core_utilization(util);
    let generator = TaskSetGenerator::new(gen_cfg.clone()).expect("generator");
    let platform = platform_for(&gen_cfg);
    let tasks = generator
        .generate(&mut ChaCha8Rng::seed_from_u64(seed))
        .expect("task set");
    (tasks, platform)
}

/// Aware response times never exceed oblivious ones under `bus` on `ctx`:
/// schedulability dominance, and per-task WCRT dominance where both
/// analyses bound every task.
fn check_dominance(
    ctx: &AnalysisContext<'_>,
    bus: BusPolicy,
    tag: &str,
) -> Result<(), TestCaseError> {
    let aware = analyze(ctx, &AnalysisConfig::new(bus, PersistenceMode::Aware));
    let oblivious = analyze(ctx, &AnalysisConfig::new(bus, PersistenceMode::Oblivious));
    prop_assert!(
        aware.is_schedulable() || !oblivious.is_schedulable(),
        "{tag} {bus:?}: oblivious schedulable but aware not"
    );
    if aware.is_schedulable() && oblivious.is_schedulable() {
        for i in ctx.tasks().ids() {
            prop_assert!(
                aware.response_time(i).unwrap() <= oblivious.response_time(i).unwrap(),
                "{tag} {bus:?} {i}"
            );
        }
    }
    Ok(())
}

/// Dominance for every paper bus policy with `slots` slots.
fn check_every_bus(seed: u64, util: f64, slots: u64) -> Result<(), TestCaseError> {
    let (tasks, platform) = generate(seed, util);
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    for bus in BusPolicy::paper_buses(slots) {
        check_dominance(&ctx, bus, &format!("seed={seed} util={util}"))?;
    }
    Ok(())
}

/// Dominance on the FP bus under every CRPD approach.
fn check_every_crpd_approach(seed: u64, util: f64) -> Result<(), TestCaseError> {
    let (tasks, platform) = generate(seed, util);
    for approach in [
        CrpdApproach::EcbUnion,
        CrpdApproach::UcbUnion,
        CrpdApproach::EcbOnly,
    ] {
        let ctx =
            AnalysisContext::with_crpd_approach(&platform, &tasks, approach).expect("context");
        let tag = format!("seed={seed} util={util} {approach:?}");
        check_dominance(&ctx, BusPolicy::FixedPriority, &tag)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Aware response times never exceed oblivious ones, for every bus
    /// policy, on random paper-style task sets — the crate's core theorem.
    #[test]
    fn aware_dominates_oblivious_on_random_sets(
        seed in any::<u64>(),
        util in 0.1f64..0.6,
        slots in 1u64..4,
    ) {
        check_every_bus(seed, util, slots)?;
    }

    /// The aware-dominates-oblivious theorem holds regardless of which
    /// CRPD approach instantiates γ (the approaches themselves are
    /// pairwise incomparable — see `CrpdApproach`'s docs).
    #[test]
    fn dominance_holds_under_every_crpd_approach(
        seed in any::<u64>(),
        util in 0.1f64..0.5,
    ) {
        check_every_crpd_approach(seed, util)?;
    }
}

/// Runs both dominance properties on one recorded counterexample. The
/// vendored proptest does not replay `dominance.proptest-regressions`, so
/// the cases recorded there are pinned here as plain tests.
fn replay_counterexample(seed: u64, util: f64) {
    for slots in 1..4 {
        if let Err(e) = check_every_bus(seed, util, slots) {
            panic!("slots={slots}: {e}");
        }
    }
    if let Err(e) = check_every_crpd_approach(seed, util) {
        panic!("{e}");
    }
}

#[test]
fn dominance_counterexample_seed_10958410096888526704() {
    replay_counterexample(10_958_410_096_888_526_704, 0.1);
}

#[test]
fn dominance_counterexample_seed_185411974247919130() {
    replay_counterexample(185_411_974_247_919_130, 0.368_774_129_887_824_43);
}

/// Per-task WCRT is *not* a monotone function of `d_mem` (Eq. (6)'s remote
/// job count shrinks as latency grows), but the aggregate schedulability
/// trend the paper plots in Fig. 3b must hold: over a population of task
/// sets sized for the reference latency, fewer sets stay schedulable as
/// the analysed latency grows.
#[test]
fn aggregate_schedulability_declines_with_dmem() {
    let base = GeneratorConfig {
        cores: 2,
        tasks_per_core: 3,
        ..GeneratorConfig::paper_default()
    }
    .with_per_core_utilization(0.35)
    .with_period_d_mem(Time::from_cycles(5));
    let generator = TaskSetGenerator::new(base.clone()).expect("generator");
    let cfg = AnalysisConfig::new(BusPolicy::RoundRobin { slots: 2 }, PersistenceMode::Aware);

    let mut counts = Vec::new();
    for d_mem in [2u64, 5, 8] {
        let platform = Platform::builder()
            .cores(2)
            .cache(CacheGeometry::direct_mapped(base.cache_sets, 32))
            .memory_latency(Time::from_cycles(d_mem))
            .build()
            .expect("platform");
        let mut schedulable = 0u32;
        for seed in 0..40u64 {
            let tasks = generator
                .generate(&mut ChaCha8Rng::seed_from_u64(seed))
                .expect("task set");
            let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
            if analyze(&ctx, &cfg).is_schedulable() {
                schedulable += 1;
            }
        }
        counts.push(schedulable);
    }
    assert!(
        counts[0] >= counts[1] && counts[1] >= counts[2],
        "schedulability did not decline with d_mem: {counts:?}"
    );
    assert!(
        counts[0] > counts[2],
        "sweep had no effect at all: {counts:?}"
    );
}
