//! Property pin for the warm-start contract: an [`AnalysisScratch`] that
//! has just solved *something else* — a different task set, a different
//! bus policy, a different persistence mode — must produce results
//! **bitwise identical** to a cold scratch, on every field of
//! [`AnalysisResult`] (response times including deadline-miss partial
//! snapshots, schedulability, outer round count, per-task inner iteration
//! tallies, cap flag). `AnalysisResult` is `Eq`, so one comparison pins
//! all of them at once.
//!
//! The chains cover every shape of the retention certificate
//! ([`cpa_model::TaskSetDelta`]): the same set again (full unchanged
//! prefix, every core stable), an unrelated set (prefix 0), and a set
//! perturbed in one task, in place or by a core move (a partial prefix
//! with some cores stable and others not) — the shape an optimizer
//! worker sees between neighbouring candidates.

use cpa_analysis::{
    analyze, analyze_with, AnalysisConfig, AnalysisContext, AnalysisResult, AnalysisScratch,
    BusPolicy, PersistenceMode,
};
use cpa_model::{CacheBlockSet, CacheGeometry, CoreId, Platform, Priority, Task, TaskSet, Time};
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

/// Every bus policy the engine distinguishes, crossed with both modes.
fn configs() -> Vec<AnalysisConfig> {
    let mut out = Vec::new();
    for bus in [
        BusPolicy::FixedPriority,
        BusPolicy::RoundRobin { slots: 1 },
        BusPolicy::RoundRobin { slots: 2 },
        BusPolicy::Tdma { slots: 2 },
        BusPolicy::Perfect,
    ] {
        for mode in [PersistenceMode::Oblivious, PersistenceMode::Aware] {
            out.push(AnalysisConfig::new(bus, mode));
        }
    }
    out
}

fn assert_bitwise(warm: &AnalysisResult, cold: &AnalysisResult, tag: &str) {
    // `AnalysisResult: Eq` covers every field; the per-field asserts
    // below only exist to make a failure readable.
    assert_eq!(
        warm.response_times(),
        cold.response_times(),
        "{tag}: response times (incl. deadline-miss snapshots)"
    );
    assert_eq!(
        warm.outer_iterations(),
        cold.outer_iterations(),
        "{tag}: outer round count"
    );
    assert_eq!(
        warm.inner_iteration_counts(),
        cold.inner_iteration_counts(),
        "{tag}: inner iteration tallies"
    );
    assert_eq!(warm, cold, "{tag}: full result");
}

/// Rebuilds `tasks` with one task perturbed: its processing demand grows
/// by `extra` cycles and, when `move_core`, it hops to the next core —
/// the shape of an optimizer `Reassign` move.
fn perturb(tasks: &TaskSet, victim: usize, extra: u64, move_core: bool, cores: usize) -> TaskSet {
    let rebuilt: Vec<Task> = tasks
        .iter()
        .enumerate()
        .map(|(idx, t)| {
            let mut b = Task::builder(t.name())
                .processing_demand(t.processing_demand())
                .memory_demand(t.memory_demand())
                .residual_memory_demand(t.residual_memory_demand())
                .period(t.period())
                .deadline(t.deadline())
                .core(t.core())
                .priority(t.priority())
                .ecb(t.ecb().clone())
                .ucb(t.ucb().clone())
                .pcb(t.pcb().clone());
            if idx == victim {
                b = b.processing_demand(
                    t.processing_demand()
                        .saturating_add(Time::from_cycles(extra)),
                );
                if move_core {
                    b = b.core(CoreId::new((t.core().index() + 1) % cores));
                }
            }
            b.build().expect("perturbed task stays valid")
        })
        .collect();
    TaskSet::new(rebuilt).expect("perturbed set stays valid")
}

/// The paper's Fig. 1 worked example (τ1, τ2 on core x; τ3 on core y),
/// the fixture ci.sh runs this suite against under
/// `CPA_WARM_CROSS_CHECK=1` (every warm solve then also re-runs cold
/// inside [`analyze_with`] and asserts equality a second time).
fn fig1() -> (Platform, TaskSet) {
    let platform = Platform::builder()
        .cores(2)
        .memory_latency(Time::from_cycles(1))
        .build()
        .unwrap();
    let tau1 = Task::builder("tau1")
        .processing_demand(Time::from_cycles(4))
        .memory_demand(6)
        .residual_memory_demand(1)
        .period(Time::from_cycles(20))
        .deadline(Time::from_cycles(20))
        .core(CoreId::new(0))
        .priority(Priority::new(1))
        .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
        .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
        .build()
        .unwrap();
    let tau2 = Task::builder("tau2")
        .processing_demand(Time::from_cycles(32))
        .memory_demand(8)
        .period(Time::from_cycles(200))
        .deadline(Time::from_cycles(200))
        .core(CoreId::new(0))
        .priority(Priority::new(2))
        .ecb(CacheBlockSet::from_blocks(256, 1..=6).unwrap())
        .ucb(CacheBlockSet::from_blocks(256, [5, 6]).unwrap())
        .build()
        .unwrap();
    let tau3 = Task::builder("tau3")
        .processing_demand(Time::from_cycles(4))
        .memory_demand(6)
        .residual_memory_demand(1)
        .period(Time::from_cycles(15))
        .deadline(Time::from_cycles(15))
        .core(CoreId::new(1))
        .priority(Priority::new(3))
        .ecb(CacheBlockSet::from_blocks(256, 5..=10).unwrap())
        .pcb(CacheBlockSet::from_blocks(256, [5, 6, 7, 8, 10]).unwrap())
        .build()
        .unwrap();
    (platform, TaskSet::new(vec![tau1, tau2, tau3]).unwrap())
}

/// Warm chains on the paper's own worked example: the deterministic
/// anchor of this suite (the proptests randomize around it). Chains every
/// config on one scratch.
#[test]
fn fig1_warm_chain_matches_cold() {
    let (platform, tasks) = fig1();
    let ctx = AnalysisContext::new(&platform, &tasks).expect("context");
    let mut warm = AnalysisScratch::new();
    for config in configs() {
        let w = analyze_with(&ctx, &config, &mut warm);
        let c = analyze(&ctx, &config);
        assert_bitwise(&w, &c, &format!("fig1 {config:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One scratch chained across every BusPolicy × PersistenceMode of
    /// two different task sets (same-fingerprint retention, mode-flip
    /// gating, and cross-set delta invalidation all fire) must match a
    /// fresh scratch on every solve. The utilization range deliberately
    /// reaches overload so deadline-miss partial snapshots are compared
    /// too.
    #[test]
    fn warm_chain_matches_cold_bitwise(
        seed in any::<u64>(),
        util in 0.1f64..0.9,
    ) {
        let (tasks_a, platform) = generate(seed, util);
        let (tasks_b, _) = generate(seed.wrapping_add(1), util);
        let mut warm = AnalysisScratch::new();
        for tasks in [&tasks_a, &tasks_b] {
            let ctx = AnalysisContext::new(&platform, tasks).expect("context");
            for config in configs() {
                let w = analyze_with(&ctx, &config, &mut warm);
                let c = analyze(&ctx, &config);
                assert_bitwise(&w, &c, &format!("seed={seed} util={util} {config:?}"));
            }
        }
    }

    /// A solve of `A` followed, on the same scratch, by a solve of `A`
    /// perturbed in one task (a content change in place, or a core move)
    /// must match the cold solve of the perturbed set bitwise, for every
    /// policy × mode. The retention certificate is then a genuine partial
    /// prefix: the tasks before the victim carry their curves, the cores
    /// the victim never touched carry their `BAO` slots, everything else
    /// is re-derived. The utilization range reaches overload so
    /// deadline-miss snapshots are compared too.
    #[test]
    fn perturbed_neighbour_matches_cold_bitwise(
        seed in any::<u64>(),
        util in 0.1f64..0.9,
        victim in 0usize..8,
        extra in 1u64..200,
        move_core in any::<bool>(),
    ) {
        let (tasks_a, platform) = generate(seed, util);
        let victim = victim % tasks_a.len();
        let tasks_b = perturb(&tasks_a, victim, extra, move_core, platform.cores());
        let ctx_a = AnalysisContext::new(&platform, &tasks_a).expect("context a");
        let ctx_b = AnalysisContext::new(&platform, &tasks_b).expect("context b");
        let mut warm = AnalysisScratch::new();
        for config in configs() {
            let tag = format!("seed={seed} util={util} victim={victim} move={move_core} {config:?}");
            let w = analyze_with(&ctx_a, &config, &mut warm);
            assert_bitwise(&w, &analyze(&ctx_a, &config), &format!("{tag} (A)"));
            let w = analyze_with(&ctx_b, &config, &mut warm);
            assert_bitwise(&w, &analyze(&ctx_b, &config), &format!("{tag} (perturbed)"));
        }
    }
}
