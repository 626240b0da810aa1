//! `optimize_batch`: `process_batch` on fixed-size batches of generated
//! requests, with one in-memory result cache across batches.
//!
//! Requests have 2 cores × 4 tasks, the standard search knobs and FP, RR
//! and TDMA interleaved, at a per-core utilization of 0.4 — where the
//! search matters (most requests become schedulable only after
//! optimization). The TDMA share is the only traffic of parent replay.
//! One request in five resends an earlier one, so cache reads sit beside
//! solve-and-put writes: a change that speeds solves but slows lookup or
//! serialization shows here.

use std::time::Instant;

use cpa_analysis::{AnalysisConfig, BusPolicy, PersistenceMode};
use cpa_experiments::runner::derive_seed;
use cpa_model::{CacheGeometry, Platform, TaskSet, Time};
use cpa_optimize::{
    gen_batch, optimize_with_memo, process_batch, GenOptions, OptimizeRequest, ResultCache,
    ServiceOptions, SolveMemo,
};
use cpa_pool::PoolOptions;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::calib::Kernel;
use crate::meter::{Calls, Meter};
use crate::report::{vm_hwm_mb, Layers, Metrics, Part};
use crate::Opts;

/// Requests per batch.
const BATCH: usize = 10;
/// Resends per batch (after the first): one request in five.
const RESENDS: usize = 2;
/// Batches measured for each cold start of `setup_s`.
const SETUP_BATCHES: usize = 2;
/// Calibration kernel and the workload's sensitivity to it; NOTES.md gives
/// the evidence for both.
const SENSITIVITY: f64 = 1.25;
const KERNEL: Kernel = Kernel::Sort;
/// Cold starts measured for `setup_s`.
const SETUPS: usize = 2;
/// Batches always measured; the latency percentiles, `schedulable_ratio`
/// and `peak_rss_mb` cover them, so they do not depend on how fast the
/// host is.
const PREFIX_BATCHES: usize = 80;
/// Per-core utilization of the generated requests.
const UTIL: f64 = 0.4;
const BUSES: [&str; 3] = ["fp", "rr", "tdma"];
/// Keeps request seeds apart from other derived streams.
const REQUEST_STREAM: u64 = 0x0B7A;

/// One request slot of a batch: the index of a fresh request, or of the
/// earlier request it resends.
#[derive(Clone, Copy)]
enum Slot {
    Fresh(usize),
    Resend(usize),
}

/// The seeded request stream: fresh requests drawn in order, resends
/// drawn uniformly from every request already sent.
struct Stream {
    seed: u64,
    requests: Vec<OptimizeRequest>,
    rng: ChaCha8Rng,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            seed,
            requests: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(derive_seed(seed, REQUEST_STREAM, u64::MAX)),
        }
    }

    fn fresh(&mut self) -> usize {
        let k = self.requests.len();
        let json = gen_batch(&GenOptions {
            sets: 1,
            seed: derive_seed(self.seed, REQUEST_STREAM, k as u64),
            util: UTIL,
            bus: BUSES[k % BUSES.len()].to_string(),
            ..GenOptions::default()
        })
        .expect("generator options are valid");
        let mut batch: Vec<OptimizeRequest> =
            serde_json::from_str(&json).expect("generated batches parse");
        let mut request = batch.pop().expect("one request generated");
        request.name = format!("req-{k:05}");
        self.requests.push(request);
        k
    }

    /// The next batch: its slots and its JSON text.
    fn next_batch(&mut self) -> (Vec<Slot>, String) {
        let mut slots: Vec<Slot> = Vec::with_capacity(BATCH);
        let sent = self.requests.len();
        let resends = if sent == 0 { 0 } else { RESENDS };
        for _ in resends..BATCH {
            slots.push(Slot::Fresh(self.fresh()));
        }
        for _ in 0..resends {
            let resend = Slot::Resend(self.rng.gen_range(0..sent));
            let at = self.rng.gen_range(0..=slots.len());
            slots.insert(at, resend);
        }
        let batch: Vec<&OptimizeRequest> = slots
            .iter()
            .map(|&(Slot::Fresh(k) | Slot::Resend(k))| &self.requests[k])
            .collect();
        let json = serde_json::to_string(&batch).expect("requests serialize");
        (slots, json)
    }
}

/// A response's score as `(schedulable, converged, min_slack,
/// total_slack)`, which orders like the optimizer's `Score`.
fn score(doc: &str, key: &str) -> Option<(bool, u64, u64, u64)> {
    let start = doc.find(&format!("\"{key}\":{{"))? + key.len() + 4;
    let body = &doc[start..start + doc[start..].find('}')?];
    let mut fields = body.split(',').map(|f| f.split(':').nth(1));
    let mut next = || fields.next().flatten();
    Some((
        next()? == "true",
        next()?.parse().ok()?,
        next()?.parse().ok()?,
        next()?.parse().ok()?,
    ))
}

/// Per-run state: the cache and the first response of every request.
struct Service {
    cache: ResultCache,
    first_docs: Vec<Option<String>>,
}

impl Service {
    fn new() -> Service {
        Service {
            cache: ResultCache::in_memory(),
            first_docs: Vec::new(),
        }
    }

    /// Sends one batch and checks its responses: resends must return the
    /// bytes of the first response, and no optimized score may fall below
    /// its default.
    fn send(
        &mut self,
        slots: &[Slot],
        json: &str,
        calls: &mut Calls,
        part: &mut Part,
    ) -> Vec<String> {
        let service = ServiceOptions {
            threads: 1,
            ..ServiceOptions::default()
        };
        let cache = &mut self.cache;
        let result = calls.time(slots.len() as u64, || process_batch(json, &service, cache));
        let (body, stats) = match result {
            Ok(done) => done,
            Err(e) => {
                part.check(false, || format!("process_batch failed: {e}"));
                return Vec::new();
            }
        };
        let docs: Vec<String> = body
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect();
        let resends = slots
            .iter()
            .filter(|s| matches!(s, Slot::Resend(_)))
            .count();
        part.check(
            docs.len() == slots.len() && stats.cache_hits == resends as u64,
            || format!("batch answered {} of {} requests", docs.len(), slots.len()),
        );
        for (slot, doc) in slots.iter().zip(&docs) {
            match *slot {
                Slot::Fresh(k) => {
                    let (default, best) =
                        (score(doc, "default_score"), score(doc, "optimized_score"));
                    part.check(default.is_some() && best >= default, || {
                        format!("request {k}: optimized {best:?} below default {default:?}")
                    });
                    if self.first_docs.len() <= k {
                        self.first_docs.resize(k + 1, None);
                    }
                    self.first_docs[k] = Some(doc.clone());
                }
                Slot::Resend(k) => {
                    let first = self.first_docs.get(k).and_then(Option::as_ref);
                    part.check(first == Some(doc), || {
                        format!("resend of request {k} returned different bytes")
                    });
                }
            }
        }
        docs
    }
}

/// Replays the searches of one batch's fresh requests in batch order with
/// one memo, as `process_batch` runs them; returns normalized search
/// seconds and checks each replayed optimum against the response.
fn replay_batch(
    requests: &[OptimizeRequest],
    slots: &[Slot],
    docs: &[String],
    scale: f64,
    part: &mut Part,
) -> f64 {
    let mut memo = SolveMemo::new();
    let mut search_s = 0.0;
    for (slot, doc) in slots.iter().zip(docs) {
        let Slot::Fresh(k) = *slot else { continue };
        let request = &requests[k];
        let tasks = TaskSet::new(request.tasks.clone()).expect("generated tasks are valid");
        let platform = Platform::builder()
            .cores(request.cores)
            .cache(CacheGeometry::direct_mapped(tasks.cache_sets(), 32))
            .memory_latency(Time::from_cycles(request.d_mem))
            .build()
            .expect("generated platforms are valid");
        let bus = BusPolicy::parse(&request.bus, request.slots).expect("generated bus is known");
        let mode = match request.mode.as_str() {
            "aware" => PersistenceMode::Aware,
            _ => PersistenceMode::Oblivious,
        };
        let config = AnalysisConfig::new(bus, mode);
        let pool = PoolOptions::new().with_threads(1);
        let t = Instant::now();
        let found = optimize_with_memo(
            &tasks,
            &platform,
            &config,
            &request.search,
            request.seed,
            pool,
            &mut memo,
            false,
        );
        search_s += t.elapsed().as_secs_f64() * scale;
        let best = &found.best_score;
        let replayed = Some((
            best.schedulable,
            u64::from(best.converged),
            best.min_slack,
            best.total_slack,
        ));
        part.check(replayed == score(doc, "optimized_score"), || {
            format!("request {k}: replayed search found {replayed:?}")
        });
    }
    search_s
}

/// Runs the workload: per-layer metrics when tracing, otherwise none
/// (the caller derives the end-to-end ones from the returned part).
pub fn run(opts: &Opts) -> (Part, Metrics) {
    let mut part = Part::default();
    let mut meter = Meter::new(KERNEL, SENSITIVITY, PREFIX_BATCHES);
    let seed = opts.stream_seed();

    let mut setup_stream = Stream::new(seed);
    let setup_batches: Vec<_> = (0..SETUP_BATCHES)
        .map(|_| setup_stream.next_batch())
        .collect();
    for _ in 0..SETUPS {
        meter.setup(|calls| {
            let mut service = Service::new();
            for (slots, json) in &setup_batches {
                service.send(slots, json, calls, &mut part);
            }
        });
    }

    let mut stream = Stream::new(seed);
    let mut service = Service::new();
    let mut layers = Layers::default();
    let (mut batches, mut search_s, mut traced_wall_s) = (0usize, 0.0, 0.0);
    let start = Instant::now();
    while batches < PREFIX_BATCHES || start.elapsed().as_secs_f64() < opts.seconds {
        let (slots, json) = stream.next_batch();
        let traced = Instant::now();
        let docs = meter.chunk(|calls| {
            if opts.trace {
                layers.counting(|| service.send(&slots, &json, calls, &mut part))
            } else {
                service.send(&slots, &json, calls, &mut part)
            }
        });
        if opts.trace {
            let scale = meter.last_scale();
            search_s += replay_batch(&stream.requests, &slots, &docs, scale, &mut part);
            traced_wall_s += traced.elapsed().as_secs_f64();
        }
        if batches < PREFIX_BATCHES {
            for (slot, doc) in slots.iter().zip(&docs) {
                if let Slot::Fresh(_) = slot {
                    part.judged += 1;
                    part.schedulable += u64::from(doc.contains("\"schedulable_optimized\":true"));
                }
            }
        }
        batches += 1;
        if batches == PREFIX_BATCHES {
            part.peak_rss_mb.push(vm_hwm_mb());
        }
    }
    part.timing = meter.finish();

    let mut metrics = Vec::new();
    if opts.trace {
        let requests = part.timing.items as f64;
        let batch_s = part.timing.normalized_s;
        let searched = layers.counter("optimize.cache_misses") as f64;
        let candidates = layers.counter("optimize.candidates") as f64;
        metrics.extend([
            ("optimize.batch_ms", batch_s * 1e3 / batches as f64),
            ("optimize.search_ms", search_s * 1e3 / searched),
            ("optimize.service_us", (batch_s - search_s) * 1e6 / requests),
            ("optimize.candidates_per_request", candidates / searched),
            ("optimize.us_per_candidate", search_s * 1e6 / candidates),
            (
                "optimize.memo_hit_ratio",
                layers.ratio("optimize.memo_hits", "optimize.memo_misses"),
            ),
            (
                "optimize.pruned_ratio",
                layers.counter("optimize.pruned_candidates") as f64 / candidates,
            ),
            (
                "optimize.cache_hit_ratio",
                layers.ratio("optimize.cache_hits", "optimize.cache_misses"),
            ),
            (
                "engine.parent_replay_ratio",
                layers.ratio("engine.parent_replays", "engine.parent_rejected"),
            ),
            (
                "optimize.moves_accepted_ratio",
                layers.ratio("optimize.moves_accepted", "optimize.moves_rejected"),
            ),
        ]);
        metrics.extend(layers.engine_ratios());
        metrics.extend(part.host(traced_wall_s));
    }
    (part, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_reads_the_serialized_score_in_order() {
        let doc = r#"{"name":"r","default_score":{"schedulable":false,"converged":3,"min_slack":0,"total_slack":17},"optimized_score":{"schedulable":true,"converged":8,"min_slack":5,"total_slack":90}}"#;
        assert_eq!(score(doc, "default_score"), Some((false, 3, 0, 17)));
        assert_eq!(score(doc, "optimized_score"), Some((true, 8, 5, 90)));
        assert!(score(doc, "optimized_score") > score(doc, "default_score"));
        assert_eq!(score(doc, "missing"), None);
    }
}
