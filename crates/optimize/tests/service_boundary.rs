//! Input boundary of the optimizer service: requests outside the analysed
//! domain are refused with a message naming the offending field, never
//! answered.

use cpa_optimize::{gen_batch, process_batch, GenOptions, ResultCache, ServiceOptions};

fn batch(bus: &str, slots: u64) -> String {
    let opts = GenOptions {
        sets: 1,
        seed: 42,
        cores: 2,
        tasks_per_core: 3,
        cache_sets: 32,
        util: 0.5,
        bus: bus.to_string(),
        slots,
        toy: true,
        ..GenOptions::default()
    };
    gen_batch(&opts).expect("batch generates")
}

/// A TDMA or RR bus with zero slots per core grants no access at all;
/// analysing one anyway produced a larger TDMA slack than the same request
/// with two slots — an optimistic verdict. Such requests are refused.
#[test]
fn zero_slot_requests_are_rejected() {
    let opts = ServiceOptions::default();
    for bus in ["tdma", "rr"] {
        let err = process_batch(&batch(bus, 0), &opts, &mut ResultCache::in_memory())
            .expect_err("zero slots must be refused");
        assert!(
            err.contains("slots"),
            "{bus}: message must name the field: {err}"
        );
        assert!(
            err.contains("req-000"),
            "{bus}: message must name the request: {err}"
        );
        // The same request with slots ≥ 1 is served.
        process_batch(&batch(bus, 2), &opts, &mut ResultCache::in_memory())
            .expect("two slots are valid");
    }
}
