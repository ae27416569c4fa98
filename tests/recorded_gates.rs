//! Deterministic gates on the committed `BENCH_pr*.json` records.
//!
//! Timing-free quantities of the performance record are ordinary tests;
//! the wall-clock ratios stay in `cargo run --release -p culi-bench --bin
//! gate`. Floors are unchanged from when each record was committed: the
//! recorded value moved by the regression band, but never past the
//! absolute floor. The records are frozen, so each floor is a constant.
//! The other deterministic record keys are pinned in unit tests next to
//! the code that runs them: zero warm clones
//! (`pool_is_lazy_and_persists_across_sections`,
//! `batch_with_zero_warm_clones`), the modeled GPU transfer saving
//! (`batched_commands_match_submit_loop_and_amortize_transfer`) and the
//! modeled multi-device speedup (`sharded_runs_overlap_in_modeled_time`).

use culi::prelude::*;
use culi::runtime::{CacheConfig, CommandCache};
use culi_bench::workload::{zipf_stream, CACHE_PRELUDE};

/// Floor on the reply-tier hit rate: max(base / 1.6, 0.50) over
/// `reply_hit_rate` = 0.860 in `BENCH_pr8.json`, with 1.6 the record's
/// regression band.
const REPLY_HIT_RATE_FLOOR: f64 = 0.85986328125 / 1.6;

#[test]
fn reply_tier_hit_rate_on_zipf_traffic() {
    // The gated repeated-traffic stream: 1024 Zipf(0.99) draws over 128
    // distinct commands, batched 64 at a time on a 4-thread session.
    let cache = CommandCache::new(CacheConfig::default());
    let mut repl = CpuRepl::launch(
        culi::sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads: 4 },
            cache: Some(cache.clone()),
            ..Default::default()
        },
    );
    for line in CACHE_PRELUDE {
        assert!(repl.submit(line).unwrap().ok);
    }
    let stream = zipf_stream(128, 1024);
    let stream: Vec<&str> = stream.iter().map(String::as_str).collect();
    for chunk in stream.chunks(64) {
        for reply in repl.submit_batch(chunk).unwrap() {
            assert!(reply.ok, "{}", reply.output);
        }
    }
    let reply = cache.stats().reply;
    let hit_rate = reply.hits as f64 / (reply.hits + reply.misses) as f64;
    assert!(
        hit_rate >= REPLY_HIT_RATE_FLOOR,
        "reply-tier hit rate {hit_rate:.3} fell below {REPLY_HIT_RATE_FLOOR:.3}"
    );
}
