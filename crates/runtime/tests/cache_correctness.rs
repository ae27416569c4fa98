//! End-to-end correctness of the reply cache: cache-on sessions must be
//! observably indistinguishable from cache-off sessions — byte-identical
//! output, status, code and paper-model counters — across the CPU
//! threaded and simulated-GPU backends, while the cache's own stats prove
//! it actually served traffic. Directed tests pin the two hazardous edges: reply
//! entries must never survive an env sync-epoch advance (a redefined
//! global must never be answered with a stale reply), and forced hash
//! collisions (narrowed [`CacheConfig::hash_mask`]) must fall back to
//! the full canonical-encoding compare rather than serve a wrong entry.

use culi_core::InterpConfig;
use culi_gpu_sim::device::{gtx1080, intel_e5_2620};
use culi_runtime::{
    CacheConfig, CacheStats, CommandCache, CpuMode, CpuRepl, CpuReplConfig, GpuRepl, GpuReplConfig,
    Reply, TierStats,
};

const PRELUDE: &[&str] = &[
    "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
    "(defun plus (a b) (+ a b))",
    "(defun addg (x) (+ x g))",
    "(defun fibj (x) (fib (mod x 8)))",
    "(setq g 1)",
    "(setq xs (list 3 4 5 6 7 8))",
];

/// A repeat-heavy stream: in-batch repeats, cross-pass repeats, both
/// stageable sections and plain pure commands. Deliberately epoch-stable
/// (no defines) so repeated passes hit the reply tier — the epoch-advance
/// discipline has its own directed test below.
const STREAM: &[&str] = &[
    "(||| 2 plus (1 2) (3 4))",
    "(||| 3 fibj (1 2 3))",
    "(||| 2 plus (1 2) (3 4))",
    "(||| 2 addg (1 2))",
    "(||| 2 addg (1 2))",
    "(+ 1 2)",
    "(||| 4 addg xs)",
];

fn cpu(mode: CpuMode, cache: Option<CommandCache>) -> CpuRepl {
    CpuRepl::launch(
        intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode,
            cache,
            ..Default::default()
        },
    )
}

fn gpu(cache: Option<CommandCache>) -> GpuRepl {
    GpuRepl::launch(
        gtx1080(),
        GpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            cache,
            ..Default::default()
        },
    )
}

/// Prelude via `submit`, then `passes` rounds of `submit_batch` over the
/// stream, replies concatenated in submission order.
fn run_cpu(repl: &mut CpuRepl, stream: &[&str], passes: usize) -> Vec<Reply> {
    for line in PRELUDE {
        repl.submit(line).unwrap();
    }
    let mut out = Vec::new();
    for _ in 0..passes {
        out.extend(repl.submit_batch(stream).unwrap());
    }
    out
}

fn run_gpu(repl: &mut GpuRepl, stream: &[&str], passes: usize) -> Vec<Reply> {
    for line in PRELUDE {
        repl.submit(line).unwrap();
    }
    let mut out = Vec::new();
    for _ in 0..passes {
        out.extend(repl.submit_batch(stream).unwrap());
    }
    out
}

/// Cache-on vs cache-off must match in everything the paper model can
/// observe: bytes, status, error code and meter counters (wall-clock and
/// modeled phase times are timing, not semantics).
fn assert_identical(uncached: &[Reply], cached: &[Reply], arm: &str) {
    assert_eq!(uncached.len(), cached.len(), "{arm}: reply count");
    for (k, (want, got)) in uncached.iter().zip(cached).enumerate() {
        let ctx = format!("{arm} cmd {k}");
        assert_eq!(want.output, got.output, "{ctx}");
        assert_eq!(want.ok, got.ok, "{ctx}");
        assert_eq!(want.code, got.code, "{ctx}");
        assert_eq!(want.counters, got.counters, "charges — {ctx}");
    }
}

/// The reply tier is the only one the runtime probes: three passes over
/// [`STREAM`] miss its 7 distinct commands once and hit the other 14.
/// The verdict and template counters never move.
fn assert_reply_tier_only(stats: CacheStats) {
    assert_eq!(
        stats.reply,
        TierStats {
            hits: 14,
            misses: 7,
            evictions: 0
        },
        "{stats:?}"
    );
    assert_eq!(stats.verdict, TierStats::default(), "{stats:?}");
    assert_eq!(stats.template, TierStats::default(), "{stats:?}");
}

#[test]
fn cache_on_off_bit_identity_cpu_threaded() {
    let cache = CommandCache::new(CacheConfig::default());
    let mut plain = cpu(CpuMode::Threaded { threads: 4 }, None);
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let a = run_cpu(&mut plain, STREAM, 3);
    let b = run_cpu(&mut memo, STREAM, 3);
    assert_identical(&a, &b, "cpu threaded");
    assert_reply_tier_only(cache.stats());
}

#[test]
fn cache_on_off_bit_identity_gpu() {
    let cache = CommandCache::new(CacheConfig::default());
    let mut plain = gpu(None);
    let mut memo = gpu(Some(cache.clone()));
    let a = run_gpu(&mut plain, STREAM, 3);
    let b = run_gpu(&mut memo, STREAM, 3);
    assert_identical(&a, &b, "gpu");
    assert_reply_tier_only(cache.stats());
}

/// The stale-reply hazard, end to end: a pure command whose answer
/// depends on a global, repeated across redefinitions of that global.
/// Every repeat after a `setq` is a *new* epoch — the cache must miss,
/// re-execute and answer with the fresh binding. The cache-off twin
/// catches any stale serve byte-for-byte, and the direct output check
/// makes the expectation readable on failure.
#[test]
fn reply_entries_never_survive_epoch_advance_end_to_end() {
    let stream = &[
        "(||| 2 addg (1 2))", // g=1 → (2 3)
        "(||| 2 addg (1 2))", // same epoch: cache may serve this one
        "(setq g 100)",
        "(||| 2 addg (1 2))", // g=100 → (101 102): stale (2 3) is wrong
        "(setq g 7)",
        "(||| 2 addg (1 2))", // g=7 → (8 9)
    ];
    let cache = CommandCache::new(CacheConfig::default());
    let mut plain = cpu(CpuMode::Threaded { threads: 4 }, None);
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let a = run_cpu(&mut plain, stream, 2);
    let b = run_cpu(&mut memo, stream, 2);
    assert_identical(&a, &b, "epoch advance");
    let outputs: Vec<&str> = b.iter().map(|r| r.output.as_str()).collect();
    assert_eq!(outputs[0], outputs[1], "same-epoch repeat must agree");
    assert_ne!(outputs[1], outputs[3], "post-setq repeat must re-execute");
    assert_ne!(outputs[3], outputs[5], "each rebinding must be visible");
    let stats = cache.stats();
    assert!(
        stats.reply.hits >= 1,
        "repeat at same epoch never hit: {stats:?}"
    );
    assert!(
        stats.reply.evictions >= 1,
        "epoch advances never retired entries: {stats:?}"
    );
}

/// Forced collisions end to end: with `hash_mask: 0` every command's key
/// lands in one bucket, so *only* the canonical-encoding compare keeps
/// distinct commands from stealing each other's replies. The session
/// must still be bit-identical to the uncached twin while genuinely
/// serving hits from the colliding store.
#[test]
fn forced_hash_collision_end_to_end_stays_bit_identical() {
    let cache = CommandCache::new(CacheConfig {
        hash_mask: 0,
        ..Default::default()
    });
    let mut plain = cpu(CpuMode::Threaded { threads: 4 }, None);
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let a = run_cpu(&mut plain, STREAM, 3);
    let b = run_cpu(&mut memo, STREAM, 3);
    assert_identical(&a, &b, "hash_mask=0");
    let stats = cache.stats();
    assert!(
        stats.reply.hits >= STREAM.len() as u64,
        "colliding cache never served: {stats:?}"
    );
}

/// A narrow (but non-degenerate) mask gets the same treatment: partial
/// collisions across a wider key population.
#[test]
fn narrow_hash_mask_end_to_end_stays_bit_identical() {
    let commands: Vec<String> = (0..24)
        .map(|k| format!("(||| 2 plus ({k} {}) (3 4))", k + 1))
        .collect();
    let stream: Vec<&str> = commands.iter().map(String::as_str).collect();
    let cache = CommandCache::new(CacheConfig {
        hash_mask: 0x3,
        ..Default::default()
    });
    let mut plain = cpu(CpuMode::Threaded { threads: 4 }, None);
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let a = run_cpu(&mut plain, &stream, 2);
    let b = run_cpu(&mut memo, &stream, 2);
    assert_identical(&a, &b, "hash_mask=0x3");
    assert!(
        cache.stats().reply.hits >= stream.len() as u64,
        "{:?}",
        cache.stats()
    );
}

/// The byte budgets hold under a flood of distinct commands — retained
/// bytes stay under the configured ceilings and the LRU eviction counter
/// proves entries were actually dropped, not just never stored.
#[test]
fn cache_memory_stays_bounded_under_flood() {
    let config = CacheConfig {
        shared_byte_budget: 4096,
        reply_byte_budget: 2048,
        hash_mask: u64::MAX,
    };
    let cache = CommandCache::new(config.clone());
    let mut memo = cpu(CpuMode::Threaded { threads: 4 }, Some(cache.clone()));
    let commands: Vec<String> = (0..120)
        .map(|k| format!("(||| 2 plus ({k} {}) ({} {}))", k + 1, k % 9, k % 7))
        .collect();
    let stream: Vec<&str> = commands.iter().map(String::as_str).collect();
    let replies = run_cpu(&mut memo, &stream, 1);
    assert!(replies.iter().all(|r| r.ok));
    assert!(
        cache.retained_bytes() <= config.shared_byte_budget + config.reply_byte_budget,
        "retained {} over budget",
        cache.retained_bytes()
    );
    let stats = cache.stats();
    assert!(stats.reply.evictions >= 1, "flood never evicted: {stats:?}");
}
