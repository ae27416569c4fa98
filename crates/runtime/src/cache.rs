//! The reply cache: memoization for repeated traffic.
//!
//! Production command streams are heavily repetitive — many tenants
//! submit the same preludes and queries — yet every arrival pays full
//! parse, classification and evaluation costs again. [`CommandCache`]
//! keeps one tier: whole replies of classified-pure commands, keyed on
//! (the [`culi_core::structhash::StructKey`] of the parsed trees, the
//! source text, the **env sync epoch**). Any epoch advance — every
//! `define`/`set` bumps it — invalidates the entry: lookups require an
//! exact epoch match and drop entries recorded against an older epoch on
//! sight, so a stale reply is never served (the proptest suite
//! interleaves defines between repeats to prove it). Epochs and
//! environments are tenant-private, so the tier is **strictly
//! per-tenant**: [`CommandCache::tenant_view`] gives each tenant its own
//! reply store.
//!
//! Classification and the dispatch encode are not cached: the pipeline
//! runs the effect analysis on every command and the worker pool encodes
//! every job afresh. The cache also holds a **verdict store**
//! ([`CommandCache::verdict_lookup`]/[`CommandCache::verdict_insert`]),
//! shared across tenant views. No runtime path calls it; it is kept for
//! the benchmark's shadow replay, which still times a verdict probe, and
//! goes once the benchmark stops replaying it.
//!
//! # Charge-exactness guarantee
//!
//! Meter charges on the served-from-cache path are bit-identical to the
//! uncached run (the differential harness runs a cache-on arm):
//!
//! * Key hashing is charge-free by construction
//!   ([`culi_core::structhash`] reads the arena without metering).
//! * Reply hits require the *source text* to match byte-for-byte (not
//!   just the structure), so the cached counters — parse included — are
//!   the counters the uncached run would recompute; the reply is served
//!   as a clone with fresh wall-clock time only.
//!
//! A hash collision (two shapes, one hash bucket) is caught by the
//! injective canonical encoding: every probe compares
//! [`culi_core::structhash::StructKey::canon`] byte-for-byte before
//! trusting an entry. Tests force collisions by narrowing the hash with
//! [`CacheConfig::hash_mask`] and assert no wrong reply is ever served.
//!
//! # Bounded memory
//!
//! Each store evicts least-recently-used entries under a byte budget —
//! the worker pool's `RETAINED_MSG_BYTES` discipline applied to cache
//! retention. Hit/miss/evict counters surface in
//! [`crate::server::SessionServer::server_stats`].

use crate::reply::Reply;
use culi_core::structhash::StructKey;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bucket keys are (masked) structural hashes — already high-quality
/// 64-bit mixes — so the bucket map only needs a cheap finalizer, not a
/// keyed byte hasher.
#[derive(Default)]
struct PrehashedKey(u64);

impl std::hash::Hasher for PrehashedKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type Prehashed = std::hash::BuildHasherDefault<PrehashedKey>;

/// Tuning for one [`CommandCache`]. `Default` suits tests and moderate
/// fleets; the bench scales budgets with stream size.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Byte budget of the shared verdict store, kept for the benchmark's
    /// shadow replay (see the module docs).
    pub shared_byte_budget: usize,
    /// Byte budget of each tenant view's private reply store.
    pub reply_byte_budget: usize,
    /// Mask applied to structural hashes before bucketing. `u64::MAX`
    /// for production; tests narrow it (down to `0`) to force bucket
    /// collisions and exercise the full-compare fallback.
    pub hash_mask: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shared_byte_budget: 4 * crate::pool::WorkerPool::RETAINED_MSG_BYTES,
            reply_byte_budget: crate::pool::WorkerPool::RETAINED_MSG_BYTES,
            hash_mask: u64::MAX,
        }
    }
}

/// Hit/miss/evict counters for one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Probes served from the tier.
    pub hits: u64,
    /// Probes that fell through to the uncached path.
    pub misses: u64,
    /// Entries evicted under the byte budget (epoch-invalidated reply
    /// entries count here too — they are dropped, not served).
    pub evictions: u64,
}

/// Cache counters ([`CommandCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// The verdict store's counters. No runtime path probes it, so they
    /// move only under the benchmark's shadow replay; kept for it (see
    /// the module docs).
    pub verdict: TierStats,
    /// Always zero: there is no template tier. Kept because the
    /// benchmark's shadow replay builds this struct by its field names.
    pub template: TierStats,
    /// Whole-reply tier (aggregated across every tenant view).
    pub reply: TierStats,
}

/// One stored entry: the full key for the collision check, the extra key
/// dimension (an epoch), the value and LRU bookkeeping.
#[derive(Debug)]
struct Entry<V> {
    key: StructKey,
    /// The env sync epoch (the verdict store takes the caller's).
    extra: u64,
    value: V,
    touched: u64,
    bytes: usize,
}

/// One bounded LRU store bucketed on the masked structural hash.
#[derive(Debug)]
struct Store<V> {
    buckets: HashMap<u64, Vec<Entry<V>>, Prehashed>,
    bytes: usize,
    budget: usize,
    mask: u64,
    clock: u64,
    stats: TierStats,
    /// Epoch of the last [`Store::retire_stale`] sweep. The reply tier
    /// sweeps on every probe; this tag makes the no-advance case O(1).
    swept_epoch: u64,
}

impl<V> Store<V> {
    fn new(budget: usize, mask: u64) -> Self {
        Self {
            buckets: HashMap::default(),
            bytes: 0,
            budget,
            mask,
            clock: 0,
            stats: TierStats::default(),
            swept_epoch: 0,
        }
    }

    /// Finds the entry matching `(key, extra)` — full canonical compare,
    /// never hash-trust — touching it on hit. The miss is *not* counted
    /// here; callers count exactly one hit or miss per probe.
    fn lookup(&mut self, key: &StructKey, extra: u64) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        let bucket = self.buckets.get_mut(&key.masked(self.mask))?;
        let e = bucket
            .iter_mut()
            .find(|e| e.extra == extra && e.key.tree_equal(key))?;
        e.touched = clock;
        Some(&e.value)
    }

    /// Inserts (or replaces) the entry for `(key, extra)`, then evicts
    /// LRU entries until the byte budget holds again.
    fn insert(&mut self, key: StructKey, extra: u64, value: V, value_bytes: usize) {
        self.clock += 1;
        let bytes = key.retained_bytes() + value_bytes + 64;
        let bucket = self.buckets.entry(key.masked(self.mask)).or_default();
        if let Some(pos) = bucket
            .iter()
            .position(|e| e.extra == extra && e.key.tree_equal(&key))
        {
            self.bytes -= bucket[pos].bytes;
            bucket.remove(pos);
        }
        bucket.push(Entry {
            key,
            extra,
            value,
            touched: self.clock,
            bytes,
        });
        self.bytes += bytes;
        if self.bytes > self.budget {
            self.evict_to(self.budget - self.budget / 4);
        }
    }

    /// Batched LRU eviction with hysteresis: one sort of (recency, size)
    /// pairs finds the touch-clock cutoff below which entries must go to
    /// reach `target` bytes, then a single retain pass drops them in
    /// place. Evicting a quarter of the budget per sweep amortizes the
    /// scan — cold all-distinct traffic pays O(log n) per insert instead
    /// of a full scan per evicted entry. The newest entry always
    /// survives, even oversized.
    fn evict_to(&mut self, target: usize) {
        let mut ages: Vec<(u64, usize)> = self
            .buckets
            .values()
            .flat_map(|b| b.iter().map(|e| (e.touched, e.bytes)))
            .collect();
        ages.sort_unstable_by_key(|&(touched, _)| touched);
        let mut excess = self.bytes.saturating_sub(target);
        let mut drop_count = 0usize;
        for &(_, bytes) in &ages {
            if excess == 0 {
                break;
            }
            excess = excess.saturating_sub(bytes);
            drop_count += 1;
        }
        drop_count = drop_count.min(ages.len().saturating_sub(1));
        if drop_count == 0 {
            return;
        }
        // Touch clocks are unique (every lookup/insert ticks the clock),
        // so the cutoff selects exactly the `drop_count` oldest entries.
        let cutoff = ages[drop_count - 1].0;
        let mut freed = 0usize;
        let mut dropped = 0u64;
        for bucket in self.buckets.values_mut() {
            bucket.retain(|e| {
                if e.touched <= cutoff {
                    freed += e.bytes;
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.buckets.retain(|_, b| !b.is_empty());
        self.bytes -= freed;
        self.stats.evictions += dropped;
    }

    /// Drops every entry whose `extra` (epoch) is not `current`,
    /// counting them as evictions. The reply tier calls this on every
    /// probe so stale entries never survive an epoch advance; the sweep
    /// tag makes the (overwhelmingly common) no-advance case free.
    fn retire_stale(&mut self, current: u64) {
        if current == self.swept_epoch {
            return;
        }
        self.swept_epoch = current;
        let mut dropped = 0u64;
        for bucket in self.buckets.values_mut() {
            bucket.retain(|e| {
                if e.extra == current {
                    true
                } else {
                    self.bytes -= e.bytes;
                    dropped += 1;
                    false
                }
            });
        }
        self.buckets.retain(|_, b| !b.is_empty());
        self.stats.evictions += dropped;
    }

    fn retained_bytes(&self) -> usize {
        self.bytes
    }
}

/// A reply-tier store decision deferred from classify time (where the
/// key, source text and epoch are in hand) to reply time (where success
/// is known). Repls keep these per batch slot and consume them only for
/// `Ok` replies.
#[derive(Debug)]
pub(crate) struct ReplyTicket {
    pub(crate) key: StructKey,
    pub(crate) text: String,
    pub(crate) epoch: u64,
}

/// A cached reply plus the exact source text it was recorded for (the
/// charge-exactness condition: same bytes in, same counters out).
#[derive(Debug)]
struct ReplyEntry {
    text: String,
    reply: Reply,
}

/// Handle to the command cache. Cloning shares everything; a
/// [`CommandCache::tenant_view`] shares the verdict store but holds its
/// own private reply tier (see the module docs for why). An
/// `Option<CommandCache>` of `None` in a repl config disables caching
/// entirely — the uncached paths are untouched.
#[derive(Debug, Clone)]
pub struct CommandCache {
    verdict: Arc<Mutex<Store<bool>>>,
    reply: Arc<Mutex<Store<ReplyEntry>>>,
    /// Reply-tier stats aggregated across every tenant view.
    reply_stats: Arc<Mutex<TierStats>>,
    config: CacheConfig,
}

impl CommandCache {
    /// A fresh cache with its own stores.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            verdict: Arc::new(Mutex::new(Store::new(
                config.shared_byte_budget,
                config.hash_mask,
            ))),
            reply: Arc::new(Mutex::new(Store::new(
                config.reply_byte_budget,
                config.hash_mask,
            ))),
            reply_stats: Arc::new(Mutex::new(TierStats::default())),
            config,
        }
    }

    /// A tenant's view: the verdict store shared with `self`, the reply
    /// tier private (tenant epochs and environments are not comparable).
    pub fn tenant_view(&self) -> Self {
        Self {
            verdict: Arc::clone(&self.verdict),
            reply: Arc::new(Mutex::new(Store::new(
                self.config.reply_byte_budget,
                self.config.hash_mask,
            ))),
            reply_stats: Arc::clone(&self.reply_stats),
            config: self.config.clone(),
        }
    }

    /// Cached classification verdict for `(key, epoch)`. Kept for the
    /// benchmark's shadow replay; no runtime path calls it.
    pub fn verdict_lookup(&self, key: &StructKey, epoch: u64) -> Option<bool> {
        let mut store = self.verdict.lock().expect("cache lock");
        let hit = store.lookup(key, epoch).copied();
        match hit {
            Some(_) => store.stats.hits += 1,
            None => store.stats.misses += 1,
        }
        hit
    }

    /// Records a classification verdict. Kept for the benchmark's shadow
    /// replay; no runtime path calls it.
    pub fn verdict_insert(&self, key: StructKey, epoch: u64, stageable: bool) {
        let mut store = self.verdict.lock().expect("cache lock");
        store.insert(key, epoch, stageable, 1);
    }

    /// Cached whole reply for `(key, text, epoch)`. Entries recorded
    /// against any other epoch are retired on sight — a reply never
    /// survives an env epoch advance. The returned clone carries the
    /// recorded counters (bit-identical by the source-text condition);
    /// the caller refreshes wall-clock time.
    pub fn reply_lookup(&self, key: &StructKey, text: &str, epoch: u64) -> Option<Reply> {
        let mut store = self.reply.lock().expect("cache lock");
        store.retire_stale(epoch);
        let hit = store
            .lookup(key, epoch)
            .filter(|e| e.text == text)
            .map(|e| e.reply.clone());
        let stale_evictions = std::mem::take(&mut store.stats.evictions);
        drop(store);
        let mut stats = self.reply_stats.lock().expect("cache lock");
        stats.evictions += stale_evictions;
        match hit {
            Some(r) => {
                stats.hits += 1;
                Some(r)
            }
            None => {
                stats.misses += 1;
                None
            }
        }
    }

    /// Records a classified-pure command's reply against `epoch`.
    pub fn reply_insert(&self, key: StructKey, text: &str, epoch: u64, reply: Reply) {
        let bytes = text.len() + reply.output.len() + std::mem::size_of::<Reply>();
        let mut store = self.reply.lock().expect("cache lock");
        store.retire_stale(epoch);
        store.insert(
            key,
            epoch,
            ReplyEntry {
                text: text.to_string(),
                reply,
            },
            bytes,
        );
        let stale_evictions = std::mem::take(&mut store.stats.evictions);
        drop(store);
        self.reply_stats.lock().expect("cache lock").evictions += stale_evictions;
    }

    /// Point-in-time counters. Verdict counters are the shared store's;
    /// reply counters aggregate every view.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            verdict: self.verdict.lock().expect("cache lock").stats,
            template: TierStats::default(),
            reply: *self.reply_stats.lock().expect("cache lock"),
        }
    }

    /// Bytes retained right now: the shared verdict store plus this
    /// view's reply store (other views' reply stores are theirs to
    /// report).
    pub fn retained_bytes(&self) -> usize {
        self.verdict.lock().expect("cache lock").retained_bytes()
            + self.reply.lock().expect("cache lock").retained_bytes()
    }

    /// The configured hash mask (propagated to key probes by callers
    /// that precompute masked buckets; tests narrow it).
    pub fn hash_mask(&self) -> u64 {
        self.config.hash_mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culi_core::{Interp, InterpConfig};

    fn key_of(src: &str) -> StructKey {
        let mut interp = Interp::new(InterpConfig::default());
        let forms = culi_core::parser::parse(&mut interp, src.as_bytes()).unwrap();
        StructKey::of_forms(&interp, &forms)
    }

    fn reply(text: &str) -> Reply {
        Reply {
            output: text.to_string(),
            ok: true,
            ..Default::default()
        }
    }

    #[test]
    fn reply_tier_hits_on_exact_text_and_epoch() {
        let cache = CommandCache::new(CacheConfig::default());
        let key = key_of("(+ 1 2)");
        assert!(cache.reply_lookup(&key, "(+ 1 2)", 5).is_none());
        cache.reply_insert(key.clone(), "(+ 1 2)", 5, reply("3"));
        let hit = cache.reply_lookup(&key, "(+ 1 2)", 5).expect("hit");
        assert_eq!(hit.output, "3");
        // Same structure, different source bytes: miss (charge-exactness
        // would otherwise break on whitespace-different parses).
        assert!(cache.reply_lookup(&key, "(+ 1  2)", 5).is_none());
    }

    #[test]
    fn reply_entries_never_survive_an_epoch_advance() {
        let cache = CommandCache::new(CacheConfig::default());
        let key = key_of("(+ 1 2)");
        cache.reply_insert(key.clone(), "(+ 1 2)", 5, reply("3"));
        // The advance itself retires the entry...
        assert!(cache.reply_lookup(&key, "(+ 1 2)", 6).is_none());
        // ...so even going back to the old epoch number cannot revive it.
        assert!(cache.reply_lookup(&key, "(+ 1 2)", 5).is_none());
        let stats = cache.stats();
        assert!(stats.reply.evictions >= 1);
        assert_eq!(stats.reply.hits, 0);
    }

    #[test]
    fn forced_hash_collision_falls_back_to_full_compare() {
        // mask 0: every key lands in one bucket.
        let cache = CommandCache::new(CacheConfig {
            hash_mask: 0,
            ..Default::default()
        });
        let a = key_of("(+ 1 2)");
        let b = key_of("(* 9 9)");
        assert_eq!(a.masked(0), b.masked(0), "collision must be forced");
        cache.reply_insert(a.clone(), "(+ 1 2)", 1, reply("3"));
        cache.reply_insert(b.clone(), "(* 9 9)", 1, reply("81"));
        // Both live in the same bucket; each probe still finds only its
        // own entry via the canonical compare.
        assert_eq!(cache.reply_lookup(&a, "(+ 1 2)", 1).unwrap().output, "3");
        assert_eq!(cache.reply_lookup(&b, "(* 9 9)", 1).unwrap().output, "81");
        cache.verdict_insert(a.clone(), 7, true);
        assert_eq!(cache.verdict_lookup(&a, 7), Some(true));
        assert_eq!(cache.verdict_lookup(&b, 7), None, "no false sharing");
    }

    #[test]
    fn verdict_store_is_epoch_scoped_and_shared_across_views() {
        let cache = CommandCache::new(CacheConfig::default());
        let view_a = cache.tenant_view();
        let view_b = cache.tenant_view();
        let key = key_of("(||| 2 + (1 2) (3 4))");
        view_a.verdict_insert(key.clone(), 42, true);
        // Same extra key: shared across tenant views.
        assert_eq!(view_b.verdict_lookup(&key, 42), Some(true));
        // Different extra key: not shared.
        assert_eq!(view_b.verdict_lookup(&key, 43), None);
        // Reply tier is NOT shared between views.
        view_a.reply_insert(key.clone(), "x", 1, reply("r"));
        assert!(view_b.reply_lookup(&key, "x", 1).is_none());
        assert!(view_a.reply_lookup(&key, "x", 1).is_some());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let cache = CommandCache::new(CacheConfig {
            reply_byte_budget: 600,
            ..Default::default()
        });
        let keys: Vec<StructKey> = (0..8).map(|k| key_of(&format!("(+ {k} {k})"))).collect();
        for (k, key) in keys.iter().enumerate() {
            cache.reply_insert(key.clone(), &format!("(+ {k} {k})"), 1, reply("x"));
        }
        let stats = cache.stats();
        assert!(stats.reply.evictions >= 1, "budget must have evicted");
        assert!(cache.retained_bytes() <= 600, "budget held");
        // The most recent key survived; the oldest was evicted.
        assert!(cache.reply_lookup(&keys[7], "(+ 7 7)", 1).is_some());
        assert!(cache.reply_lookup(&keys[0], "(+ 0 0)", 1).is_none());
    }
}
