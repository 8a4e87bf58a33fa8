//! The concurrent estimate memo table.
//!
//! A fixed array of mutex-striped `HashMap` shards keyed by design-point
//! fingerprint. Reads and writes for different shards never contend, and
//! the striping count (16) comfortably exceeds the worker parallelism of
//! the DSE driver. Counters are lock-free atomics, so hot-path hits cost
//! one shard lock plus one relaxed increment.

use parking_lot::Mutex;
use s2fa_hlssim::Estimate;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 16;

/// Pass-through hasher for maps keyed by fingerprint digests: the key
/// already carries a well-mixed 128-bit digest, so re-hashing it through
/// SipHash on every probe is pure overhead on the hot canonical and
/// alias paths. XOR-folds whatever arrives and lets `HashMap` take bits
/// from that — sound because every key is a digest.
#[derive(Debug, Default)]
pub struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only fixed-width integer keys are expected; fold whatever
        // arrives word-wise so the type still works as a generic Hasher.
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.0 ^= u64::from_le_bytes(w);
        }
    }

    fn write_u128(&mut self, v: u128) {
        self.0 ^= (v as u64) ^ ((v >> 64) as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

type FpMap<V> = HashMap<u128, V, BuildHasherDefault<FpHasher>>;

/// One stripe of the memo table plus its own hit/miss tallies. Folding
/// the counters into the shard keeps the hot probe at one lock round
/// trip — a separate atomic increment costs a second locked RMW per
/// evaluation, which is measurable on the warm alias path.
#[derive(Debug, Default)]
struct Shard {
    map: FpMap<Estimate>,
    hits: u64,
    misses: u64,
}

/// Monotonic counters of cache activity (see [`EstimateCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// First-writes: insertions that created a new entry. Counted via the
    /// entry API, so `inserts == entries` holds even under racing workers
    /// (an invariant the tests pin down).
    pub inserts: u64,
    /// Insertions that replaced an existing entry — benign races where
    /// two workers priced the same canonical point concurrently.
    pub overwrites: u64,
    /// Distinct entries currently stored.
    pub entries: u64,
    /// Design points the `s2fa-lint` legality pre-screen rejected before
    /// the estimator or the memo table was consulted. Counted even when
    /// caching is disabled — pruning is an engine property, and this
    /// snapshot is the engine's single activity record.
    pub pruned_illegal: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, thread-safe `fingerprint → Estimate` memo table.
///
/// Two tiers share the counters: the **canonical** table (keyed by the
/// fingerprint of the *normalized* configuration — the source of truth,
/// what `entries`/`inserts` count) and an **alias** table keyed by the
/// fingerprint of the *raw* configuration. A raw point that was evaluated
/// before short-circuits on the alias probe without paying the clone +
/// normalize + prescreen prologue; an alias miss costs one extra lookup
/// and is not counted (the canonical probe that follows counts it).
#[derive(Debug, Default)]
pub struct EstimateCache {
    shards: [Mutex<Shard>; SHARDS],
    alias: [Mutex<Shard>; SHARDS],
    inserts: AtomicU64,
    overwrites: AtomicU64,
    pruned: AtomicU64,
}

impl EstimateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    // Fold the fingerprint; FNV output is well-mixed in the low bits.
    fn shard_idx(key: u128) -> usize {
        ((key as u64) ^ ((key >> 64) as u64)) as usize % SHARDS
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[Self::shard_idx(key)]
    }

    /// Looks up an estimate, counting the hit or miss (tallied inside
    /// the already-held shard lock — no extra atomic on the hot path).
    pub fn get(&self, key: u128) -> Option<Estimate> {
        let mut guard = self.shard(key).lock();
        let found = guard.map.get(&key).cloned();
        match found {
            Some(_) => guard.hits += 1,
            None => guard.misses += 1,
        }
        found
    }

    /// Stores an estimate; returns `true` if the key was new. Racing
    /// inserts of the same key are benign — all writers computed the same
    /// value from the same canonical point — but only the first writer is
    /// counted as an insert (the loser counts as an overwrite), so
    /// `inserts` can never exceed `entries` and derived numbers (e.g. the
    /// CLI's distinct-points line) don't drift under concurrency.
    pub fn insert(&self, key: u128, estimate: Estimate) -> bool {
        use std::collections::hash_map::Entry;
        let mut shard = self.shard(key).lock();
        match shard.map.entry(key) {
            Entry::Vacant(v) => {
                v.insert(estimate);
                drop(shard);
                self.inserts.fetch_add(1, Ordering::Relaxed);
                true
            }
            Entry::Occupied(mut o) => {
                o.insert(estimate);
                drop(shard);
                self.overwrites.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Probes the alias tier with a **raw** (pre-normalization)
    /// fingerprint. A hit counts as a cache hit exactly like a canonical
    /// hit; a miss counts nothing — the canonical probe that follows it
    /// owns the miss, so hit/miss totals still sum to one count per
    /// evaluation.
    pub fn get_alias(&self, raw: u128) -> Option<Estimate> {
        let mut guard = self.alias[Self::shard_idx(raw)].lock();
        let found = guard.map.get(&raw).cloned();
        if found.is_some() {
            guard.hits += 1;
        }
        found
    }

    /// Maps a raw fingerprint onto an already-priced estimate. Alias
    /// entries are a lookup accelerator, not part of the memo table
    /// proper: they bump no insert counter and do not appear in
    /// `entries`/`len`.
    pub fn insert_alias(&self, raw: u128, estimate: Estimate) {
        self.alias[Self::shard_idx(raw)]
            .lock()
            .map
            .insert(raw, estimate);
    }

    /// Counts one legality-pre-screen rejection. Pruned points never
    /// touch the table or the hit/miss counters.
    pub fn count_pruned(&self) {
        self.pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of distinct entries stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Snapshot of the activity counters. Hit/miss tallies are summed
    /// over both tiers' shards (alias hits count as cache hits; alias
    /// misses were never tallied — the canonical probe that follows one
    /// owns the miss).
    pub fn stats(&self) -> CacheStats {
        let mut hits = 0;
        let mut misses = 0;
        for s in self.shards.iter().chain(self.alias.iter()) {
            let g = s.lock();
            hits += g.hits;
            misses += g.misses;
        }
        CacheStats {
            hits,
            misses,
            inserts: self.inserts.load(Ordering::Relaxed),
            overwrites: self.overwrites.load(Ordering::Relaxed),
            entries: self.len() as u64,
            pruned_illegal: self.pruned.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2fa_hlssim::{Feasibility, ResourceUsage};

    fn estimate(tag: u64) -> Estimate {
        Estimate {
            compute_cycles: tag,
            transfer_cycles: 0,
            total_cycles: tag,
            ii_critical: 1.0,
            freq_mhz: 250.0,
            time_ms: tag as f64,
            batch_tasks: 1,
            resources: ResourceUsage::new(),
            feasibility: Feasibility::Feasible,
            hls_minutes: 3.0,
        }
    }

    #[test]
    fn get_insert_and_counters() {
        let c = EstimateCache::new();
        assert!(c.get(7).is_none());
        assert!(c.insert(7, estimate(1)));
        assert_eq!(c.get(7).unwrap().compute_cycles, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert_eq!(s.overwrites, 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn repeated_insert_counts_as_overwrite_not_insert() {
        let c = EstimateCache::new();
        assert!(c.insert(7, estimate(1)));
        assert!(!c.insert(7, estimate(1)));
        assert!(!c.insert(7, estimate(1)));
        let s = c.stats();
        assert_eq!(s.inserts, 1, "only the first write creates the entry");
        assert_eq!(s.overwrites, 2);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn inserts_equal_entries_even_under_racing_writers() {
        // 8 workers all blindly insert the same 32 keys: first-writes must
        // equal distinct entries, with every other write an overwrite —
        // the counter invariant that keeps derived stats honest.
        let c = EstimateCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..96u64 {
                        c.insert((i % 32) as u128, estimate(i % 32));
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.entries, 32);
        assert_eq!(s.inserts, s.entries, "inserts drifted from entries");
        assert_eq!(s.inserts + s.overwrites, 8 * 96);
    }

    #[test]
    fn pruned_counter_is_independent_of_the_table() {
        let c = EstimateCache::new();
        c.count_pruned();
        c.count_pruned();
        let s = c.stats();
        assert_eq!(s.pruned_illegal, 2);
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn keys_spread_over_shards() {
        let c = EstimateCache::new();
        for k in 0..64u128 {
            c.insert(k, estimate(k as u64));
        }
        assert_eq!(c.len(), 64);
        let populated = c.shards.iter().filter(|s| !s.lock().map.is_empty()).count();
        assert!(populated > 1, "sequential keys should stripe");
    }

    #[test]
    fn concurrent_mixed_load() {
        let c = EstimateCache::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let key = (i % 32) as u128;
                        if c.get(key).is_none() {
                            c.insert(key, estimate(key as u64));
                        }
                        let _ = t;
                    }
                });
            }
        });
        assert_eq!(c.len(), 32);
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 800);
    }
}
