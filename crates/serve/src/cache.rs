//! The per-version result cache: a bounded, content-hash-keyed LRU that
//! memoizes `eval` and `lin_regions` reply payloads in front of the
//! batcher's pool calls.
//!
//! # Why this is sound
//!
//! Model versions are **immutable**: a repair never mutates a published
//! network, it publishes a new version.  Both served read operations are
//! therefore pure functions of `(network content, input)`, and a cached
//! payload can never go stale — invalidation is by construction, not by
//! protocol.  A repair publishing `m@v2` changes the value channel's
//! content hash, so `m@v2`'s eval keys differ from `m@v1`'s and the new
//! version can never be answered from the old version's entries.
//!
//! `lin_regions` gets a sharper key: the paper's Theorem 4.6 says value
//! edits preserve linear regions, so the result depends on the
//! **activation channel alone**.  A value-only repair keeps its parent's
//! activation hash, and `m@v2` legitimately *shares* `m@v1`'s
//! `lin_regions` entries — same key, bit-identical payload, extra hit
//! surface for free.
//!
//! # Key derivation
//!
//! A [`CacheKey`] is `(kind, network hash, input hash)`:
//!
//! * the network hash is FNV-1a over the relevant channel content hashes
//!   ([`crate::store::ModelVersion::channel_hashes`] — both channels for
//!   eval, activation only for `lin_regions`);
//! * the input hash is FNV-1a over the request payload's `f64` bit
//!   patterns with length framing (point/vertex counts and dimensions are
//!   mixed in, so `[[a, b]]` and `[[a], [b]]` never collide).
//!
//! Keys are 128-bit content hashes, not the payloads themselves: a probe
//! does not re-compare inputs, exactly like the WAL's content-hash
//! verification trusts FNV-1a to identify a network.  `-0.0` and `+0.0`
//! hash differently (distinct bit patterns); that only costs a duplicate
//! entry, never a wrong answer.
//!
//! # Bounds and eviction
//!
//! Capacity is a **byte budget** over approximate payload sizes, not an
//! entry count — one `lin_regions` reply can outweigh a thousand eval
//! replies.  Eviction is strict LRU (probes refresh recency); a payload
//! larger than the whole budget is simply not inserted.  A budget of 0
//! disables the cache entirely: probes and fills return without touching
//! the lock or the counters.

use crate::batcher::ReplyData;
use crate::store::ModelVersion;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default byte budget used by the server when `--cache-bytes` is not
/// given: 32 MiB, a few thousand typical eval replies.
pub const DEFAULT_CACHE_BYTES: usize = 32 * 1024 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Mixes one `u64` into an FNV-1a state, byte-wise little-endian — the
/// same mixing discipline as `prdnn_nn::network_content_hash`.
fn fnv_u64(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_f64(h: u64, x: f64) -> u64 {
    fnv_u64(h, x.to_bits())
}

/// Content-hash key of one cacheable request; see the module docs for the
/// derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `false` = eval, `true` = lin_regions (kept out of the hashes so the
    /// two namespaces can never alias).
    lin: bool,
    /// FNV-1a over the relevant channel content hashes.
    net_hash: u64,
    /// FNV-1a over the request payload with length framing.
    input_hash: u64,
}

impl CacheKey {
    /// Key for an `eval` request: both channels identify the answering
    /// network (the forward pass reads activation *and* value weights).
    pub fn eval(version: &ModelVersion, inputs: &[Vec<f64>]) -> CacheKey {
        let (act, val) = version.channel_hashes();
        let mut input_hash = fnv_u64(FNV_OFFSET, inputs.len() as u64);
        for point in inputs {
            input_hash = fnv_u64(input_hash, point.len() as u64);
            for &x in point {
                input_hash = fnv_f64(input_hash, x);
            }
        }
        CacheKey {
            lin: false,
            net_hash: fnv_u64(fnv_u64(FNV_OFFSET, act), val),
            input_hash,
        }
    }

    /// Key for a `lin_regions` request: the activation channel alone
    /// (Theorem 4.6 — value edits preserve linear regions), so value-only
    /// repairs share their parent's entries.
    pub fn lin_regions(version: &ModelVersion, polytopes: &[Vec<Vec<f64>>]) -> CacheKey {
        let (act, _) = version.channel_hashes();
        let mut input_hash = fnv_u64(FNV_OFFSET, polytopes.len() as u64);
        for polytope in polytopes {
            input_hash = fnv_u64(input_hash, polytope.len() as u64);
            for vertex in polytope {
                input_hash = fnv_u64(input_hash, vertex.len() as u64);
                for &x in vertex {
                    input_hash = fnv_f64(input_hash, x);
                }
            }
        }
        CacheKey {
            lin: true,
            net_hash: fnv_u64(FNV_OFFSET, act),
            input_hash,
        }
    }
}

/// Fixed per-entry overhead charged against the budget on top of the
/// payload floats: the key, the LRU bookkeeping, and the containers'
/// headers, rounded generously.
const ENTRY_OVERHEAD: usize = 128;
/// Approximate header cost of one `Vec` inside a payload.
const VEC_OVERHEAD: usize = 24;

/// Approximate heap size of a reply payload, for budget accounting.
fn payload_bytes(data: &ReplyData) -> usize {
    match data {
        ReplyData::Outputs(rows) => rows
            .iter()
            .map(|r| r.len() * 8 + VEC_OVERHEAD)
            .sum::<usize>(),
        ReplyData::Regions(lists) => lists
            .iter()
            .map(|regions| {
                regions
                    .iter()
                    .map(|region| {
                        region
                            .vertices
                            .iter()
                            .map(|v| v.len() * 8 + VEC_OVERHEAD)
                            .sum::<usize>()
                            + region.interior.len() * 8
                            + 3 * VEC_OVERHEAD
                    })
                    .sum::<usize>()
                    + VEC_OVERHEAD
            })
            .sum::<usize>(),
    }
}

/// Cache counters, exported by the `metrics` endpoint.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Probes answered from the cache (the pool never ran).
    pub hits: AtomicU64,
    /// Probes that missed and fell through to the batched call.
    pub misses: AtomicU64,
    /// Payloads inserted.
    pub inserts: AtomicU64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: AtomicU64,
    /// Fills skipped because the request's deadline had already expired by
    /// the time its result existed (the reply channel is likely dead; do
    /// not pay eviction churn for it).
    pub fill_skips: AtomicU64,
}

struct Entry {
    data: ReplyData,
    bytes: usize,
    /// This entry's slot in the recency order (key into `order`).
    tick: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Recency order: tick → key, oldest first.  Ticks are unique (a
    /// monotone counter), so a `BTreeMap` gives O(log n) refresh and O(log
    /// n) oldest-first eviction.
    order: BTreeMap<u64, CacheKey>,
    bytes: usize,
    next_tick: u64,
}

/// The bounded LRU result cache; see the module docs.
pub struct ResultCache {
    budget: usize,
    inner: Mutex<Inner>,
    /// Hit/miss/insert/eviction/fill-skip counters.
    pub counters: CacheCounters,
}

impl ResultCache {
    /// Creates a cache with the given byte budget.  A budget of 0 disables
    /// caching: every operation is a no-op and every counter stays 0.
    pub fn new(budget_bytes: usize) -> Self {
        ResultCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                bytes: 0,
                next_tick: 0,
            }),
            counters: CacheCounters::default(),
        }
    }

    /// A disabled cache (budget 0).
    pub fn disabled() -> Self {
        ResultCache::new(0)
    }

    /// Whether the cache can ever hold anything.
    pub fn is_enabled(&self) -> bool {
        self.budget > 0
    }

    /// Bytes currently held (the `prdnn_cache_bytes` gauge on the
    /// `metrics` endpoint).
    pub fn bytes(&self) -> u64 {
        self.lock().bytes as u64
    }

    /// Entries currently held (the `prdnn_cache_entries` gauge).
    ///
    /// Service-time telemetry — how long a request took when it hit the
    /// cache vs when it ran on the pool — is recorded by the batcher at the
    /// probe/fill sites (`prdnn_cache_service_seconds{result=...}`), not
    /// here: the cache has no notion of when the request arrived.
    pub fn entries(&self) -> u64 {
        self.lock().map.len() as u64
    }

    // Per the crate-wide policy (lib.rs), the cache recovers from lock
    // poisoning: its state is consistent at every await-free step, and a
    // worst-case inconsistency is a wrong *byte estimate*, never a wrong
    // payload.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a reply payload, refreshing its recency on a hit.
    pub fn probe(&self, key: &CacheKey) -> Option<ReplyData> {
        if !self.is_enabled() {
            return None;
        }
        let mut inner = self.lock();
        let inner = &mut *inner;
        match inner.map.get_mut(key) {
            Some(entry) => {
                inner.order.remove(&entry.tick);
                entry.tick = inner.next_tick;
                inner.order.insert(entry.tick, *key);
                inner.next_tick += 1;
                let data = entry.data.clone();
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(data)
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a reply payload, evicting least-recently-used entries until
    /// the budget holds.  Payloads larger than the whole budget are not
    /// inserted (they would evict everything and then thrash); a key that
    /// is already present keeps its existing entry (payloads for a key are
    /// bit-identical by construction, so there is nothing to update).
    pub fn fill(&self, key: CacheKey, data: &ReplyData) {
        if !self.is_enabled() {
            return;
        }
        let bytes = payload_bytes(data) + ENTRY_OVERHEAD;
        if bytes > self.budget {
            return;
        }
        let mut evicted = 0u64;
        let inserted = {
            let mut inner = self.lock();
            if inner.map.contains_key(&key) {
                false
            } else {
                let tick = inner.next_tick;
                inner.next_tick += 1;
                inner.map.insert(
                    key,
                    Entry {
                        data: data.clone(),
                        bytes,
                        tick,
                    },
                );
                inner.order.insert(tick, key);
                inner.bytes += bytes;
                while inner.bytes > self.budget {
                    let (&oldest_tick, &oldest_key) = inner
                        .order
                        .iter()
                        .next()
                        .expect("bytes > 0 implies entries");
                    inner.order.remove(&oldest_tick);
                    let entry = inner.map.remove(&oldest_key).expect("order/map in sync");
                    inner.bytes -= entry.bytes;
                    evicted += 1;
                }
                true
            }
        };
        if inserted {
            self.counters.inserts.fetch_add(1, Ordering::Relaxed);
        }
        if evicted > 0 {
            self.counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Records a fill that was skipped because the request's deadline had
    /// expired by the time its result was computed.
    pub fn skip_fill(&self) {
        if self.is_enabled() {
            self.counters.fill_skips.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_core::DecoupledNetwork;
    use prdnn_datasets::registry;

    fn version(name: &str, v: u32, ddnn: DecoupledNetwork) -> ModelVersion {
        ModelVersion::new(name.to_owned(), v, ddnn, "test".to_owned(), None)
    }

    fn outputs(n: usize, dim: usize) -> ReplyData {
        ReplyData::Outputs(vec![vec![0.5; dim]; n])
    }

    #[test]
    fn lru_evicts_oldest_first_within_the_byte_budget() {
        // Each payload: 1 row × 8 floats = 64 + 24 vec overhead = 88, plus
        // 128 entry overhead = 216 bytes.  Budget fits exactly three.
        let per_entry = 8 * 8 + VEC_OVERHEAD + ENTRY_OVERHEAD;
        let cache = ResultCache::new(3 * per_entry);
        let net = version("m", 1, ddnn("n1"));
        let keys: Vec<CacheKey> = (0..4)
            .map(|i| CacheKey::eval(&net, &[vec![i as f64]]))
            .collect();

        for key in &keys[..3] {
            cache.fill(*key, &outputs(1, 8));
        }
        assert_eq!(cache.entries(), 3);
        assert_eq!(cache.bytes(), 3 * per_entry as u64);

        // Refresh key 0 so key 1 is now the oldest, then overflow.
        assert!(cache.probe(&keys[0]).is_some());
        cache.fill(keys[3], &outputs(1, 8));
        assert_eq!(cache.entries(), 3);
        assert!(cache.probe(&keys[1]).is_none(), "LRU entry must be evicted");
        assert!(cache.probe(&keys[0]).is_some(), "refreshed entry survives");
        assert!(cache.probe(&keys[2]).is_some());
        assert!(cache.probe(&keys[3]).is_some());

        let c = &cache.counters;
        assert_eq!(c.inserts.load(Ordering::Relaxed), 4);
        assert_eq!(c.evictions.load(Ordering::Relaxed), 1);
        assert_eq!(c.hits.load(Ordering::Relaxed), 4);
        assert_eq!(c.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn oversized_payloads_and_duplicate_keys_are_not_inserted() {
        let cache = ResultCache::new(300);
        let net = version("m", 1, ddnn("n1"));
        let key = CacheKey::eval(&net, &[vec![1.0]]);

        // Larger than the whole budget: rejected outright.
        cache.fill(key, &outputs(10, 8));
        assert_eq!(cache.entries(), 0);

        cache.fill(key, &outputs(1, 1));
        cache.fill(key, &outputs(1, 1));
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.counters.inserts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = ResultCache::disabled();
        assert!(!cache.is_enabled());
        let net = version("m", 1, ddnn("n1"));
        let key = CacheKey::eval(&net, &[vec![1.0]]);
        cache.fill(key, &outputs(1, 1));
        assert!(cache.probe(&key).is_none());
        assert_eq!(cache.bytes(), 0);
        let c = &cache.counters;
        assert_eq!(c.hits.load(Ordering::Relaxed), 0);
        assert_eq!(c.misses.load(Ordering::Relaxed), 0);
        assert_eq!(c.inserts.load(Ordering::Relaxed), 0);
    }

    fn ddnn(spec: &str) -> DecoupledNetwork {
        DecoupledNetwork::from_network(&registry::build_model(spec).unwrap())
    }

    #[test]
    fn value_edits_change_eval_keys_but_share_lin_regions_keys() {
        let parent = version("m", 1, ddnn("n1"));
        // A value-only repair: same activation channel, different value
        // channel — exactly what `publish_repair` produces.
        let mut repaired_ddnn = ddnn("n1");
        let params = repaired_ddnn.value_network().layer(0).num_params();
        repaired_ddnn.apply_value_delta(0, &vec![0.25; params]);
        let child = version("m", 2, repaired_ddnn);

        let input = vec![vec![0.5]];
        assert_ne!(
            CacheKey::eval(&parent, &input),
            CacheKey::eval(&child, &input),
            "a repair must never be answered from the parent's eval entries"
        );

        let polytope = vec![vec![vec![-1.0], vec![2.0]]];
        assert_eq!(
            CacheKey::lin_regions(&parent, &polytope),
            CacheKey::lin_regions(&child, &polytope),
            "value edits preserve linear regions (Theorem 4.6): \
             the child shares the parent's lin_regions entries"
        );

        // Length framing: same flat floats, different shapes, distinct keys.
        assert_ne!(
            CacheKey::eval(&parent, &[vec![1.0, 2.0]]),
            CacheKey::eval(&parent, &[vec![1.0], vec![2.0]]),
        );
    }
}
