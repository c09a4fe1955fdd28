//! A sharded CLOCK cache for rendered predictions, with an optional
//! approximate (LSH) tier.
//!
//! EDGE predictions are a pure function of the *resolved entity set* (the
//! recognizer sorts and dedups mentions), the fallback policy, and the
//! model generation — so the cache key is exactly that triple, and a hit
//! returns the fully rendered JSON fragment without touching the model.
//!
//! The approximate tier (off by default) SimHashes each entity set into a
//! compact binary code: every entity votes its `splitmix64` bit pattern,
//! the per-bit majority becomes the signature. Entity sets that mostly
//! overlap land within a small Hamming distance, so a miss in the exact
//! map can still be answered by a near neighbor — useful for retweet
//! storms where sets differ by one incidental entity. A neighbor hit
//! serves the *neighbor's* rendered prediction, so this trades accuracy
//! for hit rate; `hamming_max == 0` disables the tier entirely and the
//! cache is byte-identical to the exact-only behavior. Generation and
//! fallback policy always match exactly — approximation never crosses a
//! model reload.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What uniquely determines a rendered prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Model generation the entry was computed under.
    pub generation: u64,
    /// Resolved entity ids (sorted + deduped by the recognizer).
    pub entities: Vec<usize>,
    /// Whether the zero-entity prior fallback was in effect.
    pub fallback: bool,
}

/// A key's parts, owned or borrowed. The shard maps are keyed by
/// [`CacheKey`] but probed through `dyn KeyView`, so a lookup borrows the
/// caller's entity slice instead of building an owned key.
trait KeyView {
    fn parts(&self) -> (u64, &[usize], bool);
}

impl KeyView for CacheKey {
    fn parts(&self) -> (u64, &[usize], bool) {
        (self.generation, &self.entities, self.fallback)
    }
}

/// A borrowed key: what a probe passes.
struct KeyRef<'a> {
    generation: u64,
    entities: &'a [usize],
    fallback: bool,
}

impl KeyView for KeyRef<'_> {
    fn parts(&self) -> (u64, &[usize], bool) {
        (self.generation, self.entities, self.fallback)
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyView + '_ {}

/// Hashes its parts like `dyn KeyView` does, so owned and borrowed keys
/// agree.
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

/// One cached fragment in a shard's CLOCK ring.
struct Slot {
    key: CacheKey,
    bytes: Arc<Vec<u8>>,
    /// Set by a hit; the hand clears it and passes over the slot once
    /// instead of evicting it.
    visited: bool,
}

/// A CLOCK ring of at most `per_shard` slots plus the key → slot index.
/// A full shard evicts at the hand: visited slots get a second chance
/// (their bit cleared), the first unvisited one is replaced in place.
#[derive(Default)]
struct Shard {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    hand: usize,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// SimHash over the resolved entity set: each entity's `splitmix64` bit
/// pattern votes ±1 per signature bit, the majority wins. Deterministic,
/// order-independent (keys arrive sorted + deduped anyway), and stable
/// across processes — no random hyperplanes to persist.
fn simhash(entities: &[usize], bits: u32) -> u64 {
    let mut votes = [0i32; 64];
    for &e in entities {
        let h = splitmix64(e as u64);
        for (i, v) in votes.iter_mut().enumerate().take(bits as usize) {
            *v += if (h >> i) & 1 == 1 { 1 } else { -1 };
        }
    }
    let mut sig = 0u64;
    for (i, &v) in votes.iter().enumerate().take(bits as usize) {
        if v > 0 {
            sig |= 1 << i;
        }
    }
    sig
}

/// One entry of the approximate tier: the signature plus everything that
/// must match *exactly* for a neighbor hit to be sound.
struct LshEntry {
    generation: u64,
    fallback: bool,
    signature: u64,
    tick: u64,
    bytes: Arc<Vec<u8>>,
}

/// The approximate tier lives in one flat ring, not the exact shards: a
/// Hamming-ball query has no single home shard (neighbors hash apart), so
/// sharding it would silently drop most candidates.
struct LshRing {
    entries: Vec<LshEntry>,
    tick: u64,
}

/// Sharded CLOCK cache over rendered JSON fragments: a hit sets its
/// slot's visited bit, and a full shard evicts at its hand in amortized
/// O(1) — the hand clears visited bits as it passes, so it stops within
/// one sweep. When `hamming_max > 0` a second, approximate tier answers
/// exact-map misses by linear XOR+popcount scan over SimHash signatures.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    lsh_bits: u32,
    hamming_max: u32,
    lsh: Mutex<LshRing>,
    hits: AtomicU64,
    misses: AtomicU64,
    lsh_hits: AtomicU64,
}

impl ResponseCache {
    /// Capacity 0 builds a disabled cache: every lookup misses, inserts
    /// are dropped. `hamming_max` 0 (or `lsh_bits` 0) disables the
    /// approximate tier, leaving behavior byte-identical to the exact
    /// cache.
    pub fn new(capacity: usize, shards: usize, lsh_bits: u32, hamming_max: u32) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity / shards;
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard,
            lsh_bits: lsh_bits.min(64),
            hamming_max,
            lsh: Mutex::new(LshRing { entries: Vec::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            lsh_hits: AtomicU64::new(0),
        }
    }

    fn lsh_enabled(&self) -> bool {
        self.hamming_max > 0 && self.lsh_bits > 0 && self.per_shard > 0
    }

    fn shard_of<K: Hash + ?Sized>(&self, key: &K) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks the key up, marking its slot visited on a hit. On an exact
    /// miss the approximate tier (when enabled) is consulted for the
    /// nearest signature within the Hamming budget.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        self.lookup(key)
    }

    /// [`Self::get`] without an owned key: probes with the caller's
    /// entity slice, so a hit allocates nothing.
    pub fn probe(
        &self,
        generation: u64,
        entities: &[usize],
        fallback: bool,
    ) -> Option<Arc<Vec<u8>>> {
        self.lookup(&KeyRef { generation, entities, fallback } as &dyn KeyView)
    }

    fn lookup<K>(&self, key: &K) -> Option<Arc<Vec<u8>>>
    where
        K: KeyView + Hash + Eq + ?Sized,
        CacheKey: Borrow<K>,
    {
        if self.per_shard == 0 {
            return None;
        }
        {
            let mut shard = self.shard_of(key).lock().unwrap_or_else(|e| e.into_inner());
            if let Some(&i) = shard.map.get(key) {
                let slot = &mut shard.slots[i];
                slot.visited = true;
                let bytes = Arc::clone(&slot.bytes);
                self.hits.fetch_add(1, Ordering::Relaxed);
                edge_obs::counter!("serve.cache.hits").inc(1);
                return Some(bytes);
            }
        }
        if self.lsh_enabled() {
            if let Some(bytes) = self.lsh_get(key.parts()) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.lsh_hits.fetch_add(1, Ordering::Relaxed);
                edge_obs::counter!("serve.cache.hits").inc(1);
                edge_obs::counter!("serve.cache.lsh_hits").inc(1);
                return Some(bytes);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        edge_obs::counter!("serve.cache.misses").inc(1);
        None
    }

    /// Scans the approximate tier for the signature nearest to `key`'s
    /// within `hamming_max`, most recent on ties. O(ring), one popcount
    /// per entry.
    fn lsh_get(
        &self,
        (generation, entities, fallback): (u64, &[usize], bool),
    ) -> Option<Arc<Vec<u8>>> {
        let sig = simhash(entities, self.lsh_bits);
        let mut ring = self.lsh.lock().unwrap_or_else(|e| e.into_inner());
        ring.tick += 1;
        let tick = ring.tick;
        let mut best: Option<(u32, u64, usize)> = None;
        for (i, e) in ring.entries.iter().enumerate() {
            if e.generation != generation || e.fallback != fallback {
                continue;
            }
            let d = (e.signature ^ sig).count_ones();
            if d <= self.hamming_max
                && best.map_or(true, |(bd, bt, _)| d < bd || (d == bd && e.tick > bt))
            {
                best = Some((d, e.tick, i));
            }
        }
        best.map(|(_, _, i)| {
            let entry = &mut ring.entries[i];
            entry.tick = tick;
            Arc::clone(&entry.bytes)
        })
    }

    /// Inserts a rendered fragment. A key already cached has its bytes
    /// replaced and counts as touched; a new key on a full shard replaces
    /// the first unvisited slot at the CLOCK hand.
    pub fn insert(&self, key: CacheKey, bytes: Arc<Vec<u8>>) {
        if self.per_shard == 0 {
            return;
        }
        let lsh = self
            .lsh_enabled()
            .then(|| (key.generation, key.fallback, simhash(&key.entities, self.lsh_bits)));
        let mut guard =
            self.shard_of(&key as &dyn KeyView).lock().unwrap_or_else(|e| e.into_inner());
        let shard = &mut *guard;
        if let Some(&i) = shard.map.get(&key) {
            let slot = &mut shard.slots[i];
            slot.bytes = Arc::clone(&bytes);
            slot.visited = true;
        } else if shard.slots.len() < self.per_shard {
            shard.map.insert(key.clone(), shard.slots.len());
            shard.slots.push(Slot { key, bytes: Arc::clone(&bytes), visited: false });
        } else {
            while std::mem::take(&mut shard.slots[shard.hand].visited) {
                shard.hand = (shard.hand + 1) % shard.slots.len();
            }
            let i = shard.hand;
            shard.hand = (i + 1) % shard.slots.len();
            shard.map.remove(&shard.slots[i].key);
            shard.map.insert(key.clone(), i);
            shard.slots[i] = Slot { key, bytes: Arc::clone(&bytes), visited: false };
        }
        drop(guard);

        if let Some((generation, fallback, signature)) = lsh {
            let mut ring = self.lsh.lock().unwrap_or_else(|e| e.into_inner());
            ring.tick += 1;
            let tick = ring.tick;
            // Same (generation, fallback, signature) → overwrite in place;
            // otherwise LRU-evict once the ring reaches the cache capacity.
            if let Some(e) = ring.entries.iter_mut().find(|e| {
                e.generation == generation && e.fallback == fallback && e.signature == signature
            }) {
                e.tick = tick;
                e.bytes = bytes;
                return;
            }
            let cap = self.per_shard * self.shards.len();
            if ring.entries.len() >= cap {
                if let Some(oldest) =
                    ring.entries.iter().enumerate().min_by_key(|(_, e)| e.tick).map(|(i, _)| i)
                {
                    ring.entries.swap_remove(oldest);
                }
            }
            ring.entries.push(LshEntry { generation, fallback, signature, tick, bytes });
        }
    }

    /// Drops every entry — called on hot reload so stale generations
    /// cannot be served (keys carry the generation too; clearing just
    /// reclaims the memory immediately).
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock().unwrap_or_else(|e| e.into_inner()) = Shard::default();
        }
        self.lsh.lock().unwrap_or_else(|e| e.into_inner()).entries.clear();
    }

    /// Lifetime (hits, misses) — independent of whether the global metrics
    /// registry is enabled. LSH-tier hits are included in hits and also
    /// reported separately by [`Self::lsh_hit_count`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// How many hits were served by the approximate tier.
    pub fn lsh_hit_count(&self) -> u64 {
        self.lsh_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: usize) -> CacheKey {
        CacheKey { generation: 1, entities: vec![id], fallback: false }
    }

    #[test]
    fn hit_after_insert_miss_after_clear() {
        let cache = ResponseCache::new(64, 4, 0, 0);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), Arc::new(b"x".to_vec()));
        assert_eq!(cache.get(&key(1)).unwrap().as_slice(), b"x");
        cache.clear();
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn a_borrowed_probe_finds_what_get_finds() {
        let cache = ResponseCache::new(64, 4, 0, 0);
        for id in 0..32 {
            cache.insert(key(id), Arc::new(vec![id as u8]));
        }
        for id in 0..32 {
            let got = cache.probe(1, &[id], false).expect("hit");
            assert_eq!(got, cache.get(&key(id)).unwrap());
        }
        assert!(cache.probe(2, &[0], false).is_none());
        assert!(cache.probe(1, &[0], true).is_none());
        assert!(cache.probe(1, &[0, 1], false).is_none());
    }

    #[test]
    fn distinct_generations_do_not_collide() {
        let cache = ResponseCache::new(64, 4, 0, 0);
        cache.insert(CacheKey { generation: 1, ..key(7) }, Arc::new(b"old".to_vec()));
        let new_gen = CacheKey { generation: 2, ..key(7) };
        assert!(cache.get(&new_gen).is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // One shard of capacity 2 keeps the recently touched keys.
        let cache = ResponseCache::new(2, 1, 0, 0);
        cache.insert(key(1), Arc::new(b"1".to_vec()));
        cache.insert(key(2), Arc::new(b"2".to_vec()));
        assert!(cache.get(&key(1)).is_some()); // refresh 1
        cache.insert(key(3), Arc::new(b"3".to_vec())); // evicts 2
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn a_retouched_entry_survives_one_full_sweep_of_the_hand() {
        let cache = ResponseCache::new(4, 1, 0, 0);
        for id in 1..=4 {
            cache.insert(key(id), Arc::new(vec![id as u8]));
        }
        // Touched, key 1 gets a second chance; three new keys then sweep
        // the hand past every other slot once.
        assert!(cache.get(&key(1)).is_some());
        for id in 5..=7 {
            cache.insert(key(id), Arc::new(vec![id as u8]));
        }
        assert!(cache.get(&key(1)).is_some(), "the touched entry survived the sweep");
        for id in 2..=4 {
            assert!(cache.get(&key(id)).is_none(), "untouched key {id} was evicted");
        }
        // The sweep spent key 1's bit, but the probe above set it again:
        // the next insert evicts the first untouched key at the hand, 5.
        cache.insert(key(8), Arc::new(vec![8]));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(5)).is_none());
    }

    #[test]
    fn a_full_shard_never_grows_past_per_shard() {
        let cache = ResponseCache::new(8, 1, 0, 0);
        for round in 0..3 {
            for id in 0..100 {
                cache.insert(key(id), Arc::new(vec![round]));
                if id % 3 == 0 {
                    cache.get(&key(id / 2));
                }
                let shard = cache.shards[0].lock().unwrap();
                assert!(shard.slots.len() <= 8, "ring grew to {}", shard.slots.len());
                assert_eq!(shard.map.len(), shard.slots.len(), "index and ring agree");
            }
        }
        let shard = cache.shards[0].lock().unwrap();
        for (i, slot) in shard.slots.iter().enumerate() {
            assert_eq!(shard.map[&slot.key], i, "every slot is indexed at its position");
        }
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let cache = ResponseCache::new(0, 4, 0, 0);
        cache.insert(key(1), Arc::new(b"x".to_vec()));
        assert!(cache.get(&key(1)).is_none());
    }

    /// An overlapping (but not equal) entity set must land within a small
    /// Hamming distance of the original's signature.
    fn near_neighbor_sets(bits: u32, hamming_max: u32) -> (Vec<usize>, Vec<usize>) {
        let base: Vec<usize> = (0..12).collect();
        for extra in 100..100_000 {
            let mut near = base.clone();
            near.push(extra);
            let d = (simhash(&base, bits) ^ simhash(&near, bits)).count_ones();
            if d > 0 && d <= hamming_max {
                return (base, near);
            }
        }
        panic!("no near neighbor found");
    }

    #[test]
    fn lsh_tier_answers_near_neighbor_misses() {
        let cache = ResponseCache::new(64, 4, 16, 3);
        let (base, near) = near_neighbor_sets(16, 3);
        cache.insert(
            CacheKey { generation: 1, entities: base, fallback: false },
            Arc::new(b"cached".to_vec()),
        );
        let probe = CacheKey { generation: 1, entities: near, fallback: false };
        assert_eq!(cache.get(&probe).unwrap().as_slice(), b"cached");
        assert_eq!(cache.lsh_hit_count(), 1);
        assert_eq!(cache.stats().0, 1, "LSH hits count as hits");
    }

    #[test]
    fn lsh_tier_never_crosses_generation_or_fallback() {
        let cache = ResponseCache::new(64, 4, 16, 16 - 1);
        let entities: Vec<usize> = (0..8).collect();
        cache.insert(
            CacheKey { generation: 1, entities: entities.clone(), fallback: false },
            Arc::new(b"gen1".to_vec()),
        );
        // Identical signature, different generation / fallback: both miss.
        assert!(cache
            .get(&CacheKey { generation: 2, entities: entities.clone(), fallback: false })
            .is_none());
        assert!(cache.get(&CacheKey { generation: 1, entities, fallback: true }).is_none());
        assert_eq!(cache.lsh_hit_count(), 0);
    }

    #[test]
    fn hamming_zero_is_byte_identical_to_exact_cache() {
        // Same operation sequence against an exact cache and a
        // hamming_max=0 cache: every outcome must agree, including for
        // near-neighbor probes the LSH tier would have answered.
        let exact = ResponseCache::new(64, 4, 0, 0);
        let off = ResponseCache::new(64, 4, 16, 0);
        let (base, near) = near_neighbor_sets(16, 3);
        for c in [&exact, &off] {
            c.insert(
                CacheKey { generation: 1, entities: base.clone(), fallback: false },
                Arc::new(b"v".to_vec()),
            );
        }
        let probes = [
            CacheKey { generation: 1, entities: base, fallback: false },
            CacheKey { generation: 1, entities: near, fallback: false },
            CacheKey { generation: 1, entities: vec![999], fallback: false },
        ];
        for p in &probes {
            let (a, b) = (exact.get(p), off.get(p));
            assert_eq!(a.is_some(), b.is_some(), "outcome diverged for {p:?}");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
        assert_eq!(exact.stats(), off.stats());
        assert_eq!(off.lsh_hit_count(), 0);
    }

    #[test]
    fn lsh_ring_is_bounded_and_cleared() {
        let cache = ResponseCache::new(4, 1, 16, 3);
        for i in 0..64 {
            cache.insert(
                CacheKey { generation: 1, entities: vec![i, i + 1000], fallback: false },
                Arc::new(vec![i as u8]),
            );
        }
        let ring_len = cache.lsh.lock().unwrap().entries.len();
        assert!(ring_len <= 4, "ring grew to {ring_len}");
        cache.clear();
        assert!(cache.lsh.lock().unwrap().entries.is_empty());
    }
}
