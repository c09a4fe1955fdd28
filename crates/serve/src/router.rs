//! Model router: picks the metro-area shard that serves a tweet.
//!
//! Each shard is a full serving stack (model slot, micro-batch queue,
//! response-cache partition, SLO/brownout state) loaded from its own
//! artifact (`--model NAME=PATH`, repeatable). Routing is two-tier:
//!
//! 1. **Affinity.** A union recognizer (every shard's gazetteer merged
//!    into one phrase trie) scans the tweet's tokens; each shard's
//!    affinity is how many of those mentions its *current* entity index
//!    knows. A unique argmax with positive affinity wins — a tweet about
//!    Broadway goes to the shard whose diffusion graph actually contains
//!    Broadway.
//! 2. **Consistent hash.** Ties (including the no-known-entity case)
//!    fall through to a vnode hash ring keyed on the sorted canonical
//!    mention ids (or the raw text when no mentions at all), so equal
//!    entity sets always land on the same shard and adding/removing a
//!    shard only remaps the keys that shard owns.
//!
//! [`Router::route_resolve`] is the server's per-text path: it tokenizes
//! the text once into a [`TextScratch`], routes on the union view, then
//! resolves with the chosen shard's own recognizer over the same tokens
//! (the two views can segment a text differently when a longer phrase is
//! known only to another shard), all in reused buffers. With one shard
//! the router short-circuits to shard 0 without running the union
//! recognizer, so the single-model path pays only its own resolution.

use edge_core::model::EdgeModel;
use edge_text::ner::{EntityRecognizer, Mentions};
use edge_text::TokenScan;
use std::sync::Arc;

/// 64-bit FNV-1a with a splitmix64 finalizer. Stable and
/// dependency-free; the finalizer matters because ring placement is
/// ordered by the *high* bits, where raw FNV-1a avalanches poorly on
/// short, similar keys like `"nyma/0" .. "nyma/63"`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer: full-width avalanche.
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// A consistent-hash ring over shard names. Every shard contributes
/// `vnodes` points hashed from `"{name}/{v}"`, so a shard's points are a
/// pure function of its name — adding or removing a shard by name leaves
/// every other shard's points (and therefore key ownership) untouched.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard_index)` sorted by point.
    points: Vec<(u64, usize)>,
}

/// Vnodes per shard: enough to balance a handful of metro shards within
/// a few percent without bloating the binary search.
pub const DEFAULT_VNODES: usize = 64;

impl HashRing {
    pub fn new(names: &[String], vnodes: usize) -> HashRing {
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (idx, name) in names.iter().enumerate() {
            for v in 0..vnodes {
                points.push((fnv1a(format!("{name}/{v}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The shard owning `key`: the first ring point at or after it,
    /// wrapping at the top.
    pub fn route(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(p, _)| p < key);
        self.points[i % self.points.len()].1
    }
}

/// The hash key for a resolved entity set: sorted canonical mention ids
/// joined with an unprintable separator. Equal sets hash equally no
/// matter the mention order in the tweet.
pub fn entity_set_key(mention_ids: &mut Vec<String>) -> u64 {
    mention_ids.sort_unstable();
    mention_ids.dedup();
    fnv1a(mention_ids.join(KEY_SEP).as_bytes())
}

/// Separator between the ids of a ring key (see [`entity_set_key`]).
const KEY_SEP: &str = "\u{1f}";

/// Reusable per-text buffers of the routed path: one tokenization, the
/// mentions of whichever recognizer ran last over it, the ring key bytes
/// and the resolved entity ids. Once warm, routing and resolving a text
/// through them allocates nothing. The server keeps one per event loop.
#[derive(Debug, Default)]
pub struct TextScratch {
    tokens: TokenScan,
    mentions: Mentions,
    order: Vec<usize>,
    key: Vec<u8>,
    entities: Vec<usize>,
}

impl TextScratch {
    pub fn new() -> TextScratch {
        TextScratch::default()
    }

    /// The entity ids the last [`Router::route_resolve`] left: the owning
    /// shard's `resolve_entities` of the text, sorted and distinct.
    pub fn entities(&self) -> &[usize] {
        &self.entities
    }
}

/// The routing half of the serving stack: shard names, the merged
/// recognizer, and the ring. Pure and immutable — the topology is fixed
/// at startup (consistent hashing is only useful if it is stable), while
/// per-shard affinity follows hot reloads because it consults each
/// shard's current entity index at request time.
pub struct Router {
    names: Vec<String>,
    ring: HashRing,
    /// `None` for a single shard: routing is skipped entirely.
    union: Option<EntityRecognizer>,
}

impl Router {
    /// Builds the router from the shards' startup models (names and
    /// models index-aligned).
    pub fn new(names: Vec<String>, models: &[Arc<EdgeModel>]) -> Router {
        let union = (names.len() > 1).then(|| {
            let mut merged = EntityRecognizer::new();
            for model in models {
                merged.merge(model.recognizer());
            }
            merged
        });
        let ring = HashRing::new(&names, DEFAULT_VNODES);
        Router { names, ring, union }
    }

    pub fn shard_names(&self) -> &[String] {
        &self.names
    }

    pub fn shard_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Routes one tweet given every shard's current model (fetched once
    /// per request by the caller, index-aligned with the shard list).
    pub fn route_text(&self, text: &str, models: &[Arc<EdgeModel>]) -> usize {
        if self.union.is_none() {
            return 0;
        }
        let mut scratch = TextScratch::new();
        scratch.tokens.scan(text);
        self.route_scanned(text, models, &mut scratch)
    }

    /// Routes one tweet and resolves it on the shard it routes to, leaving
    /// the entity ids in [`TextScratch::entities`]: the same shard as
    /// [`Self::route_text`] and the same ids as that shard's
    /// `resolve_entities`, from one tokenization.
    pub fn route_resolve(
        &self,
        text: &str,
        models: &[Arc<EdgeModel>],
        scratch: &mut TextScratch,
    ) -> usize {
        scratch.tokens.scan(text);
        let s = self.route_scanned(text, models, scratch);
        models[s].resolve_into(&scratch.tokens, &mut scratch.mentions, &mut scratch.entities);
        s
    }

    fn route_scanned(
        &self,
        text: &str,
        models: &[Arc<EdgeModel>],
        scratch: &mut TextScratch,
    ) -> usize {
        let Some(union) = &self.union else { return 0 };
        let TextScratch { tokens, mentions, order, key, .. } = scratch;
        union.scan(tokens, mentions);
        // Affinity: how many recognized mentions each shard's entity
        // index can actually serve.
        let mut best = 0usize;
        let mut best_count = 0usize;
        let mut tied = true;
        for (idx, model) in models.iter().enumerate() {
            let index = model.entity_index();
            let count =
                (0..mentions.len()).filter(|&i| index.get(mentions.id(i)).is_some()).count();
            if count > best_count {
                best = idx;
                best_count = count;
                tied = false;
            } else if count == best_count && count > 0 {
                tied = true;
            }
        }
        if best_count > 0 && !tied {
            edge_obs::counter!("serve.route.affinity").inc(1);
            return best;
        }
        // Tie or no known entity: deterministic consistent hash over the
        // bytes `entity_set_key` hashes (mention ids are already distinct).
        edge_obs::counter!("serve.route.ring").inc(1);
        let hash = if mentions.is_empty() {
            fnv1a(text.as_bytes())
        } else {
            order.clear();
            order.extend(0..mentions.len());
            order.sort_unstable_by(|&a, &b| mentions.id(a).cmp(mentions.id(b)));
            key.clear();
            for (k, &i) in order.iter().enumerate() {
                if k > 0 {
                    key.extend_from_slice(KEY_SEP.as_bytes());
                }
                key.extend_from_slice(mentions.id(i).as_bytes());
            }
            fnv1a(key)
        };
        self.ring.route(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ring_routing_is_deterministic() {
        let ring = HashRing::new(&names(&["nyma", "lama", "covid"]), DEFAULT_VNODES);
        for k in 0..1000u64 {
            let key = fnv1a(&k.to_le_bytes());
            assert_eq!(ring.route(key), ring.route(key));
        }
    }

    #[test]
    fn ring_spreads_keys_roughly_evenly() {
        let ring = HashRing::new(&names(&["nyma", "lama", "covid"]), DEFAULT_VNODES);
        let mut counts = [0usize; 3];
        for k in 0..3000u64 {
            counts[ring.route(fnv1a(&k.to_le_bytes()))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 300, "shard {i} starved: {counts:?}");
        }
    }

    /// Removing a shard remaps exactly the keys it owned; every key on a
    /// surviving shard stays put. (The ≤ K/n consistency property —
    /// removal moves only the removed shard's share.)
    #[test]
    fn removing_a_shard_remaps_only_its_own_keys() {
        let all = names(&["nyma", "lama", "covid", "chi"]);
        let kept = names(&["nyma", "lama", "chi"]); // drop "covid"
        let before = HashRing::new(&all, DEFAULT_VNODES);
        let after = HashRing::new(&kept, DEFAULT_VNODES);
        let mut moved = 0usize;
        let total = 4000u64;
        for k in 0..total {
            let key = fnv1a(&k.to_le_bytes());
            let owner_before = all[before.route(key)].clone();
            let owner_after = kept[after.route(key)].clone();
            if owner_before == "covid" {
                moved += 1; // had to move somewhere
            } else {
                assert_eq!(owner_before, owner_after, "surviving key moved: {k}");
            }
        }
        // The removed shard owned roughly K/n of the keyspace.
        assert!(moved > 0 && moved < total as usize / 2, "moved {moved} of {total}");
    }

    /// Adding a shard only steals keys for the new shard; no key moves
    /// between pre-existing shards.
    #[test]
    fn adding_a_shard_steals_at_most_its_share() {
        let old = names(&["nyma", "lama"]);
        let new = names(&["nyma", "lama", "covid"]);
        let before = HashRing::new(&old, DEFAULT_VNODES);
        let after = HashRing::new(&new, DEFAULT_VNODES);
        let total = 4000u64;
        let mut stolen = 0usize;
        for k in 0..total {
            let key = fnv1a(&k.to_le_bytes());
            let owner_before = old[before.route(key)].clone();
            let owner_after = new[after.route(key)].clone();
            if owner_after != owner_before {
                assert_eq!(owner_after, "covid", "key {k} moved between old shards");
                stolen += 1;
            }
        }
        // Expected share is K/n = 1/3; allow generous slack but require
        // the bound that matters: well under a full reshuffle.
        assert!(stolen > 0 && stolen < (total as usize * 6) / 10, "stolen {stolen}");
    }

    #[test]
    fn entity_set_key_ignores_order_and_duplicates() {
        let mut a = vec!["times_square".to_string(), "broadway".to_string()];
        let mut b =
            vec!["broadway".to_string(), "times_square".to_string(), "broadway".to_string()];
        assert_eq!(entity_set_key(&mut a), entity_set_key(&mut b));
        let mut c = vec!["broadway".to_string()];
        assert_ne!(entity_set_key(&mut a), entity_set_key(&mut c));
    }
}
