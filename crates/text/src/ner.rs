//! A chunker-style named-entity recognizer for tweets.
//!
//! EDGE's entity2vec module uses the "Chunker Named Entity Recognizer"
//! (Ritter et al.), a tool trained specifically on tweets and reported at
//! 0.88 accuracy, which also classifies entities into 10 categories (one of
//! which is *Geolocation* — the paper's Section IV-A statistics rely on
//! that classification). The original tool's models are not available as
//! Rust artifacts, so this module re-creates its *behaviour*:
//!
//! * hashtags and @-mentions are entity candidates,
//! * capitalized token chunks are grouped into multi-word entities
//!   ("Majestic Theatre" is one entity, not two words),
//! * a gazetteer (playing the role of the recognizer's trained knowledge;
//!   in the pipeline it is derived from the training corpus) supplies
//!   categories and catches lowercase surface forms,
//! * sentence-initial capitalization and stop words are filtered.
//!
//! Like the real tool, recognition is imperfect by construction: entities
//! rendered in lowercase that are absent from the gazetteer are missed,
//! which is what produces the ~87–95% recognition band the paper audits.
//!
//! The gazetteer is compiled into a phrase trie over interned lowercase
//! tokens. [`EntityRecognizer::scan`] runs the three passes over a
//! [`TokenScan`] into reusable [`Mentions`] buffers without allocating, so
//! one tokenization serves every recognizer that looks at a text (the
//! server routes with one and resolves with another);
//! [`EntityRecognizer::recognize`] is that scan plus owned copies.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::stopwords::is_stopword;
use crate::token::{TokenKind, TokenScan};

/// The 10 entity categories of the Ritter et al. recognizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntityCategory {
    /// A person.
    Person,
    /// A geographic location — the category the Section IV-A statistics
    /// count. Note that locations are merely a *subset* of geo-indicative
    /// entities (e.g. "American Airlines" is geo-indicative but a Company).
    Geolocation,
    /// A company or organization.
    Company,
    /// A facility (hospital, theatre, stadium, …).
    Facility,
    /// A product.
    Product,
    /// A musical act.
    Band,
    /// A movie.
    Movie,
    /// A sports team.
    SportsTeam,
    /// A TV show.
    TvShow,
    /// Anything else.
    Other,
}

impl EntityCategory {
    /// Whether the category is the recognizer's location class.
    pub fn is_location(self) -> bool {
        self == EntityCategory::Geolocation
    }
}

/// One recognized entity mention.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityMention {
    /// Canonical id: lowercase, spaces replaced by `_` (the phrase-token
    /// form entity2vec trains on, e.g. `majestic_theatre`).
    pub id: String,
    /// The surface text as it appeared.
    pub surface: String,
    /// Predicted category.
    pub category: EntityCategory,
}

/// FxHash (rustc's hasher): one multiply per word. The trie's maps only
/// ever insert gazetteer tokens and its own node ids, never request text,
/// so SipHash's flooding resistance buys nothing on the per-token lookups.
#[derive(Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        for &b in chunks.remainder() {
            self.add(b as u64);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Token id of a token the trie's vocabulary does not hold.
const UNKNOWN: u32 = u32::MAX;

/// One trie node: the edge that leads to it, and its category when a
/// gazetteer phrase ends here. Node 0 is the root.
#[derive(Debug, Clone, Copy)]
struct Node {
    parent: u32,
    word: u32,
    category: Option<EntityCategory>,
}

/// The gazetteer as a trie over interned lowercase tokens.
#[derive(Debug, Clone)]
struct PhraseTrie {
    /// Lowercase token → token id.
    vocab: HashMap<Box<str>, u32, FxBuild>,
    /// Token id → lowercase token.
    words: Vec<Box<str>>,
    /// `(node << 32) | token id` → child node.
    edges: HashMap<u64, u32, FxBuild>,
    nodes: Vec<Node>,
    /// Number of terminal nodes (gazetteer entries).
    entries: usize,
}

impl Default for PhraseTrie {
    fn default() -> Self {
        Self {
            vocab: HashMap::default(),
            words: Vec::new(),
            edges: HashMap::default(),
            nodes: vec![Node { parent: 0, word: UNKNOWN, category: None }],
            entries: 0,
        }
    }
}

impl PhraseTrie {
    fn word_id(&self, word: &str) -> u32 {
        self.vocab.get(word).copied().unwrap_or(UNKNOWN)
    }

    fn child(&self, node: u32, word: u32) -> Option<u32> {
        self.edges.get(&(((node as u64) << 32) | word as u64)).copied()
    }

    /// Inserts a phrase. An existing entry keeps its category unless
    /// `overwrite`; an empty phrase is ignored.
    fn insert<'a>(
        &mut self,
        phrase: impl IntoIterator<Item = &'a str>,
        category: EntityCategory,
        overwrite: bool,
    ) {
        let mut node = 0u32;
        for word in phrase {
            let id = match self.vocab.get(word) {
                Some(&id) => id,
                None => {
                    let id = self.words.len() as u32;
                    self.words.push(word.into());
                    self.vocab.insert(word.into(), id);
                    id
                }
            };
            node = match self.child(node, id) {
                Some(child) => child,
                None => {
                    let child = self.nodes.len() as u32;
                    self.nodes.push(Node { parent: node, word: id, category: None });
                    self.edges.insert(((node as u64) << 32) | id as u64, child);
                    child
                }
            };
        }
        if node == 0 {
            return;
        }
        let slot = &mut self.nodes[node as usize].category;
        match slot {
            None => {
                self.entries += 1;
                *slot = Some(category);
            }
            Some(_) if overwrite => *slot = Some(category),
            Some(_) => {}
        }
    }

    /// The tokens of the phrase ending at `node`.
    fn path(&self, mut node: u32) -> Vec<&str> {
        let mut path = Vec::new();
        while node != 0 {
            let n = self.nodes[node as usize];
            path.push(&*self.words[n.word as usize]);
            node = n.parent;
        }
        path.reverse();
        path
    }

    /// Every terminal node with its category.
    fn terminals(&self) -> impl Iterator<Item = (u32, EntityCategory)> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, n)| n.category.map(|c| (i as u32, c)))
    }
}

/// The recognizer: rules + gazetteer.
///
/// The gazetteer is held as a phrase trie (see the module docs). Serializes
/// as its sorted gazetteer entries (needed to persist a trained EDGE model,
/// whose inference path owns a recognizer).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "RecognizerRepr", into = "RecognizerRepr")]
pub struct EntityRecognizer {
    trie: PhraseTrie,
}

/// Serialized form of [`EntityRecognizer`]: `(surface, category)` entries.
#[derive(Serialize, Deserialize)]
struct RecognizerRepr {
    entries: Vec<(String, EntityCategory)>,
}

impl From<RecognizerRepr> for EntityRecognizer {
    fn from(repr: RecognizerRepr) -> Self {
        let mut r = EntityRecognizer::new();
        for (surface, cat) in repr.entries {
            r.add_gazetteer_entry(&surface, cat);
        }
        r
    }
}

impl From<EntityRecognizer> for RecognizerRepr {
    fn from(r: EntityRecognizer) -> Self {
        let mut entries: Vec<(String, EntityCategory)> =
            r.trie.terminals().map(|(node, cat)| (r.trie.path(node).join(" "), cat)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Self { entries }
    }
}

/// Canonical entity id for a surface form: lowercase, whitespace → `_`.
pub fn canonical_id(surface: &str) -> String {
    surface.to_lowercase().split_whitespace().collect::<Vec<_>>().join("_")
}

/// How a mention was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MentionKind {
    /// A `#hashtag` token.
    Hashtag,
    /// An `@mention` token.
    Mention,
    /// A gazetteer phrase, by the trie node it ends at (see
    /// [`EntityRecognizer::phrase_table`]).
    Phrase(u32),
    /// A capitalized chunk outside the gazetteer.
    Chunk,
}

/// One mention in [`Mentions`]: a token range of the scanned text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MentionSpan {
    /// First token.
    pub start: usize,
    /// One past the last token.
    pub end: usize,
    /// How it was found.
    pub kind: MentionKind,
    /// Predicted category.
    pub category: EntityCategory,
    /// End of its canonical id in the id arena (it starts where the
    /// previous mention's ends).
    id_end: usize,
}

/// The mentions one recognizer found in a [`TokenScan`], in reusable
/// buffers: canonical ids live in one shared arena, and the per-token
/// scratch of the passes is kept for the next scan.
#[derive(Debug, Clone, Default)]
pub struct Mentions {
    spans: Vec<MentionSpan>,
    ids: String,
    /// Per token: its id in the recognizer's trie vocabulary.
    words: Vec<u32>,
    consumed: Vec<bool>,
}

impl Mentions {
    /// Empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mentions, distinct by id, in first-mention order.
    pub fn spans(&self) -> &[MentionSpan] {
        &self.spans
    }

    /// Number of mentions.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recognized.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Mention `i`'s canonical id.
    pub fn id(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.spans[i - 1].id_end };
        &self.ids[start..self.spans[i].id_end]
    }

    /// Mention `i`'s surface text in `tokens` (the scan it was found in).
    pub fn surface(&self, i: usize, tokens: &TokenScan) -> String {
        let span = self.spans[i];
        match span.kind {
            MentionKind::Hashtag => format!("#{}", tokens.text(span.start)),
            MentionKind::Mention => format!("@{}", tokens.text(span.start)),
            MentionKind::Phrase(_) | MentionKind::Chunk => {
                let mut surface = String::new();
                for t in span.start..span.end {
                    if t > span.start {
                        surface.push(' ');
                    }
                    surface.push_str(tokens.text(t));
                }
                surface
            }
        }
    }

    /// Records tokens `start..end` as a mention unless its id (lowercase
    /// tokens joined with `_`) was already seen, and marks them consumed.
    fn push(
        &mut self,
        tokens: &TokenScan,
        start: usize,
        end: usize,
        kind: MentionKind,
        category: EntityCategory,
    ) {
        self.consumed[start..end].fill(true);
        let id_start = self.ids.len();
        for t in start..end {
            if t > start {
                self.ids.push('_');
            }
            self.ids.push_str(tokens.lower(t));
        }
        let (seen, id) = self.ids.split_at(id_start);
        let mut prev = 0;
        for span in &self.spans {
            if &seen[prev..span.id_end] == id {
                self.ids.truncate(id_start);
                return;
            }
            prev = span.id_end;
        }
        self.spans.push(MentionSpan { start, end, kind, category, id_end: self.ids.len() });
    }
}

impl EntityRecognizer {
    /// A recognizer with an empty gazetteer (rules only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a recognizer from `(surface form, category)` pairs.
    pub fn with_gazetteer<'a>(
        entries: impl IntoIterator<Item = (&'a str, EntityCategory)>,
    ) -> Self {
        let mut r = Self::new();
        for (surface, cat) in entries {
            r.add_gazetteer_entry(surface, cat);
        }
        r
    }

    /// Adds one gazetteer entry; a repeated surface takes the new category.
    pub fn add_gazetteer_entry(&mut self, surface: &str, category: EntityCategory) {
        self.trie.insert(surface.to_lowercase().split_whitespace(), category, true);
    }

    /// Number of gazetteer entries.
    pub fn gazetteer_len(&self) -> usize {
        self.trie.entries
    }

    /// Merges another recognizer's gazetteer into this one. On conflicting
    /// entries the existing category wins, so merge order decides ties.
    /// Used by the serving router to build a union recognizer over every
    /// loaded shard model (routing needs to see all shards' entities).
    pub fn merge(&mut self, other: &EntityRecognizer) {
        for (node, cat) in other.trie.terminals() {
            self.trie.insert(other.trie.path(node), cat, false);
        }
    }

    /// Maps every gazetteer phrase's canonical id through `f`, indexed by
    /// the trie node [`MentionKind::Phrase`] carries: a table that resolves
    /// a phrase mention without hashing its id.
    pub fn phrase_table(&self, mut f: impl FnMut(&str) -> Option<usize>) -> Vec<Option<usize>> {
        let mut table = vec![None; self.trie.nodes.len()];
        for (node, _) in self.trie.terminals() {
            table[node as usize] = f(&self.trie.path(node).join("_"));
        }
        table
    }

    /// Recognizes the entities in `text`. Each distinct entity id appears
    /// once (the paper counts an entity once per tweet regardless of
    /// repeats), in first-mention order.
    pub fn recognize(&self, text: &str) -> Vec<EntityMention> {
        let mut tokens = TokenScan::new();
        tokens.scan(text);
        let mut mentions = Mentions::new();
        self.scan(&tokens, &mut mentions);
        (0..mentions.len())
            .map(|i| EntityMention {
                id: mentions.id(i).to_string(),
                surface: mentions.surface(i, &tokens),
                category: mentions.spans[i].category,
            })
            .collect()
    }

    /// Recognizes the entities of a scanned text into `out` (cleared
    /// first); allocation-free once `out` has grown to the text's size.
    /// The mentions are exactly [`Self::recognize`]'s, in the same order.
    pub fn scan(&self, tokens: &TokenScan, out: &mut Mentions) {
        let n = tokens.len();
        out.spans.clear();
        out.ids.clear();
        out.consumed.clear();
        out.consumed.resize(n, false);
        out.words.clear();
        out.words.extend((0..n).map(|i| self.trie.word_id(tokens.lower(i))));

        // Pass 1: hashtags and mentions.
        for i in 0..n {
            let kind = match tokens.kind(i) {
                TokenKind::Hashtag => MentionKind::Hashtag,
                TokenKind::Mention => MentionKind::Mention,
                _ => continue,
            };
            let category = self
                .trie
                .child(0, out.words[i])
                .and_then(|node| self.trie.nodes[node as usize].category)
                .unwrap_or(EntityCategory::Other);
            out.push(tokens, i, i + 1, kind, category);
        }

        // Pass 2: greedy longest gazetteer match (catches lowercase forms
        // and fixes multi-word boundaries). The walk from `i` stops at the
        // first consumed token or the first one no phrase continues with.
        let mut i = 0;
        while i < n {
            let mut matched = None;
            let mut node = 0;
            let mut j = i;
            while j < n && !out.consumed[j] {
                let Some(child) = self.trie.child(node, out.words[j]) else { break };
                node = child;
                j += 1;
                if let Some(cat) = self.trie.nodes[node as usize].category {
                    matched = Some((j, node, cat));
                }
            }
            match matched {
                Some((end, node, cat)) => {
                    out.push(tokens, i, end, MentionKind::Phrase(node), cat);
                    i = end;
                }
                None => i += 1,
            }
        }

        // Pass 3: capitalized chunking for out-of-gazetteer entities.
        let is_candidate = |consumed: &[bool], j: usize| {
            !consumed[j]
                && tokens.kind(j) == TokenKind::Word
                && tokens.is_capitalized(j)
                && !is_stopword(tokens.lower(j))
        };
        let mut i = 0;
        while i < n {
            if !is_candidate(&out.consumed, i) {
                i += 1;
                continue;
            }
            // Sentence-initial single capitalized words are usually ordinary
            // sentence case, not entities; require either a non-initial
            // position or a multi-token chunk.
            let mut end = i + 1;
            while end < n && is_candidate(&out.consumed, end) {
                end += 1;
            }
            if !(i == 0 && end == 1) {
                out.push(tokens, i, end, MentionKind::Chunk, EntityCategory::Other);
            }
            i = end;
        }
    }

    /// The fraction of `expected` entity ids recovered from `text` — the
    /// per-tweet recognition-rate measurement of the paper's Section IV-A
    /// audit.
    pub fn recognition_rate(&self, text: &str, expected: &[String]) -> f64 {
        if expected.is_empty() {
            return 1.0;
        }
        let found: Vec<String> = self.recognize(text).into_iter().map(|m| m.id).collect();
        expected.iter().filter(|e| found.contains(e)).count() as f64 / expected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recognizer() -> EntityRecognizer {
        EntityRecognizer::with_gazetteer([
            ("Majestic Theatre", EntityCategory::Facility),
            ("Broadway", EntityCategory::Geolocation),
            ("Brooklyn", EntityCategory::Geolocation),
            ("Presbyterian Hospital", EntityCategory::Facility),
            ("covid19", EntityCategory::Other),
            ("phantomopera", EntityCategory::Band),
            ("William Street", EntityCategory::Geolocation),
        ])
    }

    #[test]
    fn canonical_id_normalizes() {
        assert_eq!(canonical_id("Majestic Theatre"), "majestic_theatre");
        assert_eq!(canonical_id("  COVID19 "), "covid19");
    }

    #[test]
    fn hashtags_and_mentions_become_entities() {
        let r = recognizer();
        let ms =
            r.recognize("This is for real... hospital this morning during the #covid19 pandemic");
        assert!(ms.iter().any(|m| m.id == "covid19"));
    }

    #[test]
    fn mention_category_from_gazetteer() {
        let r = recognizer();
        let ms = r.recognize("@PhantomOpera was a great way to end our NY trip");
        let phantom = ms.iter().find(|m| m.id == "phantomopera").expect("found");
        assert_eq!(phantom.category, EntityCategory::Band);
        assert_eq!(phantom.surface, "@PhantomOpera");
    }

    #[test]
    fn multiword_gazetteer_match_is_one_entity() {
        let r = recognizer();
        let ms = r.recognize("Tonight at the Majestic Theatre on Broadway");
        let ids: Vec<&str> = ms.iter().map(|m| m.id.as_str()).collect();
        assert!(ids.contains(&"majestic_theatre"), "{ids:?}");
        assert!(ids.contains(&"broadway"), "{ids:?}");
        let mt = ms.iter().find(|m| m.id == "majestic_theatre").unwrap();
        assert_eq!(mt.category, EntityCategory::Facility);
    }

    #[test]
    fn lowercase_gazetteer_forms_are_caught() {
        let r = recognizer();
        let ms = r.recognize("walking down william street rn");
        assert!(ms.iter().any(|m| m.id == "william_street"));
    }

    #[test]
    fn lowercase_unknown_entities_are_missed() {
        // This is the recognizer's designed imperfection.
        let r = recognizer();
        let ms = r.recognize("saw the phantom at majestic playhouse");
        assert!(ms.is_empty(), "{ms:?}");
    }

    #[test]
    fn capitalized_chunking_for_unknown_entities() {
        let r = recognizer();
        let ms = r.recognize("we visited Central Park Zoo yesterday");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].id, "central_park_zoo");
        assert_eq!(ms[0].category, EntityCategory::Other);
    }

    #[test]
    fn sentence_initial_single_capital_is_not_an_entity() {
        let r = recognizer();
        assert!(r.recognize("Great show tonight").is_empty());
        // But a sentence-initial multi-word chunk is.
        let ms = r.recognize("Times Square was packed");
        assert_eq!(ms[0].id, "times_square");
    }

    #[test]
    fn capitalized_stopwords_are_skipped() {
        let r = recognizer();
        let ms = r.recognize("The This That");
        assert!(ms.is_empty(), "{ms:?}");
    }

    #[test]
    fn repeated_entities_counted_once() {
        let r = recognizer();
        let ms = r.recognize("#covid19 everywhere, #covid19 again on Broadway and broadway");
        assert_eq!(ms.iter().filter(|m| m.id == "covid19").count(), 1);
        assert_eq!(ms.iter().filter(|m| m.id == "broadway").count(), 1);
    }

    #[test]
    fn recognition_rate_measures_misses() {
        let r = recognizer();
        let rate = r.recognition_rate(
            "quarantine vibes near william street",
            &["william_street".into(), "quarantine_vibes".into()],
        );
        assert!((rate - 0.5).abs() < 1e-12, "rate {rate}");
        assert_eq!(r.recognition_rate("anything", &[]), 1.0);
    }

    #[test]
    fn location_category_flag() {
        assert!(EntityCategory::Geolocation.is_location());
        assert!(!EntityCategory::Facility.is_location());
    }

    #[test]
    fn empty_text_yields_no_entities() {
        assert!(recognizer().recognize("").is_empty());
    }

    #[test]
    fn merge_unions_gazetteers_with_existing_entries_winning() {
        let mut a = EntityRecognizer::with_gazetteer([("Broadway", EntityCategory::Geolocation)]);
        let b = EntityRecognizer::with_gazetteer([
            ("Broadway", EntityCategory::Other),
            ("Sunset Boulevard West", EntityCategory::Geolocation),
        ]);
        a.merge(&b);
        assert_eq!(a.gazetteer_len(), 2);
        let ms = a.recognize("on Broadway then sunset boulevard west");
        let broadway = ms.iter().find(|m| m.id == "broadway").expect("broadway");
        assert_eq!(broadway.category, EntityCategory::Geolocation);
        assert!(ms.iter().any(|m| m.id == "sunset_boulevard_west"));
    }
}
