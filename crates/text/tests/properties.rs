//! Property-based tests for the text substrate: the tokenizer and NER must
//! be total (never panic) and structurally consistent on arbitrary input,
//! and the phrase-trie recognizer must answer exactly like the reference
//! three-pass `HashMap` recognizer kept below as the oracle.

use std::collections::HashMap;

use edge_text::{
    canonical_id, is_stopword, ngrams, tokenize, EntityCategory, EntityMention, EntityRecognizer,
};
use proptest::prelude::*;

/// The reference recognizer: per-token `String`s, a `HashMap` keyed by
/// lowercase token sequences, and a `len = max..1` probe loop for the
/// gazetteer pass. Test-only; the library's trie must agree with it.
mod oracle {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Word,
        Hashtag,
        Mention,
        Number,
    }

    struct Token {
        text: String,
        kind: Kind,
    }

    fn is_url(tok: &str) -> bool {
        tok.starts_with("http://") || tok.starts_with("https://") || tok.starts_with("www.")
    }

    fn tokenize(text: &str) -> Vec<Token> {
        let mut tokens = Vec::new();
        for raw in text.split_whitespace() {
            if is_url(raw) {
                continue;
            }
            let (kind, body) = match raw.chars().next() {
                Some('#') => (Kind::Hashtag, &raw[1..]),
                Some('@') => (Kind::Mention, &raw[1..]),
                _ => (Kind::Word, raw),
            };
            if kind != Kind::Word {
                let clean: String =
                    body.chars().filter(|c| c.is_alphanumeric() || *c == '_').collect();
                if !clean.is_empty() {
                    tokens.push(Token { text: clean, kind });
                }
                continue;
            }
            for piece in body.split(|c: char| !c.is_alphanumeric() && c != '\'') {
                let piece = piece.trim_matches('\'');
                if piece.is_empty() {
                    continue;
                }
                let kind = if piece.chars().all(|c| c.is_ascii_digit()) {
                    Kind::Number
                } else {
                    Kind::Word
                };
                tokens.push(Token { text: piece.to_string(), kind });
            }
        }
        tokens
    }

    #[derive(Default)]
    pub struct Recognizer {
        gazetteer: HashMap<Vec<String>, EntityCategory>,
        max_phrase_len: usize,
    }

    impl Recognizer {
        pub fn add(&mut self, surface: &str, category: EntityCategory) {
            let key: Vec<String> =
                surface.to_lowercase().split_whitespace().map(String::from).collect();
            if key.is_empty() {
                return;
            }
            self.max_phrase_len = self.max_phrase_len.max(key.len());
            self.gazetteer.insert(key, category);
        }

        pub fn merge(&mut self, other: &Recognizer) {
            for (toks, cat) in &other.gazetteer {
                self.max_phrase_len = self.max_phrase_len.max(toks.len());
                self.gazetteer.entry(toks.clone()).or_insert(*cat);
            }
        }

        pub fn entries(&self) -> Vec<(String, EntityCategory)> {
            let mut entries: Vec<(String, EntityCategory)> =
                self.gazetteer.iter().map(|(toks, cat)| (toks.join(" "), *cat)).collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries
        }

        fn lookup(&self, toks: &[String]) -> Option<EntityCategory> {
            self.gazetteer.get(toks).copied()
        }

        pub fn recognize(&self, text: &str) -> Vec<EntityMention> {
            let tokens = tokenize(text);
            let mut mentions: Vec<EntityMention> = Vec::new();
            let push = |m: EntityMention, mentions: &mut Vec<EntityMention>| {
                if !mentions.iter().any(|e| e.id == m.id) {
                    mentions.push(m);
                }
            };
            let lower: Vec<String> = tokens.iter().map(|t| t.text.to_lowercase()).collect();
            let mut consumed = vec![false; tokens.len()];

            for (i, tok) in tokens.iter().enumerate() {
                if let Kind::Hashtag | Kind::Mention = tok.kind {
                    consumed[i] = true;
                    let category = self
                        .lookup(std::slice::from_ref(&lower[i]))
                        .unwrap_or(EntityCategory::Other);
                    let sigil = if tok.kind == Kind::Hashtag { "#" } else { "@" };
                    let surface = format!("{sigil}{}", tok.text);
                    push(
                        EntityMention { id: canonical_id(&tok.text), surface, category },
                        &mut mentions,
                    );
                }
            }

            if self.max_phrase_len > 0 {
                let mut i = 0;
                while i < tokens.len() {
                    if consumed[i] {
                        i += 1;
                        continue;
                    }
                    let mut matched = 0;
                    let mut matched_cat = EntityCategory::Other;
                    let max_len = self.max_phrase_len.min(tokens.len() - i);
                    for len in (1..=max_len).rev() {
                        if (i..i + len).any(|j| consumed[j]) {
                            continue;
                        }
                        if let Some(cat) = self.lookup(&lower[i..i + len]) {
                            matched = len;
                            matched_cat = cat;
                            break;
                        }
                    }
                    if matched > 0 {
                        let surface = tokens[i..i + matched]
                            .iter()
                            .map(|t| t.text.as_str())
                            .collect::<Vec<_>>()
                            .join(" ");
                        for c in consumed.iter_mut().skip(i).take(matched) {
                            *c = true;
                        }
                        let id = canonical_id(&surface);
                        push(EntityMention { id, surface, category: matched_cat }, &mut mentions);
                        i += matched;
                    } else {
                        i += 1;
                    }
                }
            }

            let mut i = 0;
            while i < tokens.len() {
                let is_candidate = |j: usize| {
                    !consumed[j]
                        && tokens[j].kind == Kind::Word
                        && tokens[j].text.chars().next().is_some_and(char::is_uppercase)
                        && !is_stopword(&lower[j])
                };
                if !is_candidate(i) {
                    i += 1;
                    continue;
                }
                let mut end = i + 1;
                while end < tokens.len() && is_candidate(end) {
                    end += 1;
                }
                let chunk_len = end - i;
                if i == 0 && chunk_len == 1 {
                    i = end;
                    continue;
                }
                let surface =
                    tokens[i..end].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ");
                for c in consumed.iter_mut().skip(i).take(chunk_len) {
                    *c = true;
                }
                let id = canonical_id(&surface);
                push(EntityMention { id, surface, category: EntityCategory::Other }, &mut mentions);
                i = end;
            }
            mentions
        }
    }
}

/// Word pieces the generated texts are made of: gazetteer words and
/// overlapping phrases, case traps (dotted capital I, final sigma, the
/// Kelvin sign), apostrophes, URLs, sigils and punctuation runs.
const PIECES: &[&str] = &[
    "sunset",
    "boulevard",
    "west",
    "new",
    "york",
    "city",
    "majestic",
    "theatre",
    "broadway",
    "İstanbul",
    "ΟΔΟΣ",
    "ΑΘΗΝΑΣ",
    "Σίσυφος",
    "\u{212A}elvin",
    "LI\u{212A}E",
    "the",
    "The",
    "like",
    "don't",
    "'quoted'",
    "they're",
    "rock'n'roll",
    "https://t.co/abc",
    "www.example.com",
    "#tag!!",
    "#Sunset",
    "#new_york",
    "@Phantom.Opera",
    "@broadway",
    "#",
    "@",
    "2020",
    "42nd",
    "café",
    "über",
    "Times",
    "Square",
    "St.",
    "Mark's",
    "...",
    "!!",
    "co-op",
    "i'm",
    "Rt",
    "#york",
    "@Boulevard",
    "#west",
    "#Times",
];

/// A gazetteer with nested and overlapping multi-word phrases and the
/// same case traps, in two halves (for merge).
const GAZETTEER_A: &[(&str, EntityCategory)] = &[
    ("sunset", EntityCategory::Geolocation),
    ("Sunset Boulevard", EntityCategory::Geolocation),
    ("sunset boulevard west", EntityCategory::Facility),
    ("new york", EntityCategory::Geolocation),
    ("York City", EntityCategory::Other),
    ("Majestic Theatre", EntityCategory::Facility),
    ("İstanbul", EntityCategory::Geolocation),
    ("ΟΔΟΣ ΑΘΗΝΑΣ", EntityCategory::Geolocation),
    ("tag", EntityCategory::Band),
    ("St. Mark's", EntityCategory::Facility),
];
const GAZETTEER_B: &[(&str, EntityCategory)] = &[
    ("boulevard west", EntityCategory::Geolocation),
    ("new york city", EntityCategory::Geolocation),
    ("broadway", EntityCategory::Geolocation),
    ("sunset", EntityCategory::Other),
    ("\u{212A}elvin", EntityCategory::Person),
    ("mark's", EntityCategory::Company),
    ("rock'n'roll", EntityCategory::Band),
    ("2020", EntityCategory::Other),
    ("new_york", EntityCategory::Company),
    ("Times Square", EntityCategory::Geolocation),
];

/// Builds a text from `(piece, case, separator)` draws.
fn compose(words: &[(usize, u8, usize)]) -> String {
    const SEPS: &[&str] = &[" ", "  ", ", ", "! ", " - ", "\t", "...", " ("];
    let mut text = String::new();
    for &(piece, case, sep) in words {
        let piece = PIECES[piece % PIECES.len()];
        match case % 4 {
            0 => text.push_str(piece),
            1 => text.push_str(&piece.to_lowercase()),
            2 => text.push_str(&piece.to_uppercase()),
            _ => {
                let mut chars = piece.chars();
                if let Some(first) = chars.next() {
                    text.extend(first.to_uppercase());
                    text.push_str(&chars.as_str().to_lowercase());
                }
            }
        }
        text.push_str(SEPS[sep % SEPS.len()]);
    }
    text
}

fn both(entries: &[(&str, EntityCategory)]) -> (EntityRecognizer, oracle::Recognizer) {
    let mut reference = oracle::Recognizer::default();
    for &(surface, cat) in entries {
        reference.add(surface, cat);
    }
    (EntityRecognizer::with_gazetteer(entries.iter().copied()), reference)
}

/// The serialized `(surface, category)` entries of a recognizer.
fn entries(ner: &EntityRecognizer) -> Vec<(String, EntityCategory)> {
    #[derive(serde::Deserialize)]
    struct Repr {
        entries: Vec<(String, EntityCategory)>,
    }
    let json = serde_json::to_string(ner).expect("serialize");
    serde_json::from_str::<Repr>(&json).expect("repr").entries
}

#[test]
fn trie_recognizer_matches_the_oracle_on_case_traps() {
    let (ner, reference) = both(&[GAZETTEER_A, GAZETTEER_B].concat());
    for text in [
        "İstanbul and ISTANBUL and i̇stanbul",
        "ΟΔΟΣ ΑΘΗΝΑΣ, οδος αθηνας, Οδος Αθηνας",
        "\u{212A}elvin met kelvin and KELVIN LI\u{212A}E Times Square",
        "walk down Sunset Boulevard West then sunset boulevard, then boulevard west",
        "#tag!! @Phantom.Opera #new_york new york city NEW YORK York City",
        "RT: St. Mark's Place near mark's rock'n'roll 2020 https://t.co/x Majestic Theatre",
        "",
    ] {
        assert_eq!(ner.recognize(text), reference.recognize(text), "text {text:?}");
    }
}

#[test]
fn trie_serializes_and_merges_like_the_oracle() {
    let (mut a, mut ref_a) = both(GAZETTEER_A);
    let (b, ref_b) = both(GAZETTEER_B);
    assert_eq!(entries(&a), ref_a.entries());
    a.merge(&b);
    ref_a.merge(&ref_b);
    assert_eq!(entries(&a), ref_a.entries(), "merge keeps the existing entry");
    assert_eq!(a.gazetteer_len(), ref_a.entries().len());
    // A reloaded recognizer serializes to the same bytes.
    let json = serde_json::to_string(&a).unwrap();
    let back: EntityRecognizer = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tokenizer_is_total(text in "\\PC{0,200}") {
        // Any printable string tokenizes without panicking, and tokens are
        // never empty.
        let tokens = tokenize(&text);
        prop_assert!(tokens.iter().all(|t| !t.text.is_empty()));
    }

    #[test]
    fn tokens_contain_no_whitespace(text in "\\PC{0,200}") {
        for t in tokenize(&text) {
            prop_assert!(!t.text.chars().any(char::is_whitespace), "token {:?}", t.text);
        }
    }

    #[test]
    fn canonical_id_is_idempotent(text in "[a-zA-Z ]{1,40}") {
        let once = canonical_id(&text);
        prop_assert_eq!(canonical_id(&once), once.clone());
        // And produces no whitespace or uppercase.
        prop_assert!(!once.contains(' '));
        prop_assert_eq!(once.to_lowercase(), once);
    }

    #[test]
    fn ngram_count_formula(words in proptest::collection::vec("[a-z]{1,6}", 0..15), max_n in 1usize..4) {
        let grams = ngrams(&words, max_n);
        // Exactly Σ max(0, len − n + 1) over n = 1..=max_n.
        let exact: usize = (1..=max_n)
            .filter(|&n| words.len() >= n)
            .map(|n| words.len() - n + 1)
            .sum();
        prop_assert_eq!(grams.len(), exact);
    }

    #[test]
    fn recognizer_is_total_and_unique(text in "\\PC{0,200}") {
        let ner = EntityRecognizer::with_gazetteer([
            ("Majestic Theatre", EntityCategory::Facility),
            ("broadway", EntityCategory::Geolocation),
        ]);
        let mentions = ner.recognize(&text);
        // Ids are unique and canonical.
        let mut ids: Vec<&str> = mentions.iter().map(|m| m.id.as_str()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicate entity ids");
        for m in &mentions {
            prop_assert_eq!(canonical_id(&m.id), m.id.clone());
        }
    }

    #[test]
    fn gazetteer_surface_always_recognized_in_clean_context(
        filler in proptest::collection::vec("[a-z]{3,8}", 0..5)
    ) {
        let ner = EntityRecognizer::with_gazetteer([("zanzibar plaza", EntityCategory::Geolocation)]);
        let text = format!("{} zanzibar plaza {}", filler.join(" "), filler.join(" "));
        let mentions = ner.recognize(&text);
        prop_assert!(
            mentions.iter().any(|m| m.id == "zanzibar_plaza"),
            "missed in: {text}"
        );
    }

    #[test]
    fn recognition_rate_bounds(text in "\\PC{0,120}") {
        let ner = EntityRecognizer::new();
        let rate = ner.recognition_rate(&text, &["anything".to_string()]);
        prop_assert!((0.0..=1.0).contains(&rate));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn trie_recognizer_matches_the_oracle(
        words in proptest::collection::vec((0usize..64, 0u8..4, 0usize..8), 0..24),
        merged in any::<bool>(),
    ) {
        let text = compose(&words);
        let (mut ner, mut reference) = both(GAZETTEER_A);
        if merged {
            let (b, ref_b) = both(GAZETTEER_B);
            ner.merge(&b);
            reference.merge(&ref_b);
        }
        prop_assert_eq!(ner.recognize(&text), reference.recognize(&text), "text {:?}", text);
    }

    #[test]
    fn trie_recognizer_matches_the_oracle_on_any_text(text in "\\PC{0,120}") {
        let (ner, reference) = both(&[GAZETTEER_A, GAZETTEER_B].concat());
        prop_assert_eq!(ner.recognize(&text), reference.recognize(&text));
    }
}
