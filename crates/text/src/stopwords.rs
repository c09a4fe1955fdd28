//! A compact English stop-word list tuned for tweets.

use std::collections::HashSet;
use std::sync::OnceLock;

const STOPWORDS: &[&str] = &[
    "a", "about", "after", "again", "all", "am", "an", "and", "any", "are", "as", "at", "be",
    "because", "been", "before", "being", "but", "by", "can", "come", "could", "day", "did", "do",
    "does", "doing", "don't", "done", "down", "during", "each", "few", "for", "from", "further",
    "get", "go", "going", "good", "got", "great", "had", "has", "have", "having", "he", "her",
    "here", "hers", "him", "his", "how", "i", "i'm", "if", "in", "into", "is", "it", "it's", "its",
    "just", "like", "lol", "me", "more", "most", "my", "new", "no", "not", "now", "of", "off",
    "on", "once", "one", "only", "or", "other", "our", "out", "over", "own", "really", "rt",
    "said", "same", "say", "see", "she", "should", "so", "some", "such", "than", "that", "the",
    "their", "them", "then", "there", "these", "they", "they're", "this", "those", "through",
    "time", "to", "today", "too", "u", "under", "until", "up", "us", "very", "was", "way", "we",
    "were", "what", "when", "where", "which", "while", "who", "why", "will", "with", "would",
    "you", "your", "yours",
];

fn set() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().collect())
}

/// Longer than every stop word.
const MAX_STOPWORD_BYTES: usize = 16;

/// Whether `word` (any case) is a stop word. Allocation-free: every stop
/// word is short lowercase ASCII, so the word is lowercased into a stack
/// buffer and rejected at the first character that cannot match.
pub fn is_stopword(word: &str) -> bool {
    let mut buf = [0u8; MAX_STOPWORD_BYTES];
    let mut len = 0;
    for c in word.chars().flat_map(char::to_lowercase) {
        if !c.is_ascii() || len == buf.len() {
            return false;
        }
        buf[len] = c as u8;
        len += 1;
    }
    std::str::from_utf8(&buf[..len]).is_ok_and(|w| set().contains(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "The", "THE", "and", "i'm", "rt"] {
            assert!(is_stopword(w), "{w}");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["broadway", "quarantine", "hospital", "covid19"] {
            assert!(!is_stopword(w), "{w}");
        }
    }

    #[test]
    fn non_ascii_case_forms_match_like_to_lowercase() {
        // The Kelvin sign lowercases to ASCII 'k'; dotted capital I to
        // "i\u{307}", which no stop word contains.
        for w in ["LI\u{212A}E", "\u{130}F", "IF", "ΟΔΟΣ", "", "becausebecausebecause"] {
            assert_eq!(is_stopword(w), set().contains(w.to_lowercase().as_str()), "{w}");
        }
        assert!(is_stopword("LI\u{212A}E"));
    }

    #[test]
    fn list_is_deduplicated_and_lowercase() {
        let mut seen = std::collections::HashSet::new();
        for w in STOPWORDS {
            assert!(w.len() < MAX_STOPWORD_BYTES, "{w} too long");
            assert_eq!(*w, w.to_lowercase(), "{w} not lowercase");
            assert!(seen.insert(w), "{w} duplicated");
        }
    }
}
