//! Tweet tokenization.
//!
//! Tweets are not newswire: they carry hashtags, @-mentions, URLs and loose
//! punctuation. The tokenizer keeps hashtags and mentions as single tokens
//! (they are entity candidates), drops URLs, and preserves the original
//! casing (the NER chunker needs it) while exposing a lowercase view.

use serde::{Deserialize, Serialize};

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenKind {
    /// An ordinary word.
    Word,
    /// A `#hashtag` (leading `#` stripped in [`Token::text`]).
    Hashtag,
    /// A `@mention` (leading `@` stripped in [`Token::text`]).
    Mention,
    /// A number.
    Number,
}

/// One token with its original casing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// The token text, original case, sigils stripped.
    pub text: String,
    /// Lexical class.
    pub kind: TokenKind,
}

impl Token {
    /// Lowercase view of the token text.
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }

    /// Whether the token starts with an uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.text.chars().next().is_some_and(char::is_uppercase)
    }
}

/// Tokenizes a tweet. URLs are dropped; punctuation splits tokens; hashtags
/// and mentions survive as single tokens with their sigil recorded in
/// [`TokenKind`]. The owned view of a [`TokenScan`].
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut scan = TokenScan::new();
    scan.scan(text);
    (0..scan.len()).map(|i| Token { text: scan.text(i).to_string(), kind: scan.kind(i) }).collect()
}

/// One tokenized text in reusable buffers: the original and lowercase
/// text of every token in two shared arenas, plus each token's kind and
/// capitalization. Scanning a text into a warm `TokenScan` allocates
/// nothing, so the serving path tokenizes each text once and runs every
/// recognizer over the same scan.
#[derive(Debug, Clone, Default)]
pub struct TokenScan {
    text: String,
    lower: String,
    tokens: Vec<ScanToken>,
}

/// Where one token ends in each arena (it starts where the previous one
/// ended), its kind and whether its first letter is uppercase.
#[derive(Debug, Clone, Copy)]
struct ScanToken {
    text_end: usize,
    lower_end: usize,
    kind: TokenKind,
    capitalized: bool,
}

impl TokenScan {
    /// An empty scan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizes `text`, replacing the previous contents.
    pub fn scan(&mut self, text: &str) {
        self.text.clear();
        self.lower.clear();
        self.tokens.clear();
        // Tokens are disjoint pieces of `text`, so one reservation covers
        // a fresh scan (lowercasing rarely grows a token).
        self.text.reserve(text.len());
        self.lower.reserve(text.len());
        for raw in text.split_whitespace() {
            if is_url(raw) {
                continue;
            }
            let (kind, body) = match raw.chars().next() {
                Some('#') => (TokenKind::Hashtag, &raw[1..]),
                Some('@') => (TokenKind::Mention, &raw[1..]),
                _ => (TokenKind::Word, raw),
            };
            if kind != TokenKind::Word {
                // Hashtags/mentions: strip trailing punctuation, keep one token.
                let start = self.text.len();
                self.text.extend(body.chars().filter(|c| c.is_alphanumeric() || *c == '_'));
                if self.text.len() > start {
                    self.push(start, kind);
                }
                continue;
            }
            // Ordinary text: split on anything that is not alphanumeric or an
            // apostrophe (keep "don't" together), then trim apostrophes.
            for piece in body.split(|c: char| !c.is_alphanumeric() && c != '\'') {
                let piece = piece.trim_matches('\'');
                if piece.is_empty() {
                    continue;
                }
                let kind = if piece.bytes().all(|b| b.is_ascii_digit()) {
                    TokenKind::Number
                } else {
                    TokenKind::Word
                };
                let start = self.text.len();
                self.text.push_str(piece);
                self.push(start, kind);
            }
        }
    }

    /// Records the token whose text starts at `start` in the text arena
    /// and runs to its end, appending its lowercase form.
    fn push(&mut self, start: usize, kind: TokenKind) {
        let word = &self.text[start..];
        if word.is_ascii() {
            let lower_start = self.lower.len();
            self.lower.push_str(word);
            self.lower[lower_start..].make_ascii_lowercase();
        } else if word.contains('Σ') {
            // Only the whole-string lowercasing knows sigma's word-final form.
            self.lower.push_str(&word.to_lowercase());
        } else {
            self.lower.extend(word.chars().flat_map(char::to_lowercase));
        }
        self.tokens.push(ScanToken {
            text_end: self.text.len(),
            lower_end: self.lower.len(),
            kind,
            capitalized: word.chars().next().is_some_and(char::is_uppercase),
        });
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the text held no token.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Token `i`'s text, original case, sigils stripped.
    pub fn text(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.tokens[i - 1].text_end };
        &self.text[start..self.tokens[i].text_end]
    }

    /// Token `i`'s lowercase text (what [`Token::lower`] returns).
    pub fn lower(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.tokens[i - 1].lower_end };
        &self.lower[start..self.tokens[i].lower_end]
    }

    /// Token `i`'s lexical class.
    pub fn kind(&self, i: usize) -> TokenKind {
        self.tokens[i].kind
    }

    /// Whether token `i` starts with an uppercase letter.
    pub fn is_capitalized(&self, i: usize) -> bool {
        self.tokens[i].capitalized
    }
}

/// Lowercase word list of a tweet (the view bag-of-words models use).
pub fn lower_words(text: &str) -> Vec<String> {
    tokenize(text).iter().map(Token::lower).collect()
}

fn is_url(tok: &str) -> bool {
    tok.starts_with("http://") || tok.starts_with("https://") || tok.starts_with("www.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_words() {
        let toks = tokenize("hello world");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].text, "hello");
        assert_eq!(toks[0].kind, TokenKind::Word);
    }

    #[test]
    fn hashtags_and_mentions_kept_whole() {
        let toks = tokenize("#covid19 spreading, says @PhantomOpera!");
        assert_eq!(toks[0], Token { text: "covid19".into(), kind: TokenKind::Hashtag });
        assert_eq!(
            toks.last().unwrap(),
            &Token { text: "PhantomOpera".into(), kind: TokenKind::Mention }
        );
    }

    #[test]
    fn urls_are_dropped() {
        let toks = tokenize("look https://t.co/abc123 here www.example.com now");
        let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["look", "here", "now"]);
    }

    #[test]
    fn punctuation_splits_words() {
        let toks = tokenize("quarantine...business!Great");
        let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["quarantine", "business", "Great"]);
    }

    #[test]
    fn apostrophes_survive_inside_words() {
        let toks = tokenize("they're done with 'this'");
        let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["they're", "done", "with", "this"]);
    }

    #[test]
    fn numbers_are_typed() {
        let toks = tokenize("wave 2 hits 2020");
        assert_eq!(toks[1].kind, TokenKind::Number);
        assert_eq!(toks[3].kind, TokenKind::Number);
        assert_eq!(toks[0].kind, TokenKind::Word);
    }

    #[test]
    fn capitalization_detection() {
        let toks = tokenize("Majestic theatre");
        assert!(toks[0].is_capitalized());
        assert!(!toks[1].is_capitalized());
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ... ###").is_empty());
        assert!(tokenize("@").is_empty());
    }

    #[test]
    fn lower_words_view() {
        assert_eq!(lower_words("Broadway SHOW"), vec!["broadway", "show"]);
    }

    #[test]
    fn unicode_text_survives() {
        let toks = tokenize("café über #naïve");
        assert_eq!(toks[0].text, "café");
        assert_eq!(toks[2].text, "naïve");
        assert_eq!(toks[2].kind, TokenKind::Hashtag);
    }
}
