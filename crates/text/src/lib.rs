//! Tweet NLP substrate for the EDGE reproduction: tokenization, a
//! chunker-style named-entity recognizer with the 10-category scheme of the
//! Ritter et al. Twitter NER, vocabularies and n-gram extraction.
//!
//! See DESIGN.md §1 for how the recognizer substitutes for the paper's
//! "Chunker Named Entity Recognizer" while preserving its interface,
//! categories and error modes.

pub mod ner;
pub mod ngram;
pub mod stopwords;
pub mod token;
pub mod vocab;

pub use ner::{canonical_id, EntityCategory, EntityMention, EntityRecognizer};
pub use ngram::ngrams;
pub use stopwords::is_stopword;
pub use token::{lower_words, tokenize, Token, TokenKind};
pub use vocab::Vocab;
