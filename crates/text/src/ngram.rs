//! N-gram extraction — the lexical unit of the Hyper-local baseline
//! (Flatow et al.), which models the spatial distribution of *n-grams*
//! rather than individual words.

/// Extracts all contiguous n-grams of sizes `1..=max_n` from `tokens`,
/// joined with spaces. A tweet shorter than `n` simply yields no n-grams of
/// that size.
pub fn ngrams(tokens: &[String], max_n: usize) -> Vec<String> {
    assert!(max_n >= 1, "max_n must be at least 1");
    let mut out = Vec::new();
    for n in 1..=max_n {
        if tokens.len() < n {
            break;
        }
        for w in tokens.windows(n) {
            out.push(w.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unigrams_only() {
        let g = ngrams(&toks(&["a", "b", "c"]), 1);
        assert_eq!(g, ["a", "b", "c"]);
    }

    #[test]
    fn bigrams_and_trigrams() {
        let g = ngrams(&toks(&["times", "square", "tonight"]), 3);
        assert!(g.contains(&"times square".to_string()));
        assert!(g.contains(&"square tonight".to_string()));
        assert!(g.contains(&"times square tonight".to_string()));
        assert_eq!(g.len(), 3 + 2 + 1);
    }

    #[test]
    fn short_input_yields_short_grams_only() {
        let g = ngrams(&toks(&["solo"]), 3);
        assert_eq!(g, ["solo"]);
        assert!(ngrams(&[], 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "max_n")]
    fn zero_n_rejected() {
        let _ = ngrams(&[], 0);
    }
}
