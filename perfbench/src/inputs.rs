//! Workload inputs, all derived from the `--seed` argument.
//!
//! The program under test only ever sees what this module generates: the
//! corpora it is trained on and the texts it is asked to locate. Nothing
//! here reads a clock or the environment, so one seed always yields the
//! same bytes.

use std::collections::HashSet;
use std::time::Duration;

use edge_data::{Dataset, PresetSize};

/// SplitMix64: a tiny, well-mixed, dependency-free generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Generator seed of the benchmark corpora (the CLI's default). The
/// corpora, and so the trained models, are fixed datasets like the
/// paper's; the run seed varies the traffic. Accuracy and training time
/// swing by 20–50% across corpus or training seeds of the smoke preset,
/// far beyond any bound a regression check could use.
pub const CORPUS_SEED: u64 = 42;

/// The NYMA-smoke (or LAMA-smoke) corpus.
pub fn corpus(metro: &str) -> Dataset {
    match metro {
        "lama" => edge_data::lama(PresetSize::Smoke, CORPUS_SEED),
        _ => edge_data::nyma(PresetSize::Smoke, CORPUS_SEED),
    }
}

/// A `POST /predict` body for `texts`: the single shape for one text, the
/// batch shape otherwise.
pub fn predict_body(texts: &[&str]) -> Vec<u8> {
    let quoted: Vec<String> = texts.iter().map(|t| json_string(t)).collect();
    if quoted.len() == 1 {
        format!("{{\"text\":{}}}", quoted[0]).into_bytes()
    } else {
        format!("{{\"texts\":[{}]}}", quoted.join(",")).into_bytes()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Due times, from the start of the phase, of `n` open-loop requests
/// arriving as a Poisson process at `rate` per second: exponential gaps,
/// as independent users send. A fixed `k / rate` grid would beat against
/// the server's batching timer (at 2500 req/s every other request would
/// wait the whole 500 µs batch delay and the rest about 100 µs, putting
/// the median in the gap between the two).
pub fn arrivals(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed ^ 0x5eed_0002);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let due = Duration::from_secs_f64(t);
            t += -(1.0 - rng.unit()).ln() / rate;
            due
        })
        .collect()
}

/// `warm-routed` text pool: covered test tweets of both metros, mixed
/// 50/50 and shuffled by the seed.
pub fn mixed_pool(a: Vec<String>, b: Vec<String>, seed: u64) -> Vec<String> {
    let n = a.len().min(b.len());
    let mut pool: Vec<String> = a.into_iter().take(n).chain(b.into_iter().take(n)).collect();
    Rng::new(seed ^ 0x5eed_0001).shuffle(&mut pool);
    pool
}

/// The vocabulary `cold-single` composes texts from: one surface per
/// known entity that resolves to exactly that entity, and lowercase
/// filler words (from tweets) that resolve to nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Vocabulary {
    pub mentions: Vec<String>,
    pub filler: Vec<String>,
}

impl Vocabulary {
    /// Builds the vocabulary against `resolve` (the served model's
    /// `resolve_entities`), from the corpus gazetteer and tweet words.
    pub fn build(dataset: &Dataset, resolve: &dyn Fn(&str) -> Vec<usize>) -> Vocabulary {
        let mut seen = HashSet::new();
        let mut mentions = Vec::new();
        for (surface, _) in &dataset.gazetteer {
            let s = surface.to_lowercase();
            if let [id] = resolve(&s)[..] {
                if seen.insert(id) {
                    mentions.push(s);
                }
            }
        }
        let mut words = HashSet::new();
        let mut filler = Vec::new();
        for tweet in &dataset.tweets {
            for w in tweet.text.split_whitespace() {
                let ok = w.len() >= 3 && w.chars().all(|c| c.is_ascii_lowercase());
                if ok && words.insert(w.to_string()) && resolve(w).is_empty() {
                    filler.push(w.to_string());
                }
            }
        }
        filler.sort();
        Vocabulary { mentions, filler }
    }

    /// Text `i` of the seed's stream: 2–6 distinct mentions, each preceded
    /// by 1–3 filler words. A pure function of `(seed, i)`.
    pub fn compose(&self, seed: u64, i: u64) -> String {
        let mut rng = Rng::new(seed ^ i.wrapping_mul(0xd134_2543_de82_ef95));
        let k = (2 + rng.below(5)).min(self.mentions.len());
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        while picked.len() < k {
            let m = rng.below(self.mentions.len());
            if !picked.contains(&m) {
                picked.push(m);
            }
        }
        let mut words: Vec<&str> = Vec::new();
        for m in picked {
            for _ in 0..1 + rng.below(3) {
                words.push(&self.filler[rng.below(self.filler.len())]);
            }
            words.push(&self.mentions[m]);
        }
        words.join(" ")
    }
}

/// Measured properties of the inputs one run sent, printed beside its
/// metrics so a later change can state which inputs it helps.
#[derive(Debug, Default, Clone)]
pub struct InputProperties {
    pub texts_per_request: usize,
    pub body_bytes_mean: f64,
    pub entities_per_text_mean: f64,
    pub distinct_entity_sets: usize,
    pub cache_capacity: usize,
    pub routed_by_affinity: f64,
    pub routed_by_ring: f64,
    pub corpus_bytes: usize,
}

impl InputProperties {
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("input.texts_per_request {}", self.texts_per_request),
            format!("input.body_bytes_mean {:.1}", self.body_bytes_mean),
            format!("input.entities_per_text_mean {:.3}", self.entities_per_text_mean),
            format!(
                "input.distinct_entity_sets {} (cache capacity {})",
                self.distinct_entity_sets, self.cache_capacity
            ),
            format!("input.routed_by_affinity_share {:.4}", self.routed_by_affinity),
            format!("input.routed_by_ring_share {:.4}", self.routed_by_ring),
            format!("input.corpus_bytes {}", self.corpus_bytes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab_for(dataset: &Dataset) -> (Vocabulary, edge_text::EntityRecognizer) {
        let ner = edge_data::dataset_recognizer(dataset);
        let resolve = |t: &str| -> Vec<usize> {
            let mut ids: Vec<String> = ner.recognize(t).into_iter().map(|m| m.id).collect();
            ids.sort();
            ids.dedup();
            // Stand-in entity index: the gazetteer's canonical ids.
            ids.iter()
                .filter_map(|id| {
                    dataset
                        .gazetteer
                        .iter()
                        .position(|(s, _)| edge_text::ner::canonical_id(s) == *id)
                })
                .collect()
        };
        (Vocabulary::build(dataset, &resolve), ner.clone())
    }

    #[test]
    fn the_same_seed_generates_identical_inputs() {
        let a = corpus("nyma");
        let b = corpus("nyma");
        assert_eq!(a.tweets, b.tweets);
        assert_ne!(corpus("lama").tweets, a.tweets);
        let (va, _) = vocab_for(&a);
        let (vb, _) = vocab_for(&b);
        assert_eq!(va, vb);
        let sa: Vec<String> = (0..200).map(|i| va.compose(7, i)).collect();
        let sb: Vec<String> = (0..200).map(|i| vb.compose(7, i)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, (0..200).map(|i| va.compose(8, i)).collect::<Vec<_>>());
        let pool = |s| mixed_pool(vec!["a".into(), "b".into()], vec!["c".into(), "d".into()], s);
        assert_eq!(pool(3), pool(3));
        assert_eq!(predict_body(&["x \"y\""]), br#"{"text":"x \"y\""}"#.to_vec());
        assert_eq!(arrivals(100, 2500.0, 3), arrivals(100, 2500.0, 3));
        assert_ne!(arrivals(100, 2500.0, 3), arrivals(100, 2500.0, 4));
    }

    #[test]
    fn arrivals_keep_the_mean_rate_with_exponential_gaps() {
        let due = arrivals(20_000, 2500.0, 9);
        assert_eq!(due[0], Duration::ZERO);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let span = due.last().unwrap().as_secs_f64();
        let rate = (due.len() - 1) as f64 / span;
        assert!((rate / 2500.0 - 1.0).abs() < 0.03, "mean rate {rate}");
        // Exponential gaps: about e^-1 of them exceed the mean gap.
        let mean_gap = span / (due.len() - 1) as f64;
        let long = due.windows(2).filter(|w| (w[1] - w[0]).as_secs_f64() > mean_gap).count();
        let share = long as f64 / (due.len() - 1) as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.02, "share of long gaps {share}");
    }

    #[test]
    fn composed_texts_give_near_unique_entity_sets() {
        let dataset = corpus("nyma");
        let (vocab, ner) = vocab_for(&dataset);
        assert!(vocab.mentions.len() >= 50, "only {} mentions", vocab.mentions.len());
        let n = 20_000u64;
        let mut sets = HashSet::new();
        for i in 0..n {
            let mut ids: Vec<String> =
                ner.recognize(&vocab.compose(11, i)).into_iter().map(|m| m.id).collect();
            assert!(ids.len() >= 2, "text {i} resolved {} entities", ids.len());
            ids.sort();
            sets.insert(ids);
        }
        // Far more distinct sets than the server's 4096-entry cache holds.
        let unique = sets.len() as f64 / n as f64;
        assert!(unique > 0.95, "unique share {unique}");
    }
}
