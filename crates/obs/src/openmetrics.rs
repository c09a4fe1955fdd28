//! OpenMetrics text exposition: render a [`MetricsSnapshot`] as an
//! OpenMetrics scrape, and parse one back.
//!
//! The renderer emits `# TYPE` / `# HELP` metadata per family, `_total`
//! counters, full `_bucket`/`_count`/`_sum` histogram exposition over the
//! log₂ buckets, estimated `_p50`/`_p95`/`_p99` gauges per histogram, and a
//! terminating `# EOF`. Metric names are sanitized (`.`/`-` → `_`) to the
//! OpenMetrics charset. The parser is the tiny in-repo consumer used by
//! `edge-cli top`, the exposition tests, and CI's obs-smoke gate — strict
//! enough to reject a malformed scrape (bad sample line, a family declared
//! twice, missing `# EOF`), small enough to audit. Each registry family
//! renders as one exposition family, plus three quantile gauge families
//! per histogram.

use crate::labels::{FamilySnapshot, Labels};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// The `Content-Type` a compliant scraper expects from `/metrics`.
pub const CONTENT_TYPE: &str = "application/openmetrics-text; version=1.0.0";

/// Maps a registry name onto the OpenMetrics charset:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`. Dots and dashes become underscores.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if ok {
            out.push(ch);
        } else if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

pub(crate) fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Shortest-round-trip float formatting; `Display` for `f64` is shortest in
/// Rust, and integral values drop the fraction entirely (OpenMetrics allows
/// both).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &HistogramSnapshot,
) {
    let mut cum = 0u64;
    for &(lower, n) in &h.buckets {
        cum += n;
        let upper = if lower == 0.0 { crate::metrics::bucket_lower_edge(1) } else { lower * 2.0 };
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            label_block(labels, Some(("le", &fmt_value(upper))))
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {}\n",
        label_block(labels, Some(("le", "+Inf"))),
        h.count
    ));
    out.push_str(&format!("{name}_count{} {}\n", label_block(labels, None), h.count));
    out.push_str(&format!("{name}_sum{} {}\n", label_block(labels, None), fmt_value(h.sum)));
}

fn render_histogram_quantiles(out: &mut String, name: &str, cells: &[(Labels, HistogramSnapshot)]) {
    for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        let qname = format!("{name}_{suffix}");
        out.push_str(&format!("# TYPE {qname} gauge\n"));
        out.push_str(&format!("# HELP {qname} Estimated {suffix} of {name}.\n"));
        for (labels, h) in cells {
            out.push_str(&format!(
                "{qname}{} {}\n",
                label_block(labels, None),
                fmt_value(h.quantile(q))
            ));
        }
    }
}

/// Writes a family's `# TYPE` and `# HELP` lines; returns its exposed name.
fn render_header<V>(out: &mut String, family: &FamilySnapshot<V>, kind: &str) -> String {
    let name = sanitize_name(&family.name);
    out.push_str(&format!("# TYPE {name} {kind}\n"));
    out.push_str(&format!("# HELP {name} {}\n", family.help));
    name
}

/// Renders the snapshot as one OpenMetrics scrape, `# EOF`-terminated.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    for family in &snap.counters {
        let name = render_header(&mut out, family, "counter");
        for (labels, value) in &family.cells {
            out.push_str(&format!("{name}_total{} {value}\n", label_block(labels, None)));
        }
    }
    for family in &snap.gauges {
        let name = render_header(&mut out, family, "gauge");
        for (labels, value) in &family.cells {
            out.push_str(&format!("{name}{} {}\n", label_block(labels, None), fmt_value(*value)));
        }
    }
    for family in &snap.histograms {
        let name = render_header(&mut out, family, "histogram");
        for (labels, h) in &family.cells {
            render_histogram(&mut out, &name, labels, h);
        }
        render_histogram_quantiles(&mut out, &name, &family.cells);
    }
    out.push_str("# EOF\n");
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Family kind from a `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
    Unknown,
}

/// One sample line of a scrape.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Full sample name (including `_total`/`_bucket`-style suffixes).
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// One metric family: the `# TYPE` metadata plus its samples.
#[derive(Debug, Clone)]
pub struct Family {
    pub name: String,
    pub kind: MetricKind,
    pub help: String,
    pub samples: Vec<Sample>,
}

/// A parsed scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    pub families: Vec<Family>,
}

impl Scrape {
    /// All samples across families.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.families.iter().flat_map(|f| f.samples.iter())
    }

    /// First sample named `name` whose labels include every pair in `want`.
    pub fn sample(&self, name: &str, want: &[(&str, &str)]) -> Option<&Sample> {
        self.samples().find(|s| {
            s.name == name
                && want.iter().all(|(wk, wv)| s.labels.iter().any(|(k, v)| k == wk && v == wv))
        })
    }

    /// Convenience: the value of [`Scrape::sample`].
    pub fn value(&self, name: &str, want: &[(&str, &str)]) -> Option<f64> {
        self.sample(name, want).map(|s| s.value)
    }
}

fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = block.chars().peekable();
    loop {
        // Label name up to '='.
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            if c == ',' || c == ' ' {
                return Err(format!("unexpected '{c}' in label name"));
            }
            name.push(c);
            chars.next();
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err("label value must be quoted".into());
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err("unterminated label value".into()),
            }
        }
        labels.push((name, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("unexpected '{c}' after label value")),
        }
    }
    Ok(labels)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or_else(|| format!("unclosed label block: {line}"))?;
            if close < open {
                return Err(format!("mismatched braces: {line}"));
            }
            (&line[..open], Some((&line[open + 1..close], &line[close + 1..])))
        }
        None => (line, None),
    };
    let (labels, value_part) = match rest {
        Some((block, tail)) => (parse_labels(block)?, tail.trim()),
        None => (Vec::new(), line.split_once(char::is_whitespace).map_or("", |(_, v)| v.trim())),
    };
    let name = name_part.split_whitespace().next().unwrap_or("").to_string();
    if name.is_empty() {
        return Err(format!("sample without a name: {line}"));
    }
    // Value is the first token; an optional timestamp may follow.
    let value_str = value_part
        .split_whitespace()
        .next()
        .ok_or_else(|| format!("sample without a value: {line}"))?;
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s.parse::<f64>().map_err(|_| format!("bad sample value {s:?} in: {line}"))?,
    };
    Ok(Sample { name, labels, value })
}

/// Parses an OpenMetrics scrape. Rejects malformed metadata or sample
/// lines, a second `# TYPE` for a family already seen, a missing `# EOF`
/// terminator, and content after it.
pub fn parse(text: &str) -> Result<Scrape, String> {
    let mut scrape = Scrape::default();
    let mut saw_eof = false;
    for raw in text.lines() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(format!("content after # EOF: {line}"));
        }
        if let Some(meta) = line.strip_prefix('#') {
            let meta = meta.trim_start();
            if meta == "EOF" {
                saw_eof = true;
            } else if let Some(rest) = meta.strip_prefix("TYPE ") {
                let mut it = rest.split_whitespace();
                let name =
                    it.next().ok_or_else(|| format!("TYPE without a name: {line}"))?.to_string();
                let kind = match it.next() {
                    Some("counter") => MetricKind::Counter,
                    Some("gauge") => MetricKind::Gauge,
                    Some("histogram") => MetricKind::Histogram,
                    Some(_) => MetricKind::Unknown,
                    None => return Err(format!("TYPE without a kind: {line}")),
                };
                if scrape.families.iter().any(|f| f.name == name) {
                    return Err(format!("family {name} declared twice: {line}"));
                }
                scrape.families.push(Family {
                    name,
                    kind,
                    help: String::new(),
                    samples: Vec::new(),
                });
            } else if let Some(rest) = meta.strip_prefix("HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                if let Some(fam) = scrape.families.iter_mut().rev().find(|f| f.name == name) {
                    fam.help = help.to_string();
                }
            }
            // Other comments are ignored, as the spec requires.
            continue;
        }
        let sample = parse_sample(line)?;
        let owner = scrape.families.iter_mut().rev().find(|f| {
            sample.name == f.name
                || sample
                    .name
                    .strip_prefix(f.name.as_str())
                    .is_some_and(|suffix| suffix.starts_with('_'))
        });
        match owner {
            Some(fam) => fam.samples.push(sample),
            None => scrape.families.push(Family {
                name: sample.name.clone(),
                kind: MetricKind::Unknown,
                help: String::new(),
                samples: vec![sample],
            }),
        }
    }
    if !saw_eof {
        return Err("scrape does not end with # EOF".into());
    }
    Ok(scrape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("serve.request.us"), "serve_request_us");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
    }

    #[test]
    fn parses_samples_with_and_without_labels() {
        let s = parse_sample("foo_total 12").unwrap();
        assert_eq!(s.name, "foo_total");
        assert!(s.labels.is_empty());
        assert_eq!(s.value, 12.0);
        let s = parse_sample("foo_bucket{endpoint=\"predict\",le=\"+Inf\"} 3").unwrap();
        assert_eq!(s.labels.len(), 2);
        assert_eq!(s.labels[0], ("endpoint".to_string(), "predict".to_string()));
        assert_eq!(s.value, 3.0);
        assert!(parse_sample("no_value").is_err());
        assert!(parse_sample("bad{x=unquoted} 1").is_err());
    }

    #[test]
    fn rejects_missing_eof_and_trailing_content() {
        assert!(parse("# TYPE a counter\na_total 1\n").is_err());
        assert!(parse("# TYPE a counter\na_total 1\n# EOF\nextra 2\n").is_err());
        assert!(parse("# TYPE a counter\na_total 1\n# EOF\n").is_ok());
    }

    #[test]
    fn rejects_a_family_declared_twice() {
        let twice = "# TYPE a counter\na_total 1\n# TYPE a counter\na_total 2\n# EOF\n";
        let err = parse(twice).unwrap_err();
        assert!(err.contains("family a declared twice"), "{err}");
        // Another kind under the same name is no better.
        assert!(parse("# TYPE a counter\na_total 1\n# TYPE a gauge\na 2\n# EOF\n").is_err());
        // A family first seen through an untyped sample cannot be typed later.
        assert!(parse("a 1\n# TYPE a gauge\n# EOF\n").is_err());
        assert!(parse("# TYPE a counter\na_total 1\n# TYPE b counter\nb_total 2\n# EOF\n").is_ok());
    }

    #[test]
    fn label_values_round_trip_escapes() {
        let labels = vec![("k".to_string(), "a\"b\\c\nd".to_string())];
        let block = label_block(&labels, None);
        let inner = block.trim_start_matches('{').trim_end_matches('}');
        let parsed = parse_labels(inner).unwrap();
        assert_eq!(parsed, labels);
    }
}
