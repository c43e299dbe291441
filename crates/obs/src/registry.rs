//! A named-metric registry: counters, gauges, and latency histograms with
//! Prometheus-style text exposition and JSON export.
//!
//! Names use the usual `snake_case` Prometheus conventions
//! (`tre_client_updates_received`). Storage is `BTreeMap`-backed so both
//! exposition formats iterate in deterministic (lexicographic) order —
//! snapshots diff cleanly across runs.

use std::collections::BTreeMap;

use crate::hist::LatencyHistogram;
use crate::trace::json_str;

/// A collection of named counters, gauges, and histograms.
///
/// Plain value types, no interior mutability: callers own a `Registry` and
/// record through `&mut` access, which matches the single-threaded
/// simulation harness. Aggregate across threads with [`Registry::merge`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, LatencyHistogram>,
    /// Help text per metric name, rendered as its `# HELP` line.
    help: BTreeMap<String, String>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named counter to an absolute value (for importing totals
    /// kept elsewhere, e.g. `ClientHealth` fields).
    pub fn counter_set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Current value of the named counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of the named gauge (zero if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records one observation into the named histogram, creating it if
    /// needed.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Folds a whole histogram into the named histogram (used when a
    /// component keeps its own `LatencyHistogram` and exports it).
    pub fn histogram_merge(&mut self, name: &str, hist: &LatencyHistogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(hist);
    }

    /// Replaces the named histogram wholesale (for exporting a snapshot of
    /// a histogram kept elsewhere — idempotent, unlike
    /// [`Registry::histogram_merge`]).
    pub fn histogram_set(&mut self, name: &str, hist: LatencyHistogram) {
        self.histograms.insert(name.to_string(), hist);
    }

    /// The named histogram, if any observation was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// Attaches help text to the named metric: one line of prose for
    /// its `# HELP` line (any newline or backslash is escaped on render).
    pub fn describe(&mut self, name: &str, help: &str) {
        self.help.insert(name.to_string(), help.to_string());
    }

    /// The named metric's help text, if it was described.
    pub fn help(&self, name: &str) -> Option<&str> {
        self.help.get(name).map(String::as_str)
    }

    /// Iterates every counter in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates every gauge in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Iterates every histogram in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LatencyHistogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Folds every metric of `other` into `self`: counters and histograms
    /// add; for gauges and help text the other registry's value wins
    /// (last-write).
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (name, help) in &other.help {
            self.help.insert(name.clone(), help.clone());
        }
    }

    /// Writes a family's `# HELP` (when described) and `# TYPE` lines.
    fn push_head(&self, out: &mut String, name: &str, kind: &str) {
        if let Some(help) = self.help(name) {
            let help = help.replace('\\', "\\\\").replace('\n', "\\n");
            out.push_str(&format!("# HELP {name} {help}\n"));
        }
        out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Renders a Prometheus-style text exposition snapshot: `# HELP` and
    /// `# TYPE` lines, counter/gauge samples, and per-histogram cumulative
    /// `_bucket{le=..}` series (power-of-two bounds) plus `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            self.push_head(&mut out, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            self.push_head(&mut out, name, "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            self.push_head(&mut out, name, "histogram");
            let mut cum = 0u64;
            for (i, &c) in h.buckets().iter().enumerate() {
                cum += c;
                let le = match i {
                    0 => "0".to_string(),
                    i if i == h.buckets().len() - 1 => "+Inf".to_string(),
                    i => ((1u64 << i) - 1).to_string(),
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
            // Non-standard extra sample: the exact observed maximum.
            // Cumulative buckets alone cannot recover it (the +Inf
            // bucket is unbounded), and without it a parse-back →
            // merge round-trip would inflate the merged max to a
            // bucket bound. Scrapers that only understand standard
            // histogram series see an extra untyped sample and ignore
            // it.
            out.push_str(&format!("{name}_max {}\n", h.max()));
        }
        out
    }

    /// Parses a [`Registry::render_prometheus`] exposition back into a
    /// registry — the scraper half of cross-process collection.
    /// `tretop` polls each daemon's `/metrics`, parses the text with
    /// this, and [`Registry::merge`]s the snapshots; because
    /// [`LatencyHistogram::merge`] is bucket-exact and the exposition
    /// carries buckets, sum, and the `_max` sample, the merged
    /// quantiles match a single-process recording.
    ///
    /// `# HELP` text is unescaped and kept. Unknown sample names (no
    /// preceding `# TYPE` line) are skipped for forward compatibility.
    ///
    /// # Errors
    /// Returns a description of the first malformed line: a sample
    /// with no value, a non-numeric value, or a histogram whose
    /// `_count` disagrees with its cumulative buckets.
    pub fn parse_prometheus(text: &str) -> Result<Self, String> {
        #[derive(Default)]
        struct HistAcc {
            cum: Vec<u64>,
            sum: u64,
            max: u64,
            count: Option<u64>,
        }
        let mut kinds: BTreeMap<String, String> = BTreeMap::new();
        let mut hists: BTreeMap<String, HistAcc> = BTreeMap::new();
        let mut reg = Registry::new();
        for line in text.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').unwrap_or((rest, ""));
                reg.describe(name, &unescape_help(help));
                continue;
            }
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return Err(format!("malformed TYPE line: {line}"));
                };
                kinds.insert(name.to_string(), kind.to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("sample with no value: {line}"))?;
            let parse_u64 = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("non-numeric sample: {line}"))
            };
            if let Some((base, _)) = name.split_once("_bucket{") {
                if kinds.get(base).map(String::as_str) == Some("histogram") {
                    hists
                        .entry(base.to_string())
                        .or_default()
                        .cum
                        .push(parse_u64(value)?);
                    continue;
                }
            }
            let hist_suffix = ["_sum", "_count", "_max"].iter().find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (kinds.get(base).map(String::as_str) == Some("histogram"))
                    .then(|| (base.to_string(), *suffix))
            });
            if let Some((base, suffix)) = hist_suffix {
                let acc = hists.entry(base).or_default();
                match suffix {
                    "_sum" => acc.sum = parse_u64(value)?,
                    "_count" => acc.count = Some(parse_u64(value)?),
                    _ => acc.max = parse_u64(value)?,
                }
                continue;
            }
            match kinds.get(name).map(String::as_str) {
                Some("counter") => reg.counter_set(name, parse_u64(value)?),
                Some("gauge") => {
                    let v = value
                        .parse::<i64>()
                        .map_err(|_| format!("non-numeric sample: {line}"))?;
                    reg.gauge_set(name, v);
                }
                _ => {} // unknown sample: skip, forward compat
            }
        }
        for (name, acc) in hists {
            if acc.cum.len() != 16 {
                return Err(format!(
                    "histogram {name} has {} bucket samples, want 16",
                    acc.cum.len()
                ));
            }
            let mut buckets = [0u64; 16];
            let mut prev = 0u64;
            for (b, &cum) in buckets.iter_mut().zip(&acc.cum) {
                *b = cum
                    .checked_sub(prev)
                    .ok_or_else(|| format!("histogram {name} buckets not cumulative"))?;
                prev = cum;
            }
            let hist = LatencyHistogram::from_parts(buckets, acc.sum, acc.max);
            if acc.count.is_some_and(|c| c != hist.count()) {
                return Err(format!("histogram {name} count disagrees with buckets"));
            }
            reg.histogram_set(&name, hist);
        }
        Ok(reg)
    }

    /// Renders the registry as a single JSON object with `counters`,
    /// `gauges`, and `histograms` maps; each histogram reports count, sum,
    /// max, and `p50/p90/p99` estimates.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"gauges\":{");
        push_entries(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"histograms\":{");
        push_entries(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                (
                    k,
                    format!(
                        "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        h.count(),
                        h.sum(),
                        h.max(),
                        q_json(h, 0.50),
                        q_json(h, 0.90),
                        q_json(h, 0.99),
                    ),
                )
            }),
        );
        out.push_str("}}");
        out
    }
}

/// Reverses the `# HELP` escaping: `\\` is a backslash and `\n` a
/// newline.
fn unescape_help(text: &str) -> String {
    let parts: Vec<String> = text.split("\\\\").map(|p| p.replace("\\n", "\n")).collect();
    parts.join("\\")
}

fn q_json(h: &LatencyHistogram, q: f64) -> String {
    match h.quantile(q) {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

fn push_entries<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&json_str(k));
        out.push(':');
        out.push_str(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let mut r = Registry::new();
        assert_eq!(r.counter("missing"), 0);
        r.counter_add("hits", 3);
        r.counter_add("hits", 2);
        r.counter_set("total", 42);
        r.gauge_set("depth", -7);
        assert_eq!(r.counter("hits"), 5);
        assert_eq!(r.counter("total"), 42);
        assert_eq!(r.gauge("depth"), -7);
        assert_eq!(r.gauge("missing"), 0);
    }

    #[test]
    fn histogram_observe_and_quantiles() {
        let mut r = Registry::new();
        assert!(r.histogram("lat").is_none());
        for v in 0..100u64 {
            r.observe("lat", v);
        }
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), Some(63));
        assert_eq!(h.quantile(0.99), Some(99));
    }

    #[test]
    fn merge_adds_counters_and_histograms_last_writes_gauges() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.gauge_set("g", 10);
        a.observe("h", 5);
        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 20);
        b.observe("h", 900);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), 20);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 900);
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_cumulative() {
        let mut r = Registry::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 2);
        r.observe("lat", 0);
        r.observe("lat", 3);
        r.observe("lat", 1000);
        let text = r.render_prometheus();
        // BTreeMap order: alpha before zeta.
        let alpha = text.find("alpha 2").unwrap();
        let zeta = text.find("zeta 1").unwrap();
        assert!(alpha < zeta);
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_sum 1003\n"));
        assert!(text.contains("lat_count 3\n"));
        assert_eq!(text, r.render_prometheus(), "stable across renders");
    }

    #[test]
    fn prometheus_parse_back_roundtrips() {
        let mut r = Registry::new();
        r.counter_add("requests", 17);
        r.gauge_set("depth", -3);
        for v in [0u64, 1, 5, 900, 70_000] {
            r.observe("lat", v);
        }
        r.describe("requests", "Requests served.");
        r.describe("depth", "Queue depth,\nin frames (\\n is not a newline). ");
        r.describe("lat", "Latency in µs; C:\\path\\");
        let text = r.render_prometheus();
        assert!(text.contains("# HELP depth Queue depth,\\nin frames (\\\\n is not a newline). \n"));
        let types = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(types, 3);
        for (i, line) in text.lines().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                let help = i.checked_sub(1).and_then(|h| text.lines().nth(h));
                assert!(
                    help.is_some_and(|h| h.starts_with(&format!("# HELP {name} "))),
                    "no # HELP line before {line}"
                );
            }
        }
        let back = Registry::parse_prometheus(&text).unwrap();
        assert_eq!(back, r, "render → parse is the identity");
        assert_eq!(
            back.help("depth"),
            Some("Queue depth,\nin frames (\\n is not a newline). ")
        );
        assert_eq!(back.help("lat"), Some("Latency in µs; C:\\path\\"));
        // Help survives a merge into a scraper's registry.
        let mut merged = Registry::new();
        merged.merge(&back);
        assert_eq!(merged.help("requests"), Some("Requests served."));
        // Exact max survives via the _max sample (70 000 sits in an
        // unbounded bucket, so buckets alone could not recover it).
        assert_eq!(back.histogram("lat").unwrap().max(), 70_000);
        // Unknown samples are skipped, malformed lines are errors.
        assert_eq!(
            Registry::parse_prometheus("mystery_sample 9").unwrap(),
            Registry::new()
        );
        assert!(Registry::parse_prometheus("# TYPE c counter\nc nope").is_err());
    }

    /// Satellite: multi-process collection. Two "daemons" record into
    /// their own registries; a scraper parses each exposition and
    /// merges. The merged quantiles must equal a single-process
    /// recording of all observations (bucket-exact merge), and
    /// re-merging fresh snapshots must not double-count.
    #[test]
    fn cross_process_scrape_merge_matches_single_process() {
        let daemon_a: Vec<u64> = (0..200).map(|i| i * 3).collect();
        let daemon_b: Vec<u64> = (0..100).map(|i| 10_000 + i * 17).collect();
        let mut a = Registry::new();
        let mut b = Registry::new();
        let mut whole = Registry::new();
        for &v in &daemon_a {
            a.observe("stage_broadcast_to_first_byte", v);
            whole.observe("stage_broadcast_to_first_byte", v);
        }
        for &v in &daemon_b {
            b.observe("stage_broadcast_to_first_byte", v);
            whole.observe("stage_broadcast_to_first_byte", v);
        }
        a.counter_add("broadcasts", 200);
        b.counter_add("broadcasts", 100);

        let scrape = |reg: &Registry| Registry::parse_prometheus(&reg.render_prometheus()).unwrap();
        let mut merged = scrape(&a);
        merged.merge(&scrape(&b));
        assert_eq!(merged.counter("broadcasts"), 300);
        let m = merged.histogram("stage_broadcast_to_first_byte").unwrap();
        let w = whole.histogram("stage_broadcast_to_first_byte").unwrap();
        assert_eq!(m, w);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(m.quantile(q), w.quantile(q), "quantile {q}");
        }
        // A scraper re-polling keeps only the latest snapshot per
        // source, so merging fresh scrapes again yields the same
        // totals — no double-counting across polls.
        let mut remerged = scrape(&a);
        remerged.merge(&scrape(&b));
        assert_eq!(remerged, merged);
    }

    #[test]
    fn json_export_shape() {
        let mut r = Registry::new();
        r.counter_add("c", 7);
        r.gauge_set("g", -1);
        r.observe("h", 10);
        let json = r.render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"c\":7"));
        assert!(json.contains("\"g\":-1"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"p50\":10"), "p50 of one obs at 10: {json}");
        assert!(json.ends_with("}}"));
    }
}
