//! Result accounting: operation counts, span samples from the traced
//! rounds, the host clock shared by every benchmark process, and the
//! final report line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::median;

/// Nanoseconds on the host's `CLOCK_MONOTONIC`: one clock for every
/// process of a run, so a due instant taken by the `run` process and a decrypt
/// instant taken by a receiver process subtract directly.
pub fn mono_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_MONOTONIC: i32 = 1;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// What to add to this process's `tre_server::now_ns()` trace stamps to
/// put them on [`mono_ns`]. Both clocks are monotonic and tick together;
/// only the anchor differs, and it differs per process.
pub fn trace_anchor_ns() -> u64 {
    (0..5)
        .map(|_| {
            let before = mono_ns();
            let stamp = tre_server::now_ns();
            before.saturating_sub(stamp)
        })
        .max()
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operations attempted and failed, and the invariant violations seen.
#[derive(Default, Debug)]
pub struct Tally {
    /// Operations attempted (every release, catch-up, seal, open and
    /// restart the run tried).
    pub attempted: u64,
    /// Operations that failed: a missed epoch, a wrong plaintext, a
    /// deadline overrun, a catch-up byte mismatch, a failed restart.
    pub failed: u64,
    /// Broken invariants (conservation, verify-once, ...), by message.
    pub violations: Vec<String>,
}

impl Tally {
    /// Counts one attempt that succeeded iff `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an invariant check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: invariant violated: {msg}");
            self.violations.push(msg);
        }
    }
}

/// One timed call into a layer, from a traced round: wall time plus the
/// crypto operations `tre-obs` attributed to it.
#[derive(Clone, Debug, Default)]
pub struct SpanSample {
    /// Nanoseconds of wall time.
    pub wall_ns: u64,
    /// Pairings evaluated.
    pub pairings: u64,
    /// Base-field multiplications.
    pub fp_muls: u64,
    /// Hash-to-curve iterations.
    pub h2c_iters: u64,
}

/// Span samples by layer name.
#[derive(Default, Debug)]
pub struct Spans {
    by_name: BTreeMap<String, Vec<SpanSample>>,
}

impl Spans {
    /// Adds one sample under `name`.
    pub fn push(&mut self, name: &str, s: SpanSample) {
        self.by_name.entry(name.to_string()).or_default().push(s);
    }

    /// Adds the top-level spans of a finished `tre-obs` trace. A seal is
    /// filed as a memo hit when it hashed nothing to the curve.
    pub fn absorb_trace(&mut self, trace: &tre_obs::Trace) {
        for s in trace.spans.iter().filter(|s| s.parent.is_none()) {
            let sample = SpanSample {
                wall_ns: s.wall_ns as u64,
                pairings: s.ops.pairings,
                fp_muls: s.ops.fp_muls,
                h2c_iters: s.ops.h2c_iters,
            };
            let name = match s.name.as_str() {
                "core.seal" if s.ops.h2c_iters == 0 => "core.seal_hit",
                "core.seal" => "core.seal_miss",
                other => other,
            };
            self.push(name, sample);
        }
    }

    /// Merges another set.
    pub fn extend(&mut self, other: Spans) {
        for (k, v) in other.by_name {
            self.by_name.entry(k).or_default().extend(v);
        }
    }

    /// Samples under `name` (empty when the layer did no work).
    pub fn get(&self, name: &str) -> &[SpanSample] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median wall time under `name` in milliseconds (0 when absent).
    pub fn median_ms(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .get(name)
            .iter()
            .map(|s| s.wall_ns as f64 / 1e6)
            .collect();
        median(&v).unwrap_or(0.0)
    }

    /// Mean of `f` per sample under `name` (0 when absent).
    pub fn mean_of(&self, name: &str, f: impl Fn(&SpanSample) -> u64) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            return 0.0;
        }
        v.iter().map(f).sum::<u64>() as f64 / v.len() as f64
    }

    /// Serialises for a child's result stream: one `span` line per sample.
    pub fn to_lines(&self, out: &mut String) {
        for (name, v) in &self.by_name {
            for s in v {
                let _ = writeln!(
                    out,
                    "span {name} {} {} {} {}",
                    s.wall_ns, s.pairings, s.fp_muls, s.h2c_iters
                );
            }
        }
    }

    /// Parses one `span` line back (see [`Spans::to_lines`]).
    pub fn parse_line(&mut self, fields: &[&str]) -> Option<()> {
        let [name, wall, pairings, fp, h2c] = fields else {
            return None;
        };
        self.push(
            name,
            SpanSample {
                wall_ns: wall.parse().ok()?,
                pairings: pairings.parse().ok()?,
                fp_muls: fp.parse().ok()?,
                h2c_iters: h2c.parse().ok()?,
            },
        );
        Some(())
    }
}

/// The run's result: metrics in declaration order plus the counts.
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self {
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Notes the tail of a latency distribution (ms) in the readable
    /// table: p90, p95 and p99 where enough samples lie beyond each, with
    /// the sample count. Not part of the JSON result — on a shared
    /// two-core host these tails move by more than the benchmark's bound
    /// between identical runs.
    pub fn note_tail(&mut self, name: &str, samples: &[f64]) {
        let mut line = format!("{name} tail ({} samples):", samples.len());
        for (label, q) in [("p90", 0.90), ("p95", 0.95), ("p99", 0.99)] {
            match crate::stats::tail_percentile(samples, q) {
                Some(v) => line.push_str(&format!(" {label} {v:.3}")),
                None => line.push_str(&format!(" {label} n/a")),
            }
        }
        self.notes.push(line);
    }

    /// Adds a metric. Non-finite values are a harness bug.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value, unit));
    }

    /// Prints a readable table, then the one-line JSON result last.
    pub fn print(&self, tally: &Tally) {
        let correct = tally.failed == 0 && tally.violations.is_empty();
        for (name, value, unit) in &self.metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "operations: {} attempted, {} failed; invariants: {}",
            tally.attempted,
            tally.failed,
            if tally.violations.is_empty() {
                "all hold".to_string()
            } else {
                tally.violations.join("; ")
            }
        );
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted, tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_lines_round_trip() {
        let mut s = Spans::default();
        s.push(
            "core.open",
            SpanSample {
                wall_ns: 5,
                pairings: 1,
                fp_muls: 9,
                h2c_iters: 0,
            },
        );
        let mut out = String::new();
        s.to_lines(&mut out);
        let mut back = Spans::default();
        let fields: Vec<&str> = out.split_whitespace().skip(1).collect();
        back.parse_line(&fields).unwrap();
        assert_eq!(back.get("core.open")[0].fp_muls, 9);
        assert_eq!(back.median_ms("core.open"), 5e-6);
        assert_eq!(back.median_ms("relay.verify"), 0.0);
    }

    #[test]
    fn host_clock_and_trace_anchor_agree() {
        let anchor = trace_anchor_ns();
        let a = mono_ns();
        let b = tre_server::now_ns() + anchor;
        let c = mono_ns();
        assert!(b + 1_000_000 >= a && b <= c + 1_000_000, "{a} {b} {c}");
        assert!(peak_rss_mb() > 0.0);
    }
}
