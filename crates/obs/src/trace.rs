//! Span-based structured tracing with crypto cost attribution.
//!
//! The recorder is **thread-local** and off by default: every hook is a
//! single thread-local flag check when disabled, so instrumented hot paths
//! (pairings, scalar multiplications, AEAD calls) cost nothing measurable
//! in normal operation (`benches/obs.rs` guards this).
//!
//! When enabled via [`enable`], instrumented code produces:
//!
//! * **spans** — RAII enter/exit pairs with parent links ([`span`]);
//! * **events** — point annotations attributed to the enclosing span
//!   ([`event`]);
//! * **crypto op counts** — the `record_*` hooks called by `tre-pairing`,
//!   `tre-sym`, and `tre-hashes`, accumulated on the innermost open span
//!   and rolled up into the parent at exit, so an exited span's
//!   [`CryptoOps`] always covers its whole subtree (a `decrypt` span
//!   reports every pairing any callee performed).
//!
//! Ordering is by a logical sequence counter, not wall time, so a seeded
//! deterministic workload produces a byte-identical [`Trace::to_jsonl`]
//! dump on every run. Wall-clock span durations *are* measured (for the
//! latency-attribution tables) but are deliberately excluded from the
//! JSONL dump to keep it reproducible.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Crypto operation counts attributed to a span (or a whole trace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CryptoOps {
    /// Pairing evaluations (`ê(P, Q)`; each lane of a shared-Miller-loop
    /// multi-pairing counts once).
    pub pairings: u64,
    /// G1 scalar multiplications (wNAF or binary, including cofactor
    /// clearing inside hash-to-curve).
    pub scalar_mults: u64,
    /// Hash-to-curve try-and-increment counter iterations.
    pub h2c_iters: u64,
    /// Bytes processed by the symmetric AEAD (plaintext + associated data).
    pub sym_bytes: u64,
    /// Bytes absorbed by the SHA-2 hash functions.
    pub hash_bytes: u64,
    /// Base-field (`F_p`) Montgomery multiplications/squarings — the unit
    /// cost underneath pairings and scalar mults, used to compare kernel
    /// variants (e.g. prepared vs generic Miller loops) at fixed pairing
    /// counts.
    pub fp_muls: u64,
}

impl CryptoOps {
    /// Adds another op count into this one.
    pub fn absorb(&mut self, other: &CryptoOps) {
        self.pairings += other.pairings;
        self.scalar_mults += other.scalar_mults;
        self.h2c_iters += other.h2c_iters;
        self.sym_bytes += other.sym_bytes;
        self.hash_bytes += other.hash_bytes;
        self.fp_muls += other.fp_muls;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == CryptoOps::default()
    }
}

/// One line of a structured trace, in logical sequence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceLine {
    /// A span was entered.
    Enter {
        /// Logical sequence number.
        seq: u64,
        /// Span id (unique within the trace).
        id: u64,
        /// Id of the enclosing span, if any.
        parent: Option<u64>,
        /// Span name.
        name: String,
    },
    /// A span was exited.
    Exit {
        /// Logical sequence number.
        seq: u64,
        /// Span id.
        id: u64,
        /// Span name (repeated so a line is self-describing).
        name: String,
        /// Subtree-cumulative crypto op counts.
        ops: CryptoOps,
    },
    /// A point event inside (or outside) a span.
    Event {
        /// Logical sequence number.
        seq: u64,
        /// Id of the enclosing span, if any.
        span: Option<u64>,
        /// Event name.
        name: String,
        /// Free-form detail string.
        detail: String,
    },
}

/// A completed span: enter/exit sequence numbers, parent link, cumulative
/// crypto ops, and (non-deterministic, JSONL-excluded) wall-clock duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (unique within the trace).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Sequence number at enter.
    pub enter_seq: u64,
    /// Sequence number at exit.
    pub exit_seq: u64,
    /// Crypto ops performed by the span *and all its children*.
    pub ops: CryptoOps,
    /// Wall-clock duration in nanoseconds (not part of the JSONL dump).
    pub wall_ns: u128,
}

/// A finished trace: the ordered line log plus per-span summaries.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Enter/exit/event lines in logical sequence order.
    pub lines: Vec<TraceLine>,
    /// Completed spans, in exit order.
    pub spans: Vec<SpanRecord>,
    /// Crypto ops recorded while no span was open.
    pub root_ops: CryptoOps,
}

impl Trace {
    /// Serializes the deterministic line log as JSON Lines. Wall-clock
    /// durations are excluded, so a seeded workload dumps byte-identical
    /// output on every run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            match line {
                TraceLine::Enter {
                    seq,
                    id,
                    parent,
                    name,
                } => {
                    out.push_str(&format!(
                        "{{\"ev\":\"enter\",\"seq\":{seq},\"id\":{id},\"parent\":{},\"name\":{}}}\n",
                        opt(parent),
                        json_str(name),
                    ));
                }
                TraceLine::Exit { seq, id, name, ops } => {
                    out.push_str(&format!(
                        "{{\"ev\":\"exit\",\"seq\":{seq},\"id\":{id},\"name\":{},{}}}\n",
                        json_str(name),
                        ops_json(ops),
                    ));
                }
                TraceLine::Event {
                    seq,
                    span,
                    name,
                    detail,
                } => {
                    out.push_str(&format!(
                        "{{\"ev\":\"event\",\"seq\":{seq},\"span\":{},\"name\":{},\"detail\":{}}}\n",
                        opt(span),
                        json_str(name),
                        json_str(detail),
                    ));
                }
            }
        }
        out
    }

    /// `(name, detail)` of every event, in sequence order.
    pub fn events(&self) -> Vec<(&str, &str)> {
        self.lines
            .iter()
            .filter_map(|l| match l {
                TraceLine::Event { name, detail, .. } => Some((name.as_str(), detail.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Completed spans with the given name, in exit order.
    pub fn spans_named<'a>(&'a self, name: &str) -> Vec<&'a SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Total crypto ops across the whole trace: root-level ops plus the
    /// cumulative ops of every *top-level* span (children are already
    /// rolled up into their parents).
    pub fn total_ops(&self) -> CryptoOps {
        let mut total = self.root_ops;
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            total.absorb(&s.ops);
        }
        total
    }
}

fn opt(v: &Option<u64>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".into(),
    }
}

fn ops_json(ops: &CryptoOps) -> String {
    format!(
        "\"pairings\":{},\"scalar_mults\":{},\"h2c_iters\":{},\"sym_bytes\":{},\"hash_bytes\":{},\"fp_muls\":{}",
        ops.pairings, ops.scalar_mults, ops.h2c_iters, ops.sym_bytes, ops.hash_bytes, ops.fp_muls
    )
}

/// Minimal JSON string escaping (quotes, backslash, control characters),
/// returned with its surrounding quotes.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    enter_seq: u64,
    ops: CryptoOps,
    start: Instant,
}

#[derive(Default)]
struct Collector {
    seq: u64,
    next_id: u64,
    stack: Vec<OpenSpan>,
    lines: Vec<TraceLine>,
    spans: Vec<SpanRecord>,
    root_ops: CryptoOps,
}

impl Collector {
    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn close_top(&mut self) {
        if let Some(open) = self.stack.pop() {
            let exit_seq = self.next_seq();
            let ops = open.ops;
            // Roll the subtree total up into the parent, if any.
            if let Some(parent) = self.stack.last_mut() {
                parent.ops.absorb(&ops);
            }
            // `ops` on the record is the subtree-cumulative count.
            let record = SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name.clone(),
                enter_seq: open.enter_seq,
                exit_seq,
                ops,
                wall_ns: open.start.elapsed().as_nanos(),
            };
            self.lines.push(TraceLine::Exit {
                seq: exit_seq,
                id: open.id,
                name: open.name,
                ops,
            });
            self.spans.push(record);
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static GENERATION: Cell<u64> = const { Cell::new(0) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Whether the tracing recorder is enabled on this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Enables tracing on this thread with a fresh, empty recorder. Any spans
/// still open from a previous recorder are invalidated (their guards become
/// no-ops).
pub fn enable() {
    GENERATION.with(|g| g.set(g.get() + 1));
    COLLECTOR.with(|c| *c.borrow_mut() = Some(Collector::default()));
    ENABLED.with(|e| e.set(true));
}

/// Disables tracing on this thread and returns the recorded [`Trace`].
/// Spans still open are closed (innermost first) so the dump is always
/// well-formed. Returns an empty trace if tracing was never enabled.
pub fn finish() -> Trace {
    ENABLED.with(|e| e.set(false));
    let collector = COLLECTOR.with(|c| c.borrow_mut().take());
    match collector {
        Some(mut col) => {
            while !col.stack.is_empty() {
                col.close_top();
            }
            Trace {
                lines: col.lines,
                spans: col.spans,
                root_ops: col.root_ops,
            }
        }
        None => Trace::default(),
    }
}

/// RAII guard for an open span: the span exits when the guard drops.
/// Created by [`span`]; inert when tracing is disabled.
#[must_use = "a span closes when its guard drops — bind it with `let _span = ...`"]
pub struct SpanGuard {
    active: Option<(u64, u64)>, // (generation, id)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((generation, id)) = self.active else {
            return;
        };
        if !is_enabled() || GENERATION.with(|g| g.get()) != generation {
            return;
        }
        COLLECTOR.with(|c| {
            let mut col = c.borrow_mut();
            if let Some(col) = col.as_mut() {
                // RAII guarantees LIFO drops within a thread; anything else
                // is a bug in instrumentation, tolerated silently in release.
                debug_assert_eq!(col.stack.last().map(|s| s.id), Some(id));
                if col.stack.last().map(|s| s.id) == Some(id) {
                    col.close_top();
                }
            }
        });
    }
}

/// Opens a named span. The span closes (and its crypto ops roll up into
/// the parent span) when the returned guard drops. When tracing is
/// disabled this is a single flag check and returns an inert guard.
pub fn span(name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    let generation = GENERATION.with(|g| g.get());
    let active = COLLECTOR.with(|c| {
        let mut col = c.borrow_mut();
        let col = col.as_mut()?;
        let id = col.next_id + 1;
        col.next_id = id;
        let parent = col.stack.last().map(|s| s.id);
        let enter_seq = col.next_seq();
        col.lines.push(TraceLine::Enter {
            seq: enter_seq,
            id,
            parent,
            name: name.to_string(),
        });
        col.stack.push(OpenSpan {
            id,
            parent,
            name: name.to_string(),
            enter_seq,
            ops: CryptoOps::default(),
            start: Instant::now(),
        });
        Some((generation, id))
    });
    SpanGuard { active }
}

/// Records a point event attributed to the innermost open span. No-op when
/// tracing is disabled — guard expensive `detail` formatting at the call
/// site with [`is_enabled`].
pub fn event(name: &str, detail: &str) {
    if !is_enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut col = c.borrow_mut();
        if let Some(col) = col.as_mut() {
            let seq = col.next_seq();
            let span = col.stack.last().map(|s| s.id);
            col.lines.push(TraceLine::Event {
                seq,
                span,
                name: name.to_string(),
                detail: detail.to_string(),
            });
        }
    });
}

#[inline]
fn add_ops(f: impl FnOnce(&mut CryptoOps)) {
    if !is_enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut col = c.borrow_mut();
        if let Some(col) = col.as_mut() {
            match col.stack.last_mut() {
                Some(open) => f(&mut open.ops),
                None => f(&mut col.root_ops),
            }
        }
    });
}

/// Records `n` pairing evaluations (hook for `tre-pairing`).
#[inline]
pub fn record_pairings(n: u64) {
    add_ops(|o| o.pairings += n);
}

/// Records one G1 scalar multiplication (hook for `tre-pairing`).
#[inline]
pub fn record_scalar_mul() {
    add_ops(|o| o.scalar_mults += 1);
}

/// Records one hash-to-curve counter iteration (hook for `tre-pairing`).
#[inline]
pub fn record_h2c_iter() {
    add_ops(|o| o.h2c_iters += 1);
}

/// Records `n` base-field Montgomery multiplications (hook for
/// `tre-pairing`'s `Fp`/`Fp2` kernels). Like every hook this is a no-op
/// unless a collector is installed on the current thread, so the per-mul
/// call costs only a thread-local flag check on the hot path.
#[inline]
pub fn record_fp_muls(n: u64) {
    add_ops(|o| o.fp_muls += n);
}

/// Records `n` bytes processed by the symmetric AEAD (hook for `tre-sym`).
#[inline]
pub fn record_sym_bytes(n: u64) {
    add_ops(|o| o.sym_bytes += n);
}

/// Records `n` bytes absorbed by a hash function (hook for `tre-hashes`).
#[inline]
pub fn record_hash_bytes(n: u64) {
    add_ops(|o| o.hash_bytes += n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        assert!(!is_enabled());
        let _s = span("should-not-record");
        record_pairings(5);
        event("nope", "");
        let trace = finish();
        assert!(trace.lines.is_empty());
        assert!(trace.spans.is_empty());
        assert!(trace.total_ops().is_zero());
    }

    #[test]
    fn span_nesting_parent_links_and_rollup() {
        enable();
        {
            let _outer = span("decrypt");
            record_pairings(2);
            {
                let _inner = span("verify");
                record_pairings(1);
                record_scalar_mul();
                event("checked", "ok");
            }
            record_hash_bytes(64);
        }
        record_sym_bytes(10); // outside any span → root_ops
        let trace = finish();

        let verify = &trace.spans_named("verify")[0];
        let decrypt = &trace.spans_named("decrypt")[0];
        assert_eq!(verify.parent, Some(decrypt.id));
        assert_eq!(decrypt.parent, None);
        assert_eq!(verify.ops.pairings, 1);
        assert_eq!(verify.ops.scalar_mults, 1);
        // The outer span's ops are subtree-cumulative.
        assert_eq!(decrypt.ops.pairings, 3);
        assert_eq!(decrypt.ops.scalar_mults, 1);
        assert_eq!(decrypt.ops.hash_bytes, 64);
        assert_eq!(trace.root_ops.sym_bytes, 10);
        let total = trace.total_ops();
        assert_eq!(total.pairings, 3);
        assert_eq!(total.sym_bytes, 10);

        // Lines are in strict sequence order: enter(decrypt), enter(verify),
        // event, exit(verify), exit(decrypt).
        let seqs: Vec<u64> = trace
            .lines
            .iter()
            .map(|l| match l {
                TraceLine::Enter { seq, .. }
                | TraceLine::Exit { seq, .. }
                | TraceLine::Event { seq, .. } => *seq,
            })
            .collect();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
        assert!(matches!(&trace.lines[0], TraceLine::Enter { name, .. } if name == "decrypt"));
        assert!(
            matches!(&trace.lines[2], TraceLine::Event { span, .. } if *span == Some(verify.id))
        );
        assert!(matches!(&trace.lines[4], TraceLine::Exit { name, .. } if name == "decrypt"));
    }

    #[test]
    fn jsonl_is_deterministic_and_escaped() {
        let run = || {
            enable();
            {
                let _s = span("phase \"one\"\n");
                record_h2c_iter();
            }
            finish().to_jsonl()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same workload, same dump");
        assert!(a.contains("\\\"one\\\"\\n"), "escaped: {a}");
        assert_eq!(a.lines().count(), 2);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        enable();
        let guard = span("left-open");
        record_pairings(1);
        let trace = finish();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].ops.pairings, 1);
        drop(guard); // inert: recorder already gone
        assert!(!is_enabled());
    }

    #[test]
    fn stale_guard_from_previous_generation_is_ignored() {
        enable();
        let stale = span("old");
        enable(); // fresh recorder; `stale` must not corrupt it
        let _fresh = span("new");
        drop(stale);
        let trace = finish();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "new");
    }
}
