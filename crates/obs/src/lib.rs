//! # tre-obs — observability layer for the TRE workspace
//!
//! Dependency-free metrics, tracing, and crypto cost accounting shared by
//! every crate in the timed-release-encryption reproduction:
//!
//! * [`Registry`] — named counters, gauges, and latency histograms with
//!   `p50/p90/p99` quantiles, Prometheus-style text exposition
//!   ([`Registry::render_prometheus`]) and JSON export
//!   ([`Registry::render_json`]).
//! * [`metrics!`] — declares a stats struct whose fields are its
//!   metrics: export code and a `(name, help)` catalog are derived from
//!   the field list, the kind from each field's type ([`Metric`]).
//! * [`LatencyHistogram`] — power-of-two-bucketed histogram with
//!   [`quantile`](LatencyHistogram::quantile) and
//!   [`merge`](LatencyHistogram::merge), re-homed here from `tre-server`.
//! * Span tracing — [`enable`], [`span`], [`event`], [`finish`]; a
//!   thread-local recorder that is a no-op (one flag check) when disabled.
//!   Lines are ordered by a logical sequence counter so seeded workloads
//!   produce byte-identical [`Trace::to_jsonl`] dumps.
//! * Crypto cost hooks — [`record_pairings`], [`record_scalar_mul`],
//!   [`record_h2c_iter`], [`record_fp_muls`], [`record_fp_inv`],
//!   [`record_fp_sqrt`], [`record_sym_bytes`], [`record_hash_bytes`] —
//!   called from `tre-pairing` / `tre-sym` / `tre-hashes` and attributed
//!   to the innermost open span, rolling up to parents at exit.
//!
//! This crate sits *below* the crypto crates in the dependency graph and
//! pulls in nothing external, so the whole workspace can depend on it
//! without weight.

#![warn(missing_docs)]

mod catalog;
mod hist;
mod registry;
mod trace;

pub use catalog::{Catalog, Metric};
pub use hist::LatencyHistogram;
pub use registry::Registry;
pub use trace::{
    enable, event, finish, is_enabled, json_str, record_fp_inv, record_fp_muls, record_fp_sqrt,
    record_h2c_iter, record_hash_bytes, record_pairings, record_scalar_mul, record_sym_bytes, span,
    CryptoOps, SpanGuard, SpanRecord, Trace, TraceLine,
};
