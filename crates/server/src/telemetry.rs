//! End-to-end epoch-delivery tracing and the live exposition plane.
//!
//! The paper's scalability claim is about *delivery*: one
//! self-authenticating update per epoch must reach every subscriber.
//! This module measures that pipeline. It has two halves:
//!
//! * [`TraceSink`] — a shared, thread-safe recorder of per-epoch stage
//!   timestamps. Every hop of an update's life records its stamp under
//!   the epoch: the server stamps `publish` and `journal_fsync`, the
//!   `tred` ticker stamps `broadcast`, the receiving [`TcpFeed`]
//!   stamps `first_byte` when the update's [`Telemetry`] trailer
//!   arrives, and the [`ReceiverClient`] stamps `verified` and
//!   `decrypted`. Stage latencies are the *differences between
//!   consecutive stamps*, so the per-stage attribution telescopes: the
//!   stage sums reconcile exactly against the end-to-end
//!   publish→decrypt measurement (asserted in tests and the E18
//!   harness).
//! * [`TelemetryServer`] — a dependency-free minimal HTTP/1.1
//!   responder (`tred --telemetry ADDR`) exposing the unified
//!   [`Registry`] as Prometheus text (`/metrics`) and JSON
//!   (`/metrics.json`), plus liveness (`/healthz`) and readiness
//!   (`/readyz`: journal synced, quorum reachable) probes. The
//!   `tretop` binary polls these endpoints, parses the text back with
//!   [`Registry::parse_prometheus`], and merges daemons without
//!   double-counting.
//!
//! Stage stamps are nanoseconds on a process-wide monotonic anchor
//! ([`now_ns`]). For delivery stages observed by many subscribers
//! (`first_byte`, `verified`, `decrypted`) the sink keeps the *latest*
//! stamp, so the derived latencies measure epoch-to-**last**-delivery —
//! the number the ROADMAP's million-subscriber north star asks for.
//!
//! [`TcpFeed`]: crate::TcpFeed
//! [`ReceiverClient`]: crate::ReceiverClient
//! [`Telemetry`]: tre_wire::Telemetry

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tre_obs::{LatencyHistogram, Metric, Registry};
use tre_wire::Telemetry;

/// Nanoseconds elapsed on the process-wide monotonic anchor.
///
/// All stage stamps share this anchor, so differences between stamps
/// recorded anywhere in the process are exact elapsed time. Stamps
/// from *another* process (a [`Telemetry`] trailer's `publish_ns`)
/// are only comparable when both processes share a host and the rig
/// runs in one process (the test and E18 harnesses); cross-process
/// deployments compare each origin's stamps against its own clock.
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One stage of the epoch-delivery pipeline, in causal order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stage {
    /// The server signed the epoch's update.
    Publish,
    /// The update is durably journaled (fsync complete, or immediately
    /// after publish for an ephemeral archive).
    JournalFsync,
    /// The daemon enqueued the broadcast frame to every subscriber.
    Broadcast,
    /// A subscriber's feed saw the update's bytes arrive.
    FirstByte,
    /// A client verified the update's self-authentication.
    Verified,
    /// A client decrypted a ciphertext under the update.
    Decrypted,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Publish,
        Stage::JournalFsync,
        Stage::Broadcast,
        Stage::FirstByte,
        Stage::Verified,
        Stage::Decrypted,
    ];

    /// The stage's snake_case metric name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Publish => "publish",
            Stage::JournalFsync => "journal_fsync",
            Stage::Broadcast => "broadcast",
            Stage::FirstByte => "first_byte",
            Stage::Verified => "verified",
            Stage::Decrypted => "decrypted",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).unwrap()
    }

    /// Delivery-side stages keep the latest stamp (last delivery
    /// across subscribers); origin-side stages keep the first.
    fn keeps_latest(self) -> bool {
        matches!(self, Stage::FirstByte | Stage::Verified | Stage::Decrypted)
    }
}

/// A snapshot of one epoch's recorded trace.
#[derive(Clone, Debug, Default)]
pub struct EpochTrace {
    /// Stamp per stage ([`Stage::ALL`] order), nanoseconds on the
    /// [`now_ns`] anchor; `None` until the stage is recorded.
    pub stamps: [Option<u64>; 6],
    /// Observations folded into each stage stamp (1 for origin-side
    /// stages; the subscriber delivery count for delivery stages).
    pub observations: [u64; 6],
    /// Origin identifier from the epoch's [`Telemetry`] context.
    pub origin: u32,
    /// Highest hop count seen for this epoch (catch-up replays bump it).
    pub hops: u8,
}

impl EpochTrace {
    /// Stage-to-stage latencies in microseconds: entry `i` is the
    /// delta from `Stage::ALL[i]` to `Stage::ALL[i+1]`, present when
    /// both stamps are.
    pub fn stage_deltas_us(&self) -> [Option<u64>; 5] {
        let mut out = [None; 5];
        for (i, slot) in out.iter_mut().enumerate() {
            if let (Some(a), Some(b)) = (self.stamps[i], self.stamps[i + 1]) {
                *slot = Some(b.saturating_sub(a) / 1_000);
            }
        }
        out
    }

    /// End-to-end publish→decrypt latency in microseconds, when both
    /// endpoints are recorded.
    pub fn end_to_end_us(&self) -> Option<u64> {
        match (self.stamps[0], self.stamps[5]) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a) / 1_000),
            _ => None,
        }
    }
}

tre_obs::metrics! {
    /// Wire-trailer counters of a [`TraceSink`].
    #[derive(Default)]
    struct TraceCounters {
        /// Telemetry trailers emitted onto the wire.
        traces_emitted: u64,
        /// Telemetry trailers decoded from the wire.
        traces_received: u64,
    }
}

#[derive(Default)]
struct SinkInner {
    epochs: BTreeMap<u64, EpochTrace>,
    counters: TraceCounters,
}

/// The shared per-epoch stage recorder (cheaply cloneable handle).
///
/// One sink is threaded through every hop of a delivery rig — server,
/// daemon ticker, feeds, clients — and each hop records its stage
/// stamp as the epoch passes through. See the module docs for the
/// stage model and the telescoping-attribution property.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Arc<Mutex<SinkInner>>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records stage `stage` of `epoch` at stamp `ns`.
    ///
    /// Origin-side stages (`publish`/`journal_fsync`/`broadcast`) keep
    /// the first stamp; delivery-side stages keep the latest and count
    /// each observation, so the stored stamp is the *last* delivery.
    pub fn record(&self, epoch: u64, stage: Stage, ns: u64) {
        let mut inner = self.inner.lock().unwrap();
        let trace = inner.epochs.entry(epoch).or_default();
        let i = stage.index();
        trace.observations[i] += 1;
        trace.stamps[i] = Some(match trace.stamps[i] {
            Some(prev) if stage.keeps_latest() => prev.max(ns),
            Some(prev) => prev,
            None => ns,
        });
    }

    /// Records stage `stage` of `epoch` at the current [`now_ns`].
    pub fn record_now(&self, epoch: u64, stage: Stage) {
        self.record(epoch, stage, now_ns());
    }

    /// Folds a decoded wire [`Telemetry`] context into the epoch's
    /// trace: remembers origin and the highest hop count, adopts the
    /// origin's publish stamp if the publish stage was not recorded
    /// locally, and counts the trace as received.
    pub fn note_wire_trace(&self, ctx: &Telemetry) {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.traces_received += 1;
        let trace = inner.epochs.entry(ctx.epoch).or_default();
        trace.origin = ctx.origin;
        trace.hops = trace.hops.max(ctx.hops);
        if trace.stamps[0].is_none() && ctx.publish_ns != 0 {
            trace.stamps[0] = Some(ctx.publish_ns);
            trace.observations[0] += 1;
        }
    }

    /// Counts one [`Telemetry`] trailer emitted onto the wire.
    pub fn count_emitted(&self) {
        self.inner.lock().unwrap().counters.traces_emitted += 1;
    }

    /// The recorded publish stamp for `epoch`, if any — what the
    /// daemon writes into the epoch's wire trailer.
    pub fn publish_ns(&self, epoch: u64) -> Option<u64> {
        self.inner.lock().unwrap().epochs.get(&epoch)?.stamps[0]
    }

    /// A snapshot of `epoch`'s trace, if anything was recorded.
    pub fn epoch_trace(&self, epoch: u64) -> Option<EpochTrace> {
        self.inner.lock().unwrap().epochs.get(&epoch).cloned()
    }

    /// All epochs with any recorded trace, ascending.
    pub fn epochs(&self) -> Vec<u64> {
        self.inner.lock().unwrap().epochs.keys().copied().collect()
    }

    /// Per-stage latency histograms (microseconds) over every traced
    /// epoch, keyed `<from>_to_<to>`, plus `end_to_end`. Rebuilt from
    /// the stored stamps on each call, so repeated exports never
    /// double-count.
    pub fn stage_histograms(&self) -> BTreeMap<String, LatencyHistogram> {
        let inner = self.inner.lock().unwrap();
        let mut out: BTreeMap<String, LatencyHistogram> = BTreeMap::new();
        for trace in inner.epochs.values() {
            for (i, delta) in trace.stage_deltas_us().iter().enumerate() {
                if let Some(us) = delta {
                    let name = format!("{}_to_{}", Stage::ALL[i].name(), Stage::ALL[i + 1].name());
                    out.entry(name).or_default().record(*us);
                }
            }
            if let Some(us) = trace.end_to_end_us() {
                out.entry("end_to_end".to_string()).or_default().record(us);
            }
        }
        out
    }

    /// Publishes the sink into a [`Registry`]: one
    /// `<prefix>_stage_<from>_to_<to>_us` histogram per stage
    /// transition, `<prefix>_stage_end_to_end_us`, and the
    /// traced-epoch / wire-trace counters. Idempotent (absolute sets).
    pub fn export_into(&self, registry: &mut Registry, prefix: &str) {
        for (name, hist) in self.stage_histograms() {
            let (from, to) = match name.as_str() {
                "end_to_end" => ("publish", "decrypted"),
                stages => stages.split_once("_to_").expect("stage pair name"),
            };
            let help = format!("Microseconds from stage {from} to stage {to}, per traced epoch.");
            hist.export(registry, prefix, &format!("stage_{name}_us"), &help);
        }
        let inner = self.inner.lock().unwrap();
        let help = "Epochs with a recorded stage stamp.";
        (inner.epochs.len() as u64).export(registry, prefix, "epochs_traced", help);
        inner.counters.export_into(registry, prefix);
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("TraceSink")
            .field("epochs", &inner.epochs.len())
            .field("traces_emitted", &inner.counters.traces_emitted)
            .field("traces_received", &inner.counters.traces_received)
            .finish()
    }
}

/// The health the exposition plane reports on its probe endpoints.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// `/healthz`: the process is up and serving (always true once the
    /// snapshot closure runs; kept explicit so a wrapper can veto it).
    pub healthy: bool,
    /// `/readyz`: the daemon is ready to serve — journal synced (or no
    /// journal), quorum reachable (or no committee).
    pub ready: bool,
    /// One-line human detail echoed in the probe body.
    pub detail: String,
}

impl HealthSnapshot {
    /// A serving process, ready or not, with a one-line detail.
    pub fn serving(ready: bool, detail: impl Into<String>) -> Self {
        Self {
            healthy: true,
            ready,
            detail: detail.into(),
        }
    }
}

/// The snapshot closure a [`TelemetryServer`] runs on each request:
/// exports the current metrics into the (fresh) registry it is handed
/// and returns the health/readiness state.
pub type TelemetrySnapshot = Arc<dyn Fn(&mut Registry) -> HealthSnapshot + Send + Sync>;

/// A dependency-free minimal HTTP/1.1 exposition endpoint.
///
/// Serves, from the snapshot closure, `GET`:
///
/// * `/metrics` — Prometheus text ([`Registry::render_prometheus`]);
/// * `/metrics.json` — JSON ([`Registry::render_json`]);
/// * `/healthz` — 200 when healthy, 503 otherwise;
/// * `/readyz` — 200 when ready (journal synced, quorum reachable),
///   503 otherwise.
///
/// Requests are handled serially on one accept thread — exposition is
/// a low-rate diagnostic plane, not a data path. Connections are
/// closed after each response (`Connection: close`).
pub struct TelemetryServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` and starts serving `snapshot`.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(addr: A, snapshot: TelemetrySnapshot) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = shutdown.clone();
        let handle = std::thread::Builder::new()
            .name("tre-telemetry".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = serve_one(stream, &snapshot);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn telemetry thread");
        Ok(Self {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with `:0` ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads one request, routes it, writes one response, closes.
fn serve_one(mut stream: std::net::TcpStream, snapshot: &TelemetrySnapshot) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = [0u8; 1024];
    let mut len = 0;
    // Read until the end of the request head (tiny GETs, no body).
    while len < buf.len() && !buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (405, "text/plain", "method not allowed\n".to_string())
    } else {
        let mut registry = Registry::new();
        let health = snapshot(&mut registry);
        match path {
            "/metrics" => (
                200,
                "text/plain; version=0.0.4",
                registry.render_prometheus(),
            ),
            "/metrics.json" => (200, "application/json", registry.render_json()),
            "/healthz" => {
                let code = if health.healthy { 200 } else { 503 };
                (code, "text/plain", format!("{}\n", health.detail))
            }
            "/readyz" => {
                let code = if health.ready { 200 } else { 503 };
                (code, "text/plain", format!("{}\n", health.detail))
            }
            _ => (404, "text/plain", "not found\n".to_string()),
        }
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Service Unavailable",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    /// Blocking one-shot HTTP GET against a local endpoint, returning
    /// (status, body). Shared with integration tests via `tre-server`'s
    /// test helpers being re-implemented there; kept simple here.
    fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn stage_deltas_telescope_to_end_to_end() {
        let sink = TraceSink::new();
        // Three subscribers; delivery stages keep the last stamp.
        sink.record(7, Stage::Publish, 1_000);
        sink.record(7, Stage::JournalFsync, 3_000);
        sink.record(7, Stage::Broadcast, 10_000);
        for (fb, ver, dec) in [
            (20_000, 30_000, 40_000),
            (25_000, 33_000, 55_000),
            (22_000, 31_000, 47_000),
        ] {
            sink.record(7, Stage::FirstByte, fb);
            sink.record(7, Stage::Verified, ver);
            sink.record(7, Stage::Decrypted, dec);
        }
        let trace = sink.epoch_trace(7).unwrap();
        assert_eq!(trace.stamps[3], Some(25_000), "last first-byte");
        assert_eq!(trace.stamps[5], Some(55_000), "last decrypt");
        assert_eq!(trace.observations[5], 3);
        let deltas = trace.stage_deltas_us();
        assert!(deltas.iter().all(Option::is_some));
        // Attribution conservation: stage deltas telescope exactly.
        let sum: u64 = deltas.iter().map(|d| d.unwrap()).sum();
        assert_eq!(Some(sum), trace.end_to_end_us());
        assert_eq!(trace.end_to_end_us(), Some(54));

        let hists = sink.stage_histograms();
        assert_eq!(hists["publish_to_journal_fsync"].count(), 1);
        assert_eq!(hists["end_to_end"].max(), 54);
    }

    #[test]
    fn wire_trace_adopts_origin_publish_and_tracks_hops() {
        let sink = TraceSink::new();
        sink.note_wire_trace(&Telemetry {
            epoch: 3,
            origin: 2,
            publish_ns: 5_000,
            hops: 0,
        });
        // A catch-up replay of the same epoch arrives with more hops.
        sink.note_wire_trace(&Telemetry {
            epoch: 3,
            origin: 2,
            publish_ns: 5_000,
            hops: 1,
        });
        let trace = sink.epoch_trace(3).unwrap();
        assert_eq!(trace.stamps[0], Some(5_000));
        assert_eq!(trace.origin, 2);
        assert_eq!(trace.hops, 1);
        // Locally recorded publish wins over later wire adoption.
        sink.record(4, Stage::Publish, 9_000);
        sink.note_wire_trace(&Telemetry {
            epoch: 4,
            origin: 0,
            publish_ns: 1,
            hops: 0,
        });
        assert_eq!(sink.epoch_trace(4).unwrap().stamps[0], Some(9_000));
    }

    #[test]
    fn export_is_idempotent() {
        let sink = TraceSink::new();
        sink.record(1, Stage::Publish, 0);
        sink.record(1, Stage::JournalFsync, 2_000);
        sink.count_emitted();
        let mut reg = Registry::new();
        sink.export_into(&mut reg, "tre_trace");
        sink.export_into(&mut reg, "tre_trace");
        assert_eq!(reg.counter("tre_trace_epochs_traced"), 1);
        assert_eq!(reg.counter("tre_trace_traces_emitted"), 1);
        let h = reg
            .histogram("tre_trace_stage_publish_to_journal_fsync_us")
            .unwrap();
        assert_eq!(h.count(), 1, "repeated export must not double-count");
        assert_eq!(h.max(), 2);
    }

    #[test]
    fn http_endpoints_serve_metrics_and_probes() {
        let ready = Arc::new(AtomicBool::new(false));
        let ready_view = ready.clone();
        let server = TelemetryServer::bind(
            "127.0.0.1:0",
            Arc::new(move |reg: &mut Registry| {
                reg.counter_add("tre_test_broadcasts", 5);
                reg.observe("tre_test_lat", 12);
                let ready = ready_view.load(Ordering::Relaxed);
                HealthSnapshot::serving(ready, if ready { "ok" } else { "journal unsynced" })
            }),
        )
        .unwrap();
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("tre_test_broadcasts 5"));
        assert!(body.contains("tre_test_lat_bucket"));
        // The text round-trips through the scraper-side parser.
        let parsed = Registry::parse_prometheus(&body).unwrap();
        assert_eq!(parsed.counter("tre_test_broadcasts"), 5);

        let (status, body) = http_get(addr, "/metrics.json");
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"counters\":"));

        assert_eq!(http_get(addr, "/healthz").0, 200);
        let (status, body) = http_get(addr, "/readyz");
        assert_eq!(status, 503);
        assert!(body.contains("journal unsynced"));
        ready.store(true, Ordering::Relaxed);
        assert_eq!(http_get(addr, "/readyz").0, 200);

        assert_eq!(http_get(addr, "/nope").0, 404);
        server.shutdown();
    }
}
