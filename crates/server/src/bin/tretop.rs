//! `tretop` — a live terminal dashboard over `tred --telemetry`
//! endpoints.
//!
//! ```text
//! tretop HOST:PORT [HOST:PORT ...] [--watch] [--interval-ms MS]
//! ```
//!
//! Each tick, `tretop` scrapes every endpoint's `/metrics` (Prometheus
//! text), reconstructs the registries with
//! [`tre_obs::Registry::parse_prometheus`], and renders:
//!
//! * per-endpoint health (`/readyz`) and scrape status;
//! * the delivery-conservation balance
//!   (`offered == written + abandoned + evicted + dropped + in-flight`);
//! * the forecast hit ratio: epochs signed (root) and verified (relays)
//!   off the idle-priority worker's precomputed tag values;
//! * catch-up pressure: daemon-side requests/clipped/replies/shed and
//!   journal-archive health next to client-side busy/retry/resume
//!   counters, so an operator sees overload shedding as it happens;
//! * the per-stage epoch-delivery latency table (p50/p99/max) from the
//!   trace-sink histograms;
//! * per-member committee rows (share rejections, arrival offsets,
//!   reconnects) grouped out of the metric names.
//!
//! Aggregation across endpoints keeps only the **latest** snapshot per
//! source and folds those once per render, so a member daemon scraped
//! ten times is never counted ten times (the merge semantics satellite).
//! With `--watch` the screen refreshes every `--interval-ms` (default
//! 1000); without it one snapshot is printed and the process exits —
//! handy for CI smoke tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::exit;
use std::time::Duration;

use tre_obs::{Catalog, Registry};
use tre_server::{
    ArchiveReadStats, FeedStats, JournalStats, SupervisorStats, TickerStats, TredStats,
};

struct Args {
    endpoints: Vec<String>,
    watch: bool,
    interval: Duration,
}

fn usage() -> ! {
    eprintln!("usage: tretop HOST:PORT [HOST:PORT ...] [--watch] [--interval-ms MS]");
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        endpoints: Vec::new(),
        watch: false,
        interval: Duration::from_millis(1000),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--watch" => args.watch = true,
            "--interval-ms" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.interval = Duration::from_millis(v.parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => usage(),
            other => args.endpoints.push(other.to_string()),
        }
    }
    if args.endpoints.is_empty() {
        usage();
    }
    args
}

/// Minimal HTTP/1.1 GET over a plain socket: returns `(status, body)`.
fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(2000)))?;
    stream.set_write_timeout(Some(Duration::from_millis(2000)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// One endpoint's latest state.
struct Source {
    addr: String,
    registry: Option<Registry>,
    ready: Option<bool>,
    error: Option<String>,
}

impl Source {
    fn scrape(&mut self) {
        match http_get(&self.addr, "/metrics") {
            Ok((200, body)) => match Registry::parse_prometheus(&body) {
                Ok(registry) => {
                    self.registry = Some(registry);
                    self.error = None;
                }
                Err(e) => self.error = Some(format!("parse: {e}")),
            },
            Ok((status, _)) => self.error = Some(format!("HTTP {status}")),
            Err(e) => self.error = Some(e.to_string()),
        }
        self.ready = http_get(&self.addr, "/readyz")
            .ok()
            .map(|(status, _)| status == 200);
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// The `<suffix>` of `<anything>_<marker>_<suffix>`, if the marker is
/// present (first occurrence wins).
fn after<'a>(name: &'a str, marker: &str) -> Option<&'a str> {
    name.find(marker).map(|i| &name[i + marker.len()..])
}

/// Member index and remainder of a `..._member_<i>_<rest>` name.
fn member_split(name: &str) -> Option<(u32, &str)> {
    let rest = after(name, "_member_")?;
    let (idx, tail) = rest.split_once('_')?;
    Some((idx.parse().ok()?, tail))
}

fn render(sources: &[Source]) -> String {
    let mut out = String::new();
    let mut merged = Registry::new();
    for s in sources {
        let mark = match (&s.error, s.ready) {
            (Some(e), _) => format!("DOWN ({e})"),
            (None, Some(false)) => "up, NOT ready".to_string(),
            (None, _) => "up, ready".to_string(),
        };
        out.push_str(&format!("endpoint {:<24} {}\n", s.addr, mark));
        // Latest snapshot per source, folded exactly once: no
        // double-counting however often we scraped.
        if let Some(r) = &s.registry {
            merged.merge(r);
        }
    }
    out.push('\n');

    // Sum of every counter named `…_<layer><name>` across endpoints. The
    // name must be declared in `catalog`, so renaming a stats field fails
    // the tests below instead of silently blanking a column.
    let sum = |layer: &str, catalog: Catalog, name: &str| -> u64 {
        let declared = catalog.iter().any(|&(n, _)| n == name);
        assert!(declared, "tretop reads undeclared metric `{name}`");
        let suffix = format!("_{layer}{name}");
        merged
            .counters()
            .filter(|(n, _)| n.ends_with(&suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let tred = |name: &str| sum("", TredStats::CATALOG, name);
    let journal = |name: &str| sum("journal_", JournalStats::CATALOG, name);
    let supervisor = |name: &str| sum("", SupervisorStats::CATALOG, name);
    let archive = |name: &str| sum("", ArchiveReadStats::CATALOG, name);

    // Delivery-conservation balance across every exporting daemon.
    let offered = tred("frames_offered");
    let resolved = tred("frames_written")
        + tred("frames_abandoned")
        + tred("evicted")
        + tred("frames_dropped");
    let in_flight = offered.saturating_sub(resolved);
    out.push_str(&format!(
        "broadcasts {}   connections {}   frames: offered {} = written {} + abandoned {} + evicted {} + dropped {} + in-flight {}  [{}]\n\n",
        tred("broadcasts"),
        tred("connections"),
        offered,
        tred("frames_written"),
        tred("frames_abandoned"),
        tred("evicted"),
        tred("frames_dropped"),
        in_flight,
        if offered == resolved + in_flight { "balanced" } else { "IMBALANCED" },
    ));

    // Forecast hit ratio: epochs the root signed, and the relays
    // verified, off values the idle-priority worker computed ahead.
    let forecast = |name: &str| sum("", TickerStats::CATALOG, name);
    let hits = forecast("forecast_hits");
    let misses = forecast("forecast_misses");
    if hits + misses > 0 {
        out.push_str(&format!(
            "forecast: hits {hits}  misses {misses}  ({:.1}% hit)\n\n",
            100.0 * hits as f64 / (hits + misses) as f64
        ));
    }

    // Catch-up pressure: archive serving and shedding on the daemon
    // side, retry/resume churn on the supervised-client side. The
    // daemon and feed layers both export a `catch_up_requests`
    // counter, so the suffix sum is split by subtracting the
    // feed-prefixed slice back out.
    let feed_requests = sum("feed_", FeedStats::CATALOG, "catch_up_requests");
    let served_requests = tred("catch_up_requests").saturating_sub(feed_requests);
    if served_requests + feed_requests + tred("catch_up_shed") > 0 {
        out.push_str(&format!(
            "catch-up: requests {} (clipped {})  replies {}  shed {}   archive: sealed {} segs / {} recs  quarantined {}  torn-tail {}B  probes/lookup {}\n",
            served_requests,
            tred("catch_up_clipped"),
            tred("catch_up_replies"),
            tred("catch_up_shed"),
            journal("rotations"),
            (journal("replayed_records") + journal("appends"))
                .saturating_sub(journal("compacted_records")),
            journal("quarantined_records"),
            journal("torn_tail_bytes"),
            match archive("lookups") {
                0 => "-".to_string(),
                n => format!("{:.1}", archive("lookup_probes") as f64 / n as f64),
            },
        ));
        out.push_str(&format!(
            "clients:  requests {}  busy seen {}  retries {}  resumes {}  reconnects {}  gap repairs {}\n\n",
            feed_requests,
            sum("", FeedStats::CATALOG, "busy_seen") + supervisor("busy_sheds_seen"),
            supervisor("catch_up_retries"),
            supervisor("catch_up_resumes"),
            sum("supervisor_", SupervisorStats::CATALOG, "reconnects"),
            supervisor("gap_repairs"),
        ));
    }

    // Stage attribution table from the trace histograms, in pipeline
    // order (a BTreeMap would alphabetise the stages).
    let mut stage_rows: Vec<(String, &tre_obs::LatencyHistogram)> = merged
        .histograms()
        .filter_map(|(name, h)| {
            after(name, "_trace_stage_")
                .map(|s| match s.trim_end_matches("_us") {
                    "end_to_end" => "end to end".to_string(),
                    stage => stage.replace("_to_", " → "),
                })
                .map(|label| (label, h))
        })
        .collect();
    let rank = |label: &str| -> usize {
        const ORDER: [&str; 6] = [
            "publish → journal_fsync",
            "journal_fsync → broadcast",
            "broadcast → first_byte",
            "first_byte → verified",
            "verified → decrypted",
            "end to end",
        ];
        ORDER
            .iter()
            .position(|o| *o == label)
            .unwrap_or(ORDER.len())
    };
    stage_rows.sort_by_key(|(label, _)| rank(label));
    if !stage_rows.is_empty() {
        out.push_str(&format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10}\n",
            "stage", "count", "p50", "p99", "max"
        ));
        for (label, h) in stage_rows {
            out.push_str(&format!(
                "{:<28} {:>8} {:>10} {:>10} {:>10}\n",
                label,
                h.count(),
                h.quantile(0.5).map_or("-".into(), fmt_us),
                h.quantile(0.99).map_or("-".into(), fmt_us),
                fmt_us(h.max()),
            ));
        }
        out.push('\n');
    }

    // Per-member committee rows, grouped out of the metric names.
    let mut members: std::collections::BTreeMap<u32, Vec<String>> = Default::default();
    for (name, v) in merged.counters() {
        if v == 0 {
            continue;
        }
        if let Some((idx, tail)) = member_split(name) {
            members.entry(idx).or_default().push(format!("{tail}={v}"));
        }
    }
    for (name, h) in merged.histograms() {
        if let Some((idx, tail)) = member_split(name) {
            if let Some(p50) = h.quantile(0.5) {
                members
                    .entry(idx)
                    .or_default()
                    .push(format!("{tail}_p50={p50}"));
            }
        }
    }
    for (idx, fields) in &members {
        out.push_str(&format!("member {idx}: {}\n", fields.join("  ")));
    }
    out
}

fn main() {
    let args = parse_args();
    let mut sources: Vec<Source> = args
        .endpoints
        .iter()
        .map(|addr| Source {
            addr: addr.clone(),
            registry: None,
            ready: None,
            error: None,
        })
        .collect();
    loop {
        for s in &mut sources {
            s.scrape();
        }
        let frame = render(&sources);
        if args.watch {
            // ANSI clear + home, then the frame — a poor man's top(1).
            print!("\x1b[2J\x1b[H{frame}");
            let _ = std::io::stdout().flush();
            std::thread::sleep(args.interval);
        } else {
            print!("{frame}");
            let any_up = sources.iter().any(|s| s.error.is_none());
            exit(if any_up { 0 } else { 1 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_up_section_splits_daemon_from_feed_requests() {
        let mut registry = Registry::new();
        // Daemon side: 10 requests total, 2 clipped, 1 shed.
        registry.counter_set("tre_tred_catch_up_requests", 10);
        registry.counter_set("tre_tred_catch_up_clipped", 2);
        registry.counter_set("tre_tred_catch_up_replies", 300);
        registry.counter_set("tre_tred_catch_up_shed", 1);
        registry.counter_set("tre_tred_journal_rotations", 4);
        registry.counter_set("tre_tred_journal_replayed_records", 30);
        registry.counter_set("tre_tred_journal_appends", 60);
        registry.counter_set("tre_tred_journal_compacted_records", 10);
        registry.counter_set("tre_tred_archive_lookups", 8);
        registry.counter_set("tre_tred_archive_lookup_probes", 24);
        // Client side: the feed's own request counter must not inflate
        // the daemon row.
        registry.counter_set("tre_client_feed_catch_up_requests", 7);
        registry.counter_set("tre_client_feed_busy_seen", 1);
        registry.counter_set("tre_client_supervisor_catch_up_retries", 3);
        registry.counter_set("tre_client_supervisor_catch_up_resumes", 2);
        registry.counter_set("tre_client_supervisor_busy_sheds_seen", 1);
        registry.counter_set("tre_client_supervisor_reconnects", 5);
        let sources = [Source {
            addr: "test".into(),
            registry: Some(registry),
            ready: Some(true),
            error: None,
        }];
        let frame = render(&sources);
        assert!(
            frame.contains("catch-up: requests 10 (clipped 2)  replies 300  shed 1"),
            "daemon row wrong in:\n{frame}"
        );
        assert!(
            frame.contains("sealed 4 segs / 80 recs"),
            "archive row wrong in:\n{frame}"
        );
        assert!(
            frame.contains("probes/lookup 3.0"),
            "probe average wrong in:\n{frame}"
        );
        assert!(
            frame.contains("clients:  requests 7  busy seen 2  retries 3  resumes 2  reconnects 5"),
            "client row wrong in:\n{frame}"
        );
    }

    /// Renders a registry holding every name `render` can read — each
    /// catalog's fields under every layer prefix — so every lookup runs:
    /// a name missing from its catalog (a renamed field) panics here.
    #[test]
    fn every_name_render_reads_is_declared() {
        let catalogs = [
            TredStats::CATALOG,
            TickerStats::CATALOG,
            JournalStats::CATALOG,
            ArchiveReadStats::CATALOG,
            FeedStats::CATALOG,
            SupervisorStats::CATALOG,
        ];
        let mut registry = Registry::new();
        for catalog in catalogs {
            for layer in ["", "journal_", "archive_", "feed_", "supervisor_"] {
                for (name, _) in catalog {
                    registry.counter_set(&format!("tred_{layer}{name}"), 1);
                }
            }
        }
        let sources = [Source {
            addr: "test".into(),
            registry: Some(registry),
            ready: Some(true),
            error: None,
        }];
        let frame = render(&sources);
        assert!(
            frame.contains("catch-up:"),
            "catch-up rows rendered:\n{frame}"
        );
        assert!(frame.contains("clients:"), "client row rendered:\n{frame}");
    }

    /// The hit ratio folds the root's signing forecasts and every
    /// relay's verifying forecasts into one row.
    #[test]
    fn forecast_row_sums_root_and_relays() {
        let mut registry = Registry::new();
        registry.counter_set("tred_forecast_hits", 95);
        registry.counter_set("tred_forecast_misses", 5);
        registry.counter_set("trerelay_forecast_hits", 98);
        registry.counter_set("trerelay_forecast_misses", 2);
        let sources = [Source {
            addr: "test".into(),
            registry: Some(registry),
            ready: Some(true),
            error: None,
        }];
        let frame = render(&sources);
        assert!(
            frame.contains("forecast: hits 193  misses 7  (96.5% hit)"),
            "forecast row wrong in:\n{frame}"
        );
    }

    #[test]
    fn catch_up_section_absent_when_idle() {
        let mut registry = Registry::new();
        registry.counter_set("tre_tred_broadcasts", 9);
        let sources = [Source {
            addr: "test".into(),
            registry: Some(registry),
            ready: Some(true),
            error: None,
        }];
        assert!(!render(&sources).contains("catch-up:"));
    }
}
