//! `trerelay` — the untrusted fan-out relay daemon.
//!
//! Sits between a root `tred` (or another relay) and downstream
//! subscribers: dials the upstream with a supervised, catch-up-repaired
//! feed, verifies each epoch's key update **once** against the *root*
//! server's public key with the prepared-pairing batch path, and
//! re-serves the verified stream through the same sharded event loop
//! `tred` uses. Because every update is self-authenticating
//! (`e(I_T, G) = e(H1(T), sG)`), the relay adds zero trust: the worst a
//! malicious or broken relay can do is go silent, which downstream
//! supervision handles by failing over and catching up from the
//! archive.
//!
//! ```text
//! trerelay --upstream HOST:PORT --server-key HEX
//!          [--addr 127.0.0.1:7200] [--fallback HOST:PORT]
//!          [--catch-up-from EPOCH] [--shards N]
//!          [--epochs N] [--telemetry HOST:PORT]
//! ```
//!
//! `--server-key` is the root daemon's public key exactly as `tred`
//! prints it on startup (hex, `tre-wire` framed) — the relay refuses to
//! forward anything that does not verify against it. `--fallback` adds
//! alternate upstream addresses the supervisor rotates through when the
//! primary dies (repeatable). `--catch-up-from` backfills the relay's
//! archive from that epoch on cold start, so its own subscribers can
//! request history the relay never saw live. Telemetry trailers are
//! forwarded transparently with the hop counter incremented, so
//! `tretop` attributes latency per tree level.
//!
//! With `--epochs N` the relay exits once it has relayed epoch `N`
//! (the CI smoke-test mode); without it the relay runs until killed.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::exit;
use std::sync::atomic::Ordering;
use std::time::Duration;

use tre_core::ServerPublicKey;
use tre_pairing::toy64;
use tre_server::{feed, Granularity, Relay, RelayConfig, SupervisorConfig, TelemetryServer};
use tre_wire::Wire;

struct Args {
    addr: String,
    upstream: SocketAddr,
    fallbacks: Vec<SocketAddr>,
    server_key: String,
    catch_up_from: Option<u64>,
    shards: usize,
    epochs: Option<u64>,
    telemetry: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: trerelay --upstream HOST:PORT --server-key HEX\n\
         \x20      [--addr HOST:PORT] [--fallback HOST:PORT]...\n\
         \x20      [--catch-up-from EPOCH] [--shards N] [--epochs N] \
         [--telemetry HOST:PORT]"
    );
    exit(2);
}

fn resolve(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| {
            eprintln!("trerelay: cannot resolve {addr}");
            exit(1);
        })
}

fn parse_args() -> Args {
    let mut addr = "127.0.0.1:7200".to_string();
    let mut upstream = None;
    let mut fallbacks = Vec::new();
    let mut server_key = None;
    let mut catch_up_from = None;
    let mut shards = 4usize;
    let mut epochs = None;
    let mut telemetry = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = value(),
            "--upstream" => upstream = Some(resolve(&value())),
            "--fallback" => fallbacks.push(resolve(&value())),
            "--server-key" => server_key = Some(value()),
            "--catch-up-from" => {
                catch_up_from = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--shards" => {
                shards = value().parse().unwrap_or_else(|_| usage());
                if shards == 0 {
                    usage();
                }
            }
            "--epochs" => epochs = Some(value().parse().unwrap_or_else(|_| usage())),
            "--telemetry" => telemetry = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let (Some(upstream), Some(server_key)) = (upstream, server_key) else {
        usage();
    };
    Args {
        addr,
        upstream,
        fallbacks,
        server_key,
        catch_up_from,
        shards,
        epochs,
        telemetry,
    }
}

fn parse_hex(s: &str) -> Vec<u8> {
    if !s.len().is_multiple_of(2) || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        eprintln!("trerelay: --server-key is not a hex string");
        exit(1);
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn main() {
    let args = parse_args();
    let curve = toy64();

    let key_bytes = parse_hex(&args.server_key);
    let root_pk = ServerPublicKey::wire_read(curve, &mut &key_bytes[..]).unwrap_or_else(|e| {
        eprintln!("trerelay: --server-key does not frame a server public key: {e:?}");
        exit(1);
    });

    let mut builder = feed::tcp::<8>(curve, args.upstream);
    for fallback in &args.fallbacks {
        builder = builder.fallback(*fallback);
    }
    let mut supervised = builder.supervised(
        Granularity::Seconds,
        SupervisorConfig::default(),
        0x7265_6c61, // fixed seed for reconnect-backoff jitter
    );
    if let Some(epoch) = args.catch_up_from {
        supervised = supervised.catch_up_from(epoch);
    }
    let upstream = supervised.build();

    let relay = Relay::bind(
        &args.addr,
        curve,
        root_pk,
        upstream,
        RelayConfig {
            shards: args.shards,
            ..RelayConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("trerelay: cannot bind {}: {e}", args.addr);
        exit(1);
    });

    let _telemetry = args.telemetry.as_ref().map(|addr| {
        match TelemetryServer::bind(addr, relay.exporter().snapshot("trerelay")) {
            Ok(server) => {
                println!("trerelay: telemetry on http://{}", server.local_addr());
                server
            }
            Err(e) => {
                eprintln!("trerelay: cannot bind telemetry {addr}: {e}");
                exit(1);
            }
        }
    });

    println!("trerelay: listening on {}", relay.local_addr());
    println!("trerelay: upstream {}", args.upstream);
    println!(
        "trerelay: root public key {}",
        hex(&relay.public_key().wire_bytes(curve))
    );

    loop {
        std::thread::sleep(Duration::from_millis(200));
        if let Some(last) = args.epochs {
            if relay.archive().latest_epoch() >= Some(last) {
                break;
            }
        }
    }

    let stats = relay.stats();
    let serve = relay.serve_stats();
    println!(
        "trerelay: done — {} epochs relayed, {} rejected, {} equivocations, \
         {} duplicates skipped, {} verify batches, {} downstream connections, {} evictions",
        stats.epochs_relayed.load(Ordering::Relaxed),
        stats.updates_rejected.load(Ordering::Relaxed),
        stats.equivocations.load(Ordering::Relaxed),
        stats.duplicates_skipped.load(Ordering::Relaxed),
        stats.verify_batches.load(Ordering::Relaxed),
        serve.connections.load(Ordering::Relaxed),
        serve.evicted.load(Ordering::Relaxed),
    );
    relay.shutdown();
}
