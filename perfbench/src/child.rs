//! The benchmark's child processes and the `run` process's handle on them.
//!
//! * `relay` — one untrusted relay, built exactly as `trerelay` builds
//!   it: [`Relay::bind`] over a supervised [`feed::tcp`] upstream with
//!   cold-start catch-up and default configs. On stdin EOF it shuts
//!   down and reports its counters (and, traced, its own trace stamps).
//! * `recv` — the receivers: at most two subscriber connections, each a
//!   thread doing blocking reads, `tre-wire` decode and [`Receiver`]
//!   verify/open (a live receiver) or closed-loop range replays checked
//!   byte for byte (the catch-up client).
//!
//! Children talk to the `run` process in lines on stdout; every instant they
//! report is on the host clock ([`mono_ns`]).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use tre_core::{KeyUpdate, Receiver, Sender, ServerPublicKey};
use tre_server::{feed, BatchVerifier, Granularity, Relay, RelayConfig, Stage, SupervisorConfig};
use tre_wire::{Wire, TAG_KEY_UPDATE};

use crate::net::{catch_up, decode_update, handshake, Conn, Reference};
use crate::report::{mono_ns, trace_anchor_ns, Spans};
use crate::stats::{live_plaintext, stream_rng};
use crate::{Args, Curve8, CATCH_UP_DEADLINE_NS};

/// A running child process of this binary.
pub struct ChildProc {
    name: String,
    child: std::process::Child,
    stdin: Option<ChildStdin>,
    lines: mpsc::Receiver<String>,
}

impl ChildProc {
    /// Starts `perfbench <role> <args..>`.
    pub fn spawn(role: &str, args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(role)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {role}: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            name: role.to_string(),
            stdin: child.stdin.take(),
            child,
            lines,
        })
    }

    /// Waits for the next line starting with `prefix`; returns the rest.
    pub fn wait_for(&mut self, prefix: &str, timeout: Duration) -> Result<String, String> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return Ok(rest.trim().to_string());
                    }
                }
                Err(_) => return Err(format!("{} never said {prefix:?}", self.name)),
            }
        }
    }

    /// Closes the child's stdin (its stop signal), collects its report
    /// up to the `done` line, and waits for it to exit.
    pub fn finish(mut self, timeout: Duration) -> Result<Vec<String>, String> {
        drop(self.stdin.take());
        let deadline = std::time::Instant::now() + timeout;
        let mut out = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if line == "done" => break,
                Ok(line) => out.push(line),
                Err(_) => return Err(format!("{} did not report", self.name)),
            }
        }
        while std::time::Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(out),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Err(format!("{} did not exit", self.name))
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Hex of a server key's wire frame, for a child's command line.
pub fn key_hex(curve: Curve8, pk: &ServerPublicKey<8>) -> String {
    pk.wire_bytes(curve)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn parse_key(curve: Curve8, hex: &str) -> Result<ServerPublicKey<8>, String> {
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(hex.get(i..i + 2).unwrap_or("zz"), 16))
        .collect::<Result<_, _>>()
        .map_err(|_| "server key is not hex".to_string())?;
    ServerPublicKey::wire_read(curve, &mut bytes.as_slice())
        .map_err(|e| format!("server key: {e:?}"))
}

/// Sets `stop` once the parent closes this process's stdin.
fn watch_stdin(stop: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
        stop.store(true, Ordering::SeqCst);
    });
}

/// `perfbench relay --upstream ADDR --server-key HEX --seed N [--trace]`
pub fn relay_main(curve: Curve8, args: &Args) -> Result<(), String> {
    let upstream: SocketAddr = args
        .get("upstream")?
        .parse()
        .map_err(|_| "bad --upstream")?;
    let pk = parse_key(curve, args.get("server-key")?)?;
    let seed: u64 = args.num("seed")?;
    let feed = feed::tcp::<8>(curve, upstream)
        .supervised(Granularity::Seconds, SupervisorConfig::default(), seed)
        .catch_up_from(0)
        .build();
    let relay = Relay::bind("127.0.0.1:0", curve, pk, feed, RelayConfig::default())
        .map_err(|e| format!("relay bind: {e}"))?;
    let stats = relay.stats();
    let deadline = mono_ns() + 30_000_000_000;
    while stats.epochs_relayed.load(Ordering::Relaxed) == 0 {
        if mono_ns() > deadline {
            return Err("relay never relayed epoch 0".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("ready {}", relay.local_addr());
    let stop = Arc::new(AtomicBool::new(false));
    watch_stdin(Arc::clone(&stop));
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
    }

    let serve = relay.serve_stats();
    let archive = relay.archive();
    let sink = relay.trace_sink();
    relay.shutdown();

    let mut out = String::new();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::SeqCst);
    for (name, value) in [
        ("epochs_relayed", load(&stats.epochs_relayed)),
        ("verify_batches", load(&stats.verify_batches)),
        ("updates_rejected", load(&stats.updates_rejected)),
        ("frames_offered", load(&serve.frames_offered)),
        ("frames_written", load(&serve.frames_written)),
        ("frames_abandoned", load(&serve.frames_abandoned)),
        ("frames_dropped", load(&serve.frames_dropped)),
        ("evicted", load(&serve.evicted)),
        ("catch_up_requests", load(&serve.catch_up_requests)),
        ("catch_up_replies", load(&serve.catch_up_replies)),
        ("catch_up_shed", load(&serve.catch_up_shed)),
    ] {
        let _ = writeln!(out, "stat {name} {value}");
    }
    if args.flag("trace") {
        let anchor = trace_anchor_ns();
        let idx = |s: Stage| Stage::ALL.iter().position(|x| *x == s).unwrap();
        for epoch in sink.epochs() {
            let Some(t) = sink.epoch_trace(epoch) else {
                continue;
            };
            if let (Some(fb), Some(bc)) = (
                t.stamps[idx(Stage::FirstByte)],
                t.stamps[idx(Stage::Broadcast)],
            ) {
                let _ = writeln!(out, "first_byte {epoch} {}", fb + anchor);
                if bc >= fb {
                    let _ = writeln!(out, "dwell {epoch} {}", bc - fb);
                }
            }
        }
        // The relay's per-epoch verify, timed from outside on updates it
        // relayed: the same public call its pump makes for a one-epoch
        // burst.
        let verifier = BatchVerifier::new(curve, pk);
        let latest = archive.latest_epoch().unwrap_or(0);
        for (_, update) in archive.range(1, latest).into_iter().take(16) {
            let t0 = mono_ns();
            let verdict = verifier.verify(std::slice::from_ref(&update));
            let dt = mono_ns() - t0;
            let _ = writeln!(out, "verify {dt} {}", u8::from(verdict.all_valid()));
        }
    }
    out.push_str("done\n");
    print!("{out}");
    std::io::stdout().flush().map_err(|e| e.to_string())
}

/// One live receiver's outcome.
#[derive(Default)]
struct LiveOutcome {
    /// `(epoch, read_ns, done_ns, plaintext ok)` per epoch received.
    epochs: Vec<(u64, u64, u64, bool)>,
    /// Closed-loop per-call times (and, for opens, plaintext ok).
    seal_ns: Vec<u64>,
    open_ns: Vec<(u64, bool)>,
    catch_ups: Vec<(u64, bool)>,
    failures: Vec<String>,
    spans: Spans,
    /// The receiver and its sealer, handed back for the closed loop.
    session: Option<(Receiver<'static, 8>, Sealer)>,
}

/// Epochs a live receiver has sealed ahead of the newest one it opened.
/// Set-up seals the first `SEAL_LEAD`; after each open the receiver
/// seals the message for the epoch `SEAL_LEAD` ahead, as a client that
/// seals its next message after reading one.
const SEAL_LEAD: usize = 4;

/// Epochs a post-live replay fetches: the newest of the round. At
/// `--seconds 30` a round's 3 s window holds at least 20 epochs (gaps are
/// at most 150 ms); a shorter round replays all it has.
const POST_REPLAY_EPOCHS: usize = 16;

/// Back-to-back seal-then-open pairs each live receiver times once its
/// round is over (`seal_per_s`, `open_per_s`).
const CLOSED_LOOP_CALLS: usize = 32;

/// A live receiver's own sender: seals epoch `first + i` to itself
/// (seeded plaintexts).
struct Sealer {
    sender: Sender<'static, 8>,
    rng: rand::rngs::StdRng,
    seed: u64,
    conn: usize,
    first: u64,
    cts: Vec<Option<tre_core::tre::Ciphertext<8>>>,
    sealed: usize,
}

impl Sealer {
    /// The receiver for live connection `conn` (its own key pair) and its
    /// sealer over `first..=last`, with the first [`SEAL_LEAD`] sealed.
    fn new(
        curve: Curve8,
        pk: &ServerPublicKey<8>,
        seed: u64,
        conn: usize,
        first: u64,
        last: u64,
    ) -> (Receiver<'static, 8>, Self) {
        let mut rng = stream_rng(seed, "receiver", conn);
        let recv = Receiver::generate(curve, *pk, &mut rng);
        let sender = Sender::new(curve, pk, recv.public_key()).expect("own key validates");
        let n = (last - first + 1) as usize;
        let mut sealer = Self {
            sender,
            rng,
            seed,
            conn,
            first,
            cts: vec![None; n],
            sealed: 0,
        };
        sealer.seal_through(SEAL_LEAD - 1);
        (recv, sealer)
    }

    /// Seals, in epoch order, every message up to index `i`.
    fn seal_through(&mut self, i: usize) {
        let end = (i + 1).min(self.cts.len());
        for k in self.sealed..end {
            let epoch = self.first + k as u64;
            let pt = live_plaintext(self.seed, self.conn, epoch);
            let tag = Granularity::Seconds.tag_for_epoch(epoch);
            let ct = {
                let _span = tre_obs::span("core.seal");
                self.sender.encrypt(&tag, &pt, &mut self.rng)
            };
            self.cts[k] = Some(ct);
        }
        self.sealed = self.sealed.max(end);
    }

    /// Single-thread closed loop on a quiet host: seals a fresh message
    /// to each live epoch in turn (consecutive tags differ, so every seal
    /// misses the tag memo, as live seals do) and opens it at once with
    /// the epoch's `I_T`, which `recv` verified live. Times every call
    /// and checks every plaintext.
    fn closed_loop(&mut self, recv: &Receiver<'static, 8>, out: &mut LiveOutcome) {
        let n = self.cts.len() as u64;
        for k in 0..CLOSED_LOOP_CALLS as u64 {
            let epoch = self.first + k % n;
            let pt = live_plaintext(self.seed ^ (k + 1), self.conn, epoch);
            let tag = Granularity::Seconds.tag_for_epoch(epoch);
            let t0 = mono_ns();
            let ct = self.sender.encrypt(&tag, &pt, &mut self.rng);
            let t1 = mono_ns();
            let opened = recv.open(&ct);
            let t2 = mono_ns();
            out.seal_ns.push(t1 - t0);
            out.open_ns
                .push((t2 - t1, opened.is_ok_and(|got| got == pt)));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn live_conn(
    curve: Curve8,
    addr: SocketAddr,
    conn_idx: usize,
    seed: u64,
    (first, last): (u64, u64),
    mut recv: Receiver<'static, 8>,
    mut sealer: Sealer,
    (post_catch_ups, replay_turn): (usize, &std::sync::Mutex<()>),
    trace: bool,
    ready: mpsc::Sender<Result<(), String>>,
    stop: Arc<AtomicBool>,
) -> LiveOutcome {
    let mut out = LiveOutcome::default();
    let mut conn =
        match Conn::connect(curve, addr).and_then(|mut c| handshake(curve, &mut c, 0).map(|_| c)) {
            Ok(c) => c,
            Err(e) => {
                let _ = ready.send(Err(format!("live receiver {conn_idx}: {e}")));
                return out;
            }
        };
    let _ = ready.send(Ok(()));
    if trace {
        tre_obs::enable();
    }
    let n = (last - first + 1) as usize;
    let mut bodies: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut remaining = n;
    while remaining > 0 && !stop.load(Ordering::SeqCst) {
        let frame = match conn.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => continue,
            Err(e) => {
                out.failures
                    .push(format!("live receiver {conn_idx} read: {e}"));
                break;
            }
        };
        if frame.tag != TAG_KEY_UPDATE {
            continue;
        }
        let decoded = {
            let _span = tre_obs::span("wire.decode");
            decode_update(curve, &frame.body)
        };
        let Some((epoch, update)) = decoded else {
            out.failures
                .push(format!("live receiver {conn_idx}: undecodable update"));
            continue;
        };
        if epoch < first || epoch > last || bodies[(epoch - first) as usize].is_some() {
            continue;
        }
        let i = (epoch - first) as usize;
        // Normally sealed ahead; only an epoch that overtook the lead
        // is sealed here, inside its own release time.
        sealer.seal_through(i);
        let ct = sealer.cts[i].as_ref().expect("sealed through i");
        let verified = {
            let _span = tre_obs::span("core.verify");
            recv.observe_update(update)
        };
        let ok = match verified {
            Ok(_) => {
                let _span = tre_obs::span("core.open");
                recv.open(ct)
                    .is_ok_and(|pt| pt == live_plaintext(seed, conn_idx, epoch))
            }
            Err(_) => false,
        };
        let done = mono_ns();
        out.epochs.push((epoch, frame.read_ns, done, ok));
        bodies[i] = Some(frame.body);
        remaining -= 1;
        sealer.seal_through(i + SEAL_LEAD);
    }
    println!("live_done {conn_idx}");
    if trace {
        out.spans.absorb_trace(&tre_obs::finish());
    }
    if post_catch_ups > 0 {
        // A reconnecting receiver's replay of the round from its own
        // daemon, checked against the bodies it verified live.
        match bodies.into_iter().collect::<Option<Vec<_>>>() {
            Some(mut bodies) => {
                // The newest few epochs, so every replay is the same size
                // whatever the seeded schedule fitted into the round.
                let skip = bodies.len().saturating_sub(POST_REPLAY_EPOCHS);
                let reference = Reference::new(first + skip as u64, bodies.split_off(skip));
                for _ in 0..post_catch_ups {
                    let _turn = replay_turn.lock().unwrap_or_else(|e| e.into_inner());
                    match catch_up(curve, &mut conn, &reference, CATCH_UP_DEADLINE_NS) {
                        Ok(c) => out.catch_ups.push((c.ns, c.ok)),
                        Err(e) => {
                            out.failures.push(format!("catch-up {conn_idx}: {e}"));
                            break;
                        }
                    }
                }
            }
            None => out.failures.push(format!(
                "live receiver {conn_idx}: missed epochs, no replay reference"
            )),
        }
    }
    if remaining == 0 {
        out.session = Some((recv, sealer));
    }
    out
}

fn replay_conn(
    curve: Curve8,
    addr: SocketAddr,
    pk: ServerPublicKey<8>,
    (from, to): (u64, u64),
    ready: mpsc::Sender<Result<(), String>>,
    stop: Arc<AtomicBool>,
) -> LiveOutcome {
    let mut out = LiveOutcome::default();
    let setup = || -> Result<(Conn, Reference), String> {
        let mut conn = Conn::connect(curve, addr).map_err(|e| e.to_string())?;
        handshake(curve, &mut conn, 0).map_err(|e| e.to_string())?;
        // The reference: fetch the range once, decode it, BLS-verify it.
        conn.request(curve, from, to).map_err(|e| e.to_string())?;
        let n = (to - from + 1) as usize;
        let mut got: Vec<Option<(KeyUpdate<8>, Vec<u8>)>> = vec![None; n];
        let mut missing = n;
        let deadline = mono_ns() + 30_000_000_000;
        while missing > 0 {
            if mono_ns() > deadline {
                return Err("reference fetch timed out".into());
            }
            let Some(f) = conn.next_frame().map_err(|e| e.to_string())? else {
                continue;
            };
            if f.tag != TAG_KEY_UPDATE {
                continue;
            }
            if let Some((epoch, update)) = decode_update(curve, &f.body) {
                if (from..=to).contains(&epoch) && got[(epoch - from) as usize].is_none() {
                    got[(epoch - from) as usize] = Some((update, f.body));
                    missing -= 1;
                }
            }
        }
        let (updates, bodies): (Vec<_>, Vec<_>) = got.into_iter().map(Option::unwrap).unzip();
        if !BatchVerifier::new(curve, pk).verify(&updates).all_valid() {
            return Err("reference history fails verification".into());
        }
        Ok((conn, Reference::new(from, bodies)))
    };
    let (mut conn, reference) = match setup() {
        Ok(ok) => ok,
        Err(e) => {
            let _ = ready.send(Err(format!("catch-up client: {e}")));
            return out;
        }
    };
    let _ = ready.send(Ok(()));
    while !stop.load(Ordering::SeqCst) {
        match catch_up(curve, &mut conn, &reference, CATCH_UP_DEADLINE_NS) {
            Ok(c) => out.catch_ups.push((c.ns, c.ok)),
            Err(e) => {
                out.failures.push(format!("catch-up client: {e}"));
                break;
            }
        }
    }
    out
}

/// `perfbench recv --server-key HEX --seed N --first E --last E
/// [--live ADDR]... [--post-catch-ups K] [--replay ADDR --replay-from A
/// --replay-to B] [--trace]`
pub fn recv_main(curve: Curve8, args: &Args) -> Result<(), String> {
    let pk = parse_key(curve, args.get("server-key")?)?;
    let seed: u64 = args.num("seed")?;
    let first: u64 = args.num("first")?;
    let last: u64 = args.num("last")?;
    let post: usize = args.num_or("post-catch-ups", 0)?;
    let trace = args.flag("trace");
    let stop = Arc::new(AtomicBool::new(false));
    watch_stdin(Arc::clone(&stop));

    let mut report = String::new();
    let (ready_tx, ready_rx) = mpsc::channel();
    // Post-live replays take turns, so each one runs against a quiet
    // host rather than racing the other receiver's replay for the cores.
    let replay_turn = Arc::new(std::sync::Mutex::new(()));
    let mut handles = Vec::new();
    for (i, addr) in args.all("live").iter().enumerate() {
        let addr: SocketAddr = addr.parse().map_err(|_| "bad --live")?;
        if trace {
            tre_obs::enable();
        }
        let (recv, sealer) = Sealer::new(curve, &pk, seed, i, first, last);
        if trace {
            let mut spans = Spans::default();
            spans.absorb_trace(&tre_obs::finish());
            spans.to_lines(&mut report);
        }
        let (ready, stop) = (ready_tx.clone(), Arc::clone(&stop));
        let replay_turn = Arc::clone(&replay_turn);
        handles.push(std::thread::spawn(move || {
            let post = (post, replay_turn.as_ref());
            live_conn(
                curve,
                addr,
                i,
                seed,
                (first, last),
                recv,
                sealer,
                post,
                trace,
                ready,
                stop,
            )
        }));
    }
    if let Ok(addr) = args.get("replay") {
        let addr: SocketAddr = addr.parse().map_err(|_| "bad --replay")?;
        let range = (args.num("replay-from")?, args.num("replay-to")?);
        let (ready, stop) = (ready_tx.clone(), Arc::clone(&stop));
        handles.push(std::thread::spawn(move || {
            replay_conn(curve, addr, pk, range, ready, stop)
        }));
    }
    drop(ready_tx);
    for r in ready_rx.iter().take(handles.len()) {
        r?;
    }
    println!("ready");

    let mut outs = Vec::new();
    for h in handles {
        outs.push(h.join().map_err(|_| "receiver thread panicked")?);
    }
    // Every connection is done, so the closed loops run on a quiet host.
    for out in &mut outs {
        if let Some((recv, mut sealer)) = out.session.take() {
            sealer.closed_loop(&recv, out);
        }
    }
    for (conn, out) in outs.iter().enumerate() {
        for (epoch, read_ns, done_ns, ok) in &out.epochs {
            let _ = writeln!(
                report,
                "rel {conn} {epoch} {read_ns} {done_ns} {}",
                u8::from(*ok)
            );
        }
        for (ns, ok) in &out.open_ns {
            let _ = writeln!(report, "open {ns} {}", u8::from(*ok));
        }
        for ns in &out.seal_ns {
            let _ = writeln!(report, "seal {ns}");
        }
        for (ns, ok) in &out.catch_ups {
            let _ = writeln!(report, "cu {ns} {}", u8::from(*ok));
        }
        for f in &out.failures {
            let _ = writeln!(report, "fail {f}");
        }
        out.spans.to_lines(&mut report);
    }
    report.push_str("done\n");
    print!("{report}");
    std::io::stdout().flush().map_err(|e| e.to_string())
}
