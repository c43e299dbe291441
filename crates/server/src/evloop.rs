//! The sharded readiness-polling event loop behind [`crate::Tred`] and
//! [`crate::Relay`].
//!
//! The first daemon iteration spent two OS threads per subscriber (a
//! blocking writer draining a bounded queue, a blocking reader answering
//! control frames), which caps a process at a few thousand sockets long
//! before the broadcast path itself is the bottleneck. This module
//! replaces that with a fixed thread budget: **N shard threads**, each
//! owning a disjoint set of nonblocking sockets it multiplexes with
//! `poll(2)` (a thin `extern "C"` shim, like the rest of the stack —
//! no external event-loop crate), plus one accept thread that
//! round-robins new connections across shards. Thread count is
//! `O(shards)`, never `O(subscribers)`, so one daemon holds 100k+
//! sockets.
//!
//! Per socket the shard keeps a bounded queue of already-encoded frames
//! (`Arc<Vec<u8>>`, shared across every subscriber — each broadcast is
//! encoded once) and a partial-write offset. The slow-subscriber policy
//! and the [`TredStats`] delivery-conservation accounting are preserved
//! exactly from the thread-per-subscriber design:
//!
//! * every **offer** of a frame to a socket resolves into exactly one of
//!   `frames_enqueued`, `evicted` (broadcast found the queue full:
//!   the subscriber is too slow and its socket is dropped), or
//!   `frames_dropped` (socket already closed, or a catch-up reply
//!   overflowed — catch-up never evicts);
//! * every **enqueued** frame resolves into `frames_written` (fully
//!   flushed to the socket) or `frames_abandoned` (still queued when the
//!   connection died or the daemon shut down).
//!
//! Inbound bytes are parsed incrementally in the owning shard —
//! [`Hello`] version checks and [`CatchUpRequest`] archive replays run
//! inline, and replies ride the same bounded queue as live broadcasts,
//! so replayed history competes fairly with fresh updates.
//!
//! A shard never wakes on a timer. Besides its sockets it polls a
//! [`Waker`] — the read end of a nonblocking socket pair at
//! `pollfds[0]` — with no timeout. Whoever hands a shard work (a
//! broadcast, the accept thread) sends its [`Cmd`] first and then
//! writes one byte to the waker, as shutdown does after setting its
//! flag, so `poll(2)` returns as soon as there is work or a ready
//! socket. A poll return that finds neither counts in
//! [`TredStats::idle_wakeups`]. Platforms without `poll(2)` keep a 1 ms
//! busy-poll fallback.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use tre_core::KeyUpdate;
use tre_obs::{Metric, Registry};
use tre_pairing::Curve;
use tre_wire::{
    frame_raw_body, peek_frame, Busy, CatchUpRequest, CommitteeHello, Hello, KeyUpdateShare,
    Telemetry, Wire, HEADER_LEN, TAG_KEY_UPDATE, TAG_KEY_UPDATE_SHARE,
};

use crate::archive::UpdateArchive;
use crate::clock::Granularity;
use crate::tcp::{CatchUpConfig, TredStats};
use crate::telemetry::TraceSink;

/// The `poll(2)` shim: readiness multiplexing over raw fds with no
/// dependency beyond the platform libc already linked by `std`.
#[cfg(unix)]
pub(crate) mod sys {
    /// Mirrors `struct pollfd` (POSIX guarantees this layout).
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
    }

    /// The fd to register for a socket.
    pub fn fd_of(socket: &impl std::os::unix::io::AsRawFd) -> i32 {
        socket.as_raw_fd()
    }

    /// Waits until a registered fd is ready or `timeout_ms` elapses.
    /// Returns the number of ready fds (0 on timeout, <0 on EINTR-style
    /// errors — callers just re-poll).
    pub fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        if fds.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(timeout_ms.max(0) as u64));
            return 0;
        }
        unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as core::ffi::c_ulong,
                timeout_ms,
            )
        }
    }
}

/// Portable fallback: no readiness facility, so report every socket as
/// ready each round and let the nonblocking reads/writes sort it out
/// (`WouldBlock` is handled on every path). Costs a 1 ms busy-poll;
/// correctness is identical.
#[cfg(not(unix))]
pub(crate) mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// No fds to register: every entry is reported ready anyway.
    pub fn fd_of<T>(_socket: &T) -> i32 {
        0
    }

    pub fn poll_wait(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // Never longer than 1 ms: nothing can interrupt this sleep, so
        // it must not outlast a wake.
        let ms = if timeout_ms == 0 { 0 } else { 1 };
        std::thread::sleep(std::time::Duration::from_millis(ms));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        fds.len() as i32
    }
}

/// Converts an optional wait into a `poll(2)` timeout: `-1` (block
/// until an fd is ready) for `None`, else whole milliseconds rounded
/// *up*, so a caller waiting for a deadline never wakes just before it
/// and spins.
pub(crate) fn poll_timeout_ms(timeout: Option<std::time::Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_nanos().div_ceil(1_000_000);
            i32::try_from(ms).unwrap_or(i32::MAX)
        }
    }
}

/// A wake fd: one end of a nonblocking socket pair that another thread
/// writes a byte to, so a thread blocked in `poll(2)` on the other end
/// wakes up. Shards and the relay's upstream pump poll it next to their
/// sockets instead of sleeping on a timer.
#[cfg(unix)]
#[derive(Debug)]
pub(crate) struct Waker {
    rx: std::os::unix::net::UnixStream,
    tx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl Waker {
    pub fn new() -> std::io::Result<Self> {
        let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Self { rx, tx })
    }

    /// Makes the next (or current) poll on [`Waker::fd`] return. A full
    /// buffer (`WouldBlock`) is ignored: unread bytes already guarantee
    /// the wakeup.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake byte. Call only after the poll
    /// returned for it and *before* re-checking the state the wakers
    /// publish, so a wake that lands after the drain stays pending.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// The pollable read end.
    pub fn fd(&self) -> i32 {
        sys::fd_of(&self.rx)
    }
}

/// Without `poll(2)` every wait is a 1 ms busy-poll that re-checks its
/// state anyway, so waking is a no-op.
#[cfg(not(unix))]
#[derive(Debug)]
pub(crate) struct Waker;

#[cfg(not(unix))]
impl Waker {
    pub fn new() -> std::io::Result<Self> {
        Ok(Self)
    }

    pub fn wake(&self) {}

    pub fn drain(&self) {}

    pub fn fd(&self) -> i32 {
        0
    }
}

/// Applies a kernel send-buffer cap (`SO_SNDBUF`) to an accepted
/// socket. Best effort: a failed setsockopt leaves the OS default in
/// place. Without a cap the kernel autotunes the buffer into the
/// megabytes, so a stalled subscriber can absorb minutes of broadcasts
/// before the bounded queue ever fills and evicts it.
#[cfg(target_os = "linux")]
pub(crate) fn cap_send_buffer(stream: &TcpStream, bytes: u32) {
    use std::os::unix::io::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    let val = bytes as i32;
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_SNDBUF,
            (&val as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn cap_send_buffer(_stream: &TcpStream, _bytes: u32) {}

/// State shared by the accept thread, every shard, and the daemon
/// front-end (`Tred` ticker or `Relay` upstream pump).
pub(crate) struct ServeShared<const L: usize> {
    pub curve: &'static Curve<L>,
    /// The archive catch-up requests are served from.
    pub archive: Arc<UpdateArchive<L>>,
    pub stats: Arc<TredStats>,
    pub shutdown: AtomicBool,
    /// Outbound frames buffered per subscriber before eviction.
    pub queue_capacity: usize,
    pub send_buffer: Option<u32>,
    /// `Some(i)`: committee mode — frames every update as a
    /// [`KeyUpdateShare`] and greets subscribers with [`CommitteeHello`].
    pub member: Option<u32>,
    /// The epoch schedule, for deriving an update's epoch when stamping
    /// its telemetry trailer.
    pub granularity: Granularity,
    /// `Some`: every outbound update carries a [`Telemetry`] trailer.
    pub trace: Option<TraceSink>,
    /// `true` on a relay: the trailer's `origin` is forwarded from the
    /// upstream trace (the root daemon's identity) instead of being
    /// this process's own member index — relays are transparent.
    pub forward_origin: bool,
    /// Admission control for archive catch-up service.
    pub catch_up: CatchUpConfig,
    /// Catch-up replays currently in flight across every shard; bounded
    /// by [`CatchUpConfig::max_concurrent`] at admission.
    pub active_catch_ups: AtomicUsize,
    /// Live subscriber connections across every shard (post-eviction).
    pub subscribers: AtomicUsize,
}

impl<const L: usize> ServeShared<L> {
    /// Exports the daemon counters and their in-flight balance under
    /// `stats_prefix`; the subscriber gauge, the durable archive's
    /// journal (`_journal_*`) and read (`_archive_*`) counters, and the
    /// trace sink (`_trace_*`) under `prefix`.
    pub fn export_into(&self, registry: &mut Registry, prefix: &str, stats_prefix: &str) {
        self.stats.export_into(registry, stats_prefix);
        let help = "Frame offers not yet written, abandoned, evicted or dropped.";
        (self.stats.in_flight() as i64).export(registry, stats_prefix, "frames_in_flight", help);
        let live = self.subscribers.load(Ordering::Relaxed) as i64;
        live.export(registry, prefix, "subscribers", "Connected subscribers.");
        if let Some(journal) = self.archive.journal_stats() {
            journal.export_into(registry, &format!("{prefix}_journal"));
        }
        if let Some(reads) = self.archive.read_stats() {
            reads.export_into(registry, &format!("{prefix}_archive"));
        }
        if let Some(sink) = &self.trace {
            sink.export_into(registry, &format!("{prefix}_trace"));
        }
    }
}

/// Encodes one update as this daemon's broadcast frame: a bare
/// [`KeyUpdate`] normally, a member-tagged [`KeyUpdateShare`] in
/// committee mode. With tracing enabled, a [`Telemetry`] trailer frame
/// is appended in the same buffer — epoch, origin, the origin's publish
/// stamp, and `hops` (how many process boundaries the update has
/// crossed; bumped per relay level and on catch-up replay) — v1 peers
/// skip the unknown tag.
pub(crate) fn encode_update_frame<const L: usize>(
    shared: &ServeShared<L>,
    update: &KeyUpdate<L>,
    hops: u8,
) -> Arc<Vec<u8>> {
    let mut bytes = match shared.member {
        Some(member) => KeyUpdateShare {
            member,
            update: update.clone(),
        }
        .wire_bytes(shared.curve),
        None => update.wire_bytes(shared.curve),
    };
    if shared.trace.is_some() {
        if let Some(epoch) = shared.granularity.epoch_of_tag(update.tag()) {
            append_telemetry_trailer(shared, epoch, hops, &mut bytes);
        }
    }
    Arc::new(bytes)
}

/// [`encode_update_frame`] for an *already-encoded* canonical update
/// body (as the journal and archive segments store it): the body is
/// framed verbatim — committee mode prepends the member index, which is
/// all [`KeyUpdateShare`] adds on the wire — so replaying a stored
/// update costs zero curve arithmetic. Decoding each body just to
/// re-serialize it put two field sqrts (point decompressions) on the
/// shard thread per replayed record, which at archive depth starved the
/// write path for hundreds of milliseconds per admitted catch-up.
fn encode_update_frame_raw<const L: usize>(
    shared: &ServeShared<L>,
    epoch: u64,
    body: &[u8],
    hops: u8,
) -> Arc<Vec<u8>> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + body.len() + 4);
    match shared.member {
        Some(member) => {
            let mut share = Vec::with_capacity(4 + body.len());
            share.extend_from_slice(&member.to_be_bytes());
            share.extend_from_slice(body);
            frame_raw_body(TAG_KEY_UPDATE_SHARE, &share, &mut bytes);
        }
        None => frame_raw_body(TAG_KEY_UPDATE, body, &mut bytes),
    }
    if shared.trace.is_some() {
        append_telemetry_trailer(shared, epoch, hops, &mut bytes);
    }
    Arc::new(bytes)
}

/// Appends the [`Telemetry`] trailer frame for `epoch` and counts the
/// emission; callers have already checked a trace sink is attached.
fn append_telemetry_trailer<const L: usize>(
    shared: &ServeShared<L>,
    epoch: u64,
    hops: u8,
    bytes: &mut Vec<u8>,
) {
    let Some(sink) = &shared.trace else { return };
    let origin = if shared.forward_origin {
        sink.epoch_trace(epoch).map(|t| t.origin).unwrap_or(0)
    } else {
        shared.member.unwrap_or(0)
    };
    let trailer = Telemetry {
        epoch,
        origin,
        publish_ns: sink.publish_ns(epoch).unwrap_or(0),
        hops,
    };
    <Telemetry as Wire<L>>::wire_write(&trailer, shared.curve, bytes);
    sink.count_emitted();
}

/// A replayed update has crossed one more process boundary than this
/// daemon's live broadcast of the same epoch: the trailer hop count is
/// whatever the daemon last stamped for the epoch, plus one. A root
/// `tred` stamps live epochs at hop 0 so replays are hop 1; a relay one
/// level down stamps live at 1 and replays at 2, and so on.
fn replay_hops<const L: usize>(shared: &ServeShared<L>, epoch: u64) -> u8 {
    let base = shared
        .trace
        .as_ref()
        .and_then(|sink| sink.epoch_trace(epoch))
        .map(|t| t.hops)
        .unwrap_or(0);
    base.saturating_add(1)
}

/// One socket's outbound side: the bounded frame queue, the partial
/// write offset into its front frame, and the closed flag the sweep
/// phase acts on. Separated from the socket so the eviction policy and
/// its conservation accounting are unit-testable without fds.
pub(crate) struct WriteQueue {
    pub queue: VecDeque<Arc<Vec<u8>>>,
    /// Bytes of `queue.front()` already written to the socket.
    pub woff: usize,
    pub closed: bool,
}

impl WriteQueue {
    pub fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            woff: 0,
            closed: false,
        }
    }
}

/// Offers one broadcast frame to a subscriber's queue. Every offer
/// resolves into exactly one of enqueued / evicted / dropped, keeping
/// the conservation identity (see [`TredStats::in_flight`])
/// non-negative. A full queue at broadcast time means the subscriber is
/// too slow: it is evicted (closed) rather than allowed to stall or
/// skew the broadcast.
pub(crate) fn offer_broadcast(
    wq: &mut WriteQueue,
    capacity: usize,
    frame: &Arc<Vec<u8>>,
    stats: &TredStats,
) {
    stats.frames_offered.fetch_add(1, Ordering::Relaxed);
    if wq.closed {
        stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if wq.queue.len() >= capacity {
        stats.evicted.fetch_add(1, Ordering::Relaxed);
        wq.closed = true;
        tre_obs::event("tred.evicted", "slow subscriber");
        return;
    }
    stats.frames_enqueued.fetch_add(1, Ordering::Relaxed);
    wq.queue.push_back(Arc::clone(frame));
}

/// Enqueues one frame outside the broadcast path (committee greeting,
/// catch-up replies) with the same offer/resolution accounting. Unlike
/// a broadcast offer this never evicts: a subscriber whose queue cannot
/// absorb its own catch-up response simply stops receiving the replay
/// (and will be evicted by the next broadcast if it stays stalled).
pub(crate) fn enqueue_direct(
    wq: &mut WriteQueue,
    capacity: usize,
    frame: Arc<Vec<u8>>,
    stats: &TredStats,
) -> bool {
    stats.frames_offered.fetch_add(1, Ordering::Relaxed);
    if wq.closed || wq.queue.len() >= capacity {
        stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    stats.frames_enqueued.fetch_add(1, Ordering::Relaxed);
    wq.queue.push_back(frame);
    true
}

/// Resolves every frame still queued on a dying connection as
/// abandoned, closing the conservation identity.
fn abandon_queue(wq: &mut WriteQueue, stats: &TredStats) {
    if !wq.queue.is_empty() {
        stats
            .frames_abandoned
            .fetch_add(wq.queue.len() as u64, Ordering::Relaxed);
        wq.queue.clear();
    }
    wq.woff = 0;
    wq.closed = true;
}

/// An admitted catch-up replay in progress: the next epoch to stream
/// and the (clipped) end of the requested range. The job advances
/// chunk-by-chunk as the connection's bounded write queue has room, so
/// a deep range never materialises at once and never starves live
/// broadcasts sharing the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CatchUpJob {
    pub next: u64,
    pub to: u64,
}

/// One registered subscriber connection, owned by exactly one shard.
struct Conn {
    stream: TcpStream,
    /// Buffered-but-unparsed inbound bytes.
    rbuf: Vec<u8>,
    wq: WriteQueue,
    /// The admitted catch-up replay this connection is draining, if any.
    catch_up: Option<CatchUpJob>,
}

/// Releases a connection's admission slot when its replay ends (range
/// complete, connection dying, or the request superseded).
fn finish_catch_up<const L: usize>(shared: &ServeShared<L>, slot: &mut Option<CatchUpJob>) {
    if slot.take().is_some() {
        shared.active_catch_ups.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Work handed to a shard: a new connection from the accept thread, or
/// one already-encoded broadcast frame to offer to every socket.
pub(crate) enum Cmd {
    Accept(TcpStream),
    Frame(Arc<Vec<u8>>),
}

/// The sending side of one shard: its command channel plus its wake
/// fd. Every command is followed by a wake byte.
#[derive(Clone)]
struct ShardTx {
    tx: Sender<Cmd>,
    waker: Arc<Waker>,
}

impl ShardTx {
    fn send(&self, cmd: Cmd) {
        let _ = self.tx.send(cmd);
        self.waker.wake();
    }
}

/// A clonable front-end for pushing broadcasts into the shards; the
/// ticker (or a relay's upstream pump) owns one while the
/// [`Broadcaster`] itself stays with the daemon handle for shutdown.
pub(crate) struct BroadcastHandle<const L: usize> {
    shards: Vec<ShardTx>,
    shared: Arc<ServeShared<L>>,
}

impl<const L: usize> Clone for BroadcastHandle<L> {
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<const L: usize> BroadcastHandle<L> {
    /// Encodes `update` once and offers the frame to every shard (and
    /// thus every subscriber queue). `hops` is stamped into the
    /// telemetry trailer when tracing is on.
    pub fn broadcast(&self, update: &KeyUpdate<L>, hops: u8) {
        let frame = encode_update_frame(&self.shared, update, hops);
        self.shared.stats.broadcasts.fetch_add(1, Ordering::Relaxed);
        for shard in &self.shards {
            shard.send(Cmd::Frame(Arc::clone(&frame)));
        }
    }
}

/// The bound listener plus its shard threads: the downstream serving
/// core both `Tred` and `Relay` broadcast through.
pub(crate) struct Broadcaster<const L: usize> {
    addr: SocketAddr,
    shards: Vec<ShardTx>,
    shared: Arc<ServeShared<L>>,
    shard_handles: Vec<JoinHandle<()>>,
    accept_handle: Option<JoinHandle<()>>,
}

impl<const L: usize> Broadcaster<L> {
    /// Binds `addr` and starts `shard_count` shard threads plus the
    /// accept thread (total threads: `shard_count + 1`, independent of
    /// the subscriber count).
    pub fn bind(
        addr: &str,
        shared: Arc<ServeShared<L>>,
        shard_count: usize,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shard_count = shard_count.max(1);
        // Every fallible step happens before the first thread starts.
        let wakers = (0..shard_count)
            .map(|_| Waker::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut shards = Vec::with_capacity(shard_count);
        let mut shard_handles = Vec::with_capacity(shard_count);
        for (i, waker) in wakers.into_iter().enumerate() {
            let (tx, rx) = channel::<Cmd>();
            let shared = Arc::clone(&shared);
            let shard_waker = Arc::clone(&waker);
            let handle = std::thread::Builder::new()
                .name(format!("tred-shard-{i}"))
                .spawn(move || shard_loop(&shared, &rx, &shard_waker))
                .expect("spawn shard thread");
            shards.push(ShardTx { tx, waker });
            shard_handles.push(handle);
        }
        let accept_handle = {
            let shared = Arc::clone(&shared);
            let shards = shards.clone();
            std::thread::Builder::new()
                .name("tred-accept".into())
                .spawn(move || {
                    let mut next = 0usize;
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Ok(stream) = stream {
                            shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                            // Round-robin: shard ownership is decided
                            // here and never migrates.
                            shards[next % shards.len()].send(Cmd::Accept(stream));
                            next = next.wrapping_add(1);
                        }
                    }
                })
                .expect("spawn accept thread")
        };
        Ok(Self {
            addr: local,
            shards,
            shared,
            shard_handles,
            accept_handle: Some(accept_handle),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn handle(&self) -> BroadcastHandle<L> {
        BroadcastHandle {
            shards: self.shards.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the accept loop and every shard, closing all subscriber
    /// sockets and joining the threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for shard in &self.shards {
            shard.waker.wake();
        }
        for h in self.shard_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One shard's event loop: drain commands, poll readiness (sockets plus
/// the wake fd, no timeout), service ready sockets, sweep the dead. Owns
/// its connections exclusively — no locks on the data path.
fn shard_loop<const L: usize>(shared: &ServeShared<L>, rx: &Receiver<Cmd>, waker: &Waker) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut pollfds: Vec<sys::PollFd> = Vec::new();
    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        let mut disconnected = false;
        loop {
            match rx.try_recv() {
                Ok(Cmd::Accept(stream)) => {
                    if !shutting_down {
                        register_conn(shared, &mut conns, stream);
                    }
                }
                Ok(Cmd::Frame(frame)) => {
                    for conn in &mut conns {
                        offer_broadcast(&mut conn.wq, shared.queue_capacity, &frame, &shared.stats);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if shutting_down || disconnected {
            for mut conn in conns.drain(..) {
                finish_catch_up(shared, &mut conn.catch_up);
                abandon_queue(&mut conn.wq, &shared.stats);
                shared.subscribers.fetch_sub(1, Ordering::Relaxed);
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
            return;
        }

        // Drop closed connections before polling: a broadcast above may
        // just have evicted one, and with no timeout a dead socket that
        // never turns ready again would otherwise stay counted live.
        conns.retain_mut(|conn| {
            if conn.wq.closed {
                finish_catch_up(shared, &mut conn.catch_up);
                abandon_queue(&mut conn.wq, &shared.stats);
                shared.subscribers.fetch_sub(1, Ordering::Relaxed);
                let _ = conn.stream.shutdown(Shutdown::Both);
                false
            } else {
                true
            }
        });

        // Advance admitted catch-up replays while their write queues
        // have room — the archive is read in bounded chunks, so one
        // deep range costs many small rounds instead of one big burst.
        for conn in &mut conns {
            if conn.catch_up.is_some() && !conn.wq.closed {
                service_catch_up(shared, &mut conn.wq, &mut conn.catch_up);
            }
        }

        pollfds.clear();
        pollfds.push(sys::PollFd {
            fd: waker.fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        for conn in &conns {
            let mut events = sys::POLLIN;
            if !conn.wq.queue.is_empty() {
                events |= sys::POLLOUT;
            }
            pollfds.push(sys::PollFd {
                fd: sys::fd_of(&conn.stream),
                events,
                revents: 0,
            });
        }
        let ready = sys::poll_wait(&mut pollfds, -1);
        if ready <= 0 {
            // Nothing ready and no command: a wakeup that did no work.
            shared.stats.idle_wakeups.fetch_add(1, Ordering::Relaxed);
        } else {
            if pollfds[0].revents != 0 {
                // Drained before the next `try_recv`, so a command sent
                // after this point leaves its wake byte pending.
                waker.drain();
            }
            for (conn, pfd) in conns.iter_mut().zip(&pollfds[1..]) {
                if pfd.revents == 0 || conn.wq.closed {
                    continue;
                }
                if pfd.revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                    service_read(shared, conn);
                }
                if !conn.wq.closed && pfd.revents & sys::POLLOUT != 0 {
                    service_write(shared, conn);
                }
            }
        }
    }
}

/// Registers a freshly accepted connection with this shard:
/// nonblocking mode, the optional send-buffer cap, and — in committee
/// mode — the [`CommitteeHello`] greeting as the first queued frame.
fn register_conn<const L: usize>(
    shared: &ServeShared<L>,
    conns: &mut Vec<Conn>,
    stream: TcpStream,
) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    // Catch-up replies are hundreds of small frames written back to
    // back; with Nagle on, each burst sits in the send buffer waiting
    // for the peer's delayed ACK and a deep replay ACK-clocks into
    // tens-of-milliseconds stalls per chunk. Disable coalescing.
    let _ = stream.set_nodelay(true);
    if let Some(bytes) = shared.send_buffer {
        cap_send_buffer(&stream, bytes);
    }
    let mut conn = Conn {
        stream,
        rbuf: Vec::new(),
        wq: WriteQueue::new(),
        catch_up: None,
    };
    if let Some(member) = shared.member {
        // The greeting is the first frame on the wire, before any
        // share, so the feed can vet the member identity.
        let hello = CommitteeHello {
            version: tre_wire::VERSION,
            member,
        };
        let mut frame = Vec::new();
        <CommitteeHello as Wire<L>>::wire_write(&hello, shared.curve, &mut frame);
        enqueue_direct(
            &mut conn.wq,
            shared.queue_capacity,
            Arc::new(frame),
            &shared.stats,
        );
    }
    shared.subscribers.fetch_add(1, Ordering::Relaxed);
    conns.push(conn);
}

/// Drains readable bytes and parses every complete control frame. A
/// non-TRE byte stream closes the connection (after counting the wire
/// error); unknown-but-well-framed types are skipped for forward
/// compatibility.
fn service_read<const L: usize>(shared: &ServeShared<L>, conn: &mut Conn) {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.wq.closed = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.wq.closed = true;
                break;
            }
        }
    }
    let mut off = 0;
    loop {
        match peek_frame(&conn.rbuf[off..]) {
            Ok(Some((header, body, _))) => {
                if let Some(job) = handle_control_frame(shared, header.type_tag, body, &mut conn.wq)
                {
                    // A new request supersedes any replay still in
                    // flight on this connection (its slot is released).
                    finish_catch_up(shared, &mut conn.catch_up);
                    conn.catch_up = Some(job);
                }
                off += HEADER_LEN + header.body_len;
            }
            Ok(None) => break,
            Err(_) => {
                // Not a TRE wire stream: drop the connection.
                shared.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                conn.wq.closed = true;
                off = conn.rbuf.len();
                break;
            }
        }
    }
    conn.rbuf.drain(..off);
}

/// Parses one inbound control frame. A [`CatchUpRequest`] goes through
/// admission control here — span clipping, then the concurrent-replay
/// cap — and, when admitted, returns the [`CatchUpJob`] the shard
/// drains incrementally; an over-capacity request is shed with a
/// [`Busy`] frame carrying the retry hint instead.
fn handle_control_frame<const L: usize>(
    shared: &ServeShared<L>,
    type_tag: u8,
    body: &[u8],
    wq: &mut WriteQueue,
) -> Option<CatchUpJob> {
    let curve = shared.curve;
    if type_tag == <Hello as Wire<L>>::TYPE_TAG {
        match <Hello as Wire<L>>::wire_read_body(curve, body) {
            Ok(hello) if hello.version == tre_wire::VERSION => {}
            _ => {
                shared.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        return None;
    }
    if type_tag == <CatchUpRequest as Wire<L>>::TYPE_TAG {
        let Ok(req) = <CatchUpRequest as Wire<L>>::wire_read_body(curve, body) else {
            shared.stats.wire_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        shared
            .stats
            .catch_up_requests
            .fetch_add(1, Ordering::Relaxed);
        if req.from > req.to {
            // Empty range: nothing to replay, nothing to admit.
            return None;
        }
        // Clip absurd spans instead of trusting the client: the reply
        // stays bounded and the client resumes from where it ends.
        let max_span = shared.catch_up.max_span.max(1);
        let mut to = req.to;
        if to - req.from >= max_span {
            to = req.from + (max_span - 1);
            shared
                .stats
                .catch_up_clipped
                .fetch_add(1, Ordering::Relaxed);
        }
        // Admission: a bounded number of replays in flight daemon-wide.
        // `fetch_add` then undo keeps the check race-free across shards.
        let prior = shared.active_catch_ups.fetch_add(1, Ordering::Relaxed);
        if prior >= shared.catch_up.max_concurrent.max(1) {
            shared.active_catch_ups.fetch_sub(1, Ordering::Relaxed);
            shared.stats.catch_up_shed.fetch_add(1, Ordering::Relaxed);
            let busy = Busy {
                retry_after_ms: shared.catch_up.retry_after_ms,
            };
            let mut frame = Vec::new();
            <Busy as Wire<L>>::wire_write(&busy, curve, &mut frame);
            enqueue_direct(wq, shared.queue_capacity, Arc::new(frame), &shared.stats);
            tre_obs::event("tred.catch_up_shed", "admission controller at capacity");
            return None;
        }
        return Some(CatchUpJob { next: req.from, to });
    }
    // Unknown-but-well-framed type: ignorable by design (forward compat).
    None
}

/// Advances one connection's admitted replay: reads the archive in
/// [`CatchUpConfig::chunk`]-sized pieces and enqueues the frames until
/// the range completes or the bounded write queue refuses one — then
/// the job pauses at that epoch and resumes on a later round once the
/// socket drains (a subscriber that never drains is evicted by the
/// broadcast path, which releases the slot).
fn service_catch_up<const L: usize>(
    shared: &ServeShared<L>,
    wq: &mut WriteQueue,
    slot: &mut Option<CatchUpJob>,
) {
    let Some(job) = *slot else { return };
    if wq.queue.len() >= shared.queue_capacity {
        return; // No room this round; retry after the writer drains.
    }
    let mut next = job.next;
    let done = loop {
        let chunk = shared.catch_up.chunk.max(1);
        let (updates, more) =
            shared
                .archive
                .read_range_chunk_raw(shared.curve, next, job.to, chunk);
        let mut stalled = false;
        for (epoch, body) in &updates {
            let frame = encode_update_frame_raw(shared, *epoch, body, replay_hops(shared, *epoch));
            if !enqueue_direct(wq, shared.queue_capacity, frame, &shared.stats) {
                next = *epoch;
                stalled = true;
                break;
            }
            shared
                .stats
                .catch_up_replies
                .fetch_add(1, Ordering::Relaxed);
            next = epoch.saturating_add(1);
        }
        if stalled {
            break false;
        }
        match more {
            Some(resume) => next = resume,
            None => break true,
        }
    };
    if done {
        finish_catch_up(shared, slot);
    } else {
        *slot = Some(CatchUpJob { next, to: job.to });
    }
}

/// Flushes as much of the write queue as the socket accepts, tracking
/// the partial-write offset across rounds. A write error leaves the
/// half-sent frame in the queue, where the sweep resolves it (and
/// everything behind it) as abandoned.
fn service_write<const L: usize>(shared: &ServeShared<L>, conn: &mut Conn) {
    while let Some(front) = conn.wq.queue.front() {
        match conn.stream.write(&front[conn.wq.woff..]) {
            Ok(0) => {
                conn.wq.closed = true;
                break;
            }
            Ok(n) => {
                conn.wq.woff += n;
                if conn.wq.woff == front.len() {
                    conn.wq.queue.pop_front();
                    conn.wq.woff = 0;
                    shared.stats.frames_written.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.wq.closed = true;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tre_core::ServerKeyPair;

    fn test_shared(catch_up: CatchUpConfig, queue_capacity: usize) -> ServeShared<8> {
        ServeShared {
            curve: tre_pairing::toy64(),
            archive: Arc::new(UpdateArchive::new()),
            stats: Arc::new(TredStats::default()),
            shutdown: AtomicBool::new(false),
            queue_capacity,
            send_buffer: None,
            member: None,
            granularity: Granularity::Seconds,
            trace: None,
            forward_origin: false,
            catch_up,
            active_catch_ups: AtomicUsize::new(0),
            subscribers: AtomicUsize::new(0),
        }
    }

    fn publish_epochs(shared: &ServeShared<8>, n: u64) {
        let curve = tre_pairing::toy64();
        let keys = ServerKeyPair::generate(curve, &mut rand::thread_rng());
        for e in 0..n {
            let u = keys.issue_update(curve, &Granularity::Seconds.tag_for_epoch(e));
            shared.archive.publish(e, u);
        }
    }

    fn catch_up_body(from: u64, to: u64) -> Vec<u8> {
        let req = CatchUpRequest { from, to };
        let frame = req.wire_bytes(tre_pairing::toy64());
        frame[HEADER_LEN..].to_vec()
    }

    /// An absurd span is clipped server-side to `max_span` epochs from
    /// `from`, counted, and still admitted as a (bounded) job.
    #[test]
    fn absurd_catch_up_span_is_clipped() {
        let shared = test_shared(
            CatchUpConfig {
                max_span: 4,
                ..CatchUpConfig::default()
            },
            16,
        );
        let mut wq = WriteQueue::new();
        let body = catch_up_body(10, u64::MAX);
        let tag = <CatchUpRequest as Wire<8>>::TYPE_TAG;
        let job = handle_control_frame(&shared, tag, &body, &mut wq).expect("admitted");
        assert_eq!(job, CatchUpJob { next: 10, to: 13 }, "span clipped to 4");
        assert_eq!(shared.stats.catch_up_clipped.load(Ordering::Relaxed), 1);
        assert_eq!(shared.active_catch_ups.load(Ordering::Relaxed), 1);

        // A sane span is admitted unclipped.
        let job = handle_control_frame(&shared, tag, &catch_up_body(0, 3), &mut wq).unwrap();
        assert_eq!(job, CatchUpJob { next: 0, to: 3 });
        assert_eq!(shared.stats.catch_up_clipped.load(Ordering::Relaxed), 1);
    }

    /// At the concurrent-replay cap, a request is shed with a [`Busy`]
    /// frame carrying the configured retry hint instead of being queued.
    #[test]
    fn saturated_admission_sheds_with_busy_frame() {
        let shared = test_shared(
            CatchUpConfig {
                max_concurrent: 2,
                retry_after_ms: 250,
                ..CatchUpConfig::default()
            },
            16,
        );
        shared.active_catch_ups.store(2, Ordering::Relaxed);
        let mut wq = WriteQueue::new();
        let tag = <CatchUpRequest as Wire<8>>::TYPE_TAG;
        let job = handle_control_frame(&shared, tag, &catch_up_body(0, 9), &mut wq);
        assert!(job.is_none(), "over-capacity request is not admitted");
        assert_eq!(shared.stats.catch_up_shed.load(Ordering::Relaxed), 1);
        assert_eq!(
            shared.active_catch_ups.load(Ordering::Relaxed),
            2,
            "shed request holds no slot"
        );
        let frame = wq.queue.pop_front().expect("a Busy frame was enqueued");
        let (header, body, _) = peek_frame(&frame).unwrap().unwrap();
        assert_eq!(header.type_tag, <Busy as Wire<8>>::TYPE_TAG);
        let busy = <Busy as Wire<8>>::wire_read_body(tre_pairing::toy64(), body).unwrap();
        assert_eq!(busy.retry_after_ms, 250);
    }

    /// A replay that fills the bounded write queue pauses at the first
    /// refused epoch and resumes — without loss or duplication — once
    /// the queue drains, releasing its admission slot at the end.
    #[test]
    fn paused_catch_up_resumes_where_it_stalled() {
        let shared = test_shared(
            CatchUpConfig {
                chunk: 2,
                ..CatchUpConfig::default()
            },
            4,
        );
        publish_epochs(&shared, 10);
        shared.active_catch_ups.store(1, Ordering::Relaxed);
        let mut wq = WriteQueue::new();
        let mut slot = Some(CatchUpJob { next: 0, to: 9 });

        let mut drained = 0u64;
        let mut rounds = 0;
        while slot.is_some() && rounds < 100 {
            service_catch_up(&shared, &mut wq, &mut slot);
            assert!(wq.queue.len() <= 4, "never exceeds the bounded queue");
            drained += wq.queue.len() as u64;
            wq.queue.clear(); // simulate the writer flushing the socket
            shared
                .stats
                .frames_written
                .fetch_add(drained, Ordering::Relaxed);
            rounds += 1;
        }
        assert_eq!(slot, None, "range completed");
        assert_eq!(shared.stats.catch_up_replies.load(Ordering::Relaxed), 10);
        assert_eq!(
            shared.active_catch_ups.load(Ordering::Relaxed),
            0,
            "slot released on completion"
        );
        assert!(
            rounds >= 3,
            "a 10-epoch range through a 4-deep queue pauses"
        );
    }

    /// Queue-level eviction test: deterministic, no sockets involved.
    /// A broadcast offer that finds the bounded queue full evicts the
    /// subscriber; a healthy queue absorbs every frame.
    #[test]
    fn slow_subscriber_evicted_when_queue_fills() {
        let stats = TredStats::default();
        let mut slow = WriteQueue::new();
        let mut fast = WriteQueue::new();
        let frame = Arc::new(vec![1u8, 2, 3]);
        for _ in 0..2 {
            offer_broadcast(&mut slow, 2, &frame, &stats);
            offer_broadcast(&mut fast, 16, &frame, &stats);
            assert!(!slow.closed, "queue not yet full");
        }
        offer_broadcast(&mut slow, 2, &frame, &stats);
        offer_broadcast(&mut fast, 16, &frame, &stats);
        assert!(slow.closed, "slow subscriber evicted on overflow");
        assert!(!fast.closed);
        assert_eq!(stats.evicted.load(Ordering::Relaxed), 1);
        assert_eq!(
            stats.frames_enqueued.load(Ordering::Relaxed),
            2 + 3,
            "2 to the slow queue before overflow, 3 to the fast one"
        );
        assert_eq!(fast.queue.len(), 3, "healthy subscriber got every frame");

        // The sweep resolves the evicted subscriber's stranded frames.
        abandon_queue(&mut slow, &stats);
        assert_eq!(stats.frames_abandoned.load(Ordering::Relaxed), 2);
        assert_eq!(
            stats.in_flight(),
            3,
            "only the healthy queue's frames remain unresolved"
        );
    }

    /// Offers to an already-closed subscriber resolve as dropped, and
    /// catch-up-style direct enqueues never evict.
    #[test]
    fn closed_queue_drops_and_direct_enqueue_never_evicts() {
        let stats = TredStats::default();
        let mut wq = WriteQueue::new();
        wq.closed = true;
        offer_broadcast(&mut wq, 4, &Arc::new(vec![0u8]), &stats);
        assert_eq!(stats.frames_dropped.load(Ordering::Relaxed), 1);
        assert_eq!(stats.evicted.load(Ordering::Relaxed), 0, "not an eviction");

        let mut full = WriteQueue::new();
        assert!(enqueue_direct(&mut full, 1, Arc::new(vec![1u8]), &stats));
        assert!(
            !enqueue_direct(&mut full, 1, Arc::new(vec![2u8]), &stats),
            "catch-up overflow is refused"
        );
        assert!(!full.closed, "direct enqueue never evicts");
        assert_eq!(stats.frames_dropped.load(Ordering::Relaxed), 2);
        // Conservation: 3 offers = 1 enqueued + 2 dropped.
        assert_eq!(stats.frames_offered.load(Ordering::Relaxed), 3);
        assert_eq!(stats.frames_enqueued.load(Ordering::Relaxed), 1);
    }

    /// The partial-write offset carries a frame across write rounds and
    /// the conservation identity closes once the frame completes.
    #[test]
    fn conservation_identity_balances_through_abandonment() {
        let stats = TredStats::default();
        let mut wq = WriteQueue::new();
        let frame = Arc::new(vec![7u8; 64]);
        for _ in 0..5 {
            offer_broadcast(&mut wq, 8, &frame, &stats);
        }
        // Simulate two delivered frames...
        wq.queue.pop_front();
        wq.queue.pop_front();
        stats.frames_written.fetch_add(2, Ordering::Relaxed);
        assert_eq!(stats.in_flight(), 3);
        // ...then the connection dies with three still queued.
        abandon_queue(&mut wq, &stats);
        assert_eq!(stats.frames_abandoned.load(Ordering::Relaxed), 3);
        assert_eq!(stats.in_flight(), 0, "identity balances at quiescence");
    }
}
