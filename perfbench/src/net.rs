//! The load generator's side of the wire: blocking socket reads split
//! into `tre-wire` frames, and the catch-up client that replays a range
//! and checks every epoch byte for byte.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tre_wire::{
    peek_frame, Busy, CatchUpRequest, Hello, Wire, HEADER_LEN, TAG_BUSY, TAG_KEY_UPDATE,
};

use crate::report::mono_ns;
use crate::Curve8;

/// How long a blocking read waits before the caller re-checks its stop
/// flag. Data arriving wakes the read at once, so this never delays a
/// sample; it only bounds how long a stop request goes unnoticed.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// One complete frame off the stream.
pub struct Frame {
    /// The frame's type tag.
    pub tag: u8,
    /// The frame body.
    pub body: Vec<u8>,
    /// Host-clock instant of the `read(2)` that completed the frame.
    pub read_ns: u64,
}

/// A subscriber connection: blocking reads, incremental framing.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    last_read_ns: u64,
}

impl Conn {
    /// Dials `addr` and greets the daemon.
    pub fn connect(curve: Curve8, addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut conn = Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
            last_read_ns: 0,
        };
        conn.send(&<Hello as Wire<8>>::wire_bytes(&Hello::current(), curve))?;
        Ok(conn)
    }

    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Asks the daemon to replay `from..=to`.
    pub fn request(&mut self, curve: Curve8, from: u64, to: u64) -> std::io::Result<()> {
        let req = CatchUpRequest { from, to };
        self.send(&<CatchUpRequest as Wire<8>>::wire_bytes(&req, curve))
    }

    /// The next frame, or `None` when the read timed out with no frame
    /// complete.
    pub fn next_frame(&mut self) -> std::io::Result<Option<Frame>> {
        loop {
            match peek_frame(&self.buf[self.start..]) {
                Ok(Some((header, body, _))) => {
                    let frame = Frame {
                        tag: header.type_tag,
                        body: body.to_vec(),
                        read_ns: self.last_read_ns,
                    };
                    self.start += HEADER_LEN + header.body_len;
                    return Ok(Some(frame));
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("{e:?}"),
                    ))
                }
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.last_read_ns = mono_ns();
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The epoch a `KEY_UPDATE` body is for, by decoding it (the receiver's
/// real decode: both curve points are decompressed).
pub fn decode_update(curve: Curve8, body: &[u8]) -> Option<(u64, tre_core::KeyUpdate<8>)> {
    let update = <tre_core::KeyUpdate<8> as Wire<8>>::wire_read_body(curve, body).ok()?;
    let epoch = tre_server::Granularity::Seconds.epoch_of_tag(update.tag())?;
    Some((epoch, update))
}

/// Waits until the daemon has registered `conn` and holds `epoch`:
/// requests that one epoch until its replay arrives.
pub fn handshake(curve: Curve8, conn: &mut Conn, epoch: u64) -> std::io::Result<()> {
    let deadline = mono_ns() + 30_000_000_000;
    while mono_ns() < deadline {
        conn.request(curve, epoch, epoch)?;
        let wait_until = mono_ns() + 100_000_000;
        while mono_ns() < wait_until {
            if let Some(f) = conn.next_frame()? {
                if f.tag == TAG_KEY_UPDATE
                    && decode_update(curve, &f.body).is_some_and(|(e, _)| e == epoch)
                {
                    return Ok(());
                }
            }
        }
    }
    Err(std::io::Error::new(ErrorKind::TimedOut, "handshake"))
}

/// Reference bodies of a catch-up range: canonical `KEY_UPDATE` bodies
/// that were BLS-verified once, indexed by their bytes.
pub struct Reference {
    from: u64,
    by_body: HashMap<Vec<u8>, u64>,
}

impl Reference {
    /// Indexes `bodies`, the verified bodies of epochs `from..`.
    pub fn new(from: u64, bodies: Vec<Vec<u8>>) -> Self {
        let by_body = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| (b, from + i as u64))
            .collect();
        Self { from, by_body }
    }

    /// Epochs covered.
    pub fn epochs(&self) -> usize {
        self.by_body.len()
    }
}

/// Outcome of one catch-up.
pub struct CatchUp {
    /// Nanoseconds from the first request to holding every epoch.
    pub ns: u64,
    /// Whether every epoch arrived byte-equal before the deadline.
    pub ok: bool,
}

/// Replays the reference range once: requests it, collects frames until
/// every epoch arrived byte-equal to the reference, and resumes from the
/// first missing epoch after a `Busy` shed or when the reply stops short
/// (a clipped span). Frames that match no reference body are other
/// traffic on the connection (live broadcasts) and are skipped.
pub fn catch_up(
    curve: Curve8,
    conn: &mut Conn,
    reference: &Reference,
    deadline_ns: u64,
) -> std::io::Result<CatchUp> {
    const STALL_NS: u64 = 500_000_000;
    let n = reference.epochs();
    let to = reference.from + n as u64 - 1;
    let mut have = vec![false; n];
    let mut missing = n;
    let t0 = mono_ns();
    conn.request(curve, reference.from, to)?;
    let mut last_progress = t0;
    let first_missing =
        |have: &[bool]| reference.from + have.iter().position(|h| !h).unwrap_or(0) as u64;
    while missing > 0 {
        let now = mono_ns();
        if now - t0 > deadline_ns {
            return Ok(CatchUp {
                ns: now - t0,
                ok: false,
            });
        }
        if now.saturating_sub(last_progress) > STALL_NS {
            conn.request(curve, first_missing(&have), to)?;
            last_progress = now;
        }
        let Some(f) = conn.next_frame()? else {
            continue;
        };
        match f.tag {
            TAG_KEY_UPDATE => {
                if let Some(&epoch) = reference.by_body.get(&f.body) {
                    let i = (epoch - reference.from) as usize;
                    if !have[i] {
                        have[i] = true;
                        missing -= 1;
                        last_progress = f.read_ns;
                    }
                }
            }
            TAG_BUSY => {
                let retry = <Busy as Wire<8>>::wire_read_body(curve, &f.body)
                    .map_or(100, |b| b.retry_after_ms);
                std::thread::sleep(Duration::from_millis(u64::from(retry)));
                conn.request(curve, first_missing(&have), to)?;
                last_progress = mono_ns();
            }
            _ => {}
        }
    }
    Ok(CatchUp {
        ns: last_progress - t0,
        ok: true,
    })
}
