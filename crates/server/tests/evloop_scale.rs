//! Event-loop scale smoke: one `tred` holds thousands of live sockets
//! with a **hard thread bound** — shards + accept + ticker + the
//! ticker's forecast worker, never O(subscribers). Default 2,000 sockets so the test fits any fd
//! budget; CI raises it with `TRE_EVLOOP_SOCKETS=10000`.
//!
//! This file deliberately holds a single `#[test]` so the process
//! thread count it asserts on is not perturbed by sibling tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tre_core::ServerKeyPair;
use tre_pairing::toy64;
use tre_server::{Granularity, SimClock, TimeServer, Tred, TredConfig};
use tre_wire::{peek_frame, Hello, Wire, TAG_KEY_UPDATE};

const SHARDS: usize = 4;
const DEADLINE: Duration = Duration::from_secs(60);

/// Best-effort `RLIMIT_NOFILE` raise; both socket ends live in this
/// process, so N subscribers cost ~2N descriptors.
#[cfg(target_os = "linux")]
fn raise_nofile(want: u64) -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rl: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rl: *const RLimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut rl = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut rl) != 0 {
            return 1024;
        }
        if rl.cur >= want {
            return rl.cur;
        }
        let raised = RLimit {
            cur: want,
            max: rl.max.max(want),
        };
        if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
            return want;
        }
        let soft_to_hard = RLimit {
            cur: rl.max,
            max: rl.max,
        };
        if setrlimit(RLIMIT_NOFILE, &soft_to_hard) == 0 {
            return rl.max;
        }
        rl.cur
    }
}

#[cfg(not(target_os = "linux"))]
fn raise_nofile(_want: u64) -> u64 {
    1024
}

fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn daemon_thread_count_is_o_shards_not_o_subscribers() {
    let want: usize = std::env::var("TRE_EVLOOP_SOCKETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let limit = raise_nofile(want as u64 * 2 + 512);
    let n = want.min(((limit.saturating_sub(512)) / 2) as usize);
    if n < want {
        eprintln!("fd limit {limit}: running with {n} sockets instead of {want}");
    }

    let curve = toy64();
    let mut rng = rand::thread_rng();
    let clock = SimClock::new();
    let keys = ServerKeyPair::generate(curve, &mut rng);
    let server = TimeServer::new(curve, keys, clock.clone(), Granularity::Seconds);
    let threads_before = thread_count();
    let tred = Tred::bind(
        "127.0.0.1:0",
        curve,
        server,
        TredConfig {
            shards: SHARDS,
            ..TredConfig::default()
        },
    )
    .unwrap();
    let addr = tred.local_addr();

    let hello = <Hello as Wire<8>>::wire_bytes(&Hello::current(), curve);
    let mut streams: Vec<(TcpStream, Vec<u8>, u64)> = Vec::with_capacity(n);
    for i in 0..n {
        let mut s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        s.write_all(&hello).expect("send hello");
        s.set_nonblocking(true).expect("nonblocking socket");
        streams.push((s, Vec::new(), 0));
    }
    let start = Instant::now();
    while tred.subscriber_count() < n && start.elapsed() < DEADLINE {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(tred.subscriber_count(), n, "all sockets registered");

    // THE invariant this test exists for: the daemon added at most
    // shards + accept + ticker + forecast-worker threads while holding
    // n live sockets — a fixed count, whatever n is.
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        let delta = after.saturating_sub(before);
        assert!(
            delta <= SHARDS + 3,
            "daemon spawned {delta} threads for {n} sockets — must be shards + 3, O(shards)"
        );
    }

    // And the sockets are genuinely live: one epoch reaches every one.
    clock.advance(1);
    let t0 = Instant::now();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut done = 0usize;
    while done < n && t0.elapsed() < DEADLINE {
        for (stream, buf, seen) in streams.iter_mut() {
            if *seen >= 1 {
                continue;
            }
            match stream.read(&mut chunk) {
                Ok(0) => panic!("daemon closed a healthy subscriber"),
                Ok(len) => buf.extend_from_slice(&chunk[..len]),
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("socket read: {e}"),
            }
            let mut consumed = 0usize;
            while let Ok(Some((header, _body, rest))) = peek_frame(&buf[consumed..]) {
                if header.type_tag == TAG_KEY_UPDATE {
                    *seen += 1;
                }
                consumed = buf.len() - rest.len();
            }
            if consumed > 0 {
                buf.drain(..consumed);
            }
            if *seen >= 1 {
                done += 1;
            }
        }
    }
    assert_eq!(done, n, "every live socket received the epoch broadcast");

    drop(streams);
    tred.shutdown();
}
