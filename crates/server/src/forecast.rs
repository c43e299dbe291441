//! The idle-priority forecast worker: computes the next epoch's public
//! tag values (`H1(T)`, and `ê(sG, H1(T))` for a verifier) while the
//! daemon waits, so the release path finds them ready.
//!
//! A release tag is public and known before its time (§5.3.1), so the
//! work can move off the blocking path without touching a secret: the
//! worker is given the curve, the granularity and at most a *public*
//! server key, never a key pair, and no `I_T` exists before `T`.
//!
//! The worker must never slow the path it feeds. It runs under
//! `SCHED_IDLE` (Linux), so it only gets a CPU nobody else wants, and the
//! caller never waits on it: [`Forecaster::request`] and
//! [`Forecaster::take`] touch only an atomic and a `try_lock`. A forecast
//! still in flight, or a slot lock held by a starved worker, is a miss,
//! and the caller computes the values itself as it did before.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Puts the calling thread in the `SCHED_IDLE` class: it runs only when
/// no normal thread wants the CPU. Best effort; a refusal leaves the
/// thread at normal priority.
#[cfg(target_os = "linux")]
fn set_idle_priority() {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    const SCHED_IDLE: i32 = 5;
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, initialised `struct sched_param` (one
    // `int`, 0 as SCHED_IDLE requires) that the call only reads; pid 0
    // names the calling thread. A failure is reported by the return
    // value, which is ignored: the thread keeps its normal priority.
    unsafe {
        sched_setscheduler(0, SCHED_IDLE, &param);
    }
}

#[cfg(not(target_os = "linux"))]
fn set_idle_priority() {}

type Job<T> = Box<dyn Fn(u64) -> T + Send>;

struct Slot<T> {
    /// The epoch asked for, plus one; 0 when nothing is pending.
    wanted: AtomicU64,
    /// The newest finished forecast and its epoch.
    ready: Mutex<Option<(u64, T)>>,
    stop: AtomicBool,
}

/// A single-slot forecast of one epoch's value, computed on a
/// `SCHED_IDLE` thread spawned by the first [`Forecaster::request`].
pub(crate) struct Forecaster<T: Send + 'static> {
    slot: Arc<Slot<T>>,
    /// Held until the worker is spawned.
    job: Option<Job<T>>,
    worker: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> Forecaster<T> {
    /// A forecaster that computes `job(epoch)` for requested epochs.
    /// No thread exists until the first request.
    pub fn new(job: impl Fn(u64) -> T + Send + 'static) -> Self {
        Self {
            slot: Arc::new(Slot {
                wanted: AtomicU64::new(0),
                ready: Mutex::new(None),
                stop: AtomicBool::new(false),
            }),
            job: Some(Box::new(job)),
            worker: None,
        }
    }

    /// Asks for `epoch`'s forecast, replacing any request the worker has
    /// not started. Never blocks.
    pub fn request(&mut self, epoch: u64) {
        let Some(wanted) = epoch.checked_add(1) else {
            return;
        };
        self.slot.wanted.store(wanted, Ordering::SeqCst);
        match &self.worker {
            Some(worker) => worker.thread().unpark(),
            None => self.spawn(),
        }
    }

    /// `epoch`'s forecast, if the worker has finished it. Never blocks:
    /// a forecast in flight, one for another epoch, or a slot lock the
    /// worker holds right now all return `None`.
    pub fn take(&self, epoch: u64) -> Option<T> {
        let mut ready = self.slot.ready.try_lock().ok()?;
        match ready.as_ref() {
            Some((e, _)) if *e == epoch => ready.take().map(|(_, v)| v),
            _ => None,
        }
    }

    fn spawn(&mut self) {
        let Some(job) = self.job.take() else {
            return;
        };
        let slot = Arc::clone(&self.slot);
        self.worker = std::thread::Builder::new()
            .name("tre-forecast".into())
            .spawn(move || {
                set_idle_priority();
                while !slot.stop.load(Ordering::SeqCst) {
                    let wanted = slot.wanted.swap(0, Ordering::SeqCst);
                    if wanted == 0 {
                        std::thread::park();
                        continue;
                    }
                    let value = (wanted - 1, job(wanted - 1));
                    let stale = slot
                        .ready
                        .lock()
                        .expect("forecast slot poisoned")
                        .replace(value);
                    drop(stale);
                }
            })
            .ok();
    }
}

impl<T: Send + 'static> Drop for Forecaster<T> {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.slot.stop.store(true, Ordering::SeqCst);
            worker.thread().unpark();
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::{Duration, Instant};

    /// Waits for `epoch`'s forecast by retrying `take`.
    fn wait_take<T: Send + 'static>(f: &Forecaster<T>, epoch: u64) -> T {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(v) = f.take(epoch) {
                return v;
            }
            assert!(Instant::now() < deadline, "forecast {epoch} never landed");
            std::thread::yield_now();
        }
    }

    #[test]
    fn take_misses_at_once_while_a_slow_forecast_is_in_flight() {
        let (started_tx, started) = channel();
        let (release, release_rx) = channel::<()>();
        let mut f = Forecaster::new(move |epoch| {
            let _ = started_tx.send(epoch);
            let _ = release_rx.recv_timeout(Duration::from_secs(10));
            epoch * 10
        });
        assert_eq!(f.take(1), None, "nothing requested, no thread");
        f.request(1);
        assert_eq!(started.recv().unwrap(), 1, "the worker picked it up");
        let t0 = Instant::now();
        assert_eq!(f.take(1), None, "in flight is a miss");
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "take waited on the worker"
        );
        release.send(()).unwrap();
        assert_eq!(wait_take(&f, 1), 10);
        assert_eq!(f.take(1), None, "a forecast is taken once");

        // A finished forecast for another epoch is a miss, not a wait.
        f.request(2);
        assert_eq!(started.recv().unwrap(), 2);
        release.send(()).unwrap();
        assert_eq!(wait_take(&f, 2), 20);
        f.request(3);
        assert_eq!(started.recv().unwrap(), 3);
        assert_eq!(f.take(2), None);
        release.send(()).unwrap();
        assert_eq!(wait_take(&f, 3), 30);
    }

    #[test]
    fn take_misses_while_the_worker_holds_the_slot_lock() {
        let mut f = Forecaster::new(|epoch| epoch);
        f.request(4);
        let _ = wait_take(&f, 4);
        f.request(5);
        // Stand in for a worker starved while it stores its result.
        let held = loop {
            let guard = f.slot.ready.lock().unwrap();
            if guard.is_some() {
                break guard;
            }
            drop(guard);
            std::thread::yield_now();
        };
        let t0 = Instant::now();
        assert_eq!(f.take(5), None, "a held lock is a miss");
        assert!(t0.elapsed() < Duration::from_millis(100));
        drop(held);
        assert_eq!(f.take(5), Some(5));
    }
}
