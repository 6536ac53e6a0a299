//! Signals: SIGINT/SIGTERM → `CancelToken` trip, SIGUSR1 → callback.
//!
//! One signal handler does the only async-signal-safe thing it can: it
//! counts the delivery, one atomic add per signal number. One watcher
//! loop, run on a detached thread by each `install_*` function, turns new
//! counts into actions off the handler: a [`CancelToken`] trip (reason
//! `"SIGINT"` / `"SIGTERM"` — the token's reason mutex must never be
//! taken inside a signal handler) or a trace dump. Batch runs then drain
//! at the next slab boundary (exit code 5, resumable snapshot when
//! checkpointed); the `serve` daemon stops accepting and drains in-flight
//! requests under its drain deadline.

use ld_core::CancelToken;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// Deliveries per signal number since the process started, counted by
/// [`on_signal`]. Never reset: each watcher keeps its own cursor, so every
/// watcher of a signal sees every delivery after its install.
static DELIVERED: [AtomicU32; 32] = [const { AtomicU32::new(0) }; 32];

/// How often a watcher looks at the counts.
const WATCH_POLL: Duration = Duration::from_millis(25);

/// POSIX SIGINT number (avoids a libc dependency for one constant).
pub const SIGINT: i32 = 2;

/// POSIX SIGKILL number — the shard supervisor's fault-injection harness
/// sends it to simulate a hard crash.
pub const SIGKILL: i32 = 9;

/// POSIX SIGTERM number — the polite service-manager shutdown request;
/// the `serve` daemon treats it exactly like SIGINT (drain, then exit).
pub const SIGTERM: i32 = 15;

/// POSIX SIGUSR1 number (Linux x86-64) — the daemon's live trace-dump
/// trigger: snapshot the flight recorder without stopping it.
pub const SIGUSR1: i32 = 10;

/// POSIX SIGPIPE number.
const SIGPIPE: i32 = 13;

extern "C" {
    /// POSIX `signal(2)`; handlers are passed as `sighandler_t` (a plain
    /// address on every platform this workspace targets).
    fn signal(signum: i32, handler: usize) -> usize;
    /// POSIX `kill(2)` — used by the shard supervisor to propagate SIGINT
    /// to its children and to inject SIGKILL faults.
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Sends `sig` to process `pid`; returns whether the signal was
/// delivered. Used by `run-sharded` to forward its own interruption to
/// every shard child (so the whole tree lands on resumable checkpoints)
/// and by the fault-injection harness to SIGKILL a shard mid-run.
pub fn send_signal(pid: u32, sig: i32) -> bool {
    let Ok(pid) = i32::try_from(pid) else {
        return false;
    };
    // SAFETY: kill(2) is async-signal-safe and validates its arguments;
    // a stale pid at worst signals a process we just reaped (the
    // supervisor only targets children it still holds handles for).
    unsafe { kill(pid, sig) == 0 }
}

/// Restores SIGPIPE's default action (the Rust runtime ignores it): a
/// batch command whose stdout reader goes away (`gemm-ld … | head`) then
/// ends quietly, as a Unix filter does, instead of panicking in `println!`
/// on `EPIPE`. Not for the daemon or a client of one, whose sockets must
/// keep seeing `EPIPE` as an error.
pub fn default_sigpipe() {
    // SAFETY: installing `SIG_DFL` (0) runs no handler code at all.
    unsafe {
        signal(SIGPIPE, 0);
    }
}

extern "C" fn on_signal(sig: i32) {
    // Async-signal-safe: a single atomic add, no locks, no allocation.
    if let Some(count) = counter(sig) {
        count.fetch_add(1, Ordering::SeqCst);
    }
}

fn counter(sig: i32) -> Option<&'static AtomicU32> {
    usize::try_from(sig).ok().and_then(|s| DELIVERED.get(s))
}

fn delivered(sig: i32) -> u32 {
    counter(sig).map_or(0, |count| count.load(Ordering::SeqCst))
}

/// The one watcher loop. Installs [`on_signal`] for `signals`, then, on a
/// detached thread, calls `on_delivery(sig)` once per delivery after this
/// call — never in the handler. The thread exits once `token` is
/// cancelled for any reason: trip it after a successful run (e.g. reason
/// `"run complete"`) to reap the thread.
fn watch(
    signals: &'static [i32],
    token: &CancelToken,
    mut on_delivery: impl FnMut(i32) + Send + 'static,
) {
    let mut seen: Vec<u32> = signals.iter().map(|&sig| delivered(sig)).collect();
    for &sig in signals {
        // SAFETY: `on_signal` is async-signal-safe (one atomic add) and has
        // the exact `extern "C" fn(c_int)` ABI `signal(2)` expects.
        unsafe {
            signal(sig, on_signal as *const () as usize);
        }
    }
    let token = token.clone();
    std::thread::spawn(move || loop {
        for (&sig, seen) in signals.iter().zip(&mut seen) {
            let now = delivered(sig);
            while *seen != now {
                *seen = seen.wrapping_add(1);
                on_delivery(sig);
            }
        }
        if token.is_cancelled() {
            return;
        }
        std::thread::sleep(WATCH_POLL);
    });
}

/// Installs the SIGINT watcher: the signal trips `token` with reason
/// `"SIGINT"`.
pub fn install_sigint_watcher(token: &CancelToken) {
    let t = token.clone();
    watch(&[SIGINT], token, move |_| t.cancel_with_reason("SIGINT"));
}

/// Installs the SIGINT *and* SIGTERM watcher: either trips `token` with
/// the signal's name as the reason. The daemon's graceful-shutdown entry
/// point: either signal stops the accept loop and starts the drain.
pub fn install_shutdown_watcher(token: &CancelToken) {
    let t = token.clone();
    watch(&[SIGINT, SIGTERM], token, move |sig| {
        t.cancel_with_reason(if sig == SIGTERM { "SIGTERM" } else { "SIGINT" });
    });
}

/// Installs a *repeatable*, non-terminating SIGUSR1 watcher: every
/// delivery invokes `on_dump` once, on the watcher thread, with a running
/// dump counter, until `token` is cancelled. The daemon wires `on_dump` to
/// a live flight-recorder snapshot, so `kill -USR1 <pid>` extracts a
/// Perfetto trace from a running process without restarting it.
pub fn install_usr1_watcher(token: &CancelToken, on_dump: impl Fn(u32) + Send + 'static) {
    let mut dumps = 0u32;
    watch(&[SIGUSR1], token, move |_| {
        dumps += 1;
        on_dump(dumps);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SIGINT and the shutdown watcher both watch SIGINT: a simulated
    /// delivery made while the other test's watcher is installed would
    /// reach it too.
    static SIGINT_WATCHERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SIGINT_WATCHERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn watcher_trips_token_on_flag() {
        let _serial = serial();
        let token = CancelToken::new();
        install_sigint_watcher(&token);
        DELIVERED[SIGINT as usize].fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !token.is_cancelled() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(token.is_cancelled());
        assert_eq!(token.reason().as_deref(), Some("SIGINT"));
    }

    #[test]
    fn shutdown_watcher_names_the_signal() {
        let _serial = serial();
        let token = CancelToken::new();
        install_shutdown_watcher(&token);
        DELIVERED[SIGTERM as usize].fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !token.is_cancelled() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(token.is_cancelled());
        assert_eq!(token.reason().as_deref(), Some("SIGTERM"));
    }

    #[test]
    fn usr1_watcher_fires_once_per_delivery_and_keeps_running() {
        let token = CancelToken::new();
        let dumps = std::sync::Arc::new(AtomicU32::new(0));
        let d = dumps.clone();
        install_usr1_watcher(&token, move |n| {
            d.store(n, Ordering::SeqCst);
        });
        // simulate two separate deliveries without raising a real signal
        DELIVERED[SIGUSR1 as usize].fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while dumps.load(Ordering::SeqCst) < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(dumps.load(Ordering::SeqCst), 1);
        DELIVERED[SIGUSR1 as usize].fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while dumps.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            dumps.load(Ordering::SeqCst),
            2,
            "watcher must survive a dump"
        );
        token.cancel_with_reason("test done");
    }

    #[test]
    fn send_signal_reaches_processes() {
        // signal 0 performs the permission/existence check without
        // delivering anything: our own pid exists, pid range errors don't
        assert!(send_signal(std::process::id(), 0));
        assert!(!send_signal(u32::MAX, 0));
    }
}
