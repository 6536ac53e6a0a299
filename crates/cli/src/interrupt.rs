//! SIGINT/SIGTERM → `CancelToken` bridge.
//!
//! The signal handler itself does the only async-signal-safe thing it can:
//! one atomic store. A detached watcher thread converts that flag into a
//! [`CancelToken`] trip (reason `"SIGINT"` / `"SIGTERM"`) — the token's
//! reason mutex must never be taken inside a signal handler. Batch runs
//! then drain at the next slab boundary (exit code 5, resumable snapshot
//! when checkpointed); the `serve` daemon stops accepting and drains
//! in-flight requests under its drain deadline.

use ld_core::CancelToken;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::time::Duration;

/// Set by the handler; drained by the watcher thread.
static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

/// Last shutdown signal observed (`0` = none) — the daemon watcher
/// reports which of SIGINT/SIGTERM arrived in the cancel reason.
static SHUTDOWN_SIGNAL: AtomicI32 = AtomicI32::new(0);

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

/// Deliveries of SIGUSR1 not yet consumed by the dump watcher.
static USR1_PENDING: AtomicI32 = AtomicI32::new(0);

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

extern "C" fn on_sigint(_sig: i32) {
    // Async-signal-safe: a single atomic store, no locks, no allocation.
    SIGINT_SEEN.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT handler and spawns the watcher that trips `token`
/// with reason `"SIGINT"` when the signal arrives. The watcher exits as
/// soon as the token is cancelled *for any reason* — trip it after a
/// successful run (e.g. reason `"run complete"`) to reap the thread.
pub fn install_sigint_watcher(token: &CancelToken) {
    // SAFETY: `on_sigint` is async-signal-safe (one atomic store) and has
    // the exact `extern "C" fn(c_int)` ABI `signal(2)` expects.
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
    let t = token.clone();
    std::thread::spawn(move || loop {
        if SIGINT_SEEN.load(Ordering::SeqCst) {
            t.cancel_with_reason("SIGINT");
            return;
        }
        if t.is_cancelled() {
            return; // run finished (or was cancelled elsewhere): reap
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

extern "C" fn on_shutdown_signal(sig: i32) {
    // Async-signal-safe: a single atomic store, no locks, no allocation.
    SHUTDOWN_SIGNAL.store(sig, Ordering::SeqCst);
}

/// Installs SIGINT *and* SIGTERM handlers and spawns the watcher that
/// trips `token` with the signal's name as the reason. The daemon's
/// graceful-shutdown entry point: either signal stops the accept loop
/// and starts the drain. The watcher exits once the token is cancelled
/// for any reason.
pub fn install_shutdown_watcher(token: &CancelToken) {
    // SAFETY: `on_shutdown_signal` is async-signal-safe (one atomic
    // store) and has the exact `extern "C" fn(c_int)` ABI `signal(2)`
    // expects.
    unsafe {
        signal(SIGINT, on_shutdown_signal as *const () as usize);
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
    }
    let t = token.clone();
    std::thread::spawn(move || loop {
        match SHUTDOWN_SIGNAL.load(Ordering::SeqCst) {
            0 => {}
            SIGTERM => {
                t.cancel_with_reason("SIGTERM");
                return;
            }
            _ => {
                t.cancel_with_reason("SIGINT");
                return;
            }
        }
        if t.is_cancelled() {
            return; // daemon stopped for another reason: reap
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

extern "C" fn on_sigusr1(_sig: i32) {
    // Async-signal-safe: a single atomic add, no locks, no allocation.
    USR1_PENDING.fetch_add(1, Ordering::SeqCst);
}

/// Installs a *repeatable*, non-terminating SIGUSR1 watcher: every
/// delivery invokes `on_dump` once, on the watcher thread (never in the
/// handler), with a running dump counter. Unlike the shutdown watchers
/// the thread keeps serving after each signal; it exits only when
/// `token` is cancelled. The daemon wires `on_dump` to a live flight-
/// recorder snapshot, so `kill -USR1 <pid>` extracts a Perfetto trace
/// from a running process without restarting it.
pub fn install_usr1_watcher(token: &CancelToken, on_dump: impl Fn(u32) + Send + 'static) {
    // SAFETY: `on_sigusr1` is async-signal-safe (one atomic add) and has
    // the exact `extern "C" fn(c_int)` ABI `signal(2)` expects.
    unsafe {
        signal(SIGUSR1, on_sigusr1 as *const () as usize);
    }
    let t = token.clone();
    std::thread::spawn(move || {
        let mut dumps = 0u32;
        loop {
            while USR1_PENDING
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                    (n > 0).then(|| n - 1)
                })
                .is_ok()
            {
                dumps += 1;
                on_dump(dumps);
            }
            if t.is_cancelled() {
                return; // daemon stopped: reap
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watcher_trips_token_on_flag() {
        let token = CancelToken::new();
        install_sigint_watcher(&token);
        SIGINT_SEEN.store(true, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !token.is_cancelled() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(token.is_cancelled());
        assert_eq!(token.reason().as_deref(), Some("SIGINT"));
        SIGINT_SEEN.store(false, Ordering::SeqCst);
    }

    #[test]
    fn shutdown_watcher_names_the_signal() {
        let token = CancelToken::new();
        install_shutdown_watcher(&token);
        SHUTDOWN_SIGNAL.store(SIGTERM, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !token.is_cancelled() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(token.is_cancelled());
        assert_eq!(token.reason().as_deref(), Some("SIGTERM"));
        SHUTDOWN_SIGNAL.store(0, Ordering::SeqCst);
    }

    #[test]
    fn usr1_watcher_fires_once_per_delivery_and_keeps_running() {
        let token = CancelToken::new();
        let dumps = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let d = dumps.clone();
        install_usr1_watcher(&token, move |n| {
            d.store(n, Ordering::SeqCst);
        });
        // simulate two separate deliveries without raising a real signal
        USR1_PENDING.fetch_add(1, Ordering::SeqCst);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while dumps.load(Ordering::SeqCst) < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(dumps.load(Ordering::SeqCst), 1);
        USR1_PENDING.fetch_add(1, Ordering::SeqCst);
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
