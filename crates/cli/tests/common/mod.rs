//! Plumbing shared by the real-binary integration tests: the shipped
//! `gemm-ld` under committed defaults, a scratch directory per test, a
//! watchdog around every child, and a `gemm-ld serve` daemon handle.
//!
//! Nothing here waits without a bound: a child that outlives its watchdog
//! is killed and the test fails, so a hang costs seconds of tier-1, not
//! the run.

#![allow(dead_code)] // each test binary uses its own subset

use ld_serve::protocol::{Request, StatCode, Status};
use ld_serve::Client;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// POSIX signal numbers (Linux); `Child::kill` already covers SIGKILL.
pub const SIGINT: i32 = 2;
pub const SIGUSR1: i32 = 10;

/// Watchdog for one child, seconds.
pub const WATCHDOG_S: u64 = 10;

/// A scratch directory keyed by pid + test name, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gemm_ld_cli_{}_{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// `name` inside the directory, as the word a command line takes.
    pub fn path(&self, name: &str) -> String {
        let path = self.0.join(name).to_str().expect("UTF-8 path").to_string();
        // `gemm_ld` splits its command line on whitespace
        assert!(!path.contains(char::is_whitespace), "TMPDIR has a space");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `gemm-ld LINE`, split on whitespace like a shell would, measuring the
/// committed defaults: no cached CPU profile, no kernel override from the
/// machine running the tests.
pub fn gemm_ld(line: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gemm-ld"));
    cmd.args(line.split_whitespace())
        .env("LD_NO_CPU_PROFILE", "1")
        .env_remove("LD_KERNEL")
        .env_remove("LD_CPU_PROFILE");
    cmd
}

/// What a finished child left behind.
pub struct Finished {
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

impl Finished {
    /// Fails the test, naming the child, when its watchdog fired (`status`
    /// is `None`: it was killed) or it panicked.
    fn new(
        what: &str,
        status: Option<ExitStatus>,
        secs: u64,
        stdout: String,
        stderr: String,
    ) -> Self {
        let Some(status) = status else {
            panic!("{what} still running after {secs} s (killed); stderr so far:\n{stderr}");
        };
        assert!(
            !stderr.contains("panicked at"),
            "{what} panicked:\n{stderr}"
        );
        Finished {
            code: status.code(),
            stdout,
            stderr,
        }
    }

    /// The last stderr line: the `error:` line of a failed run, the
    /// status line of a successful one.
    pub fn last_line(&self) -> &str {
        self.stderr.lines().last().unwrap_or("")
    }
}

/// Polls `child` until it exits or `secs` pass; a child still alive then
/// is killed and `None` returned.
fn wait_bounded(child: &mut Child, secs: u64) -> Option<ExitStatus> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => return Some(status),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Runs `cmd` to completion under a `secs` watchdog, capturing both
/// streams.
pub fn run_for(mut cmd: Command, secs: u64) -> Finished {
    let what = format!("{cmd:?}");
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    finish(cmd.spawn().expect("gemm-ld spawns"), &what, secs)
}

/// Waits for `child` under a `secs` watchdog, capturing whichever of its
/// streams are still piped to the test.
pub fn finish(mut child: Child, what: &str, secs: u64) -> Finished {
    // drain the pipes off-thread so a chatty child never blocks on them
    let drain = |pipe: Option<Box<dyn Read + Send>>| {
        std::thread::spawn(move || {
            let mut s = String::new();
            if let Some(mut pipe) = pipe {
                let _ = pipe.read_to_string(&mut s);
            }
            s
        })
    };
    let out = drain(child.stdout.take().map(|p| Box::new(p) as _));
    let err = drain(child.stderr.take().map(|p| Box::new(p) as _));
    let status = wait_bounded(&mut child, secs);
    let (stdout, stderr) = (out.join().expect("stdout"), err.join().expect("stderr"));
    Finished::new(what, status, secs, stdout, stderr)
}

/// `gemm-ld LINE` under the default watchdog.
pub fn run(line: &str) -> Finished {
    run_for(gemm_ld(line), WATCHDOG_S)
}

/// [`run`] that must exit 0.
pub fn run_ok(line: &str) -> Finished {
    let done = run(line);
    assert_eq!(done.code, Some(0), "{line} failed:\n{}", done.stderr);
    done
}

/// `gemm-ld simulate` into `path` (seeded: the same bytes every run).
pub fn simulate(path: &str, samples: usize, snps: usize, seed: u64) {
    run_ok(&format!(
        "simulate --samples {samples} --snps {snps} --seed {seed} -o {path}"
    ));
}

extern "C" {
    /// POSIX `kill(2)`.
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A real `gemm-ld serve` process on a loopback port, serving one panel
/// named `panel`. Killed on drop if the test did not see it exit.
pub struct Daemon {
    child: Child,
    /// The LDS1 address it announced (`listening on HOST:PORT`).
    pub addr: String,
    /// The scrape address (`metrics on HOST:PORT`), when asked for one.
    pub metrics_addr: Option<String>,
    stderr: PathBuf,
}

impl Daemon {
    /// Spawns `gemm-ld serve panel=INPUT --addr ADDR --preload FLAGS` and
    /// waits (bounded) for its address announcements; stderr goes to `log`
    /// inside `scratch`.
    pub fn spawn(scratch: &Scratch, log: &str, input: &str, addr: &str, flags: &str) -> Self {
        let stderr = PathBuf::from(scratch.path(log));
        let log = std::fs::File::create(&stderr).expect("create daemon log");
        let line = format!("serve panel={input} --addr {addr} --preload {flags}");
        let mut child = gemm_ld(&line)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .expect("daemon spawns");
        // a reader thread owns stdout to EOF, so the daemon never blocks
        // on it and this side can wait for a line with a timeout
        let stdout = child.stdout.take().expect("stdout piped");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let wants_metrics = flags.contains("--metrics-addr");
        let (mut bound, mut metrics_addr) = (None, None);
        while bound.is_none() || (wants_metrics && metrics_addr.is_none()) {
            let Ok(line) = rx.recv_timeout(Duration::from_secs(WATCHDOG_S)) else {
                let _ = child.kill();
                let _ = child.wait();
                let log = std::fs::read_to_string(&stderr).unwrap_or_default();
                panic!("daemon never announced its address; stderr:\n{log}");
            };
            if let Some(a) = line.strip_prefix("listening on ") {
                bound = Some(a.trim().to_string());
            } else if let Some(a) = line.strip_prefix("metrics on ") {
                metrics_addr = Some(a.trim().to_string());
            }
        }
        Daemon {
            child,
            addr: bound.expect("loop exits bound"),
            metrics_addr,
            stderr,
        }
    }

    /// Delivers `sig` (SIGINT, SIGUSR1) to the daemon.
    pub fn signal(&self, sig: i32) {
        let pid = i32::try_from(self.child.id()).expect("pid fits i32");
        // SAFETY: kill(2) takes two integers and touches no memory of
        // this process; `pid` is a child this handle has not reaped yet,
        // so the number cannot have been recycled for another process.
        let rc = unsafe { kill(pid, sig) };
        assert_eq!(rc, 0, "kill({pid}, {sig}) failed");
    }

    /// SIGKILLs the daemon and reaps it — the hard-crash fault.
    pub fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reap");
    }

    /// Waits (bounded) for the daemon to exit by itself; returns its exit
    /// code and everything it wrote to stderr.
    pub fn exit(mut self) -> Finished {
        let status = wait_bounded(&mut self.child, WATCHDOG_S);
        let stderr = std::fs::read_to_string(&self.stderr).unwrap_or_default();
        Finished::new("the daemon", status, WATCHDOG_S, String::new(), stderr)
    }

    /// The daemon's live thread count (`Threads:` of `/proc/PID/status`).
    pub fn threads(&self) -> usize {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read the daemon's /proc status");
        let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
        let count = line.expect("a Threads: line").trim();
        count.parse().expect("a thread count")
    }

    /// Blocks (bounded) until `health` reports `n` admitted requests in
    /// flight — the handshake that replaces "sleep and hope it started".
    /// `health` is answered by the connection thread, so it gets through
    /// while every worker is busy.
    pub fn wait_in_flight(&self, n: usize) {
        let needle = format!("\"in_flight\": {n},");
        let deadline = Instant::now() + Duration::from_secs(WATCHDOG_S);
        let mut c = connect(&self.addr);
        loop {
            let resp = c.request(&Request::Health).expect("health");
            assert_eq!(resp.status, Status::Ok, "{}", resp.message());
            if resp.message().contains(&needle) {
                return;
            }
            let body = resp.message();
            assert!(Instant::now() < deadline, "never saw {needle} in: {body}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // no-ops once `exit` / `sigkill` have reaped the child
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A fresh connection with the watchdog as its I/O timeout.
pub fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(WATCHDOG_S)).expect("connect")
}

pub fn pair(i: u32, j: u32) -> Request {
    Request::Pair {
        panel: "panel".into(),
        stat: StatCode::RSquared,
        i,
        j,
    }
}

/// The whole panel, every pair kept: the bytes `r2 -o` writes.
pub fn whole_region() -> Request {
    Request::Region {
        panel: "panel".into(),
        stat: StatCode::RSquared,
        row0: 0,
        row1: 0,
        min_r2: 0.0,
    }
}

pub fn read(path: impl AsRef<Path>) -> Vec<u8> {
    let path = path.as_ref();
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

pub fn exists(path: &str) -> bool {
    Path::new(path).exists()
}
