//! The `gemm-ld serve` daemon as a child process.

use crate::child::{self, Usage};
use crate::workload::PANEL;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Stdio};
use std::time::Instant;

/// A running daemon. Dropping it without [`Daemon::stop`] kills it.
pub struct Daemon {
    child: Option<Child>,
    started: Instant,
    /// `host:port` it listens on.
    pub addr: String,
    /// `spawn()` → the `listening on` line, seconds (includes `--preload`).
    pub ready_s: f64,
    // Held open so a later print by the daemon cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `gemm-ld serve bench=<panel> --addr 127.0.0.1:0 --workers 2
    /// --preload` and waits for the line that names the port.
    pub fn start(gemm_ld: &Path, panel: &Path) -> io::Result<Self> {
        let threads = crate::THREADS.to_string();
        let mut spec = std::ffi::OsString::from(format!("{PANEL}="));
        spec.push(panel);
        let mut cmd = child::gemm_ld(gemm_ld);
        cmd.arg("serve")
            .arg(spec)
            .args(["--addr", "127.0.0.1:0", "--preload"])
            .args(["--workers", &threads, "--threads", &threads])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .stdout(Stdio::piped());
        let started = Instant::now();
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let ready_s = started.elapsed().as_secs_f64();
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "daemon did not start (first line: {line:?})"
            )));
        };
        Ok(Self {
            child: Some(child),
            started,
            addr: addr.to_string(),
            ready_s,
            _stdout: stdout,
        })
    }

    /// The daemon's peak resident set so far (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let pid = self.child.as_ref().expect("daemon is running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))
    }

    /// SIGTERM, then waits: the daemon drains and exits 0.
    pub fn stop(mut self) -> io::Result<Usage> {
        let child = self.child.take().expect("daemon is running");
        child::terminate(&child);
        child::reap(child, self.started)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
