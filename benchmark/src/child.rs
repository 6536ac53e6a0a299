//! Child-process accounting: one `wait4(2)` yields wall, peak RSS and
//! user + system CPU of a whole `gemm-ld` process.
//!
//! The box has neither `/usr/bin/time` nor the `libc` crate, so the two
//! calls are declared by hand, as `crates/cli/src/interrupt.rs` does for
//! `signal`/`kill`. Layouts are Linux x86-64.
//!
//! Processes are measured through a shim: the harness re-executes itself
//! with [`SHIM_FLAG`], and that small process spawns and reaps the
//! program. Linux seeds a child's `ru_maxrss` at `exec` with the peak RSS
//! of the address space it came from, so a child spawned straight from a
//! harness holding a 256 MB oracle matrix would report the harness's
//! memory, not its own.

use std::ffi::OsStr;
use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage`: two timevals, then 14 longs of which `ru_maxrss`
/// (KiB on Linux) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// What one finished child cost.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// `spawn()` → `wait4()` return, seconds.
    pub wall_s: f64,
    /// `ru_utime + ru_stime`, seconds.
    pub cpu_s: f64,
    /// `ru_maxrss`, MiB.
    pub peak_rss_mb: f64,
    /// Exited normally with code 0.
    pub ok: bool,
}

/// A `gemm-ld` invocation with the environment pinned so the run
/// measures the program, not a cached tuning profile or a forced kernel.
pub fn gemm_ld(binary: &Path) -> Command {
    let mut cmd = Command::new(binary);
    cmd.env("LD_NO_CPU_PROFILE", "1")
        .env_remove("LD_KERNEL")
        .env_remove("LD_CPU_PROFILE");
    cmd
}

/// Blocks until `child` exits and returns its resource usage; `started`
/// is the instant taken just before it was spawned.
pub fn reap(child: Child, started: Instant) -> io::Result<Usage> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `status` and `ru` are valid for writes of their own types
    // and `Rusage` has the kernel's x86-64 layout (144 bytes); `pid` is a
    // child this process spawned and has not waited for — `child` is
    // consumed, so `Child::wait` can never reap it a second time.
    let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = started.elapsed().as_secs_f64();
    if r != pid {
        return Err(io::Error::last_os_error());
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Usage {
        wall_s,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0
        ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

/// First argument that turns either harness binary into the shim:
/// `<harness> --account <stdout file | -> <program> <args…>`.
const SHIM_FLAG: &str = "--account";

/// Call first in `main`. If this process was started as the accounting
/// shim it runs the program — stdin and stderr on `/dev/null`, stdout in
/// the named file or on `/dev/null` — prints `wall_s cpu_s peak_rss_mb ok`
/// and exits; otherwise it returns at once.
pub fn shim() {
    let mut args = std::env::args_os().skip(1);
    if args.next().as_deref() != Some(OsStr::new(SHIM_FLAG)) {
        return;
    }
    let usage = (|| {
        let missing = || io::Error::other("shim needs <stdout> <program>");
        let stdout = args.next().ok_or_else(missing)?;
        let stdout = match stdout.to_str() {
            Some("-") => Stdio::null(),
            _ => Stdio::from(File::create(&stdout)?),
        };
        let mut cmd = Command::new(args.next().ok_or_else(missing)?);
        cmd.args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .stdout(stdout);
        let started = Instant::now();
        reap(cmd.spawn()?, started)
    })();
    match usage {
        Ok(u) => {
            println!(
                "{:?} {:?} {:?} {}",
                u.wall_s,
                u.cpu_s,
                u.peak_rss_mb,
                u8::from(u.ok)
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("ldbench shim: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs `cmd` (program, arguments and environment changes are taken from
/// it) under the shim and returns what it cost; `stdout` names the file
/// its standard output goes to, `/dev/null` otherwise.
pub fn run(cmd: &Command, stdout: Option<&Path>) -> io::Result<Usage> {
    let mut shim = Command::new(std::env::current_exe()?);
    shim.arg(SHIM_FLAG)
        .arg(stdout.unwrap_or(Path::new("-")))
        .arg(cmd.get_program())
        .args(cmd.get_args())
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    for (key, value) in cmd.get_envs() {
        match value {
            Some(v) => shim.env(key, v),
            None => shim.env_remove(key),
        };
    }
    let out = shim.output()?;
    let line = String::from_utf8_lossy(&out.stdout);
    let mut f = line.split_whitespace().map(str::parse::<f64>);
    match (f.next(), f.next(), f.next(), f.next()) {
        (Some(Ok(wall_s)), Some(Ok(cpu_s)), Some(Ok(peak_rss_mb)), Some(Ok(ok))) => Ok(Usage {
            wall_s,
            cpu_s,
            peak_rss_mb,
            ok: ok == 1.0,
        }),
        _ => Err(io::Error::other(format!(
            "accounting shim failed for {:?}",
            cmd.get_program()
        ))),
    }
}

/// Asks `child` to shut down (SIGTERM; the daemon drains and exits 0).
pub fn terminate(child: &Child) {
    if let Ok(pid) = i32::try_from(child.id()) {
        // SAFETY: kill(2) only validates its arguments; the pid is a
        // child we still hold and have not reaped, so it cannot be reused.
        unsafe { kill(pid, SIGTERM) };
    }
}
