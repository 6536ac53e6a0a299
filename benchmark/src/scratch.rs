//! A scratch directory unique to this invocation, removed on drop.
//!
//! It lives under the benchmark's own `out/` directory: a run may read
//! and write only inside its checkout, so `/dev/shm` is not an option and
//! the atomic writes of the program under test reach the checkout's disk.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// The directory; everything in it is deleted when this is dropped.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `base/scratch-<pid>-<nanos>[-k]`. `create_dir` fails on an
    /// existing name, so two invocations can never share a directory —
    /// unlike the pid-keyed `temp_dir()` idiom, which a recycled pid or a
    /// second thread breaks.
    pub fn new(base: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(base)?;
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        for k in 0..64 {
            let dir = base.join(format!("scratch-{}-{nanos}-{k}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(Self { dir }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::other("no free scratch directory name"))
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// File-system type the directory sits on, from `/proc/mounts`
    /// (longest mount point that is a prefix of the directory).
    pub fn fs_type(&self) -> String {
        let dir = std::fs::canonicalize(&self.dir).unwrap_or_else(|_| self.dir.clone());
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|l| {
                let mut f = l.split(' ');
                let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
                dir.starts_with(point).then_some((point.len(), fs))
            })
            .max_by_key(|&(len, _)| len)
            .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
