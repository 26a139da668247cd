//! Injectable fault seam for the durability stack (and the per-series
//! update path).
//!
//! Every WAL and snapshot file operation in [`crate::wal`] /
//! [`crate::persist`] goes through the tiny wrappers in this module. In
//! normal operation they are pure passthroughs guarded by one relaxed
//! atomic load (no hook installed → no lookup, no allocation). A test —
//! or a chaos drill — can [`inject`] a hook that fails the Nth write,
//! returns `ENOSPC` on every fsync, delays a rename, or panics inside a
//! series update, which makes every error path of the durability code
//! exercisable deterministically:
//!
//! ```
//! use fleet::fault::{self, FaultOp};
//!
//! let dir = std::env::temp_dir().join(format!("fault-doc-{}", std::process::id()));
//! // fail the first fsync under `dir`; everything else passes through
//! let _guard = fault::inject(&dir, fault::fail_nth(FaultOp::Fsync, 0));
//! // ... run a durable engine rooted at `dir` and watch it degrade ...
//! ```
//!
//! Hooks are **scoped by path prefix**: a hook installed for directory
//! `d` only sees operations on paths under `d`, so parallel tests using
//! distinct directories cannot interfere. The guard returned by
//! [`inject`] removes the hook on drop; when the last hook is gone the
//! hot path is a single atomic load again.
//!
//! A hook may also *delay* (sleep before returning `None`) or *panic*
//! (`FaultOp::SeriesStep` hooks panic inside the per-series
//! `catch_unwind` boundary, driving the quarantine path).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which instrumented operation a hook is being consulted about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Creating (or truncating) a file — WAL segment headers, snapshot
    /// temp files.
    Create,
    /// A buffered `write_all` — WAL records, snapshot payload bytes.
    Write,
    /// An `fsync` (`sync_data`/`sync_all`) on a file.
    Fsync,
    /// The atomic rename publishing a snapshot temp file.
    Rename,
    /// The directory fsync that makes a create/rename durable.
    DirSync,
    /// One series update inside a shard worker; the "path" is the series
    /// key. A hook that returns an error (or panics) here drives the
    /// quarantine path ([`crate::series::SeriesState`]).
    SeriesStep,
}

/// A fault hook: inspects `(op, path)` and returns `Some(error)` to fail
/// the operation, `None` to let it proceed. Sleeping before returning
/// models a slow device; panicking models a crashed update (only
/// meaningful for [`FaultOp::SeriesStep`], which runs under
/// `catch_unwind`).
pub type FaultHook = Arc<dyn Fn(FaultOp, &Path) -> Option<io::Error> + Send + Sync>;

/// Fast-path arm switch: no hook installed → one relaxed load and out.
static ARMED: AtomicBool = AtomicBool::new(false);

fn hooks() -> &'static Mutex<Vec<(PathBuf, FaultHook)>> {
    static HOOKS: OnceLock<Mutex<Vec<(PathBuf, FaultHook)>>> = OnceLock::new();
    HOOKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Removes its hook on drop (and disarms the fast path when it was the
/// last one).
pub struct FaultGuard {
    scope: PathBuf,
    hook: FaultHook,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut g = hooks().lock().unwrap_or_else(|p| p.into_inner());
        if let Some(i) =
            g.iter().position(|(s, h)| *s == self.scope && Arc::ptr_eq(h, &self.hook))
        {
            g.remove(i);
        }
        if g.is_empty() {
            ARMED.store(false, Ordering::SeqCst);
        }
    }
}

/// Installs `hook` for every instrumented operation on paths under
/// `scope` (and for [`FaultOp::SeriesStep`] "paths", which are series
/// keys — scope those with the key text or an empty scope). Returns a
/// guard that uninstalls the hook on drop.
pub fn inject(scope: impl Into<PathBuf>, hook: FaultHook) -> FaultGuard {
    let scope = scope.into();
    let mut g = hooks().lock().unwrap_or_else(|p| p.into_inner());
    g.push((scope.clone(), Arc::clone(&hook)));
    ARMED.store(true, Ordering::SeqCst);
    FaultGuard { scope, hook }
}

/// Builds a hook that fails the `nth` (0-based) matching operation with
/// a generic injected-fault error, passing everything else through.
pub fn fail_nth(target: FaultOp, nth: u64) -> FaultHook {
    fail_range(target, nth, 1)
}

/// Builds a hook that fails matching operations `from .. from+count`
/// (0-based occurrence window), passing everything else through — the
/// shape of a transient outage that heals.
pub fn fail_range(target: FaultOp, from: u64, count: u64) -> FaultHook {
    let seen = AtomicU64::new(0);
    Arc::new(move |op, path| {
        if op != target {
            return None;
        }
        let i = seen.fetch_add(1, Ordering::SeqCst);
        (i >= from && i < from + count).then(|| {
            io::Error::other(format!("injected fault: {op:?} #{i} on {}", path.display()))
        })
    })
}

/// Builds a hook that fails **every** matching operation with `ENOSPC`
/// (disk full) — the canonical non-transient degradation.
pub fn enospc(target: FaultOp) -> FaultHook {
    Arc::new(move |op, _| {
        // raw ENOSPC (28 on every unix) keeps the error kind realistic
        // without depending on io_error_more stabilization
        (op == target).then(|| io::Error::from_raw_os_error(28))
    })
}

/// Consults the installed hooks for `(op, path)`. Passthrough (`Ok`)
/// when disarmed — the production fast path.
#[inline]
pub(crate) fn check(op: FaultOp, path: &Path) -> io::Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    check_slow(op, path)
}

#[cold]
fn check_slow(op: FaultOp, path: &Path) -> io::Result<()> {
    // collect matching hooks first: a hook may sleep or panic, and doing
    // that while holding the registry lock would wedge unrelated tests
    let matching: Vec<FaultHook> = {
        let g = hooks().lock().unwrap_or_else(|p| p.into_inner());
        g.iter()
            .filter(|(scope, _)| path.starts_with(scope))
            .map(|(_, h)| Arc::clone(h))
            .collect()
    };
    for hook in matching {
        if let Some(e) = hook(op, path) {
            return Err(e);
        }
    }
    Ok(())
}

/// Creates (or truncates) a file for writing, through the fault seam.
pub(crate) fn create_file(path: &Path) -> io::Result<std::fs::File> {
    check(FaultOp::Create, path)?;
    std::fs::OpenOptions::new().write(true).create(true).truncate(true).open(path)
}

/// `write_all` through the fault seam.
pub(crate) fn write_all(file: &mut std::fs::File, path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    check(FaultOp::Write, path)?;
    file.write_all(bytes)
}

/// `sync_data` through the fault seam.
pub(crate) fn sync_data(file: &std::fs::File, path: &Path) -> io::Result<()> {
    check(FaultOp::Fsync, path)?;
    file.sync_data()
}

/// `sync_all` through the fault seam.
pub(crate) fn sync_all(file: &std::fs::File, path: &Path) -> io::Result<()> {
    check(FaultOp::Fsync, path)?;
    file.sync_all()
}

/// `fs::rename` through the fault seam (checked against the target).
pub(crate) fn rename(from: &Path, to: &Path) -> io::Result<()> {
    check(FaultOp::Rename, to)?;
    std::fs::rename(from, to)
}

/// Directory fsync (open + `sync_all`) through the fault seam.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    check(FaultOp::DirSync, dir)?;
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_seam_is_a_passthrough() {
        let dir = std::env::temp_dir().join(format!("fault-pass-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("x");
        let mut f = create_file(&path).unwrap();
        write_all(&mut f, &path, b"hi").unwrap();
        sync_all(&f, &path).unwrap();
        sync_dir(&dir).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hi");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hooks_are_path_scoped_and_removed_on_drop() {
        let dir = std::env::temp_dir().join(format!("fault-scope-{}", std::process::id()));
        let other = std::env::temp_dir().join(format!("fault-other-{}", std::process::id()));
        for d in [&dir, &other] {
            let _ = std::fs::create_dir_all(d);
        }
        {
            let _g = inject(&dir, fail_nth(FaultOp::Create, 0));
            assert!(create_file(&dir.join("a")).is_err(), "first create in scope fails");
            assert!(create_file(&dir.join("b")).is_ok(), "only the Nth fails");
            assert!(create_file(&other.join("c")).is_ok(), "other dirs unaffected");
        }
        assert!(create_file(&dir.join("d")).is_ok(), "guard drop uninstalls the hook");
        for d in [&dir, &other] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn enospc_hook_reports_disk_full() {
        let dir = std::env::temp_dir().join(format!("fault-enospc-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("x");
        let mut f = create_file(&path).unwrap();
        let _g = inject(&dir, enospc(FaultOp::Write));
        let err = write_all(&mut f, &path, b"hi").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
