//! The run's surroundings: its store directory, the host and revision
//! it ran on, a raw fsync calibration, and the process's peak memory.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every run keeps its stores under this directory of the checkout, so
/// two commits measured from the same place share one filesystem.
pub const STORE_ROOT: &str = ".bench_stores";

/// A fresh store directory for one run, removed on drop — also when the
/// run panics and unwinds.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates this run's directory, first removing any a killed run
    /// left behind (its process is gone).
    pub fn create() -> io::Result<RunDir> {
        if let Ok(entries) = fs::read_dir(STORE_ROOT) {
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                let pid = name.strip_prefix("run-").and_then(|r| r.split('-').next());
                if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
                    fs::remove_dir_all(e.path())?;
                }
            }
        }
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(STORE_ROOT).join(format!("run-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory of the run directory.
    pub fn fresh(&self, name: &str) -> io::Result<PathBuf> {
        let p = self.path.join(name);
        if p.exists() {
            fs::remove_dir_all(&p)?;
        }
        fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Fails, leaving the root, while another run's directory is in it.
        let _ = fs::remove_dir(STORE_ROOT);
    }
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Raw `sync_data` calls in the fsync calibration.
const FSYNC_SAMPLES: usize = 300;

/// Median of [`FSYNC_SAMPLES`] raw `sync_data` calls, each after a
/// 64-byte append, in `dir`, in µs: the device's fsync cost, independent
/// of the code under test.
fn fsync_calibration(dir: &Path) -> io::Result<f64> {
    let path = dir.join("fsync-calibration");
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    let mut us = Vec::with_capacity(FSYNC_SAMPLES);
    for _ in 0..FSYNC_SAMPLES {
        f.write_all(&[0xA5; 64])?;
        let start = Instant::now();
        f.sync_data()?;
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    fs::remove_file(&path)?;
    Ok(crate::stats::median(&us))
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let Ok(abs) = fs::canonicalize(dir) else {
        return "unknown".into();
    };
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of a git checkout, or else an FNV-1a digest of the
/// sources the benchmark builds (`crates/`, `vendor/`, `Cargo.lock`).
fn revision() -> String {
    if let Some(rev) = git_head() {
        return format!("git:{rev}");
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect_files(Path::new(root), &mut files);
    }
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut h = crate::stats::FNV_START;
    for f in &files {
        let bytes = fs::read(f).unwrap_or_default();
        h = crate::stats::fnv1a(h, f.to_string_lossy().bytes().chain(bytes));
    }
    format!("tree-fnv64:{h:016x}")
}

fn git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

/// When the workload's stores reach the disk.
fn flush_policy(workload: &str) -> &'static str {
    match workload {
        "live-memory" => {
            "no store on the live path; each sub-run's restart row store is synced once, after its rows"
        }
        "audit-outofcore" => {
            "row store synced once, at stream end (StreamingMerge::finish); anchor store never synced"
        }
        _ => "unknown workload",
    }
}

/// One JSON object describing where and on what the run happened.
pub fn provenance(workload: &str, seed: u64, run_dir: &Path) -> io::Result<String> {
    let fsync_p50_us = fsync_calibration(run_dir)?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let host = shard_obs::ObjWriter::new()
        .u64("nproc", nproc as u64)
        .str("cpu_model", &cpu_model())
        .str("kernel", kernel.trim())
        .finish();
    let store = shard_obs::ObjWriter::new()
        .str("dir", STORE_ROOT)
        .str("filesystem", &filesystem_of(run_dir))
        .str("flush_policy", flush_policy(workload))
        .f64("fsync_p50_us", fsync_p50_us)
        .u64("fsync_samples", FSYNC_SAMPLES as u64)
        .finish();
    Ok(shard_obs::ObjWriter::new()
        .str("workload", workload)
        .u64("seed", seed)
        .str("revision", &revision())
        .raw("host", &host)
        .raw("store", &store)
        .finish())
}
