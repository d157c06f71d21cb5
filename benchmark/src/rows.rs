//! §3 rows of a finished run, computed offline from the report's known
//! sets, and the restart-and-recertify path every workload ends with:
//! reopen a row store from disk and check it again off its cursor.

use shard_apps::banking::Bank;
use shard_core::stream::{StreamChecker, StreamReport, StreamRow};
use shard_core::StreamingExecution;
use shard_sim::RunReport;
use shard_store::{DiskStore, StoreOptions};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Checker window of every §3 check in the benchmark.
pub const CHECKER_WINDOW: usize = 64;

/// The offline §3 check of a live run.
pub struct Offline {
    pub report: StreamReport,
    /// Per transaction: predecessors missed (the paper's k).
    pub k: Vec<f64>,
    /// Per transaction: age in µs of its oldest missed predecessor (the
    /// staleness the paper's t bounds), 0 when it missed none.
    pub t_us: Vec<f64>,
}

/// Derives every transaction's miss set from the report's known sets and
/// folds the rows through a fresh [`StreamChecker`], handing each row to
/// `on_row` as it goes.
///
/// A node's known set only grows, so the misses of its next transaction
/// are its previous misses still unknown plus the unknown rows executed
/// since — one pass per node, independent of the monitor's rank search.
/// Each row's miss count must complement its known set exactly, which
/// rejects a known set holding anything outside the serial prefix.
pub fn offline_check(
    report: &RunReport<Bank>,
    mut on_row: impl FnMut(&StreamRow),
) -> Result<Offline, String> {
    let txns = &report.transactions;
    let nodes = txns
        .iter()
        .map(|t| t.node.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut last: Vec<Option<(usize, Vec<usize>)>> = vec![None; nodes];
    let mut checker = StreamChecker::new(CHECKER_WINDOW);
    let mut k = Vec::with_capacity(txns.len());
    let mut t_us = Vec::with_capacity(txns.len());
    for (i, t) in txns.iter().enumerate() {
        let known = &t.known;
        if known.len() > i
            || known
                .nth(known.len().wrapping_sub(1))
                .is_some_and(|m| m >= t.ts)
        {
            return Err(format!("txn {i}: known set reaches past its own timestamp"));
        }
        let (from, mut missed) = match last[t.node.0 as usize].take() {
            Some((p, prev)) => (p, prev),
            None => (0, Vec::new()),
        };
        missed.retain(|&j| !known.contains(txns[j].ts));
        missed.extend((from..i).filter(|&j| !known.contains(txns[j].ts)));
        if missed.len() + known.len() != i {
            return Err(format!(
                "txn {i}: {} misses and {} known do not cover its {i} predecessors",
                missed.len(),
                known.len()
            ));
        }
        k.push(missed.len() as f64);
        let oldest = missed.iter().map(|&j| txns[j].time).min();
        t_us.push(oldest.map_or(0.0, |o| t.time.saturating_sub(o) as f64));
        let row = StreamRow {
            index: i,
            time: t.time,
            missed,
        };
        checker.push(&row);
        on_row(&row);
        last[t.node.0 as usize] = Some((i, row.missed));
    }
    Ok(Offline {
        report: checker.report(),
        k,
        t_us,
    })
}

/// Folds of a row set in [`timed_fold`]; the fastest counts, as the one
/// least disturbed by the host.
const FOLDS: usize = 5;

/// Folds `rows` through a fresh [`StreamChecker`] [`FOLDS`] times and
/// returns the report with the fastest fold's wall time, in seconds: the
/// checker's own cost, with the rows already derived.
pub fn timed_fold(rows: &[StreamRow]) -> (StreamReport, f64) {
    let mut fastest = f64::INFINITY;
    let mut report = None;
    for _ in 0..FOLDS {
        let start = Instant::now();
        let mut checker = StreamChecker::new(CHECKER_WINDOW);
        for row in rows {
            checker.push(row);
        }
        report = Some(checker.report());
        fastest = fastest.min(start.elapsed().as_secs_f64());
    }
    (report.expect("at least one fold"), fastest)
}

/// Restarts of a row store, each followed by a full §3 re-check off it.
pub struct Recheck {
    /// Wall time of each [`DiskStore::open`] (WAL validation and B+tree
    /// rebuild), in seconds.
    pub opens_s: Vec<f64>,
    /// Entries the reopened store recovered.
    pub entries: usize,
    /// Wall time of each second pass (`check_stream`), in seconds.
    pub checks_s: Vec<f64>,
    /// [`digest`] of the second pass's report.
    pub digest: String,
}

impl Recheck {
    /// The fastest reopen: the one least disturbed by the host.
    pub fn reopen_s(&self) -> f64 {
        self.opens_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The fastest re-check.
    pub fn check_s(&self) -> f64 {
        self.checks_s.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Reopens the closed row store at `dir` (holding `rows` rows)
/// `reopens` times, then re-checks it `checks` times off the last
/// reopen; repeating both lets the fastest stand for each.
pub fn reopen_and_check(
    dir: &Path,
    rows: usize,
    reopens: usize,
    checks: usize,
) -> io::Result<Recheck> {
    let mut opens = Vec::with_capacity(reopens);
    let mut store = None;
    for _ in 0..reopens {
        drop(store.take());
        let start = Instant::now();
        let opened = DiskStore::open(dir, StoreOptions::default())?;
        opens.push(start.elapsed().as_secs_f64());
        store = Some(opened);
    }
    let (store, entries) = store.expect("at least one reopen");
    let mut exec: StreamingExecution<Bank> = StreamingExecution::reopen(Box::new(store), rows);
    let mut times = Vec::with_capacity(checks);
    let mut report = None;
    for _ in 0..checks {
        let start = Instant::now();
        report = Some(exec.check_stream(CHECKER_WINDOW)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(Recheck {
        opens_s: opens,
        entries,
        checks_s: times,
        digest: digest(&report.expect("at least one check")),
    })
}

/// FNV-1a digest of a report's debug form, verdicts and certificates
/// included: how reports are compared across the process boundary.
pub fn digest(report: &StreamReport) -> String {
    let h = crate::stats::fnv1a(crate::stats::FNV_START, format!("{report:?}").bytes());
    format!("{h:016x}")
}

/// The first argument that makes the benchmark binary a restart child.
pub const RESTART_CHILD: &str = "--restart-child";

/// Runs [`reopen_and_check`] in a fresh process of this binary: the
/// restart an operator pays, away from the heap the live sub-runs left
/// behind.
pub fn restart_in_child(
    dir: &Path,
    rows: usize,
    reopens: usize,
    checks: usize,
) -> io::Result<Recheck> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .arg(RESTART_CHILD)
        .arg(dir)
        .arg(rows.to_string())
        .arg(reopens.to_string())
        .arg(checks.to_string())
        .output()?;
    let bad =
        |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("restart child: {what}"));
    if !out.status.success() {
        return Err(bad(&String::from_utf8_lossy(&out.stderr)));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = shard_obs::json::parse(text.trim()).map_err(|e| bad(&e.to_string()))?;
    let times = |key: &str| -> io::Result<Vec<f64>> {
        doc.get(key)
            .and_then(shard_obs::Json::as_arr)
            .ok_or_else(|| bad(key))?
            .iter()
            .map(|t| t.as_f64().ok_or_else(|| bad(key)))
            .collect()
    };
    let field = |key: &str| doc.get(key).ok_or_else(|| bad(key));
    Ok(Recheck {
        opens_s: times("opens_s")?,
        entries: field("entries")?.as_u64().ok_or_else(|| bad("entries"))? as usize,
        checks_s: times("checks_s")?,
        digest: field("digest")?
            .as_str()
            .ok_or_else(|| bad("digest"))?
            .to_string(),
    })
}

/// The restart child: `<dir> <rows> <reopens> <checks>` in, one JSON
/// line out.
pub fn restart_child(args: &[String]) -> Result<String, String> {
    let [dir, rows, reopens, checks] = args else {
        return Err(format!(
            "{RESTART_CHILD} takes <dir> <rows> <reopens> <checks>"
        ));
    };
    let count = |what: &str, v: &str| {
        v.parse::<usize>()
            .ok()
            .filter(|&n| what == "rows" || n > 0)
            .ok_or(format!("bad {what}: {v}"))
    };
    let r = reopen_and_check(
        Path::new(dir),
        count("rows", rows)?,
        count("reopens", reopens)?,
        count("checks", checks)?,
    )
    .map_err(|e| e.to_string())?;
    let list = |xs: &[f64]| {
        let items: Vec<String> = xs.iter().map(|x| shard_obs::json::number_f64(*x)).collect();
        format!("[{}]", items.join(","))
    };
    Ok(shard_obs::ObjWriter::new()
        .raw("opens_s", &list(&r.opens_s))
        .raw("checks_s", &list(&r.checks_s))
        .u64("entries", r.entries as u64)
        .str("digest", &r.digest)
        .finish())
}
