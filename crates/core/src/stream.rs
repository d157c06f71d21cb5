//! Streaming verification of the §3 conditions — the one checker.
//!
//! [`StreamChecker`] consumes an execution one transaction at a time,
//! in serial order, and keeps exactly the evidence needed to answer
//! "does the condition still hold?" after every row. It is the only
//! code that decides transitivity and the delay bound: the live
//! monitor, `StreamingMerge`, `check_stream`, `shard-trace watch` and
//! the whole-execution names in [`crate::conditions`]
//! (`is_transitive`, [`TimedExecution::report`] and the readers built
//! on it) all fold their rows through it. Per row `i` with miss set
//! `Mᵢ = {0..i} ∖ 𝒫ᵢ`:
//!
//! * **k-completeness** is trivially online: `missed_count(i)` is
//!   `|Mᵢ|`, so the running maximum is one comparison per row.
//! * **transitivity** is decided by a *frontier test*. While every
//!   earlier row is transitive, a row `j` that `i` saw brings its whole
//!   prefix along — each `k ∈ 𝒫ⱼ` has `𝒫ₖ ⊆ 𝒫ⱼ` — so row `i` is
//!   transitive iff `𝒫ⱼ ⊆ 𝒫ᵢ` for each seen `j` that no other checked
//!   seen row covers. The test starts at the largest row `i` saw,
//!   checks `Mᵢ ∩ [0, j) ⊆ Mⱼ` by a sorted merge, leaves the rows
//!   `Mⱼ ∖ Mᵢ` uncovered, and repeats from the largest uncovered row
//!   until none is left. Each step is O(|Mᵢ| + |Mⱼ|); the number of
//!   steps (the frontier's width) is at most the node count in kernel
//!   and runtime executions, where a node's later transactions see its
//!   earlier ones. Rows with empty miss sets cost nothing. Once a row
//!   fails, its canonical witness is computed for that row only: the
//!   smallest missed `x` some seen row had seen, then the smallest
//!   `j ∈ (x, i)` that `i` saw and that saw `x`.
//! * **t-bounded delay**: each missed `x` initiated no later than `i`
//!   raises the running bound to `timeᵢ − timeₓ + 1`. Missing a
//!   transaction initiated *after* `i` breaks no delay bound, which
//!   matters only for non-orderly executions.
//!
//! The miss sets live in one flat vector with one end offset per row,
//! next to the vector of initiation times — no allocation per row. Only
//! the frontier test reads them, so they stop growing once a violation
//! is found. Every `window` rows the checker emits a [`WindowVerdict`]
//! (the cumulative verdicts at that boundary).
//!
//! Every verdict ships with a [`Certificate`] — the witness rows that
//! *prove* it — serialized into the trace vocabulary so an independent
//! validator (`shard-trace certify`, implemented in `shard-obs` with no
//! types from this crate) can re-check it against the raw trace in
//! O(|certificate|) work, without replaying the execution.
//! `tests/stream_equivalence.rs` pins verdicts and certificates against
//! a literal, set-based oracle.

use crate::app::Application;
use crate::conditions::TimedExecution;
use crate::execution::TxnIndex;
use shard_pool::PoolConfig;

/// Schema tag stamped into serialized certificates.
pub const CERT_SCHEMA: &str = "shard-cert/v1";

/// Executions below this length are converted to rows sequentially;
/// above it, [`rows_from_execution`] partitions the row range across
/// the pool.
const PAR_THRESHOLD: usize = 1024;

/// Per-process stream metrics, resolved once (same pattern as the
/// replay engine's counters).
struct StreamMetrics {
    rows: std::sync::Arc<shard_obs::Counter>,
    windows: std::sync::Arc<shard_obs::Counter>,
    violations: std::sync::Arc<shard_obs::Counter>,
}

fn stream_metrics() -> &'static StreamMetrics {
    static METRICS: std::sync::OnceLock<StreamMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = shard_obs::Registry::global();
        StreamMetrics {
            rows: r.counter("stream.rows"),
            windows: r.counter("stream.windows"),
            violations: r.counter("stream.violations"),
        }
    })
}

/// One transaction of the streaming vocabulary: its position in the
/// serial order, its real initiation time, and the sorted indices of
/// the preceding transactions it did **not** see (the complement of its
/// prefix subsequence). Miss sets are the natural wire form — sparse
/// under realistic fault rates where prefixes are nearly complete, so a
/// row is O(|missed|), not O(i).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamRow {
    /// Position in the global serial order (0-based).
    pub index: TxnIndex,
    /// Real initiation time (the simulator's integer ticks).
    pub time: u64,
    /// Strictly increasing indices in `0..index` the transaction
    /// missed: `missed = {0..index} ∖ 𝒫(index)`.
    pub missed: Vec<TxnIndex>,
}

impl StreamRow {
    /// Renders the row as one JSONL trace line:
    /// `{"event":"txn","i":…,"t":…,"missed":[…]}`.
    pub fn to_json_line(&self) -> String {
        let missed: Vec<String> = self.missed.iter().map(ToString::to_string).collect();
        shard_obs::ObjWriter::new()
            .str("event", "txn")
            .u64("i", self.index as u64)
            .u64("t", self.time)
            .raw("missed", &format!("[{}]", missed.join(",")))
            .finish()
    }

    /// Parses a `txn` trace line back into a row.
    ///
    /// # Errors
    ///
    /// Returns a description if the line is not a `txn` event or its
    /// fields are missing, ill-typed, or the miss set is not strictly
    /// increasing below `i`.
    pub fn from_json_line(line: &str) -> Result<StreamRow, String> {
        let v = shard_obs::json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        if v.get("event").and_then(shard_obs::Json::as_str) != Some("txn") {
            return Err("not a txn event".to_string());
        }
        let index = v
            .get("i")
            .and_then(shard_obs::Json::as_u64)
            .ok_or("txn event lacks index field \"i\"")? as usize;
        let time = v
            .get("t")
            .and_then(shard_obs::Json::as_u64)
            .ok_or("txn event lacks time field \"t\"")?;
        let missed: Vec<usize> = v
            .get("missed")
            .and_then(shard_obs::Json::as_arr)
            .ok_or("txn event lacks \"missed\" array")?
            .iter()
            .map(|m| {
                shard_obs::Json::as_u64(m)
                    .map(|m| m as usize)
                    .ok_or_else(|| "non-integer miss entry".to_string())
            })
            .collect::<Result<_, _>>()?;
        let row = StreamRow {
            index,
            time,
            missed,
        };
        if !row.missed_well_formed() {
            return Err(format!(
                "miss set of row {index} is not strictly increasing below {index}"
            ));
        }
        Ok(row)
    }

    /// Whether the miss set is strictly increasing and below `index`.
    pub fn missed_well_formed(&self) -> bool {
        self.missed.windows(2).all(|w| w[0] < w[1])
            && self.missed.last().is_none_or(|&m| m < self.index)
    }
}

/// A compact, independently checkable witness for a monitor verdict —
/// the streaming analogue of the §3.1 counterexamples. Certificates
/// name *rows of the trace*; re-validation reads only those rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// A transitivity violation: `low ∈ 𝒫(mid)`, `mid ∈ 𝒫(top)`, yet
    /// `low ∉ 𝒫(top)` — in miss-set terms, `low ∉ missed(mid)`,
    /// `mid ∉ missed(top)`, `low ∈ missed(top)`.
    Transitivity {
        /// The transaction seen indirectly but not directly.
        low: TxnIndex,
        /// The intermediary that saw `low`.
        mid: TxnIndex,
        /// The transaction that saw `mid` but missed `low`.
        top: TxnIndex,
    },
    /// The row attaining the execution's `max_missed`: a witness that
    /// the execution is **not** (`missed − 1`)-complete.
    KCompleteness {
        /// The witness row.
        index: TxnIndex,
        /// Its miss-set size (the execution's `max_missed`).
        missed: usize,
    },
    /// The pair attaining the execution's minimal delay bound: `seer`
    /// missed `missed` although it ran `bound − 1` ticks later (never
    /// earlier), so no `t < bound` is a valid delay bound.
    DelayBound {
        /// The late transaction whose prefix omitted `missed`.
        seer: TxnIndex,
        /// The omitted predecessor.
        missed: TxnIndex,
        /// `time(seer) − time(missed) + 1` — the execution's
        /// `min_delay_bound`.
        bound: u64,
    },
}

impl Certificate {
    /// The property the certificate witnesses, as its trace name.
    pub fn property(&self) -> &'static str {
        match self {
            Certificate::Transitivity { .. } => "transitivity",
            Certificate::KCompleteness { .. } => "k_completeness",
            Certificate::DelayBound { .. } => "delay_bound",
        }
    }

    /// Serializes the certificate as one JSON object in the trace
    /// vocabulary (schema [`CERT_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let w = shard_obs::ObjWriter::new()
            .str("schema", CERT_SCHEMA)
            .str("property", self.property());
        match *self {
            Certificate::Transitivity { low, mid, top } => w
                .u64("low", low as u64)
                .u64("mid", mid as u64)
                .u64("top", top as u64),
            Certificate::KCompleteness { index, missed } => {
                w.u64("index", index as u64).u64("missed", missed as u64)
            }
            Certificate::DelayBound {
                seer,
                missed,
                bound,
            } => w
                .u64("seer", seer as u64)
                .u64("missed", missed as u64)
                .u64("bound", bound),
        }
        .finish()
    }
}

/// The cumulative verdicts at one window boundary: after `end` rows,
/// over the whole stream so far (not just the window's rows — a
/// violation in window 2 keeps every later verdict false, exactly like
/// the whole-execution readers on the growing prefix).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowVerdict {
    /// 0-based window ordinal.
    pub window: usize,
    /// First row of the window.
    pub start: TxnIndex,
    /// One past the last row of the window.
    pub end: TxnIndex,
    /// `is_transitive` of the first `end` rows.
    pub transitive: bool,
    /// `max_missed` of the first `end` rows.
    pub max_missed: usize,
    /// `min_delay_bound` of the first `end` rows.
    pub delay_bound: u64,
}

impl WindowVerdict {
    /// Renders the verdict as one JSONL trace line
    /// (`{"event":"monitor.window",…}`).
    pub fn to_json_line(&self) -> String {
        shard_obs::ObjWriter::new()
            .str("event", "monitor.window")
            .u64("window", self.window as u64)
            .u64("start", self.start as u64)
            .u64("end", self.end as u64)
            .bool("transitive", self.transitive)
            .u64("max_missed", self.max_missed as u64)
            .u64("delay_bound", self.delay_bound)
            .finish()
    }
}

/// Everything a finished (or in-flight) stream check concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamReport {
    /// Rows consumed.
    pub rows: usize,
    /// `is_transitive` verdict over all consumed rows.
    pub transitive: bool,
    /// `max_missed` over all consumed rows.
    pub max_missed: usize,
    /// `min_delay_bound` over all consumed rows.
    pub min_delay_bound: u64,
    /// One cumulative verdict per completed window.
    pub verdicts: Vec<WindowVerdict>,
    /// Witnesses for the verdicts: the first transitivity violation (if
    /// any), the `max_missed` row (when > 0), and the delay-bound pair
    /// (when > 0) — each independently checkable against the raw trace.
    pub certificates: Vec<Certificate>,
}

impl StreamReport {
    /// The transitivity-violation certificate, if the stream had one.
    pub fn violation(&self) -> Option<&Certificate> {
        self.certificates
            .iter()
            .find(|c| matches!(c, Certificate::Transitivity { .. }))
    }

    /// Renders the summary as one JSONL trace line
    /// (`{"event":"monitor.final",…}`); certificates are separate lines
    /// ([`Certificate::to_json`]).
    pub fn to_json_line(&self) -> String {
        shard_obs::ObjWriter::new()
            .str("event", "monitor.final")
            .u64("rows", self.rows as u64)
            .bool("transitive", self.transitive)
            .u64("max_missed", self.max_missed as u64)
            .u64("delay_bound", self.min_delay_bound)
            .finish()
    }
}

/// The windowed online checker: push rows in serial order, get a
/// cumulative [`WindowVerdict`] back every `window` rows, read the
/// final [`StreamReport`] (verdicts + certificates) at any point.
///
/// State is O(total misses + rows·16B): the flat miss lists hold one
/// entry per (row, missed predecessor) pair until the first violation,
/// plus one end offset and one time per row; windows bound *latency to
/// a verdict*.
#[derive(Clone, Debug)]
pub struct StreamChecker {
    window: usize,
    /// First violation as `(low, mid, top)`.
    first_violation: Option<(TxnIndex, TxnIndex, TxnIndex)>,
    /// Largest miss-set size so far (`max_missed` of the prefix).
    max_missed: usize,
    /// First row attaining `max_missed` (meaningful when > 0).
    worst_row: TxnIndex,
    /// Minimal delay bound of the prefix (0 = no bound is needed).
    delay_bound: u64,
    /// First `(seer, missed)` pair attaining `delay_bound`.
    delay_witness: Option<(TxnIndex, TxnIndex)>,
    /// Initiation time of every consumed row (append-only).
    times: Vec<u64>,
    /// The miss sets of the rows before the first violation,
    /// concatenated in row order.
    missed: Vec<TxnIndex>,
    /// Row `j`'s miss set is `missed[ends[j]..ends[j + 1]]`.
    ends: Vec<usize>,
    /// Scratch for the frontier test's uncovered rows (reused).
    uncovered: Vec<TxnIndex>,
    verdicts: Vec<WindowVerdict>,
}

impl StreamChecker {
    /// A fresh checker emitting a verdict every `window` rows.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "a verdict window must hold at least one row");
        StreamChecker {
            window,
            first_violation: None,
            max_missed: 0,
            worst_row: 0,
            delay_bound: 0,
            delay_witness: None,
            times: Vec::new(),
            missed: Vec::new(),
            ends: vec![0],
            uncovered: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// Rows consumed so far.
    pub fn rows(&self) -> usize {
        self.times.len()
    }

    /// Whether no transitivity violation has been seen yet — the
    /// running verdict, readable between windows without building a
    /// report.
    pub fn transitive_so_far(&self) -> bool {
        self.first_violation.is_none()
    }

    /// Consumes the next row of the serial order; returns the
    /// cumulative verdict when `row` completes a window.
    ///
    /// # Panics
    ///
    /// Panics if `row.index` is not the next expected index or its miss
    /// set is not strictly increasing below it — streams are fed in
    /// serial order by construction, so either is a harness bug (the
    /// CLI validates untrusted traces before pushing).
    pub fn push(&mut self, row: &StreamRow) -> Option<WindowVerdict> {
        let was_transitive = self.transitive_so_far();
        self.admit(row);
        if shard_obs::enabled() {
            let metrics = stream_metrics();
            metrics.rows.inc();
            if was_transitive && !self.transitive_so_far() {
                metrics.violations.inc();
            }
        }
        let rows = self.rows();
        if !rows.is_multiple_of(self.window) {
            return None;
        }
        let verdict = WindowVerdict {
            window: self.verdicts.len(),
            start: rows - self.window,
            end: rows,
            transitive: self.transitive_so_far(),
            max_missed: self.max_missed,
            delay_bound: self.delay_bound,
        };
        self.verdicts.push(verdict);
        if shard_obs::enabled() {
            stream_metrics().windows.inc();
        }
        Some(verdict)
    }

    /// Consumes the next row given by its sorted prefix subsequence.
    /// Decides exactly like [`push`](Self::push) but emits no window
    /// verdict and counts no stream metric: this is the entry of the
    /// whole-execution readers in [`crate::conditions`].
    pub(crate) fn push_prefix(&mut self, prefix: &[TxnIndex], time: u64) {
        let index = self.rows();
        self.admit(&StreamRow {
            index,
            time,
            missed: complement(prefix, index),
        });
    }

    /// The verdict step shared by [`push`](Self::push) and
    /// [`push_prefix`](Self::push_prefix).
    fn admit(&mut self, row: &StreamRow) {
        assert_eq!(
            row.index,
            self.rows(),
            "stream rows must arrive in serial order"
        );
        assert!(
            row.missed_well_formed(),
            "miss set of row {} is not strictly increasing below it",
            row.index
        );
        let (i, m) = (row.index, row.missed.as_slice());

        // k-completeness: the miss-set size IS missed_count(i).
        if m.len() > self.max_missed {
            self.max_missed = m.len();
            self.worst_row = i;
        }

        // Delay bound: missing x is tolerable only for t > timeᵢ − timeₓ;
        // an x initiated after i constrains no t.
        for &x in m {
            if let Some(gap) = row.time.checked_sub(self.times[x]) {
                if gap + 1 > self.delay_bound {
                    self.delay_bound = gap + 1;
                    self.delay_witness = Some((i, x));
                }
            }
        }

        if self.transitive_so_far() {
            match self.frontier_low(i, m) {
                Some(low) => self.first_violation = Some((low, self.witness_mid(low, i, m), i)),
                None => {
                    self.missed.extend_from_slice(m);
                    self.ends.push(self.missed.len());
                }
            }
        }
        self.times.push(row.time);
    }

    /// Row `j`'s miss set (rows before the first violation only).
    fn missed_of(&self, j: TxnIndex) -> &[TxnIndex] {
        &self.missed[self.ends[j]..self.ends[j + 1]]
    }

    /// The frontier test of row `i` with miss set `m`, valid while
    /// every earlier row is transitive: the smallest `x ∈ m` that some
    /// row `i` saw had itself seen, or `None` if row `i` is transitive.
    fn frontier_low(&mut self, i: TxnIndex, m: &[TxnIndex]) -> Option<TxnIndex> {
        // A row at or below the smallest miss saw nothing `m` holds, so
        // neither it nor anything it covers needs a check.
        let &floor = m.first()?;
        // The largest row i saw: below the run of misses ending at i − 1.
        let mut top = i;
        for &x in m.iter().rev() {
            if x + 1 != top {
                break;
            }
            top = x;
        }
        let mut j = top.checked_sub(1).filter(|&j| j > floor)?;
        let mut uncovered = std::mem::take(&mut self.uncovered);
        uncovered.clear();
        // Row j's misses from the floor up: the only ones either test reads.
        let missed_from_floor = |j: TxnIndex| {
            let mj = self.missed_of(j);
            &mj[mj.partition_point(|&x| x < floor)..]
        };
        // 𝒫ⱼ ⊆ 𝒫ᵢ ⟺ m ∩ [0, j) ⊆ Mⱼ; j covers itself and 𝒫ⱼ, so of the
        // rows i saw below j only Mⱼ ∖ m stays uncovered.
        let mj = missed_from_floor(j);
        let mut low = first_escape(m, mj, j);
        uncovered.extend(mj.iter().copied().filter(absent_from(m)));
        while let Some(next) = uncovered.pop() {
            j = next;
            let mj = missed_from_floor(j);
            low = low.into_iter().chain(first_escape(m, mj, j)).min();
            let mut outside_mj = absent_from(mj);
            uncovered.retain(|x| !outside_mj(x));
        }
        self.uncovered = uncovered;
        low
    }

    /// The smallest `j ∈ (low, i)` that row `i` saw and that saw `low`.
    fn witness_mid(&self, low: TxnIndex, i: TxnIndex, m: &[TxnIndex]) -> TxnIndex {
        (low + 1..i)
            .filter(absent_from(m))
            .find(|&j| self.missed_of(j).binary_search(&low).is_err())
            .expect("the frontier test found a seen row that saw low")
    }

    /// The verdicts and certificates for everything consumed so far.
    pub fn report(&self) -> StreamReport {
        let mut certificates = Vec::new();
        if let Some((low, mid, top)) = self.first_violation {
            certificates.push(Certificate::Transitivity { low, mid, top });
        }
        if self.max_missed > 0 {
            certificates.push(Certificate::KCompleteness {
                index: self.worst_row,
                missed: self.max_missed,
            });
        }
        if let Some((seer, missed)) = self.delay_witness {
            certificates.push(Certificate::DelayBound {
                seer,
                missed,
                bound: self.delay_bound,
            });
        }
        StreamReport {
            rows: self.rows(),
            transitive: self.transitive_so_far(),
            max_missed: self.max_missed,
            min_delay_bound: self.delay_bound,
            verdicts: self.verdicts.clone(),
            certificates,
        }
    }
}

/// A membership test against the sorted list `sorted` for queries in
/// increasing order: a merge cursor, so a whole pass costs
/// O(|sorted| + queries). Returns `true` for values *not* in `sorted`.
fn absent_from(sorted: &[TxnIndex]) -> impl FnMut(&TxnIndex) -> bool + '_ {
    let mut k = 0;
    move |&x| {
        while sorted.get(k).is_some_and(|&s| s < x) {
            k += 1;
        }
        sorted.get(k) != Some(&x)
    }
}

/// The smallest `x ∈ m` below `j` that row `j` saw (absent from its
/// miss set `mj`): a transitivity breach through `j` if `i` saw `j`.
fn first_escape(m: &[TxnIndex], mj: &[TxnIndex], j: TxnIndex) -> Option<TxnIndex> {
    m[..m.partition_point(|&x| x < j)]
        .iter()
        .copied()
        .find(absent_from(mj))
}

/// Row `i`'s miss set `{0..i} ∖ prefix`, for a strictly increasing
/// `prefix` below `i`: the gaps between consecutive prefix entries.
fn complement(prefix: &[TxnIndex], i: TxnIndex) -> Vec<TxnIndex> {
    let mut missed = Vec::with_capacity(i - prefix.len());
    let mut next = 0;
    for &p in prefix {
        missed.extend(next..p);
        next = p + 1;
    }
    missed.extend(next..i);
    missed
}

/// Converts a timed execution into its stream rows — each prefix
/// complemented into a miss set. Long executions
/// partition the row range across `pool` (rows are independent and
/// collected in input order, so the result is identical at every
/// thread count).
pub fn rows_from_execution<A: Application>(
    pool: &PoolConfig,
    te: &TimedExecution<A>,
) -> Vec<StreamRow> {
    let prefixes: Vec<&[TxnIndex]> = te
        .execution
        .records()
        .iter()
        .map(|r| r.prefix.as_slice())
        .collect();
    let times = te.times.as_slice();
    let row_of = |i: usize| StreamRow {
        index: i,
        time: times[i],
        missed: complement(prefixes[i], i),
    };
    let n = prefixes.len();
    if n < PAR_THRESHOLD || shard_pool::is_worker() {
        return (0..n).map(row_of).collect();
    }
    shard_pool::par_ranges(pool, n, |range| {
        range.into_iter().map(row_of).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Feeds pre-extracted rows through a fresh checker and reports.
pub fn check_rows(window: usize, rows: &[StreamRow]) -> StreamReport {
    let mut checker = StreamChecker::new(window);
    for row in rows {
        checker.push(row);
    }
    checker.report()
}

/// The offline entry point over the pool: extracts rows in parallel
/// ([`rows_from_execution`]), folds them through one sequential
/// [`StreamChecker`], and reports. The summary verdicts and
/// certificates equal [`TimedExecution::report`]'s at every window and
/// pool size.
pub fn par_check<A: Application>(
    pool: &PoolConfig,
    te: &TimedExecution<A>,
    window: usize,
) -> StreamReport {
    let _span = shard_obs::span!("stream.par_check");
    let rows = rows_from_execution(pool, te);
    check_rows(window, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::is_transitive;
    use crate::conditions::tests::{exec_with_prefixes, Trivial};

    fn timed(prefixes: &[&[usize]], times: &[u64]) -> TimedExecution<Trivial> {
        TimedExecution::new(exec_with_prefixes(prefixes), times.to_vec())
    }

    fn rows_of(te: &TimedExecution<Trivial>) -> Vec<StreamRow> {
        rows_from_execution(&PoolConfig::sequential(), te)
    }

    #[test]
    fn rows_complement_prefixes() {
        let te = timed(&[&[], &[0], &[1], &[0, 2]], &[0, 5, 9, 14]);
        let rows = rows_of(&te);
        assert_eq!(rows[0].missed, Vec::<usize>::new());
        assert_eq!(rows[1].missed, Vec::<usize>::new());
        assert_eq!(rows[2].missed, vec![0]);
        assert_eq!(rows[3].missed, vec![1]);
        assert_eq!(rows[3].time, 14);
    }

    #[test]
    fn verdicts_on_the_paper_shapes() {
        // The §3.2 intransitive shape: 2 sees 1, 1 sees 0, 2 misses 0.
        let te = timed(&[&[], &[0], &[1]], &[0, 10, 20]);
        let report = check_rows(1, &rows_of(&te));
        assert!(!report.transitive);
        assert_eq!(report.max_missed, 1);
        assert_eq!(report.min_delay_bound, 21);
        assert_eq!(
            report.violation(),
            Some(&Certificate::Transitivity {
                low: 0,
                mid: 1,
                top: 2
            })
        );
        // The whole-execution readers fold through the same checker.
        assert!(!is_transitive(&te.execution));
        assert_eq!(te.report().certificates, report.certificates);

        // A transitive shape stays clean at every window size.
        let te = timed(&[&[], &[0], &[0, 1]], &[0, 1, 2]);
        for w in [1, 2, 7] {
            let report = check_rows(w, &rows_of(&te));
            assert!(report.transitive);
            assert_eq!(report.max_missed, 0);
            assert_eq!(report.min_delay_bound, 0);
            assert!(report.violation().is_none());
        }
    }

    #[test]
    fn late_indirect_witnesses_are_caught() {
        // 3 sees 2 (which saw 0 and 1) but misses 1: the witness is not
        // adjacent to the missed transaction.
        let te = timed(&[&[], &[], &[0, 1], &[0, 2]], &[0, 1, 2, 3]);
        let report = check_rows(4, &rows_of(&te));
        assert!(!report.transitive);
        assert_eq!(
            report.violation(),
            Some(&Certificate::Transitivity {
                low: 1,
                mid: 2,
                top: 3
            })
        );
    }

    #[test]
    fn rows_that_missed_the_same_rows_are_no_witnesses() {
        // 3 misses 0; its only in-range peers 1 and 2 also missed 0, so
        // nobody 3 saw had seen 0 — transitive despite the misses.
        let te = timed(&[&[], &[], &[1], &[1, 2]], &[0, 1, 2, 3]);
        let report = check_rows(1, &rows_of(&te));
        assert!(report.transitive, "no witness exists");
        assert_eq!(report.max_missed, 1);
    }

    #[test]
    fn window_verdicts_are_cumulative() {
        // The violation occurs at row 2 (inside window 1); window 2's
        // rows are clean but its verdict must still report it.
        let te = timed(
            &[&[], &[0], &[1], &[0, 1, 2], &[0, 1, 2, 3], &[0, 1, 2, 3, 4]],
            &[0, 1, 2, 3, 4, 5],
        );
        let report = check_rows(2, &rows_of(&te));
        assert_eq!(report.verdicts.len(), 3);
        assert!(report.verdicts[0].transitive, "rows 0-1 are clean");
        assert!(!report.verdicts[1].transitive, "row 2 violates");
        assert!(!report.verdicts[2].transitive, "verdicts are cumulative");
        assert_eq!(report.verdicts[2].start, 4);
        assert_eq!(report.verdicts[2].end, 6);
    }

    #[test]
    fn certificates_serialize_and_rows_round_trip() {
        let cert = Certificate::Transitivity {
            low: 3,
            mid: 5,
            top: 9,
        };
        let json = cert.to_json();
        let v = shard_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(shard_obs::Json::as_str),
            Some(CERT_SCHEMA)
        );
        assert_eq!(
            v.get("property").and_then(shard_obs::Json::as_str),
            Some("transitivity")
        );
        assert_eq!(v.get("top").and_then(shard_obs::Json::as_u64), Some(9));

        let row = StreamRow {
            index: 7,
            time: 42,
            missed: vec![1, 4],
        };
        let line = row.to_json_line();
        assert_eq!(StreamRow::from_json_line(&line).unwrap(), row);
        assert!(StreamRow::from_json_line("{\"event\":\"deliver\"}").is_err());
        assert!(
            StreamRow::from_json_line("{\"event\":\"txn\",\"i\":2,\"t\":0,\"missed\":[2]}")
                .is_err(),
            "miss entries must lie below the row index"
        );
    }

    #[test]
    fn par_rows_match_sequential_rows() {
        // Above PAR_THRESHOLD the extraction takes the partitioned
        // path; rows must be identical to the sequential ones.
        let n = PAR_THRESHOLD + 100;
        let prefixes: Vec<Vec<usize>> = (0..n)
            .map(|i| (usize::from(i % 97 == 3)..i).collect())
            .collect();
        let prefixes: Vec<&[usize]> = prefixes.iter().map(Vec::as_slice).collect();
        let te = timed(&prefixes, &(0..n as u64).collect::<Vec<_>>());
        let seq = rows_of(&te);
        assert_eq!(seq[100].missed, vec![0]);
        assert!(seq[101].missed.is_empty());
        for threads in [2, 7] {
            let par = rows_from_execution(&PoolConfig::with_threads(threads), &te);
            assert_eq!(par, seq, "rows diverge at {threads} threads");
        }
        // Rows 3, 100, …, 1070 miss only row 0, which row 1 saw: the
        // first breach is (0, 1, 3); the widest delay gap is 1070 − 0.
        let report = check_rows(64, &seq);
        assert!(!report.transitive);
        assert_eq!(
            report.violation(),
            Some(&Certificate::Transitivity {
                low: 0,
                mid: 1,
                top: 3
            })
        );
        assert_eq!(report.max_missed, 1);
        assert_eq!(report.min_delay_bound, 1071);
    }

    #[test]
    #[should_panic(expected = "serial order")]
    fn out_of_order_rows_panic() {
        let mut checker = StreamChecker::new(1);
        checker.push(&StreamRow {
            index: 3,
            time: 0,
            missed: vec![],
        });
    }
}
