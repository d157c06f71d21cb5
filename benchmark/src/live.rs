//! The live workload `live-memory`: `shard-runtime` on two node threads
//! under open-loop banking load, eager broadcast, the live §3 monitor on
//! and no store on the live path.
//!
//! A run of `--seconds S` is a series of sub-runs, each a fresh cluster.
//! The end-to-end run makes [`NOMINAL_RUNS`] of them at the nominal rate.
//! Each is certified again offline, and its execution is written to a row
//! store that a fresh process reopens from disk and certifies once more
//! (the restart). Its figures are medians across sub-runs, so one stall
//! of the host cannot move them alone. The traced run re-drives one
//! longer run layer by layer (see [`crate::redrive`]), reports that
//! run's `lat_p99_ms` with every stall in it, and then climbs a fixed
//! offered-rate ladder, [`RUNG_TRIALS`] sub-runs per rung, for
//! `max_rate_tps` (see [`max_rate`]).
//!
//! Every sub-run passes the same oracles (see [`check`]).

use crate::env::RunDir;
use crate::redrive::{self, Redrive};
use crate::rows::{self, Offline};
use crate::stats::{mean_between, median, quantile, ratio, Metrics};
use crate::Outcome;
use shard_apps::banking::{Bank, BankTxn, BankUpdate};
use shard_core::stream::{StreamChecker, StreamRow};
use shard_core::{Application, StreamingExecution};
use shard_obs::RuntimeMetrics;
use shard_runtime::{banking_submissions, run_live, LiveRun, Pacing, RuntimeConfig, Submission};
use shard_sim::kernel::Node;
use shard_sim::{EagerBroadcast, MonitorConfig, Propagation, Timestamp, Transport};
use shard_store::{DiskStore, StoreOptions};
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Node threads: one per core of the reference host (`nproc` = 2).
pub const NODES: u16 = 2;
const ACCOUNTS: u32 = 64;
const MAX_DEBIT: u32 = 100;
const ZIPF_S: f64 = 1.1;
pub const CHECKPOINT_EVERY: usize = 32;
/// Inter-arrival gap at the nominal rate (20 000 txn/s), in µs.
const NOMINAL_GAP_US: u64 = 50;
/// The offered-rate ladder as inter-arrival gaps in µs, slowest rate
/// first (66.7 k to 125 k txn/s).
const LADDER_GAP_US: [u64; 5] = [15, 12, 10, 9, 8];
/// The latency limit `max_rate_tps` is defined against.
pub const P99_LIMIT_MS: f64 = 10.0;
/// Sub-runs at the nominal rate per run.
const NOMINAL_RUNS: usize = 40;
/// Share of `--seconds` each nominal sub-run offers load for.
const NOMINAL_SHARE: f64 = 0.02;
/// Share of `--seconds` each ladder trial offers load for.
const RUNG_SHARE: f64 = 0.03;
/// Trials per ladder rung; a rung counts its best trial, so one hiccup
/// of the host cannot fail it.
const RUNG_TRIALS: usize = 4;
/// Reopens of each restarted row store (the fastest counts).
const REOPENS: usize = 5;
/// Share of `--seconds` the traced run's untraced live run lasts.
const TRACE_SHARE: f64 = 0.25;
/// Load starts this long after the cluster does, once its threads run.
const LEAD_US: u64 = 50_000;
/// A fresh cluster runs behind for its first ~200 ms of load (stalls of
/// up to 90 ms measured on the reference host, on every sub-run but the
/// process's first); latency is taken over submissions due after this
/// much load, the steady state a long-running deployment sees.
const WARMUP_US: u64 = 250_000;
/// The shortest load a sub-run offers, so short `--seconds` still leave
/// post-warm-up samples.
const MIN_LOAD_S: f64 = 0.6;

pub fn bank() -> Bank {
    Bank::new(ACCOUNTS, MAX_DEBIT)
}

pub fn runtime_config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        nodes: NODES,
        seed,
        checkpoint_every: CHECKPOINT_EVERY,
        monitor: Some(MonitorConfig {
            window: rows::CHECKER_WINDOW,
            emit_rows: false,
            abort_on_violation: false,
        }),
        sink: None,
    }
}

/// Eager broadcast under a label of its own, so each sub-run records
/// into fresh `runtime.<label>.*` histograms of the global registry. It
/// delegates the calls the live runtime and the re-drive make.
#[derive(Clone)]
pub struct Strategy {
    label: &'static str,
    inner: EagerBroadcast,
}

impl Strategy {
    fn fresh() -> Strategy {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let n = RUNS.fetch_add(1, Ordering::Relaxed);
        let label = Box::leak(format!("bench.live-memory.{n}").into_boxed_str());
        Strategy {
            label,
            inner: EagerBroadcast { piggyback: false },
        }
    }

    fn metrics(&self) -> RuntimeMetrics {
        RuntimeMetrics::for_mode(self.label)
    }
}

impl Propagation<Bank> for Strategy {
    fn label(&self) -> &'static str {
        self.label
    }

    fn tick_interval(&self) -> Option<u64> {
        Propagation::<Bank>::tick_interval(&self.inner)
    }

    fn on_execute(
        &mut self,
        app: &Bank,
        net: &mut dyn Transport<Bank>,
        node: &Node<Bank>,
        now: u64,
        ts: Timestamp,
        update: &Arc<BankUpdate>,
    ) {
        self.inner.on_execute(app, net, node, now, ts, update)
    }

    fn on_tick(&mut self, app: &Bank, net: &mut dyn Transport<Bank>, node: &Node<Bank>, now: u64) {
        self.inner.on_tick(app, net, node, now)
    }
}

/// One finished sub-run with what it was given.
pub struct Run {
    pub subs: Vec<Submission<BankTxn>>,
    pub live: LiveRun<Bank>,
    /// The strategy as it was before the run (re-drives start from it).
    pub strategy: Strategy,
    /// Generating the submissions, in seconds.
    pub setup_s: f64,
    pub gap_us: u64,
}

/// Sets up and runs one sub-run offering `secs` seconds of load at one
/// submission per `gap_us`.
pub fn run_once(bank: &Bank, gap_us: u64, secs: f64, seed: u64) -> Run {
    let start = Instant::now();
    let n = (secs.max(MIN_LOAD_S) * 1e6 / gap_us as f64) as usize;
    let mut subs = banking_submissions(bank, seed, n, NODES, ZIPF_S, Pacing::Open { gap_us }, None);
    for s in &mut subs {
        s.at_us += LEAD_US;
    }
    let setup_s = start.elapsed().as_secs_f64();
    let strategy = Strategy::fresh();
    let live = run_live(bank, &runtime_config(seed), strategy.clone(), subs.clone());
    Run {
        subs,
        live,
        strategy,
        setup_s,
        gap_us,
    }
}

/// A sub-run's figures, after its oracles.
pub struct Checked {
    pub attempted: usize,
    pub executed: usize,
    /// Quantiles of execution tick minus due time over the submissions
    /// due after warm-up.
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub lat_samples: usize,
    /// `runtime.<mode>.latency_us` quantiles (log₂ buckets, interpolated;
    /// every submission), and exact quantiles over the same submissions,
    /// for the bucket gap.
    pub hist_p50_us: f64,
    pub hist_p99_us: f64,
    pub all_p50_us: f64,
    pub all_p99_us: f64,
    /// Median exact latency over the last tenth of submissions: above
    /// the limit means the backlog was still growing when load ended.
    pub tail_p50_us: f64,
    pub throughput_tps: f64,
    pub queue_depth_p99: f64,
    pub drain_ms: f64,
    pub offline: Offline,
    /// Every §3 row, when kept.
    pub rows: Vec<StreamRow>,
}

/// Checks a sub-run against its oracles, recording any failure:
/// every submission executed at its node in FIFO order; replicas
/// mutually consistent and equal to the serial replay of the report;
/// the live monitor's report equal to the offline check. `keep_rows`
/// keeps the offline check's rows in [`Checked::rows`].
pub fn check(bank: &Bank, run: &Run, keep_rows: bool, failures: &mut Vec<String>) -> Checked {
    let report = &run.live.report;
    let txns = &report.transactions;
    let mut fail = |what: String| failures.push(format!("{} µs gap: {what}", run.gap_us));

    let mut queues: Vec<VecDeque<&Submission<BankTxn>>> = vec![VecDeque::new(); NODES as usize];
    for s in &run.subs {
        queues[s.node.0 as usize].push_back(s);
    }
    let last_due = run.subs.last().map_or(0, |s| s.at_us);
    let mut all = Vec::with_capacity(txns.len());
    let mut steady = Vec::with_capacity(txns.len());
    let mut tail = Vec::new();
    for t in txns {
        match queues[t.node.0 as usize].pop_front() {
            Some(s) if s.decision == t.decision => {
                let lat = t.time.saturating_sub(s.at_us) as f64;
                all.push(lat);
                if s.at_us >= LEAD_US + WARMUP_US {
                    steady.push(lat);
                }
                if (s.at_us - LEAD_US) * 10 >= (last_due - LEAD_US) * 9 {
                    tail.push(lat);
                }
            }
            _ => {
                fail(format!("txn {:?} is not its node's next submission", t.ts));
                break;
            }
        }
    }
    if txns.len() != run.subs.len() {
        fail(format!(
            "executed {} of {} submissions",
            txns.len(),
            run.subs.len()
        ));
    }
    if !report.mutually_consistent() {
        fail("replicas diverged".into());
    }
    let mut serial = bank.initial_state();
    for t in txns {
        bank.apply_in_place(&mut serial, &t.update);
    }
    if report.final_states.first() != Some(&serial) {
        fail("final state differs from the serial replay".into());
    }
    let mut rows = Vec::new();
    let offline = rows::offline_check(report, |row| {
        if keep_rows {
            rows.push(row.clone());
        }
    })
    .unwrap_or_else(|e| {
        fail(format!("offline check: {e}"));
        Offline {
            report: StreamChecker::new(rows::CHECKER_WINDOW).report(),
            k: Vec::new(),
            t_us: Vec::new(),
        }
    });
    if report.monitor.as_ref() != Some(&offline.report) {
        fail("live monitor report differs from the offline check".into());
    }

    let hist = run.strategy.metrics();
    let lat = hist.latency();
    let depth = hist.queue_depth.snapshot();
    let last_exec = txns.iter().map(|t| t.time).max().unwrap_or(0);
    Checked {
        attempted: run.subs.len(),
        executed: txns.len(),
        lat_p50_us: quantile(&mut steady, 0.50),
        lat_p99_us: quantile(&mut steady, 0.99),
        lat_samples: steady.len(),
        hist_p50_us: lat.quantile(0.50),
        hist_p99_us: lat.quantile(0.99),
        all_p50_us: quantile(&mut all, 0.50),
        all_p99_us: quantile(&mut all, 0.99),
        tail_p50_us: median(&tail),
        throughput_tps: txns.len() as f64 / (last_exec.saturating_sub(LEAD_US).max(1) as f64 / 1e6),
        queue_depth_p99: depth.quantile(0.99),
        drain_ms: run.live.wall_us.saturating_sub(last_due) as f64 / 1e3,
        offline,
        rows,
    }
}

/// Writes a checked sub-run's §3 rows to a fresh row store at `dir`
/// through `StreamingExecution` (one sync at the end), closes the store,
/// then reopens it in a fresh process, which certifies it again. The
/// rows are dropped once written.
fn restart(
    run: &Run,
    checked: &mut Checked,
    dir: &Path,
    failures: &mut Vec<String>,
) -> io::Result<rows::Recheck> {
    let (store, _) = DiskStore::open(dir, StoreOptions::default())?;
    let mut exec: StreamingExecution<Bank> = StreamingExecution::new(Box::new(store));
    let txns = &run.live.report.transactions;
    for row in std::mem::take(&mut checked.rows) {
        exec.push(row.time, &row.missed, &txns[row.index].update)?;
    }
    exec.sync()?;
    let written = exec.len();
    drop(exec);
    let recheck = rows::restart_in_child(dir, written, REOPENS, 1)?;
    if recheck.digest != rows::digest(&checked.offline.report) || recheck.entries != written {
        failures.push("re-certified row store differs from the offline check".into());
    }
    Ok(recheck)
}

/// A trial's log p99 in µs; a trial whose backlog was still growing
/// counts as over the limit whatever its p99.
fn log_p99(c: &Checked) -> f64 {
    let limit_us = P99_LIMIT_MS * 1e3;
    let p99 = c.lat_p99_us.max(1.0);
    if c.tail_p50_us > limit_us {
        p99.max(limit_us * 1.01).ln()
    } else {
        p99.ln()
    }
}

/// The offered rate at which p99 reaches [`P99_LIMIT_MS`], from each
/// rung's log p99 (the best of its trials). These are made
/// non-decreasing in the rate by pooling adjacent violators, so a
/// metastable rung is averaged with its neighbours instead of deciding
/// alone; the first crossing of the limit is then interpolated linearly
/// between its two rungs.
fn max_rate(rungs: &[(f64, f64)]) -> f64 {
    let limit = (P99_LIMIT_MS * 1e3).ln();
    let logs: Vec<f64> = rungs.iter().map(|r| r.1).collect();
    let fit = non_decreasing(&logs);
    match fit.iter().position(|&y| y > limit) {
        // Never crossed: the fastest rung is a lower bound.
        None => rungs[rungs.len() - 1].0,
        // Crossed below the slowest rung: scale it by the p99 excess.
        Some(0) => rungs[0].0 * (limit - fit[0]).exp(),
        Some(i) => {
            let (r0, r1) = (rungs[i - 1].0, rungs[i].0);
            r0 + (limit - fit[i - 1]) / (fit[i] - fit[i - 1]) * (r1 - r0)
        }
    }
}

/// The least-squares non-decreasing fit of `ys` (pool adjacent
/// violators).
fn non_decreasing(ys: &[f64]) -> Vec<f64> {
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &y in ys {
        blocks.push((y, 1));
        while let [.., (s0, n0), (s1, n1)] = blocks[..] {
            if s0 / n0 as f64 <= s1 / n1 as f64 {
                break;
            }
            blocks.pop();
            *blocks.last_mut().expect("two blocks were present") = (s0 + s1, n0 + n1);
        }
    }
    blocks
        .iter()
        .flat_map(|&(s, n)| std::iter::repeat_n(s / n as f64, n))
        .collect()
}

/// The end-to-end run.
pub fn measure(seed: u64, secs: f64, dir: &RunDir) -> io::Result<Outcome> {
    let bank = bank();
    let mut out = Outcome::default();
    let (mut setups, mut throughputs, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut reopens = Vec::new();
    let mut recheck_rates = Vec::new();
    for i in 0..NOMINAL_RUNS {
        let run = run_once(&bank, NOMINAL_GAP_US, secs * NOMINAL_SHARE, seed + i as u64);
        setups.push(run.setup_s);
        let mut checked = check(&bank, &run, true, &mut out.failures);
        let (folded, fold_s) = rows::timed_fold(&checked.rows);
        if folded != checked.offline.report {
            out.failures
                .push("timed checker fold differs from the offline check".into());
        }
        recheck_rates.push(checked.rows.len() as f64 / fold_s);
        let recheck = restart(&run, &mut checked, &dir.fresh("rows")?, &mut out.failures)?;
        reopens.push(recheck.reopen_s());
        out.count(&checked);
        println!(
            "nominal {}/{NOMINAL_RUNS}: {} txns at {:.0}/s, p50 {:.0} µs, p99 {:.0} µs \
             ({} samples), {:.0} txn/s, wall {:.2} s; checker fold {:.4} s; \
             restart: reopen {:.4} s, store re-check {:.4} s",
            i + 1,
            checked.executed,
            1e6 / NOMINAL_GAP_US as f64,
            checked.lat_p50_us,
            checked.lat_p99_us,
            checked.lat_samples,
            checked.throughput_tps,
            run.live.wall_us as f64 / 1e6,
            fold_s,
            recheck.reopen_s(),
            recheck.check_s()
        );
        throughputs.push(checked.throughput_tps);
        p50s.push(checked.lat_p50_us);
    }

    let m = &mut out.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("throughput_tps", median(&throughputs), "txn/s");
    m.put("lat_p50_ms", mean_between(&p50s, 0.25, 0.75) / 1e3, "ms");
    m.put("recheck_tps", median(&recheck_rates), "rows/s");
    m.put("reopen_s", median(&reopens), "s");
    Ok(out)
}

/// Runs the offered-rate ladder and returns `max_rate_tps`.
fn ladder(bank: &Bank, seed: u64, secs: f64, out: &mut Outcome) -> f64 {
    let mut rungs = Vec::new();
    for (i, &gap) in LADDER_GAP_US.iter().enumerate() {
        let mut trials = Vec::with_capacity(RUNG_TRIALS);
        for trial in 0..RUNG_TRIALS {
            let run_seed = seed + 100 + (i * RUNG_TRIALS + trial) as u64;
            let run = run_once(bank, gap, secs * RUNG_SHARE, run_seed);
            let checked = check(bank, &run, false, &mut out.failures);
            out.count(&checked);
            trials.push(log_p99(&checked));
        }
        let rate = 1e6 / gap as f64;
        let p99_ms: Vec<String> = trials
            .iter()
            .map(|y| format!("{:.1}", y.exp() / 1e3))
            .collect();
        println!("rung {rate:.0}/s: trial p99 {} ms", p99_ms.join(" "));
        rungs.push((rate, trials.iter().copied().fold(f64::INFINITY, f64::min)));
    }
    max_rate(&rungs)
}

/// The traced run: one untraced run, its schedule re-driven through the
/// layers' public calls with timers on and again with them off, then the
/// ladder.
pub fn trace(seed: u64, secs: f64) -> Outcome {
    let bank = bank();
    let mut out = Outcome::default();
    let run = run_once(&bank, NOMINAL_GAP_US, secs * TRACE_SHARE, seed);
    let checked = check(&bank, &run, false, &mut out.failures);
    out.count(&checked);

    let timed = redrive::redrive(&bank, &run, true);
    let untimed = redrive::redrive(&bank, &run, false);
    for (r, what) in [(&timed, "timed"), (&untimed, "untimed")] {
        if r.final_states != run.live.report.final_states {
            out.failures.push(format!(
                "{what} re-drive: final states differ from the live run"
            ));
        }
        if Some(&r.monitor) != run.live.report.monitor.as_ref() {
            out.failures.push(format!(
                "{what} re-drive: monitor report differs from the live run"
            ));
        }
    }
    report_trace(&mut out.metrics, &checked, &timed, &untimed);
    println!(
        "traced run: p99 {:.0} µs over {} post-warm-up submissions",
        checked.lat_p99_us, checked.lat_samples
    );
    out.metrics
        .put("lat_p99_ms", checked.lat_p99_us / 1e3, "ms");
    let rate = ladder(&bank, seed, secs, &mut out);
    out.metrics.put("max_rate_tps", rate, "txn/s");
    out
}

fn report_trace(m: &mut Metrics, c: &Checked, t: &Redrive, untimed: &Redrive) {
    let l = &t.layers;
    let txns = l.execute.calls as f64;
    m.put("kernel.execute_calls", txns, "count");
    m.put("kernel.execute_us_p50", l.execute.quantile_us(0.5), "us");
    m.put("kernel.execute_busy_ms", l.execute.busy_ms(), "ms");

    let outcomes = (t.appended + t.out_of_order + t.duplicates) as f64;
    m.put("merge.absorb_calls", l.absorb.calls as f64, "count");
    m.put("merge.absorb_us_p50", l.absorb.quantile_us(0.5), "us");
    m.put("merge.absorb_busy_ms", l.absorb.busy_ms(), "ms");
    m.put(
        "merge.out_of_order_frac",
        ratio(t.out_of_order as f64, outcomes),
        "ratio",
    );
    m.put(
        "merge.replayed_per_out_of_order",
        ratio(t.replayed as f64, t.out_of_order as f64),
        "count",
    );
    m.put(
        "merge.duplicate_frac",
        ratio(t.duplicates as f64, outcomes),
        "ratio",
    );

    let mut k = c.offline.k.clone();
    let mut t_us = c.offline.t_us.clone();
    m.put("prop.sends", t.sends as f64, "count");
    m.put(
        "prop.entries_per_send",
        ratio(t.entries_shipped as f64, t.sends as f64),
        "count",
    );
    m.put(
        "prop.on_execute_us_p50",
        l.on_execute.quantile_us(0.5),
        "us",
    );
    m.put("prop.on_tick_us_p50", l.on_tick.quantile_us(0.5), "us");
    m.put(
        "prop.busy_ms",
        l.on_execute.busy_ms() + l.on_tick.busy_ms(),
        "ms",
    );
    m.put("prop.k_p50", quantile(&mut k, 0.50), "count");
    m.put("prop.k_p99", quantile(&mut k, 0.99), "count");
    m.put("prop.t_p99_ms", quantile(&mut t_us, 0.99) / 1e3, "ms");

    let mon_ms = l.ingest.busy_ms() + l.seal.busy_ms();
    m.put("monitor.rows", t.monitor.rows as f64, "count");
    m.put("monitor.ingest_us_p50", l.ingest.quantile_us(0.5), "us");
    m.put(
        "monitor.seal_us_per_row",
        ratio(l.seal.busy_ms() * 1e3, t.monitor.rows as f64),
        "us",
    );
    m.put("monitor.busy_ms", mon_ms, "ms");

    m.put("runtime.queue_depth_p99", c.queue_depth_p99, "count");
    m.put("runtime.drain_ms", c.drain_ms, "ms");
    m.put("runtime.wait_p50_us", c.lat_p50_us - t.service_p50_us, "us");
    m.put(
        "runtime.lat_bucket_gap_p50_pct",
        100.0 * ratio(c.hist_p50_us - c.all_p50_us, c.all_p50_us),
        "%",
    );
    m.put(
        "runtime.lat_bucket_gap_p99_pct",
        100.0 * ratio(c.hist_p99_us - c.all_p99_us, c.all_p99_us),
        "%",
    );

    let wall_ms = t.wall.as_secs_f64() * 1e3;
    let attributed = l.all().iter().map(|x| x.busy_ms()).sum::<f64>();
    m.put("trace.wall_ms", wall_ms, "ms");
    m.put(
        "trace.unattributed_pct",
        100.0 * ratio(wall_ms - attributed, wall_ms),
        "%",
    );
    let base = untimed.wall.as_secs_f64() * 1e3;
    m.put(
        "trace.overhead_pct",
        100.0 * ratio(wall_ms - base, base),
        "%",
    );
}

#[cfg(test)]
mod tests {
    use super::non_decreasing;

    #[test]
    fn adjacent_violators_are_pooled() {
        assert_eq!(non_decreasing(&[1.0, 3.0, 2.0, 4.0]), [1.0, 2.5, 2.5, 4.0]);
        assert_eq!(non_decreasing(&[3.0, 2.0, 1.0]), [2.0, 2.0, 2.0]);
        assert_eq!(non_decreasing(&[1.0, 2.0]), [1.0, 2.0]);
    }
}
