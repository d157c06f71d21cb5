//! The out-of-core audit workload: E25's pipeline at 10⁶ banking
//! transactions, single-threaded and deterministic.
//!
//! Deliveries are block-shuffled (displacement below [`BLOCK`]) and
//! streamed through a [`StreamingMerge`] whose rows and cold checkpoint
//! anchors live in two [`DiskStore`]s with the default 64-frame pool —
//! far smaller than the ≈107 MB row store, so the re-check scans more
//! than the cache holds. Then the row store is closed, reopened from
//! disk and certified a second time off its cursor.
//!
//! Set-up generates the deliveries into memory and creates the stores;
//! the serial reference replay the oracle compares against runs outside
//! every timer.

use crate::env::RunDir;
use crate::rows::{self, CHECKER_WINDOW};
use crate::stats::{median, Hist, Layer, Metrics};
use crate::Outcome;
use shard_apps::banking::{AccountId, Bank, BankState, BankUpdate};
use shard_core::Application;
use shard_obs::Registry;
use shard_sim::{NodeId, StreamingMerge, Timestamp};
use shard_store::{CrashReport, DiskStore, Store, StoreKey, StoreOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Transactions per pass.
const TXNS: usize = 1_000_000;
/// Delivery displacement bound = reorder-window capacity.
const BLOCK: usize = 64;
const ACCOUNTS: u32 = 8;
const MAX_DEBIT: u32 = 1_000_000;
const CHECKPOINT_EVERY: usize = 1024;
const HOT_POINTS: usize = 4;
const SPILL_SPACING: usize = 16;
/// Set-ups per run (the median is reported).
const SETUPS: usize = 5;
/// Reopens of the 10⁶-row store per run (the fastest is reported).
const AUDIT_REOPENS: usize = 3;
/// Offer-to-seal latencies are tracked in a ring this long; a
/// transaction seals within `2 × BLOCK` offers of its own.
const RING: usize = 1024;

/// xorshift64* — deterministic, allocation-free workload randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gen_update(rng: &mut Rng) -> BankUpdate {
    let a = AccountId(1 + rng.below(u64::from(ACCOUNTS)) as u32);
    match rng.below(4) {
        0 | 1 => BankUpdate::Credit(a, 1 + rng.below(500) as u32),
        2 => BankUpdate::Debit(a, 1 + rng.below(400) as u32),
        _ => {
            let b = AccountId(1 + rng.below(u64::from(ACCOUNTS)) as u32);
            BankUpdate::Move(a, b, 1 + rng.below(200) as u32)
        }
    }
}

/// Generates the `seed`'s updates block by block: each block goes to
/// `serial` in timestamp order, then to `deliver` shuffled.
fn drive(
    seed: u64,
    mut serial: impl FnMut(&BankUpdate),
    mut deliver: impl FnMut(Timestamp, BankUpdate),
) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1));
    let mut block: Vec<(Timestamp, BankUpdate)> = Vec::with_capacity(BLOCK);
    let mut made = 0usize;
    while made < TXNS {
        block.clear();
        for _ in 0..BLOCK.min(TXNS - made) {
            let u = gen_update(&mut rng);
            serial(&u);
            made += 1;
            let ts = Timestamp {
                lamport: made as u64,
                node: NodeId(0),
            };
            block.push((ts, u));
        }
        for i in (1..block.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            block.swap(i, j);
        }
        for (ts, u) in block.drain(..) {
            deliver(ts, u);
        }
    }
}

/// The serial replay of the `seed`'s updates: the state every pass must
/// reach.
fn reference(bank: &Bank, seed: u64) -> BankState {
    let mut state = bank.initial_state();
    drive(seed, |u| bank.apply_in_place(&mut state, u), |_, _| {});
    state
}

/// Appends and syncs into the traced pass's stores.
#[derive(Default)]
struct StoreCalls {
    append: Layer,
    sync: Layer,
    /// Bytes handed to `append`.
    user_bytes: u64,
}

/// A [`DiskStore`] whose appends and syncs are timed from outside.
struct TimedStore {
    inner: DiskStore,
    calls: Arc<Mutex<StoreCalls>>,
}

impl Store for TimedStore {
    fn append(&mut self, key: StoreKey, value: &[u8]) -> io::Result<()> {
        let mut c = self.calls.lock().expect("store timers are never poisoned");
        c.user_bytes += value.len() as u64;
        c.append.time(true, || self.inner.append(key, value))
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut c = self.calls.lock().expect("store timers are never poisoned");
        c.sync.time(true, || self.inner.sync())
    }

    fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    fn synced_bytes(&self) -> u64 {
        self.inner.synced_bytes()
    }

    fn entries(&self) -> usize {
        self.inner.entries()
    }

    fn scan_arrival(&mut self, f: &mut dyn FnMut(StoreKey, &[u8])) -> io::Result<()> {
        self.inner.scan_arrival(f)
    }

    fn scan_key_order(&mut self, f: &mut dyn FnMut(StoreKey, &[u8])) -> io::Result<()> {
        self.inner.scan_key_order(f)
    }

    fn scan_key_range(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
    ) -> io::Result<()> {
        self.inner.scan_key_range(from, f)
    }

    fn get(&mut self, key: StoreKey) -> io::Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    fn crash(&mut self, keep: u64) -> io::Result<CrashReport> {
        self.inner.crash(keep)
    }
}

/// Opens a fresh store at `dir`, timed when `calls` is given.
fn open_store(
    dir: &Path,
    calls: Option<&Arc<Mutex<StoreCalls>>>,
) -> io::Result<Box<dyn Store + Send>> {
    let (inner, _) = DiskStore::open(dir, StoreOptions::default())?;
    Ok(match calls {
        Some(calls) => Box::new(TimedStore {
            inner,
            calls: Arc::clone(calls),
        }),
        None => Box::new(inner),
    })
}

/// Inputs and empty stores for one pass.
struct Setup {
    /// The deliveries in arrival order; the i-th arrives at tick i.
    deliveries: Vec<(Timestamp, BankUpdate)>,
    root: PathBuf,
    rows_dir: PathBuf,
    merge: StreamingMerge<Bank>,
}

/// Generates the `seed`'s deliveries and opens fresh row and anchor
/// stores under `name`.
fn setup(
    bank: &Bank,
    seed: u64,
    dir: &RunDir,
    name: &str,
    calls: Option<&Arc<Mutex<StoreCalls>>>,
) -> io::Result<Setup> {
    let mut deliveries = Vec::with_capacity(TXNS);
    drive(seed, |_| {}, |ts, u| deliveries.push((ts, u)));
    let root = dir.fresh(name)?;
    let rows_dir = root.join("rows");
    let rows = open_store(&rows_dir, calls)?;
    let anchors = open_store(&root.join("anchors"), calls)?;
    let merge = StreamingMerge::new(
        bank,
        rows,
        anchors,
        BLOCK,
        CHECKPOINT_EVERY,
        HOT_POINTS,
        SPILL_SPACING,
        CHECKER_WINDOW,
    );
    Ok(Setup {
        deliveries,
        root,
        rows_dir,
        merge,
    })
}

/// One pass's figures.
struct Pass {
    stream: Duration,
    offer: Layer,
    /// Offer-to-seal latency per transaction, in ns (timed passes only).
    seal_ns: Hist,
    recheck: rows::Recheck,
    /// Bytes both stores held on disk after streaming.
    disk_bytes: u64,
    wall: Duration,
}

/// Streams, closes, reopens and re-checks; `timed` adds the per-offer
/// timers the latency figures and the trace need.
fn pass(
    bank: &Bank,
    reference: &BankState,
    s: Setup,
    timed: bool,
    failures: &mut Vec<String>,
) -> io::Result<Pass> {
    let Setup {
        deliveries,
        root,
        rows_dir,
        mut merge,
    } = s;
    let mut offer = Layer::default();
    let mut seal_ns = Hist::default();
    let mut offered_at = vec![(0u64, Instant::now()); RING];
    let mut sealed = 0usize;
    let start = Instant::now();
    for (tick, (ts, u)) in deliveries.into_iter().enumerate() {
        let tick = tick as u64;
        if !timed {
            merge.offer(bank, ts, tick, u)?;
            continue;
        }
        offered_at[ts.lamport as usize % RING] = (ts.lamport, Instant::now());
        offer.time(true, || merge.offer(bank, ts, tick, u))?;
        record_seals(&merge, &offered_at, &mut sealed, &mut seal_ns);
    }
    offer.time(timed, || merge.finish(bank))?;
    if timed {
        record_seals(&merge, &offered_at, &mut sealed, &mut seal_ns);
    }
    let stream = start.elapsed();

    let report = merge.report();
    if merge.sealed() != TXNS {
        failures.push(format!("sealed {} of {TXNS}", merge.sealed()));
    }
    if merge.state() != reference {
        failures.push("streamed state differs from the serial replay".into());
    }
    let (sink, _, anchors) = merge.into_parts();
    drop((sink, anchors));
    let disk_bytes = crate::env::dir_bytes(&root);
    let recheck = rows::reopen_and_check(&rows_dir, TXNS, AUDIT_REOPENS, 1)?;
    if recheck.digest != rows::digest(&report) || recheck.entries == 0 {
        failures.push("online report differs from the second pass off the store".into());
    }
    Ok(Pass {
        stream,
        offer,
        seal_ns,
        recheck,
        disk_bytes,
        wall: start.elapsed(),
    })
}

/// Records the offer-to-seal latency of every row sealed since the last
/// call.
fn record_seals(
    merge: &StreamingMerge<Bank>,
    offered_at: &[(u64, Instant)],
    sealed: &mut usize,
    out: &mut Hist,
) {
    let now = Instant::now();
    while *sealed < merge.sealed() {
        *sealed += 1;
        let (lamport, at) = offered_at[*sealed % RING];
        assert_eq!(lamport, *sealed as u64, "seal within the latency ring");
        out.record((now - at).as_nanos() as u64);
    }
}

/// Set-ups, each timed; the last one is kept for the pass.
fn setups(
    bank: &Bank,
    seed: u64,
    dir: &RunDir,
    calls: Option<&Arc<Mutex<StoreCalls>>>,
) -> io::Result<(f64, Setup)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        let s = setup(bank, seed, dir, &format!("audit-{i}"), calls)?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(s);
    }
    Ok((median(&times), kept.expect("at least one set-up")))
}

pub fn measure(seed: u64, dir: &RunDir) -> io::Result<Outcome> {
    let bank = Bank::new(ACCOUNTS, MAX_DEBIT);
    let mut out = Outcome::default();
    let reference = reference(&bank, seed);
    let (setup_s, s) = setups(&bank, seed, dir, None)?;
    let p = pass(&bank, &reference, s, true, &mut out.failures)?;
    out.attempted += TXNS as u64;
    let stream_s = p.stream.as_secs_f64();
    println!(
        "audit: {TXNS} txns streamed in {stream_s:.3} s, reopened in {:.3} s (fastest of 3, \
         {} entries), re-checked in {:.3} s",
        p.recheck.reopen_s(),
        p.recheck.entries,
        p.recheck.check_s()
    );
    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    m.put("throughput_tps", TXNS as f64 / stream_s, "txn/s");
    m.put("lat_p50_ms", p.seal_ns.quantile(0.50) / 1e6, "ms");
    m.put("recheck_tps", TXNS as f64 / p.recheck.check_s(), "rows/s");
    m.put("reopen_s", p.recheck.reopen_s(), "s");
    Ok(out)
}

pub fn trace(seed: u64, dir: &RunDir) -> io::Result<Outcome> {
    let bank = Bank::new(ACCOUNTS, MAX_DEBIT);
    let mut out = Outcome::default();
    let calls = Arc::new(Mutex::new(StoreCalls::default()));
    let reference = reference(&bank, seed);
    let (_, s) = setups(&bank, seed, dir, None)?;
    let base = pass(&bank, &reference, s, false, &mut out.failures)?;
    let (_, s) = setups(&bank, seed, dir, Some(&calls))?;
    let before = Registry::global().snapshot();
    let p = pass(&bank, &reference, s, true, &mut out.failures)?;
    let after = Registry::global().snapshot();
    out.attempted += 2 * TXNS as u64;

    let c = calls.lock().expect("store timers are never poisoned");
    let delta =
        |name: &str| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64;
    let peak = Registry::global()
        .gauge("state.peak_resident_bytes")
        .get()
        .max(0) as f64;
    let store_ms = c.append.busy_ms() + c.sync.busy_ms();
    let streaming_ms = p.offer.busy_ms() - store_ms;
    let r = &p.recheck;
    let m = &mut out.metrics;
    m.put("store.appends", c.append.calls as f64, "count");
    m.put("store.append_us_p50", c.append.quantile_us(0.5), "us");
    m.put("store.syncs", c.sync.calls as f64, "count");
    m.put("store.sync_us_p50", c.sync.quantile_us(0.5), "us");
    m.put("store.sync_us_p99", c.sync.quantile_us(0.99), "us");
    m.put(
        "store.syncs_per_txn",
        c.sync.calls as f64 / TXNS as f64,
        "ratio",
    );
    m.put(
        "store.bytes_per_user_byte",
        p.disk_bytes as f64 / c.user_bytes.max(1) as f64,
        "ratio",
    );
    m.put("store.busy_ms", store_ms, "ms");
    put_pool(m, &before, &after);
    m.put("lat_p99_ms", p.seal_ns.quantile(0.99) / 1e6, "ms");
    m.put(
        "max_rate_tps",
        TXNS as f64 / p.stream.as_secs_f64(),
        "txn/s",
    );
    m.put("streaming.offer_us_p50", p.offer.quantile_us(0.5), "us");
    m.put("streaming.busy_ms", streaming_ms, "ms");
    m.put("replay.spills", delta("replay.spills"), "count");
    m.put("replay.spill_loads", delta("replay.spill_loads"), "count");
    m.put("replay.applied", delta("replay.applied"), "count");
    m.put("state.peak_resident_bytes", peak, "bytes");
    let check_s = r.check_s();
    m.put("stream.rows_per_s", TXNS as f64 / check_s, "rows/s");
    m.put("stream.busy_ms", check_s * 1e3, "ms");
    m.put("recovery.open_ms", r.reopen_s() * 1e3, "ms");
    m.put("recovery.entries", r.entries as f64, "count");

    let wall_ms = p.wall.as_secs_f64() * 1e3;
    let attributed = streaming_ms + store_ms + (r.opens_s.iter().sum::<f64>() + check_s) * 1e3;
    m.put("trace.wall_ms", wall_ms, "ms");
    m.put(
        "trace.unattributed_pct",
        100.0 * (wall_ms - attributed) / wall_ms,
        "%",
    );
    let base_ms = base.wall.as_secs_f64() * 1e3;
    m.put(
        "trace.overhead_pct",
        100.0 * (wall_ms - base_ms) / base_ms,
        "%",
    );
    Ok(out)
}

/// The buffer-pool counters over an interval, from the global registry.
fn put_pool(m: &mut Metrics, before: &shard_obs::Snapshot, after: &shard_obs::Snapshot) {
    let d = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let (pins, page_reads, readaheads) = (
        d("store.pins"),
        d("store.page_reads"),
        d("store.readaheads"),
    );
    m.put("pool.pins", pins as f64, "count");
    m.put("pool.page_reads", page_reads as f64, "count");
    m.put("pool.page_writes", d("store.page_writes") as f64, "count");
    m.put("pool.evictions", d("store.evictions") as f64, "count");
    m.put("pool.readaheads", readaheads as f64, "count");
    // A pin that had to read its page synchronously missed; pages
    // brought in by readahead and pinned later count as hits.
    let demand_reads = page_reads - readaheads;
    m.put(
        "pool.hit_rate",
        1.0 - crate::stats::ratio(demand_reads as f64, pins as f64),
        "ratio",
    );
}
