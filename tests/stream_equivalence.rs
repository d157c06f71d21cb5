//! The §3 checker against a literal oracle: on random executions from
//! all five applications, the windowed [`StreamChecker`] fold (through
//! `par_check`, at several window and pool sizes) and the
//! whole-execution readers built on it (`is_transitive`,
//! `TimedExecution::report`) must reach exactly what a naive, set-based
//! reading of the §3.2 definitions says — the verdicts at every window
//! boundary, and the *identical* certificates: the canonical first
//! transitivity breach, the first row attaining `max_missed`, and the
//! first pair attaining the smallest delay bound. Every certificate must
//! also re-validate through the shared-nothing `shard-trace certify`
//! validator against a JSONL trace synthesized from the same rows.
//! Window sizes {1, 7, 64} cross verdict boundaries at every alignment;
//! pool sizes {1, 2, 7} pin thread-count invariance of the row
//! extraction.
//!
//! Executions mix three shapes: sparse or dense misses among the eight
//! most recent predecessors, an *island* window in which two groups of
//! transactions miss each other's rows (a partition, with its long runs
//! of misses and a frontier two rows wide), and non-orderly initiation
//! times.
//!
//! The same executions then take the out-of-core path: rows are
//! serialized into a [`StreamingExecution`] and folded back off the
//! store cursor, cold-tiered [`Checkpoints`] floors (at spill
//! spacings {1, 16, 256}) are compared against the in-memory actual
//! states, and `check_stream` off the store must produce *the same
//! [`StreamReport`]* — verdicts, certificates and all — as `par_check`
//! over the in-memory execution at pool sizes {1, 4}.
//!
//! [`StreamChecker`]: shard::core::StreamChecker
//! [`StreamingExecution`]: shard::core::StreamingExecution
//! [`Checkpoints`]: shard::core::Checkpoints
//! [`StreamReport`]: shard::core::StreamReport

use proptest::prelude::*;
use shard::apps::airline::{AirlineTxn, FlyByNight};
use shard::apps::banking::{AccountId, Bank, BankTxn};
use shard::apps::dictionary::{DictTxn, Dictionary};
use shard::apps::inventory::{InvTxn, ItemId, Order, OrderId, Warehouse};
use shard::apps::nameserver::{GroupId, Name, NameServer, NsTxn};
use shard::apps::Person;
use shard::core::conditions::is_transitive;
use shard::core::stream::{par_check, rows_from_execution, CERT_SCHEMA};
use shard::core::{
    Application, Certificate, Checkpoints, ExecutionBuilder, StreamingExecution, TimedExecution,
    TxnIndex,
};
use shard::store::{Codec, MemStore};
use shard_pool::PoolConfig;
use std::collections::BTreeSet;
use std::ops::Range;

const WINDOWS: [usize; 3] = [1, 7, 64];
const POOLS: [usize; 3] = [1, 2, 7];
/// Spill spacings for the out-of-core leg: every eviction spilled,
/// sparse anchors, and effectively never (at these sizes) spilled.
const SPACINGS: [usize; 3] = [1, 16, 256];
/// Pool sizes the store-backed report must match `par_check` at.
const STREAM_POOLS: [usize; 2] = [1, 4];

/// One generated transaction: a decision, a random word (bits 0–7 and
/// their rotations mask the eight most recent predecessors; bit 63
/// picks the island group), the time gap since the previous
/// transaction, and a skew that pulls a non-orderly initiation time
/// back.
type Gen<D> = (D, u64, u64, u64);

/// The execution-wide shape of a generated case.
#[derive(Clone, Debug)]
struct Shape {
    /// Rows in this range miss the rows of the other group in it.
    island: Range<usize>,
    /// How many rotated copies of the word thin the recent-miss mask
    /// (0: each recent predecessor missed with probability ½, halving
    /// per copy; 6: none).
    sparsity: u32,
    /// Whether initiation times ignore the skew (stay monotone).
    orderly: bool,
}

/// Builds the timed execution a kernel run would have produced: each
/// transaction sees all predecessors except the masked recent ones and,
/// inside the island window, the other group's rows; initiation times
/// are the prefix sums of the gaps, pulled back by the skews unless the
/// shape is orderly.
fn timed<A: Application>(app: &A, txns: Vec<Gen<A::Decision>>, shape: &Shape) -> TimedExecution<A> {
    let mut b = ExecutionBuilder::new(app);
    let mut times = Vec::with_capacity(txns.len());
    let mut groups = Vec::with_capacity(txns.len());
    let mut now = 0u64;
    for (decision, word, gap, skew) in txns {
        let i = b.len();
        let mask = match shape.sparsity {
            6 => 0,
            k => (1..=k).fold(word, |m, r| m & word.rotate_right(8 * r)),
        };
        let group = word >> 63;
        let mut missing: BTreeSet<TxnIndex> = (0..8)
            .filter(|bit| mask >> bit & 1 == 1)
            .filter_map(|bit| i.checked_sub(bit + 1))
            .collect();
        if shape.island.contains(&i) {
            missing.extend((shape.island.start..i).filter(|&j| groups[j] != group));
        }
        groups.push(group);
        b.push_missing(decision, &missing.into_iter().collect::<Vec<_>>())
            .expect("valid prefix");
        now += gap;
        times.push(if shape.orderly {
            now
        } else {
            now.saturating_sub(skew)
        });
    }
    TimedExecution::new(b.finish(), times)
}

/// The §3.2 definitions read literally off the prefix sets — the
/// oracle the checker must match.
struct Oracle {
    /// The canonical first transitivity breach `(low, mid, top)`: the
    /// first row `top` with one, its smallest missed `low` that some
    /// seen row had seen, then the smallest such `mid`.
    violation: Option<(TxnIndex, TxnIndex, TxnIndex)>,
    /// Per row: how many predecessors it missed.
    missed: Vec<usize>,
    /// Per row: the smallest `t` its misses allow (`tᵢ` with
    /// `timeⱼ + t > timeᵢ` for every missed `j`).
    bound: Vec<u64>,
    /// The execution's certificates, in the checker's order.
    certificates: Vec<Certificate>,
}

fn oracle<A: Application>(te: &TimedExecution<A>) -> Oracle {
    let n = te.execution.len();
    let times = &te.times;
    let sets: Vec<BTreeSet<TxnIndex>> = (0..n)
        .map(|i| te.execution.record(i).prefix.iter().copied().collect())
        .collect();
    let seen = &sets;
    let misses = |i: usize| (0..i).filter(move |j| !seen[i].contains(j));
    let violation = (0..n).find_map(|top| {
        misses(top).find_map(|low| {
            (low + 1..top)
                .find(|mid| seen[top].contains(mid) && seen[*mid].contains(&low))
                .map(|mid| (low, mid, top))
        })
    });
    // t-bounded delay, literally: each missed j has timeⱼ + t > timeᵢ.
    let pair_bound = |i: usize, j: usize| (times[i] + 1).saturating_sub(times[j]);
    let bounded = |t: u64| (0..n).all(|i| misses(i).all(|j| times[j] + t > times[i]));
    let missed: Vec<usize> = (0..n).map(|i| misses(i).count()).collect();
    let bound: Vec<u64> = (0..n)
        .map(|i| misses(i).map(|j| pair_bound(i, j)).max().unwrap_or(0))
        .collect();
    let t = bound.iter().copied().max().unwrap_or(0);
    assert!(bounded(t), "oracle: the delay bound {t} must hold");
    assert!(
        t == 0 || !bounded(t - 1),
        "oracle: {t} must be the smallest bound"
    );

    let mut certificates = Vec::new();
    if let Some((low, mid, top)) = violation {
        certificates.push(Certificate::Transitivity { low, mid, top });
    }
    let k = missed.iter().copied().max().unwrap_or(0);
    if k > 0 {
        let index = missed
            .iter()
            .position(|&m| m == k)
            .expect("max is attained");
        certificates.push(Certificate::KCompleteness { index, missed: k });
    }
    if t > 0 {
        let (seer, missed) = (0..n)
            .flat_map(|i| misses(i).map(move |j| (i, j)))
            .find(|&(i, j)| pair_bound(i, j) == t)
            .expect("the bound is attained");
        certificates.push(Certificate::DelayBound {
            seer,
            missed,
            bound: t,
        });
    }
    Oracle {
        violation,
        missed,
        bound,
        certificates,
    }
}

/// The property: every `(window, pool)` combination of the streaming
/// pipeline, and the whole-execution readers, reach exactly the
/// oracle's verdicts and certificates; every certificate independently
/// re-validates against the row trace; and the store-backed out-of-core
/// path reproduces the in-memory fold, floors and reports exactly.
fn assert_checker_matches_oracle<A>(app: &A, txns: Vec<Gen<A::Decision>>, shape: Shape)
where
    A: Application,
    A::State: Codec,
    A::Update: Codec,
{
    let te = timed(app, txns, &shape);
    assert_streaming_matches_in_memory(app, &te);
    let want = oracle(&te);
    let n = te.execution.len();

    let whole = te.report();
    assert_eq!(whole.rows, n);
    assert_eq!(
        whole.certificates, want.certificates,
        "report() certificates"
    );
    assert_eq!(is_transitive(&te.execution), want.violation.is_none());

    // The synthesized trace: exactly the `txn` lines a monitored kernel
    // run (or `shard-trace watch`) would carry.
    let rows = rows_from_execution(&PoolConfig::sequential(), &te);
    let trace: String = rows.iter().map(|r| r.to_json_line() + "\n").collect();

    for window in WINDOWS {
        let mut against: Option<shard::core::StreamReport> = None;
        for pool in POOLS {
            let report = par_check(&PoolConfig::with_threads(pool), &te, window);
            assert_eq!(
                (report.transitive, report.max_missed, report.min_delay_bound),
                (whole.transitive, whole.max_missed, whole.min_delay_bound),
                "window {window} pool {pool}: summary verdicts"
            );
            assert_eq!(
                report.certificates, want.certificates,
                "window {window} pool {pool}: certificates"
            );
            assert_eq!(
                report.verdicts.len(),
                n / window,
                "one verdict per full window"
            );
            for (w, v) in report.verdicts.iter().enumerate() {
                let end = (w + 1) * window;
                assert_eq!((v.window, v.start, v.end), (w, w * window, end));
                assert_eq!(
                    v.transitive,
                    want.violation.is_none_or(|(_, _, top)| top >= end),
                    "window {window}: transitivity after {end} rows"
                );
                assert_eq!(
                    v.max_missed,
                    want.missed[..end].iter().copied().max().unwrap()
                );
                assert_eq!(
                    v.delay_bound,
                    want.bound[..end].iter().copied().max().unwrap()
                );
            }
            for cert in &report.certificates {
                let v = shard_obs::certify(&trace, &cert.to_json())
                    .unwrap_or_else(|e| panic!("certificate {} rejected: {e}", cert.to_json()));
                assert_eq!(v.property, cert.property(), "validated property");
            }
            match &against {
                None => against = Some(report),
                Some(first) => assert_eq!(
                    first, &report,
                    "window {window}: pools {} and {pool} disagree",
                    POOLS[0]
                ),
            }
        }
    }
}

/// The out-of-core leg: serialize the execution's rows through a
/// store, then demand the store-backed traversals are *identical* to
/// the in-memory ones — the same actual state at every prefix length,
/// the same floors out of spilled checkpoints at every spacing, and
/// the same `StreamReport` (verdicts *and* certificates; the report is
/// `Eq`) as `par_check` at every `(window, pool)`.
fn assert_streaming_matches_in_memory<A>(app: &A, te: &TimedExecution<A>)
where
    A: Application,
    A::State: Codec,
    A::Update: Codec,
{
    // Ground truth: the in-memory actual state at every prefix length
    // 0..=n, exactly as `Execution::fold_actual_states` visits them.
    let mut expected: Vec<A::State> = Vec::with_capacity(te.execution.len() + 1);
    te.execution
        .for_each_actual_state(app, |_, s| expected.push(s.clone()));

    let mut se = StreamingExecution::<A>::from_timed_execution(
        Box::new(MemStore::new()),
        &PoolConfig::sequential(),
        te,
    )
    .expect("memory-backed store never fails");
    assert_eq!(se.len(), te.execution.len(), "row count");

    // Fold equality, state by state, straight off the store cursor.
    let mut folded = Vec::with_capacity(expected.len());
    se.fold_actual_states(app, (), |(), m, s| {
        assert_eq!(m, folded.len(), "fold visits prefixes in order");
        folded.push(s.clone());
    })
    .expect("memory-backed store never fails");
    assert_eq!(folded, expected, "streaming fold ≠ in-memory fold");

    // Checker equivalence: the single-pass report off the store equals
    // the in-memory parallel check at every window and pool size.
    for window in WINDOWS {
        let streamed = se
            .check_stream(window)
            .expect("memory-backed store never fails");
        for pool in STREAM_POOLS {
            let in_memory = par_check(&PoolConfig::with_threads(pool), te, window);
            assert_eq!(
                streamed, in_memory,
                "window {window} pool {pool}: store-backed report diverged"
            );
        }
    }

    // Spilled-checkpoint floors: record every actual state into a
    // spilling sequence at each spacing, then ask for a floor at every
    // depth. Whatever floor comes back — hot, or decoded from a
    // spilled record — must be the in-memory state at that depth; with
    // spacing 1 nothing is ever dropped, so the floor must be exact.
    for spacing in SPACINGS {
        let mut ckpts =
            Checkpoints::<A::State>::with_cold_tier(Box::new(MemStore::new()), 1, 2, spacing);
        for (m, s) in expected.iter().enumerate().skip(1) {
            ckpts.record(m, s, |s| app.state_size_hint(s));
        }
        for (m, want) in expected.iter().enumerate().skip(1) {
            match ckpts.floor(m) {
                Some((depth, got)) => {
                    assert!(
                        depth <= m,
                        "spacing {spacing}: floor {depth} above limit {m}"
                    );
                    assert_eq!(
                        &got, &expected[depth],
                        "spacing {spacing}: floor at {m} returned a wrong state for depth {depth}"
                    );
                    if spacing == 1 {
                        assert_eq!(depth, m, "spacing 1 keeps every point");
                        assert_eq!(&got, want, "spacing 1: exact state at {m}");
                    }
                }
                None => assert_ne!(spacing, 1, "spacing 1 must always produce a floor at {m}"),
            }
        }
    }
}

/// The emitter and the independent validator must agree on the schema
/// tag, or every certificate round-trip would fail on shape alone.
#[test]
fn certificate_schema_constants_agree() {
    assert_eq!(CERT_SCHEMA, shard_obs::CERT_SCHEMA);
}

fn airline_txn() -> impl Strategy<Value = AirlineTxn> {
    prop_oneof![
        (1u32..6).prop_map(|p| AirlineTxn::Request(Person(p))),
        (1u32..6).prop_map(|p| AirlineTxn::Cancel(Person(p))),
        Just(AirlineTxn::MoveUp),
        Just(AirlineTxn::MoveDown),
    ]
}

fn bank_txn() -> impl Strategy<Value = BankTxn> {
    prop_oneof![
        ((1u32..4), (1u32..200)).prop_map(|(a, x)| BankTxn::Deposit(AccountId(a), x)),
        ((1u32..4), (1u32..200)).prop_map(|(a, x)| BankTxn::Withdraw(AccountId(a), x)),
        ((1u32..4), (1u32..4), (1u32..100)).prop_map(|(a, b, x)| BankTxn::Transfer(
            AccountId(a),
            AccountId(b),
            x
        )),
        (1u32..4).prop_map(|a| BankTxn::Reconcile(AccountId(a))),
        Just(BankTxn::Audit),
    ]
}

fn dict_txn() -> impl Strategy<Value = DictTxn> {
    prop_oneof![
        ((1u32..8), (1u64..100)).prop_map(|(k, v)| DictTxn::Insert(k, v)),
        (1u32..8).prop_map(DictTxn::Delete),
        (1u32..8).prop_map(DictTxn::Lookup),
    ]
}

fn inventory_txn() -> impl Strategy<Value = InvTxn> {
    let item = 0u32..3;
    let id = 1u32..12;
    prop_oneof![
        (item.clone(), id.clone(), 1u64..5).prop_map(|(i, o, q)| InvTxn::PlaceOrder {
            item: ItemId(i),
            order: Order {
                id: OrderId(o),
                qty: q,
            },
        }),
        (item.clone(), id).prop_map(|(i, o)| InvTxn::CancelOrder {
            item: ItemId(i),
            id: OrderId(o),
        }),
        item.clone()
            .prop_map(|i| InvTxn::Promote { item: ItemId(i) }),
        item.clone()
            .prop_map(|i| InvTxn::Unship { item: ItemId(i) }),
        (item, 1u64..10).prop_map(|(i, q)| InvTxn::Restock {
            item: ItemId(i),
            qty: q,
        }),
    ]
}

fn nameserver_txn() -> impl Strategy<Value = NsTxn> {
    let name = 1u32..8;
    prop_oneof![
        (name.clone(), 1u64..100).prop_map(|(n, a)| NsTxn::Register(Name(n), a)),
        name.clone().prop_map(|n| NsTxn::Deregister(Name(n))),
        ((0u32..3), name.clone()).prop_map(|(g, n)| NsTxn::AddMember(GroupId(g), Name(n))),
        ((0u32..3), name.clone()).prop_map(|(g, n)| NsTxn::RemoveMember(GroupId(g), Name(n))),
        (0u32..3).prop_map(|g| NsTxn::Scavenge(GroupId(g))),
        name.prop_map(|n| NsTxn::Lookup(Name(n))),
    ]
}

/// `(decision, word, time gap, skew)` tuples; gaps up to 20 keep the
/// delay-bound witness nontrivial, and skews up to 30 reorder times
/// across several transactions.
fn txns<D: std::fmt::Debug>(
    d: impl Strategy<Value = D>,
) -> impl Strategy<Value = Vec<(D, u64, u64, u64)>> {
    proptest::collection::vec((d, any::<u64>(), 0u64..20, 0u64..30), 1..70)
}

/// An island of up to 40 rows starting anywhere in the execution, a
/// recent-miss sparsity, and orderly or skewed times.
fn shape() -> impl Strategy<Value = Shape> {
    ((0usize..70, 0usize..40), 0u32..7, any::<bool>()).prop_map(
        |((start, len), sparsity, orderly)| Shape {
            island: start..start + len,
            sparsity,
            orderly,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Airline: the checker's verdicts and certificates equal the oracle's.
    #[test]
    fn airline_stream_matches_offline(t in txns(airline_txn()), s in shape()) {
        assert_checker_matches_oracle(&FlyByNight::new(2), t, s);
    }

    /// Banking: the checker's verdicts and certificates equal the oracle's.
    #[test]
    fn bank_stream_matches_offline(t in txns(bank_txn()), s in shape()) {
        assert_checker_matches_oracle(&Bank::new(3, 200), t, s);
    }

    /// Dictionary: the checker's verdicts and certificates equal the oracle's.
    #[test]
    fn dictionary_stream_matches_offline(t in txns(dict_txn()), s in shape()) {
        assert_checker_matches_oracle(&Dictionary, t, s);
    }

    /// Inventory: the checker's verdicts and certificates equal the oracle's.
    #[test]
    fn inventory_stream_matches_offline(t in txns(inventory_txn()), s in shape()) {
        assert_checker_matches_oracle(&Warehouse::new(3, 10, 7, 3), t, s);
    }

    /// Name server: the checker's verdicts and certificates equal the oracle's.
    #[test]
    fn nameserver_stream_matches_offline(t in txns(nameserver_txn()), s in shape()) {
        assert_checker_matches_oracle(&NameServer::new(3, 5), t, s);
    }
}
