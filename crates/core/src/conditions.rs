//! Conditions guaranteed by the system (§3): refinements of the prefix
//! subsequence condition.
//!
//! The bare prefix-subsequence guarantee is too weak on its own — it is
//! satisfied even if every transaction sees the empty prefix. The paper
//! therefore defines refinements the system may additionally guarantee,
//! each trading availability for correctness (§3.2):
//!
//! * **transitivity** — if `T` is in the prefix of `T'` and `T'` in the
//!   prefix of `T''`, then `T` is in the prefix of `T''`;
//! * **k-completeness** — a transaction sees all but at most `k` of its
//!   preceding transactions;
//! * **centralization** of a group `G` — each member of `G` sees all
//!   earlier members of `G` (as if a single "agent" ran them);
//! * **atomicity** of a consecutive run — the run executes without new
//!   information intervening;
//! * **timed executions** with **t-bounded delay** — every transaction
//!   sees all predecessors initiated at least `t` earlier.
//!
//! Transitivity and the delay bound are decided by one algorithm, the
//! frontier test of [`StreamChecker`]:
//! [`is_transitive`] and [`TimedExecution::report`] fold the prefixes
//! through it. The remaining readers here are the definitions
//! themselves, each a direct scan of the sorted prefixes.

use crate::app::Application;
use crate::execution::{Execution, TxnIndex};
use crate::stream::{StreamChecker, StreamReport};
use std::ops::Range;

/// The number of preceding transactions that transaction `i` does **not**
/// see: `i − |𝒫ᵢ|`. Transaction `i` is *k-complete* iff this is ≤ `k`.
///
/// # Panics
///
/// Panics if `i >= exec.len()`.
pub fn missed_count<A: Application>(exec: &Execution<A>, i: TxnIndex) -> usize {
    i - exec.record(i).prefix.len()
}

/// Whether transaction `i` is k-complete in `exec` (§3.2): it sees the
/// results of all but at most `k` of the preceding transactions.
///
/// # Panics
///
/// Panics if `i >= exec.len()`.
pub fn is_k_complete<A: Application>(exec: &Execution<A>, i: TxnIndex, k: usize) -> bool {
    missed_count(exec, i) <= k
}

/// The largest number of missed predecessors over all transactions — the
/// smallest `k` such that *every* transaction is k-complete.
pub fn max_missed<A: Application>(exec: &Execution<A>) -> usize {
    (0..exec.len())
        .map(|i| missed_count(exec, i))
        .max()
        .unwrap_or(0)
}

/// Whether the execution is **transitive** (§3.2): for all `T, T', T''`,
/// if `T ∈ 𝒫(T')` and `T' ∈ 𝒫(T'')` then `T ∈ 𝒫(T'')`.
///
/// Folds the prefixes through a [`StreamChecker`] (initiation times
/// play no part) and stops at the first violation; its certificate is
/// [`TimedExecution::report`]'s [`StreamReport::violation`].
pub fn is_transitive<A: Application>(exec: &Execution<A>) -> bool {
    let _span = shard_obs::span!("conditions.is_transitive");
    let mut checker = StreamChecker::new(usize::MAX);
    exec.records().iter().all(|r| {
        checker.push_prefix(&r.prefix, 0);
        checker.transitive_so_far()
    })
}

/// Whether the group of transactions `group` (indices into `exec`, any
/// order) is **centralized** in `exec` (§3.2): each member's prefix
/// subsequence includes every other member that precedes it in the
/// complete prefix. Conceptually, a single "agent" runs the group.
pub fn is_centralized<A: Application>(exec: &Execution<A>, group: &[TxnIndex]) -> bool {
    let _span = shard_obs::span!("conditions.is_centralized");
    let mut sorted: Vec<TxnIndex> = group.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.iter().enumerate().all(|(pos, &g)| {
        assert!(g < exec.len(), "group index {g} out of range");
        let prefix = &exec.record(g).prefix;
        sorted[..pos]
            .iter()
            .all(|earlier| prefix.binary_search(earlier).is_ok())
    })
}

/// Whether the consecutive index range `range` is **atomic** in `exec`
/// (§3.1): (a) each transaction in the range includes every earlier
/// transaction of the range in its prefix subsequence, and (b) all
/// transactions in the range see the same subset of the transactions with
/// indices below the range.
///
/// # Panics
///
/// Panics if the range extends past the end of the execution.
pub fn is_atomic<A: Application>(exec: &Execution<A>, range: Range<TxnIndex>) -> bool {
    assert!(range.end <= exec.len(), "range out of bounds");
    if range.is_empty() {
        return true;
    }
    // Prefixes are strictly increasing, so "same base below the range"
    // and "sees every earlier member" are positional checks — one pass
    // per prefix, no scratch allocations.
    let first = exec.record(range.start);
    let base = &first.prefix[..first.prefix.partition_point(|&p| p < range.start)];
    for j in range.clone() {
        let pre = &exec.record(j).prefix;
        let lo = pre.partition_point(|&p| p < range.start);
        if pre[..lo] != *base {
            return false;
        }
        // Entries at or above range.start must be exactly range.start..j.
        if pre.len() - lo != j - range.start
            || !pre[lo..]
                .iter()
                .enumerate()
                .all(|(k, &p)| p == range.start + k)
        {
            return false;
        }
    }
    true
}

/// A timed execution (§3.2): an execution together with a real initiation
/// time for each transaction. The serial (timestamp) order need not agree
/// with the real-time order; when it does, the timed execution is
/// *orderly*.
#[derive(Clone, Debug)]
pub struct TimedExecution<A: Application> {
    /// The underlying execution.
    pub execution: Execution<A>,
    /// Real initiation time of each transaction, indexed like the
    /// execution. Units are whatever the workload used (the simulator
    /// uses integer microticks).
    pub times: Vec<u64>,
}

impl<A: Application> TimedExecution<A> {
    /// Pairs an execution with transaction initiation times.
    ///
    /// # Panics
    ///
    /// Panics if `times.len() != execution.len()`.
    pub fn new(execution: Execution<A>, times: Vec<u64>) -> Self {
        assert_eq!(execution.len(), times.len(), "one time per transaction");
        TimedExecution { execution, times }
    }

    /// Whether real times are monotone along the serial order (§3.2's
    /// *orderly* condition).
    pub fn is_orderly(&self) -> bool {
        self.times.windows(2).all(|w| w[0] <= w[1])
    }

    /// Every §3 verdict of the execution in one pass of a
    /// [`StreamChecker`]: transitivity, `max_missed`, the minimal delay
    /// bound, and the certificates witnessing them (no window verdicts).
    pub fn report(&self) -> StreamReport {
        let mut checker = StreamChecker::new(usize::MAX);
        for (record, &time) in self.execution.records().iter().zip(&self.times) {
            checker.push_prefix(&record.prefix, time);
        }
        checker.report()
    }

    /// The smallest `t` for which the execution has t-bounded delay
    /// (`0` for empty executions): one more than the largest
    /// `timeᵢ − timeₓ` over missed pairs with `timeₓ ≤ timeᵢ`.
    pub fn min_delay_bound(&self) -> u64 {
        self.report().min_delay_bound
    }

    /// Whether the execution has **t-bounded delay**: the prefix
    /// subsequence of each transaction `T` includes every preceding
    /// transaction whose real time is at least `t` smaller than `T`'s.
    pub fn has_t_bounded_delay(&self, t: u64) -> bool {
        t >= self.min_delay_bound()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::app::DecisionOutcome;
    use crate::execution::ExecutionBuilder;

    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct Nop;

    /// A decision-free application: executions are pure prefix shapes.
    pub(crate) struct Trivial;
    impl Application for Trivial {
        type State = ();
        type Update = Nop;
        type Decision = ();
        fn initial_state(&self) {}
        fn is_well_formed(&self, _: &()) -> bool {
            true
        }
        fn apply(&self, _: &(), _: &Nop) {}
        fn decide(&self, _: &(), _: &()) -> DecisionOutcome<Nop> {
            DecisionOutcome::update_only(Nop)
        }
        fn constraint_count(&self) -> usize {
            0
        }
        fn constraint_name(&self, _: usize) -> &str {
            unreachable!()
        }
        fn cost(&self, _: &(), _: usize) -> u64 {
            0
        }
    }

    pub(crate) fn exec_with_prefixes(prefixes: &[&[usize]]) -> Execution<Trivial> {
        let mut b = ExecutionBuilder::new(&Trivial);
        for p in prefixes {
            b.push((), p.to_vec()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn missed_and_k_complete() {
        let e = exec_with_prefixes(&[&[], &[0], &[0]]);
        assert_eq!(missed_count(&e, 0), 0);
        assert_eq!(missed_count(&e, 1), 0);
        assert_eq!(missed_count(&e, 2), 1);
        assert!(is_k_complete(&e, 2, 1));
        assert!(!is_k_complete(&e, 2, 0));
        assert_eq!(max_missed(&e), 1);
    }

    #[test]
    fn transitive_execution() {
        // 2 sees 1, 1 sees 0, 2 sees 0 as well: transitive.
        let e = exec_with_prefixes(&[&[], &[0], &[0, 1]]);
        assert!(is_transitive(&e));
    }

    #[test]
    fn intransitive_execution() {
        // 2 sees 1, 1 sees 0, but 2 does not see 0.
        let e = exec_with_prefixes(&[&[], &[0], &[1]]);
        assert!(!is_transitive(&e));
    }

    #[test]
    fn empty_and_singleton_are_transitive() {
        let e = exec_with_prefixes(&[]);
        assert!(is_transitive(&e));
        let e = exec_with_prefixes(&[&[]]);
        assert!(is_transitive(&e));
    }

    #[test]
    fn centralization() {
        // Group {0, 2, 4}: 2 sees 0, 4 sees 0 and 2.
        let e = exec_with_prefixes(&[&[], &[], &[0], &[], &[0, 2]]);
        assert!(is_centralized(&e, &[0, 2, 4]));
        assert!(is_centralized(&e, &[4, 2, 0])); // order-insensitive
                                                 // Group {1, 3}: 3 does not see 1.
        assert!(!is_centralized(&e, &[1, 3]));
        // Singleton and empty groups are trivially centralized.
        assert!(is_centralized(&e, &[3]));
        assert!(is_centralized(&e, &[]));
    }

    #[test]
    fn atomicity() {
        // Transactions 1..3 form an atomic block on top of base prefix {0}.
        let e = exec_with_prefixes(&[&[], &[0], &[0, 1], &[0, 1, 2]]);
        assert!(is_atomic(&e, 1..4));
        assert!(is_atomic(&e, 2..2)); // empty range
        assert!(is_atomic(&e, 2..3)); // singleton

        // Base prefixes differ: 2 sees {0}, 3 sees {} below index 2.
        let e = exec_with_prefixes(&[&[], &[], &[0, 1], &[1, 2]]);
        assert!(!is_atomic(&e, 2..4));

        // Later member does not see earlier member of the block.
        let e = exec_with_prefixes(&[&[], &[0], &[0]]);
        assert!(!is_atomic(&e, 1..3));
    }

    #[test]
    fn timed_execution_orderly_and_bounded() {
        let e = exec_with_prefixes(&[&[], &[0], &[1]]);
        let te = TimedExecution::new(e, vec![0, 10, 20]);
        assert!(te.is_orderly());
        // Txn 2 misses txn 0 which ran 20 earlier: bound must exceed 20.
        assert!(!te.has_t_bounded_delay(20));
        assert!(te.has_t_bounded_delay(21));
        assert_eq!(te.min_delay_bound(), 21);
    }

    #[test]
    fn unorderly_times_detected() {
        let e = exec_with_prefixes(&[&[], &[]]);
        let te = TimedExecution::new(e, vec![5, 1]);
        assert!(!te.is_orderly());
        // Txn 1 ran before txn 0 and missed it: no t is violated.
        assert_eq!(te.min_delay_bound(), 0);
        assert!(te.has_t_bounded_delay(0));
    }

    #[test]
    fn complete_prefixes_have_zero_delay_bound() {
        let e = exec_with_prefixes(&[&[], &[0], &[0, 1]]);
        let te = TimedExecution::new(e, vec![0, 1, 2]);
        assert!(te.has_t_bounded_delay(0));
        assert_eq!(te.min_delay_bound(), 0);
    }

    #[test]
    #[should_panic(expected = "one time per transaction")]
    fn timed_execution_length_mismatch_panics() {
        let e = exec_with_prefixes(&[&[]]);
        let _ = TimedExecution::new(e, vec![]);
    }
}
