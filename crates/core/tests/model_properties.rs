//! Property-based tests of the formal model: the execution builder and
//! condition checkers are checked against brute-force reference
//! implementations on randomized inputs.

use proptest::prelude::*;
use shard_core::{conditions, Application, DecisionOutcome, ExecutionBuilder, TimedExecution};
use std::collections::BTreeSet;

/// Reference application: an append-log of the observed state sizes, so
/// decisions genuinely depend on the apparent state.
struct LogApp;

#[derive(Clone, Debug, PartialEq)]
struct Append(usize);

impl Application for LogApp {
    type State = Vec<usize>;
    type Update = Append;
    type Decision = ();
    fn initial_state(&self) -> Vec<usize> {
        Vec::new()
    }
    fn is_well_formed(&self, _: &Vec<usize>) -> bool {
        true
    }
    fn apply(&self, s: &Vec<usize>, u: &Append) -> Vec<usize> {
        let mut v = s.clone();
        v.push(u.0);
        v
    }
    fn decide(&self, _: &(), observed: &Vec<usize>) -> DecisionOutcome<Append> {
        // The update records how much the decision saw: any tampering
        // with prefixes or states is detected by verify().
        DecisionOutcome::update_only(Append(observed.len()))
    }
    fn constraint_count(&self) -> usize {
        0
    }
    fn constraint_name(&self, _: usize) -> &str {
        unreachable!()
    }
    fn cost(&self, _: &Vec<usize>, _: usize) -> u64 {
        0
    }
}

/// Strategy: per-transaction random subsets of predecessors, expressed
/// as a seed vector of booleans (index j of entry i: does i see j?).
fn prefix_matrix(n: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), n)
}

fn build_execution(matrix: &[Vec<bool>]) -> shard_core::Execution<LogApp> {
    let app = LogApp;
    let mut b = ExecutionBuilder::new(&app);
    for (i, row) in matrix.iter().enumerate() {
        let prefix: Vec<usize> = (0..i).filter(|&j| row[j]).collect();
        b.push((), prefix).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder-constructed executions always verify.
    #[test]
    fn builder_output_always_verifies(matrix in prefix_matrix(12)) {
        let e = build_execution(&matrix);
        prop_assert!(e.verify(&LogApp).is_ok());
    }

    /// The transitivity checker agrees with a brute-force reference.
    #[test]
    fn transitivity_matches_brute_force(matrix in prefix_matrix(10)) {
        let e = build_execution(&matrix);
        let sets: Vec<BTreeSet<usize>> = e
            .records()
            .iter()
            .map(|r| r.prefix.iter().copied().collect())
            .collect();
        let mut brute = true;
        'outer: for (top, set) in sets.iter().enumerate() {
            for &mid in set {
                for &low in &sets[mid] {
                    if !set.contains(&low) {
                        brute = false;
                        break 'outer;
                    }
                }
            }
            let _ = top;
        }
        prop_assert_eq!(conditions::is_transitive(&e), brute);
    }

    /// `missed_count` + prefix length always equals the index.
    #[test]
    fn missed_count_arithmetic(matrix in prefix_matrix(12)) {
        let e = build_execution(&matrix);
        for i in 0..e.len() {
            prop_assert_eq!(
                conditions::missed_count(&e, i) + e.record(i).prefix.len(),
                i
            );
        }
        let max = conditions::max_missed(&e);
        for i in 0..e.len() {
            prop_assert!(conditions::is_k_complete(&e, i, max));
        }
    }

    /// Atomic ranges detected by `is_atomic` satisfy both defining
    /// clauses, cross-checked naively.
    #[test]
    fn atomicity_matches_definition(matrix in prefix_matrix(9), start in 0usize..8, len in 0usize..5) {
        let e = build_execution(&matrix);
        let end = (start + len).min(e.len());
        let start = start.min(end);
        let range = start..end;
        let naive = {
            let mut ok = true;
            if !range.is_empty() {
                let base: Vec<usize> = e.record(range.start).prefix.iter()
                    .copied().filter(|&p| p < range.start).collect();
                for j in range.clone() {
                    let below: Vec<usize> = e.record(j).prefix.iter()
                        .copied().filter(|&p| p < range.start).collect();
                    ok &= below == base;
                    for earlier in range.start..j {
                        ok &= e.record(j).prefix.contains(&earlier);
                    }
                }
            }
            ok
        };
        prop_assert_eq!(conditions::is_atomic(&e, range), naive);
    }

    /// `min_delay_bound` is exactly the smallest t with t-bounded delay,
    /// by the definition, on orderly and non-orderly times alike.
    #[test]
    fn min_delay_bound_is_tight(
        matrix in prefix_matrix(8),
        times in proptest::collection::vec(0u64..100, 8),
    ) {
        let te = TimedExecution::new(build_execution(&matrix), times);
        // t-bounded delay: every predecessor initiated at least t
        // earlier is in the prefix.
        let bounded = |t: u64| {
            (0..te.execution.len()).all(|i| {
                (0..i).all(|j| {
                    te.times[j] + t > te.times[i] || te.execution.record(i).prefix.contains(&j)
                })
            })
        };
        let t = te.min_delay_bound();
        prop_assert!(bounded(t));
        prop_assert!(te.has_t_bounded_delay(t));
        if t > 0 {
            prop_assert!(!bounded(t - 1));
            prop_assert!(!te.has_t_bounded_delay(t - 1));
        }
    }

    /// Apparent and actual states coincide exactly when prefixes are
    /// complete.
    #[test]
    fn complete_prefixes_mean_serializable(n in 1usize..15) {
        let app = LogApp;
        let mut b = ExecutionBuilder::new(&app);
        for _ in 0..n {
            b.push_complete(()).unwrap();
        }
        let e = b.finish();
        for i in 0..n {
            prop_assert_eq!(
                e.apparent_state_before(&app, i),
                e.actual_state_before(&app, i)
            );
        }
        prop_assert_eq!(conditions::max_missed(&e), 0);
    }
}
