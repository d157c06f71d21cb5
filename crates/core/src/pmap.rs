//! A zero-dependency persistent ordered map with O(1) clones.
//!
//! [`PMap`] is the structural-sharing backbone of the O(delta) state
//! layer: application states built on it clone by bumping `Arc`
//! reference counts, so the replay engine's checkpoint chains
//! ([`crate::replay::Checkpoints`]) cost memory proportional to the
//! *changes between* checkpoints rather than to the whole state.
//!
//! The implementation is a treap (randomized balanced BST) whose node
//! priorities are derived by hashing the key, which makes the tree
//! **shape canonical**: a given key set always produces one structure,
//! independent of insertion order. Nodes are held behind [`Arc`]; a
//! mutation path-copies only the nodes from the root to the touched
//! key (O(log n) expected), and [`Arc::make_mut`] turns even that copy
//! into an in-place write when the map is unshared — exactly the case
//! [`Application::apply_in_place`](crate::Application::apply_in_place)
//! puts the hot replay loops in.
//!
//! Invariants (checked exhaustively against a `BTreeMap` oracle by the
//! unit tests here and the property suite in `tests/state_inplace.rs`):
//!
//! * binary-search-tree order on keys, max-heap order on priorities;
//! * `len` equals the number of reachable nodes;
//! * iteration yields keys in ascending order;
//! * equality ignores sharing: two maps are equal iff their
//!   `(key, value)` sequences are (with an `Arc::ptr_eq` fast path).
//!
//! Like `shard-pool` and `shard-obs`, this module is std-only: the
//! crate registry being offline is a design constraint (DESIGN.md §8).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Derives the canonical treap priority of a key: a fixed-seed SipHash
/// of the key. `DefaultHasher::new()` instances all use the same zero
/// key, so the priority — and therefore the tree shape — is a pure
/// function of the key set.
fn priority<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

type Link<K, V> = Option<Arc<Node<K, V>>>;

#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prio: u64,
    /// Entries in this subtree (including this node) — the order
    /// statistic that makes [`PMap::nth`] O(log n).
    size: usize,
    left: Link<K, V>,
    right: Link<K, V>,
}

/// Subtree size of a link (0 for empty).
fn subtree_size<K, V>(link: &Link<K, V>) -> usize {
    link.as_deref().map_or(0, |n| n.size)
}

/// Recomputes a node's size from its children — call after any
/// structural change below it.
fn update_size<K, V>(node: &mut Node<K, V>) {
    node.size = 1 + subtree_size(&node.left) + subtree_size(&node.right);
}

/// A persistent (copy-on-write) ordered map: `clone` is two pointer
/// copies, mutation path-copies O(log n) shared nodes and writes in
/// place when unshared.
///
/// ```
/// use shard_core::pmap::PMap;
/// let mut a: PMap<u32, &str> = PMap::new();
/// a.insert(2, "two");
/// a.insert(1, "one");
/// let b = a.clone(); // O(1): shares the whole tree
/// a.insert(3, "three");
/// assert_eq!(a.len(), 3);
/// assert_eq!(b.len(), 2); // b is unaffected
/// assert_eq!(a.get(&3), Some(&"three"));
/// assert_eq!(b.get(&3), None);
/// ```
pub struct PMap<K, V> {
    root: Link<K, V>,
    len: usize,
}

impl<K, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        PMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        iter.push_left(self.root.as_deref());
        iter
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// The `i`-th entry in ascending key order (0-based), or `None`
    /// past the end. O(log n) by subtree-size descent — random access
    /// into a snapshot without materializing it.
    pub fn nth(&self, mut i: usize) -> Option<(&K, &V)> {
        if i >= self.len {
            return None;
        }
        let mut cur = self.root.as_deref();
        while let Some(node) = cur {
            let left = subtree_size(&node.left);
            match i.cmp(&left) {
                std::cmp::Ordering::Less => cur = node.left.as_deref(),
                std::cmp::Ordering::Equal => return Some((&node.key, &node.value)),
                std::cmp::Ordering::Greater => {
                    i -= left + 1;
                    cur = node.right.as_deref();
                }
            }
        }
        None
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// The value stored for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut cur = self.root.as_deref();
        while let Some(node) = cur {
            cur = match key.cmp(&node.key) {
                std::cmp::Ordering::Less => node.left.as_deref(),
                std::cmp::Ordering::Greater => node.right.as_deref(),
                std::cmp::Ordering::Equal => return Some(&node.value),
            };
        }
        None
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }
}

impl<K: Ord + Clone + Hash, V: Clone> PMap<K, V> {
    /// Inserts `key → value`, returning the previous value if the key
    /// was present. Path-copies shared nodes; in-place when unshared.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let prio = priority(&key);
        let old = insert_node(&mut self.root, key, value, prio);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes `key`, returning its value if present. Absent keys cost
    /// a read-only lookup — no path is copied.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        self.len -= 1;
        remove_node(&mut self.root, key)
    }
}

fn insert_node<K: Ord + Clone + Hash, V: Clone>(
    link: &mut Link<K, V>,
    key: K,
    value: V,
    prio: u64,
) -> Option<V> {
    let Some(rc) = link else {
        *link = Some(Arc::new(Node {
            key,
            value,
            prio,
            size: 1,
            left: None,
            right: None,
        }));
        return None;
    };
    let node = Arc::make_mut(rc);
    match key.cmp(&node.key) {
        std::cmp::Ordering::Equal => Some(std::mem::replace(&mut node.value, value)),
        std::cmp::Ordering::Less => {
            let old = insert_node(&mut node.left, key, value, prio);
            update_size(node);
            // Restore the max-heap property on priorities. Ties break
            // toward the existing root so repeated inserts of the same
            // key set always rebuild one canonical shape.
            if node.left.as_ref().is_some_and(|l| l.prio > node.prio) {
                rotate_right(link);
            }
            old
        }
        std::cmp::Ordering::Greater => {
            let old = insert_node(&mut node.right, key, value, prio);
            update_size(node);
            if node.right.as_ref().is_some_and(|r| r.prio > node.prio) {
                rotate_left(link);
            }
            old
        }
    }
}

fn remove_node<K: Ord + Clone + Hash, V: Clone>(link: &mut Link<K, V>, key: &K) -> Option<V> {
    let rc = link.as_mut()?;
    let node = Arc::make_mut(rc);
    match key.cmp(&node.key) {
        std::cmp::Ordering::Less => {
            let old = remove_node(&mut node.left, key);
            update_size(node);
            old
        }
        std::cmp::Ordering::Greater => {
            let old = remove_node(&mut node.right, key);
            update_size(node);
            old
        }
        std::cmp::Ordering::Equal => {
            let left = node.left.take();
            let right = node.right.take();
            let removed = link.take().expect("link non-empty");
            *link = merge(left, right);
            Some(match Arc::try_unwrap(removed) {
                Ok(n) => n.value,
                Err(rc) => rc.value.clone(),
            })
        }
    }
}

/// Merges two treaps where every key of `a` is less than every key of
/// `b`, preserving the heap order on priorities.
fn merge<K: Clone, V: Clone>(a: Link<K, V>, b: Link<K, V>) -> Link<K, V> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(mut a), Some(b)) if a.prio >= b.prio => {
            let am = Arc::make_mut(&mut a);
            let ar = am.right.take();
            am.right = merge(ar, Some(b));
            update_size(am);
            Some(a)
        }
        (a, Some(mut b)) => {
            let bm = Arc::make_mut(&mut b);
            let bl = bm.left.take();
            bm.left = merge(a, bl);
            update_size(bm);
            Some(b)
        }
    }
}

fn rotate_right<K: Clone, V: Clone>(link: &mut Link<K, V>) {
    let mut x = link.take().expect("rotate_right of empty link");
    let xm = Arc::make_mut(&mut x);
    let mut l = xm.left.take().expect("left child");
    let lm = Arc::make_mut(&mut l);
    xm.left = lm.right.take();
    update_size(xm);
    lm.right = Some(x);
    update_size(lm);
    *link = Some(l);
}

fn rotate_left<K: Clone, V: Clone>(link: &mut Link<K, V>) {
    let mut x = link.take().expect("rotate_left of empty link");
    let xm = Arc::make_mut(&mut x);
    let mut r = xm.right.take().expect("right child");
    let rm = Arc::make_mut(&mut r);
    xm.right = rm.left.take();
    update_size(xm);
    rm.left = Some(x);
    update_size(rm);
    *link = Some(r);
}

impl<K, V> Clone for PMap<K, V> {
    /// O(1): shares the whole tree by reference count.
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Shared trees are equal without traversal — the common case
        // after an O(1) clone.
        match (&self.root, &other.root) {
            (None, None) => return true,
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => return true,
            _ => {}
        }
        self.iter().eq(other.iter())
    }
}

impl<K: Eq, V: Eq> Eq for PMap<K, V> {}

impl<K: Hash, V: Hash> Hash for PMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for (k, v) in self.iter() {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone + Hash, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = PMap::new();
        map.extend(iter);
        map
    }
}

impl<K: Ord + Clone + Hash, V: Clone> Extend<(K, V)> for PMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<'a, K, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

/// In-order borrowing iterator over a [`PMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn push_left(&mut self, mut link: Option<&'a Node<K, V>>) {
        while let Some(node) = link {
            self.stack.push(node);
            link = node.left.as_deref();
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        let node = self.stack.pop()?;
        self.push_left(node.right.as_deref());
        Some((&node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A tiny deterministic LCG so the oracle tests need no external
    /// randomness source.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    fn check_invariants<K: Ord + Hash + Clone, V: Clone>(map: &PMap<K, V>) {
        fn go<K: Ord + Hash, V>(link: &Link<K, V>, count: &mut usize) {
            if let Some(node) = link {
                assert_eq!(node.prio, priority(&node.key), "priority is key-derived");
                if let Some(l) = &node.left {
                    assert!(l.key < node.key, "BST order (left)");
                    assert!(l.prio <= node.prio, "heap order (left)");
                }
                if let Some(r) = &node.right {
                    assert!(r.key > node.key, "BST order (right)");
                    assert!(r.prio <= node.prio, "heap order (right)");
                }
                assert_eq!(
                    node.size,
                    1 + subtree_size(&node.left) + subtree_size(&node.right),
                    "size matches children"
                );
                *count += 1;
                go(&node.left, count);
                go(&node.right, count);
            }
        }
        let mut count = 0;
        go(&map.root, &mut count);
        assert_eq!(count, map.len(), "len matches reachable nodes");
    }

    #[test]
    fn matches_btreemap_oracle_under_random_ops() {
        let mut rng = Lcg(0xB0B0_CAFE);
        let mut map: PMap<u32, u64> = PMap::new();
        let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
        for step in 0..4000 {
            let key = (rng.next() % 64) as u32;
            if rng.next().is_multiple_of(3) {
                assert_eq!(map.remove(&key), oracle.remove(&key), "step {step}");
            } else {
                let val = rng.next();
                assert_eq!(map.insert(key, val), oracle.insert(key, val), "step {step}");
            }
            assert_eq!(map.len(), oracle.len());
            assert_eq!(map.get(&key), oracle.get(&key));
            if step % 97 == 0 {
                check_invariants(&map);
                assert!(map
                    .iter()
                    .map(|(k, v)| (*k, *v))
                    .eq(oracle.iter().map(|(k, v)| (*k, *v))));
            }
        }
        check_invariants(&map);
    }

    #[test]
    fn nth_matches_in_order_iteration() {
        let mut rng = Lcg(0xDEAD_BEEF);
        let mut map: PMap<u32, u64> = PMap::new();
        for _ in 0..500 {
            map.insert((rng.next() % 1024) as u32, rng.next());
        }
        let snapshot = map.clone();
        for _ in 0..100 {
            map.remove(&((rng.next() % 1024) as u32));
        }
        for m in [&map, &snapshot] {
            let in_order: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
            for (i, entry) in in_order.iter().enumerate() {
                assert_eq!(m.nth(i).map(|(k, v)| (*k, *v)), Some(*entry));
            }
            assert_eq!(m.nth(m.len()), None);
        }
    }

    #[test]
    fn shape_is_canonical_regardless_of_insertion_order() {
        fn shape(link: &Link<u32, u64>, out: &mut Vec<(u32, usize)>, depth: usize) {
            if let Some(n) = link {
                shape(&n.left, out, depth + 1);
                out.push((n.key, depth));
                shape(&n.right, out, depth + 1);
            }
        }
        let keys: Vec<u32> = (0..40).collect();
        let forward: PMap<u32, u64> = keys.iter().map(|&k| (k, k as u64)).collect();
        let backward: PMap<u32, u64> = keys.iter().rev().map(|&k| (k, k as u64)).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        shape(&forward.root, &mut a, 0);
        shape(&backward.root, &mut b, 0);
        assert_eq!(a, b, "same key set, same tree shape");
    }

    #[test]
    fn clone_shares_and_mutation_unshares() {
        let mut a: PMap<u32, u64> = (0..100).map(|k| (k, k as u64)).collect();
        let b = a.clone();
        assert!(Arc::ptr_eq(
            a.root.as_ref().unwrap(),
            b.root.as_ref().unwrap()
        ));
        assert_eq!(a, b); // ptr_eq fast path
        a.insert(50, 999);
        assert_eq!(b.get(&50), Some(&50), "persistent: b unchanged");
        assert_eq!(a.get(&50), Some(&999));
        assert_ne!(a, b);
        check_invariants(&a);
        check_invariants(&b);
    }

    #[test]
    fn removal_of_absent_key_copies_nothing() {
        let mut a: PMap<u32, u64> = (0..20).map(|k| (k, 0)).collect();
        let b = a.clone();
        assert_eq!(a.remove(&99), None);
        assert!(
            Arc::ptr_eq(a.root.as_ref().unwrap(), b.root.as_ref().unwrap()),
            "absent-key removal must not path-copy"
        );
    }

    #[test]
    fn empty_and_iterator_edges() {
        let map: PMap<u32, u64> = PMap::new();
        assert!(map.is_empty());
        assert_eq!(map.iter().count(), 0);
        assert_eq!(map.get(&0), None);
        assert_eq!(map, PMap::default());
        let one: PMap<u32, u64> = std::iter::once((7, 7)).collect();
        assert_eq!(one.keys().copied().collect::<Vec<_>>(), vec![7]);
        assert_eq!(one.values().copied().collect::<Vec<_>>(), vec![7]);
        assert_eq!(format!("{one:?}"), "{7: 7}");
    }

    #[test]
    fn equality_and_hash_ignore_sharing() {
        use std::collections::hash_map::DefaultHasher;
        let a: PMap<u32, u64> = (0..30).map(|k| (k, k as u64)).collect();
        // Same contents built independently (no shared nodes).
        let b: PMap<u32, u64> = (0..30).rev().map(|k| (k, k as u64)).collect();
        assert_eq!(a, b);
        let hash = |m: &PMap<u32, u64>| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }
}
