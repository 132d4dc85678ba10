//! A persistent (immutable, structure-sharing) ordered map.
//!
//! [`PMap`] is the storage core behind [`crate::store::Store`]'s published
//! images: a B+tree whose nodes live behind `Arc`s, with chunked leaves
//! holding `Bytes` keys and values. Cloning a map is one `Arc` bump per
//! keyspace; mutating a map **path-copies** — only the root-to-leaf spine of
//! the touched key is rewritten, every untouched subtree stays shared with
//! the previous version. That turns commit-time snapshot publication from an
//! O(dataset) copy-on-write into an O(log n · touched keys) clone, which is
//! what keeps reader latency flat while a writer churns (the thesis's "every
//! revision stays live" requirement at BODHI-ish scale).
//!
//! Invariants:
//!
//! * Leaves hold at most [`MAX_LEAF`] entries, sorted and unique; branches
//!   hold 2..=[`MAX_BRANCH`] children with one separator key per child — a
//!   child's separator is the smallest key in its subtree.
//! * Deletion never rebalances; it only removes empty nodes and collapses a
//!   single-child root. Underfull nodes are legal, so the tree's height is
//!   bounded by its historical maximum, not its current size — the price of
//!   a trivially-correct persistent delete, and irrelevant for the redo-log
//!   workload (overwrites and inserts dominate; whole-keyspace clears go
//!   through [`PMap::default`]).
//! * All mutation goes through `Arc::make_mut`: a node shared with an older
//!   published image is cloned (counted in [`Touch`]), a node already unique
//!   (several writes inside one commit touching the same leaf) is mutated in
//!   place for free.

use bytes::Bytes;
use std::ops::Bound;
use std::sync::Arc;

/// Maximum entries per leaf. Chunky leaves amortise the per-node `Arc` and
/// `Vec` overhead and keep range cursors cache-friendly.
pub const MAX_LEAF: usize = 32;

/// Maximum children per branch.
pub const MAX_BRANCH: usize = 16;

/// Path-copy cost of one mutation, in nodes actually cloned (shared nodes
/// made unique) and the bytes memcpy'd to clone them (entry/child vectors —
/// `Bytes` payloads are refcounted, never copied). Zero when the whole spine
/// was already unique.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// Nodes cloned by `Arc::make_mut` along the mutation path.
    pub nodes_cloned: u64,
    /// Bytes copied cloning those nodes (vector storage, not payloads).
    pub bytes_copied: u64,
}

impl Touch {
    /// Accumulate another mutation's cost.
    pub fn add(&mut self, other: Touch) {
        self.nodes_cloned += other.nodes_cloned;
        self.bytes_copied += other.bytes_copied;
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Arc<Leaf>),
    Branch(Arc<Branch>),
}

#[derive(Debug, Clone, Default)]
struct Leaf {
    entries: Vec<(Bytes, Bytes)>,
}

#[derive(Debug, Clone)]
struct Branch {
    /// `keys[i]` is the smallest key in `children[i]`'s subtree.
    keys: Vec<Bytes>,
    children: Vec<Node>,
}

impl Leaf {
    /// Shallow byte size of the entry vector (what a clone memcpys).
    fn clone_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<(Bytes, Bytes)>()) as u64
    }
}

impl Branch {
    fn clone_bytes(&self) -> u64 {
        (self.keys.len() * std::mem::size_of::<Bytes>()
            + self.children.len() * std::mem::size_of::<Node>()) as u64
    }

    /// Index of the child whose subtree would contain `key`.
    fn child_for(&self, key: &[u8]) -> usize {
        // partition_point: first child whose separator is > key, minus one.
        // Child 0 also catches keys below every separator.
        self.keys.partition_point(|k| k.as_ref() <= key).max(1) - 1
    }
}

impl Node {
    fn min_key(&self) -> Bytes {
        match self {
            Node::Leaf(l) => l.entries[0].0.clone(),
            Node::Branch(b) => b.keys[0].clone(),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        match self {
            Node::Leaf(l) => l.entries.len(),
            Node::Branch(b) => b.children.iter().map(Node::len).sum(),
        }
    }
}

/// What an insert did one level down: nothing special, or the child split
/// into two and the parent must adopt the right half.
enum InsertOutcome {
    Done,
    Split { sep: Bytes, right: Node },
}

/// An immutable, structure-sharing ordered map from `Bytes` to `Bytes`.
///
/// Clone is O(1) (an `Arc` bump). Mutation path-copies. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct PMap {
    root: Option<Node>,
    len: usize,
}

impl PMap {
    /// The empty map. Costs nothing until the first insert.
    pub fn new() -> PMap {
        PMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point lookup; the returned value is a shared handle, not a copy.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let mut node = self.root.as_ref()?;
        loop {
            match node {
                Node::Leaf(leaf) => {
                    return leaf
                        .entries
                        .binary_search_by(|(k, _)| k.as_ref().cmp(key))
                        .ok()
                        .map(|i| leaf.entries[i].1.clone());
                }
                Node::Branch(branch) => node = &branch.children[branch.child_for(key)],
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Insert (or overwrite), path-copying the touched spine; returns the
    /// previous value. Clone costs are tallied into `touch`.
    pub fn insert(&mut self, key: Bytes, value: Bytes, touch: &mut Touch) -> Option<Bytes> {
        match self.root.take() {
            None => {
                self.root = Some(Node::Leaf(Arc::new(Leaf {
                    entries: vec![(key, value)],
                })));
                self.len = 1;
                None
            }
            Some(mut node) => {
                let (previous, outcome) = insert_rec(&mut node, key, value, touch);
                self.root = Some(match outcome {
                    InsertOutcome::Done => node,
                    InsertOutcome::Split { sep, right } => {
                        // Root split: the tree grows one level.
                        let left_sep = node.min_key();
                        Node::Branch(Arc::new(Branch {
                            keys: vec![left_sep, sep],
                            children: vec![node, right],
                        }))
                    }
                });
                if previous.is_none() {
                    self.len += 1;
                }
                previous
            }
        }
    }

    /// Remove `key`, path-copying the touched spine; returns the removed
    /// value. Empty nodes are pruned and a single-child root collapses.
    pub fn remove(&mut self, key: &[u8], touch: &mut Touch) -> Option<Bytes> {
        let mut node = self.root.take()?;
        let removed = remove_rec(&mut node, key, touch);
        if removed.is_some() {
            self.len -= 1;
        }
        self.root = match node {
            Node::Leaf(ref l) if l.entries.is_empty() => None,
            Node::Branch(ref b) if b.children.is_empty() => None,
            Node::Branch(ref b) if b.children.len() == 1 => Some(b.children[0].clone()),
            other => Some(other),
        };
        removed
    }

    /// Ordered cursor over `lo..hi` (half-open bounds as given). The cursor
    /// borrows the map; yielded keys and values are shared handles.
    pub fn range<'a>(&'a self, lo: Bound<&[u8]>, hi: Bound<&'a [u8]>) -> Cursor<'a> {
        let mut cursor = Cursor {
            // Sized for the height of a many-million-entry map, so building
            // a cursor allocates once: short scans are mostly this cost.
            stack: Vec::with_capacity(8),
            hi,
        };
        if let Some(root) = self.root.as_ref() {
            cursor.descend_to(root, &lo);
        }
        cursor
    }

    /// Ordered cursor over the whole map.
    pub fn iter(&self) -> Cursor<'_> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Whether the leaf that holds (or would hold) `key` is the **same
    /// allocation** in `self` and `other` — the structural-sharing probe the
    /// equivalence suite uses to assert that publishing a commit did not
    /// clone untouched subtrees. Returns `false` when either side resolves
    /// to no leaf.
    pub fn shares_leaf_with(&self, other: &PMap, key: &[u8]) -> bool {
        match (
            leaf_for(self.root.as_ref(), key),
            leaf_for(other.root.as_ref(), key),
        ) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Total number of tree nodes (leaves + branches); test/diagnostic aid.
    pub fn node_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Branch(b) => 1 + b.children.iter().map(count).sum::<usize>(),
            }
        }
        self.root.as_ref().map(count).unwrap_or(0)
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        fn check(node: &Node, depth: usize, leaf_depth: &mut Option<usize>) {
            match node {
                Node::Leaf(l) => {
                    assert!(l.entries.windows(2).all(|w| w[0].0 < w[1].0), "leaf sorted");
                    assert!(l.entries.len() <= MAX_LEAF, "leaf within bounds");
                    match *leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) => assert_eq!(d, depth, "uniform leaf depth"),
                    }
                }
                Node::Branch(b) => {
                    assert_eq!(b.keys.len(), b.children.len(), "separator per child");
                    assert!(!b.children.is_empty() && b.children.len() <= MAX_BRANCH);
                    assert!(b.keys.windows(2).all(|w| w[0] < w[1]), "separators sorted");
                    for (key, child) in b.keys.iter().zip(&b.children) {
                        assert_eq!(*key, child.min_key(), "separator is subtree min");
                        check(child, depth + 1, leaf_depth);
                    }
                }
            }
        }
        if let Some(root) = self.root.as_ref() {
            let mut leaf_depth = None;
            check(root, 0, &mut leaf_depth);
            assert_eq!(root.len(), self.len, "cached length");
        } else {
            assert_eq!(self.len, 0);
        }
    }
}

/// Resolve the leaf that `key` routes to.
fn leaf_for<'a>(mut node: Option<&'a Node>, key: &[u8]) -> Option<&'a Arc<Leaf>> {
    loop {
        match node? {
            Node::Leaf(leaf) => return Some(leaf),
            Node::Branch(branch) => node = Some(&branch.children[branch.child_for(key)]),
        }
    }
}

/// Make the node behind `arc` unique, tallying a clone if it was shared.
fn make_unique<'a, T: Clone>(arc: &'a mut Arc<T>, bytes: u64, touch: &mut Touch) -> &'a mut T {
    if Arc::strong_count(arc) > 1 {
        touch.nodes_cloned += 1;
        touch.bytes_copied += bytes;
    }
    Arc::make_mut(arc)
}

fn insert_rec(
    node: &mut Node,
    key: Bytes,
    value: Bytes,
    touch: &mut Touch,
) -> (Option<Bytes>, InsertOutcome) {
    match node {
        Node::Leaf(arc) => {
            let bytes = arc.clone_bytes();
            let leaf = make_unique(arc, bytes, touch);
            match leaf.entries.binary_search_by(|(k, _)| k.as_ref().cmp(&key)) {
                Ok(i) => {
                    let previous = std::mem::replace(&mut leaf.entries[i].1, value);
                    (Some(previous), InsertOutcome::Done)
                }
                Err(i) => {
                    leaf.entries.insert(i, (key, value));
                    if leaf.entries.len() <= MAX_LEAF {
                        (None, InsertOutcome::Done)
                    } else {
                        let right = leaf.entries.split_off(leaf.entries.len() / 2);
                        let sep = right[0].0.clone();
                        (
                            None,
                            InsertOutcome::Split {
                                sep,
                                right: Node::Leaf(Arc::new(Leaf { entries: right })),
                            },
                        )
                    }
                }
            }
        }
        Node::Branch(arc) => {
            let bytes = arc.clone_bytes();
            let branch = make_unique(arc, bytes, touch);
            let i = branch.child_for(&key);
            // A key smaller than every separator lowers child 0's minimum.
            if key < branch.keys[0] {
                branch.keys[0] = key.clone();
            }
            let (previous, outcome) = insert_rec(&mut branch.children[i], key, value, touch);
            match outcome {
                InsertOutcome::Done => (previous, InsertOutcome::Done),
                InsertOutcome::Split { sep, right } => {
                    branch.keys.insert(i + 1, sep);
                    branch.children.insert(i + 1, right);
                    if branch.children.len() <= MAX_BRANCH {
                        (previous, InsertOutcome::Done)
                    } else {
                        let mid = branch.children.len() / 2;
                        let right_children = branch.children.split_off(mid);
                        let right_keys = branch.keys.split_off(mid);
                        let sep = right_keys[0].clone();
                        (
                            previous,
                            InsertOutcome::Split {
                                sep,
                                right: Node::Branch(Arc::new(Branch {
                                    keys: right_keys,
                                    children: right_children,
                                })),
                            },
                        )
                    }
                }
            }
        }
    }
}

fn remove_rec(node: &mut Node, key: &[u8], touch: &mut Touch) -> Option<Bytes> {
    match node {
        Node::Leaf(arc) => {
            let i = arc
                .entries
                .binary_search_by(|(k, _)| k.as_ref().cmp(key))
                .ok()?;
            let bytes = arc.clone_bytes();
            let leaf = make_unique(arc, bytes, touch);
            Some(leaf.entries.remove(i).1)
        }
        Node::Branch(arc) => {
            let i = arc.child_for(key);
            // Probe read-only first so a miss never clones the spine.
            let bytes = arc.clone_bytes();
            let branch = make_unique(arc, bytes, touch);
            let removed = remove_rec(&mut branch.children[i], key, touch)?;
            let empty = match &branch.children[i] {
                Node::Leaf(l) => l.entries.is_empty(),
                Node::Branch(b) => b.children.is_empty(),
            };
            if empty {
                branch.children.remove(i);
                branch.keys.remove(i);
            } else if i == 0 {
                // The subtree minimum may have gone up.
                branch.keys[0] = branch.children[0].min_key();
            } else {
                branch.keys[i] = branch.children[i].min_key();
            }
            Some(removed)
        }
    }
}

/// Ordered iterator over a [`PMap`] range; see [`PMap::range`].
///
/// Yields `(&Bytes, &Bytes)` pairs borrowed from the tree, so callers that
/// only inspect keys (prefix checks, key decoding) copy nothing at all, and
/// callers that keep values clone a refcount, not a payload.
pub struct Cursor<'a> {
    /// `(branch-or-leaf, next child/entry index)` from root to current leaf.
    stack: Vec<(&'a Node, usize)>,
    hi: Bound<&'a [u8]>,
}

impl<'a> Cursor<'a> {
    /// Push the spine from `node` down to the first entry >= `lo`.
    fn descend_to(&mut self, mut node: &'a Node, lo: &Bound<&[u8]>) {
        loop {
            match node {
                Node::Leaf(leaf) => {
                    let start = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(lo) => {
                            leaf.entries.partition_point(|(k, _)| k.as_ref() < *lo)
                        }
                        Bound::Excluded(lo) => {
                            leaf.entries.partition_point(|(k, _)| k.as_ref() <= *lo)
                        }
                    };
                    self.stack.push((node, start));
                    return;
                }
                Node::Branch(branch) => {
                    let i = match lo {
                        Bound::Unbounded => 0,
                        Bound::Included(lo) | Bound::Excluded(lo) => branch.child_for(lo),
                    };
                    self.stack.push((node, i + 1));
                    node = &branch.children[i];
                }
            }
        }
    }

    /// After exhausting a leaf: climb to the next unvisited sibling subtree
    /// and descend to its leftmost leaf.
    fn advance_leaf(&mut self) -> bool {
        loop {
            let Some((node, next)) = self.stack.pop() else {
                return false;
            };
            if let Node::Branch(branch) = node {
                if next < branch.children.len() {
                    self.stack.push((node, next + 1));
                    let mut child = &branch.children[next];
                    loop {
                        match child {
                            Node::Leaf(_) => {
                                self.stack.push((child, 0));
                                return true;
                            }
                            Node::Branch(b) => {
                                self.stack.push((child, 1));
                                child = &b.children[0];
                            }
                        }
                    }
                }
            }
        }
    }
}

impl<'a> Iterator for Cursor<'a> {
    type Item = (&'a Bytes, &'a Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, i) = self.stack.last_mut()?;
            if let Node::Leaf(leaf) = node {
                if let Some((k, v)) = leaf.entries.get(*i) {
                    let within = match self.hi {
                        Bound::Unbounded => true,
                        Bound::Excluded(hi) => k.as_ref() < hi,
                        Bound::Included(hi) => k.as_ref() <= hi,
                    };
                    if !within {
                        self.stack.clear();
                        return None;
                    }
                    *i += 1;
                    return Some((k, v));
                }
            }
            if !self.advance_leaf() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = PMap::new();
        let mut t = Touch::default();
        assert!(m.insert(b("b"), b("2"), &mut t).is_none());
        assert!(m.insert(b("a"), b("1"), &mut t).is_none());
        assert_eq!(m.insert(b("a"), b("one"), &mut t), Some(b("1")));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(b"a"), Some(b("one")));
        assert_eq!(m.get(b"missing"), None);
        assert_eq!(m.remove(b"a", &mut t), Some(b("one")));
        assert_eq!(m.remove(b"a", &mut t), None);
        assert_eq!(m.len(), 1);
        m.check_invariants();
    }

    #[test]
    fn grows_and_shrinks_through_splits() {
        let mut m = PMap::new();
        let mut t = Touch::default();
        for i in 0..10_000u32 {
            m.insert(
                Bytes::copy_from_slice(&i.to_be_bytes()),
                Bytes::copy_from_slice(&i.to_le_bytes()),
                &mut t,
            );
        }
        m.check_invariants();
        assert_eq!(m.len(), 10_000);
        assert!(m.node_count() > 10_000 / MAX_LEAF, "tree actually split");
        for i in (0..10_000u32).step_by(3) {
            assert!(m.remove(&i.to_be_bytes(), &mut t).is_some());
        }
        m.check_invariants();
        for i in 0..10_000u32 {
            let got = m.get(&i.to_be_bytes());
            if i % 3 == 0 {
                assert!(got.is_none());
            } else {
                assert_eq!(got, Some(Bytes::copy_from_slice(&i.to_le_bytes())));
            }
        }
    }

    #[test]
    fn range_and_prefix_scans_match_btreemap() {
        use std::collections::BTreeMap;
        let mut m = PMap::new();
        let mut model = BTreeMap::new();
        let mut t = Touch::default();
        for i in 0..500u32 {
            let k = format!("k/{:04}", (i * 7919) % 500);
            m.insert(b(&k), b(&i.to_string()), &mut t);
            model.insert(k.into_bytes(), i.to_string().into_bytes());
        }
        // A prefix scan is the range from the prefix up to its successor.
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = m
            .range(Bound::Included(b"k/01"), Bound::Excluded(b"k/02"))
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter(|(k, _)| k.starts_with(b"k/01"))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert_eq!(scanned, expected);
        let ranged: Vec<Vec<u8>> = m
            .range(Bound::Included(b"k/0100"), Bound::Excluded(b"k/0200"))
            .map(|(k, _)| k.to_vec())
            .collect();
        let expected: Vec<Vec<u8>> = model
            .range(b"k/0100".to_vec()..b"k/0200".to_vec())
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(ranged, expected);
    }

    #[test]
    fn clone_shares_structure_and_mutation_path_copies() {
        let mut m = PMap::new();
        let mut t = Touch::default();
        for i in 0..2_000u32 {
            m.insert(Bytes::copy_from_slice(&i.to_be_bytes()), b("v"), &mut t);
        }
        let snapshot = m.clone();
        let mut touch = Touch::default();
        m.insert(
            Bytes::copy_from_slice(&42u32.to_be_bytes()),
            b("new"),
            &mut touch,
        );
        // The touched spine was cloned — a handful of nodes, not the tree.
        assert!(touch.nodes_cloned >= 1);
        assert!(
            (touch.nodes_cloned as usize) < m.node_count() / 4,
            "path copy must not clone the bulk of the tree ({} of {})",
            touch.nodes_cloned,
            m.node_count()
        );
        // The snapshot still reads the old value; the map reads the new one.
        assert_eq!(snapshot.get(&42u32.to_be_bytes()), Some(b("v")));
        assert_eq!(m.get(&42u32.to_be_bytes()), Some(b("new")));
        // A far-away leaf is still the same allocation in both versions.
        assert!(m.shares_leaf_with(&snapshot, &1_900u32.to_be_bytes()));
        // …while the touched leaf is not.
        assert!(!m.shares_leaf_with(&snapshot, &42u32.to_be_bytes()));
    }

    #[test]
    fn unique_spine_mutates_in_place_for_free() {
        let mut m = PMap::new();
        let mut t = Touch::default();
        for i in 0..100u32 {
            m.insert(Bytes::copy_from_slice(&i.to_be_bytes()), b("v"), &mut t);
        }
        // No snapshot holds the tree: further writes must not count clones.
        let mut touch = Touch::default();
        m.insert(
            Bytes::copy_from_slice(&5u32.to_be_bytes()),
            b("w"),
            &mut touch,
        );
        assert_eq!(touch.nodes_cloned, 0);
        assert_eq!(touch.bytes_copied, 0);
    }

    #[test]
    fn empty_map_is_free_and_iterable() {
        let m = PMap::new();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.node_count(), 0);
    }

    #[test]
    fn cursor_streams_across_leaves_in_order() {
        let mut m = PMap::new();
        let mut t = Touch::default();
        for i in (0..1_000u32).rev() {
            m.insert(Bytes::copy_from_slice(&i.to_be_bytes()), b("v"), &mut t);
        }
        let keys: Vec<u32> = m
            .iter()
            .map(|(k, _)| u32::from_be_bytes(k.as_ref().try_into().unwrap()))
            .collect();
        assert_eq!(keys, (0..1_000).collect::<Vec<_>>());
        // Range with both bounds.
        let mid: Vec<u32> = m
            .range(
                Bound::Included(&250u32.to_be_bytes()),
                Bound::Excluded(&260u32.to_be_bytes()),
            )
            .map(|(k, _)| u32::from_be_bytes(k.as_ref().try_into().unwrap()))
            .collect();
        assert_eq!(mid, (250..260).collect::<Vec<_>>());
    }
}
