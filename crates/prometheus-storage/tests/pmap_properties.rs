//! Property tests for the persistent map backing [`prometheus_storage::store`]
//! images: behavioural equivalence with `BTreeMap` under arbitrary operation
//! sequences, and the structure-sharing guarantees the commit path relies on
//! (a clone is free, a write after a clone copies one root-to-leaf path, and
//! untouched subtrees stay physically shared).

use bytes::Bytes;
use prometheus_storage::{prefix_successor, PMap, Touch};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, Vec<u8>),
    Remove(Vec<u8>),
}

/// Short keys over a tiny alphabet so sequences actually collide: inserts
/// overwrite, removes hit, and scans share prefixes.
fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 1..5)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_key(), prop::collection::vec(any::<u8>(), 0..8)).prop_map(|(k, v)| Op::Insert(k, v)),
        (arb_key(), prop::collection::vec(any::<u8>(), 0..8)).prop_map(|(k, v)| Op::Insert(k, v)),
        (arb_key(), prop::collection::vec(any::<u8>(), 0..8)).prop_map(|(k, v)| Op::Insert(k, v)),
        arb_key().prop_map(Op::Remove),
    ]
}

fn apply(map: &mut PMap, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &Op) {
    let mut touch = Touch::default();
    match op {
        Op::Insert(k, v) => {
            let prev = map.insert(
                Bytes::copy_from_slice(k),
                Bytes::copy_from_slice(v),
                &mut touch,
            );
            let model_prev = model.insert(k.clone(), v.clone());
            assert_eq!(prev.as_deref(), model_prev.as_deref());
        }
        Op::Remove(k) => {
            let prev = map.remove(k, &mut touch);
            let model_prev = model.remove(k);
            assert_eq!(prev.as_deref(), model_prev.as_deref());
        }
    }
}

fn assert_equivalent(map: &PMap, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    assert_eq!(map.len(), model.len());
    assert_eq!(map.is_empty(), model.is_empty());
    let scanned: Vec<(Vec<u8>, Vec<u8>)> =
        map.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "iteration order or contents diverged");
}

proptest! {
    /// Any interleaving of inserts and removes leaves the map equal to the
    /// model: same length, same sorted contents, same point lookups.
    #[test]
    fn matches_btreemap_under_arbitrary_ops(ops in prop::collection::vec(arb_op(), 0..120)) {
        let mut map = PMap::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut map, &mut model, op);
        }
        assert_equivalent(&map, &model);
        for op in &ops {
            let k = match op { Op::Insert(k, _) | Op::Remove(k) => k };
            let got = map.get(k);
            prop_assert_eq!(got.as_deref(), model.get(k).map(|v| v.as_slice()));
            prop_assert_eq!(map.contains_key(k), model.contains_key(k));
        }
    }

    /// Prefix and range scans agree with the model for arbitrary bounds,
    /// including empty and inverted ranges.
    #[test]
    fn scans_match_btreemap(
        ops in prop::collection::vec(arb_op(), 0..80),
        prefix in prop::collection::vec(0u8..4, 0..3),
        lo in arb_key(),
        hi in arb_key(),
    ) {
        let mut map = PMap::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut map, &mut model, op);
        }

        // A prefix scan is the range from the prefix up to its successor.
        let end = prefix_successor(&prefix);
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = map
            .range(
                Bound::Included(&prefix),
                end.as_deref().map_or(Bound::Unbounded, Bound::Excluded),
            )
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(scanned, expected, "prefix scan diverged");

        let scanned: Vec<(Vec<u8>, Vec<u8>)> = map
            .range(Bound::Included(&lo), Bound::Excluded(&hi))
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter(|(k, _)| k.as_slice() >= lo.as_slice() && k.as_slice() < hi.as_slice())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(scanned, expected, "range scan diverged");

        // BTreeMap::range panics on inverted bounds, so order them first.
        let (lo, hi) = if lo <= hi { (&lo, &hi) } else { (&hi, &lo) };
        let scanned: Vec<Vec<u8>> = map
            .range(Bound::Excluded(lo.as_slice()), Bound::Included(hi.as_slice()))
            .map(|(k, _)| k.to_vec())
            .collect();
        let expected: Vec<Vec<u8>> = model
            .range::<[u8], _>((Bound::Excluded(lo.as_slice()), Bound::Included(hi.as_slice())))
            .map(|(k, _)| k.clone())
            .collect();
        prop_assert_eq!(scanned, expected, "cursor bounds diverged");
    }

    /// Writing through a clone never disturbs the original, and the cost is
    /// a path, not the tree: per write, the number of freshly-copied nodes
    /// is bounded by the (logarithmic) height plus one for a split.
    #[test]
    fn clone_isolates_and_copies_only_a_path(
        seed in prop::collection::vec((arb_key(), prop::collection::vec(any::<u8>(), 0..8)), 1..200),
        ops in prop::collection::vec(arb_op(), 1..20),
    ) {
        let mut map = PMap::new();
        let mut model = BTreeMap::new();
        let mut touch = Touch::default();
        for (k, v) in &seed {
            map.insert(Bytes::copy_from_slice(k), Bytes::copy_from_slice(v), &mut touch);
            model.insert(k.clone(), v.clone());
        }

        let frozen = map.clone();
        let frozen_model = model.clone();
        // Height of a B-tree with MAX_LEAF=32 / MAX_BRANCH=16 over <=220
        // keys is at most 3; allow one extra clone for a root split.
        let height_bound = 4;
        for op in &ops {
            let mut touch = Touch::default();
            match op {
                Op::Insert(k, v) => {
                    map.insert(
                        Bytes::copy_from_slice(k),
                        Bytes::copy_from_slice(v),
                        &mut touch,
                    );
                    model.insert(k.clone(), v.clone());
                }
                Op::Remove(k) => {
                    map.remove(k, &mut touch);
                    model.remove(k);
                }
            }
            prop_assert!(
                touch.nodes_cloned <= height_bound,
                "one write cloned {} nodes (height bound {height_bound})",
                touch.nodes_cloned
            );
        }

        // The frozen image is byte-for-byte what it was at clone time.
        assert_equivalent(&frozen, &frozen_model);
        assert_equivalent(&map, &model);

        // Structure stays physically shared wherever we did not write. Each
        // write path-copies at most two leaves (the target, plus a sibling
        // born from a split), and a leaf holds at most 32 entries — so the
        // number of surviving keys whose leaf is *not* the same Arc in both
        // maps is bounded by the writes' footprint, never the whole tree.
        let mut unshared = 0usize;
        let mut distinct = std::collections::BTreeSet::new();
        for (k, _) in &seed {
            if distinct.insert(k)
                && frozen.contains_key(k)
                && map.contains_key(k)
                && !frozen.shares_leaf_with(&map, k)
            {
                unshared += 1;
            }
        }
        prop_assert!(
            unshared <= ops.len() * 2 * 32,
            "{unshared} keys unshared after only {} writes — writes must \
             unshare a bounded neighborhood, not the whole tree",
            ops.len()
        );
    }

    /// A clone itself costs nothing: no nodes are copied until a write, and
    /// before any write every key resolves to shared structure.
    #[test]
    fn clone_is_free_until_written(
        seed in prop::collection::vec((arb_key(), prop::collection::vec(any::<u8>(), 0..8)), 1..100),
    ) {
        let mut map = PMap::new();
        let mut touch = Touch::default();
        for (k, v) in &seed {
            map.insert(Bytes::copy_from_slice(k), Bytes::copy_from_slice(v), &mut touch);
        }
        let before = map.node_count();
        let snap = map.clone();
        prop_assert_eq!(snap.node_count(), before);
        for (k, _) in &seed {
            prop_assert!(map.shares_leaf_with(&snap, k));
        }
    }
}
