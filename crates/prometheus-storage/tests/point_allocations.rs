//! What a rollback point costs in heap allocations, counted exactly by a
//! global allocator that tallies each thread's requests. A point is a mark
//! in the transaction's undo log, so nesting points is free: the same
//! operations allocate as much under three nested points as under one, and
//! a point taken and kept with no writes allocates nothing.
//!
//! `cargo test -p prometheus-storage --test point_allocations -- --nocapture`
//! also prints the count per operation at each depth.

use prometheus_storage::{Keyspace, ShardRouting, ShardedStore, StoreOptions, Txn};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;

/// The system allocator, counting the allocations (fresh or resized) the
/// calling thread asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    // A thread being torn down has no counter left; its requests go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request goes unchanged to the system allocator, which meets
// `GlobalAlloc`'s contract; the count beside it is a thread-local `Cell`
// with a const initializer, so counting neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// How many allocations the calling thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const KS: Keyspace = Keyspace(1);
const OPS: usize = 6;

fn open(tag: &str) -> (Arc<ShardedStore>, PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "point-allocations-{tag}-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let options = StoreOptions {
        sync_on_commit: false,
    };
    let store = ShardedStore::open_with(&path, options, 1, ShardRouting::default()).unwrap();
    (Arc::new(store), path)
}

/// Run `OPS` operations on `unit`, each staging four key/value writes
/// behind `depth` nested points and keeping them; the keys and values are
/// built beforehand, so only the staging is counted.
fn run_ops(unit: &mut Txn<'_>, depth: usize) -> usize {
    let ops: Vec<Vec<(Vec<u8>, Vec<u8>)>> = (0..OPS)
        .map(|op| {
            (0..4u8)
                .map(|k| (vec![op as u8, k, 0, 0, 0, 0, 0, 0, 1], vec![k; 16]))
                .collect()
        })
        .collect();
    allocations(|| {
        for op in ops {
            for _ in 0..depth {
                unit.take_point();
            }
            for (key, value) in op {
                unit.kv_put(KS, key, value);
            }
            for _ in 0..depth {
                unit.keep_point();
            }
        }
    })
}

/// The allocations of [`run_ops`] at `depth`, on a fresh unit.
fn ops_allocations(depth: usize) -> usize {
    let (store, path) = open(&format!("depth{depth}"));
    let mut unit = store.begin_unit(store.all_shards_mask());
    let counted = run_ops(&mut unit, depth);
    unit.abort();
    drop(store);
    let _ = std::fs::remove_file(path);
    counted
}

#[test]
fn nested_points_allocate_no_more_than_one() {
    let counts: Vec<usize> = (0..=3).map(ops_allocations).collect();
    for (depth, count) in counts.iter().enumerate() {
        println!(
            "{OPS} ops of 4 writes under {depth} points: {count} allocations ({:.2} per op)",
            *count as f64 / OPS as f64
        );
    }
    assert_eq!(counts[2], counts[1], "a second nested point allocates");
    assert_eq!(counts[3], counts[1], "a third nested point allocates");
}

#[test]
fn a_point_kept_without_writes_allocates_nothing() {
    let (store, path) = open("empty");
    let mut unit = store.begin_unit(store.all_shards_mask());
    // The unit's first point allocates its stack of marks, once.
    unit.take_point();
    unit.keep_point();
    let counted = allocations(|| {
        for _ in 0..64 {
            let depth = unit.take_point();
            unit.take_point();
            unit.keep_point();
            unit.keep_point();
            assert_eq!(depth, 1);
        }
    });
    assert_eq!(counted, 0, "taking and keeping a point allocates");
    unit.abort();
    drop(store);
    let _ = std::fs::remove_file(path);
}
