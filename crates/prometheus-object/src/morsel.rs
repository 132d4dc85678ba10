//! Deterministic morsel-parallel work driver.
//!
//! Splits a slice of work items into fixed-size *morsels*, lets scoped
//! worker threads claim morsels through an atomic cursor, and merges the
//! per-morsel outputs **in morsel order**. Because merging is positional,
//! the concatenated result is byte-identical to running the same function
//! over the items sequentially — parallelism never changes what a caller
//! observes, only how fast it arrives. This is the execution substrate for
//! the POOL parallel executor and the frontier-parallel traversal.
//!
//! Error semantics also match the sequential run: if several morsels fail,
//! the error of the **lowest-indexed** failing morsel is returned — exactly
//! the error a sequential left-to-right run would have hit first.

use crate::database::binding;
use crate::error::DbResult;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default number of items per morsel for cheap per-item work (predicate
/// filters, join probes). Small enough to balance skewed work, large enough
/// that the claim cadence is noise. Callers with expensive per-item work
/// (traversal frontier expansion) pass a smaller size — the morsel size is
/// also the parallelism threshold: anything that fits in one morsel runs
/// sequentially, so it doubles as "not worth spinning threads under this".
pub const MORSEL_SIZE: usize = 256;

/// Outcome of a [`run`]: the in-order merged output plus how many morsels
/// were executed by parallel workers (0 for a sequential run — the number
/// feeds the `parallel_morsels` metric).
#[derive(Debug)]
pub struct MorselRun<U> {
    pub output: Vec<U>,
    pub parallel_morsels: u64,
}

/// Apply `f` to `items` in morsels of `morsel_size`, using up to `workers`
/// scoped threads, and merge the outputs in morsel order.
///
/// Runs sequentially (same result, zero `parallel_morsels`) when `workers`
/// <= 1 or when everything fits in one morsel.
pub fn run<T, U, F>(items: &[T], workers: usize, morsel_size: usize, f: F) -> DbResult<MorselRun<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> DbResult<Vec<U>> + Sync,
{
    let morsel_size = morsel_size.max(1);
    let n_morsels = items.len().div_ceil(morsel_size);
    if workers <= 1 || n_morsels <= 1 {
        let mut output = Vec::new();
        for chunk in items.chunks(morsel_size) {
            output.extend(f(chunk)?);
        }
        return Ok(MorselRun {
            output,
            parallel_morsels: 0,
        });
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<DbResult<Vec<U>>>>> =
        (0..n_morsels).map(|_| Mutex::new(None)).collect();
    let threads = workers.min(n_morsels);
    // Workers read as the caller does: inside its unit of work, if any.
    let bind = binding();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                bind();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n_morsels {
                        break;
                    }
                    let lo = idx * morsel_size;
                    let hi = (lo + morsel_size).min(items.len());
                    let result = f(&items[lo..hi]);
                    *slots[idx].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
                }
            });
        }
    });

    // Positional merge: morsel 0's rows first, then morsel 1's, … so the
    // output is identical to the sequential run; the first (lowest-index)
    // error wins, as it would sequentially.
    let mut output = Vec::new();
    for slot in slots {
        let result = slot
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .expect("every morsel claimed and completed");
        output.extend(result?);
    }
    Ok(MorselRun {
        output,
        parallel_morsels: n_morsels as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbError;

    #[test]
    fn parallel_merge_preserves_sequential_order() {
        let items: Vec<u64> = (0..5000).collect();
        let seq = run(&items, 1, 64, |chunk| {
            Ok(chunk.iter().map(|x| x * 3).collect())
        })
        .unwrap();
        let par = run(&items, 8, 64, |chunk| {
            Ok(chunk.iter().map(|x| x * 3).collect())
        })
        .unwrap();
        assert_eq!(seq.output, par.output);
        assert_eq!(seq.parallel_morsels, 0);
        assert!(par.parallel_morsels > 0);
    }

    #[test]
    fn single_morsel_inputs_stay_sequential() {
        let items: Vec<u64> = (0..10).collect();
        let r = run(&items, 8, 16, |chunk| Ok(chunk.to_vec())).unwrap();
        assert_eq!(r.output, items);
        assert_eq!(r.parallel_morsels, 0);
    }

    #[test]
    fn lowest_morsel_error_wins() {
        let items: Vec<u64> = (0..4096).collect();
        // Items 600.. and 3000.. both fail; the error carrying the lower
        // item (lower morsel index) must surface, as it would sequentially.
        let failing = |chunk: &[u64]| -> DbResult<Vec<u64>> {
            for &x in chunk {
                if x == 600 || x == 3000 {
                    return Err(DbError::Query(format!("boom at {x}")));
                }
            }
            Ok(chunk.to_vec())
        };
        let err = run(&items, 8, 64, failing).unwrap_err();
        assert!(
            matches!(&err, DbError::Query(m) if m == "boom at 600"),
            "{err:?}"
        );
    }

    #[test]
    fn empty_input_is_empty_output() {
        let items: Vec<u64> = Vec::new();
        let r = run(&items, 8, 64, |chunk| Ok(chunk.to_vec())).unwrap();
        assert!(r.output.is_empty());
        assert_eq!(r.parallel_morsels, 0);
    }
}
