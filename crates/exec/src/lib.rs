//! Deterministic parallel execution on `std::thread::scope`.
//!
//! The sweep harnesses, the cluster's shard runs and the cycle-calibrated
//! pricer's warm-up all have the same shape of parallelism: a set of
//! *mutually independent* work items whose results must come back exactly
//! as if they had been computed sequentially, in input order. This crate
//! provides the one primitive they share — nothing clever, no work
//! stealing across calls, no global pool, no external dependencies:
//! [`par_map`] fans a read-only slice across a small scoped pool via an
//! atomic work counter and merges the results **in input order**, so the
//! output is bit-identical to the sequential map whenever the per-item
//! function is deterministic.
//!
//! It degrades to the plain sequential loop for `workers <= 1` (or a
//! single item), which is the bit-exact oracle the parallel path is
//! tested against, the same way `tick()` gates the event-driven DRAM
//! engine.
//!
//! Worker counts are chosen by [`worker_count`]: an explicit request wins,
//! then the `TENSORDIMM_WORKERS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! let squares = tensordimm_exec::par_map(&[1u64, 2, 3, 4], 2, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default worker count.
pub const WORKERS_ENV: &str = "TENSORDIMM_WORKERS";

/// Resolve a worker count: `requested` (if `Some`, clamped to >= 1), else
/// the `TENSORDIMM_WORKERS` environment variable (if parseable and >= 1),
/// else [`std::thread::available_parallelism`] (1 if unavailable).
pub fn worker_count(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Some(n) = std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `workers` scoped threads, returning the
/// results **in input order**.
///
/// Items are handed out through an atomic counter, so load balances
/// whatever the per-item cost distribution; the merge step reorders by
/// index, so the output is independent of scheduling. With a deterministic
/// `f`, the result is bit-identical to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` — which is
/// exactly the path taken when `workers <= 1` or `items.len() <= 1`.
///
/// # Panics
///
/// Propagates a panic from `f` (the first observed worker panic is
/// re-raised after the scope joins).
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(bucket) => bucket,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for bucket in buckets {
        for (i, r) in bucket {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("atomic counter visits every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_sequential_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xabc).collect();
        for workers in [1, 2, 3, 8, 64] {
            let par = par_map(&items, workers, |_, &x| x.wrapping_mul(x) ^ 0xabc);
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn par_map_passes_input_index() {
        let items = ["a", "b", "c", "d", "e"];
        let got = par_map(&items, 4, |i, &s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_visits_each_item_exactly_once() {
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        par_map(&items, 8, |_, &i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn worker_count_resolution_order() {
        assert_eq!(worker_count(Some(3)), 3);
        assert_eq!(worker_count(Some(0)), 1, "explicit zero clamps to one");
        assert!(worker_count(None) >= 1);
    }

    #[test]
    fn par_map_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 4, |_, &x| {
                assert!(x != 7, "boom");
                x
            })
        });
        assert!(caught.is_err(), "worker panic must reach the caller");
    }
}
