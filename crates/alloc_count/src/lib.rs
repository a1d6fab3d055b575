//! A counting global allocator for allocation-budget tests.
//!
//! [`CountingAlloc`] forwards every call to [`std::alloc::System`] and,
//! while a [`count_allocations`] scope is open on the calling thread,
//! counts that thread's allocations (fresh blocks and reallocations;
//! frees are not counted). Other threads are never counted, so a test
//! harness running tests side by side does not disturb a count.
//!
//! A test binary installs it with one `static`; the installing crate
//! needs no `unsafe` of its own, so the workspace-wide
//! `unsafe_code = "forbid"` still holds for every simulator crate:
//!
//! ```
//! use tensordimm_alloc_count::{count_allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let (v, allocs) = count_allocations(|| vec![0u8; 64]);
//!     assert_eq!((v.len(), allocs), (64, 1));
//! }
//! ```
//!
//! Without the `static`, [`count_allocations`] counts nothing and returns
//! zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations counted on this thread; `None` outside a scope. A
    /// const-initialized `Cell` with no destructor: reading it never
    /// allocates, so the allocator can touch it.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn record() {
    // `try_with` fails only while the thread is being torn down, when no
    // scope can be open.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

/// The system allocator, counting the calling thread's allocations while
/// a [`count_allocations`] scope is open on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which implements the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell`, and never allocates or unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // and its arguments reach `System` unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract,
        // and its arguments reach `System` unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and its arguments reach `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract,
        // and its arguments reach `System` unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Closes the calling thread's scope even when the counted closure
/// unwinds.
struct Scope;

impl Drop for Scope {
    fn drop(&mut self) {
        let _ = COUNT.try_with(|c| c.set(None));
    }
}

/// Run `f` and return its result with the number of allocations it made
/// on the calling thread (zero unless [`CountingAlloc`] is the global
/// allocator).
///
/// # Panics
///
/// Panics when a scope is already open on the calling thread.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| {
        assert!(c.get().is_none(), "count_allocations scopes do not nest");
        c.set(Some(0));
    });
    let scope = Scope;
    let out = f();
    let allocs = COUNT.with(Cell::get).expect("the scope is open");
    drop(scope);
    (out, allocs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_blocks_and_reallocations_on_this_thread_only() {
        let (v, allocs) = count_allocations(|| Vec::<u64>::with_capacity(8));
        assert_eq!((v.capacity(), allocs), (8, 1));
        // Doubling from empty to 33 elements: 4, 8, 16, 32, 64.
        let ((), allocs) = count_allocations(|| {
            let mut v = Vec::new();
            for i in 0..33u64 {
                v.push(i);
            }
        });
        assert_eq!(allocs, 5);
        let ((), allocs) = count_allocations(|| {
            std::thread::spawn(|| vec![0u8; 16]).join().expect("joins");
        });
        assert!(
            allocs < 8,
            "spawning allocates a little; the child's vec is not counted"
        );
        let (_, outside) = count_allocations(|| ());
        assert_eq!(outside, 0);
    }
}
