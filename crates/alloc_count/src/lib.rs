//! A counting global allocator for allocation- and memory-budget tests.
//!
//! [`CountingAlloc`] forwards every call to [`std::alloc::System`] and,
//! while a [`measure_allocations`] scope is open on the calling thread,
//! tracks that thread's allocations: how many
//! blocks it allocated or reallocated, and how many bytes it holds live
//! (allocated minus freed on this thread since the scope opened) and at
//! most. Other threads are never tracked, so a test harness running tests
//! side by side does not disturb a count.
//!
//! A test binary installs it with one `static`; the installing crate
//! needs no `unsafe` of its own, so the workspace-wide
//! `unsafe_code = "forbid"` still holds for every simulator crate:
//!
//! ```
//! use tensordimm_alloc_count::{measure_allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let ((), stats) = measure_allocations(|| drop(vec![0u8; 64]));
//!     assert_eq!(stats.count, 1);
//!     assert_eq!((stats.live_bytes, stats.peak_live_bytes), (0, 64));
//! }
//! ```
//!
//! Without the `static`, nothing is tracked and every figure is zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated inside a [`measure_allocations`] scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Fresh blocks and reallocations (frees are not counted).
    pub count: u64,
    /// Bytes this thread allocated minus bytes it freed since the scope
    /// opened; negative when it freed blocks allocated before the scope.
    pub live_bytes: i64,
    /// The highest `live_bytes` reached inside the scope (`0` if it never
    /// rose above its start).
    pub peak_live_bytes: i64,
}

impl AllocStats {
    fn grow(&mut self, bytes: usize) {
        self.live_bytes += bytes as i64;
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
    }
}

thread_local! {
    /// This thread's figures; `None` outside a scope. A const-initialized
    /// `Cell` with no destructor: reading it never allocates, so the
    /// allocator can touch it.
    static STATS: Cell<Option<AllocStats>> = const { Cell::new(None) };
}

/// Apply `f` to this thread's figures if a scope is open.
fn record(f: impl FnOnce(&mut AllocStats)) {
    // `try_with` fails only while the thread is being torn down, when no
    // scope can be open.
    let _ = STATS.try_with(|c| {
        if let Some(mut stats) = c.get() {
            f(&mut stats);
            c.set(Some(stats));
        }
    });
}

/// A fresh block of `size` bytes, unless the allocation failed.
fn record_alloc(ptr: *mut u8, size: usize) {
    record(|s| {
        s.count += 1;
        if !ptr.is_null() {
            s.grow(size);
        }
    });
}

/// The system allocator, counting the calling thread's allocations while
/// a [`measure_allocations`] scope is open on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which implements the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell`, and never allocates or unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // and its arguments reach `System` unchanged.
        let ptr = unsafe { System.alloc(layout) };
        record_alloc(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract,
        // and its arguments reach `System` unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        record_alloc(ptr, layout.size());
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and its arguments reach `System` unchanged.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        record(|s| {
            s.count += 1;
            // A failed reallocation leaves the old block in place.
            if !new.is_null() {
                s.live_bytes -= layout.size() as i64;
                s.grow(new_size);
            }
        });
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract,
        // and its arguments reach `System` unchanged.
        unsafe { System.dealloc(ptr, layout) };
        record(|s| s.live_bytes -= layout.size() as i64);
    }
}

/// Closes the calling thread's scope even when the measured closure
/// unwinds.
struct Scope;

impl Drop for Scope {
    fn drop(&mut self) {
        let _ = STATS.try_with(|c| c.set(None));
    }
}

/// Run `f` and return its result with what it allocated on the calling
/// thread (all zero unless [`CountingAlloc`] is the global allocator).
///
/// # Panics
///
/// Panics when a scope is already open on the calling thread.
pub fn measure_allocations<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    STATS.with(|c| {
        assert!(c.get().is_none(), "allocation scopes do not nest");
        c.set(Some(AllocStats::default()));
    });
    let scope = Scope;
    let out = f();
    let stats = STATS.with(Cell::get).expect("the scope is open");
    drop(scope);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_blocks_and_reallocations_on_this_thread_only() {
        let (v, stats) = measure_allocations(|| Vec::<u64>::with_capacity(8));
        assert_eq!((v.capacity(), stats.count), (8, 1));
        // Doubling from empty to 33 elements: 4, 8, 16, 32, 64.
        let ((), stats) = measure_allocations(|| {
            let mut v = Vec::new();
            for i in 0..33u64 {
                v.push(i);
            }
        });
        assert_eq!(stats.count, 5);
        let ((), stats) = measure_allocations(|| {
            std::thread::spawn(|| vec![0u8; 16]).join().expect("joins");
        });
        assert!(
            stats.count < 8,
            "spawning allocates a little; the child's vec is not counted"
        );
        let (_, outside) = measure_allocations(|| ());
        assert_eq!(outside, AllocStats::default());
    }

    #[test]
    fn tracks_live_and_peak_bytes() {
        let before = vec![0u8; 100];
        let ((), stats) = measure_allocations(|| {
            let mut v = Vec::<u8>::with_capacity(64);
            v.reserve_exact(128); // grows the block in place or moves it
            let w = vec![0u8; 32];
            drop(v);
            drop(w);
            drop(before); // allocated before the scope opened
        });
        assert_eq!(
            stats,
            AllocStats {
                count: 3,
                live_bytes: -100,
                peak_live_bytes: 128 + 32,
            }
        );
    }
}
