//! Pool allocation.

use crate::CoreError;

/// A bump allocator over the node's pooled block address space.
///
/// Allocations are aligned to whole *rank windows* — `node_dim` blocks —
/// so every tensor starts on DIMM 0 and stripes evenly, and (per the
/// multi-stream findings in the DRAM substrate) concurrent streams stay
/// rank-phase aligned.
///
/// # Example
///
/// ```
/// use tensordimm_core::BumpAllocator;
///
/// let mut a = BumpAllocator::new(1024, 32);
/// let x = a.alloc(40)?; // rounded up to 64 blocks
/// let y = a.alloc(1)?;
/// assert_eq!(x % 32, 0);
/// assert_eq!(y % 32, 0);
/// assert!(y >= x + 64);
/// # Ok::<(), tensordimm_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BumpAllocator {
    capacity: u64,
    align: u64,
    next: u64,
}

impl BumpAllocator {
    /// An allocator over `capacity` blocks with `align`-block alignment.
    pub fn new(capacity: u64, align: u64) -> Self {
        BumpAllocator {
            capacity,
            align: align.max(1),
            next: 0,
        }
    }

    /// Allocate `blocks`, rounded up to the alignment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when the pool is exhausted.
    pub fn alloc(&mut self, blocks: u64) -> Result<u64, CoreError> {
        let rounded = blocks.div_ceil(self.align) * self.align;
        if self.next + rounded > self.capacity {
            return Err(CoreError::OutOfMemory {
                requested: rounded,
                available: self.capacity - self.next,
            });
        }
        let base = self.next;
        self.next += rounded;
        Ok(base)
    }

    /// Total capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Release everything (handles become dangling; the node guards this).
    pub fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_and_accounting() {
        let mut a = BumpAllocator::new(100, 8);
        assert_eq!(a.alloc(1).unwrap(), 0);
        assert_eq!(a.alloc(9).unwrap(), 8);
        assert_eq!(a.capacity(), 100);
        // 24 blocks handed out, 76 left: 72 fit, the next 8 do not.
        assert_eq!(a.alloc(72).unwrap(), 24);
        assert_eq!(
            a.alloc(1),
            Err(CoreError::OutOfMemory {
                requested: 8,
                available: 4
            })
        );
    }

    #[test]
    fn exhaustion() {
        let mut a = BumpAllocator::new(16, 8);
        a.alloc(8).unwrap();
        assert!(matches!(a.alloc(9), Err(CoreError::OutOfMemory { .. })));
        // Exact fit still works.
        assert_eq!(a.alloc(8).unwrap(), 8);
        assert!(a.alloc(1).is_err());
    }

    #[test]
    fn reset() {
        let mut a = BumpAllocator::new(16, 4);
        a.alloc(4).unwrap();
        a.reset();
        assert_eq!(a.alloc(4).unwrap(), 0);
        assert_eq!(a.alloc(4).unwrap(), 4);
    }

    #[test]
    fn zero_align_clamped() {
        let mut a = BumpAllocator::new(4, 0);
        assert_eq!(a.alloc(3).unwrap(), 0);
        assert_eq!(a.alloc(1).unwrap(), 3);
    }
}
