//! The flat 64-byte-granular memory the NMP cores address.

use crate::vector::{Vec16, LANES};

/// Flat little-endian memory addressable in 64-byte blocks, backed by a
/// `Vec<u32>`: the memory the functional executor runs on.
///
/// Blocks can be viewed as sixteen f32 lanes (tensor data) or sixteen u32
/// words (GATHER index lists) — the underlying bits are shared.
///
/// # Example
///
/// ```
/// use tensordimm_isa::VecMemory;
///
/// let mut mem = VecMemory::new(16);
/// mem.write_f32(3, [1.5; 16]);
/// assert_eq!(mem.read_f32(3)[7], 1.5);
/// assert_eq!(mem.blocks(), 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VecMemory {
    words: Vec<u32>,
}

impl VecMemory {
    /// Zero-initialized memory of `blocks` 64-byte blocks.
    pub fn new(blocks: u64) -> Self {
        VecMemory {
            words: vec![0u32; (blocks as usize) * LANES],
        }
    }

    /// Capacity in 64-byte blocks.
    pub fn blocks(&self) -> u64 {
        (self.words.len() / LANES) as u64
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Borrow the raw words (sixteen per block).
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Read block `block` as sixteen f32 lanes.
    ///
    /// # Panics
    ///
    /// Panics when `block >= self.blocks()`.
    pub fn read_f32(&self, block: u64) -> [f32; LANES] {
        let start = block as usize * LANES;
        let mut out = [0f32; LANES];
        for (o, w) in out.iter_mut().zip(&self.words[start..start + LANES]) {
            *o = f32::from_bits(*w);
        }
        out
    }

    /// Write block `block` from sixteen f32 lanes.
    ///
    /// # Panics
    ///
    /// Panics when `block >= self.blocks()`.
    pub fn write_f32(&mut self, block: u64, lanes: [f32; LANES]) {
        let start = block as usize * LANES;
        for (w, l) in self.words[start..start + LANES].iter_mut().zip(lanes) {
            *w = l.to_bits();
        }
    }

    /// Read block `block` as sixteen u32 words (index-list view).
    pub fn read_u32(&self, block: u64) -> [u32; LANES] {
        let start = block as usize * LANES;
        let mut out = [0u32; LANES];
        out.copy_from_slice(&self.words[start..start + LANES]);
        out
    }

    /// Write block `block` from sixteen u32 words (index-list view).
    pub fn write_u32(&mut self, block: u64, words: [u32; LANES]) {
        let start = block as usize * LANES;
        self.words[start..start + LANES].copy_from_slice(&words);
    }

    /// Read a vector register.
    pub fn read_vec(&self, block: u64) -> Vec16 {
        Vec16::from(self.read_f32(block))
    }

    /// Write a vector register.
    pub fn write_vec(&mut self, block: u64, v: Vec16) {
        self.write_f32(block, *v.lanes());
    }

    /// Read `n` f32 values starting at a block boundary.
    pub fn read_f32_slice(&self, block: u64, n: usize) -> Vec<f32> {
        let start = block as usize * LANES;
        self.words[start..start + n]
            .iter()
            .map(|w| f32::from_bits(*w))
            .collect()
    }

    /// Write f32 values starting at a block boundary (tail of the final
    /// block is left untouched).
    pub fn write_f32_slice(&mut self, block: u64, values: &[f32]) {
        let start = block as usize * LANES;
        for (w, v) in self.words[start..start + values.len()]
            .iter_mut()
            .zip(values)
        {
            *w = v.to_bits();
        }
    }

    /// Write u32 indices starting at a block boundary.
    pub fn write_u32_slice(&mut self, block: u64, values: &[u32]) {
        let start = block as usize * LANES;
        self.words[start..start + values.len()].copy_from_slice(values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let mut m = VecMemory::new(4);
        let mut v = [0f32; LANES];
        for (i, lane) in v.iter_mut().enumerate() {
            *lane = i as f32 * 0.5;
        }
        m.write_f32(2, v);
        assert_eq!(m.read_f32(2), v);
        assert_eq!(m.read_f32(1), [0.0; LANES]);
    }

    #[test]
    fn u32_view_shares_bits() {
        let mut m = VecMemory::new(1);
        m.write_u32(0, [42; LANES]);
        assert_eq!(m.read_u32(0), [42; LANES]);
        // The f32 view sees the same bits.
        assert_eq!(m.read_f32(0)[0].to_bits(), 42);
    }

    #[test]
    fn slice_helpers() {
        let mut m = VecMemory::new(4);
        m.write_f32_slice(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.read_f32_slice(1, 3), vec![1.0, 2.0, 3.0]);
        m.write_u32_slice(0, &[7, 8]);
        assert_eq!(m.read_u32(0)[..2], [7, 8]);
        assert_eq!(m.bytes(), 256);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let m = VecMemory::new(1);
        let _ = m.read_f32(1);
    }
}
