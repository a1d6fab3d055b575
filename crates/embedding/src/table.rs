//! Embedding lookup tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::EmbeddingError;

/// A dense embedding lookup table: `rows` vectors of `dim` f32 values.
///
/// Tables are seeded and deterministic so every simulation and test is
/// reproducible; values are drawn uniformly from `[-0.1, 0.1)`, the usual
/// initialization scale for embedding layers.
///
/// # Example
///
/// ```
/// use tensordimm_embedding::EmbeddingTable;
///
/// let t = EmbeddingTable::seeded("users", 100, 16, 1);
/// assert_eq!(t.rows(), 100);
/// assert_eq!(t.dim(), 16);
/// let row = t.row(42)?;
/// assert_eq!(row.len(), 16);
/// // Same seed, same contents.
/// let u = EmbeddingTable::seeded("users", 100, 16, 1);
/// assert_eq!(t.row(42)?, u.row(42)?);
/// # Ok::<(), tensordimm_embedding::EmbeddingError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    name: String,
    rows: u64,
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTable {
    /// A table filled from a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `rows * dim` overflows `usize` (astronomically large).
    pub fn seeded(name: &str, rows: u64, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows as usize * dim)
            .map(|_| rng.gen_range(-0.1f32..0.1))
            .collect();
        EmbeddingTable {
            name: name.to_owned(),
            rows,
            dim,
            data,
        }
    }

    /// A table filled by `f(row, col)` — handy for exact-value tests.
    pub fn from_fn(name: &str, rows: u64, dim: usize, f: impl Fn(u64, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows as usize * dim);
        for r in 0..rows {
            for c in 0..dim {
                data.push(f(r, c));
            }
        }
        EmbeddingTable {
            name: name.to_owned(),
            rows,
            dim,
            data,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of embedding vectors.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Size of the table in bytes (f32 elements).
    pub fn bytes(&self) -> u64 {
        self.rows * self.dim as u64 * 4
    }

    /// The whole table as a flat row-major slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// One embedding vector.
    ///
    /// # Errors
    ///
    /// Returns [`EmbeddingError::RowOutOfRange`] for `index >= rows`.
    pub fn row(&self, index: u64) -> Result<&[f32], EmbeddingError> {
        if index >= self.rows {
            return Err(EmbeddingError::RowOutOfRange {
                index,
                rows: self.rows,
            });
        }
        let start = index as usize * self.dim;
        Ok(&self.data[start..start + self.dim])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let a = EmbeddingTable::seeded("t", 10, 8, 7);
        let b = EmbeddingTable::seeded("t", 10, 8, 7);
        let c = EmbeddingTable::seeded("t", 10, 8, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn values_in_init_range() {
        let t = EmbeddingTable::seeded("t", 50, 32, 3);
        assert!(t.data().iter().all(|v| (-0.1..0.1).contains(v)));
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let t = EmbeddingTable::from_fn("t", 4, 3, |r, c| (r * 10 + c as u64) as f32);
        assert_eq!(t.row(2).unwrap(), &[20.0, 21.0, 22.0]);
        assert_eq!(t.data()[3], 10.0);
    }

    #[test]
    fn sizes() {
        let t = EmbeddingTable::from_fn("t", 8, 128, |_, _| 0.0);
        assert_eq!(t.bytes(), 8 * 128 * 4);
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn out_of_range_row() {
        let t = EmbeddingTable::seeded("t", 4, 2, 0);
        assert!(t.row(4).is_err());
        assert!(t.row(3).is_ok());
    }
}
