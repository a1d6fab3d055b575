//! Golden (reference) tensor operations.
//!
//! These are the plain, single-threaded semantics of the paper's three
//! tensor operations. The near-memory execution paths (ISA executor, NMP
//! cores, TensorNode runtime) are all validated against these functions.

use crate::table::EmbeddingTable;
use crate::EmbeddingError;
use tensordimm_isa::ReduceOp;

/// Gather `indices.len()` embedding vectors into a contiguous tensor.
///
/// # Errors
///
/// Returns [`EmbeddingError::RowOutOfRange`] on a bad index.
pub fn gather(table: &EmbeddingTable, indices: &[u64]) -> Result<Vec<f32>, EmbeddingError> {
    let mut out = Vec::with_capacity(indices.len() * table.dim());
    for &i in indices {
        out.extend_from_slice(table.row(i)?);
    }
    Ok(out)
}

/// Element-wise reduction of two equal-shaped tensors.
///
/// # Errors
///
/// Returns [`EmbeddingError::ShapeMismatch`] when lengths differ.
pub fn reduce(a: &[f32], b: &[f32], op: ReduceOp) -> Result<Vec<f32>, EmbeddingError> {
    if a.len() != b.len() {
        return Err(EmbeddingError::ShapeMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter()
        .zip(b)
        .map(|(&x, &y)| match op {
            ReduceOp::Add => x + y,
            ReduceOp::Sub => x - y,
            ReduceOp::Mul => x * y,
            ReduceOp::Min => x.min(y),
            ReduceOp::Max => x.max(y),
        })
        .collect())
}

/// Element-wise average over groups of `group` consecutive vectors.
///
/// The input holds `n * group` vectors of `dim` values; the output holds
/// `n` vectors — the multi-hot pooling step of the embedding layer.
///
/// # Errors
///
/// Returns [`EmbeddingError::EmptyShape`] for zero `group`/`dim` and
/// [`EmbeddingError::ShapeMismatch`] when the input is not a whole number
/// of groups.
pub fn average(input: &[f32], group: usize, dim: usize) -> Result<Vec<f32>, EmbeddingError> {
    if group == 0 {
        return Err(EmbeddingError::EmptyShape { what: "group" });
    }
    if dim == 0 {
        return Err(EmbeddingError::EmptyShape { what: "dim" });
    }
    if !input.len().is_multiple_of(group * dim) {
        return Err(EmbeddingError::ShapeMismatch {
            left: input.len(),
            right: group * dim,
        });
    }
    let outputs = input.len() / (group * dim);
    let mut out = vec![0.0f32; outputs * dim];
    for o in 0..outputs {
        for g in 0..group {
            let base = (o * group + g) * dim;
            for d in 0..dim {
                out[o * dim + d] += input[base + d];
            }
        }
        for d in 0..dim {
            out[o * dim + d] /= group as f32;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> EmbeddingTable {
        EmbeddingTable::seeded("t", 10, 4, 5)
    }

    /// The N-way reduction of Fig. 5 as a chain of pairwise REDUCEs over
    /// `n` consecutive equal-shaped tensors.
    fn reduce_n(input: &[f32], n: usize) -> Vec<f32> {
        let each = input.len() / n;
        input
            .chunks(each)
            .skip(1)
            .fold(input[..each].to_vec(), |acc, t| {
                reduce(&acc, t, ReduceOp::Add).unwrap()
            })
    }

    #[test]
    fn gather_values() {
        let t = table();
        let g = gather(&t, &[3, 0, 9]).unwrap();
        assert_eq!(g.len(), 12);
        assert_eq!(&g[0..4], t.row(3).unwrap());
        assert_eq!(&g[4..8], t.row(0).unwrap());
        assert_eq!(&g[8..12], t.row(9).unwrap());
    }

    #[test]
    fn gather_bad_index() {
        assert!(gather(&table(), &[10]).is_err());
    }

    #[test]
    fn reduce_ops() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 1.0, 3.0];
        assert_eq!(reduce(&a, &b, ReduceOp::Add).unwrap(), vec![5.0, 3.0, 6.0]);
        assert_eq!(reduce(&a, &b, ReduceOp::Sub).unwrap(), vec![-3.0, 1.0, 0.0]);
        assert_eq!(reduce(&a, &b, ReduceOp::Mul).unwrap(), vec![4.0, 2.0, 9.0]);
        assert_eq!(reduce(&a, &b, ReduceOp::Min).unwrap(), vec![1.0, 1.0, 3.0]);
        assert_eq!(reduce(&a, &b, ReduceOp::Max).unwrap(), vec![4.0, 2.0, 3.0]);
        assert!(reduce(&a, &b[..2], ReduceOp::Add).is_err());
    }

    #[test]
    fn average_groups() {
        // Two outputs, group 2, dim 2.
        let input = [1.0, 10.0, 3.0, 30.0, 5.0, 50.0, 7.0, 70.0];
        let avg = average(&input, 2, 2).unwrap();
        assert_eq!(avg, vec![2.0, 20.0, 6.0, 60.0]);
    }

    #[test]
    fn average_shape_errors() {
        assert!(average(&[1.0; 6], 0, 2).is_err());
        assert!(average(&[1.0; 6], 2, 0).is_err());
        assert!(average(&[1.0; 6], 2, 2).is_err());
    }

    #[test]
    fn reduce_n_sums() {
        let input = [1.0, 2.0, 10.0, 20.0, 100.0, 200.0];
        assert_eq!(reduce_n(&input, 3), vec![111.0, 222.0]);
        assert_eq!(reduce_n(&input, 1), input.to_vec());
    }

    #[test]
    fn average_equals_reduce_n_scaled() {
        let input: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let avg = average(&input, 3, 4).unwrap();
        // reduce_n over each group of 3 vectors, scaled by 1/3.
        for (o, chunk) in input.chunks(12).enumerate() {
            let sum = reduce_n(chunk, 3);
            for d in 0..4 {
                assert!((avg[o * 4 + d] - sum[d] / 3.0).abs() < 1e-6);
            }
        }
    }
}
