//! TensorDIMM and TensorNode: the paper's primary contribution.
//!
//! A [`TensorNode`] is a disaggregated pool of `N` TensorDIMMs (32 in
//! Table 1) attached to the GPU-side interconnect. Every tensor stored in
//! the pool is striped across all DIMMs in 64-byte blocks (the
//! rank-interleaved mapping of Fig. 7), so the `N` NMP cores cooperate on
//! every GATHER / REDUCE / AVERAGE with aggregate bandwidth
//! `N × 25.6 GB/s`.
//!
//! The node couples three layers of the reproduction:
//!
//! * **functional** — every operation goes through the TensorISA wire
//!   format ([`tensordimm_isa::encode()`] → decode → execute) against a real
//!   block memory, and results are bit-exact against the golden ops,
//! * **timing** — each operation can be replayed on the cycle-level DRAM
//!   simulator of one representative DIMM (all DIMMs execute symmetric
//!   slices), yielding per-op latency and bandwidth ([`OpReport`]),
//! * **system** — tensors can be shipped to a GPU over the modeled NVLINK
//!   fabric ([`TensorNode::copy_to_gpu`]).
//!
//! # Example
//!
//! The doctest runs on the 4-DIMM [`TensorNodeConfig::small`] node so the
//! suite stays fast; `TensorNodeConfig::default()` gives the paper's
//! 32-DIMM Table 1 configuration.
//!
//! ```
//! use tensordimm_core::{ReduceOp, TensorNode, TensorNodeConfig};
//!
//! let mut node = TensorNode::new(TensorNodeConfig::small())?;
//! let table = node.create_table("users", 1024, 128)?;
//! node.fill_table(&table, |row, col| row as f32 + col as f32)?;
//!
//! let gathered = node.gather(&table, &[3, 5, 7, 9])?;
//! let pairwise = node.reduce(&gathered, &gathered, ReduceOp::Add)?;
//! let host = node.read_tensor(&pairwise)?;
//! assert_eq!(host.len(), 4 * 128);
//! assert_eq!(host[0], 2.0 * (3.0 + 0.0)); // row 3, col 0, doubled
//! # Ok::<(), tensordimm_core::CoreError>(())
//! ```

pub mod alloc;
pub mod config;
pub mod node;
pub mod report;
pub mod tensor;

pub use alloc::BumpAllocator;
pub use config::{TensorNodeConfig, TimingMode};
pub use node::TensorNode;
pub use report::OpReport;
pub use tensor::{TableHandle, TensorHandle};

// The ISA types that appear in this crate's public API.
pub use tensordimm_isa::{Instruction, ReduceOp};

use std::error::Error;
use std::fmt;

/// Errors from the TensorNode runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The pooled memory is exhausted.
    OutOfMemory {
        /// Blocks requested.
        requested: u64,
        /// Blocks remaining.
        available: u64,
    },
    /// Two tensors disagree in shape for a binary op.
    ShapeMismatch {
        /// Left operand blocks.
        left: u64,
        /// Right operand blocks.
        right: u64,
    },
    /// The tensor's embedding count is not a whole number of groups.
    BadGrouping {
        /// Embeddings in the tensor.
        count: u64,
        /// Requested group size.
        group: u64,
    },
    /// A gather index exceeds the table rows.
    RowOutOfRange {
        /// Offending index.
        index: u64,
        /// Table rows.
        rows: u64,
    },
    /// A gather index does not fit the 32-bit TensorISA index format.
    IndexTooWide {
        /// Offending index.
        index: u64,
    },
    /// A zero-sized table, tensor or batch was requested.
    Empty {
        /// What was empty.
        what: &'static str,
    },
    /// Underlying ISA failure.
    Isa(tensordimm_isa::IsaError),
    /// Underlying NMP / DRAM failure.
    Nmp(tensordimm_nmp::NmpError),
    /// Underlying interconnect failure.
    Interconnect(tensordimm_interconnect::InterconnectError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "pool exhausted: requested {requested} blocks, {available} available"
            ),
            CoreError::ShapeMismatch { left, right } => {
                write!(f, "tensor shapes differ: {left} vs {right} blocks")
            }
            CoreError::BadGrouping { count, group } => {
                write!(f, "{count} embeddings do not divide into groups of {group}")
            }
            CoreError::RowOutOfRange { index, rows } => {
                write!(f, "index {index} out of range for table of {rows} rows")
            }
            CoreError::IndexTooWide { index } => {
                write!(
                    f,
                    "index {index} does not fit the 32-bit TensorISA index format"
                )
            }
            CoreError::Empty { what } => write!(f, "{what} must be nonzero"),
            CoreError::Isa(e) => write!(f, "isa: {e}"),
            CoreError::Nmp(e) => write!(f, "nmp: {e}"),
            CoreError::Interconnect(e) => write!(f, "interconnect: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Isa(e) => Some(e),
            CoreError::Nmp(e) => Some(e),
            CoreError::Interconnect(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tensordimm_isa::IsaError> for CoreError {
    fn from(e: tensordimm_isa::IsaError) -> Self {
        CoreError::Isa(e)
    }
}

impl From<tensordimm_nmp::NmpError> for CoreError {
    fn from(e: tensordimm_nmp::NmpError) -> Self {
        CoreError::Nmp(e)
    }
}

impl From<tensordimm_interconnect::InterconnectError> for CoreError {
    fn from(e: tensordimm_interconnect::InterconnectError) -> Self {
        CoreError::Interconnect(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_wrap() {
        let e = CoreError::OutOfMemory {
            requested: 10,
            available: 5,
        };
        assert!(!e.to_string().is_empty());
        let e: CoreError = tensordimm_isa::IsaError::UnknownOpcode(1).into();
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
