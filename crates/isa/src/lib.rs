//! TensorISA: the custom tensor instruction set of TensorDIMM.
//!
//! The paper (Section 4.4, Figs. 8–9) defines three instructions executed by
//! the NMP cores inside each TensorDIMM:
//!
//! * [`Instruction::Gather`] — embedding lookup: gather `count` embedding
//!   vectors named by an index list into a contiguous output tensor,
//! * [`Instruction::Reduce`] — element-wise reduction of two equal-shaped
//!   tensors (add / subtract / multiply / min / max),
//! * [`Instruction::Average`] — element-wise average over groups of
//!   consecutive embeddings (multi-hot pooling).
//!
//! All pointer arithmetic is in **64-byte blocks** (one DDR4 burst, sixteen
//! f32 lanes), exactly as in the paper's pseudo-code. Instructions are
//! *broadcast* to every TensorDIMM; each DIMM `tid` out of `node_dim`
//! executes the slice of the operation whose blocks satisfy
//! `block % node_dim == tid`, which is precisely the paper's
//! rank-interleaved address mapping (Fig. 7).
//!
//! The paper's pseudo-code hard-codes one block per DIMM per embedding
//! (embedding bytes = `node_dim * 64`). This crate generalizes to any
//! embedding size that is a multiple of `node_dim` blocks via the explicit
//! `vec_blocks` field; the paper's case is `vec_blocks == node_dim`.
//!
//! # Example
//!
//! Execute a GATHER functionally against a flat memory model:
//!
//! ```
//! use tensordimm_isa::{Instruction, VecMemory, execute_on_node};
//!
//! let node_dim = 4;                    // four TensorDIMMs
//! let vec_blocks = 4;                  // 256-byte embeddings
//! let mut mem = VecMemory::new(1 << 16);
//! // Table of 8 embeddings at block 0; make row r hold value r everywhere.
//! for r in 0..8u64 {
//!     for b in 0..vec_blocks {
//!         mem.write_f32(r * vec_blocks + b, [r as f32; 16]);
//!     }
//! }
//! // Index list [5, 2] at block 1024; output at block 2048.
//! let mut idx = [0u32; 16];
//! idx[0] = 5;
//! idx[1] = 2;
//! mem.write_u32(1024, idx);
//! let gather = Instruction::Gather {
//!     table_base: 0,
//!     idx_base: 1024,
//!     output_base: 2048,
//!     count: 2,
//!     vec_blocks,
//! };
//! execute_on_node(&gather, &mut mem, node_dim)?;
//! assert_eq!(mem.read_f32(2048)[0], 5.0);
//! assert_eq!(mem.read_f32(2048 + vec_blocks)[0], 2.0);
//! # Ok::<(), tensordimm_isa::IsaError>(())
//! ```

pub mod encode;
pub mod exec;
pub mod instruction;
pub mod memory;
pub mod plan;
pub mod vector;

pub use encode::{decode, decode_bytes, encode, EncodedInstruction};
pub use exec::{
    execute_on_dimm, execute_on_node, execute_program_on_dimm, execute_program_on_node,
    DimmContext, ExecSummary,
};
pub use instruction::{Instruction, OpCode, ReduceOp};
pub use memory::VecMemory;
pub use plan::{AccessKind, AccessPlan, BlockAccess, GatherRow};
pub use vector::{Vec16, LANES};

use std::error::Error;
use std::fmt;

/// Errors raised by TensorISA encoding, decoding and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IsaError {
    /// The opcode byte of an encoded instruction is unknown.
    UnknownOpcode(u8),
    /// The reduce-op byte of an encoded REDUCE is unknown.
    UnknownReduceOp(u8),
    /// A wire buffer is truncated or oversized.
    WireLength {
        /// Bytes received.
        len: usize,
        /// Bytes the wire format requires.
        expected: usize,
    },
    /// A tensor base or size is not aligned to the node's DIMM count.
    Misaligned {
        /// Which operand is misaligned.
        what: &'static str,
        /// The offending value (in 64-byte blocks).
        value: u64,
        /// Required divisor (the node's DIMM count).
        node_dim: u64,
    },
    /// A field does not fit the encoded instruction format.
    FieldOverflow {
        /// Which field overflows.
        field: &'static str,
        /// The value that does not fit.
        value: u64,
    },
    /// `node_dim` or `tid` is invalid (zero DIMMs, or `tid >= node_dim`).
    InvalidContext {
        /// Number of DIMMs in the node.
        node_dim: u64,
        /// The DIMM id that was requested.
        tid: u64,
    },
    /// An instruction field is zero where a nonzero value is required.
    ZeroField {
        /// Which field is zero.
        field: &'static str,
    },
    /// A gathered index exceeds the bounds implied by the memory model.
    IndexOutOfRange {
        /// The embedding index read from the index list.
        index: u64,
        /// The block address it produced.
        block: u64,
        /// Memory capacity in blocks.
        blocks: u64,
    },
    /// An error raised while executing instruction `index` of a program —
    /// program-level executors wrap per-instruction errors so runtime
    /// failures and static diagnostics point at the same site.
    AtInstruction {
        /// Zero-based index of the failing instruction.
        index: usize,
        /// The underlying error.
        source: Box<IsaError>,
    },
}

impl IsaError {
    /// Wrap this error with the program position it occurred at. Already
    /// wrapped errors keep their original (innermost-program) index.
    #[must_use]
    pub fn at(self, index: usize) -> IsaError {
        match self {
            IsaError::AtInstruction { .. } => self,
            other => IsaError::AtInstruction {
                index,
                source: Box::new(other),
            },
        }
    }

    /// The failing instruction's program index, if this error carries one.
    pub fn instruction_index(&self) -> Option<usize> {
        match self {
            IsaError::AtInstruction { index, .. } => Some(*index),
            _ => None,
        }
    }

    /// The underlying error with any program-position wrapper removed.
    pub fn root_cause(&self) -> &IsaError {
        match self {
            IsaError::AtInstruction { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::UnknownOpcode(op) => write!(f, "unknown opcode byte {op:#04x}"),
            IsaError::UnknownReduceOp(op) => write!(f, "unknown reduce-op byte {op:#04x}"),
            IsaError::WireLength { len, expected } => {
                write!(
                    f,
                    "wire buffer is {len} bytes, format requires exactly {expected}"
                )
            }
            IsaError::Misaligned {
                what,
                value,
                node_dim,
            } => write!(
                f,
                "{what} = {value} blocks is not a multiple of the node's {node_dim} DIMMs"
            ),
            IsaError::FieldOverflow { field, value } => {
                write!(
                    f,
                    "field {field} = {value} does not fit the instruction format"
                )
            }
            IsaError::InvalidContext { node_dim, tid } => {
                write!(f, "invalid DIMM context: tid {tid} of node_dim {node_dim}")
            }
            IsaError::ZeroField { field } => write!(f, "field {field} must be nonzero"),
            IsaError::IndexOutOfRange {
                index,
                block,
                blocks,
            } => write!(
                f,
                "gathered index {index} maps to block {block} beyond capacity {blocks}"
            ),
            IsaError::AtInstruction { index, source } => {
                write!(f, "instruction {index}: {source}")
            }
        }
    }
}

impl Error for IsaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IsaError::AtInstruction { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        for e in [
            IsaError::UnknownOpcode(0xff),
            IsaError::UnknownReduceOp(9),
            IsaError::Misaligned {
                what: "vec_blocks",
                value: 3,
                node_dim: 4,
            },
            IsaError::FieldOverflow {
                field: "count",
                value: u64::MAX,
            },
            IsaError::InvalidContext {
                node_dim: 4,
                tid: 4,
            },
            IsaError::ZeroField { field: "count" },
            IsaError::IndexOutOfRange {
                index: 10,
                block: 100,
                blocks: 50,
            },
            IsaError::ZeroField { field: "count" }.at(3),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn at_instruction_wrapping() {
        let e = IsaError::ZeroField { field: "count" }.at(2);
        assert_eq!(e.instruction_index(), Some(2));
        assert_eq!(e.root_cause(), &IsaError::ZeroField { field: "count" });
        assert!(Error::source(&e).is_some());
        assert_eq!(e.to_string(), "instruction 2: field count must be nonzero");
        // Plain errors carry no index and are their own root cause.
        let plain = IsaError::UnknownOpcode(9);
        assert_eq!(plain.instruction_index(), None);
        assert_eq!(plain.root_cause(), &plain);
        assert!(Error::source(&plain).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IsaError>();
    }
}
