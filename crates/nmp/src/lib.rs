//! The TensorDIMM near-memory-processing (NMP) core.
//!
//! Section 4.2 of the paper places an NMP core inside the buffer device of a
//! commodity buffered DIMM. The core consists of:
//!
//! * a DDR PHY + protocol engine (modeled by the [`tensordimm_dram`]
//!   channel it drives),
//! * an **NMP-local memory controller** that decodes TensorISA instructions
//!   into DRAM request streams: each global block is lowered to its local
//!   byte by [`tensordimm_analysis::lower_block_byte`] (the paper's
//!   rank-interleaved mapping, Fig. 7) and scheduled by the
//!   [`tensordimm_dram`] controller,
//! * **input (A, B) and output (C) SRAM queues** sized by the
//!   bandwidth-delay product — 25.6 GB/s × 20 ns = 512 B each ([`queue`]),
//! * a **16-wide vector ALU at 150 MHz** performing the element-wise
//!   operations ([`alu`]).
//!
//! [`core::NmpCore`] ties these together in a pipeline simulation:
//! reads are issued to the local DRAM while the input queues have space,
//! the ALU consumes completed pairs at its own clock, and results drain
//! back to DRAM through the output queue. [`overhead`] reproduces the
//! implementation-cost analysis (Table 3 and Section 6.5).
//!
//! # Example
//!
//! Run a REDUCE slice on one DIMM and inspect the achieved local bandwidth:
//!
//! ```
//! use tensordimm_isa::{DimmContext, Instruction, ReduceOp};
//! use tensordimm_nmp::{NmpConfig, NmpCore};
//!
//! let mut core = NmpCore::new(NmpConfig::default())?;
//! let reduce = Instruction::Reduce {
//!     input1: 0,
//!     input2: 1 << 16,
//!     output_base: 1 << 17,
//!     count: 32 * 512, // 1 MiB tensor over 32 DIMMs
//!     op: ReduceOp::Add,
//! };
//! let stats = core.run_instruction(&reduce, DimmContext::new(32, 0), None)?;
//! assert!(stats.achieved_gbps() > 10.0, "got {}", stats.achieved_gbps());
//! # Ok::<(), tensordimm_nmp::NmpError>(())
//! ```

pub mod alu;
pub mod core;
pub mod overhead;
pub mod queue;

pub use crate::core::{NmpCore, NmpRunStats};
pub use alu::VectorAlu;
pub use overhead::{DimmPowerModel, FpgaUtilization, NmpOverheads, SramSizing};
pub use queue::SramQueue;

use std::error::Error;
use std::fmt;

use tensordimm_dram::DramError;
use tensordimm_isa::IsaError;

/// Configuration of one NMP core and its local DRAM.
#[derive(Debug, Clone, PartialEq)]
pub struct NmpConfig {
    /// The DIMM-local DRAM channel (defaults to DDR4-3200, 25.6 GB/s).
    pub dram: tensordimm_dram::DramConfig,
    /// Vector ALU lanes (16 in the paper: one 64-byte block per op).
    pub alu_lanes: usize,
    /// Vector ALU clock in MHz (150 in the paper).
    pub alu_clock_mhz: u64,
    /// Capacity of each input SRAM queue (A and B) in bytes.
    pub input_queue_bytes: usize,
    /// Hot-row SRAM cache in front of the local DRAM gather path
    /// (disabled by default: the paper's TensorDIMM has no such tier —
    /// RecNMP-style hot-entry caching is an opt-in extension).
    pub hot_rows: tensordimm_cache::HotRowCacheConfig,
    /// Cross-check every `run_plan` replay against the static analyzer
    /// (`tensordimm_analysis`): the replayed DRAM request counts must
    /// match the statically predicted ones and the cycle count must
    /// dominate the physical lower bound. Off by default — the check runs
    /// after timing completes, so disabling it is bit-identical and adds
    /// zero hot-path work; tests and CI turn it on.
    pub verify: bool,
}

impl NmpConfig {
    /// The paper's configuration: DDR4-3200 local channel, 16-wide ALU at
    /// 150 MHz, 512-byte queues (Section 4.2).
    pub fn paper() -> Self {
        NmpConfig {
            dram: tensordimm_dram::DramConfig::ddr4_3200_channel(),
            alu_lanes: 16,
            alu_clock_mhz: 150,
            input_queue_bytes: 512,
            hot_rows: tensordimm_cache::HotRowCacheConfig::disabled(),
            verify: false,
        }
    }

    /// Input queue capacity in 64-byte entries.
    pub fn input_queue_entries(&self) -> usize {
        self.input_queue_bytes / 64
    }

    /// Check everything [`NmpCore::new`] requires of this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NmpError::Dram`] for an invalid local-DRAM configuration
    /// or [`NmpError::QueueTooSmall`] for input queues below one 64-byte
    /// entry.
    pub fn validate(&self) -> Result<(), NmpError> {
        self.dram.validate()?;
        if self.input_queue_entries() == 0 {
            return Err(NmpError::QueueTooSmall {
                bytes: self.input_queue_bytes,
            });
        }
        Ok(())
    }
}

impl Default for NmpConfig {
    fn default() -> Self {
        NmpConfig::paper()
    }
}

/// Errors from the NMP core.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NmpError {
    /// The local DRAM configuration is invalid.
    Dram(DramError),
    /// The instruction is malformed for this node.
    Isa(IsaError),
    /// A queue capacity is too small to hold even one 64-byte entry.
    QueueTooSmall {
        /// Offending capacity in bytes.
        bytes: usize,
    },
    /// Verify mode found the replay and the static analyzer in
    /// disagreement (see [`NmpConfig::verify`]).
    Verify(tensordimm_analysis::VerifyFailure),
}

impl fmt::Display for NmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NmpError::Dram(e) => write!(f, "local DRAM error: {e}"),
            NmpError::Isa(e) => write!(f, "instruction error: {e}"),
            NmpError::QueueTooSmall { bytes } => {
                write!(f, "SRAM queue of {bytes} bytes cannot hold a 64-byte entry")
            }
            NmpError::Verify(e) => write!(f, "verify mode: {e}"),
        }
    }
}

impl Error for NmpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NmpError::Dram(e) => Some(e),
            NmpError::Isa(e) => Some(e),
            NmpError::QueueTooSmall { .. } => None,
            NmpError::Verify(e) => Some(e),
        }
    }
}

impl From<tensordimm_analysis::VerifyFailure> for NmpError {
    fn from(e: tensordimm_analysis::VerifyFailure) -> Self {
        NmpError::Verify(e)
    }
}

impl From<DramError> for NmpError {
    fn from(e: DramError) -> Self {
        NmpError::Dram(e)
    }
}

impl From<IsaError> for NmpError {
    fn from(e: IsaError) -> Self {
        NmpError::Isa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_constants() {
        let c = NmpConfig::paper();
        assert_eq!(c.alu_lanes, 16);
        assert_eq!(c.alu_clock_mhz, 150);
        assert_eq!(c.input_queue_entries(), 8);
    }

    #[test]
    fn error_wrapping() {
        let e: NmpError = DramError::InvalidGeometry {
            parameter: "rows",
            value: 3,
        }
        .into();
        assert!(e.to_string().contains("rows"));
        let e: NmpError = IsaError::UnknownOpcode(9).into();
        assert!(e.to_string().contains("opcode"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
