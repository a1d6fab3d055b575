//! Cycle-level DDR4 DRAM simulator.
//!
//! This crate is the memory-system substrate of the TensorDIMM reproduction
//! (MICRO-52, 2019). The paper evaluates DRAM bandwidth utilization of its
//! near-memory tensor operations with Ramulator; since no such simulator is
//! available here, this crate rebuilds the relevant abstraction level from
//! scratch:
//!
//! * a timing-constraint engine for DDR4 commands (activate / precharge /
//!   read / write / refresh) over channels, ranks, bank groups and banks
//!   ([`timing::DramTiming`], [`bank`], [`channel`]),
//! * a per-channel memory controller with FR-FCFS or FCFS scheduling,
//!   open- or closed-page row policies and watermark-based write draining
//!   ([`controller::MemoryController`]),
//! * a multi-channel front end with configurable physical-to-DRAM address
//!   mapping ([`system::MemorySystem`], [`address::MappingScheme`]); its
//!   channels advance one after another on the caller's thread,
//! * trace replay helpers and detailed statistics ([`trace`], [`stats`]).
//!
//! The model is deliberately Ramulator-like: commands are issued at cycle
//! granularity subject to JEDEC timing constraints, and achieved bandwidth is
//! measured from data-bus occupancy.
//!
//! # Example
//!
//! Stream sequential reads through a single DDR4-3200 channel and confirm the
//! achieved bandwidth approaches the 25.6 GB/s channel peak:
//!
//! ```
//! use tensordimm_dram::{DramConfig, MemorySystem, Request};
//!
//! let config = DramConfig::ddr4_3200_channel();
//! let mut mem = MemorySystem::new(config)?;
//! for i in 0..4096u64 {
//!     mem.push_when_ready(Request::read(i * 64));
//! }
//! mem.run_to_completion();
//! let stats = mem.stats();
//! assert!(stats.achieved_gbps() > 20.0, "got {}", stats.achieved_gbps());
//! # Ok::<(), tensordimm_dram::DramError>(())
//! ```

pub mod address;
pub mod bank;
pub mod channel;
pub mod command;
pub mod config;
pub mod controller;
pub mod energy;
pub mod request;
pub mod stats;
pub mod system;
pub mod timing;
pub mod trace;

pub use address::{DramAddr, Field, MappingScheme};
pub use command::DramCommand;
pub use config::{DramConfig, RowPolicy, SchedulerKind};
pub use controller::MemoryController;
pub use energy::{EnergyModel, EnergyReport};
pub use request::{Completion, Request, RequestKind};
pub use stats::{ChannelStats, MemoryStats};
pub use system::MemorySystem;
pub use timing::DramTiming;
pub use trace::{Trace, TraceEntry, TraceRunner};

use std::error::Error;
use std::fmt;

/// Errors reported by the DRAM simulator.
///
/// Construction-time validation ([`DramConfig::validate`]) catches geometry
/// and mapping mistakes before any simulation runs; runtime methods are
/// infallible once a configuration validates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// The address mapping does not cover the configured geometry.
    MappingMismatch {
        /// Field whose bit count disagrees with the geometry.
        field: Field,
        /// Bits the mapping provides for the field.
        mapped_bits: u32,
        /// Bits the geometry requires for the field.
        required_bits: u32,
    },
    /// A geometry parameter is zero or not a power of two.
    InvalidGeometry {
        /// Human-readable name of the offending parameter.
        parameter: &'static str,
        /// The rejected value.
        value: usize,
    },
    /// A timing parameter combination is inconsistent.
    InvalidTiming {
        /// Human-readable description of the inconsistency.
        reason: &'static str,
    },
    /// An address decodes outside the configured capacity.
    AddressOutOfRange {
        /// The rejected physical address.
        addr: u64,
        /// Total configured capacity in bytes.
        capacity: u64,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::MappingMismatch {
                field,
                mapped_bits,
                required_bits,
            } => write!(
                f,
                "address mapping provides {mapped_bits} bits for {field:?} \
                 but the geometry requires {required_bits}"
            ),
            DramError::InvalidGeometry { parameter, value } => write!(
                f,
                "geometry parameter {parameter} = {value} must be a nonzero power of two"
            ),
            DramError::InvalidTiming { reason } => {
                write!(f, "inconsistent timing parameters: {reason}")
            }
            DramError::AddressOutOfRange { addr, capacity } => write!(
                f,
                "address {addr:#x} is outside the configured capacity of {capacity} bytes"
            ),
        }
    }
}

impl Error for DramError {}

/// Granularity of a single burst access: 64 bytes (x64 bus, BL8).
pub const ACCESS_BYTES: u64 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = DramError::InvalidGeometry {
            parameter: "rows",
            value: 3,
        };
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }
}
