//! System-interconnect models: PCIe, NVLINK and NVSwitch.
//!
//! The paper's system-level argument (Sections 2.2, 4.3) is that the
//! GPU-side interconnect (NVLINK v2 through NVSwitch, 150 GB/s per device)
//! is ~9× faster than the host PCIe 3.0 x16 link (16 GB/s), so a memory
//! pool attached *inside* the GPU interconnect moves embeddings an order of
//! magnitude faster than CPU-resident embeddings crossing PCIe.
//!
//! The real hardware is unavailable; these latency/bandwidth models carry
//! the same published constants and reproduce transfer times as
//! `setup latency + bytes / effective bandwidth`.
//!
//! # Example
//!
//! ```
//! use tensordimm_interconnect::{Link, Topology, Device};
//!
//! let topo = Topology::dgx_like(8);
//! let t_pcie = topo.transfer_time_us(Device::Cpu, Device::Gpu(0), 1 << 20)?;
//! let t_nvlink = topo.transfer_time_us(Device::TensorNode, Device::Gpu(0), 1 << 20)?;
//! assert!(t_pcie > 5.0 * t_nvlink, "pcie {t_pcie} vs nvlink {t_nvlink}");
//! # Ok::<(), tensordimm_interconnect::InterconnectError>(())
//! ```

pub mod fabric;
pub mod link;
pub mod topology;

pub use fabric::{Fabric, FabricTopology, LinkId, TopologyKind};
pub use link::{Link, TransferReport};
pub use topology::{Device, Topology};

use std::error::Error;
use std::fmt;

/// Errors from the interconnect model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InterconnectError {
    /// No route exists between the two devices.
    NoRoute {
        /// Source device.
        from: Device,
        /// Destination device.
        to: Device,
    },
    /// A GPU index exceeds the topology's GPU count.
    UnknownGpu {
        /// The requested GPU index.
        index: usize,
        /// GPUs present.
        gpus: usize,
    },
    /// A link parameter is non-positive.
    InvalidLink {
        /// Which parameter.
        parameter: &'static str,
    },
    /// A fabric node index exceeds the topology's node count.
    UnknownNode {
        /// The requested node index.
        index: usize,
        /// Nodes present.
        nodes: usize,
    },
    /// A fabric was asked to advance to a non-finite or past time.
    InvalidTime {
        /// The requested virtual time, µs.
        t_us: f64,
        /// The fabric's current virtual time, µs.
        now_us: f64,
    },
}

impl fmt::Display for InterconnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterconnectError::NoRoute { from, to } => {
                write!(f, "no route from {from:?} to {to:?}")
            }
            InterconnectError::UnknownGpu { index, gpus } => {
                write!(f, "gpu {index} does not exist (topology has {gpus})")
            }
            InterconnectError::InvalidLink { parameter } => {
                write!(f, "link parameter {parameter} must be positive")
            }
            InterconnectError::UnknownNode { index, nodes } => {
                write!(f, "node {index} does not exist (fabric has {nodes})")
            }
            InterconnectError::InvalidTime { t_us, now_us } => {
                write!(f, "cannot advance the fabric from {now_us} µs to {t_us} µs")
            }
        }
    }
}

impl Error for InterconnectError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = InterconnectError::NoRoute {
            from: Device::Cpu,
            to: Device::TensorNode,
        };
        assert!(!e.to_string().is_empty());
        assert!(!InterconnectError::UnknownGpu { index: 9, gpus: 8 }
            .to_string()
            .is_empty());
    }
}
