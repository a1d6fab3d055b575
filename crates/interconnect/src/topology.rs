//! System topology: which devices connect over which links.

use crate::link::Link;
use crate::InterconnectError;

/// A device in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The host CPU (and its DDR4 memory).
    Cpu,
    /// A GPU, by index.
    Gpu(usize),
    /// The TensorDIMM-based disaggregated memory node.
    TensorNode,
}

/// A DGX-like topology: GPUs and the TensorNode hang off an NVSwitch
/// crossbar; the CPU reaches each GPU over PCIe. This is Fig. 6(c).
///
/// Routing rules (matching the paper's system):
/// * CPU ↔ GPU: PCIe.
/// * GPU ↔ GPU and GPU ↔ TensorNode: NVLINK through NVSwitch (the switch is
///   non-blocking, so a single transfer sees the full per-device NVLINK
///   bandwidth).
/// * CPU ↔ TensorNode: PCIe to a GPU then NVLINK (staged; used only by
///   loading paths, never on the inference critical path).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    gpus: usize,
    pcie: Link,
    nvlink: Link,
}

impl Topology {
    /// A DGX-like box with `gpus` V100-class devices, PCIe 3.0 x16 to the
    /// host and six NVLINK v2 bricks per device.
    pub fn dgx_like(gpus: usize) -> Self {
        Topology {
            gpus,
            pcie: Link::pcie3_x16(),
            nvlink: Link::nvlink2_x6(),
        }
    }

    /// Replace the GPU-side link (the Fig. 16 sensitivity knob).
    pub fn with_gpu_link(mut self, link: Link) -> Self {
        self.nvlink = link;
        self
    }

    /// Number of GPUs.
    pub fn gpus(&self) -> usize {
        self.gpus
    }

    /// The GPU-side (NVLINK) link.
    pub fn gpu_link(&self) -> &Link {
        &self.nvlink
    }

    fn check_gpu(&self, d: Device) -> Result<(), InterconnectError> {
        if let Device::Gpu(i) = d {
            if i >= self.gpus {
                return Err(InterconnectError::UnknownGpu {
                    index: i,
                    gpus: self.gpus,
                });
            }
        }
        Ok(())
    }

    /// The links a transfer crosses, in order.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::UnknownGpu`] for out-of-range GPU
    /// indices and [`InterconnectError::NoRoute`] for degenerate routes
    /// (same endpoint on both sides).
    pub fn route(&self, from: Device, to: Device) -> Result<Vec<&Link>, InterconnectError> {
        self.check_gpu(from)?;
        self.check_gpu(to)?;
        use Device::*;
        match (from, to) {
            (Cpu, Gpu(_)) | (Gpu(_), Cpu) => Ok(vec![&self.pcie]),
            (Gpu(a), Gpu(b)) if a != b => Ok(vec![&self.nvlink]),
            (TensorNode, Gpu(_)) | (Gpu(_), TensorNode) => Ok(vec![&self.nvlink]),
            (Cpu, TensorNode) | (TensorNode, Cpu) => Ok(vec![&self.pcie, &self.nvlink]),
            (a, b) => Err(InterconnectError::NoRoute { from: a, to: b }),
        }
    }

    /// Modeled transfer time in microseconds for `bytes` along the route.
    ///
    /// Staged routes sum per-hop times (store-and-forward, conservative).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::route`].
    pub fn transfer_time_us(
        &self,
        from: Device,
        to: Device,
        bytes: u64,
    ) -> Result<f64, InterconnectError> {
        Ok(self
            .route(from, to)?
            .iter()
            .map(|l| l.transfer_time_us(bytes))
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes() {
        let t = Topology::dgx_like(8);
        assert_eq!(t.route(Device::Cpu, Device::Gpu(0)).unwrap().len(), 1);
        assert_eq!(t.route(Device::Gpu(0), Device::Gpu(1)).unwrap().len(), 1);
        assert_eq!(
            t.route(Device::TensorNode, Device::Gpu(3)).unwrap().len(),
            1
        );
        assert_eq!(t.route(Device::Cpu, Device::TensorNode).unwrap().len(), 2);
        assert!(t.route(Device::Gpu(0), Device::Gpu(0)).is_err());
        assert!(t.route(Device::Cpu, Device::Cpu).is_err());
    }

    #[test]
    fn unknown_gpu() {
        let t = Topology::dgx_like(2);
        assert!(matches!(
            t.route(Device::Cpu, Device::Gpu(2)),
            Err(InterconnectError::UnknownGpu { .. })
        ));
    }

    #[test]
    fn nvlink_beats_pcie() {
        let t = Topology::dgx_like(8);
        let bytes = 64 << 20;
        let pcie = t
            .transfer_time_us(Device::Cpu, Device::Gpu(0), bytes)
            .unwrap();
        let nv = t
            .transfer_time_us(Device::TensorNode, Device::Gpu(0), bytes)
            .unwrap();
        assert!(pcie / nv > 8.0, "ratio {}", pcie / nv);
    }

    #[test]
    fn link_swap_for_sensitivity() {
        let slow = Topology::dgx_like(8).with_gpu_link(Link::nvlink_class(25.0).unwrap());
        let fast = Topology::dgx_like(8);
        let bytes = 1 << 20;
        let s = slow
            .transfer_time_us(Device::TensorNode, Device::Gpu(0), bytes)
            .unwrap();
        let f = fast
            .transfer_time_us(Device::TensorNode, Device::Gpu(0), bytes)
            .unwrap();
        assert!(s > 2.0 * f);
    }

    #[test]
    fn staged_route_sums() {
        let t = Topology::dgx_like(1);
        let bytes = 1 << 20;
        let direct = t
            .transfer_time_us(Device::Cpu, Device::Gpu(0), bytes)
            .unwrap();
        let staged = t
            .transfer_time_us(Device::Cpu, Device::TensorNode, bytes)
            .unwrap();
        assert!(staged > direct);
    }
}

#[cfg(test)]
mod accessor_tests {
    use super::*;

    #[test]
    fn accessors_expose_links() {
        let t = Topology::dgx_like(4);
        assert_eq!(t.gpus(), 4);
        assert_eq!(t.gpu_link().bandwidth_gbps(), 150.0);
    }

    #[test]
    fn transfer_scales_linearly_past_setup() {
        let t = Topology::dgx_like(2);
        let small = t
            .transfer_time_us(Device::TensorNode, Device::Gpu(0), 1 << 20)
            .unwrap();
        let big = t
            .transfer_time_us(Device::TensorNode, Device::Gpu(0), 1 << 24)
            .unwrap();
        let setup = t.gpu_link().setup_us();
        assert!(((big - setup) / (small - setup) - 16.0).abs() < 0.1);
    }
}
