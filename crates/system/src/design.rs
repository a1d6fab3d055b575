//! The five evaluated design points.

use std::fmt;

/// One way of deploying the recommender (Section 6's five designs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// Embeddings and DNN both on the host CPU.
    CpuOnly,
    /// Embeddings gathered on the CPU, copied over PCIe, DNN on the GPU.
    CpuGpu,
    /// Pooled memory on the GPU interconnect without NMP (`PMEM`).
    Pmem,
    /// The proposal: TensorNode with NMP TensorDIMMs (`TDIMM`).
    Tdimm,
    /// Oracle GPU with infinite local memory (`GPU-only`).
    GpuOnly,
}

impl DesignPoint {
    /// All five, in the paper's presentation order.
    pub fn all() -> [DesignPoint; 5] {
        [
            DesignPoint::CpuOnly,
            DesignPoint::CpuGpu,
            DesignPoint::Pmem,
            DesignPoint::Tdimm,
            DesignPoint::GpuOnly,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            DesignPoint::CpuOnly => "CPU-only",
            DesignPoint::CpuGpu => "CPU-GPU",
            DesignPoint::Pmem => "PMEM",
            DesignPoint::Tdimm => "TDIMM",
            DesignPoint::GpuOnly => "GPU-only",
        }
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_order() {
        let all = DesignPoint::all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].label(), "CPU-only");
        assert_eq!(all[3].to_string(), "TDIMM");
    }
}
