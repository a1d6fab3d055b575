//! Per-operation reports.

use tensordimm_isa::{EncodedInstruction, ExecSummary, Instruction};
use tensordimm_nmp::NmpRunStats;

/// What one TensorISA operation did and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct OpReport {
    /// The decoded instruction that executed.
    pub instruction: Instruction,
    /// The wire form that was broadcast to the DIMMs.
    pub encoded: EncodedInstruction,
    /// Functional work performed across all DIMMs.
    pub exec: ExecSummary,
    /// Timing of one representative DIMM's slice (slices are symmetric),
    /// when the node runs with a timing mode other than `Functional`.
    pub timing: Option<NmpRunStats>,
    /// Number of DIMMs that executed the instruction.
    pub dimms: u64,
    /// Ranks behind each DIMM's NMP core (its local DRAM geometry), which
    /// set the background-power share of [`OpReport::energy`].
    pub ranks_per_dimm: usize,
}

impl OpReport {
    /// Elapsed time in nanoseconds (the slowest — representative — DIMM).
    pub fn elapsed_ns(&self) -> Option<f64> {
        self.timing.as_ref().map(NmpRunStats::elapsed_ns)
    }

    /// Aggregate node bandwidth achieved by the operation, GB/s
    /// (per-DIMM achieved × DIMM count).
    pub fn node_gbps(&self) -> Option<f64> {
        self.timing
            .as_ref()
            .map(|t| t.achieved_gbps() * self.dimms as f64)
    }

    /// Bytes moved across all DIMMs (reads + writes).
    pub fn bytes_moved(&self) -> u64 {
        self.exec.bytes_moved()
    }

    /// Node-wide DRAM energy of the operation under the default DDR4-3200
    /// model (per-DIMM simulated energy scaled by the DIMM count), when
    /// timing was simulated.
    pub fn energy(&self) -> Option<tensordimm_dram::EnergyReport> {
        let timing = self.timing.as_ref()?;
        let per_dimm =
            tensordimm_dram::EnergyModel::default().report(&timing.memory, self.ranks_per_dimm);
        Some(tensordimm_dram::EnergyReport {
            dynamic_nj: per_dimm.dynamic_nj * self.dimms as f64,
            background_nj: per_dimm.background_nj * self.dimms as f64,
            bytes: per_dimm.bytes * self.dimms,
            seconds: per_dimm.seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordimm_isa::{encode, ReduceOp};

    #[test]
    fn report_without_timing() {
        let instruction = Instruction::Reduce {
            input1: 0,
            input2: 32,
            output_base: 64,
            count: 32,
            op: ReduceOp::Add,
        };
        let r = OpReport {
            encoded: encode(&instruction).unwrap(),
            instruction,
            exec: ExecSummary {
                blocks_read: 64,
                blocks_written: 32,
                alu_ops: 32,
            },
            timing: None,
            dimms: 32,
            ranks_per_dimm: 4,
        };
        assert_eq!(r.bytes_moved(), 96 * 64);
        assert!(r.elapsed_ns().is_none());
        assert!(r.node_gbps().is_none());
    }
}
