//! The 16-wide vector ALU.
//!
//! The ALU is clocked at 150 MHz and processes one 64-byte block (sixteen
//! f32 lanes) per cycle. The paper argues this is sufficient because every
//! accelerated operation moves at least three 64-byte bursts over the
//! 25.6 GB/s local bus per ALU operation (two operand reads and one result
//! write for REDUCE), capping the required ALU rate at ~133 M op/s.

/// A throughput/latency model of the NMP vector ALU.
///
/// Functionally the ALU is [`tensordimm_isa::Vec16::reduce`]; this type
/// models *when* operations complete. Time is expressed in DRAM controller
/// cycles so the ALU composes directly with the local memory simulation.
///
/// # Example
///
/// ```
/// use tensordimm_nmp::VectorAlu;
///
/// // 150 MHz ALU against a 1600 MHz DRAM clock.
/// let mut alu = VectorAlu::new(150, 1600);
/// let done1 = alu.issue(100.0, 1);
/// let done2 = alu.issue(100.0, 1); // must wait for the first op
/// assert!(done2 > done1);
/// assert_eq!(alu.ops(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VectorAlu {
    /// DRAM cycles per ALU operation.
    interval: f64,
    /// Time (in DRAM cycles) when the ALU becomes free.
    free_at: f64,
    ops: u64,
    busy: f64,
}

impl VectorAlu {
    /// An ALU at `alu_clock_mhz` servicing one block op per ALU cycle,
    /// measured against a `dram_clock_mhz` timebase.
    pub fn new(alu_clock_mhz: u64, dram_clock_mhz: u64) -> Self {
        VectorAlu {
            interval: dram_clock_mhz as f64 / alu_clock_mhz.max(1) as f64,
            free_at: 0.0,
            ops: 0,
            busy: 0.0,
        }
    }

    /// DRAM cycles consumed per ALU operation.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Issue `ops` back-to-back operations whose operands are ready at
    /// `ready_at` (DRAM cycles); returns the completion time.
    pub fn issue(&mut self, ready_at: f64, ops: u64) -> f64 {
        let start = self.free_at.max(ready_at);
        let work = self.interval * ops as f64;
        self.free_at = start + work;
        self.ops += ops;
        self.busy += work;
        self.free_at
    }

    /// When the ALU next becomes free (DRAM cycles).
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Operations executed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total busy time in DRAM cycles.
    pub fn busy_cycles(&self) -> f64 {
        self.busy
    }

    /// Reset to idle.
    pub fn reset(&mut self) {
        self.free_at = 0.0;
        self.ops = 0;
        self.busy = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_of_ops() {
        let mut alu = VectorAlu::new(160, 1600); // interval = 10 cycles
        assert_eq!(alu.interval(), 10.0);
        let d1 = alu.issue(0.0, 1);
        assert_eq!(d1, 10.0);
        // Operand ready late: starts then.
        let d2 = alu.issue(100.0, 1);
        assert_eq!(d2, 110.0);
        // Operand ready early: starts when ALU frees.
        let d3 = alu.issue(0.0, 2);
        assert_eq!(d3, 130.0);
        assert_eq!(alu.ops(), 4);
        assert_eq!(alu.busy_cycles(), 40.0);
    }

    #[test]
    fn reset() {
        let mut alu = VectorAlu::new(150, 1600);
        alu.issue(0.0, 5);
        alu.reset();
        assert_eq!(alu.ops(), 0);
        assert_eq!(alu.free_at(), 0.0);
    }

    #[test]
    fn zero_clock_is_clamped() {
        let alu = VectorAlu::new(0, 1600);
        assert!(alu.interval().is_finite());
    }
}
