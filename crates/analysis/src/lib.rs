//! Static analysis over TensorISA programs and access plans.
//!
//! The NMP cores execute whatever the runtime lowers; this crate checks the
//! lowered artifacts *before* they reach the replay engine:
//!
//! * [`analyze_program`] — abstract interpretation over an [`Instruction`]
//!   sequence: validation, bounds vs the DIMM's block address space,
//!   index-range checks against the provided index lists, def-before-use
//!   and read/write-overlap lints, with typed [`Diagnostic`] output. The
//!   agreement contract with the executor is:
//!
//!   * a program with no [`Severity::Error`] diagnostics executes
//!     successfully under [`tensordimm_isa::exec::execute_program_on_dimm`],
//!     and the report's statically computed [`ExecSummary`] matches the
//!     executed one exactly;
//!   * a program whose first error is *not* one of the value-indeterminate
//!     kinds ([`DiagnosticKind::MissingIndices`],
//!     [`DiagnosticKind::IndeterminateIndices`]) fails at runtime — with an
//!     `Err` or a memory-model panic — at the same instruction index the
//!     first diagnostic names.
//!
//!   (The executor's overflow behavior is debug semantics: wrapped release
//!   arithmetic could in principle land back in range where the analyzer
//!   conservatively rejects.)
//!
//! * [`analyze_plan`] — maps each [`tensordimm_isa::BlockAccess`] through
//!   the NMP-local lowering and the DRAM address mapping to produce static
//!   bank/rank conflict estimates, redundant-read / dead-write lints, and a
//!   **cycle lower bound** (max of a data-bus bandwidth bound, a
//!   row-activation bound, a rank tFAW/tRRD bound, and an SRAM-port bound
//!   for hot-row hits) that the replay engine's measured cycles can never
//!   undercut. `tensordimm_nmp::NmpCore::run_plan` checks it in verify
//!   mode, and the `sweep_static_check` bench gates it across the Fig. 14
//!   grid.
//!
//! [`Instruction`]: tensordimm_isa::Instruction
//! [`ExecSummary`]: tensordimm_isa::ExecSummary

pub mod plan;
pub mod program;

pub use plan::{
    analyze_accesses, analyze_plan, gather_tail_waste, lower_block_byte, BankConflicts,
    CycleBounds, PlanAnalysis, PlanLint, TailWaste,
};
pub use program::{analyze_program, static_summary, ProgramReport, ProgramStep};

use std::error::Error;
use std::fmt;

use tensordimm_dram::DramError;
use tensordimm_isa::IsaError;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational lint (e.g. a read of memory the program never wrote);
    /// execution is unaffected.
    Info,
    /// Suspicious but well-defined (e.g. an output window overlapping an
    /// input window): execution succeeds, values may surprise.
    Warning,
    /// Execution fails (error or memory-model panic), or the analyzer
    /// cannot prove it succeeds.
    Error,
}

/// What the analyzer found.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DiagnosticKind {
    /// The instruction (or the DIMM context) fails
    /// [`tensordimm_isa::Instruction::validate`]; the payload is the exact
    /// executor error.
    Malformed(IsaError),
    /// A read addresses beyond the DIMM's block address space (the flat
    /// memory model panics on this).
    OobRead {
        /// Which operand's read window overflows.
        what: &'static str,
        /// First out-of-range block.
        block: u64,
        /// Address-space size in blocks.
        blocks: u64,
    },
    /// A write addresses beyond the DIMM's block address space.
    OobWrite {
        /// Which operand's write window overflows.
        what: &'static str,
        /// First out-of-range block.
        block: u64,
        /// Address-space size in blocks.
        blocks: u64,
    },
    /// A gather index maps past the address space — the same condition
    /// (and payload) as [`IsaError::IndexOutOfRange`] from the executor.
    IndexOutOfRange {
        /// The offending index value.
        index: u64,
        /// The last block the indexed vector would occupy.
        block: u64,
        /// Address-space size in blocks.
        blocks: u64,
    },
    /// A GATHER was submitted without its runtime index list; the analyzer
    /// cannot bound its table reads.
    MissingIndices,
    /// An earlier write window (or the gather's own output window) overlaps
    /// this GATHER's index-list window: the indices the executor will read
    /// are not the ones provided, so acceptance is undecidable.
    IndeterminateIndices {
        /// Index of the instruction whose writes clobber the index list
        /// (may equal the gather's own index).
        clobbered_by: usize,
    },
    /// A read window touches no block previously written by this program
    /// (the data must be a pre-initialized input).
    UseBeforeDef {
        /// Which operand reads the unwritten window.
        what: &'static str,
        /// First block of the window.
        first_block: u64,
        /// Last block of the window.
        last_block: u64,
    },
    /// An instruction's output window overlaps one of its own input
    /// windows: reads and writes interleave, so late reads observe fresh
    /// outputs.
    ReadWriteOverlap {
        /// Which input window the output overlaps.
        what: &'static str,
        /// First overlapping block.
        first_block: u64,
        /// Last overlapping block.
        last_block: u64,
    },
}

impl DiagnosticKind {
    /// The severity this kind always carries.
    pub fn severity(&self) -> Severity {
        match self {
            DiagnosticKind::Malformed(_)
            | DiagnosticKind::OobRead { .. }
            | DiagnosticKind::OobWrite { .. }
            | DiagnosticKind::IndexOutOfRange { .. }
            | DiagnosticKind::MissingIndices
            | DiagnosticKind::IndeterminateIndices { .. } => Severity::Error,
            DiagnosticKind::ReadWriteOverlap { .. } => Severity::Warning,
            DiagnosticKind::UseBeforeDef { .. } => Severity::Info,
        }
    }

    /// Whether acceptance of the program is undecidable rather than
    /// provably failing (the executor may still succeed on these).
    pub fn is_indeterminate(&self) -> bool {
        matches!(
            self,
            DiagnosticKind::MissingIndices | DiagnosticKind::IndeterminateIndices { .. }
        )
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosticKind::Malformed(e) => write!(f, "malformed instruction: {e}"),
            DiagnosticKind::OobRead {
                what,
                block,
                blocks,
            } => write!(f, "{what} read at block {block} beyond capacity {blocks}"),
            DiagnosticKind::OobWrite {
                what,
                block,
                blocks,
            } => write!(f, "{what} write at block {block} beyond capacity {blocks}"),
            DiagnosticKind::IndexOutOfRange {
                index,
                block,
                blocks,
            } => write!(
                f,
                "gather index {index} maps to block {block} beyond capacity {blocks}"
            ),
            DiagnosticKind::MissingIndices => {
                f.write_str("gather submitted without its runtime index list")
            }
            DiagnosticKind::IndeterminateIndices { clobbered_by } => write!(
                f,
                "index-list window clobbered by instruction {clobbered_by}'s writes"
            ),
            DiagnosticKind::UseBeforeDef {
                what,
                first_block,
                last_block,
            } => write!(
                f,
                "{what} reads blocks {first_block}..={last_block} never written by this program"
            ),
            DiagnosticKind::ReadWriteOverlap {
                what,
                first_block,
                last_block,
            } => write!(
                f,
                "output window overlaps {what} at blocks {first_block}..={last_block}"
            ),
        }
    }
}

/// One analyzer finding, anchored to the instruction that causes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is (always [`DiagnosticKind::severity`] of `kind`).
    pub severity: Severity,
    /// Index of the instruction in the analyzed program.
    pub instr_index: usize,
    /// What was found.
    pub kind: DiagnosticKind,
}

impl Diagnostic {
    /// A diagnostic for `kind` at `instr_index`.
    pub fn new(instr_index: usize, kind: DiagnosticKind) -> Self {
        Diagnostic {
            severity: kind.severity(),
            instr_index,
            kind,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[instr {}]: {}", self.instr_index, self.kind)
    }
}

/// A verify-mode failure: the replay engine and the static analyzer
/// disagree (raised by `NmpCore::run_plan` when its `verify` knob is on).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum VerifyFailure {
    /// The replayed DRAM request counts differ from the statically
    /// predicted ones.
    PlanMismatch {
        /// Reads the analyzer predicted reach DRAM.
        expected_reads: u64,
        /// Writes the analyzer predicted reach DRAM.
        expected_writes: u64,
        /// Reads the replay performed.
        actual_reads: u64,
        /// Writes the replay performed.
        actual_writes: u64,
    },
    /// The replay finished in fewer cycles than the physical lower bound —
    /// a timing-engine bug by construction.
    BoundExceeded {
        /// The static cycle lower bound.
        lower_bound: u64,
        /// The replayed cycle count.
        cycles: u64,
    },
    /// The program failed static verification outright.
    Rejected {
        /// The first error-severity diagnostic.
        first: Diagnostic,
    },
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyFailure::PlanMismatch {
                expected_reads,
                expected_writes,
                actual_reads,
                actual_writes,
            } => write!(
                f,
                "replayed DRAM traffic ({actual_reads}r/{actual_writes}w) does not match \
                 static prediction ({expected_reads}r/{expected_writes}w)"
            ),
            VerifyFailure::BoundExceeded {
                lower_bound,
                cycles,
            } => write!(
                f,
                "replay finished in {cycles} cycles, below the static lower bound {lower_bound}"
            ),
            VerifyFailure::Rejected { first } => write!(f, "program rejected: {first}"),
        }
    }
}

impl Error for VerifyFailure {}

/// Errors from the analyzers themselves (invalid configuration, never a
/// property of the analyzed program — those become [`Diagnostic`]s).
///
/// Deliberately exhaustive: callers (the NMP verify hook) re-map every
/// variant onto their own error type, and a new variant should be a
/// compile error there.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The DIMM context or instruction shape is unusable.
    Isa(IsaError),
    /// The DRAM configuration is invalid.
    Dram(DramError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Isa(e) => write!(f, "isa error: {e}"),
            AnalysisError::Dram(e) => write!(f, "dram error: {e}"),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Isa(e) => Some(e),
            AnalysisError::Dram(e) => Some(e),
        }
    }
}

impl From<IsaError> for AnalysisError {
    fn from(e: IsaError) -> Self {
        AnalysisError::Isa(e)
    }
}

impl From<DramError> for AnalysisError {
    fn from(e: DramError) -> Self {
        AnalysisError::Dram(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severities_order() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn diagnostic_carries_kind_severity() {
        let d = Diagnostic::new(3, DiagnosticKind::MissingIndices);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.instr_index, 3);
        assert!(d.kind.is_indeterminate());
        assert!(d.to_string().contains("instr 3"));
    }

    #[test]
    fn displays_are_nonempty() {
        for kind in [
            DiagnosticKind::Malformed(IsaError::ZeroField { field: "count" }),
            DiagnosticKind::OobRead {
                what: "input1",
                block: 10,
                blocks: 8,
            },
            DiagnosticKind::OobWrite {
                what: "output",
                block: 10,
                blocks: 8,
            },
            DiagnosticKind::IndexOutOfRange {
                index: 1,
                block: 10,
                blocks: 8,
            },
            DiagnosticKind::MissingIndices,
            DiagnosticKind::IndeterminateIndices { clobbered_by: 0 },
            DiagnosticKind::UseBeforeDef {
                what: "input1",
                first_block: 0,
                last_block: 3,
            },
            DiagnosticKind::ReadWriteOverlap {
                what: "table",
                first_block: 0,
                last_block: 3,
            },
        ] {
            assert!(!kind.to_string().is_empty());
        }
        for v in [
            VerifyFailure::PlanMismatch {
                expected_reads: 1,
                expected_writes: 2,
                actual_reads: 3,
                actual_writes: 4,
            },
            VerifyFailure::BoundExceeded {
                lower_bound: 10,
                cycles: 5,
            },
            VerifyFailure::Rejected {
                first: Diagnostic::new(0, DiagnosticKind::MissingIndices),
            },
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisError>();
        assert_send_sync::<VerifyFailure>();
        assert_send_sync::<Diagnostic>();
    }
}
