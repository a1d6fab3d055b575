//! DDR4 command vocabulary.

/// The DRAM commands the controller can issue.
///
/// Auto-precharge variants ([`DramCommand::ReadAp`], [`DramCommand::WriteAp`])
/// are used under the closed-page policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramCommand {
    /// Open a row in a bank.
    Activate,
    /// Close the open row in a bank.
    Precharge,
    /// Close all open rows in a rank (precedes refresh).
    PrechargeAll,
    /// Column read burst.
    Read,
    /// Column read burst with auto-precharge.
    ReadAp,
    /// Column write burst.
    Write,
    /// Column write burst with auto-precharge.
    WriteAp,
    /// All-bank refresh.
    Refresh,
}

impl DramCommand {
    /// The number of commands: the length of a table indexed by
    /// `cmd as usize`.
    pub(crate) const COUNT: usize = 8;
    /// Whether this is a column (data-transferring) command.
    pub fn is_column(self) -> bool {
        matches!(
            self,
            DramCommand::Read | DramCommand::ReadAp | DramCommand::Write | DramCommand::WriteAp
        )
    }

    /// Whether this command transfers data from DRAM to the controller.
    pub fn is_read(self) -> bool {
        matches!(self, DramCommand::Read | DramCommand::ReadAp)
    }

    /// Whether this command transfers data from the controller to DRAM.
    pub fn is_write(self) -> bool {
        matches!(self, DramCommand::Write | DramCommand::WriteAp)
    }

    /// Whether this command carries an auto-precharge.
    pub fn auto_precharges(self) -> bool {
        matches!(self, DramCommand::ReadAp | DramCommand::WriteAp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(DramCommand::Read.is_column());
        assert!(DramCommand::WriteAp.is_column());
        assert!(!DramCommand::Activate.is_column());
        assert!(DramCommand::ReadAp.is_read());
        assert!(!DramCommand::Write.is_read());
        assert!(DramCommand::Write.is_write());
        assert!(DramCommand::WriteAp.auto_precharges());
        assert!(!DramCommand::Read.auto_precharges());
    }
}
