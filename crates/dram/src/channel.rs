//! Channel-level timing state: ranks plus the shared data bus.

use crate::address::DramAddr;
use crate::bank::Rank;
use crate::command::DramCommand;
use crate::config::Geometry;
use crate::timing::DramTiming;

/// The most recent data burst on the channel's shared bus.
#[derive(Debug, Clone, Copy)]
struct BusUse {
    /// Cycle the burst finishes (exclusive).
    end: u64,
    /// Rank that drove / received the burst.
    rank: usize,
}

/// Timing state for one memory channel: all ranks plus bus arbitration.
#[derive(Debug, Clone)]
pub struct ChannelState {
    /// Per-rank state.
    pub ranks: Vec<Rank>,
    bank_groups: usize,
    banks_per_group: usize,
    last_burst: Option<BusUse>,
    /// Last READ command cycle on the channel (for read-to-write turnaround).
    last_read_cmd: Option<u64>,
}

impl ChannelState {
    /// Fresh channel state for the given geometry; refresh deadlines are
    /// staggered per rank so refreshes do not synchronize pathologically.
    pub fn new(geom: &Geometry, timing: &DramTiming) -> Self {
        let ranks = (0..geom.ranks_per_channel)
            .map(|r| {
                let stagger = timing.trefi * r as u64 / geom.ranks_per_channel.max(1) as u64;
                Rank::new(
                    geom.bank_groups,
                    geom.banks_per_group,
                    timing.trefi + stagger,
                )
            })
            .collect();
        ChannelState {
            ranks,
            bank_groups: geom.bank_groups,
            banks_per_group: geom.banks_per_group,
            last_burst: None,
            last_read_cmd: None,
        }
    }

    /// Earliest cycle the shared data bus admits a burst from `rank` whose
    /// data starts `data_lat` cycles after the command.
    fn bus_free_from(&self, t: &DramTiming, rank: usize, data_lat: u64) -> u64 {
        match self.last_burst {
            None => 0,
            Some(b) => {
                let gap = if b.rank != rank { t.tcs } else { 0 };
                (b.end + gap).saturating_sub(data_lat)
            }
        }
    }

    /// Earliest cycle at which `cmd` could issue to `addr` given the
    /// current channel state, or `None` when the command is structurally
    /// impossible right now (column access to a closed or mismatched row).
    ///
    /// This is the primitive behind the event-driven engine: between
    /// command issues all timing state is frozen, so the value stays exact
    /// until the next state change. [`ChannelState::can_issue`] is defined
    /// as `earliest_issue(..) <= cycle`, which keeps the fast path and the
    /// tick oracle incapable of disagreeing.
    pub fn earliest_issue(&self, t: &DramTiming, cmd: DramCommand, addr: &DramAddr) -> Option<u64> {
        let rank = &self.ranks[addr.rank];
        match cmd {
            DramCommand::Activate => Some(rank.earliest_activate(addr.bank_group, addr.bank)),
            DramCommand::Precharge => Some(rank.earliest_precharge(addr.bank_group, addr.bank)),
            DramCommand::PrechargeAll => {
                let mut earliest = rank.refresh_busy_until;
                for bg in 0..self.bank_groups {
                    for b in 0..self.banks_per_group {
                        earliest = earliest.max(rank.earliest_precharge(bg, b));
                    }
                }
                Some(earliest)
            }
            DramCommand::Read | DramCommand::ReadAp => {
                let bank = &rank.banks[rank.bank_index(addr.bank_group, addr.bank)];
                if bank.open_row != Some(addr.row) {
                    return None;
                }
                let earliest = rank
                    .earliest_read(addr.bank_group, addr.bank)
                    .max(self.bus_free_from(t, addr.rank, t.cl));
                Some(earliest)
            }
            DramCommand::Write | DramCommand::WriteAp => {
                let bank = &rank.banks[rank.bank_index(addr.bank_group, addr.bank)];
                if bank.open_row != Some(addr.row) {
                    return None;
                }
                let mut earliest = rank
                    .earliest_write(addr.bank_group, addr.bank)
                    .max(self.bus_free_from(t, addr.rank, t.cwl));
                if let Some(at) = self.last_read_cmd {
                    earliest = earliest.max(at + t.read_to_write());
                }
                Some(earliest)
            }
            DramCommand::Refresh => Some(rank.earliest_refresh()),
        }
    }

    /// The row open in `addr`'s bank, if any.
    pub(crate) fn open_row(&self, addr: &DramAddr) -> Option<usize> {
        let rank = &self.ranks[addr.rank];
        rank.banks[rank.bank_index(addr.bank_group, addr.bank)].open_row
    }

    /// The next command a request to `addr` needs and the earliest cycle
    /// it could issue: `col` (its column command) on an open-row hit,
    /// ACTIVATE on a closed bank, PRECHARGE on a conflicting row. The
    /// cycle depends only on the command and on `addr`'s rank, bank group
    /// and bank (plus bus state), so every request queued to one bank
    /// that needs the same command shares it.
    pub(crate) fn next_command(
        &self,
        t: &DramTiming,
        addr: &DramAddr,
        col: DramCommand,
    ) -> (u64, DramCommand) {
        let rank = &self.ranks[addr.rank];
        match self.open_row(addr) {
            Some(row) if row == addr.row => {
                let earliest = self
                    .earliest_issue(t, col, addr)
                    .expect("a column command to the open row is structurally possible");
                (earliest, col)
            }
            Some(_) => (
                rank.earliest_precharge(addr.bank_group, addr.bank),
                DramCommand::Precharge,
            ),
            None => (
                rank.earliest_activate(addr.bank_group, addr.bank),
                DramCommand::Activate,
            ),
        }
    }

    /// Whether `cmd` may issue to `addr` at `cycle`.
    pub fn can_issue(&self, t: &DramTiming, cmd: DramCommand, addr: &DramAddr, cycle: u64) -> bool {
        self.earliest_issue(t, cmd, addr)
            .is_some_and(|earliest| earliest <= cycle)
    }

    /// Apply the state changes of issuing `cmd` to `addr` at `cycle`.
    ///
    /// Callers must have checked [`ChannelState::can_issue`]; this method
    /// only mutates state.
    pub fn issue(&mut self, t: &DramTiming, cmd: DramCommand, addr: &DramAddr, cycle: u64) {
        let rank = &mut self.ranks[addr.rank];
        match cmd {
            DramCommand::Activate => {
                rank.record_activate(t, addr.bank_group, addr.bank, cycle, addr.row);
            }
            DramCommand::Precharge => {
                rank.record_precharge(t, addr.bank_group, addr.bank, cycle);
            }
            DramCommand::PrechargeAll => {
                for bg in 0..self.bank_groups {
                    for b in 0..self.banks_per_group {
                        let rank = &mut self.ranks[addr.rank];
                        if rank.banks[rank.bank_index(bg, b)].open_row.is_some() {
                            rank.record_precharge(t, bg, b, cycle);
                        }
                    }
                }
            }
            DramCommand::Read | DramCommand::ReadAp => {
                rank.record_read(t, addr.bank_group, addr.bank, cycle, cmd.auto_precharges());
                self.last_read_cmd = Some(cycle);
                self.last_burst = Some(BusUse {
                    end: cycle + t.cl + t.burst_cycles(),
                    rank: addr.rank,
                });
            }
            DramCommand::Write | DramCommand::WriteAp => {
                rank.record_write(t, addr.bank_group, addr.bank, cycle, cmd.auto_precharges());
                self.last_burst = Some(BusUse {
                    end: cycle + t.cwl + t.burst_cycles(),
                    rank: addr.rank,
                });
            }
            DramCommand::Refresh => {
                rank.record_refresh(t, cycle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn setup() -> (ChannelState, DramTiming) {
        let cfg = DramConfig::ddr4_3200_channel();
        (ChannelState::new(&cfg.geometry, &cfg.timing), cfg.timing)
    }

    fn addr(rank: usize, bg: usize, bank: usize, row: usize, col: usize) -> DramAddr {
        DramAddr {
            channel: 0,
            rank,
            bank_group: bg,
            bank,
            row,
            column: col,
        }
    }

    #[test]
    fn activate_then_read_sequence() {
        let (mut ch, t) = setup();
        let a = addr(0, 0, 0, 5, 0);
        assert!(ch.can_issue(&t, DramCommand::Activate, &a, 0));
        assert!(!ch.can_issue(&t, DramCommand::Read, &a, 0));
        ch.issue(&t, DramCommand::Activate, &a, 0);
        assert!(!ch.can_issue(&t, DramCommand::Read, &a, t.trcd - 1));
        assert!(ch.can_issue(&t, DramCommand::Read, &a, t.trcd));
    }

    #[test]
    fn back_to_back_reads_respect_ccd() {
        let (mut ch, t) = setup();
        let a = addr(0, 0, 0, 5, 0);
        let b = addr(0, 1, 0, 5, 0);
        ch.issue(&t, DramCommand::Activate, &a, 0);
        ch.issue(&t, DramCommand::Activate, &b, t.trrd_s);
        let c0 = t.trcd + t.trrd_s;
        ch.issue(&t, DramCommand::Read, &a, c0);
        // Same bank group: tCCD_L; other group: tCCD_S.
        assert!(!ch.can_issue(&t, DramCommand::Read, &a, c0 + t.tccd_s));
        assert!(ch.can_issue(&t, DramCommand::Read, &b, c0 + t.tccd_s));
        assert!(ch.can_issue(&t, DramCommand::Read, &a, c0 + t.tccd_l));
    }

    #[test]
    fn cross_rank_bus_gap() {
        let (mut ch, t) = setup();
        let a = addr(0, 0, 0, 5, 0);
        let b = addr(1, 0, 0, 5, 0);
        ch.issue(&t, DramCommand::Activate, &a, 0);
        ch.issue(&t, DramCommand::Activate, &b, t.trrd_s);
        let c0 = 100;
        ch.issue(&t, DramCommand::Read, &a, c0);
        // Same cycle-spacing read on another rank must leave a tCS bus gap:
        // data would start at c+CL; earliest ok is burst end + tCS - CL.
        let burst_end = c0 + t.cl + t.burst_cycles();
        let earliest = burst_end + t.tcs - t.cl;
        assert!(!ch.can_issue(&t, DramCommand::Read, &b, earliest - 1));
        assert!(ch.can_issue(&t, DramCommand::Read, &b, earliest));
    }

    #[test]
    fn read_to_write_turnaround_on_channel() {
        let (mut ch, t) = setup();
        let a = addr(0, 0, 0, 5, 0);
        let b = addr(0, 1, 0, 5, 0);
        ch.issue(&t, DramCommand::Activate, &a, 0);
        ch.issue(&t, DramCommand::Activate, &b, t.trrd_s);
        let c0 = 100;
        ch.issue(&t, DramCommand::Read, &a, c0);
        assert!(!ch.can_issue(&t, DramCommand::Write, &b, c0 + t.read_to_write() - 1));
        assert!(ch.can_issue(&t, DramCommand::Write, &b, c0 + t.read_to_write()));
    }

    #[test]
    fn earliest_issue_agrees_with_can_issue() {
        let (mut ch, t) = setup();
        let a = addr(0, 0, 0, 5, 0);
        ch.issue(&t, DramCommand::Activate, &a, 0);
        let e = ch
            .earliest_issue(&t, DramCommand::Read, &a)
            .expect("row is open");
        assert!(!ch.can_issue(&t, DramCommand::Read, &a, e - 1));
        assert!(ch.can_issue(&t, DramCommand::Read, &a, e));
        // Mismatched row: structurally impossible.
        let wrong = addr(0, 0, 0, 6, 0);
        assert_eq!(ch.earliest_issue(&t, DramCommand::Read, &wrong), None);
    }

    #[test]
    fn refresh_staggering() {
        let cfg = DramConfig::ddr4_3200_channel();
        let ch = ChannelState::new(&cfg.geometry, &cfg.timing);
        let deadlines: Vec<u64> = ch.ranks.iter().map(|r| r.next_refresh_due).collect();
        let mut sorted = deadlines.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), deadlines.len(), "deadlines should differ");
    }
}
