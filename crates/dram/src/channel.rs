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
    /// Per rank, indexed by command (`cmd as usize`): the earliest cycle
    /// the data bus admits the command's burst from that rank and, for a
    /// WRITE, the read-to-write turnaround allows it; zero for a command
    /// without data. Recomputed whenever a column command issues.
    bus_bounds: Vec<[u64; DramCommand::COUNT]>,
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
            bus_bounds: vec![[0; DramCommand::COUNT]; geom.ranks_per_channel],
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

    /// The row open in `addr`'s bank, if any.
    pub(crate) fn open_row(&self, addr: &DramAddr) -> Option<usize> {
        let rank = &self.ranks[addr.rank];
        rank.banks[rank.bank_index(addr.bank_group, addr.bank)].open_row
    }

    /// The next command a request to `addr` needs and the earliest cycle
    /// its bank alone allows it ([`Bank::local_bound`]): `col` (its column
    /// command) on an open-row hit, ACTIVATE on a closed bank, PRECHARGE on
    /// a conflicting row. Both depend only on the bank's own state, so they
    /// stand until a command to the bank or a refresh of its rank; every
    /// request queued to the bank that needs the same command shares them.
    /// The command's earliest issue cycle is the maximum of this bound and
    /// [`ChannelState::shared_bound`].
    ///
    /// [`Bank::local_bound`]: crate::bank::Bank::local_bound
    pub(crate) fn local_command(&self, addr: &DramAddr, col: DramCommand) -> (u64, DramCommand) {
        let rank = &self.ranks[addr.rank];
        let bank = &rank.banks[rank.bank_index(addr.bank_group, addr.bank)];
        let cmd = match bank.open_row {
            Some(row) if row == addr.row => col,
            Some(_) => DramCommand::Precharge,
            None => DramCommand::Activate,
        };
        (bank.local_bound(cmd), cmd)
    }

    /// The part of the earliest cycle `cmd` may issue that every bank of
    /// `bank_group` in `rank` shares: the rank's [`Rank::shared_bound`]
    /// plus, for a column command, the data bus and, for a WRITE, the
    /// read-to-write turnaround. For a command that is possible now, its
    /// earliest issue cycle is the maximum of this and the bank's
    /// [`Bank::local_bound`].
    ///
    /// [`Bank::local_bound`]: crate::bank::Bank::local_bound
    pub(crate) fn shared_bound(&self, rank: usize, bank_group: usize, cmd: DramCommand) -> u64 {
        self.ranks[rank]
            .shared_bound(bank_group, cmd)
            .max(self.bus_bounds[rank][cmd as usize])
    }

    /// Recompute every rank's bus bounds after a column command moved the
    /// last burst or the last READ.
    fn update_bus_bounds(&mut self, t: &DramTiming) {
        let turnaround = self.last_read_cmd.map_or(0, |at| at + t.read_to_write());
        for rank in 0..self.bus_bounds.len() {
            let read = self.bus_free_from(t, rank, t.cl);
            let write = self.bus_free_from(t, rank, t.cwl).max(turnaround);
            let bounds = &mut self.bus_bounds[rank];
            bounds[DramCommand::Read as usize] = read;
            bounds[DramCommand::ReadAp as usize] = read;
            bounds[DramCommand::Write as usize] = write;
            bounds[DramCommand::WriteAp as usize] = write;
        }
    }

    /// Apply the state changes of issuing `cmd` to `addr` at `cycle`.
    ///
    /// Callers must have checked that `cmd` may issue at `cycle` (its
    /// bank-local bound and the bound its bank group shares both at or
    /// before it); this method only mutates state.
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
                self.update_bus_bounds(t);
            }
            DramCommand::Write | DramCommand::WriteAp => {
                rank.record_write(t, addr.bank_group, addr.bank, cycle, cmd.auto_precharges());
                self.last_burst = Some(BusUse {
                    end: cycle + t.cwl + t.burst_cycles(),
                    rank: addr.rank,
                });
                self.update_bus_bounds(t);
            }
            DramCommand::Refresh => {
                rank.record_refresh(t, cycle);
            }
        }
    }
}

/// The whole issue bound of one command, kept for the tests: the
/// scheduler issues from the split [`ChannelState::local_command`] +
/// [`ChannelState::shared_bound`], and the proptest
/// `local_and_shared_bounds_split_earliest_issue` keeps that split equal
/// to this bound on every command and state.
#[cfg(test)]
impl ChannelState {
    /// Earliest cycle at which `cmd` could issue to `addr` given the
    /// current channel state, or `None` when the command is structurally
    /// impossible right now (column access to a closed or mismatched row).
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

    /// Whether `cmd` may issue to `addr` at `cycle`.
    pub fn can_issue(&self, t: &DramTiming, cmd: DramCommand, addr: &DramAddr, cycle: u64) -> bool {
        self.earliest_issue(t, cmd, addr)
            .is_some_and(|earliest| earliest <= cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random ACT/RD/WR/RDA/WRA/PRE/REF sequences over two or four
        /// ranks at non-decreasing cycles, legal or not. After every
        /// command, for every bank and command, the bank-local bound and
        /// the shared bound kept at issue time split the earliest issue
        /// cycle exactly: `max(local, shared) == earliest_issue`. A
        /// rank-wide command takes the maximum over the rank's banks, and
        /// `local_command` names the command a request to each row needs.
        /// Gaps are short, so column commands crowd the bus, tCCD and the
        /// turnarounds, and activates reach the tFAW window.
        #[test]
        fn local_and_shared_bounds_split_earliest_issue(
            ranks_log in 1u32..3,
            ops in prop::collection::vec(
                (0usize..16, 0usize..4, 0usize..4, 0usize..4, 0usize..3, 0u64..24),
                1..120,
            ),
        ) {
            let mut cfg = DramConfig::ddr4_3200_channel();
            cfg.geometry.ranks_per_channel = 1 << ranks_log;
            cfg.timing.trefi = 400;
            let t = cfg.timing;
            let mut ch = ChannelState::new(&cfg.geometry, &t);
            let mut cycle = 0;
            for (op, rank, bg, bank, row, gap) in ops {
                cycle += gap;
                let rank = rank % cfg.geometry.ranks_per_channel;
                let cmd = match op {
                    0..=4 => DramCommand::Activate,
                    5..=6 => DramCommand::Read,
                    7 => DramCommand::ReadAp,
                    8..=9 => DramCommand::Write,
                    10 => DramCommand::WriteAp,
                    11..=13 => DramCommand::Precharge,
                    _ => DramCommand::Refresh,
                };
                ch.issue(&t, cmd, &addr(rank, bg, bank, row, 0), cycle);
                for rank in 0..cfg.geometry.ranks_per_channel {
                    for cmd in [DramCommand::PrechargeAll, DramCommand::Refresh] {
                        let split = (0..4)
                            .flat_map(|bg| (0..4).map(move |b| (bg, b)))
                            .map(|(bg, b)| {
                                let r = &ch.ranks[rank];
                                let local = r.banks[r.bank_index(bg, b)].local_bound(cmd);
                                local.max(ch.shared_bound(rank, bg, cmd))
                            })
                            .max();
                        prop_assert_eq!(ch.earliest_issue(&t, cmd, &addr(rank, 0, 0, 0, 0)), split);
                    }
                    for bg in 0..4 {
                        for b in 0..4 {
                            let open = ch.open_row(&addr(rank, bg, b, 0, 0));
                            let at = addr(rank, bg, b, open.unwrap_or(0), 0);
                            let r = &ch.ranks[rank];
                            let local = &r.banks[r.bank_index(bg, b)];
                            for cmd in [
                                DramCommand::Activate,
                                DramCommand::Precharge,
                                DramCommand::Read,
                                DramCommand::ReadAp,
                                DramCommand::Write,
                                DramCommand::WriteAp,
                            ] {
                                let split = local.local_bound(cmd).max(ch.shared_bound(rank, bg, cmd));
                                // A column command to a closed bank is impossible.
                                let expect = (!cmd.is_column() || open.is_some()).then_some(split);
                                prop_assert_eq!(ch.earliest_issue(&t, cmd, &at), expect);
                            }
                            for row in 0..3 {
                                let request = addr(rank, bg, b, row, 0);
                                let need = match open {
                                    Some(o) if o == row => DramCommand::Write,
                                    Some(_) => DramCommand::Precharge,
                                    None => DramCommand::Activate,
                                };
                                let (local, cmd) = ch.local_command(&request, DramCommand::Write);
                                prop_assert_eq!(cmd, need);
                                prop_assert_eq!(
                                    Some(local.max(ch.shared_bound(rank, bg, cmd))),
                                    ch.earliest_issue(&t, cmd, &request)
                                );
                            }
                        }
                    }
                }
            }
        }
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
