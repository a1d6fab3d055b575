//! Bank and rank timing state.
//!
//! Each bank tracks the earliest cycle at which each command class may be
//! issued to it; each rank tracks cross-bank constraints (tRRD, tFAW,
//! CAS-to-CAS spacing, write-to-read turnaround, refresh).

use std::collections::VecDeque;

use crate::command::DramCommand;
use crate::timing::DramTiming;

/// Timing state of a single DRAM bank.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Currently open row, if any.
    pub open_row: Option<usize>,
    /// Earliest cycle an ACTIVATE may issue (tRP / tRC / tRFC).
    pub next_act: u64,
    /// Earliest cycle a PRECHARGE may issue (tRAS / tRTP / write recovery).
    pub next_pre: u64,
    /// Earliest cycle a READ may issue (tRCD).
    pub next_rd: u64,
    /// Earliest cycle a WRITE may issue (tRCD).
    pub next_wr: u64,
}

/// Timing state of a rank: its banks plus rank-wide constraints.
///
/// The cross-bank constraints are kept as bounds raised when a command is
/// recorded: each ACTIVATE, READ, WRITE and REFRESH raises the earliest
/// cycle the next command of each kind may issue to every bank group.
/// Commands are recorded in issue order, so the bound a command leaves
/// never falls below one an earlier command left, and a running maximum
/// equals the spacing from the latest command per bank group.
#[derive(Debug, Clone)]
pub struct Rank {
    /// Banks, indexed `bank_group * banks_per_group + bank`.
    pub banks: Vec<Bank>,
    banks_per_group: usize,
    /// Issue times of the most recent ACTIVATEs (bounded by four, for tFAW).
    act_window: VecDeque<u64>,
    /// Per bank group, indexed by command (`cmd as usize`): the earliest
    /// cycle the rank-wide constraints allow that command to any bank of
    /// the group. Refresh bounds every command; past ACTIVATEs bound an
    /// ACTIVATE (tRRD_S/L, tFAW); past READs and WRITEs bound a column
    /// command (tCCD_S/L, tWTR_S/L).
    shared: Vec<[u64; DramCommand::COUNT]>,
    /// Next scheduled refresh deadline.
    pub next_refresh_due: u64,
    /// Rank is unavailable until this cycle (mid-refresh).
    pub refresh_busy_until: u64,
}

/// The column commands, reads first.
const COLUMN: [DramCommand; 4] = [
    DramCommand::Read,
    DramCommand::ReadAp,
    DramCommand::Write,
    DramCommand::WriteAp,
];

impl Bank {
    /// The earliest cycle this bank's own timing allows `cmd`: its next
    /// ACTIVATE (also for REFRESH), PRECHARGE (also for PRECHARGE-ALL),
    /// READ or WRITE cycle. Only a command to this bank or a refresh of its
    /// rank moves it.
    pub(crate) fn local_bound(&self, cmd: DramCommand) -> u64 {
        match cmd {
            DramCommand::Activate | DramCommand::Refresh => self.next_act,
            DramCommand::Precharge | DramCommand::PrechargeAll => self.next_pre,
            DramCommand::Read | DramCommand::ReadAp => self.next_rd,
            DramCommand::Write | DramCommand::WriteAp => self.next_wr,
        }
    }
}

impl Rank {
    /// A fresh rank with `bank_groups * banks_per_group` banks.
    pub fn new(bank_groups: usize, banks_per_group: usize, first_refresh: u64) -> Self {
        Rank {
            banks: vec![Bank::default(); bank_groups * banks_per_group],
            banks_per_group,
            act_window: VecDeque::with_capacity(4),
            shared: vec![[0; DramCommand::COUNT]; bank_groups],
            next_refresh_due: first_refresh,
            refresh_busy_until: 0,
        }
    }

    /// Flat bank index.
    pub fn bank_index(&self, bank_group: usize, bank: usize) -> usize {
        bank_group * self.banks_per_group + bank
    }

    /// Earliest cycle a PRECHARGE to `(bank_group, bank)` may issue.
    pub fn earliest_precharge(&self, bank_group: usize, bank: usize) -> u64 {
        self.banks[self.bank_index(bank_group, bank)]
            .next_pre
            .max(self.refresh_busy_until)
    }

    /// The rank-wide part of the earliest cycle `cmd` may issue to any bank
    /// of `bank_group`: refresh, plus tRRD and tFAW for ACTIVATE, plus
    /// CAS-to-CAS spacing and write-to-read turnaround for a column
    /// command. A command's earliest cycle is the maximum of this and the
    /// bank's own [`Bank::local_bound`].
    pub(crate) fn shared_bound(&self, bank_group: usize, cmd: DramCommand) -> u64 {
        self.shared[bank_group][cmd as usize]
    }

    /// Raise bank group `bank_group`'s shared bound of every command in
    /// `cmds` to at least `at`.
    fn raise(&mut self, bank_group: usize, cmds: &[DramCommand], at: u64) {
        let bounds = &mut self.shared[bank_group];
        for &cmd in cmds {
            bounds[cmd as usize] = bounds[cmd as usize].max(at);
        }
    }

    /// Record an ACTIVATE issued at `cycle`.
    pub fn record_activate(
        &mut self,
        t: &DramTiming,
        bank_group: usize,
        bank: usize,
        cycle: u64,
        row: usize,
    ) {
        let idx = self.bank_index(bank_group, bank);
        let b = &mut self.banks[idx];
        b.open_row = Some(row);
        b.next_rd = b.next_rd.max(cycle + t.trcd);
        b.next_wr = b.next_wr.max(cycle + t.trcd);
        b.next_pre = b.next_pre.max(cycle + t.tras);
        b.next_act = b.next_act.max(cycle + t.trc());
        // The four-activate window bounds every bank group alike.
        if self.act_window.len() == 4 {
            self.act_window.pop_front();
        }
        self.act_window.push_back(cycle);
        let faw = if self.act_window.len() == 4 {
            self.act_window[0] + t.tfaw
        } else {
            0
        };
        for bg in 0..self.shared.len() {
            let spacing = if bg == bank_group { t.trrd_l } else { t.trrd_s };
            self.raise(bg, &[DramCommand::Activate], faw.max(cycle + spacing));
        }
    }

    /// Record a READ issued at `cycle`; `auto_precharge` models RDA.
    pub fn record_read(
        &mut self,
        t: &DramTiming,
        bank_group: usize,
        bank: usize,
        cycle: u64,
        auto_precharge: bool,
    ) {
        for bg in 0..self.shared.len() {
            let ccd = if bg == bank_group { t.tccd_l } else { t.tccd_s };
            self.raise(bg, &COLUMN, cycle + ccd);
        }
        let idx = self.bank_index(bank_group, bank);
        let b = &mut self.banks[idx];
        b.next_pre = b.next_pre.max(cycle + t.trtp);
        if auto_precharge {
            let pre_at = b.next_pre;
            b.open_row = None;
            b.next_act = b.next_act.max(pre_at + t.trp);
        }
    }

    /// Record a WRITE issued at `cycle`; `auto_precharge` models WRA.
    pub fn record_write(
        &mut self,
        t: &DramTiming,
        bank_group: usize,
        bank: usize,
        cycle: u64,
        auto_precharge: bool,
    ) {
        for bg in 0..self.shared.len() {
            let (ccd, wtr) = if bg == bank_group {
                (t.tccd_l, t.write_to_read_same_bg())
            } else {
                (t.tccd_s, t.write_to_read_diff_bg())
            };
            self.raise(bg, &COLUMN[..2], cycle + ccd.max(wtr));
            self.raise(bg, &COLUMN[2..], cycle + ccd);
        }
        let idx = self.bank_index(bank_group, bank);
        let b = &mut self.banks[idx];
        b.next_pre = b.next_pre.max(cycle + t.write_to_precharge());
        if auto_precharge {
            let pre_at = b.next_pre;
            b.open_row = None;
            b.next_act = b.next_act.max(pre_at + t.trp);
        }
    }

    /// Record a PRECHARGE issued at `cycle`.
    pub fn record_precharge(&mut self, t: &DramTiming, bank_group: usize, bank: usize, cycle: u64) {
        let idx = self.bank_index(bank_group, bank);
        let b = &mut self.banks[idx];
        b.open_row = None;
        b.next_act = b.next_act.max(cycle + t.trp);
    }

    /// Whether every bank in the rank is precharged (required before REF).
    pub fn all_banks_closed(&self) -> bool {
        self.banks.iter().all(|b| b.open_row.is_none())
    }

    /// Earliest cycle a REFRESH may issue (all banks closed and settled).
    pub fn earliest_refresh(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.next_act)
            .max()
            .unwrap_or(0)
            .max(self.refresh_busy_until)
    }

    /// Earliest cycle at or after `now` at which this rank's refresh
    /// machinery could act or change state: the pending deadline if the
    /// rank is not yet due, otherwise the earliest cycle an open bank can
    /// be precharged (refresh requires all banks closed), or — once all
    /// banks are closed — the earliest cycle REFRESH itself may issue.
    ///
    /// A return value `<= now` means the machinery can act right now.
    pub fn next_refresh_event(&self, now: u64) -> u64 {
        if now < self.next_refresh_due {
            return self.next_refresh_due;
        }
        if self.all_banks_closed() {
            return self.earliest_refresh();
        }
        let mut earliest = u64::MAX;
        for (idx, bank) in self.banks.iter().enumerate() {
            if bank.open_row.is_some() {
                let bg = idx / self.banks_per_group;
                let b = idx % self.banks_per_group;
                earliest = earliest.min(self.earliest_precharge(bg, b));
            }
        }
        earliest
    }

    /// Record a REFRESH issued at `cycle`.
    pub fn record_refresh(&mut self, t: &DramTiming, cycle: u64) {
        self.refresh_busy_until = cycle + t.trfc;
        for bounds in &mut self.shared {
            for bound in bounds {
                *bound = (*bound).max(cycle + t.trfc);
            }
        }
        for b in &mut self.banks {
            b.next_act = b.next_act.max(cycle + t.trfc);
        }
        self.next_refresh_due += t.trefi;
    }
}

/// Per-command issue bounds of one bank, kept for the tests: the
/// scheduler combines [`Bank::local_bound`] and [`Rank::shared_bound`]
/// itself.
#[cfg(test)]
impl Rank {
    /// Earliest cycle an ACTIVATE to `(bank_group, bank)` may issue.
    pub fn earliest_activate(&self, bank_group: usize, bank: usize) -> u64 {
        self.banks[self.bank_index(bank_group, bank)]
            .next_act
            .max(self.shared_bound(bank_group, DramCommand::Activate))
    }

    /// Earliest cycle a READ to `(bank_group, bank)` may issue,
    /// considering only rank-internal constraints.
    pub fn earliest_read(&self, bank_group: usize, bank: usize) -> u64 {
        self.banks[self.bank_index(bank_group, bank)]
            .next_rd
            .max(self.shared_bound(bank_group, DramCommand::Read))
    }

    /// Earliest cycle a WRITE to `(bank_group, bank)` may issue,
    /// considering only rank-internal constraints.
    pub fn earliest_write(&self, bank_group: usize, bank: usize) -> u64 {
        self.banks[self.bank_index(bank_group, bank)]
            .next_wr
            .max(self.shared_bound(bank_group, DramCommand::Write))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rank() -> Rank {
        Rank::new(4, 4, 12480)
    }

    #[test]
    fn activate_opens_row_and_spaces_commands() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        r.record_activate(&t, 0, 0, 100, 7);
        assert_eq!(r.banks[0].open_row, Some(7));
        assert_eq!(r.earliest_read(0, 0), 100 + t.trcd);
        assert_eq!(r.earliest_precharge(0, 0), 100 + t.tras);
        // Same bank group: tRRD_L; different: tRRD_S.
        assert_eq!(r.earliest_activate(0, 1), 100 + t.trrd_l);
        assert_eq!(r.earliest_activate(1, 0), 100 + t.trrd_s);
        // Same bank: tRC.
        assert_eq!(r.earliest_activate(0, 0), 100 + t.trc());
    }

    #[test]
    fn four_activate_window_enforced() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        // Four activates to different bank groups at the rrd_s cadence.
        let mut c = 0;
        for i in 0..4 {
            r.record_activate(&t, i, 0, c, 0);
            c += t.trrd_s;
        }
        // Fifth activate must wait for the window regardless of tRRD.
        let e = r.earliest_activate(0, 1);
        assert!(e >= t.tfaw, "tFAW not enforced: {e}");
    }

    #[test]
    fn write_to_read_turnaround() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        r.record_activate(&t, 0, 0, 0, 1);
        r.record_activate(&t, 1, 0, t.trrd_s, 1);
        r.record_write(&t, 0, 0, 50, false);
        // Same bank group pays the long turnaround.
        assert!(r.earliest_read(0, 0) >= 50 + t.write_to_read_same_bg());
        // Different group pays the short one.
        assert!(r.earliest_read(1, 0) >= 50 + t.write_to_read_diff_bg());
        assert!(r.earliest_read(1, 0) < 50 + t.write_to_read_same_bg());
    }

    #[test]
    fn refresh_blocks_rank() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        assert!(r.all_banks_closed());
        r.record_refresh(&t, 1000);
        assert_eq!(r.refresh_busy_until, 1000 + t.trfc);
        assert!(r.earliest_activate(0, 0) >= 1000 + t.trfc);
        assert_eq!(r.next_refresh_due, 12480 + t.trefi);
    }

    #[test]
    fn auto_precharge_closes_row() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        r.record_activate(&t, 0, 0, 0, 3);
        r.record_read(&t, 0, 0, t.trcd, true);
        assert_eq!(r.banks[0].open_row, None);
        // Next activate waits for tRAS (precharge gate) + tRP at least.
        assert!(r.banks[0].next_act >= t.tras + t.trp);
    }

    #[test]
    fn closed_rank_is_refreshable_immediately() {
        let r = rank();
        assert_eq!(r.earliest_refresh(), 0);
    }

    #[test]
    fn next_refresh_event_tracks_machinery_state() {
        let t = DramTiming::ddr4_3200();
        let mut r = rank();
        // Before the deadline: the event is the deadline itself.
        assert_eq!(r.next_refresh_event(0), 12480);
        // Past the deadline with all banks closed: refresh-ready time.
        assert_eq!(r.next_refresh_event(12480), r.earliest_refresh());
        // An open bank gates the event on its earliest precharge.
        r.record_activate(&t, 1, 2, 12000, 9);
        assert_eq!(r.next_refresh_event(12480), 12000 + t.tras);
    }

    /// The cross-bank formulas the bounds replaced, kept as their oracle:
    /// the latest ACTIVATE, READ and WRITE per bank group, with every
    /// spacing re-derived from them on each query.
    struct History {
        act_window: VecDeque<u64>,
        last_act: Vec<Option<u64>>,
        last_rd: Vec<Option<u64>>,
        last_wr: Vec<Option<u64>>,
    }

    impl History {
        fn new(bank_groups: usize) -> Self {
            History {
                act_window: VecDeque::with_capacity(4),
                last_act: vec![None; bank_groups],
                last_rd: vec![None; bank_groups],
                last_wr: vec![None; bank_groups],
            }
        }

        fn record_activate(&mut self, bank_group: usize, cycle: u64) {
            self.last_act[bank_group] = Some(cycle);
            if self.act_window.len() == 4 {
                self.act_window.pop_front();
            }
            self.act_window.push_back(cycle);
        }

        fn earliest_activate(
            &self,
            r: &Rank,
            t: &DramTiming,
            bank_group: usize,
            bank: usize,
        ) -> u64 {
            let mut earliest = r.banks[r.bank_index(bank_group, bank)].next_act;
            earliest = earliest.max(r.refresh_busy_until);
            for (bg, last) in self.last_act.iter().enumerate() {
                if let Some(at) = last {
                    let spacing = if bg == bank_group { t.trrd_l } else { t.trrd_s };
                    earliest = earliest.max(at + spacing);
                }
            }
            if self.act_window.len() == 4 {
                earliest = earliest.max(self.act_window[0] + t.tfaw);
            }
            earliest
        }

        fn earliest_read(&self, r: &Rank, t: &DramTiming, bank_group: usize, bank: usize) -> u64 {
            let mut earliest = r.banks[r.bank_index(bank_group, bank)].next_rd;
            earliest = earliest.max(r.refresh_busy_until);
            for bg in 0..self.last_rd.len() {
                let ccd = if bg == bank_group { t.tccd_l } else { t.tccd_s };
                if let Some(at) = self.last_rd[bg] {
                    earliest = earliest.max(at + ccd);
                }
                if let Some(at) = self.last_wr[bg] {
                    earliest = earliest.max(at + ccd);
                    let wtr = if bg == bank_group {
                        t.write_to_read_same_bg()
                    } else {
                        t.write_to_read_diff_bg()
                    };
                    earliest = earliest.max(at + wtr);
                }
            }
            earliest
        }

        fn earliest_write(&self, r: &Rank, t: &DramTiming, bank_group: usize, bank: usize) -> u64 {
            let mut earliest = r.banks[r.bank_index(bank_group, bank)].next_wr;
            earliest = earliest.max(r.refresh_busy_until);
            for bg in 0..self.last_wr.len() {
                let ccd = if bg == bank_group { t.tccd_l } else { t.tccd_s };
                if let Some(at) = self.last_rd[bg] {
                    earliest = earliest.max(at + ccd);
                }
                if let Some(at) = self.last_wr[bg] {
                    earliest = earliest.max(at + ccd);
                }
            }
            earliest
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random ACT/RD/WR/RDA/WRA/PRE/REF sequences at non-decreasing
        /// cycles, legal or not: after every command the bounds kept at
        /// issue time give every bank the same earliest ACTIVATE, READ and
        /// WRITE as the formulas over the latest command per bank group.
        /// Gaps are short and refreshes rare, so bursts of ACTIVATEs reach
        /// the tFAW window and column commands crowd tCCD and tWTR.
        #[test]
        fn rank_bounds_match_the_latest_command_formulas(
            ops in prop::collection::vec(
                (0usize..16, 0usize..4, 0usize..4, 0usize..4, 0u64..24),
                1..120,
            ),
        ) {
            let t = DramTiming::ddr4_3200();
            let mut r = Rank::new(4, 4, 500);
            let mut oracle = History::new(4);
            let mut cycle = 0;
            for (op, bg, bank, row, gap) in ops {
                cycle += gap;
                match op {
                    0..=5 => {
                        r.record_activate(&t, bg, bank, cycle, row);
                        oracle.record_activate(bg, cycle);
                    }
                    6..=9 => {
                        r.record_read(&t, bg, bank, cycle, op == 9);
                        oracle.last_rd[bg] = Some(cycle);
                    }
                    10..=12 => {
                        r.record_write(&t, bg, bank, cycle, op == 12);
                        oracle.last_wr[bg] = Some(cycle);
                    }
                    13 | 14 => r.record_precharge(&t, bg, bank, cycle),
                    _ => r.record_refresh(&t, cycle),
                }
                for bg in 0..4 {
                    for bank in 0..4 {
                        prop_assert_eq!(
                            r.earliest_activate(bg, bank),
                            oracle.earliest_activate(&r, &t, bg, bank)
                        );
                        prop_assert_eq!(r.earliest_read(bg, bank), oracle.earliest_read(&r, &t, bg, bank));
                        prop_assert_eq!(
                            r.earliest_write(bg, bank),
                            oracle.earliest_write(&r, &t, bg, bank)
                        );
                    }
                }
            }
        }
    }
}
