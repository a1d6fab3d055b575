//! Per-channel memory controller.
//!
//! Implements FR-FCFS (first-ready, first-come-first-served) or strict FCFS
//! scheduling over separate read and write queues, with watermark-based
//! write draining, open- or closed-page row management, and all-bank
//! refresh. One DRAM command may issue per controller cycle.
//!
//! # One candidate per bank, in rank order
//!
//! Each queue keeps, per bank (rank, bank group, bank), a FIFO of its
//! requests in arrival order and a count of those that hit the bank's
//! open row. The next command of a queued request is its column command
//! on an open-row hit, ACTIVATE on a closed bank, or PRECHARGE on a row
//! conflict, and the earliest cycle that command can issue reads only
//! rank, bank-group, bank and bus state. So every hit queued to one bank
//! shares one issue cycle, as does every miss, and a scheduling decision
//! evaluates one candidate per bank with queued requests:
//!
//! - FR-FCFS: the bank's oldest open-row hit if its hit count is nonzero,
//!   else its oldest request. A conflicting row is never precharged while
//!   the count is nonzero, because those hits issue first. The issuable
//!   column command with the lowest arrival sequence wins; failing that,
//!   the issuable ACTIVATE or PRECHARGE with the lowest sequence.
//! - FCFS: only the oldest request in the queue; it precharges a
//!   conflicting row even when younger requests still hit it.
//!
//! FR-FCFS keeps its live banks sorted by that rank: column command
//! before ACTIVATE/PRECHARGE, then the served request's arrival sequence.
//! A request joining a bank, a served request leaving it and an open row
//! changing re-rank only that bank. A decision walks the banks in this
//! order and stops at the first candidate that can issue now, which is
//! the winner. Only a decision with nothing issuable visits every bank,
//! because it needs the horizon: the earliest cycle any candidate could
//! issue. FCFS keeps its queue head instead.
//!
//! This picks the same request and command as the two-pass linear scan of
//! the whole queue that it replaced; the tests keep that scan as the
//! oracle.
//!
//! # Event-driven time skipping
//!
//! [`MemoryController::tick`] advances exactly one cycle and is the
//! bit-exact oracle. [`MemoryController::advance_to`] and
//! [`MemoryController::run_until_idle`] reach the same state by jumping
//! over spans in which provably nothing can happen: every internal step
//! also computes a *horizon* — a lower bound on the next cycle at which a
//! queued command could become issuable, a refresh falls due or becomes
//! serviceable, or an in-flight burst completes. Between command issues
//! all timing state is frozen, so jumping to the horizon (while crediting
//! the skipped span to [`ChannelStats::busy_cycles`]) is exactly
//! equivalent to ticking through it.
//!
//! The same frozen state lets the event path reuse scheduling work:
//!
//! - an idle step and [`MemoryController::next_event_cycle`] both store
//!   the horizon they prove, and both reuse a stored horizon until a
//!   command issues or a request is enqueued;
//! - when [`MemoryController::next_event_cycle`] finds a command issuable
//!   now, it keeps that decision, tagged with its cycle, memo epoch and
//!   write-drain mode. The step at that cycle issues it without deciding
//!   again. An enqueue drops it; an issued command or a refresh moves the
//!   memo epoch, which voids it;
//! - a candidate's earliest issue cycle is the maximum of two exact
//!   parts. The *bank-local* part is the command the bank's candidate
//!   needs and the bank's own next ACTIVATE, PRECHARGE, READ or WRITE
//!   cycle. Each queue memoizes it per bank and clears it only when that
//!   bank changes: a request joins it, a command issues to it from either
//!   queue (a refresh-path PRECHARGE too), or its rank refreshes. The
//!   *shared* part is what every bank of one rank and bank group shares
//!   for that command: refresh, tRRD/tFAW, tCCD/tWTR, the data bus and
//!   read-to-write turnaround. The channel keeps it current at issue time
//!   in tables indexed by command, and a decision reads it at every visit.
//!   So an issued command re-evaluates its own bank's candidate, not every
//!   bank's, and [`MemoryController::candidate_evaluations`] counts the
//!   visits the memo could not answer.
//!
//! [`MemoryController::tick`], the oracle, decides afresh every cycle and
//! evaluates every bank it visits afresh: it moves the tick generation the
//! memos are tagged with, which voids them all without clearing them.

use std::collections::VecDeque;
use std::ops::Range;

use crate::address::DramAddr;
use crate::channel::ChannelState;
use crate::command::DramCommand;
use crate::config::{DramConfig, RowPolicy, SchedulerKind};
use crate::request::{Completion, Request, RequestKind};
use crate::stats::ChannelStats;

#[derive(Debug, Clone)]
struct QueuedRequest {
    request: Request,
    dram: DramAddr,
    /// Arrival order across both queues (the age FCFS and FR-FCFS rank by).
    seq: u64,
    enqueued_at: u64,
    /// The request had to activate a row (row miss).
    needed_activate: bool,
    /// The request had to close another row first (row conflict).
    needed_precharge: bool,
}

/// Key bit of an FR-FCFS candidate that needs ACTIVATE or PRECHARGE;
/// clear for a column command. The rest of a key is the arrival sequence
/// of the request the candidate serves, so keys order candidates as a
/// decision ranks them: column commands first, then the oldest.
const PREP: u64 = 1 << 63;

/// The banks a decision visits, in the order it visits them.
#[derive(Debug, Clone)]
enum Candidates {
    /// FR-FCFS: every live bank, sorted by its candidate's key.
    ByAge(AgeOrder),
    /// FCFS: the bank of every queued request in arrival order. FCFS
    /// serves only the oldest request, so its front is the queue head and
    /// a column command pops it.
    Fcfs(VecDeque<usize>),
}

/// The live banks of an FR-FCFS queue sorted by candidate key.
#[derive(Debug, Clone)]
struct AgeOrder {
    /// `(key, bank)` for every bank with queued requests, ascending.
    sorted: Vec<(u64, usize)>,
    /// Per bank: its key in `sorted`, `None` while its FIFO is empty.
    keys: Vec<Option<u64>>,
}

impl AgeOrder {
    /// Move `bank` to `key` (`None`: out of the order). Keys are unique,
    /// so a binary search finds a bank's entry.
    fn set(&mut self, bank: usize, key: Option<u64>) {
        let old = std::mem::replace(&mut self.keys[bank], key);
        if old == key {
            return;
        }
        if let Some(old) = old {
            let at = self.sorted.partition_point(|&(k, _)| k < old);
            self.sorted.remove(at);
        }
        if let Some(key) = key {
            let at = self.sorted.partition_point(|&(k, _)| k < key);
            self.sorted.insert(at, (key, bank));
        }
    }
}

/// One request queue (reads or writes), bucketed by bank. Banks are
/// indexed flat across ranks: `rank * banks_per_rank` plus the bank's
/// index within its rank ([`DramAddr::flat_bank`]).
#[derive(Debug, Clone)]
struct BankQueue {
    /// Per bank: its queued requests in arrival order.
    fifos: Vec<VecDeque<QueuedRequest>>,
    /// Per bank: queued requests whose row is the bank's open row.
    hits: Vec<usize>,
    /// Per bank: the candidate's command and the earliest cycle the bank's
    /// own timing allows it ([`ChannelState::local_command`]), tagged with
    /// the controller's tick generation when it was computed. Cleared when
    /// the bank changes: a request joins it, a command issues to it from
    /// either queue, or its rank refreshes.
    memo: Vec<Option<(u64, u64, DramCommand)>>,
    candidates: Candidates,
    /// Queued requests over all banks.
    len: usize,
}

impl BankQueue {
    fn new(banks: usize, scheduler: SchedulerKind) -> Self {
        let candidates = match scheduler {
            SchedulerKind::FrFcfs => Candidates::ByAge(AgeOrder {
                sorted: Vec::with_capacity(banks),
                keys: vec![None; banks],
            }),
            SchedulerKind::Fcfs => Candidates::Fcfs(VecDeque::new()),
        };
        BankQueue {
            fifos: vec![VecDeque::new(); banks],
            hits: vec![0; banks],
            memo: vec![None; banks],
            candidates,
            len: 0,
        }
    }

    fn push(&mut self, bank: usize, q: QueuedRequest, open_row: Option<usize>) {
        let hit = open_row == Some(q.dram.row);
        let seq = q.seq;
        if hit {
            self.hits[bank] += 1;
        }
        self.fifos[bank].push_back(q);
        self.memo[bank] = None;
        match &mut self.candidates {
            Candidates::Fcfs(order) => order.push_back(bank),
            // The youngest request changes the bank's candidate only as its
            // first request or its first open-row hit.
            Candidates::ByAge(age) => {
                if hit && self.hits[bank] == 1 {
                    age.set(bank, Some(seq));
                } else if self.fifos[bank].len() == 1 {
                    age.set(bank, Some(PREP | seq));
                }
            }
        }
        self.len += 1;
    }

    /// Drop the memoized candidates of `banks`: their timing, open row or
    /// FIFO changed.
    fn forget(&mut self, banks: Range<usize>) {
        self.memo[banks].fill(None);
    }

    /// Take the request at `pos` out of `bank`'s FIFO. The caller then
    /// settles the bank's hit count with [`BankQueue::hit_served`] or
    /// [`BankQueue::recount`], which also re-ranks it.
    fn remove(&mut self, bank: usize, pos: usize) -> QueuedRequest {
        let q = self.fifos[bank]
            .remove(pos)
            .expect("scheduler chose a queued request");
        if let Candidates::Fcfs(order) = &mut self.candidates {
            let head = order.pop_front();
            debug_assert_eq!(head, Some(bank), "FCFS serves the queue head");
        }
        self.len -= 1;
        q
    }

    /// A column command that left `row` open served `bank`'s open-row hit
    /// at `pos`, under FR-FCFS its oldest: any other hit sits at or after
    /// `pos`.
    fn hit_served(&mut self, bank: usize, pos: usize, row: usize) {
        self.hits[bank] -= 1;
        if let Candidates::ByAge(age) = &mut self.candidates {
            let fifo = &self.fifos[bank];
            let next_hit = if self.hits[bank] > 0 {
                fifo.range(pos..).find(|q| q.dram.row == row)
            } else {
                None
            };
            age.set(bank, age_key(fifo, next_hit));
        }
    }

    /// Recount `bank`'s hits after its open row changed to `open_row`.
    fn recount(&mut self, bank: usize, open_row: Option<usize>) {
        let fifo = &self.fifos[bank];
        let mut hits = 0;
        let mut first_hit = None;
        if let Some(row) = open_row {
            for q in fifo.iter().filter(|q| q.dram.row == row) {
                first_hit.get_or_insert(q);
                hits += 1;
            }
        }
        self.hits[bank] = hits;
        if let Candidates::ByAge(age) = &mut self.candidates {
            age.set(bank, age_key(fifo, first_hit));
        }
    }
}

/// A bank's FR-FCFS key: its oldest open-row hit's sequence if it has one
/// (`oldest_hit`), else [`PREP`] plus its oldest request's; `None` for an
/// empty bank.
fn age_key(fifo: &VecDeque<QueuedRequest>, oldest_hit: Option<&QueuedRequest>) -> Option<u64> {
    match oldest_hit {
        Some(q) => Some(q.seq),
        None => fifo.front().map(|q| PREP | q.seq),
    }
}

/// FIFO position of the request `cmd` serves in a bank's `fifo`: its
/// oldest request to the open row for a column command, its oldest request
/// otherwise.
fn served_pos(fifo: &VecDeque<QueuedRequest>, cmd: DramCommand, open_row: Option<usize>) -> usize {
    match open_row {
        Some(row) if cmd.is_column() => fifo
            .iter()
            .position(|q| q.dram.row == row)
            .expect("bank has an open-row hit queued"),
        _ => 0,
    }
}

/// The bank-local part of a bank's candidate: the command its request at
/// `front` needs, or with `serve_hit` its oldest open-row hit's column
/// command, and the earliest cycle the bank's own timing allows it.
fn local_candidate(
    state: &ChannelState,
    front: &DramAddr,
    serve_hit: bool,
    col: DramCommand,
) -> (u64, DramCommand) {
    let mut dram = *front;
    if serve_hit {
        dram.row = state
            .open_row(&dram)
            .expect("a bank with open-row hits has an open row");
    }
    state.local_command(&dram, col)
}

/// The outcome of one scheduling decision over a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Issue `cmd` this cycle for the request at `pos` in `bank`'s FIFO.
    Issue {
        bank: usize,
        pos: usize,
        cmd: DramCommand,
    },
    /// No candidate can issue before this cycle (`u64::MAX`: none can
    /// until a request arrives or a refresh changes the state).
    Wait(u64),
}

/// An issuable decision [`MemoryController::next_event_cycle`] found,
/// kept for the step at the same cycle. It is valid while the memo epoch
/// stands (no command issued, no refresh, no oracle tick), no request has
/// been enqueued and the step serves the same queue.
#[derive(Debug, Clone, Copy)]
struct Probe {
    cycle: u64,
    epoch: u64,
    serve_writes: bool,
    decision: Decision,
}

/// The column command a request maps to under the given row policy.
fn col_cmd(kind: RequestKind, policy: RowPolicy) -> DramCommand {
    match (kind, policy) {
        (RequestKind::Read, RowPolicy::OpenPage) => DramCommand::Read,
        (RequestKind::Read, RowPolicy::ClosedPage) => DramCommand::ReadAp,
        (RequestKind::Write, RowPolicy::OpenPage) => DramCommand::Write,
        (RequestKind::Write, RowPolicy::ClosedPage) => DramCommand::WriteAp,
    }
}

/// A single-channel DDR4 memory controller.
///
/// Normally driven through [`crate::MemorySystem`]; exposed publicly so the
/// NMP-local controller of a TensorDIMM can embed one directly.
#[derive(Debug, Clone)]
pub struct MemoryController {
    config: DramConfig,
    state: ChannelState,
    read_queue: BankQueue,
    write_queue: BankQueue,
    /// Arrival sequence the next accepted request gets.
    next_seq: u64,
    write_mode: bool,
    cycle: u64,
    /// Latest in-flight data-burst completion time.
    last_burst_done: u64,
    completions: Vec<Completion>,
    stats: ChannelStats,
    /// Cached `min` over ranks of `next_refresh_due`: the refresh machinery
    /// is provably inert before this cycle, so ticks skip the per-rank scan.
    next_refresh_due_min: u64,
    /// Horizon left by the last idle step or `next_event_cycle`: no
    /// command can issue strictly before this cycle. Valid until the
    /// queues or timing state change (a command issues or a request is
    /// enqueued); lets repeated `advance_to` and `next_event_cycle` calls
    /// reuse it without re-evaluating the banks.
    cached_horizon: Option<u64>,
    /// The issuable decision the last horizon probe found, for the step
    /// that follows it to issue without deciding again.
    probe: Option<Probe>,
    /// Idle cycles the event-driven path jumped over (diagnostic; not part
    /// of [`ChannelStats`], which stays identical between both paths).
    idle_cycles_skipped: u64,
    /// Banks the scheduler visited over all decisions (deterministic work
    /// counter; diagnostic, not part of [`ChannelStats`]).
    banks_examined: u64,
    /// Scheduling decisions evaluated (deterministic work counter; a
    /// decision reused from the horizon probe is not evaluated again).
    decisions: u64,
    /// Bank-local candidates evaluated over all decisions: the visits the
    /// per-bank memo could not answer (deterministic work counter).
    candidate_evaluations: u64,
    /// Tags the probed decision. It moves on every issued command, which
    /// can change any timing constraint, open row or FIFO, and on every
    /// [`MemoryController::tick`], which as the oracle decides afresh.
    memo_epoch: u64,
    /// Per flat bank index: its rank and bank group.
    bank_coords: Vec<(usize, usize)>,
    /// Tags the per-bank candidate memos. It moves on every
    /// [`MemoryController::tick`], so the oracle evaluates every bank it
    /// visits afresh without clearing every memo each cycle.
    tick_generation: u64,
}

impl MemoryController {
    /// Build a controller for one channel of `config`.
    ///
    /// The configuration is assumed validated (see [`DramConfig::validate`]).
    pub fn new(config: DramConfig) -> Self {
        let state = ChannelState::new(&config.geometry, &config.timing);
        let next_refresh_due_min = state
            .ranks
            .iter()
            .map(|r| r.next_refresh_due)
            .min()
            .unwrap_or(u64::MAX);
        let geom = &config.geometry;
        let per_rank = geom.banks_per_rank();
        let banks = geom.ranks_per_channel * per_rank;
        let bank_coords = (0..banks)
            .map(|bank| (bank / per_rank, bank % per_rank / geom.banks_per_group))
            .collect();
        MemoryController {
            state,
            read_queue: BankQueue::new(banks, config.scheduler),
            write_queue: BankQueue::new(banks, config.scheduler),
            next_seq: 0,
            write_mode: false,
            cycle: 0,
            last_burst_done: 0,
            completions: Vec::new(),
            stats: ChannelStats::default(),
            next_refresh_due_min,
            cached_horizon: None,
            probe: None,
            idle_cycles_skipped: 0,
            banks_examined: 0,
            decisions: 0,
            candidate_evaluations: 0,
            memo_epoch: 0,
            tick_generation: 0,
            bank_coords,
            config,
        }
    }

    /// Current controller cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Queued requests not yet issued.
    pub fn pending(&self) -> usize {
        self.read_queue.len + self.write_queue.len
    }

    /// Whether any queued request or in-flight burst remains.
    pub fn is_busy(&self) -> bool {
        self.pending() > 0 || self.cycle < self.last_burst_done
    }

    /// Offer a request (already decoded to a DRAM coordinate on this
    /// channel). Returns `false` when the corresponding queue is full.
    pub fn enqueue(&mut self, request: Request, dram: DramAddr) -> bool {
        let (queue, depth) = match request.kind {
            RequestKind::Read => (&mut self.read_queue, self.config.read_queue_depth),
            RequestKind::Write => (&mut self.write_queue, self.config.write_queue_depth),
        };
        if queue.len >= depth {
            return false;
        }
        let geom = &self.config.geometry;
        let bank = dram.rank * geom.banks_per_rank() + dram.flat_bank(geom.banks_per_group);
        let open_row = self.state.open_row(&dram);
        let queue_entry = QueuedRequest {
            request,
            dram,
            seq: self.next_seq,
            enqueued_at: self.cycle,
            needed_activate: false,
            needed_precharge: false,
        };
        queue.push(bank, queue_entry, open_row);
        self.next_seq += 1;
        // An accepted request can become issuable (or flip the write-drain
        // mode) before any previously computed horizon, and can outrank a
        // probed decision; a rejected one returned above without touching
        // state.
        self.cached_horizon = None;
        self.probe = None;
        true
    }

    /// Move all completions recorded so far into `out`, reusing its
    /// allocation (and this controller's) across drains.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Snapshot of the channel's statistics.
    pub fn stats(&self) -> ChannelStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s
    }

    /// Idle cycles the event-driven path ([`MemoryController::advance_to`],
    /// [`MemoryController::run_until_idle`]) jumped over instead of ticking.
    pub fn idle_cycles_skipped(&self) -> u64 {
        self.idle_cycles_skipped
    }

    /// Banks the scheduler visited over all its decisions, for both
    /// issuing commands and computing horizons: a deterministic measure of
    /// scheduling work. Under FR-FCFS a decision visits banks in candidate
    /// order up to the first that can issue, every bank with queued
    /// requests when none can; under FCFS, the queue head's bank.
    pub fn banks_examined(&self) -> u64 {
        self.banks_examined
    }

    /// Scheduling decisions evaluated, for both issuing commands and
    /// computing horizons (deterministic work counter). A step that issues
    /// the decision the preceding [`MemoryController::next_event_cycle`]
    /// found does not decide again and does not count.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Bank-local candidates the scheduler evaluated over all its decisions
    /// (deterministic work counter): the bank visits its per-bank memo did
    /// not answer, because the bank changed since its last visit or the
    /// visit came from [`MemoryController::tick`], which evaluates every
    /// bank it visits afresh. At most [`MemoryController::banks_examined`].
    pub fn candidate_evaluations(&self) -> u64 {
        self.candidate_evaluations
    }

    /// Advance one controller cycle, issuing at most one DRAM command.
    ///
    /// This is the bit-exact oracle the event-driven path is verified
    /// against: it decides afresh and evaluates every bank it visits
    /// afresh, where the event path reuses the decision a horizon probe
    /// found and the bank-local candidates memoized since each bank last
    /// changed.
    /// Prefer [`MemoryController::advance_to`] when simulating long spans.
    pub fn tick(&mut self) {
        self.memo_epoch += 1;
        self.tick_generation += 1;
        self.step_with_horizon();
    }

    /// Advance to exactly `target`, issuing the same commands at the same
    /// cycles (and accumulating the same [`ChannelStats`]) as calling
    /// [`MemoryController::tick`] `target - cycle` times, but jumping over
    /// spans in which nothing can happen.
    pub fn advance_to(&mut self, target: u64) {
        while self.cycle < target {
            self.event_step(target);
        }
    }

    /// Run until no queued request or in-flight burst remains, jumping
    /// over idle spans. Equivalent to `while self.is_busy() { self.tick() }`.
    pub fn run_until_idle(&mut self) {
        while self.is_busy() {
            self.event_step(self.idle_limit());
        }
    }

    /// Advance until just after the next cycle in which this controller
    /// issues a command, or until it drains idle; returns the new cycle.
    ///
    /// This is the back-pressure primitive: a full queue can only free a
    /// slot at such a cycle, so a blocked producer jumps here instead of
    /// retrying every cycle (reusing the step's own horizon rather than
    /// paying a second bank evaluation per retry).
    pub fn advance_past_next_action(&mut self) -> u64 {
        while self.is_busy() {
            if self.event_step(self.idle_limit()) {
                break;
            }
        }
        self.cycle
    }

    /// When only an in-flight burst (plus perhaps a distant refresh) keeps
    /// the controller busy, its completion bounds any run-until-idle jump;
    /// with queued work there is no such bound.
    fn idle_limit(&self) -> u64 {
        if self.pending() == 0 {
            self.last_burst_done
        } else {
            u64::MAX
        }
    }

    /// One event-engine iteration: jump over the cached known-idle span
    /// (clamped to `limit`), then — if still below `limit` or unbounded —
    /// run one oracle step. Returns whether a command issued.
    fn event_step(&mut self, limit: u64) -> bool {
        if let Some(horizon) = self.cached_horizon {
            let jump_to = horizon.min(limit);
            if jump_to != u64::MAX && jump_to > self.cycle {
                self.skip_idle_to(jump_to);
            }
            if self.cycle >= limit {
                return false;
            }
        }
        let (acted, _) = self.step_with_horizon();
        acted
    }

    /// The earliest cycle at or after the current one at which this
    /// controller could act — a queued command becomes issuable, a refresh
    /// falls due or becomes serviceable, or the last in-flight burst
    /// completes. `None` when the controller is fully idle with refresh
    /// disabled (nothing will ever happen without a new request).
    ///
    /// The value is a lower bound: landing on it and re-evaluating never
    /// misses an event, which is the invariant the event-driven engine
    /// rests on. The command horizon behind it is stored, so the
    /// [`MemoryController::advance_to`] that usually follows jumps without
    /// evaluating the banks again, and so does a repeated call. When a
    /// command can issue now, the decision is stored too, and the step at
    /// this cycle issues it without deciding again.
    pub fn next_event_cycle(&mut self) -> Option<u64> {
        let now = self.cycle;
        let mut horizon = match self.cached_horizon {
            Some(horizon) => horizon,
            None => {
                let horizon = self.command_horizon();
                self.cached_horizon = Some(horizon);
                horizon
            }
        };
        if now < self.last_burst_done {
            horizon = horizon.min(self.last_burst_done);
        }
        (horizon != u64::MAX).then(|| horizon.max(now))
    }

    /// The earliest cycle at or after the current one at which a refresh
    /// or scheduled command could issue (`u64::MAX`: never without a new
    /// request).
    fn command_horizon(&mut self) -> u64 {
        let now = self.cycle;
        let mut horizon = u64::MAX;
        if self.config.refresh_enabled {
            if now < self.next_refresh_due_min {
                horizon = self.next_refresh_due_min;
            } else {
                for rank in &self.state.ranks {
                    horizon = horizon.min(rank.next_refresh_event(now));
                }
            }
        }
        if horizon > now {
            let serve_writes = self.next_write_mode();
            let schedule_horizon = match self.decide(serve_writes) {
                decision @ Decision::Issue { .. } => {
                    self.probe = Some(Probe {
                        cycle: now,
                        epoch: self.memo_epoch,
                        serve_writes,
                        decision,
                    });
                    now
                }
                Decision::Wait(earliest) => earliest,
            };
            horizon = horizon.min(schedule_horizon);
        }
        horizon.max(now)
    }

    /// One oracle cycle: account busy time, refresh or schedule, advance
    /// the clock. Returns whether a command issued plus a lower bound on
    /// the next cycle at which one could (meaningful only when idle).
    fn step_with_horizon(&mut self) -> (bool, u64) {
        if self.pending() > 0 {
            self.stats.busy_cycles += 1;
        }
        self.update_mode();
        let mut acted = false;
        let mut horizon = u64::MAX;
        if self.config.refresh_enabled {
            if self.cycle >= self.next_refresh_due_min {
                let (refresh_acted, refresh_horizon) = self.service_refresh();
                acted = refresh_acted;
                horizon = refresh_horizon;
            } else {
                horizon = self.next_refresh_due_min;
            }
        }
        if !acted {
            let (issued, schedule_horizon) = self.schedule();
            acted = issued;
            horizon = horizon.min(schedule_horizon);
        }
        self.cycle += 1;
        // An issued command changes timing state, invalidating any cached
        // horizon; an idle step proves nothing can happen before `horizon`.
        self.cached_horizon = if acted { None } else { Some(horizon) };
        (acted, horizon)
    }

    /// Jump the clock to `cycle`, crediting the skipped span to the same
    /// state a tick-by-tick run would have touched: only `busy_cycles` and
    /// the write-drain mode change during command-free cycles. The mode
    /// settles after one update while the queues stand still, but a
    /// horizon stored by [`MemoryController::next_event_cycle`] can skip a
    /// span no step has yet updated it for, and the mode's hysteresis would
    /// carry that stale value into the next enqueue.
    fn skip_idle_to(&mut self, cycle: u64) {
        let span = cycle - self.cycle;
        if self.pending() > 0 {
            self.stats.busy_cycles += span;
        }
        self.update_mode();
        self.idle_cycles_skipped += span;
        self.cycle = cycle;
    }

    /// The write-drain mode the next cycle will run under (pure version of
    /// [`MemoryController::update_mode`]).
    fn next_write_mode(&self) -> bool {
        let reads = self.read_queue.len;
        let writes = self.write_queue.len;
        if self.write_mode {
            !(writes == 0 || (writes <= self.config.write_low_watermark && reads > 0))
        } else {
            writes >= self.config.write_high_watermark || (reads == 0 && writes > 0)
        }
    }

    fn update_mode(&mut self) {
        self.write_mode = self.next_write_mode();
    }

    /// Service the refresh machinery. Returns whether a refresh-related
    /// command consumed this cycle, plus the earliest future cycle the
    /// machinery could act (deadline, precharge-ready, or refresh-ready).
    fn service_refresh(&mut self) -> (bool, u64) {
        let MemoryController {
            config,
            state,
            stats,
            cycle,
            next_refresh_due_min,
            read_queue,
            write_queue,
            memo_epoch,
            ..
        } = self;
        let timing = &config.timing;
        let geom = config.geometry;
        let now = *cycle;
        let mut horizon = u64::MAX;
        for rank_idx in 0..geom.ranks_per_channel {
            let due = state.ranks[rank_idx].next_refresh_due;
            if now < due {
                horizon = horizon.min(due);
                continue;
            }
            // Close any open banks first, one precharge per cycle.
            if !state.ranks[rank_idx].all_banks_closed() {
                for bg in 0..geom.bank_groups {
                    for b in 0..geom.banks_per_group {
                        let rank = &state.ranks[rank_idx];
                        let idx = rank.bank_index(bg, b);
                        if rank.banks[idx].open_row.is_none() {
                            continue;
                        }
                        let earliest = rank.earliest_precharge(bg, b);
                        if earliest <= now {
                            let addr = DramAddr {
                                rank: rank_idx,
                                bank_group: bg,
                                bank: b,
                                ..DramAddr::default()
                            };
                            state.issue(timing, DramCommand::Precharge, &addr, now);
                            *memo_epoch += 1;
                            stats.precharges += 1;
                            let bank = rank_idx * geom.banks_per_rank() + idx;
                            read_queue.forget(bank..bank + 1);
                            write_queue.forget(bank..bank + 1);
                            read_queue.recount(bank, None);
                            write_queue.recount(bank, None);
                            return (true, u64::MAX);
                        }
                        horizon = horizon.min(earliest);
                    }
                }
                // Banks open but none precharge-able yet: stall this rank.
                continue;
            }
            let earliest = state.ranks[rank_idx].earliest_refresh();
            if earliest <= now {
                let addr = DramAddr {
                    rank: rank_idx,
                    ..DramAddr::default()
                };
                state.issue(timing, DramCommand::Refresh, &addr, now);
                *memo_epoch += 1;
                stats.refreshes += 1;
                // Every bank of the rank waits out tRFC.
                let banks = geom.banks_per_rank();
                read_queue.forget(rank_idx * banks..(rank_idx + 1) * banks);
                write_queue.forget(rank_idx * banks..(rank_idx + 1) * banks);
                *next_refresh_due_min = state
                    .ranks
                    .iter()
                    .map(|r| r.next_refresh_due)
                    .min()
                    .unwrap_or(u64::MAX);
                return (true, u64::MAX);
            }
            horizon = horizon.min(earliest);
        }
        (false, horizon)
    }

    /// FR-FCFS / FCFS scheduling step on the active queue. Returns whether
    /// a command issued, plus (when nothing issued) the earliest cycle any
    /// queued request's next command could become issuable.
    fn schedule(&mut self) -> (bool, u64) {
        let serve_writes = self.write_mode;
        let decision = match self.probe.take() {
            Some(probe)
                if probe.cycle == self.cycle
                    && probe.epoch == self.memo_epoch
                    && probe.serve_writes == serve_writes =>
            {
                probe.decision
            }
            _ => self.decide(serve_writes),
        };
        match decision {
            Decision::Issue { bank, pos, cmd } => {
                self.execute(bank, pos, cmd, serve_writes);
                (true, u64::MAX)
            }
            Decision::Wait(horizon) => (false, horizon),
        }
    }

    /// One scheduling decision over the read or write queue at the
    /// current cycle, skipping ranks blocked by a due refresh. FR-FCFS
    /// evaluates one candidate per live bank: the bank's oldest request,
    /// or, while requests hit its open row, the oldest of those hits (the
    /// conflicting requests wait, so a PRECHARGE never closes a row queued
    /// hits still need). FCFS evaluates only the queue head, which
    /// precharges regardless: holding the row open for a younger request
    /// would livelock the queue. The issuable column command with the
    /// lowest arrival sequence wins, else the issuable ACTIVATE or
    /// PRECHARGE with the lowest sequence; with nothing issuable, the
    /// earliest cycle a candidate could issue.
    ///
    /// FR-FCFS keeps its live banks sorted in that rank order, so the
    /// first issuable candidate wins and the walk stops there; only a
    /// decision that issues nothing visits every bank, for the horizon.
    ///
    /// A candidate's earliest cycle is the maximum of two parts. The
    /// bank-local part (the command and the bank's own bound) is memoized
    /// per bank until that bank changes or the oracle ticks. The part its
    /// rank, bank group and the bus share is read at every visit, so a
    /// command to one bank re-evaluates only that bank's candidate.
    fn decide(&mut self, serve_writes: bool) -> Decision {
        self.decisions += 1;
        let now = self.cycle;
        let generation = self.tick_generation;
        let (queue, kind) = if serve_writes {
            (&mut self.write_queue, RequestKind::Write)
        } else {
            (&mut self.read_queue, RequestKind::Read)
        };
        let col = col_cmd(kind, self.config.row_policy);
        let fr_fcfs = self.config.scheduler == SchedulerKind::FrFcfs;
        let BankQueue {
            fifos,
            hits,
            memo,
            candidates,
            ..
        } = queue;
        // FR-FCFS walks the live banks in rank order; FCFS looks at the
        // head's bank only.
        let (sorted, head): (&[(u64, usize)], Option<usize>) = match candidates {
            Candidates::ByAge(age) => (&age.sorted, None),
            Candidates::Fcfs(order) => (&[], order.front().copied()),
        };
        let mut horizon = u64::MAX;
        for bank in sorted.iter().map(|&(_, bank)| bank).chain(head) {
            self.banks_examined += 1;
            let (rank, bank_group) = self.bank_coords[bank];
            let refresh_blocked =
                self.config.refresh_enabled && now >= self.state.ranks[rank].next_refresh_due;
            if refresh_blocked {
                continue;
            }
            let (local, cmd) = match memo[bank] {
                Some((at, local, cmd)) if at == generation => (local, cmd),
                _ => {
                    self.candidate_evaluations += 1;
                    let serve_hit = fr_fcfs && hits[bank] > 0;
                    let (local, cmd) =
                        local_candidate(&self.state, &fifos[bank][0].dram, serve_hit, col);
                    memo[bank] = Some((generation, local, cmd));
                    (local, cmd)
                }
            };
            let earliest = local.max(self.state.shared_bound(rank, bank_group, cmd));
            if earliest <= now {
                let fifo = &fifos[bank];
                let pos = served_pos(fifo, cmd, self.state.open_row(&fifo[0].dram));
                return Decision::Issue { bank, pos, cmd };
            }
            horizon = horizon.min(earliest);
        }
        Decision::Wait(horizon)
    }

    fn execute(&mut self, bank: usize, pos: usize, cmd: DramCommand, serve_writes: bool) {
        let now = self.cycle;
        self.memo_epoch += 1;
        let MemoryController {
            config,
            state,
            stats,
            read_queue,
            write_queue,
            completions,
            last_burst_done,
            ..
        } = self;
        let timing = &config.timing;
        let (queue, other) = if serve_writes {
            (write_queue, read_queue)
        } else {
            (read_queue, write_queue)
        };
        // The command moves the bank's timing and may change its open row
        // or FIFO, in both queues' view.
        queue.forget(bank..bank + 1);
        other.forget(bank..bank + 1);
        match cmd {
            DramCommand::Activate => {
                let q = &mut queue.fifos[bank][pos];
                q.needed_activate = true;
                let dram = q.dram;
                state.issue(timing, cmd, &dram, now);
                stats.activates += 1;
                queue.recount(bank, Some(dram.row));
                other.recount(bank, Some(dram.row));
            }
            DramCommand::Precharge => {
                let q = &mut queue.fifos[bank][pos];
                q.needed_precharge = true;
                let dram = q.dram;
                state.issue(timing, cmd, &dram, now);
                stats.precharges += 1;
                queue.recount(bank, None);
                other.recount(bank, None);
            }
            DramCommand::Read | DramCommand::ReadAp | DramCommand::Write | DramCommand::WriteAp => {
                let q = queue.remove(bank, pos);
                state.issue(timing, cmd, &q.dram, now);
                if cmd.auto_precharges() {
                    stats.precharges += 1;
                    queue.recount(bank, None);
                    other.recount(bank, None);
                } else {
                    queue.hit_served(bank, pos, q.dram.row);
                }
                if q.needed_precharge {
                    stats.row_conflicts += 1;
                } else if q.needed_activate {
                    stats.row_misses += 1;
                } else {
                    stats.row_hits += 1;
                }
                let data_lat = if cmd.is_read() { timing.cl } else { timing.cwl };
                let finished_at = now + data_lat + timing.burst_cycles();
                *last_burst_done = (*last_burst_done).max(finished_at);
                stats.bus_busy_cycles += timing.burst_cycles();
                if cmd.is_read() {
                    stats.reads += 1;
                    stats.read_latency_sum += finished_at - q.enqueued_at;
                } else {
                    stats.writes += 1;
                }
                completions.push(Completion {
                    request: q.request,
                    enqueued_at: q.enqueued_at,
                    finished_at,
                });
            }
            DramCommand::PrechargeAll | DramCommand::Refresh => {
                unreachable!("refresh path handles rank-wide commands")
            }
        }
    }
}

/// Every completion recorded so far, drained into a fresh vector.
#[cfg(test)]
fn drained(mc: &mut MemoryController) -> Vec<Completion> {
    let mut out = Vec::new();
    mc.drain_completions_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::MappingScheme;

    fn controller() -> MemoryController {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        MemoryController::new(cfg)
    }

    fn decode(cfg: &DramConfig, addr: u64) -> DramAddr {
        cfg.mapping.decode(addr, &cfg.geometry).unwrap()
    }

    fn run_until_idle(mc: &mut MemoryController) {
        let mut guard = 0;
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 1_000_000, "controller wedged");
        }
    }

    #[test]
    fn single_read_latency_is_act_plus_cas() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        let dram = decode(&cfg, 0);
        assert!(mc.enqueue(Request::read(0), dram));
        run_until_idle(&mut mc);
        let done = drained(&mut mc);
        assert_eq!(done.len(), 1);
        let t = &cfg.timing;
        // One idle-bank read: tick align + tRCD + CL + burst.
        let expect = t.trcd + t.cl + t.burst_cycles();
        assert!(
            done[0].latency() >= expect && done[0].latency() <= expect + 4,
            "latency {} expected about {}",
            done[0].latency(),
            expect
        );
    }

    #[test]
    fn row_hits_counted_for_same_row_stream() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        // 16 sequential blocks in the same rank 0 row: decode stride of
        // ranks_per_channel * 64 keeps rank fixed under rank interleaving.
        let stride = cfg.geometry.ranks_per_channel as u64 * 64;
        for i in 0..16u64 {
            let addr = i * stride;
            let dram = decode(&cfg, addr);
            assert_eq!(dram.rank, 0);
            assert!(mc.enqueue(Request::read(addr), dram));
        }
        run_until_idle(&mut mc);
        let stats = mc.stats();
        assert_eq!(stats.reads, 16);
        assert!(stats.row_hits >= 3, "row hits {}", stats.row_hits);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        let depth = cfg.read_queue_depth;
        for i in 0..depth as u64 {
            let dram = decode(&cfg, i * 64);
            assert!(mc.enqueue(Request::read(i * 64), dram));
        }
        let dram = decode(&cfg, 1 << 20);
        assert!(!mc.enqueue(Request::read(1 << 20), dram));
    }

    #[test]
    fn writes_drain_when_reads_absent() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        for i in 0..8u64 {
            let dram = decode(&cfg, i * 64);
            assert!(mc.enqueue(Request::write(i * 64), dram));
        }
        run_until_idle(&mut mc);
        assert_eq!(mc.stats().writes, 8);
    }

    #[test]
    fn mixed_read_write_all_complete() {
        let mut mc = controller();
        let cfg = mc.config().clone();
        for i in 0..32u64 {
            let addr = i * 64;
            let dram = decode(&cfg, addr);
            let req = if i % 2 == 0 {
                Request::read(addr)
            } else {
                Request::write(addr)
            };
            assert!(mc.enqueue(req, dram));
        }
        run_until_idle(&mut mc);
        let stats = mc.stats();
        assert_eq!(stats.reads, 16);
        assert_eq!(stats.writes, 16);
        assert_eq!(drained(&mut mc).len(), 32);
    }

    #[test]
    fn refresh_eventually_issues() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = true;
        let mut mc = MemoryController::new(cfg.clone());
        // Run past the first refresh deadline with an empty queue.
        for _ in 0..(cfg.timing.trefi * 3) {
            mc.tick();
        }
        assert!(mc.stats().refreshes >= cfg.geometry.ranks_per_channel as u64);
    }

    #[test]
    fn fcfs_services_in_order() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.scheduler = SchedulerKind::Fcfs;
        let mut mc = MemoryController::new(cfg.clone());
        for i in 0..8u64 {
            let addr = i << 16; // different rows
            let dram = decode(&cfg, addr);
            assert!(mc.enqueue(Request::read(addr).with_id(i), dram));
        }
        run_until_idle(&mut mc);
        let done = drained(&mut mc);
        let ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn closed_page_never_hits() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.row_policy = RowPolicy::ClosedPage;
        let mut mc = MemoryController::new(cfg.clone());
        let stride = cfg.geometry.ranks_per_channel as u64 * 64;
        for i in 0..8u64 {
            let addr = i * stride;
            let dram = decode(&cfg, addr);
            assert!(mc.enqueue(Request::read(addr), dram));
        }
        run_until_idle(&mut mc);
        let stats = mc.stats();
        assert_eq!(stats.row_hits, 0);
        assert_eq!(stats.reads, 8);
    }

    #[test]
    fn advance_to_matches_tick_oracle() {
        for refresh in [false, true] {
            let mut cfg = DramConfig::ddr4_3200_channel();
            cfg.refresh_enabled = refresh;
            let mut oracle = MemoryController::new(cfg.clone());
            let mut fast = MemoryController::new(cfg.clone());
            for i in 0..48u64 {
                let addr = (i * 7919 * 64) % cfg.capacity_bytes();
                let dram = decode(&cfg, addr & !63);
                let req = if i % 3 == 0 {
                    Request::write(addr & !63)
                } else {
                    Request::read(addr & !63)
                };
                assert!(oracle.enqueue(req, dram));
                assert!(fast.enqueue(req, dram));
            }
            let target = 3 * cfg.timing.trefi;
            for _ in 0..target {
                oracle.tick();
            }
            fast.advance_to(target);
            assert_eq!(oracle.stats(), fast.stats());
            assert_eq!(drained(&mut oracle), drained(&mut fast));
            assert_eq!(oracle.cycle(), fast.cycle());
            assert!(
                fast.idle_cycles_skipped() > 0,
                "event path should have skipped idle cycles"
            );
        }
    }

    #[test]
    fn next_event_cycle_is_a_valid_lower_bound() {
        // From an idle controller with refresh enabled, the next event is
        // the first refresh deadline; with refresh disabled there is none.
        let cfg = DramConfig::ddr4_3200_channel();
        let mut mc = MemoryController::new(cfg.clone());
        let due = mc.next_event_cycle().expect("refresh is pending");
        assert!(due >= cfg.timing.trefi, "staggering starts at tREFI");
        let mut cfg2 = cfg;
        cfg2.refresh_enabled = false;
        let mut mc2 = MemoryController::new(cfg2.clone());
        assert_eq!(mc2.next_event_cycle(), None);
        // With a queued request, an event exists and is actionable soon.
        let mut mc3 = MemoryController::new(cfg2.clone());
        let dram = decode(&cfg2, 0);
        assert!(mc3.enqueue(Request::read(0), dram));
        let e = mc3.next_event_cycle().expect("queued work");
        assert_eq!(e, 0, "fresh bank accepts an activate immediately");
    }

    #[test]
    fn fcfs_row_conflict_with_younger_hit_does_not_livelock() {
        // Head of queue needs row B while the open row A is still "useful"
        // to a younger entry. Under FCFS only the head can issue, so the
        // old keep-row-open heuristic livelocked this pattern (forever with
        // refresh off; until the next tREFI with refresh on).
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.scheduler = SchedulerKind::Fcfs;
        let mut mc = MemoryController::new(cfg.clone());
        let row_stride = 1u64 << 19; // crosses the row-bit boundary
        assert!(mc.enqueue(Request::read(0), decode(&cfg, 0)));
        let mut guard = 0;
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 100_000);
        }
        // Row of address 0 is now open; head wants another row while a
        // younger entry still hits the open one.
        assert!(mc.enqueue(Request::read(row_stride), decode(&cfg, row_stride)));
        assert!(mc.enqueue(Request::read(64), decode(&cfg, 64)));
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 100_000, "FCFS livelocked on a held-open row");
        }
        assert_eq!(mc.stats().reads, 3);
    }

    #[test]
    fn enqueue_drops_a_probed_decision_it_outranks() {
        // `next_event_cycle` finds a row conflict's PRECHARGE issuable and
        // keeps that decision for the step. A younger request that hits the
        // open row then arrives first: its READ outranks the PRECHARGE, so
        // the step must decide again, as `tick` does.
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let at = |row, column| DramAddr {
            row,
            column,
            ..DramAddr::default()
        };
        let (open, conflict, hit) = (at(5, 0), at(9, 0), at(5, 1));

        let mut mc = MemoryController::new(cfg);
        assert!(mc.enqueue(Request::read(0).with_id(0), open));
        mc.run_until_idle();
        // Idle long enough for the open row to be closable at once.
        mc.advance_to(mc.cycle() + 100);
        let mut oracle = mc.clone();
        let now = mc.cycle();

        assert!(mc.enqueue(Request::read(128).with_id(1), conflict));
        assert_eq!(mc.next_event_cycle(), Some(now));
        assert!(matches!(
            mc.probe,
            Some(Probe {
                decision: Decision::Issue {
                    cmd: DramCommand::Precharge,
                    ..
                },
                ..
            })
        ));
        assert!(mc.enqueue(Request::read(64).with_id(2), hit));
        assert!(
            mc.probe.is_none(),
            "the enqueue must drop the probed decision"
        );

        let decisions = mc.decisions();
        mc.advance_to(now + 1);
        assert_eq!(mc.decisions(), decisions + 1, "the step decides afresh");
        assert_eq!(
            (mc.stats().reads, mc.stats().precharges),
            (2, 0),
            "the hit's READ issues first"
        );

        assert!(oracle.enqueue(Request::read(128).with_id(1), conflict));
        assert!(oracle.enqueue(Request::read(64).with_id(2), hit));
        oracle.tick();
        assert_eq!(oracle.stats(), mc.stats());
        mc.run_until_idle();
        while oracle.is_busy() {
            oracle.tick();
        }
        assert_eq!(oracle.cycle(), mc.cycle());
        assert_eq!(oracle.stats(), mc.stats());
        assert_eq!(drained(&mut oracle), drained(&mut mc));
    }

    #[test]
    fn a_probed_decision_issues_without_deciding_again() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg.clone());
        assert!(mc.enqueue(Request::read(0), decode(&cfg, 0)));
        assert_eq!(mc.next_event_cycle(), Some(0));
        assert_eq!(mc.decisions(), 1);
        let mut oracle = mc.clone();
        mc.advance_to(1);
        assert_eq!(mc.decisions(), 1, "the step reused the probe's decision");
        assert_eq!(mc.stats().activates, 1);
        // The oracle evaluates afresh, so tick-vs-event tests check the reuse.
        oracle.tick();
        assert_eq!(oracle.decisions(), 2, "tick decided again");
        assert_eq!(oracle.stats(), mc.stats());
    }

    #[test]
    fn run_until_idle_matches_ticked_drain() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = true;
        let mut oracle = MemoryController::new(cfg.clone());
        let mut fast = MemoryController::new(cfg.clone());
        for i in 0..32u64 {
            let addr = i * 4096;
            let dram = decode(&cfg, addr);
            assert!(oracle.enqueue(Request::read(addr), dram));
            assert!(fast.enqueue(Request::read(addr), dram));
        }
        let mut guard = 0;
        while oracle.is_busy() {
            oracle.tick();
            guard += 1;
            assert!(guard < 1_000_000);
        }
        fast.run_until_idle();
        assert_eq!(oracle.cycle(), fast.cycle());
        assert_eq!(oracle.stats(), fast.stats());
        assert_eq!(drained(&mut oracle), drained(&mut fast));
    }

    #[test]
    fn mapping_ablation_uses_channel_interleaved() {
        // Sanity that alternative mappings route through the controller too.
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        cfg.mapping = MappingScheme::channel_interleaved(&cfg.geometry);
        let mut mc = MemoryController::new(cfg.clone());
        for i in 0..8u64 {
            let addr = i * 64;
            let dram = decode(&cfg, addr);
            assert_eq!(dram.rank, 0, "low addresses stay in rank 0");
            assert!(mc.enqueue(Request::read(addr), dram));
        }
        run_until_idle(&mut mc);
        assert_eq!(mc.stats().reads, 8);
    }
}

#[cfg(test)]
mod drain_tests {
    use super::*;
    use crate::config::DramConfig;

    fn decode(cfg: &DramConfig, addr: u64) -> DramAddr {
        cfg.mapping.decode(addr, &cfg.geometry).unwrap()
    }

    #[test]
    fn write_watermark_switches_modes() {
        // Fill the write queue past the high watermark while reads are
        // present; the controller must drain writes in a burst and then
        // return to reads.
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg.clone());
        for i in 0..cfg.write_high_watermark as u64 + 4 {
            let addr = i * 64;
            assert!(mc.enqueue(Request::write(addr), decode(&cfg, addr)));
        }
        for i in 0..8u64 {
            let addr = (1 << 22) + i * 64;
            assert!(mc.enqueue(Request::read(addr), decode(&cfg, addr)));
        }
        let mut guard = 0;
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 1_000_000, "controller wedged");
        }
        let stats = mc.stats();
        assert_eq!(stats.writes, cfg.write_high_watermark as u64 + 4);
        assert_eq!(stats.reads, 8);
    }

    #[test]
    fn refresh_under_load_still_serves_all_requests() {
        let cfg = DramConfig::ddr4_3200_channel(); // refresh enabled
        let mut mc = MemoryController::new(cfg.clone());
        let mut issued = 0u64;
        let mut offered = 0u64;
        // Run well past several tREFI windows while continuously offering
        // work.
        for cycle in 0..(cfg.timing.trefi * 6) {
            if cycle % 8 == 0 {
                let addr = (offered * 64) % (1 << 24);
                if mc.enqueue(Request::read(addr), decode(&cfg, addr)) {
                    issued += 1;
                }
                offered += 1;
            }
            mc.tick();
        }
        while mc.is_busy() {
            mc.tick();
        }
        let stats = mc.stats();
        assert_eq!(stats.reads, issued);
        assert!(
            stats.refreshes >= 4 * cfg.geometry.ranks_per_channel as u64,
            "only {} refreshes over six tREFI",
            stats.refreshes
        );
    }

    #[test]
    fn per_bank_activates_are_counted() {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let mut mc = MemoryController::new(cfg.clone());
        // Two different rows of the same bank force a conflict precharge.
        let row_stride = 1u64 << 19; // beyond the row-bit boundary
        for addr in [0u64, row_stride] {
            assert!(mc.enqueue(Request::read(addr), decode(&cfg, addr)));
        }
        let mut guard = 0;
        while mc.is_busy() {
            mc.tick();
            guard += 1;
            assert!(guard < 100_000);
        }
        let stats = mc.stats();
        assert!(stats.activates >= 2);
        assert_eq!(stats.reads, 2);
    }
}

/// The linear-scan scheduler the per-bank decision replaced, kept as its
/// oracle: two passes over the whole active queue in arrival order, the
/// second re-scanning the queue for every row conflict.
#[cfg(test)]
mod linear_oracle {
    use super::*;
    use crate::config::DramConfig;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// A scheduling choice in queue terms: the arrival sequence of the
    /// request served and the command, or the horizon when nothing issues.
    type Choice = Result<(u64, DramCommand), u64>;

    impl MemoryController {
        fn refresh_blocked(&self, rank: usize) -> bool {
            self.config.refresh_enabled && self.cycle >= self.state.ranks[rank].next_refresh_due
        }

        /// One queue in arrival order, as the linear scan saw it.
        fn linear_queue(&self, serve_writes: bool) -> Vec<&QueuedRequest> {
            let queue = if serve_writes {
                &self.write_queue
            } else {
                &self.read_queue
            };
            let mut all: Vec<&QueuedRequest> = queue.fifos.iter().flatten().collect();
            all.sort_by_key(|q| q.seq);
            all
        }

        fn linear_scan_limit(&self) -> usize {
            match self.config.scheduler {
                SchedulerKind::FrFcfs => usize::MAX,
                SchedulerKind::Fcfs => 1,
            }
        }

        /// Pass-1 candidate: the column command's earliest cycle, or
        /// `None` unless the bank has the request's row open.
        fn linear_col_candidate(&self, q: &QueuedRequest) -> Option<u64> {
            if self.state.open_row(&q.dram) != Some(q.dram.row) {
                return None;
            }
            self.state.earliest_issue(
                &self.config.timing,
                col_cmd(q.request.kind, self.config.row_policy),
                &q.dram,
            )
        }

        /// Pass-2 candidate: ACTIVATE on a closed bank, PRECHARGE on a
        /// conflicting row unless (under FR-FCFS) another queued request
        /// still hits it. Counts the queue entries it reads into `examined`.
        fn linear_prep_candidate(
            &self,
            q: &QueuedRequest,
            queue: &[&QueuedRequest],
            examined: &mut u64,
        ) -> Option<(u64, DramCommand)> {
            let rank = &self.state.ranks[q.dram.rank];
            match self.state.open_row(&q.dram) {
                None => Some((
                    rank.earliest_activate(q.dram.bank_group, q.dram.bank),
                    DramCommand::Activate,
                )),
                Some(row) if row != q.dram.row => {
                    let still_useful = self.config.scheduler == SchedulerKind::FrFcfs
                        && queue.iter().any(|other| {
                            *examined += 1;
                            other.dram.rank == q.dram.rank
                                && other.dram.bank_group == q.dram.bank_group
                                && other.dram.bank == q.dram.bank
                                && other.dram.row == row
                        });
                    (!still_useful).then(|| {
                        (
                            rank.earliest_precharge(q.dram.bank_group, q.dram.bank),
                            DramCommand::Precharge,
                        )
                    })
                }
                Some(_) => None,
            }
        }

        /// The linear scan's decision plus the queue entries it read.
        fn linear_decision(&self, serve_writes: bool) -> (Choice, u64) {
            let now = self.cycle;
            let queue = self.linear_queue(serve_writes);
            let limit = self.linear_scan_limit();
            let mut examined = 0;
            let mut horizon = u64::MAX;
            for q in queue.iter().take(limit) {
                examined += 1;
                if self.refresh_blocked(q.dram.rank) {
                    continue;
                }
                if let Some(earliest) = self.linear_col_candidate(q) {
                    if earliest <= now {
                        let cmd = col_cmd(q.request.kind, self.config.row_policy);
                        return (Ok((q.seq, cmd)), examined);
                    }
                    horizon = horizon.min(earliest);
                }
            }
            for q in queue.iter().take(limit) {
                examined += 1;
                if self.refresh_blocked(q.dram.rank) {
                    continue;
                }
                if let Some((earliest, cmd)) = self.linear_prep_candidate(q, &queue, &mut examined)
                {
                    if earliest <= now {
                        return (Ok((q.seq, cmd)), examined);
                    }
                    horizon = horizon.min(earliest);
                }
            }
            (Err(horizon), examined)
        }

        /// The linear scan's next-event cycle: refresh machinery, the
        /// active queue's earliest candidate, and the last burst.
        fn linear_next_event_cycle(&self) -> Option<u64> {
            let now = self.cycle;
            let mut horizon = u64::MAX;
            if self.config.refresh_enabled {
                for rank in &self.state.ranks {
                    horizon = horizon.min(rank.next_refresh_event(now));
                }
            }
            if horizon > now {
                let mut examined = 0;
                let queue = self.linear_queue(self.next_write_mode());
                for q in queue.iter().take(self.linear_scan_limit()) {
                    if self.refresh_blocked(q.dram.rank) {
                        continue;
                    }
                    let candidate = self.linear_col_candidate(q).or_else(|| {
                        self.linear_prep_candidate(q, &queue, &mut examined)
                            .map(|(earliest, _)| earliest)
                    });
                    if let Some(earliest) = candidate {
                        horizon = horizon.min(earliest);
                    }
                }
            }
            if now < self.last_burst_done {
                horizon = horizon.min(self.last_burst_done);
            }
            (horizon != u64::MAX).then(|| horizon.max(now))
        }

        /// The per-bank decision in the oracle's terms.
        fn indexed_decision(&mut self, serve_writes: bool) -> Choice {
            match self.decide(serve_writes) {
                Decision::Issue { bank, pos, cmd } => {
                    let queue = if serve_writes {
                        &self.write_queue
                    } else {
                        &self.read_queue
                    };
                    Ok((queue.fifos[bank][pos].seq, cmd))
                }
                Decision::Wait(horizon) => Err(horizon),
            }
        }

        /// Every bank's hit count equals its queued requests to the open
        /// row, the lengths match the FIFOs, under FR-FCFS the age order
        /// holds exactly the live banks, sorted, each under the key of its
        /// oldest open-row hit or else its oldest request, and every live
        /// memoized candidate equals one evaluated afresh.
        fn index_is_consistent(&self) -> bool {
            let fr_fcfs = self.config.scheduler == SchedulerKind::FrFcfs;
            [
                (&self.read_queue, RequestKind::Read),
                (&self.write_queue, RequestKind::Write),
            ]
            .iter()
            .all(|&(queue, kind)| {
                let col = col_cmd(kind, self.config.row_policy);
                let memo_ok = queue
                    .memo
                    .iter()
                    .enumerate()
                    .all(|(bank, memo)| match memo {
                        Some((at, local, cmd)) if *at == self.tick_generation => {
                            let front = &queue.fifos[bank][0].dram;
                            let serve_hit = fr_fcfs && queue.hits[bank] > 0;
                            local_candidate(&self.state, front, serve_hit, col) == (*local, *cmd)
                        }
                        _ => true,
                    });
                let len_ok = queue.len == queue.fifos.iter().map(VecDeque::len).sum::<usize>();
                let hits_ok = queue.fifos.iter().enumerate().all(|(bank, fifo)| {
                    let hits = fifo.front().map_or(0, |front| {
                        let open = self.state.open_row(&front.dram);
                        fifo.iter().filter(|q| Some(q.dram.row) == open).count()
                    });
                    queue.hits[bank] == hits
                });
                let order_ok = match &queue.candidates {
                    Candidates::Fcfs(order) => order.len() == queue.len,
                    Candidates::ByAge(age) => {
                        let mut expect: Vec<(u64, usize)> = queue
                            .fifos
                            .iter()
                            .enumerate()
                            .filter_map(|(bank, fifo)| {
                                let open = self.state.open_row(&fifo.front()?.dram);
                                let hit = fifo.iter().find(|q| Some(q.dram.row) == open);
                                Some((age_key(fifo, hit)?, bank))
                            })
                            .collect();
                        expect.sort_unstable();
                        age.sorted == expect
                            && age.keys.iter().enumerate().all(|(bank, key)| {
                                *key == expect.iter().find(|e| e.1 == bank).map(|e| e.0)
                            })
                    }
                };
                len_ok && hits_ok && order_ok && memo_ok
            })
        }
    }

    /// A small-queue configuration with frequent refresh, so random runs
    /// reach full queues, write-drain flips and refresh-blocked ranks.
    fn config(
        scheduler: usize,
        policy: usize,
        refresh: bool,
        ranks: usize,
        depth: usize,
    ) -> DramConfig {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.scheduler = [SchedulerKind::FrFcfs, SchedulerKind::Fcfs][scheduler];
        cfg.row_policy = [RowPolicy::OpenPage, RowPolicy::ClosedPage][policy];
        cfg.refresh_enabled = refresh;
        cfg.timing.trfc = 60;
        cfg.timing.trefi = 700;
        cfg.geometry.ranks_per_channel = ranks;
        cfg.read_queue_depth = depth;
        cfg.write_queue_depth = depth;
        cfg.write_high_watermark = depth.div_ceil(2).max(2).min(depth);
        cfg.write_low_watermark = cfg.write_high_watermark / 2;
        cfg
    }

    /// Compare both schedulers on both queues, and the next-event cycle.
    /// Computed afresh it equals the linear scan's; a stored horizon may
    /// be older and lower (a rank that fell due for refresh since then no
    /// longer offers candidates), but never later and never in the past.
    fn check(mc: &mut MemoryController) -> Result<(), TestCaseError> {
        prop_assert!(mc.index_is_consistent());
        for serve_writes in [false, true] {
            let (linear, _) = mc.linear_decision(serve_writes);
            prop_assert_eq!(mc.indexed_decision(serve_writes), linear);
        }
        let expect = mc.linear_next_event_cycle();
        let mut fresh = mc.clone();
        fresh.cached_horizon = None;
        prop_assert_eq!(fresh.next_event_cycle(), expect);
        let stored = mc.next_event_cycle();
        let now = mc.cycle();
        prop_assert!(
            stored.is_some_and(|s| s >= now && expect.is_none_or(|e| s <= e)) || stored == expect
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Random queues over few rows (hits, misses and conflicts in
        /// every bank) under FR-FCFS/FCFS × open/closed page, with write
        /// drains and refresh-blocked ranks: at every visited state the
        /// per-bank decision picks the linear scan's request and command,
        /// or its horizon, and `next_event_cycle` agrees.
        #[test]
        fn per_bank_decision_matches_the_linear_scan(
            scheduler in 0usize..2,
            policy in 0usize..2,
            refresh in 0usize..3,
            ranks_log in 0u32..4,
            depth in 2usize..24,
            ops in prop::collection::vec(
                (0usize..10, 0usize..8, 0usize..4, 0usize..4, 0usize..3, 1u64..40),
                20..160,
            ),
        ) {
            let ranks = 1usize << ranks_log;
            let cfg = config(scheduler, policy, refresh > 0, ranks, depth);
            let mut mc = MemoryController::new(cfg);
            let mut tick = mc.clone();
            for (i, &(op, rank, bank_group, bank, row, span)) in ops.iter().enumerate() {
                match op {
                    0..=5 => {
                        let dram = DramAddr {
                            rank: rank % ranks,
                            bank_group,
                            bank,
                            row,
                            column: i % 128,
                            ..DramAddr::default()
                        };
                        let req = if op < 2 {
                            Request::write(i as u64 * 64)
                        } else {
                            Request::read(i as u64 * 64)
                        }
                        .with_id(i as u64);
                        prop_assert_eq!(mc.enqueue(req, dram), tick.enqueue(req, dram));
                    }
                    6 | 7 => {
                        for _ in 0..span {
                            check(&mut mc)?;
                            mc.tick();
                            tick.tick();
                        }
                    }
                    8 => {
                        mc.next_event_cycle();
                        let target = mc.cycle() + span;
                        mc.advance_to(target);
                        while tick.cycle() < target {
                            tick.tick();
                        }
                    }
                    _ => {
                        mc.advance_past_next_action();
                        while tick.cycle() < mc.cycle() {
                            tick.tick();
                        }
                    }
                }
                check(&mut mc)?;
            }
            while mc.is_busy() {
                check(&mut mc)?;
                mc.tick();
                tick.tick();
            }
            prop_assert_eq!(mc.stats(), tick.stats());
            prop_assert_eq!(drained(&mut mc), drained(&mut tick));
        }
    }

    /// On a dense random gather, the per-bank decisions visit fewer banks
    /// than the linear scan reads queue entries for the same decisions.
    #[test]
    fn bank_visits_undercut_linear_scan_reads() {
        let cfg = config(0, 0, false, 4, 64);
        let mut mc = MemoryController::new(cfg);
        let mut linear_reads = 0;
        let mut next = 0u64;
        let mut guard = 0;
        while next < 2048 || mc.is_busy() {
            while next < 2048 {
                let dram = DramAddr {
                    rank: (next * 7 % 4) as usize,
                    bank_group: (next * 3 % 4) as usize,
                    bank: (next * 5 % 4) as usize,
                    row: (next * 2_654_435_761 % 6) as usize,
                    column: (next % 128) as usize,
                    ..DramAddr::default()
                };
                if !mc.enqueue(Request::read(next * 64), dram) {
                    break;
                }
                next += 1;
            }
            mc.update_mode();
            linear_reads += mc.linear_decision(mc.write_mode).1;
            mc.tick();
            guard += 1;
            assert!(guard < 1_000_000, "controller wedged");
        }
        assert_eq!(mc.stats().reads, 2048);
        assert!(
            2 * mc.banks_examined() < linear_reads,
            "{} bank visits vs {linear_reads} linear-scan reads",
            mc.banks_examined()
        );
    }
}
