//! Deterministic fault injection for the serving stack.
//!
//! A production TensorNode loses DIMM ranks, suffers node-level outage
//! windows, runs *gray* (slow but not dead — RecNMP's rank-level argument
//! in reverse: losing a rank shrinks the node's aggregated bandwidth
//! without taking the node down), and occasionally has to re-read rows
//! after a transient fault. This crate generates those failures as a
//! **seeded, virtual-time schedule**: a [`FaultPlan`] is a small `Copy`
//! description of the failure environment, and [`FaultPlan::schedule`] is
//! a pure function of `(plan, horizon)` — replaying the same plan over the
//! same horizon yields a bit-identical [`FaultSchedule`], so fault-enabled
//! simulations stay exactly as reproducible as fault-free ones.
//!
//! # Monotone-by-construction fault intensity
//!
//! DIMM failures are drawn by **thinning** one master candidate process:
//! candidate failure epochs (their times, target DIMMs, and acceptance
//! draws) come from a single RNG stream that does not depend on
//! [`FaultPlan::dimm_fault_rate`]; a candidate becomes a real failure iff
//! its acceptance draw falls below the rate. Raising the rate therefore
//! accepts a **superset** of the failures accepted at any lower rate — the
//! union of down-windows nests — which is what lets the availability sweep
//! gate "availability is monotone non-increasing in fault rate" as a hard
//! invariant instead of a statistical tendency.
//!
//! # Consuming a schedule
//!
//! A schedule is one sorted list of [`Transition`]s, and both of its
//! consumers fold [`FaultSchedule::transitions`] into a [`FaultState`] as
//! virtual time advances: the serving engine applies each transition as
//! an event of its loop, and the cluster router applies every transition
//! at or before a request's arrival before routing it. The state answers
//! "how many DIMMs are alive", "is the node reachable", "what latency
//! multiplier is in force", and "how many rows must the next batch
//! re-read" — the four quantities degraded-mode pricing needs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Errors from validating or generating a fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// A plan knob (or the requested horizon) is unusable.
    InvalidPlan {
        /// Which knob.
        parameter: &'static str,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidPlan { parameter } => {
                write!(f, "fault-plan parameter {parameter} is unusable")
            }
        }
    }
}

impl Error for FaultError {}

/// A whole-node outage window: no batch can dispatch while it is open
/// (batches already on a GPU run to completion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutage {
    /// When the node drops off the interconnect, µs.
    pub start_us: f64,
    /// How long it stays unreachable, µs.
    pub duration_us: f64,
}

/// A gray-failure window: the node keeps serving but every batch priced
/// inside the window costs `latency_multiplier`× its healthy service time
/// (capacity is not removed — the degradation is latency, not bandwidth
/// accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrayRank {
    /// When the slowdown begins, µs.
    pub start_us: f64,
    /// How long it lasts, µs.
    pub duration_us: f64,
    /// Service-time inflation factor (`>= 1`).
    pub latency_multiplier: f64,
}

/// Periodic transient row faults: every `every_us` a bounded number of
/// rows must be re-read by the next dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowFaults {
    /// Cadence of the transient faults, µs.
    pub every_us: f64,
    /// Rows to re-read per fault (bounded; see
    /// [`FaultState::MAX_PENDING_REREAD_ROWS`]).
    pub rows: u64,
}

/// An explicitly scheduled outage of one DIMM rank: the rank is down for
/// the closed repair window `[start_us, start_us + duration_us]`. Unlike
/// the thinned stochastic stream these windows are rate-independent, so
/// they model *known* maintenance or a reproduced incident; the cluster
/// layer uses them to pin a one-node degradation at an exact instant.
///
/// Validation rejects zero-length repair windows and two windows on the
/// same rank whose closed intervals overlap (including abutting windows:
/// a second outage may not begin before the first repair completes —
/// otherwise the down/restored transitions for the rank would interleave
/// and corrupt the liveness mask). A window may still overlap a
/// *stochastic* failure of the same rank; [`FaultPlan::schedule`] merges
/// those into one extended window rather than emitting nested pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankOutage {
    /// Which DIMM rank (must be `< FaultPlan::dimms`).
    pub rank: u64,
    /// When the rank drops out, µs.
    pub start_us: f64,
    /// Length of the repair window, µs (must be `> 0`).
    pub duration_us: f64,
}

impl RankOutage {
    /// End of the repair window, µs.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.duration_us
    }
}

/// A seeded description of the failure environment. `Copy`, so it rides
/// inside a serving `SimConfig` the way the batching policy does.
///
/// The default ([`FaultPlan::none`]) is inert: it produces an empty
/// schedule at every horizon, and a simulator run with an inert plan is
/// bit-identical to one with no fault layer at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the candidate-failure stream.
    pub seed: u64,
    /// DIMMs in the TensorNode (32 for the paper's Table 1 node; at most
    /// [`FaultPlan::MAX_DIMMS`]).
    pub dimms: u64,
    /// Thinning acceptance probability in `[0, 1]`: the fraction of
    /// candidate DIMM failures that actually happen. `0` disables DIMM
    /// faults; `1` accepts every candidate.
    pub dimm_fault_rate: f64,
    /// Mean gap between *candidate* failure epochs, µs (the master
    /// process rate; the realized failure rate is this thinned by
    /// `dimm_fault_rate`).
    pub dimm_candidate_gap_us: f64,
    /// Fixed repair time of a failed DIMM, µs.
    pub dimm_repair_us: f64,
    /// Optional whole-node outage window.
    pub node_outage: Option<NodeOutage>,
    /// Optional gray-failure window.
    pub gray: Option<GrayRank>,
    /// Optional periodic transient row faults.
    pub row_faults: Option<RowFaults>,
    /// Explicitly scheduled rank outages (fixed-size so the plan stays
    /// `Copy`; unused slots are `None`). See [`RankOutage`].
    pub rank_outages: [Option<RankOutage>; FaultPlan::MAX_RANK_OUTAGES],
}

impl FaultPlan {
    /// Widest supported node: DIMM liveness is tracked in a 128-bit mask.
    pub const MAX_DIMMS: u64 = 128;

    /// Explicit rank-outage slots per plan (fixed so [`FaultPlan`] stays
    /// `Copy` inside `SimConfig`).
    pub const MAX_RANK_OUTAGES: usize = 4;

    /// No faults at all: the schedule is empty at every horizon.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            dimms: 32,
            dimm_fault_rate: 0.0,
            dimm_candidate_gap_us: 2_000.0,
            dimm_repair_us: 5_000.0,
            node_outage: None,
            gray: None,
            row_faults: None,
            rank_outages: [None; FaultPlan::MAX_RANK_OUTAGES],
        }
    }

    /// DIMM faults at `rate ∈ [0, 1]` under `seed`, with the default
    /// candidate cadence and repair time.
    pub fn dimm_faults(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            dimm_fault_rate: rate,
            ..FaultPlan::none()
        }
    }

    /// Add a whole-node outage window.
    pub fn with_node_outage(mut self, outage: NodeOutage) -> Self {
        self.node_outage = Some(outage);
        self
    }

    /// Derive the plan node `node` of a cluster carries: identical knobs,
    /// decorrelated stochastic stream. The seed is mixed with the node id
    /// through a fixed permutation that does not depend on
    /// [`FaultPlan::dimm_fault_rate`], so every node keeps the thinning
    /// property — its accepted failure set still nests as the rate rises —
    /// while no two nodes share candidate epochs. Explicit windows
    /// (`node_outage`, `gray`, `row_faults`, `rank_outages`) are kept
    /// verbatim: they describe the node the derived plan is attached to.
    pub fn for_node(mut self, node: u64) -> Self {
        self.seed ^= node
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17);
        self
    }

    /// Whether this plan produces an empty schedule at every horizon.
    pub fn is_inert(&self) -> bool {
        self.dimm_fault_rate <= 0.0
            && self.node_outage.is_none()
            && self.gray.is_none()
            && self.row_faults.is_none()
            && self.rank_outages.iter().all(Option::is_none)
    }

    /// Check the knobs are usable.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidPlan`] naming the offending knob.
    pub fn validate(&self) -> Result<(), FaultError> {
        let bad = |parameter| Err(FaultError::InvalidPlan { parameter });
        if self.dimms == 0 || self.dimms > Self::MAX_DIMMS {
            return bad("dimms");
        }
        if !self.dimm_fault_rate.is_finite() || !(0.0..=1.0).contains(&self.dimm_fault_rate) {
            return bad("dimm_fault_rate");
        }
        if !self.dimm_candidate_gap_us.is_finite() || self.dimm_candidate_gap_us <= 0.0 {
            return bad("dimm_candidate_gap_us");
        }
        if !self.dimm_repair_us.is_finite() || self.dimm_repair_us <= 0.0 {
            return bad("dimm_repair_us");
        }
        if let Some(o) = self.node_outage {
            if !o.start_us.is_finite() || o.start_us < 0.0 {
                return bad("node_outage.start_us");
            }
            if !o.duration_us.is_finite() || o.duration_us <= 0.0 {
                return bad("node_outage.duration_us");
            }
        }
        if let Some(g) = self.gray {
            if !g.start_us.is_finite() || g.start_us < 0.0 {
                return bad("gray.start_us");
            }
            if !g.duration_us.is_finite() || g.duration_us <= 0.0 {
                return bad("gray.duration_us");
            }
            if !g.latency_multiplier.is_finite() || g.latency_multiplier < 1.0 {
                return bad("gray.latency_multiplier");
            }
        }
        if let Some(r) = self.row_faults {
            if !r.every_us.is_finite() || r.every_us <= 0.0 {
                return bad("row_faults.every_us");
            }
            if r.rows == 0 {
                return bad("row_faults.rows");
            }
        }
        let mut windows: Vec<(u64, f64, f64)> = Vec::new();
        for o in self.rank_outages.iter().flatten() {
            if o.rank >= self.dimms {
                return bad("rank_outages.rank");
            }
            if !o.start_us.is_finite() || o.start_us < 0.0 {
                return bad("rank_outages.start_us");
            }
            // A zero-length repair window would emit a down/restored pair
            // at the same instant — reject it rather than letting the
            // transition order decide whether the rank ends up down.
            if !o.duration_us.is_finite() || o.duration_us <= 0.0 {
                return bad("rank_outages.duration_us");
            }
            windows.push((o.rank, o.start_us, o.end_us()));
        }
        // Two explicit windows on one rank must not overlap (closed
        // intervals: abutting counts — the second outage may not begin
        // before the first repair completes).
        windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for pair in windows.windows(2) {
            let ((rank_a, _, end_a), (rank_b, start_b, _)) = (pair[0], pair[1]);
            if rank_a == rank_b && start_b <= end_a {
                return bad("rank_outages.overlap");
            }
        }
        Ok(())
    }

    /// Generate the failure schedule over `[0, horizon_us]` — a pure
    /// function of `(self, horizon_us)`. Failures *initiate* within the
    /// horizon; their restorations may land after it (a DIMM that fails
    /// near the end is still down at the cut).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidPlan`] for unusable knobs or a
    /// non-finite/negative horizon.
    pub fn schedule(&self, horizon_us: f64) -> Result<FaultSchedule, FaultError> {
        self.validate()?;
        if !horizon_us.is_finite() || horizon_us < 0.0 {
            return Err(FaultError::InvalidPlan {
                parameter: "horizon_us",
            });
        }
        // Each transition is emitted with its anchor: a window's start
        // for both ends of node-outage and gray windows, its own instant
        // otherwise. One stable sort on (time, anchor) orders same-instant
        // transitions by anchor, then by emission order (a window's start
        // before its end) — the order the serving engine observes.
        let mut anchored: Vec<(f64, Transition)> = Vec::new();
        let mut emit = |anchor: f64, at_us: f64, change: StateChange| {
            anchored.push((anchor, Transition { at_us, change }));
        };

        let mut windows: Vec<(u64, f64, f64)> = Vec::new();
        if self.dimm_fault_rate > 0.0 {
            // Thinning: every candidate consumes the identical draws
            // regardless of the rate, so the accepted set nests across
            // rates (see the module docs).
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xfa_17);
            let mut t = 0.0f64;
            loop {
                let gap = -self.dimm_candidate_gap_us * (1.0 - rng.gen::<f64>()).ln();
                t += gap;
                if t > horizon_us {
                    break;
                }
                let dimm = rng.gen_range(0..self.dimms);
                let accept = rng.gen::<f64>() < self.dimm_fault_rate;
                if accept {
                    windows.push((dimm, t, t + self.dimm_repair_us));
                }
            }
        }
        // Explicit rank outages join the same window list: one that
        // overlaps a stochastic failure of its rank merges into a single
        // extended window below. Since the explicit set is rate-
        // independent, the merged union still nests across rates.
        for o in self.rank_outages.iter().flatten() {
            if o.start_us <= horizon_us {
                windows.push((o.rank, o.start_us, o.end_us()));
            }
        }
        // Merge overlapping windows per DIMM: a DIMM that fails again
        // while already down extends its outage instead of emitting a
        // nested Down/Restored pair.
        windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut merged: Vec<(u64, f64, f64)> = Vec::new();
        for (dimm, start, end) in windows {
            match merged.last_mut() {
                Some((d, _, e)) if *d == dimm && start <= *e => *e = e.max(end),
                _ => merged.push((dimm, start, end)),
            }
        }
        for (dimm, start, end) in merged {
            emit(start, start, StateChange::DimmDown(dimm));
            emit(end, end, StateChange::DimmRestored(dimm));
        }

        if let Some(o) = self.node_outage {
            if o.start_us <= horizon_us {
                emit(o.start_us, o.start_us, StateChange::NodeDown);
                emit(o.start_us, o.start_us + o.duration_us, StateChange::NodeUp);
            }
        }
        if let Some(g) = self.gray {
            if g.start_us <= horizon_us {
                let change = StateChange::GrayStart(g.latency_multiplier);
                emit(g.start_us, g.start_us, change);
                emit(g.start_us, g.start_us + g.duration_us, StateChange::GrayEnd);
            }
        }
        if let Some(r) = self.row_faults {
            let mut t = r.every_us;
            while t <= horizon_us {
                emit(t, t, StateChange::RowFault(r.rows));
                t += r.every_us;
            }
        }

        anchored.sort_by(|(a, x), (b, y)| x.at_us.total_cmp(&y.at_us).then(a.total_cmp(b)));
        Ok(FaultSchedule {
            transitions: anchored.into_iter().map(|(_, t)| t).collect(),
        })
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// One instantaneous change to the fault state — what the serving event
/// loop schedules as a `FaultTransition` event. Every window (DIMM repair,
/// node outage, gray slowdown) contributes a start/end pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// When the change takes effect, µs.
    pub at_us: f64,
    /// What changes.
    pub change: StateChange,
}

/// The state-changing half of a [`Transition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StateChange {
    /// DIMM goes down.
    DimmDown(u64),
    /// DIMM comes back.
    DimmRestored(u64),
    /// The node becomes unreachable.
    NodeDown,
    /// The node becomes reachable again.
    NodeUp,
    /// Gray window opens with this latency multiplier.
    GrayStart(f64),
    /// Gray window closes.
    GrayEnd,
    /// This many rows must be re-read by the next dispatched batch.
    RowFault(u64),
}

/// A generated failure schedule: the state transitions, sorted by time.
/// Bit-identical across replays of the same `(plan, horizon)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    transitions: Vec<Transition>,
}

impl FaultSchedule {
    /// The transitions, sorted by time; same-instant ones by the anchor
    /// of the window they belong to, then in generation order.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Total DIMM-down time summed over DIMMs, clipped to `[0,
    /// horizon_us]` — the scalar the nesting/monotonicity tests compare
    /// across fault rates.
    pub fn dimm_downtime_us(&self, horizon_us: f64) -> f64 {
        let mut open = [None::<f64>; FaultPlan::MAX_DIMMS as usize];
        let mut total = 0.0;
        for t in &self.transitions {
            match t.change {
                StateChange::DimmDown(dimm) => open[dimm as usize] = Some(t.at_us),
                StateChange::DimmRestored(dimm) => {
                    if let Some(start) = open[dimm as usize].take() {
                        total += t.at_us.min(horizon_us) - start.min(horizon_us);
                    }
                }
                _ => {}
            }
        }
        for start in open.into_iter().flatten() {
            total += horizon_us - start.min(horizon_us);
        }
        total
    }
}

/// The folded fault state at one instant of virtual time: what
/// degraded-mode pricing needs to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultState {
    dimms_total: u64,
    /// Bit `d` set ⇔ DIMM `d` is down.
    down_mask: u128,
    node_out: bool,
    gray_multiplier: f64,
    pending_reread_rows: u64,
}

impl FaultState {
    /// Cap on accumulated re-read rows: transient faults force a
    /// *bounded* re-read, they cannot queue unbounded repair work.
    pub const MAX_PENDING_REREAD_ROWS: u64 = 1 << 20;

    /// Everything healthy on a `dimms_total`-DIMM node.
    pub fn healthy(dimms_total: u64) -> Self {
        FaultState {
            dimms_total,
            down_mask: 0,
            node_out: false,
            gray_multiplier: 1.0,
            pending_reread_rows: 0,
        }
    }

    /// Apply one transition.
    pub fn apply(&mut self, change: StateChange) {
        match change {
            StateChange::DimmDown(d) => {
                if d < FaultPlan::MAX_DIMMS {
                    self.down_mask |= 1u128 << d;
                }
            }
            StateChange::DimmRestored(d) => {
                if d < FaultPlan::MAX_DIMMS {
                    self.down_mask &= !(1u128 << d);
                }
            }
            StateChange::NodeDown => self.node_out = true,
            StateChange::NodeUp => self.node_out = false,
            StateChange::GrayStart(m) => self.gray_multiplier = m,
            StateChange::GrayEnd => self.gray_multiplier = 1.0,
            StateChange::RowFault(rows) => {
                self.pending_reread_rows = self
                    .pending_reread_rows
                    .saturating_add(rows)
                    .min(Self::MAX_PENDING_REREAD_ROWS);
            }
        }
    }

    /// DIMMs configured.
    pub fn dimms_total(&self) -> u64 {
        self.dimms_total
    }

    /// DIMMs currently serving.
    pub fn dimms_alive(&self) -> u64 {
        self.dimms_total - (self.down_mask.count_ones() as u64).min(self.dimms_total)
    }

    /// Whether a new batch can dispatch right now (node reachable and at
    /// least one DIMM alive).
    pub fn can_dispatch(&self) -> bool {
        !self.node_out && self.dimms_alive() > 0
    }

    /// The gray latency multiplier in force (`1.0` when healthy).
    pub fn gray_multiplier(&self) -> f64 {
        self.gray_multiplier
    }

    /// Consume the pending re-read rows (charged to the batch now being
    /// dispatched).
    pub fn take_reread_rows(&mut self) -> u64 {
        std::mem::take(&mut self.pending_reread_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_schedules_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        let s = plan.schedule(1e6).expect("valid");
        assert!(s.transitions().is_empty());
        assert_eq!(s, FaultSchedule::default());
        assert_eq!(s.dimm_downtime_us(1e6), 0.0);
    }

    #[test]
    fn schedule_is_pure_per_seed_and_horizon() {
        let plan = FaultPlan::dimm_faults(42, 0.7);
        let a = plan.schedule(500_000.0).expect("valid");
        let b = plan.schedule(500_000.0).expect("valid");
        assert_eq!(a, b, "same (plan, horizon) must replay bit-identically");
        assert!(
            !a.transitions().is_empty(),
            "rate 0.7 over 250 candidates must accept"
        );
        let other_seed = FaultPlan::dimm_faults(43, 0.7)
            .schedule(500_000.0)
            .expect("valid");
        assert_ne!(a, other_seed);
    }

    #[test]
    fn events_sorted_and_windows_paired() {
        let plan = FaultPlan::dimm_faults(7, 0.5);
        let s = plan.schedule(200_000.0).expect("valid");
        let t = s.transitions();
        assert!(t.windows(2).all(|w| w[0].at_us <= w[1].at_us), "sorted");
        // Every DimmDown has a matching later DimmRestored.
        let mut open = std::collections::BTreeSet::new();
        for tr in t {
            match tr.change {
                StateChange::DimmDown(dimm) => {
                    assert!(open.insert(dimm), "no nested down for one DIMM");
                }
                StateChange::DimmRestored(dimm) => {
                    assert!(open.remove(&dimm), "restore pairs with a down");
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "every failure eventually repairs");
    }

    /// The thinning construction: raising the rate only ever adds
    /// downtime, because the accepted candidate set is a superset.
    #[test]
    fn downtime_is_monotone_in_fault_rate() {
        let horizon = 400_000.0;
        for seed in [1u64, 9, 77] {
            let mut last = 0.0f64;
            for rate in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
                let s = FaultPlan::dimm_faults(seed, rate)
                    .schedule(horizon)
                    .expect("valid");
                let down = s.dimm_downtime_us(horizon);
                assert!(
                    down >= last - 1e-9,
                    "seed {seed}: downtime fell from {last} to {down} at rate {rate}"
                );
                last = down;
            }
            assert!(last > 0.0, "rate 1.0 must accept every candidate");
        }
    }

    #[test]
    fn restorations_may_trail_the_horizon() {
        let mut plan = FaultPlan::dimm_faults(3, 1.0);
        plan.dimm_repair_us = 50_000.0;
        let horizon = 10_000.0;
        let s = plan.schedule(horizon).expect("valid");
        let last = s.transitions().last().expect("nonempty").at_us;
        assert!(last > horizon, "repair completes after the cut");
        // Downtime clipping never counts past the horizon.
        assert!(s.dimm_downtime_us(horizon) <= horizon * plan.dimms as f64);
    }

    #[test]
    fn window_events_expand_to_paired_transitions() {
        let mut plan = FaultPlan::none().with_node_outage(NodeOutage {
            start_us: 100.0,
            duration_us: 50.0,
        });
        plan.gray = Some(GrayRank {
            start_us: 300.0,
            duration_us: 200.0,
            latency_multiplier: 2.5,
        });
        plan.row_faults = Some(RowFaults {
            every_us: 150.0,
            rows: 64,
        });
        assert!(!plan.is_inert());
        let s = plan.schedule(600.0).expect("valid");
        let t = s.transitions();
        assert!(t.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(t.contains(&Transition {
            at_us: 100.0,
            change: StateChange::NodeDown
        }));
        assert!(t.contains(&Transition {
            at_us: 150.0,
            change: StateChange::NodeUp
        }));
        assert!(t.contains(&Transition {
            at_us: 300.0,
            change: StateChange::GrayStart(2.5)
        }));
        assert!(t.contains(&Transition {
            at_us: 500.0,
            change: StateChange::GrayEnd
        }));
        let row_faults = t
            .iter()
            .filter(|tr| matches!(tr.change, StateChange::RowFault(64)))
            .count();
        assert_eq!(row_faults, 4, "150, 300, 450, 600");
    }

    /// Same-instant transitions keep a fixed order: by the anchor of the
    /// window they come from (a window's end shares its start's anchor),
    /// then by emission order — DIMM windows, node outage, gray window,
    /// row faults. The serving engine dispatches after every transition,
    /// so this order is observable; a time-only sort would move
    /// `DimmDown(0)` ahead of `NodeUp` at 150 µs.
    #[test]
    fn same_instant_transitions_keep_anchor_then_emission_order() {
        let mut plan = FaultPlan::none().with_node_outage(NodeOutage {
            start_us: 100.0,
            duration_us: 50.0,
        });
        plan.gray = Some(GrayRank {
            start_us: 150.0,
            duration_us: 50.0,
            latency_multiplier: 2.0,
        });
        plan.row_faults = Some(RowFaults {
            every_us: 50.0,
            rows: 8,
        });
        plan.rank_outages[0] = Some(RankOutage {
            rank: 0,
            start_us: 150.0,
            duration_us: 50.0,
        });
        plan.rank_outages[1] = Some(RankOutage {
            rank: 1,
            start_us: 100.0,
            duration_us: 100.0,
        });
        let s = plan.schedule(200.0).expect("valid");
        let at = |at_us, change| Transition { at_us, change };
        use StateChange::*;
        let want = [
            at(50.0, RowFault(8)),
            at(100.0, DimmDown(1)),
            at(100.0, NodeDown),
            at(100.0, RowFault(8)),
            at(150.0, NodeUp),
            at(150.0, DimmDown(0)),
            at(150.0, GrayStart(2.0)),
            at(150.0, RowFault(8)),
            at(200.0, GrayEnd),
            at(200.0, DimmRestored(0)),
            at(200.0, DimmRestored(1)),
            at(200.0, RowFault(8)),
        ];
        assert_eq!(s.transitions(), &want[..]);
    }

    #[test]
    fn state_folds_transitions() {
        let healthy = FaultState::healthy(32);
        let mut st = healthy;
        assert!(st.can_dispatch());
        assert_eq!(st.dimms_alive(), 32);
        st.apply(StateChange::DimmDown(3));
        st.apply(StateChange::DimmDown(17));
        assert_eq!(st.dimms_alive(), 30);
        assert!(st != healthy && st.can_dispatch());
        st.apply(StateChange::NodeDown);
        assert!(!st.can_dispatch());
        st.apply(StateChange::NodeUp);
        st.apply(StateChange::DimmRestored(3));
        st.apply(StateChange::DimmRestored(17));
        st.apply(StateChange::GrayStart(3.0));
        assert_eq!(st.gray_multiplier(), 3.0);
        st.apply(StateChange::GrayEnd);
        st.apply(StateChange::RowFault(100));
        assert_ne!(st, healthy);
        assert_eq!(st.take_reread_rows(), 100);
        assert_eq!(st.take_reread_rows(), 0);
        assert_eq!(st, healthy);
    }

    #[test]
    fn reread_rows_are_bounded() {
        let mut st = FaultState::healthy(8);
        for _ in 0..10_000 {
            st.apply(StateChange::RowFault(u64::MAX / 2));
        }
        assert_eq!(st.take_reread_rows(), FaultState::MAX_PENDING_REREAD_ROWS);
    }

    #[test]
    fn all_dimms_down_blocks_dispatch() {
        let mut st = FaultState::healthy(2);
        st.apply(StateChange::DimmDown(0));
        st.apply(StateChange::DimmDown(1));
        assert_eq!(st.dimms_alive(), 0);
        assert!(!st.can_dispatch());
    }

    #[test]
    fn rank_outage_validation_rejects_zero_length_and_overlap() {
        let reject = |plan: FaultPlan, parameter: &'static str| {
            assert_eq!(
                plan.schedule(1000.0),
                Err(FaultError::InvalidPlan { parameter }),
                "{parameter}"
            );
        };
        // A plan whose outage slots hold `windows`, in order.
        let with = |windows: &[(u64, f64, f64)]| {
            let mut plan = FaultPlan::none();
            for (slot, &(rank, start_us, duration_us)) in windows.iter().enumerate() {
                plan.rank_outages[slot] = Some(RankOutage {
                    rank,
                    start_us,
                    duration_us,
                });
            }
            plan
        };
        // Zero-length (and negative / non-finite) repair windows.
        reject(with(&[(0, 100.0, 0.0)]), "rank_outages.duration_us");
        reject(with(&[(0, 100.0, -5.0)]), "rank_outages.duration_us");
        reject(with(&[(0, 100.0, f64::NAN)]), "rank_outages.duration_us");
        // Bad anchors and out-of-range ranks.
        reject(with(&[(0, -1.0, 10.0)]), "rank_outages.start_us");
        reject(with(&[(32, 0.0, 10.0)]), "rank_outages.rank");
        // Overlapping windows on the same rank — including abutting ones,
        // where the second outage starts exactly at the first repair.
        reject(
            with(&[(3, 100.0, 50.0), (3, 120.0, 50.0)]),
            "rank_outages.overlap",
        );
        reject(
            with(&[(3, 100.0, 50.0), (3, 150.0, 50.0)]),
            "rank_outages.overlap",
        );
        // Same windows on different ranks are fine; so are disjoint
        // windows on one rank.
        let ok = with(&[(3, 100.0, 50.0), (4, 100.0, 50.0), (3, 151.0, 50.0)]);
        assert!(!ok.is_inert());
        let s = ok.schedule(1000.0).expect("valid");
        assert_eq!(s.transitions().len(), 6, "three down/restored pairs");
        assert!((s.dimm_downtime_us(1000.0) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_rank_outage_merges_with_thinned_stream() {
        // Rate 1.0 accepts every candidate; a horizon-long explicit
        // window on every rank overlaps many of them. The merged
        // schedule must still pair every down with one restore (no
        // nested pairs — the liveness mask is a bitmask, not a counter).
        let mut plan = FaultPlan::dimm_faults(11, 1.0);
        plan.dimms = 4;
        for rank in 0..4 {
            plan.rank_outages[rank as usize] = Some(RankOutage {
                rank,
                start_us: 1_000.0,
                duration_us: 150_000.0,
            });
        }
        let s = plan.schedule(200_000.0).expect("valid");
        let mut open = std::collections::BTreeSet::new();
        for tr in s.transitions() {
            match tr.change {
                StateChange::DimmDown(dimm) => {
                    assert!(open.insert(dimm), "no nested down for one DIMM");
                }
                StateChange::DimmRestored(dimm) => {
                    assert!(open.remove(&dimm), "restore pairs with a down");
                }
                _ => {}
            }
        }
        assert!(open.is_empty());
        // The explicit windows only ever add downtime over the purely
        // stochastic plan.
        let stochastic = FaultPlan {
            rank_outages: [None; FaultPlan::MAX_RANK_OUTAGES],
            ..plan
        };
        let horizon = 200_000.0;
        assert!(
            s.dimm_downtime_us(horizon)
                >= stochastic
                    .schedule(horizon)
                    .expect("valid")
                    .dimm_downtime_us(horizon)
        );
    }

    #[test]
    fn for_node_decorrelates_but_preserves_monotone_downtime() {
        let base = FaultPlan::dimm_faults(42, 0.5);
        let horizon = 400_000.0;
        let a = base.for_node(0).schedule(horizon).expect("valid");
        let b = base.for_node(1).schedule(horizon).expect("valid");
        assert_ne!(a, b, "per-node streams decorrelate");
        assert_eq!(
            a,
            base.for_node(0).schedule(horizon).expect("valid"),
            "derivation is deterministic"
        );
        // Thinning survives the seed mix: each node's downtime is still
        // monotone in the fault rate.
        for node in 0..3u64 {
            let mut last = 0.0f64;
            for rate in [0.0, 0.25, 0.5, 1.0] {
                let down = FaultPlan::dimm_faults(42, rate)
                    .for_node(node)
                    .schedule(horizon)
                    .expect("valid")
                    .dimm_downtime_us(horizon);
                assert!(down >= last - 1e-9, "node {node} rate {rate}");
                last = down;
            }
        }
        // Explicit windows ride along verbatim.
        let derived = base
            .with_node_outage(NodeOutage {
                start_us: 5.0,
                duration_us: 10.0,
            })
            .for_node(7);
        assert_eq!(
            derived.node_outage,
            Some(NodeOutage {
                start_us: 5.0,
                duration_us: 10.0
            })
        );
        assert!(FaultPlan::none().for_node(3).is_inert());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let reject = |plan: FaultPlan, parameter: &'static str| {
            assert_eq!(
                plan.schedule(1000.0),
                Err(FaultError::InvalidPlan { parameter }),
                "{parameter}"
            );
        };
        let base = FaultPlan::none();
        reject(FaultPlan { dimms: 0, ..base }, "dimms");
        reject(FaultPlan { dimms: 129, ..base }, "dimms");
        reject(
            FaultPlan {
                dimm_fault_rate: 1.5,
                ..base
            },
            "dimm_fault_rate",
        );
        reject(
            FaultPlan {
                dimm_fault_rate: f64::NAN,
                ..base
            },
            "dimm_fault_rate",
        );
        reject(
            FaultPlan {
                dimm_candidate_gap_us: 0.0,
                ..base
            },
            "dimm_candidate_gap_us",
        );
        reject(
            FaultPlan {
                dimm_repair_us: -1.0,
                ..base
            },
            "dimm_repair_us",
        );
        reject(
            base.with_node_outage(NodeOutage {
                start_us: -1.0,
                duration_us: 10.0,
            }),
            "node_outage.start_us",
        );
        reject(
            FaultPlan {
                gray: Some(GrayRank {
                    start_us: 0.0,
                    duration_us: 10.0,
                    latency_multiplier: 0.5,
                }),
                ..base
            },
            "gray.latency_multiplier",
        );
        reject(
            FaultPlan {
                row_faults: Some(RowFaults {
                    every_us: 0.0,
                    rows: 1,
                }),
                ..base
            },
            "row_faults.every_us",
        );
        assert_eq!(
            base.schedule(f64::INFINITY),
            Err(FaultError::InvalidPlan {
                parameter: "horizon_us"
            })
        );
        assert!(!FaultError::InvalidPlan { parameter: "dimms" }
            .to_string()
            .is_empty());
    }
}
