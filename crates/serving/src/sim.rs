//! The discrete-event, virtual-time serving simulator.
//!
//! An open-loop arrival trace feeds a [`DynamicBatcher`]; sealed batches
//! dispatch to the first free GPU and are priced through a pluggable
//! [`BatchPricer`] backend ([`PricingBackend::Analytic`] — the closed-form
//! model — or [`PricingBackend::CycleCalibrated`] — node lookups replayed
//! on the event-driven DRAM/NMP co-simulator): node-backed designs
//! (`PMEM`, `TDIMM`) pay shared-TensorNode contention scaled by how many
//! GPUs are concurrently in flight, other designs pay their solo latency.
//! The loop advances virtual time event by event — arrivals, batch-window
//! flushes, GPU completions, fault transitions, retry timers — and
//! produces request-level tail-latency, throughput, queue-depth,
//! batch-occupancy and availability metrics.
//!
//! # Faults and degraded-mode serving
//!
//! A [`FaultPlan`] on the [`SimConfig`] expands (deterministically, per
//! seed) into timed state transitions: DIMM rank losses shrink the node's
//! gather bandwidth (priced through
//! [`BatchPricer::price_degraded`]), node outages hold dispatch entirely
//! (in-flight batches still finish), gray ranks inflate every node-backed
//! batch by a latency multiplier, and transient row faults charge bounded
//! re-read traffic to the next dispatched batch. A [`RetryPolicy`] adds
//! per-request deadlines, capped-exponential backoff re-admission after
//! queue-full rejections, and hedged re-dispatch of slow batches; an
//! [`AdmissionPolicy`] bounds the waiting queue. All three default to
//! inert values under which the simulation is **bit-identical** to a run
//! without them (pinned by regression tests and the `sweep_availability`
//! CI gate).
//!
//! # Event ordering
//!
//! Events are processed in ascending virtual time. Events at the *same*
//! instant are ordered by kind, then by creation order:
//!
//! 1. **GPU completions** — finished batches release their GPU before any
//!    same-instant work is admitted,
//! 2. **fault transitions** — a batch finishing exactly when a fault
//!    strikes completes healthy, while an arrival at that instant sees the
//!    degraded node,
//! 3. **arrivals** — in trace order, so a request arriving exactly when a
//!    GPU frees can dispatch at that instant,
//! 4. **retry fires** — deadline checks, backoff re-admissions and hedge
//!    timers observe every same-instant arrival; a deadline coinciding
//!    with a flush wins (the expired request is removed before sealing),
//! 5. **batch-window flushes** — the timer observes every same-instant
//!    arrival (a request arriving exactly at a window expiry joins the
//!    flushed batch rather than starting a new one).
//!
//! Ties within a kind go by creation order: arrival `i` of the trace is
//! event `i`, fault transitions follow, then timers in the order they were
//! armed.
//!
//! The event queue (`events.rs`) pops events in exactly that order. It
//! compares events through one integer key: the time mapped so that its
//! unsigned order is `f64::total_cmp`'s (a −0.0 arrival precedes a +0.0
//! timer), then the kind rank above, then the creation order. It keeps
//! the least timer's key cached, so an arrival, nearly every event, pops
//! after one comparison. The order is part of the simulator's contract:
//! it never depends on queue internals, so [`simulate`] is bit-identical
//! for identical inputs even with colliding timestamps (see the
//! regression tests, the every-timer oracle, which merges by `Ord` and
//! keeps no cache, and the record-digest pins).
//!
//! # Only timers that can act
//!
//! The straightforward loop arms a flush per admission and pops every
//! deadline, and nearly all of those do nothing. This loop arms and pops
//! only the ones that can act; the straightforward loop is kept as a test
//! oracle, and the two agree on every report field bit for bit except
//! `queue.mean_depth`, whose integral is split at fewer instants (it moves
//! by float re-association, ~1e-15 relative).
//!
//! - **One flush per queue front.** A batch window expires for the
//!   batcher's front first, and from that instant on every event that
//!   could let a batch seal (a GPU completion, a fault transition, an
//!   admission) seals it itself, so a flush armed for a request behind the
//!   front can seal nothing. The flush lane carries one timer per front,
//!   at its admission plus `max_wait_us`, armed by the first dispatch
//!   attempt that finds it at the front (every completion, fault
//!   transition and flush makes one, and so does every admission except
//!   one that finds no batch ready and the front's flush armed already),
//!   unless that instant has passed. A front exposed by a deadline
//!   removal waits for the next attempt, which comes no later than the
//!   removed front's own flush, whose window ends first. Windows are exact: a flush seals only a
//!   front whose window has ended, at the very instant it ends.
//! - **Settled deadlines are dropped at the lane head.** A deadline whose
//!   request already has an outcome would do nothing, and an outcome never
//!   reverts, so the loop discards it before choosing the next event.
//! - **The horizon rule is kept exactly.** A horizon cuts the run
//!   (`end_us` is the horizon) iff some timer the straightforward loop
//!   arms lies past it, a no-op one included. The event queue tracks the
//!   latest flush and deadline instant that loop would arm, and a run
//!   whose latest such instant lies past the horizon is cut.
//!
//! Everything is deterministic: same model, configuration, fault plan,
//! policies, pricing backend and arrival trace ⇒ bit-identical
//! [`SimReport`]. The loop still *processes* some timer events that trail
//! the last request-state change (a front's flush after its batch sealed
//! full, a deadline of a request still on a GPU, a hedge timer, a fault
//! repair after the last completion), but they do not move
//! [`SimReport::end_us`]: the reported end of the run — and the
//! denominator of `throughput_qps` / `goodput_qps` — is the last instant
//! a request actually changed state (arrived, completed, shed or timed
//! out) or a dispatched batch copy finished, or the horizon when one
//! cuts the run.
//!
//! # Example
//!
//! ```
//! use tensordimm_serving::{simulate, ArrivalProcess, BatchPolicy, SimConfig};
//! use tensordimm_system::{DesignPoint, SystemModel};
//! use tensordimm_models::Workload;
//!
//! let model = SystemModel::paper_defaults();
//! let workload = Workload::youtube();
//! let arrivals = ArrivalProcess::Poisson { rate_qps: 50_000.0 }.sample_arrivals_us(400, 7);
//! let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(32, 500.0));
//! let report = simulate(&model, &workload, &cfg, &arrivals)?;
//! assert_eq!(report.completed, 400);
//! assert!(report.latency.p99_us >= report.latency.p50_us);
//! # Ok::<(), tensordimm_serving::SimError>(())
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::num::NonZeroU32;

use tensordimm_faults::{FaultError, FaultPlan, FaultSchedule, FaultState};
use tensordimm_interconnect::InterconnectError;
use tensordimm_models::Workload;
use tensordimm_system::{BatchPricer, DegradedNode, DesignPoint, PricingBackend, SystemModel};

use crate::batcher::{BatchPolicy, DynamicBatcher, QueuedRequest};
use crate::events::{EventKind, EventQueue, RetryKind, TimerRouting, TimerStats};
use crate::metrics::{
    BatchStats, LatencySummary, OutcomeCounts, OutcomeFold, QueueDepthTracker, QueueStats,
};
use crate::policy::{AdmissionPolicy, RetryPolicy};
use crate::request::{CompletionRecord, RequestOutcome, RequestRecord};

/// Errors from the serving simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration knob is unusable.
    InvalidConfig {
        /// Which knob.
        parameter: &'static str,
    },
    /// The arrival trace is not sorted ascending (or holds a non-finite or
    /// negative instant) at this index.
    BadArrival {
        /// Index of the offending arrival.
        index: usize,
    },
    /// Batch pricing through the system model failed.
    Pricing(InterconnectError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { parameter } => {
                write!(f, "simulator parameter {parameter} is unusable")
            }
            SimError::BadArrival { index } => {
                write!(
                    f,
                    "arrival trace is unsorted or non-finite at index {index}"
                )
            }
            SimError::Pricing(e) => write!(f, "batch pricing failed: {e}"),
        }
    }
}

impl Error for SimError {}

impl From<InterconnectError> for SimError {
    fn from(e: InterconnectError) -> Self {
        SimError::Pricing(e)
    }
}

impl From<FaultError> for SimError {
    fn from(e: FaultError) -> Self {
        match e {
            FaultError::InvalidPlan { parameter } => SimError::InvalidConfig { parameter },
            _ => SimError::InvalidConfig {
                parameter: "faults",
            },
        }
    }
}

/// Simulator configuration: the design point under test, its serving
/// resources, and (optionally) the faults and degraded-mode policies the
/// run is subjected to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Which design point serves the traffic.
    pub design: DesignPoint,
    /// GPUs pulling batches (sharing one TensorNode for node designs).
    pub gpus: usize,
    /// The dynamic-batching policy.
    pub policy: BatchPolicy,
    /// Which batch-pricing backend services are costed with (ignored by
    /// [`simulate_with_pricer`], which takes the pricer directly).
    pub pricing: PricingBackend,
    /// Optional cutoff, µs: events after this virtual time are not
    /// processed, leaving requests queued / in flight for conservation
    /// accounting. `None` runs until every request completes.
    pub horizon_us: Option<f64>,
    /// Deterministic fault injection: expanded over the horizon (or the
    /// last arrival when there is none) into timed state transitions.
    /// [`FaultPlan::none`] — the default — injects nothing and is
    /// bit-identical to a fault-free run.
    pub faults: FaultPlan,
    /// Deadline / backoff-retry / hedging policy
    /// ([`RetryPolicy::none`] by default).
    pub retry: RetryPolicy,
    /// Queue-depth admission control
    /// ([`AdmissionPolicy::unbounded`] by default).
    pub admission: AdmissionPolicy,
}

impl SimConfig {
    /// A configuration that runs to completion (no horizon) with the
    /// analytic pricing backend, no faults, and inert serving policies.
    pub fn new(design: DesignPoint, gpus: usize, policy: BatchPolicy) -> Self {
        SimConfig {
            design,
            gpus,
            policy,
            pricing: PricingBackend::Analytic,
            horizon_us: None,
            faults: FaultPlan::none(),
            retry: RetryPolicy::none(),
            admission: AdmissionPolicy::unbounded(),
        }
    }

    /// Stop the virtual clock at `horizon_us`.
    pub fn with_horizon(mut self, horizon_us: f64) -> Self {
        self.horizon_us = Some(horizon_us);
        self
    }

    /// Select the batch-pricing backend.
    pub fn with_pricing(mut self, pricing: PricingBackend) -> Self {
        self.pricing = pricing;
        self
    }

    /// Subject the run to this fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Serve with this retry/deadline/hedging policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Gate arrivals through this admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        // Completion records store the GPU index as a `u32`.
        if self.gpus == 0 || u32::try_from(self.gpus).is_err() {
            return Err(SimError::InvalidConfig { parameter: "gpus" });
        }
        self.policy.validate()?;
        if let Some(h) = self.horizon_us {
            if !h.is_finite() || h < 0.0 {
                return Err(SimError::InvalidConfig {
                    parameter: "horizon_us",
                });
            }
        }
        self.faults.validate()?;
        self.retry.validate()?;
        self.admission.validate()?;
        Ok(())
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The design point simulated.
    pub design: DesignPoint,
    /// GPUs configured.
    pub gpus: usize,
    /// The batching policy used.
    pub policy: BatchPolicy,
    /// Requests in the input trace.
    pub offered: usize,
    /// Requests whose arrival fell inside the simulated window.
    pub arrived: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests on a GPU when the clock stopped.
    pub in_flight: usize,
    /// Requests still waiting in the batcher when the clock stopped.
    pub queued: usize,
    /// Requests waiting out a backoff delay when the clock stopped.
    pub retry_pending: usize,
    /// End of the run, µs: the last instant a request changed state
    /// (arrived, completed, shed or timed out) or a dispatched batch
    /// copy finished — trailing no-op timers and fault repairs don't
    /// count — or the horizon when one is set and hit.
    pub end_us: f64,
    /// Completed requests per second of virtual time.
    pub throughput_qps: f64,
    /// Requests completed *within the SLA* per second of virtual time
    /// (equals `throughput_qps` when no deadline is configured).
    pub goodput_qps: f64,
    /// Fraction of arrived requests shed by admission control.
    pub shed_rate: f64,
    /// Fraction of arrived requests completed within [`sla_us`](Self::sla_us)
    /// (`1.0` for a run with no arrivals).
    pub availability: f64,
    /// The SLA availability/goodput were judged against: the retry
    /// policy's deadline (`∞` when none is configured — every completion
    /// then counts).
    pub sla_us: f64,
    /// Where every arrived request ended up.
    pub outcomes: OutcomeCounts,
    /// Hedged duplicate dispatches (their requests are counted once).
    pub hedge_dispatches: usize,
    /// End-to-end latency summary over completed requests.
    pub latency: LatencySummary,
    /// Waiting-queue depth statistics.
    pub queue: QueueStats,
    /// Batch-occupancy statistics.
    pub batches: BatchStats,
    /// Per-request outcomes, indexed like the arrival trace.
    pub records: Vec<RequestRecord>,
}

impl SimReport {
    /// Requests whose arrival the horizon cut off.
    pub fn not_arrived(&self) -> usize {
        self.offered - self.arrived
    }

    /// Flow conservation: every offered request has a record, every
    /// arrived one is accounted for exactly once — completed, shed, timed
    /// out, or in flight — and the records' in-flight count agrees with
    /// the engine's live counters (on a GPU, queued, or between retries).
    pub fn is_conserved(&self) -> bool {
        self.arrived <= self.offered
            && self.records.len() == self.offered
            && self.outcomes.is_conserved(self.arrived)
            && self.outcomes.in_flight_at_horizon
                == self.in_flight + self.queued + self.retry_pending
    }

    /// Fraction of arrived requests that completed within `sla_us` of
    /// their arrival: the report's [`OutcomeFold`] re-run at another SLA,
    /// so `availability_at(sla_us)` is bit-identical to `availability`.
    /// Shed and timed-out requests never count; neither do completions
    /// slower than the SLA. The fold's no-arrival and all-shed contracts
    /// apply (the latter pinned by `all_shed_point_has_zero_…`).
    ///
    /// # Panics
    ///
    /// Panics on a NaN `sla_us`; `f64::INFINITY` is the spelling for "no
    /// SLA".
    pub fn availability_at(&self, sla_us: f64) -> f64 {
        fold_records(&self.records, sla_us, self.end_us).availability
    }
}

/// The outcome fold over a node run's records; records the horizon cut
/// off before arrival carry no outcome and are skipped.
fn fold_records(records: &[RequestRecord], sla_us: f64, end_us: f64) -> OutcomeFold {
    OutcomeFold::fold(
        records
            .iter()
            .filter_map(|r| r.outcome.map(|o| (o, r.latency_us()))),
        sla_us,
        end_us,
    )
}

/// A dispatched batch. Normally one GPU runs one copy; hedging can put a
/// duplicate copy on a second GPU, in which case the first copy to finish
/// completes the requests (once) and the straggler just releases its GPU.
#[derive(Debug)]
struct LogicalBatch {
    dispatch_us: f64,
    requests: Vec<QueuedRequest>,
    /// Whether some copy already completed the requests.
    done: bool,
    /// GPU copies currently running.
    copies: u32,
}

/// Price-cache key: (batch size, active GPUs, degraded-state fingerprint).
type PriceKey = (usize, usize, (u64, u64, u64, u64));

struct Engine<'a> {
    pricer: &'a dyn BatchPricer,
    workload: &'a Workload,
    design: DesignPoint,
    gpus: usize,
    /// Arrivals, timers and the horizon rule (see `events.rs`).
    queue: EventQueue<'a>,
    batcher: DynamicBatcher,
    /// Free GPU ids; popped from the back (lowest id first by construction).
    free_gpus: Vec<usize>,
    /// Per-GPU: the logical batch whose copy it is running.
    in_flight: Vec<Option<u64>>,
    in_flight_requests: usize,
    batches: BTreeMap<u64, LogicalBatch>,
    next_batch: u64,
    batch_stats: BatchStats,
    /// Memoized backend prices — valid because [`BatchPricer`]
    /// implementations are deterministic pure functions of the key.
    price_cache: BTreeMap<PriceKey, f64>,
    /// Live fault state, folded from the schedule's transitions.
    state: FaultState,
    retry: RetryPolicy,
    admission: AdmissionPolicy,
    /// Whether a `Readmit` timer is outstanding for the request.
    awaiting_retry: Vec<bool>,
    /// Requests currently waiting out a backoff delay.
    retry_pending: usize,
    hedge_dispatches: usize,
}

impl Engine<'_> {
    /// Service time of a `batch`-request batch at `active` GPUs under the
    /// current fault state, with `reread_rows` of transient-fault re-read
    /// traffic charged to it.
    fn service_us(
        &mut self,
        batch: usize,
        active: usize,
        reread_rows: u64,
    ) -> Result<f64, SimError> {
        let degraded = DegradedNode {
            dimms_alive: self.state.dimms_alive(),
            dimms_total: self.state.dimms_total(),
            latency_multiplier: self.state.gray_multiplier(),
            reread_rows,
        };
        let key = (batch, active, degraded.fingerprint());
        if let Some(&us) = self.price_cache.get(&key) {
            return Ok(us);
        }
        // A healthy view goes through the plain `price` path — the exact
        // call a fault-free simulation makes — so inert fault plans stay
        // bit-identical even for pricers that only implement `price`.
        let cost = if degraded.is_healthy() {
            self.pricer
                .price(self.workload, batch, self.design, active)?
        } else {
            self.pricer
                .price_degraded(self.workload, batch, self.design, active, degraded)?
        };
        self.price_cache.insert(key, cost.service_us);
        Ok(cost.service_us)
    }

    /// Seal and dispatch every ready batch while a GPU is free (and the
    /// node is reachable — a node outage holds dispatch entirely).
    ///
    /// All batches sealed at this instant overlap for their whole
    /// duration, so the cohort is assigned to GPUs first and priced
    /// afterwards at the resulting concurrency (batches already in flight
    /// from earlier events keep their dispatch-time pricing — the model's
    /// documented approximation). Pending re-read traffic from transient
    /// row faults is charged to the first batch of the cohort. Whatever
    /// front the queue is left with gets its flush armed.
    fn dispatch_ready(&mut self, now_us: f64) -> Result<(), SimError> {
        let mut cohort: Vec<(usize, Vec<QueuedRequest>)> = Vec::new();
        while self.state.can_dispatch() && !self.free_gpus.is_empty() {
            let Some(requests) = self.batcher.take_ready_batch(now_us) else {
                break;
            };
            let gpu = self.free_gpus.pop().expect("checked nonempty");
            cohort.push((gpu, requests));
        }
        let active = self.gpus - self.free_gpus.len();
        let mut reread_rows = if cohort.is_empty() {
            0
        } else {
            self.state.take_reread_rows()
        };
        for (gpu, requests) in cohort {
            let service = self.service_us(requests.len(), active, reread_rows)?;
            reread_rows = 0;
            self.batch_stats.record(requests.len());
            self.in_flight_requests += requests.len();
            let id = self.next_batch;
            self.next_batch += 1;
            self.batches.insert(
                id,
                LogicalBatch {
                    dispatch_us: now_us,
                    requests,
                    done: false,
                    copies: 1,
                },
            );
            self.in_flight[gpu] = Some(id);
            self.queue.push(now_us + service, EventKind::GpuDone(gpu));
            if self.retry.hedging_enabled() {
                self.queue.push(
                    now_us + self.retry.hedge_after_us,
                    EventKind::RetryFire(RetryKind::Hedge { gpu, batch: id }),
                );
            }
        }
        self.queue
            .arm_front_flush(now_us, self.batcher.next_deadline_us());
        Ok(())
    }

    /// Hedge `batch` if its original copy is still running on `gpu`:
    /// dispatch a duplicate to a free GPU. Hedged copies are priced at the
    /// current concurrency and fault state but are *not* new logical
    /// batches — they don't count in batch stats, don't consume re-read
    /// traffic, and their requests complete (at most) once.
    fn try_hedge(&mut self, now_us: f64, gpu: usize, batch: u64) -> Result<(), SimError> {
        if self.in_flight[gpu] != Some(batch)
            || !self.state.can_dispatch()
            || self.free_gpus.is_empty()
        {
            return Ok(());
        }
        // A GPU's batch stays live while the GPU runs it, and a sealed
        // batch is never empty.
        let size = self.batches.get(&batch).expect("live batch").requests.len();
        // A pricing error ends the run: the GPU need not be handed back.
        let hedge_gpu = self.free_gpus.pop().expect("checked nonempty");
        let active = self.gpus - self.free_gpus.len();
        let service = self.service_us(size, active, 0)?;
        let b = self
            .batches
            .get_mut(&batch)
            .expect("in-flight batch exists");
        b.copies += 1;
        self.in_flight[hedge_gpu] = Some(batch);
        self.hedge_dispatches += 1;
        self.queue
            .push(now_us + service, EventKind::GpuDone(hedge_gpu));
        Ok(())
    }

    /// Run the admission policy for request `id` (fresh arrival or
    /// backoff re-admission) at `now_us`. A request whose deadline has
    /// passed times out (under `shed_expired`); one that finds the queue
    /// full consumes a retry, re-admitted after a deterministic backoff,
    /// or is shed for good; any other is queued and dispatch attempted,
    /// unless that attempt could do nothing: no batch is ready, so none
    /// seals, and the front's flush is the one already armed.
    fn admit(
        &mut self,
        now_us: f64,
        id: usize,
        records: &mut [RequestRecord],
    ) -> Result<(), SimError> {
        let rec = &mut records[id];
        if self.admission.shed_expired
            && self.retry.deadline_enabled()
            && now_us >= rec.arrival_us + self.retry.deadline_us
        {
            rec.outcome = Some(RequestOutcome::TimedOut);
        } else if self.batcher.depth() >= self.admission.max_queue_depth {
            if rec.retries < self.retry.max_retries {
                let delay = self.retry.backoff_us(id, rec.retries);
                rec.retries += 1;
                self.awaiting_retry[id] = true;
                self.retry_pending += 1;
                let readmit = EventKind::RetryFire(RetryKind::Readmit(id));
                self.queue.push(now_us + delay, readmit);
            } else {
                rec.outcome = Some(RequestOutcome::Shed);
            }
        } else {
            self.batcher.push(QueuedRequest {
                id,
                arrival_us: now_us,
            });
            self.queue
                .admitted(now_us + self.batcher.policy().max_wait_us);
            // A deadline's `batcher.remove` can expose a front without
            // arming its flush, so the front itself is checked.
            let idle = !self.batcher.ready(now_us)
                && self
                    .queue
                    .front_flush_armed(self.batcher.next_deadline_us());
            if !idle {
                self.dispatch_ready(now_us)?;
            }
        }
        Ok(())
    }
}

/// Run the simulator: feed `arrivals_us` (sorted, µs) through the batcher
/// and `cfg.gpus` GPUs of `cfg.design`, pricing each dispatched batch with
/// the backend `cfg.pricing` selects (constructed fresh over `model`; use
/// [`simulate_with_pricer`] to share a warmed-up [`CyclePricer`] latency
/// table across runs).
///
/// [`CyclePricer`]: tensordimm_system::CyclePricer
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for unusable knobs (including
/// fault-plan and policy knobs, and the model's Zipf skew),
/// [`SimError::BadArrival`] for an unsorted/non-finite trace, and
/// [`SimError::Pricing`] if the system model rejects a batch.
pub fn simulate(
    model: &SystemModel,
    workload: &Workload,
    cfg: &SimConfig,
    arrivals_us: &[f64],
) -> Result<SimReport, SimError> {
    validate_zipf_s(model.config().zipf_s)?;
    let pricer = cfg.pricing.build(model);
    simulate_with_pricer(workload, cfg, arrivals_us, pricer.as_ref())
}

/// The arrival-trace check every simulator runs: instants must be finite,
/// non-negative and sorted ascending.
///
/// # Errors
///
/// Returns [`SimError::BadArrival`] at the first offending index.
pub fn validate_arrivals(arrivals_us: &[f64]) -> Result<(), SimError> {
    for (i, &t) in arrivals_us.iter().enumerate() {
        let sorted = i == 0 || arrivals_us[i - 1] <= t;
        if !t.is_finite() || t < 0.0 || !sorted {
            return Err(SimError::BadArrival { index: i });
        }
    }
    Ok(())
}

/// The Zipf-skew check every simulator runs on the popularity skew it
/// draws rows with: finite and non-negative (`0.0` draws uniform rows).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for `zipf_s` when the skew is NaN,
/// infinite or negative.
pub fn validate_zipf_s(zipf_s: f64) -> Result<(), SimError> {
    if zipf_s.is_finite() && zipf_s >= 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidConfig {
            parameter: "zipf_s",
        })
    }
}

/// [`simulate`] with an explicit pricing backend. `cfg.pricing` is ignored
/// — the caller owns the pricer, which lets a sweep reuse one cycle
/// pricer's memoized latency table across many runs.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_with_pricer(
    workload: &Workload,
    cfg: &SimConfig,
    arrivals_us: &[f64],
    pricer: &dyn BatchPricer,
) -> Result<SimReport, SimError> {
    run_engine(workload, cfg, arrivals_us, pricer, TimerRouting::Lanes).map(|(report, _)| report)
}

/// [`simulate_with_pricer`] with constant-delay timers queued as `routing`
/// says, also returning the timer queues' occupancy.
fn run_engine(
    workload: &Workload,
    cfg: &SimConfig,
    arrivals_us: &[f64],
    pricer: &dyn BatchPricer,
    routing: TimerRouting,
) -> Result<(SimReport, TimerStats), SimError> {
    cfg.validate()?;
    validate_arrivals(arrivals_us)?;

    // Expand the fault plan over the simulated window: the horizon when
    // one is set, the last arrival otherwise (repairs may trail it).
    let fault_horizon = cfg
        .horizon_us
        .unwrap_or_else(|| arrivals_us.last().copied().unwrap_or(0.0));
    let schedule = if cfg.faults.is_inert() {
        FaultSchedule::default()
    } else {
        cfg.faults.schedule(fault_horizon)?
    };
    let transitions = schedule.transitions();

    let n = arrivals_us.len();
    let mut engine = Engine {
        pricer,
        workload,
        design: cfg.design,
        gpus: cfg.gpus,
        queue: EventQueue::new(arrivals_us, cfg.horizon_us, cfg.gpus, routing),
        batcher: DynamicBatcher::new(cfg.policy),
        free_gpus: (0..cfg.gpus).rev().collect(),
        in_flight: vec![None; cfg.gpus],
        in_flight_requests: 0,
        batches: BTreeMap::new(),
        next_batch: 0,
        batch_stats: BatchStats::new(cfg.policy.max_batch),
        price_cache: BTreeMap::new(),
        state: FaultState::healthy(cfg.faults.dimms),
        retry: cfg.retry,
        admission: cfg.admission,
        awaiting_retry: vec![false; n],
        retry_pending: 0,
        hedge_dispatches: 0,
    };
    for (i, tr) in transitions.iter().enumerate() {
        engine.queue.push(tr.at_us, EventKind::FaultTransition(i));
    }

    let mut records: Vec<RequestRecord> = arrivals_us
        .iter()
        .map(|&t| RequestRecord::pending(t))
        .collect();
    let mut queue_tracker = QueueDepthTracker::default();
    let mut arrived = 0usize;
    let mut clock_us = 0.0f64;
    // Last instant a request changed state — what `end_us` reports.
    // Trailing no-op timers (a deadline firing for a request that already
    // completed, a flush for one that already dispatched, a fault repair
    // after the last completion) advance `clock_us` but not this.
    let mut progress_us = 0.0f64;

    while let Some(event) = engine.queue.pop(|id| records[id].outcome.is_some()) {
        queue_tracker.advance(event.time_us, engine.batcher.depth());
        clock_us = clock_us.max(event.time_us);
        match event.kind {
            EventKind::Arrival(id) => {
                arrived += 1;
                progress_us = event.time_us;
                if engine.retry.deadline_enabled() {
                    let deadline_us = records[id].arrival_us + engine.retry.deadline_us;
                    engine
                        .queue
                        .push(deadline_us, EventKind::RetryFire(RetryKind::Deadline(id)));
                }
                engine.admit(event.time_us, id, &mut records)?;
            }
            EventKind::Flush => {
                engine.dispatch_ready(event.time_us)?;
            }
            EventKind::FaultTransition(i) => {
                engine.state.apply(transitions[i].change);
                engine.dispatch_ready(event.time_us)?;
            }
            EventKind::RetryFire(RetryKind::Readmit(id)) => {
                if engine.awaiting_retry[id] {
                    progress_us = event.time_us;
                    engine.awaiting_retry[id] = false;
                    engine.retry_pending -= 1;
                    engine.admit(event.time_us, id, &mut records)?;
                }
            }
            EventKind::RetryFire(RetryKind::Deadline(id)) => {
                if records[id].outcome.is_none() {
                    if engine.batcher.remove(id).is_some() {
                        records[id].outcome = Some(RequestOutcome::TimedOut);
                        progress_us = event.time_us;
                    } else if engine.awaiting_retry[id] {
                        // Cancel the pending re-admission; its Readmit
                        // event becomes a no-op.
                        engine.awaiting_retry[id] = false;
                        engine.retry_pending -= 1;
                        records[id].outcome = Some(RequestOutcome::TimedOut);
                        progress_us = event.time_us;
                    }
                    // Otherwise the request is on a GPU: let it finish —
                    // availability judges the lateness.
                }
            }
            EventKind::RetryFire(RetryKind::Hedge { gpu, batch }) => {
                engine.try_hedge(event.time_us, gpu, batch)?;
            }
            EventKind::GpuDone(gpu) => {
                progress_us = event.time_us;
                let bid = engine.in_flight[gpu]
                    .take()
                    .expect("GpuDone implies a batch in flight");
                engine.free_gpus.push(gpu);
                let mut batch = engine.batches.remove(&bid).expect("live batch");
                batch.copies -= 1;
                if !batch.done {
                    batch.done = true;
                    let size = batch.requests.len();
                    // Validation bounds both by `u32`; a sealed batch is
                    // never empty.
                    let completion = CompletionRecord {
                        dispatch_us: batch.dispatch_us,
                        finish_us: event.time_us,
                        batch_size: u32::try_from(size)
                            .ok()
                            .and_then(NonZeroU32::new)
                            .expect("1 <= batch size <= max_batch <= u32::MAX"),
                        gpu: u32::try_from(gpu).expect("gpus <= u32::MAX"),
                    };
                    for q in &batch.requests {
                        records[q.id].completion = Some(completion);
                        records[q.id].outcome = Some(RequestOutcome::Completed);
                    }
                    engine.in_flight_requests -= size;
                }
                if batch.copies > 0 {
                    // A hedged duplicate is still running; keep the batch
                    // so the straggler's completion only frees its GPU.
                    engine.batches.insert(bid, batch);
                }
                engine.dispatch_ready(event.time_us)?;
            }
        }
    }

    // A horizon the run reached (the every-timer loop's no-op flushes
    // and settled deadlines count) is the end of the run.
    let end_us = match cfg.horizon_us {
        Some(h) if engine.queue.horizon_cut() => h,
        _ => progress_us,
    };
    // Arrivals are processed in trace order, so the arrived requests are
    // exactly the first `arrived` records; any of them without a resolved
    // outcome was cut off mid-flight (queued, retrying, or on a GPU).
    for rec in records.iter_mut().take(arrived) {
        if rec.outcome.is_none() {
            rec.outcome = Some(RequestOutcome::InFlightAtHorizon);
        }
    }
    let sla_us = cfg.retry.deadline_us;
    let OutcomeFold {
        arrived: _,
        outcomes,
        latency,
        availability,
        throughput_qps,
        goodput_qps,
        shed_rate,
    } = fold_records(&records, sla_us, end_us);
    // The tracker has integrated up to `clock_us` (possibly past `end_us`
    // through trailing no-op events, over which the queue is necessarily
    // empty — any depth change is itself progress); normalize over the
    // reported run length.
    let queue = queue_tracker.finish(clock_us.max(end_us), end_us, engine.batcher.depth());
    let mut batches = engine.batch_stats;
    batches.finalize();
    let report = SimReport {
        design: cfg.design,
        gpus: cfg.gpus,
        policy: cfg.policy,
        offered: n,
        arrived,
        completed: outcomes.completed,
        in_flight: engine.in_flight_requests,
        queued: engine.batcher.depth(),
        retry_pending: engine.retry_pending,
        end_us,
        throughput_qps,
        goodput_qps,
        shed_rate,
        availability,
        sla_us,
        outcomes,
        hedge_dispatches: engine.hedge_dispatches,
        latency,
        queue,
        batches,
        records,
    };
    Ok((report, engine.queue.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use proptest::prelude::*;
    use tensordimm_faults::{GrayRank, NodeOutage, RowFaults};
    use tensordimm_system::{TopologyKind, TransferBackend};

    fn model() -> SystemModel {
        SystemModel::paper_defaults()
    }

    fn poisson(rate_qps: f64, n: usize, seed: u64) -> Vec<f64> {
        ArrivalProcess::Poisson { rate_qps }.sample_arrivals_us(n, seed)
    }

    #[test]
    fn drains_every_request_and_conserves() {
        let m = model();
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(16, 200.0));
        let arrivals = poisson(100_000.0, 500, 11);
        let r = simulate(&m, &w, &cfg, &arrivals).expect("valid");
        assert_eq!(r.offered, 500);
        assert_eq!(r.completed, 500);
        assert_eq!(r.queued + r.in_flight, 0);
        assert!(r.is_conserved());
        assert_eq!(r.latency.count, 500);
        assert!(r.end_us >= *arrivals.last().expect("nonempty"));
        // No deadline: every completion is within the (infinite) SLA.
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.goodput_qps, r.throughput_qps);
        assert_eq!(r.shed_rate, 0.0);
        assert_eq!(r.outcomes.completed, 500);
        assert_eq!(r.outcomes.total(), r.arrived);
    }

    #[test]
    fn horizon_leaves_work_behind_but_conserves() {
        let m = model();
        let w = Workload::facebook();
        let arrivals = poisson(400_000.0, 800, 13);
        let mid = arrivals[400];
        let cfg =
            SimConfig::new(DesignPoint::Pmem, 2, BatchPolicy::new(16, 200.0)).with_horizon(mid);
        let r = simulate(&m, &w, &cfg, &arrivals).expect("valid");
        assert!(r.completed < r.offered, "horizon must cut work off");
        assert!(r.arrived < r.offered);
        assert!(r.is_conserved());
        assert_eq!(r.end_us, mid);
        // Cut-off requests carry the typed outcome; not-arrived carry none.
        let cut = r
            .records
            .iter()
            .filter(|rec| rec.outcome == Some(RequestOutcome::InFlightAtHorizon))
            .count();
        assert_eq!(cut, r.outcomes.in_flight_at_horizon);
        assert!(r.records[r.offered - 1].outcome.is_none());
    }

    /// A horizon cuts the run iff some timer of the every-timer loop lies
    /// past it, also a deadline or flush this loop drops or never arms.
    /// 200 arrivals 5 µs apart all complete by 1.38 ms, but their 3 ms
    /// deadlines still make a 2 ms horizon the end of the run. The pins
    /// are the every-timer loop's values.
    #[test]
    fn horizon_counts_the_timers_the_loop_skips() {
        let m = model();
        let w = Workload::facebook();
        let arrivals: Vec<f64> = (0..200).map(|i| 5.0 * f64::from(i)).collect();
        for (horizon_us, end_us, qps, completed) in [
            (1_200.0, 1_200.0, 160_000.0, 192),
            (2_000.0, 2_000.0, 100_000.0, 200),
            (
                5_000.0,
                1_377.730_702_096_236_7,
                145_166.250_338_834_13,
                200,
            ),
        ] {
            let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0))
                .with_retry(RetryPolicy::none().with_deadline(3_000.0))
                .with_horizon(horizon_us);
            let r = simulate(&m, &w, &cfg, &arrivals).expect("valid");
            assert_eq!(r.end_us, end_us, "horizon {horizon_us}");
            assert_eq!(r.throughput_qps, qps, "horizon {horizon_us}");
            assert_eq!(r.completed, completed, "horizon {horizon_us}");
        }
    }

    #[test]
    fn deterministic_per_inputs() {
        let m = model();
        let w = Workload::youtube();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(32, 300.0));
        let arrivals = poisson(80_000.0, 400, 21);
        let a = simulate(&m, &w, &cfg, &arrivals).expect("valid");
        let b = simulate(&m, &w, &cfg, &arrivals).expect("valid");
        assert_eq!(a, b, "same inputs must replay bit-identically");
    }

    #[test]
    fn record_times_are_ordered_and_batches_bounded() {
        let m = model();
        let w = Workload::ncf();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 3, BatchPolicy::new(8, 150.0));
        let r = simulate(&m, &w, &cfg, &poisson(150_000.0, 300, 5)).expect("valid");
        for rec in &r.records {
            let c = rec.completion.expect("drained run completes everything");
            assert!(c.dispatch_us >= rec.arrival_us);
            assert!(c.finish_us > c.dispatch_us);
            assert!(c.batch_size.get() <= 8);
            assert!(c.gpu < 3);
        }
        assert!(r.batches.batches > 0);
        assert!(r.batches.mean_occupancy >= 1.0);
        assert!(r.batches.mean_occupancy <= 8.0);
    }

    #[test]
    fn gpu_serves_one_batch_at_a_time() {
        let m = model();
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Pmem, 2, BatchPolicy::new(16, 100.0));
        let r = simulate(&m, &w, &cfg, &poisson(200_000.0, 400, 7)).expect("valid");
        // Per GPU, batch service intervals must not overlap.
        for gpu in 0..2 {
            let mut intervals: Vec<(f64, f64)> = r
                .records
                .iter()
                .filter_map(|rec| rec.completion)
                .filter(|c| c.gpu == gpu)
                .map(|c| (c.dispatch_us, c.finish_us))
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            intervals.dedup();
            for w in intervals.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-6,
                    "gpu {gpu} overlaps: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn tdimm_tail_beats_pmem_under_identical_traffic() {
        let m = model();
        let w = Workload::facebook();
        let arrivals = poisson(120_000.0, 600, 31);
        let policy = BatchPolicy::new(32, 300.0);
        let t = simulate(
            &m,
            &w,
            &SimConfig::new(DesignPoint::Tdimm, 8, policy),
            &arrivals,
        )
        .expect("valid");
        let p = simulate(
            &m,
            &w,
            &SimConfig::new(DesignPoint::Pmem, 8, policy),
            &arrivals,
        )
        .expect("valid");
        assert!(
            t.latency.p99_us < p.latency.p99_us,
            "TDIMM p99 {} vs PMEM p99 {}",
            t.latency.p99_us,
            p.latency.p99_us
        );
    }

    /// Fixed-cost pricer for constructing exact timestamp collisions.
    struct ConstPricer(f64);

    impl tensordimm_system::BatchPricer for ConstPricer {
        fn price(
            &self,
            _workload: &Workload,
            _batch: usize,
            _design: DesignPoint,
            active_gpus: usize,
        ) -> Result<tensordimm_system::BatchCost, InterconnectError> {
            if active_gpus == 0 {
                return Err(InterconnectError::InvalidLink {
                    parameter: "active_gpus",
                });
            }
            Ok(tensordimm_system::BatchCost {
                service_us: self.0,
                port_bound: false,
            })
        }

        fn backend(&self) -> tensordimm_system::PricingBackend {
            tensordimm_system::PricingBackend::Analytic
        }
    }

    /// Colliding timestamps: an arrival lands exactly on a batch-window
    /// expiry, and a GPU completion lands exactly on a later arrival. The
    /// documented tie order (GpuDone, then Arrival, then Flush) must hold
    /// and the whole run must be bit-identical across replays —
    /// independent of heap internals.
    #[test]
    fn colliding_events_are_ordered_deterministically() {
        let w = Workload::facebook();
        // One GPU, 100 µs service, 100 µs batch window, batches of <= 4.
        let cfg = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(4, 100.0));
        let arrivals = [0.0, 100.0, 200.0];
        let pricer = ConstPricer(100.0);
        let r = simulate_with_pricer(&w, &cfg, &arrivals, &pricer).expect("valid");

        let c0 = r.records[0].completion.expect("drained");
        let c1 = r.records[1].completion.expect("drained");
        let c2 = r.records[2].completion.expect("drained");
        // t=100: request 1 arrives (rank 2) exactly when request 0's
        // window expires (rank 4): the arrival is admitted first, so it
        // joins the flushed batch — {0, 1} dispatches together at 100.
        assert_eq!(
            (c0.dispatch_us, c0.finish_us, c0.batch_size.get()),
            (100.0, 200.0, 2)
        );
        assert_eq!(
            (c1.dispatch_us, c1.finish_us, c1.batch_size.get()),
            (100.0, 200.0, 2)
        );
        // t=200: batch {0, 1} completes (rank 0) exactly as request 2
        // arrives (rank 2); request 2 then waits out its own window and
        // dispatches alone at 300.
        assert_eq!(
            (c2.dispatch_us, c2.finish_us, c2.batch_size.get()),
            (300.0, 400.0, 1)
        );

        // Bit-identical replay, collisions and all.
        let again = simulate_with_pricer(&w, &cfg, &arrivals, &pricer).expect("valid");
        assert_eq!(r, again);
    }

    /// Concurrency-sensitive pricer exposing the GpuDone-before-Arrival
    /// tie rule: service time scales with how many GPUs are active at
    /// dispatch.
    struct ActiveScaledPricer(f64);

    impl tensordimm_system::BatchPricer for ActiveScaledPricer {
        fn price(
            &self,
            _workload: &Workload,
            _batch: usize,
            _design: DesignPoint,
            active_gpus: usize,
        ) -> Result<tensordimm_system::BatchCost, InterconnectError> {
            Ok(tensordimm_system::BatchCost {
                service_us: self.0 * active_gpus as f64,
                port_bound: false,
            })
        }

        fn backend(&self) -> tensordimm_system::PricingBackend {
            tensordimm_system::PricingBackend::Analytic
        }
    }

    /// A batch completing at the exact instant a request arrives must
    /// release its GPU *before* the arrival dispatches: the new batch is
    /// priced at solo concurrency, not as if it overlapped the batch that
    /// just finished.
    #[test]
    fn gpu_completion_frees_capacity_before_same_instant_dispatch() {
        let w = Workload::youtube();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(1, 0.0));
        // Request 0 runs over [0, 100) at active=1. Request 1 arrives at
        // exactly 100: the completion is processed first, so request 1
        // also dispatches at active=1 and takes 100 µs — were arrivals
        // processed first it would be priced at active=2 (200 µs).
        let arrivals = [0.0, 100.0];
        let pricer = ActiveScaledPricer(100.0);
        let r = simulate_with_pricer(&w, &cfg, &arrivals, &pricer).expect("valid");
        let c1 = r.records[1].completion.expect("drained");
        assert_eq!(c1.dispatch_us, 100.0);
        assert_eq!(
            c1.finish_us, 200.0,
            "same-instant dispatch must be priced after the GPU freed"
        );
    }

    #[test]
    fn cycle_backend_is_deterministic_and_selectable() {
        let m = model();
        let w = Workload::youtube();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(8, 200.0))
            .with_pricing(tensordimm_system::PricingBackend::CycleCalibrated);
        assert_eq!(
            cfg.pricing,
            tensordimm_system::PricingBackend::CycleCalibrated
        );
        let arrivals = poisson(60_000.0, 60, 17);
        let a = simulate(&m, &w, &cfg, &arrivals).expect("valid");
        let b = simulate(&m, &w, &cfg, &arrivals).expect("valid");
        assert_eq!(a, b, "cycle-calibrated runs must replay bit-identically");
        assert_eq!(a.completed, 60);
        // And it genuinely prices differently from the analytic backend
        // (the cycle replay measures, it does not echo the constants).
        let analytic = simulate(
            &m,
            &w,
            &SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(8, 200.0)),
            &arrivals,
        )
        .expect("valid");
        assert_ne!(
            a.latency.p99_us, analytic.latency.p99_us,
            "backends should not be bit-equal on node designs"
        );
    }

    #[test]
    fn fabric_transfer_backend_is_selectable_and_close_to_analytic() {
        let m = model();
        let w = Workload::facebook();
        let arrivals = poisson(120_000.0, 200, 23);
        let base = SimConfig::new(DesignPoint::Pmem, 4, BatchPolicy::new(16, 200.0));
        let analytic = simulate(&m, &w, &base, &arrivals).expect("valid");
        let fabric_model = m
            .clone()
            .with_transfer(TransferBackend::Fabric(TopologyKind::FullyConnected));
        let fabric = simulate(&fabric_model, &w, &base, &arrivals).expect("valid");
        assert_eq!(fabric.completed, 200);
        // Same crossbar, measured instead of closed-form: tails agree
        // loosely, and the run stays deterministic.
        let rel = (fabric.latency.p99_us - analytic.latency.p99_us).abs() / analytic.latency.p99_us;
        assert!(
            rel < 0.15,
            "fabric p99 {} vs analytic p99 {}",
            fabric.latency.p99_us,
            analytic.latency.p99_us
        );
        let again = simulate(&fabric_model, &w, &base, &arrivals).expect("valid");
        assert_eq!(fabric, again);
    }

    #[test]
    fn empty_trace_is_a_quiet_no_op() {
        let m = model();
        let w = Workload::fox();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(4, 50.0));
        let r = simulate(&m, &w, &cfg, &[]).expect("valid");
        assert_eq!(r.offered, 0);
        assert_eq!(r.completed, 0);
        assert!(r.is_conserved());
        assert_eq!(r.throughput_qps, 0.0);
        assert_eq!(r.availability, 1.0, "no arrivals: vacuously available");
        assert_eq!(r.shed_rate, 0.0);
    }

    #[test]
    fn bad_inputs_rejected() {
        let m = model();
        let w = Workload::fox();
        let good = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(4, 50.0));
        assert!(matches!(
            simulate(&m, &w, &SimConfig { gpus: 0, ..good }, &[]),
            Err(SimError::InvalidConfig { parameter: "gpus" })
        ));
        assert!(matches!(
            simulate(
                &m,
                &w,
                &SimConfig {
                    policy: BatchPolicy::new(0, 50.0),
                    ..good
                },
                &[]
            ),
            Err(SimError::InvalidConfig {
                parameter: "max_batch"
            })
        ));
        // Completion records store GPU indices and batch sizes as `u32`:
        // wider knobs are typed errors, not a panic mid-run.
        let too_wide = u32::MAX as usize + 1;
        assert!(matches!(
            simulate(
                &m,
                &w,
                &SimConfig {
                    gpus: too_wide,
                    ..good
                },
                &[0.0]
            ),
            Err(SimError::InvalidConfig { parameter: "gpus" })
        ));
        assert!(matches!(
            simulate(
                &m,
                &w,
                &SimConfig {
                    policy: BatchPolicy::new(too_wide, 50.0),
                    ..good
                },
                &[0.0]
            ),
            Err(SimError::InvalidConfig {
                parameter: "max_batch"
            })
        ));
        assert!(matches!(
            simulate(&m, &w, &good.with_horizon(f64::NAN), &[]),
            Err(SimError::InvalidConfig {
                parameter: "horizon_us"
            })
        ));
        assert!(matches!(
            simulate(&m, &w, &good, &[5.0, 3.0]),
            Err(SimError::BadArrival { index: 1 })
        ));
        assert!(matches!(
            simulate(&m, &w, &good, &[-1.0]),
            Err(SimError::BadArrival { index: 0 })
        ));
        assert!(!SimError::InvalidConfig { parameter: "gpus" }
            .to_string()
            .is_empty());
        // Fault-plan and policy knobs are validated through the config.
        assert!(matches!(
            simulate(
                &m,
                &w,
                &good.with_faults(FaultPlan::dimm_faults(1, 2.0)),
                &[]
            ),
            Err(SimError::InvalidConfig {
                parameter: "dimm_fault_rate"
            })
        ));
        assert!(matches!(
            simulate(
                &m,
                &w,
                &good.with_retry(RetryPolicy::none().with_deadline(0.0)),
                &[]
            ),
            Err(SimError::InvalidConfig {
                parameter: "deadline_us"
            })
        ));
        assert!(matches!(
            simulate(
                &m,
                &w,
                &good.with_admission(AdmissionPolicy {
                    max_queue_depth: 0,
                    shed_expired: false
                }),
                &[]
            ),
            Err(SimError::InvalidConfig {
                parameter: "max_queue_depth"
            })
        ));
        // The model's Zipf skew is a typed error at both entry points that
        // take the model, not a panic when the first rows are drawn (NaN,
        // +∞) or a silent switch to uniform rows (negative); `0.0` spells
        // uniform rows and stays accepted.
        let with_skew = |zipf_s| {
            let mut config = tensordimm_system::SystemModelConfig::paper_defaults();
            config.zipf_s = zipf_s;
            SystemModel::new(config)
        };
        let cpu = SimConfig::new(DesignPoint::CpuGpu, 1, BatchPolicy::new(4, 50.0));
        for zipf_s in [f64::NAN, f64::INFINITY, -0.5] {
            let m = with_skew(zipf_s);
            let err: Result<usize, _> = Err(SimError::InvalidConfig {
                parameter: "zipf_s",
            });
            let run = simulate(&m, &w, &cpu, &[0.0]).map(|r| r.completed);
            assert_eq!(run, err, "zipf_s = {zipf_s}");
            let sweep = crate::sweep::offered_load_sweep(&m, &w, &cpu, &[1e4], 4, 1);
            assert_eq!(sweep.map(|p| p.len()), err, "zipf_s = {zipf_s}");
        }
        let uniform = simulate(&with_skew(0.0), &w, &cpu, &[0.0, 1.0]).expect("uniform rows");
        assert_eq!(uniform.completed, 2);
    }

    /// The headline robustness contract: fault/retry/admission machinery
    /// that is armed but never fires must be **bit-identical** to a run
    /// that never heard of it, on both pricing backends. (The plans here
    /// are deliberately *non-inert* objects whose events all fall outside
    /// the run — exercising the full scheduling/admission code path.)
    #[test]
    fn latent_fault_machinery_is_bit_identical() {
        let m = model();
        let w = Workload::facebook();
        let arrivals = poisson(150_000.0, 400, 41);
        for pricing in [PricingBackend::Analytic, PricingBackend::CycleCalibrated] {
            let plain = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(16, 200.0))
                .with_pricing(pricing);
            let latent = plain
                // Outage far beyond the last arrival: scheduled, never fires.
                .with_faults(FaultPlan::none().with_node_outage(NodeOutage {
                    start_us: 1e12,
                    duration_us: 1.0,
                }))
                // Retries allowed but the unbounded queue never rejects.
                .with_retry(RetryPolicy::none().with_retries(3, 100.0, 1_000.0))
                // Bounded far above any realizable depth; shed_expired is
                // moot without a deadline.
                .with_admission(AdmissionPolicy::bounded(1_000_000));
            let a = simulate(&m, &w, &plain, &arrivals).expect("valid");
            let b = simulate(&m, &w, &latent, &arrivals).expect("valid");
            assert_eq!(
                a.records, b.records,
                "latent fault machinery must not perturb {pricing:?}"
            );
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.end_us, b.end_us);
            assert_eq!(a.queue, b.queue);
            assert_eq!(a.batches, b.batches);
        }
    }

    /// A node outage holds dispatch (in-flight work finishes) and the
    /// repair transition releases the held queue.
    #[test]
    fn node_outage_holds_dispatch_until_repair() {
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(1, 0.0)).with_faults(
            FaultPlan::none().with_node_outage(NodeOutage {
                start_us: 25.0,
                duration_us: 100.0,
            }),
        );
        let pricer = ConstPricer(10.0);
        // Request 0 dispatches healthy at t=0, finishes at 10. Request 1
        // arrives at 50 — mid-outage — and must wait for the repair at
        // 125 even though the GPU is free.
        let r = simulate_with_pricer(&w, &cfg, &[0.0, 50.0], &pricer).expect("valid");
        let c0 = r.records[0].completion.expect("healthy dispatch");
        let c1 = r.records[1].completion.expect("released by repair");
        assert_eq!((c0.dispatch_us, c0.finish_us), (0.0, 10.0));
        assert_eq!(
            (c1.dispatch_us, c1.finish_us),
            (125.0, 135.0),
            "queued arrival must dispatch at the repair instant"
        );
        assert!(r.is_conserved());
        let again = simulate_with_pricer(&w, &cfg, &[0.0, 50.0], &pricer).expect("valid");
        assert_eq!(r, again);
    }

    /// Gray ranks and rank loss degrade real-pricer service times; the
    /// run still conserves and replays bit-identically.
    #[test]
    fn degraded_node_inflates_latency_but_conserves() {
        let m = model();
        let w = Workload::youtube();
        let arrivals = poisson(100_000.0, 300, 19);
        let base = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(16, 200.0));
        let healthy = simulate(&m, &w, &base, &arrivals).expect("valid");
        let gray = base.with_faults(FaultPlan {
            gray: Some(GrayRank {
                start_us: 0.0,
                duration_us: 1e9,
                latency_multiplier: 3.0,
            }),
            ..FaultPlan::none()
        });
        let g = simulate(&m, &w, &gray, &arrivals).expect("valid");
        assert!(
            g.latency.mean_us > healthy.latency.mean_us,
            "gray {} vs healthy {}",
            g.latency.mean_us,
            healthy.latency.mean_us
        );
        assert!(g.is_conserved());
        assert_eq!(g.completed, 300, "gray slows but loses nothing");
        // Heavy rank loss also slows node designs without losing work.
        let faulty = base.with_faults(FaultPlan::dimm_faults(5, 1.0));
        let f = simulate(&m, &w, &faulty, &arrivals).expect("valid");
        assert!(f.is_conserved());
        assert_eq!(f.completed, 300);
        assert!(
            f.latency.mean_us >= healthy.latency.mean_us,
            "rank loss cannot speed the node up"
        );
        assert_eq!(
            f,
            simulate(&m, &w, &faulty, &arrivals).expect("valid"),
            "fault-enabled runs replay bit-identically"
        );
        // Transient row faults charge re-read traffic without losing work.
        let rowy = base.with_faults(FaultPlan {
            row_faults: Some(RowFaults {
                every_us: 100.0,
                rows: 512,
            }),
            ..FaultPlan::none()
        });
        let rf = simulate(&m, &w, &rowy, &arrivals).expect("valid");
        assert!(rf.is_conserved());
        assert_eq!(rf.completed, 300);
        assert!(rf.latency.mean_us >= healthy.latency.mean_us);
    }

    /// Deadlines time out queued requests (in-flight work finishes) and
    /// availability judges late completions.
    #[test]
    fn deadline_times_out_queued_requests() {
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(1, 0.0))
            .with_retry(RetryPolicy::none().with_deadline(100.0));
        let pricer = ConstPricer(1000.0);
        // Request 0 occupies the only GPU for [0, 1000); requests 1 and 2
        // sit in queue past their 100 µs deadlines.
        let r = simulate_with_pricer(&w, &cfg, &[0.0, 1.0, 2.0], &pricer).expect("valid");
        assert_eq!(r.completed, 1);
        assert_eq!(r.outcomes.timed_out, 2);
        assert_eq!(r.records[0].outcome, Some(RequestOutcome::Completed));
        assert_eq!(r.records[1].outcome, Some(RequestOutcome::TimedOut));
        assert_eq!(r.records[2].outcome, Some(RequestOutcome::TimedOut));
        assert!(r.is_conserved());
        // The lone completion took 1000 µs against a 100 µs SLA.
        assert_eq!(r.availability, 0.0);
        assert_eq!(r.goodput_qps, 0.0);
        assert!(r.throughput_qps > 0.0);
        // A looser SLA judged after the fact sees the completion.
        assert!(r.availability_at(1e6) > 0.0);
    }

    /// A bounded queue sheds when retries are exhausted and re-admits
    /// (with deterministic backoff) when they are not.
    #[test]
    fn bounded_queue_sheds_or_retries() {
        let w = Workload::facebook();
        let pricer = ConstPricer(100.0);
        let arrivals = [0.0, 1.0, 2.0];
        let base = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(1, 0.0)).with_admission(
            AdmissionPolicy {
                max_queue_depth: 1,
                shed_expired: false,
            },
        );
        // No retries: the third arrival finds the queue full and is shed.
        let r = simulate_with_pricer(&w, &base, &arrivals, &pricer).expect("valid");
        assert_eq!(r.completed, 2);
        assert_eq!(r.outcomes.shed, 1);
        assert_eq!(r.records[2].outcome, Some(RequestOutcome::Shed));
        assert!((r.shed_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!(r.is_conserved());
        // With a retry budget the rejection re-admits after backoff and
        // the request completes; retries are recorded on the request.
        let retrying = base.with_retry(RetryPolicy::none().with_retries(5, 200.0, 1_000.0));
        let r2 = simulate_with_pricer(&w, &retrying, &arrivals, &pricer).expect("valid");
        assert_eq!(r2.completed, 3);
        assert_eq!(r2.outcomes.shed, 0);
        assert_eq!(r2.retry_pending, 0);
        assert_eq!(r2.records[2].retries, 1);
        assert!(r2.is_conserved());
        let c2 = r2.records[2].completion.expect("readmitted");
        assert!(
            c2.dispatch_us >= 200.0,
            "re-admission waits out the backoff: {}",
            c2.dispatch_us
        );
    }

    /// Hedged duplicates complete their requests exactly once: the first
    /// copy wins, the straggler only frees its GPU.
    #[test]
    fn hedged_duplicates_complete_once() {
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(1, 0.0))
            .with_retry(RetryPolicy::none().with_hedging(50.0));
        let pricer = ConstPricer(100.0);
        let r = simulate_with_pricer(&w, &cfg, &[0.0], &pricer).expect("valid");
        assert_eq!(r.hedge_dispatches, 1, "slow batch hedged to the idle GPU");
        assert_eq!(r.completed, 1, "duplicate copies complete requests once");
        assert_eq!(r.latency.count, 1);
        let c = r.records[0].completion.expect("completed");
        assert_eq!(
            (c.dispatch_us, c.finish_us, c.gpu),
            (0.0, 100.0, 0),
            "original copy wins; hedge (done at 150) only frees its GPU"
        );
        assert!(r.is_conserved());
        assert_eq!(r.end_us, 150.0, "clock runs to the straggler's release");
        // Busy cluster: no free GPU at the hedge instant ⇒ no hedge.
        let r2 = simulate_with_pricer(&w, &cfg, &[0.0, 1.0], &pricer).expect("valid");
        assert_eq!(r2.hedge_dispatches, 0);
        assert_eq!(r2.completed, 2);
        assert!(r2.is_conserved());
    }

    /// The all-shed contract: a sweep point where **every** arrived
    /// request was shed reports availability 0.0 (never NaN — `arrived`
    /// is the denominator), an all-zero latency summary, zero
    /// throughput/goodput, and still conserves. The cluster layer's
    /// availability gates lean on this when a dead shard sheds its whole
    /// sub-trace.
    #[test]
    fn all_shed_point_has_zero_availability_not_nan() {
        let w = Workload::facebook();
        // Node out for the whole run, bounded queue of 1, shed_expired
        // with a deadline: the first arrival fills the queue and times
        // out; everything behind it is shed on arrival. With retries at
        // zero, nothing ever completes.
        let cfg = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(1, 0.0))
            .with_faults(FaultPlan::none().with_node_outage(NodeOutage {
                start_us: 0.0,
                duration_us: 1e9,
            }))
            .with_retry(RetryPolicy::none().with_deadline(10.0))
            .with_admission(AdmissionPolicy {
                max_queue_depth: 1,
                shed_expired: true,
            });
        let pricer = ConstPricer(100.0);
        let r = simulate_with_pricer(&w, &cfg, &[0.0, 1.0, 2.0, 3.0], &pricer).expect("valid");
        assert_eq!(r.completed, 0);
        assert_eq!(r.outcomes.completed, 0);
        assert_eq!(
            r.outcomes.shed + r.outcomes.timed_out,
            4,
            "every arrival resolves without completing: {:?}",
            r.outcomes
        );
        assert!(r.outcomes.shed > 0, "the bounded queue must shed");
        assert!(r.is_conserved());
        assert!(r.outcomes.is_conserved(r.arrived));
        // The contract under test: all-zero statistics, not NaN.
        assert_eq!(r.availability, 0.0);
        assert_eq!(r.availability_at(1e9), 0.0);
        assert!(r.availability.is_finite());
        assert_eq!(r.latency, LatencySummary::default());
        assert_eq!(r.throughput_qps, 0.0);
        assert_eq!(r.goodput_qps, 0.0);
        assert!(r.shed_rate > 0.0 && r.shed_rate.is_finite());
    }

    /// Arrivals stream from the trace, so the timer queues hold only live
    /// timers: at a fixed offered load their peak tracks the deadline
    /// window, not the trace length. On this serving configuration (the
    /// benchmark's `node_warm`) only GPU completions vary in delay, so
    /// the heap never holds more than one timer per GPU and no timer
    /// falls back from its lane.
    #[test]
    fn timer_heap_peak_does_not_grow_with_the_trace() {
        let m = model();
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0))
            .with_retry(RetryPolicy::none().with_deadline(2_000.0))
            .with_admission(AdmissionPolicy::bounded(256));
        let pricer = cfg.pricing.build(&m);
        let peak = |n| {
            let arrivals = poisson(300_000.0, n, 3);
            let (report, timers) =
                run_engine(&w, &cfg, &arrivals, pricer.as_ref(), TimerRouting::Lanes)
                    .expect("valid");
            assert_eq!(report.completed, n);
            assert!(
                timers.peak_heap <= cfg.gpus,
                "heap peak {} over {} GPUs",
                timers.peak_heap,
                cfg.gpus
            );
            assert!(timers.peak_lanes > 0);
            assert_eq!(timers.fallbacks, 0);
            timers.peak_live
        };
        let (small, large) = (peak(10_000), peak(200_000));
        assert!(small > 0 && small < 10_000, "peak {small} for 10k requests");
        assert!(
            large <= 2 * small,
            "peak live timers grew from {small} (10k requests) to {large} (200k)"
        );
    }

    /// A shard of the benchmark's `cluster_faults` cluster: seeded DIMM
    /// faults, deadlines, backoff retries and hedging under bursty load at
    /// about one shard's sub-request rate. Every flush, deadline, hedge and
    /// fault timer is armed in pop order, so none falls back to the heap,
    /// which holds only completions and re-admissions.
    #[test]
    fn fault_shard_timers_never_fall_back_to_the_heap() {
        let m = model();
        let w = Workload::facebook();
        let mut faults = FaultPlan::dimm_faults(0x5eed, 1.0).for_node(2);
        faults.dimms = 4;
        faults.dimm_candidate_gap_us = 2_000.0;
        faults.dimm_repair_us = 2_500.0;
        let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0))
            .with_faults(faults)
            .with_retry(
                RetryPolicy::none()
                    .with_deadline(3_000.0)
                    .with_retries(2, 100.0, 1_000.0)
                    .with_hedging(500.0),
            )
            .with_admission(AdmissionPolicy::bounded(256));
        let arrivals = ArrivalProcess::Bursty {
            rate_qps: 450_000.0,
            mean_burst: 4.0,
        }
        .sample_arrivals_us(20_000, 3);
        let pricer = cfg.pricing.build(&m);
        let (report, timers) =
            run_engine(&w, &cfg, &arrivals, pricer.as_ref(), TimerRouting::Lanes).expect("valid");
        assert!(report.hedge_dispatches > 0);
        assert!(report.records.iter().any(|r| r.retries > 0));
        assert_eq!(timers.fallbacks, 0);
        assert!(timers.peak_lanes > timers.peak_heap);
        assert_eq!(work(timers), (22_462, 99, 746, 770, 2_462));
    }

    /// The loop's deterministic work counters: events popped, the peak
    /// heap, lane and live timer counts, and full scans of the timer heads.
    fn work(timers: TimerStats) -> (usize, usize, usize, usize, usize) {
        (
            timers.popped,
            timers.peak_heap,
            timers.peak_lanes,
            timers.peak_live,
            timers.scans,
        )
    }

    /// The loop handles about one event per request on the benchmark's
    /// `node_warm` shape: each arrival, plus one flush and one GPU
    /// completion per batch of ~32. The every-timer loop also pops a flush
    /// and a deadline per request, about three events per request. The
    /// lanes scan the timer heads only after a timer pops or a settled
    /// deadline leaves the head; the every-timer loop merges at every pop.
    #[test]
    fn node_loop_handles_about_one_event_per_request() {
        let m = model();
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0))
            .with_retry(RetryPolicy::none().with_deadline(2_000.0))
            .with_admission(AdmissionPolicy::bounded(256));
        let pricer = cfg.pricing.build(&m);
        let n = 20_000;
        let arrivals = poisson(300_000.0, n, 3);
        // (popped, peak_heap, peak_lanes, peak_live, scans) of each routing.
        for (routing, pinned) in [
            (TimerRouting::Lanes, (21_250, 4, 131, 135, 1_251)),
            (TimerRouting::HeapOnly, (60_625, 782, 0, 782, 60_626)),
        ] {
            let (report, timers) =
                run_engine(&w, &cfg, &arrivals, pricer.as_ref(), routing).expect("valid");
            assert_eq!(report.completed, n);
            assert_eq!(work(timers), pinned, "{routing:?}");
            let per_request = timers.popped as f64 / n as f64;
            match routing {
                TimerRouting::Lanes => assert!(per_request <= 1.2, "{per_request} per request"),
                TimerRouting::HeapOnly => {
                    assert!(
                        per_request >= 2.9,
                        "every-timer loop: {per_request} per request"
                    )
                }
            }
        }
    }

    /// A flush seals only a front whose window has ended. Requests 0 and
    /// 1 fill a batch at 1 µs; request 2 arrives 0.5 ps later into the
    /// empty queue. Request 1's flush at 301 µs seals nothing, and request
    /// 2 waits out its own window to 301.0000005 µs, in this loop and in
    /// the every-timer loop alike.
    #[test]
    fn sub_picosecond_arrival_waits_out_its_own_window() {
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(2, 300.0));
        let arrivals = [0.0, 1.0, 1.0 + 0.5e-6];
        let run = |routing| {
            run_engine(&w, &cfg, &arrivals, &ConstPricer(10.0), routing)
                .expect("valid")
                .0
        };
        let (lanes, oracle) = (run(TimerRouting::Lanes), run(TimerRouting::HeapOnly));
        let sealed = lanes.records[2].completion.expect("completed");
        assert_eq!(sealed.dispatch_us, arrivals[2] + 300.0);
        assert!(sealed.dispatch_us > 301.0);
        assert_eq!(oracle_depth(lanes, &oracle), oracle);
    }

    /// `lanes` with its `queue.mean_depth` checked against the every-timer
    /// oracle's (1e-12 relative; the integral is split at fewer instants)
    /// and then copied from it, so the rest compares bit for bit.
    fn oracle_depth(mut lanes: SimReport, oracle: &SimReport) -> SimReport {
        let (depth, want) = (lanes.queue.mean_depth, oracle.queue.mean_depth);
        assert!(
            (depth - want).abs() <= 1e-12 * want.abs(),
            "mean depth {depth} vs {want}"
        );
        lanes.queue.mean_depth = want;
        lanes
    }

    /// A pricer whose service times sit on the 25 µs arrival grid, so
    /// completions collide with arrivals and every kind of timer.
    struct GridPricer;

    impl tensordimm_system::BatchPricer for GridPricer {
        fn price(
            &self,
            _workload: &Workload,
            batch: usize,
            _design: DesignPoint,
            active_gpus: usize,
        ) -> Result<tensordimm_system::BatchCost, InterconnectError> {
            Ok(tensordimm_system::BatchCost {
                service_us: grid(1 + ((batch + active_gpus) % 4) as u32),
                port_bound: false,
            })
        }

        fn backend(&self) -> tensordimm_system::PricingBackend {
            tensordimm_system::PricingBackend::Analytic
        }
    }

    /// `k` steps of the 25 µs grid.
    fn grid(k: u32) -> f64 {
        25.0 * f64::from(k)
    }

    /// Arrivals on the 25 µs grid; a gap code of 0 or 1 puts two arrivals
    /// at one instant, and code 4 puts arrival `i` 0.3–1.2 ps (varied
    /// with `i`) after the one before it.
    fn grid_trace(gaps: &[u8]) -> Vec<f64> {
        let mut t = 0.0;
        gaps.iter()
            .enumerate()
            .map(|(i, &g)| {
                t += match g {
                    4 => 1e-6 * (0.3 + 0.1 * (i % 10) as f64),
                    _ => grid(u32::from(g.saturating_sub(1))),
                };
                t
            })
            .collect()
    }

    fn maybe<S>(s: S) -> impl Strategy<Value = Option<S::Value>>
    where
        S: Strategy + 'static,
        S::Value: Clone + 'static,
    {
        prop_oneof![Just(None), s.prop_map(Some)]
    }

    fn any_bool() -> impl Strategy<Value = bool> {
        (0u8..2).prop_map(|b| b == 1)
    }

    /// Configs whose every timer lands on the 25 µs grid: batch windows,
    /// deadlines (sometimes equal to the window), backoff retries,
    /// hedging, DIMM faults, node outages, gray windows, row faults and
    /// horizon cuts.
    fn arb_lane_config() -> impl Strategy<Value = SimConfig> {
        let policy = (1usize..9, 0u32..8).prop_map(|(b, w)| BatchPolicy::new(b, grid(w)));
        // No deadline, one equal to the batch window, or one on the grid.
        let deadline = prop_oneof![
            Just(None),
            Just(Some(None)),
            (1u32..20).prop_map(|k| Some(Some(k)))
        ];
        let retries = (0u32..3, 1u32..8, 1u32..40, any_bool());
        let hedge = maybe(1u32..12);
        let faults = (
            maybe((0u64..1_000, 1u64..6, 2u32..40, 1u32..40)),
            maybe((0u32..200, 1u32..100)),
            maybe((0u32..200, 1u32..100)),
            maybe(1u32..20),
        );
        let admission = (1usize..24, any_bool());
        let horizon = maybe(1u32..400);
        let knobs = (
            (1usize..5, policy),
            deadline,
            retries,
            hedge,
            faults,
            admission,
            horizon,
        );
        knobs.prop_map(
            |((gpus, policy), deadline, retries, hedge, faults, admission, horizon)| {
                let mut retry = RetryPolicy::none();
                match deadline {
                    // A zero window has no equal deadline; use one step.
                    Some(None) => retry = retry.with_deadline(policy.max_wait_us.max(grid(1))),
                    Some(Some(k)) => retry = retry.with_deadline(grid(k)),
                    None => {}
                }
                let (max_retries, base, cap, jitter) = retries;
                if max_retries > 0 {
                    retry = retry.with_retries(max_retries, grid(base), grid(base + cap));
                    if !jitter {
                        retry.jitter_frac = 0.0;
                    }
                }
                if let Some(k) = hedge {
                    retry = retry.with_hedging(grid(k));
                }
                let (dimm, outage, gray, rows) = faults;
                let mut plan = FaultPlan::none();
                if let Some((seed, dimms, gap, repair)) = dimm {
                    plan = FaultPlan::dimm_faults(seed, 0.8);
                    plan.dimms = dimms;
                    plan.dimm_candidate_gap_us = grid(gap);
                    plan.dimm_repair_us = grid(repair);
                }
                if let Some((start, len)) = outage {
                    plan = plan.with_node_outage(NodeOutage {
                        start_us: grid(start),
                        duration_us: grid(len),
                    });
                }
                if let Some((start, len)) = gray {
                    plan.gray = Some(GrayRank {
                        start_us: grid(start),
                        duration_us: grid(len),
                        latency_multiplier: 2.0,
                    });
                }
                if let Some(every) = rows {
                    plan.row_faults = Some(RowFaults {
                        every_us: grid(every),
                        rows: 16,
                    });
                }
                let (max_queue_depth, shed_expired) = admission;
                let mut cfg = SimConfig::new(DesignPoint::Tdimm, gpus, policy)
                    .with_retry(retry)
                    .with_faults(plan)
                    .with_admission(AdmissionPolicy {
                        max_queue_depth,
                        shed_expired,
                    });
                if let Some(k) = horizon {
                    cfg = cfg.with_horizon(grid(k));
                }
                cfg
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lanes reproduce the every-timer, single-heap oracle: the
        /// whole report, records included, is bit-identical whether the
        /// loop arms a flush per admission and pops every deadline or only
        /// the timers that can act, and whether the next event is chosen
        /// by the cached head's key or by `Ord`. Only the queue-depth
        /// integral, split at fewer instants, may differ by float
        /// re-association.
        #[test]
        fn lanes_match_the_heap_only_oracle(
            cfg in arb_lane_config(),
            gaps in prop::collection::vec(0u8..5, 1..400),
            analytic in any_bool(),
            negative_zero in any_bool(),
        ) {
            let w = Workload::facebook();
            let mut arrivals = grid_trace(&gaps);
            if negative_zero {
                // A valid trace may start at −0.0, which orders before
                // every timer at +0.0.
                arrivals[0] = -0.0;
            }
            let m = model();
            let pricer: Box<dyn BatchPricer + '_> = if analytic {
                cfg.pricing.build(&m)
            } else {
                Box::new(GridPricer)
            };
            let run = |routing| run_engine(&w, &cfg, &arrivals, pricer.as_ref(), routing);
            let (lanes, timers) = run(TimerRouting::Lanes).expect("valid");
            let (oracle, every) = run(TimerRouting::HeapOnly).expect("valid");
            prop_assert_eq!(timers.fallbacks, 0);
            prop_assert!(timers.popped <= every.popped);
            prop_assert_eq!(oracle_depth(lanes, &oracle), oracle);
        }
    }

    /// A NaN SLA would silently judge every completion late; the report
    /// refuses it loudly instead (infinity is the "no SLA" spelling).
    #[test]
    #[should_panic(expected = "NaN SLA")]
    fn availability_at_rejects_nan_sla() {
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(1, 0.0));
        let r = simulate_with_pricer(&w, &cfg, &[0.0], &ConstPricer(10.0)).expect("valid");
        let _ = r.availability_at(f64::NAN);
    }
}
