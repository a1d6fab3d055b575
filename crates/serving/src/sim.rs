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
//! Arrivals stream from the sorted trace through a cursor and merge with a
//! heap that holds only live timers (completions, fault transitions,
//! flushes, retry fires) under that same (time, kind, creation order)
//! order, so the heap stays about as large as one deadline window's worth
//! of timers however long the trace is. This ordering is part of the
//! simulator's contract: it never depends on heap internals, so
//! [`simulate`] is bit-identical for identical inputs even with colliding
//! timestamps (see the regression tests and the record-digest pins).
//!
//! Everything is deterministic: same model, configuration, fault plan,
//! policies, pricing backend and arrival trace ⇒ bit-identical
//! [`SimReport`]. The loop still *processes* timer events that trail the
//! last request-state change (deadline fires for already-completed
//! requests, batch-window flushes of already-dispatched requests, fault
//! repairs after the last completion), but they do not move
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

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::error::Error;
use std::fmt;

use tensordimm_faults::{FaultError, FaultPlan, FaultState, Transition};
use tensordimm_interconnect::InterconnectError;
use tensordimm_models::Workload;
use tensordimm_system::{
    BatchPricer, DegradedNode, DesignPoint, HotRowCacheConfig, PricingBackend, SystemModel,
    TransferBackend,
};

use crate::batcher::{BatchPolicy, DynamicBatcher, QueuedRequest, TIMER_SLACK_US};
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
    /// Hot-row cache tier in front of the cycle backend's gather replays
    /// (disabled by default; the analytic backend ignores it — see
    /// [`PricingBackend::build_with_hot_rows`]).
    pub hot_rows: HotRowCacheConfig,
    /// Optional cutoff, µs: events after this virtual time are not
    /// processed, leaving requests queued / in flight for conservation
    /// accounting. `None` runs until every request completes.
    pub horizon_us: Option<f64>,
    /// Override the model's contended-transfer engine for this run
    /// (`None` inherits whatever the [`SystemModel`] is configured with,
    /// so a fabric-configured model is not silently reverted). Ignored by
    /// [`simulate_with_pricer`], whose caller owns the pricer.
    pub transfer: Option<TransferBackend>,
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
            hot_rows: HotRowCacheConfig::disabled(),
            horizon_us: None,
            transfer: None,
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

    /// Put a hot-row cache in front of the cycle backend's gather
    /// replays (no effect under the analytic backend).
    pub fn with_hot_rows(mut self, hot_rows: HotRowCacheConfig) -> Self {
        self.hot_rows = hot_rows;
        self
    }

    /// Price contended node → GPU transfers on this fabric layout (the
    /// analytic crossbar or a topology) instead of the model's configured
    /// one.
    pub fn with_transfer(mut self, transfer: TransferBackend) -> Self {
        self.transfer = Some(transfer);
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

    /// The model a run under this configuration prices against:
    /// `transfer` overrides `model`'s contended-transfer engine (cloning
    /// only when they actually differ); `None` inherits the model's own.
    pub fn pricing_model<'a>(&self, model: &'a SystemModel) -> Cow<'a, SystemModel> {
        match self.transfer {
            Some(t) if t != model.config().transfer => Cow::Owned(model.clone().with_transfer(t)),
            _ => Cow::Borrowed(model),
        }
    }

    /// The pricer [`simulate`] builds over `model` (a
    /// [`SimConfig::pricing_model`]): the `pricing` backend behind the
    /// `hot_rows` tier. Callers that share one pricer across runs build it
    /// here so it prices exactly as a fresh per-run pricer would.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] (`"hot_rows"`) when the cycle
    /// backend rejects the tier.
    pub fn build_pricer<'a>(
        &self,
        model: &'a SystemModel,
    ) -> Result<Box<dyn BatchPricer + 'a>, SimError> {
        self.pricing
            .build_with_hot_rows(model, self.hot_rows)
            .map_err(|_| SimError::InvalidConfig {
                parameter: "hot_rows",
            })
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.gpus == 0 {
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
        self.hot_rows
            .validate()
            .map_err(|_| SimError::InvalidConfig {
                parameter: "hot_rows",
            })?;
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

/// What a [`EventKind::RetryFire`] event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RetryKind {
    /// Re-admit request `id` after its backoff delay (no-op when a
    /// deadline already resolved it).
    Readmit(usize),
    /// Request `id`'s deadline: remove it from the queue or cancel its
    /// pending retry; an in-flight request is left to finish.
    Deadline(usize),
    /// Hedge logical batch `batch` if it is still running on `gpu`:
    /// dispatch a duplicate copy to a free GPU.
    Hedge { gpu: usize, batch: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// Request `id` arrives.
    Arrival(usize),
    /// A batch-window timer fires; seal a partial batch if one expired.
    Flush,
    /// The batch copy on `gpu` completes.
    GpuDone(usize),
    /// Fault state transition (index into the expanded transition list).
    FaultTransition(usize),
    /// A retry/deadline/hedge timer fires.
    RetryFire(RetryKind),
}

impl EventKind {
    /// Same-instant ordering (see the module docs): completions release
    /// their GPU first, fault transitions change the node state next,
    /// arrivals are admitted after that, retry timers run once every
    /// same-instant arrival is in, and the batch-window timer runs last.
    fn tie_rank(&self) -> u8 {
        match self {
            EventKind::GpuDone(_) => 0,
            EventKind::FaultTransition(_) => 1,
            EventKind::Arrival(_) => 2,
            EventKind::RetryFire(_) => 3,
            EventKind::Flush => 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time_us: f64,
    seq: u64,
    kind: EventKind,
}

// Min-heap ordering on (time, kind rank, seq): BinaryHeap is a max-heap,
// so compare reversed. The kind rank makes timestamp collisions follow the
// documented semantics instead of heap/push-order accidents; `seq` breaks
// the remaining ties deterministically (FIFO within a kind).
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time_us
            .total_cmp(&self.time_us)
            .then_with(|| other.kind.tie_rank().cmp(&self.kind.tie_rank()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

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

/// What became of an admission attempt.
enum Admit {
    /// Queued (and dispatch was attempted).
    Accepted,
    /// Deadline already expired at admission; shed immediately.
    Expired,
    /// The queue is full; retry or shed.
    QueueFull,
}

struct Engine<'a> {
    pricer: &'a dyn BatchPricer,
    workload: &'a Workload,
    design: DesignPoint,
    gpus: usize,
    /// The validated, sorted trace; arrivals stream from it by cursor.
    arrivals_us: &'a [f64],
    /// Index of the next arrival not yet handed to the loop.
    next_arrival: usize,
    /// Live timers only (completions, fault transitions, flushes, retry
    /// fires); arrivals never enter it.
    heap: BinaryHeap<Event>,
    /// Largest `heap.len()` so far.
    peak_heap: usize,
    /// Next timer `seq`: arrivals own `0..n`, so timers start at `n`.
    seq: u64,
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
    fn push_event(&mut self, time_us: f64, kind: EventKind) {
        self.heap.push(Event {
            time_us,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
        self.peak_heap = self.peak_heap.max(self.heap.len());
    }

    /// The next event in (time, kind, seq) order: the cursor's arrival
    /// unless the heap's top timer orders first. Arrival `i` carries
    /// `seq = i` (arrivals own `0..n`), so the merge orders every event
    /// exactly as one heap holding them all would.
    fn pop_event(&mut self) -> Option<Event> {
        let i = self.next_arrival;
        let arrival = self.arrivals_us.get(i).map(|&time_us| Event {
            time_us,
            seq: i as u64,
            kind: EventKind::Arrival(i),
        });
        match (arrival, self.heap.peek()) {
            // `Ord` is reversed for the max-heap: greater orders first.
            (Some(a), Some(top)) if *top > a => self.heap.pop(),
            (Some(a), _) => {
                self.next_arrival += 1;
                Some(a)
            }
            (None, _) => self.heap.pop(),
        }
    }

    /// The pricer's view of the current fault state, with `reread_rows`
    /// of transient-fault re-read traffic charged to this batch.
    fn degraded_view(&self, reread_rows: u64) -> DegradedNode {
        DegradedNode {
            dimms_alive: self.state.dimms_alive(),
            dimms_total: self.state.dimms_total(),
            latency_multiplier: self.state.gray_multiplier(),
            reread_rows,
        }
    }

    fn service_us(
        &mut self,
        batch: usize,
        active: usize,
        reread_rows: u64,
    ) -> Result<f64, SimError> {
        let degraded = self.degraded_view(reread_rows);
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
    /// row faults is charged to the first batch of the cohort.
    fn dispatch_ready(&mut self, now_us: f64) -> Result<(), SimError> {
        if !self.state.can_dispatch() {
            return Ok(());
        }
        let mut cohort: Vec<(usize, Vec<QueuedRequest>)> = Vec::new();
        while !self.free_gpus.is_empty() {
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
            self.push_event(now_us + service, EventKind::GpuDone(gpu));
            if self.retry.hedging_enabled() {
                self.push_event(
                    now_us + self.retry.hedge_after_us,
                    EventKind::RetryFire(RetryKind::Hedge { gpu, batch: id }),
                );
            }
        }
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
        let size = self
            .batches
            .get(&batch)
            .map(|b| b.requests.len())
            .unwrap_or(0);
        if size == 0 {
            return Ok(());
        }
        let hedge_gpu = self.free_gpus.pop().expect("checked nonempty");
        let active = self.gpus - self.free_gpus.len();
        match self.service_us(size, active, 0) {
            Ok(service) => {
                let b = self
                    .batches
                    .get_mut(&batch)
                    .expect("in-flight batch exists");
                b.copies += 1;
                self.in_flight[hedge_gpu] = Some(batch);
                self.hedge_dispatches += 1;
                self.push_event(now_us + service, EventKind::GpuDone(hedge_gpu));
                Ok(())
            }
            Err(e) => {
                self.free_gpus.push(hedge_gpu);
                Err(e)
            }
        }
    }

    /// Run the admission policy for request `id` (fresh arrival or
    /// backoff re-admission) at `now_us`. On acceptance the request is
    /// queued, its flush timer armed, and dispatch attempted.
    fn admit(&mut self, now_us: f64, id: usize, arrival_us: f64) -> Result<Admit, SimError> {
        if self.admission.shed_expired && self.retry.deadline_enabled() {
            let deadline = arrival_us + self.retry.deadline_us;
            if now_us + TIMER_SLACK_US >= deadline {
                return Ok(Admit::Expired);
            }
        }
        if self.batcher.depth() >= self.admission.max_queue_depth {
            return Ok(Admit::QueueFull);
        }
        self.batcher.push(QueuedRequest {
            id,
            arrival_us: now_us,
        });
        let max_wait_us = self.batcher.policy().max_wait_us;
        self.push_event(now_us + max_wait_us, EventKind::Flush);
        self.dispatch_ready(now_us)?;
        Ok(Admit::Accepted)
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
/// fault-plan, policy and hot-row-tier knobs), [`SimError::BadArrival`] for an
/// unsorted/non-finite trace, and [`SimError::Pricing`] if the system
/// model rejects a batch.
pub fn simulate(
    model: &SystemModel,
    workload: &Workload,
    cfg: &SimConfig,
    arrivals_us: &[f64],
) -> Result<SimReport, SimError> {
    let model = cfg.pricing_model(model);
    let pricer = cfg.build_pricer(&model)?;
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
    run_engine(workload, cfg, arrivals_us, pricer).map(|(report, _)| report)
}

/// [`simulate_with_pricer`], also returning the timer heap's peak length.
fn run_engine(
    workload: &Workload,
    cfg: &SimConfig,
    arrivals_us: &[f64],
    pricer: &dyn BatchPricer,
) -> Result<(SimReport, usize), SimError> {
    cfg.validate()?;
    validate_arrivals(arrivals_us)?;

    // Expand the fault plan over the simulated window: the horizon when
    // one is set, the last arrival otherwise (repairs may trail it).
    let fault_horizon = cfg
        .horizon_us
        .unwrap_or_else(|| arrivals_us.last().copied().unwrap_or(0.0));
    let transitions: Vec<Transition> = if cfg.faults.is_inert() {
        Vec::new()
    } else {
        cfg.faults.schedule(fault_horizon)?.transitions()
    };

    let n = arrivals_us.len();
    let mut engine = Engine {
        pricer,
        workload,
        design: cfg.design,
        gpus: cfg.gpus,
        arrivals_us,
        next_arrival: 0,
        heap: BinaryHeap::with_capacity(cfg.gpus + transitions.len()),
        peak_heap: 0,
        seq: n as u64,
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
        engine.push_event(tr.at_us, EventKind::FaultTransition(i));
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
    let mut horizon_hit = false;

    while let Some(event) = engine.pop_event() {
        if let Some(h) = cfg.horizon_us {
            if event.time_us > h {
                horizon_hit = true;
                break;
            }
        }
        queue_tracker.advance(event.time_us, engine.batcher.depth());
        clock_us = clock_us.max(event.time_us);
        match event.kind {
            EventKind::Arrival(id) => {
                arrived += 1;
                progress_us = event.time_us;
                if engine.retry.deadline_enabled() {
                    engine.push_event(
                        records[id].arrival_us + engine.retry.deadline_us,
                        EventKind::RetryFire(RetryKind::Deadline(id)),
                    );
                }
                match engine.admit(event.time_us, id, records[id].arrival_us)? {
                    Admit::Accepted => {}
                    Admit::Expired => records[id].outcome = Some(RequestOutcome::TimedOut),
                    Admit::QueueFull => reject(&mut engine, &mut records, event.time_us, id),
                }
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
                    match engine.admit(event.time_us, id, records[id].arrival_us)? {
                        Admit::Accepted => {}
                        Admit::Expired => records[id].outcome = Some(RequestOutcome::TimedOut),
                        Admit::QueueFull => reject(&mut engine, &mut records, event.time_us, id),
                    }
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
                    for q in &batch.requests {
                        records[q.id].completion = Some(CompletionRecord {
                            dispatch_us: batch.dispatch_us,
                            finish_us: event.time_us,
                            batch_size: size,
                            gpu,
                        });
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

    let end_us = if horizon_hit {
        cfg.horizon_us.expect("horizon_hit implies a horizon")
    } else {
        progress_us
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
    Ok((report, engine.peak_heap))
}

/// Queue-full rejection: consume a retry (scheduling re-admission after
/// deterministic backoff) or shed for good.
fn reject(engine: &mut Engine<'_>, records: &mut [RequestRecord], now_us: f64, id: usize) {
    let attempt = records[id].retries;
    if attempt < engine.retry.max_retries {
        records[id].retries += 1;
        engine.awaiting_retry[id] = true;
        engine.retry_pending += 1;
        let delay = engine.retry.backoff_us(id, attempt);
        engine.push_event(now_us + delay, EventKind::RetryFire(RetryKind::Readmit(id)));
    } else {
        records[id].outcome = Some(RequestOutcome::Shed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use tensordimm_faults::{GrayRank, NodeOutage, RowFaults};

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
            assert!(c.batch_size >= 1 && c.batch_size <= 8);
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
            (c0.dispatch_us, c0.finish_us, c0.batch_size),
            (100.0, 200.0, 2)
        );
        assert_eq!(
            (c1.dispatch_us, c1.finish_us, c1.batch_size),
            (100.0, 200.0, 2)
        );
        // t=200: batch {0, 1} completes (rank 0) exactly as request 2
        // arrives (rank 2); request 2 then waits out its own window and
        // dispatches alone at 300.
        assert_eq!(
            (c2.dispatch_us, c2.finish_us, c2.batch_size),
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
        let fabric_cfg = base.with_transfer(TransferBackend::Fabric(
            tensordimm_system::TopologyKind::FullyConnected,
        ));
        let fabric = simulate(&m, &w, &fabric_cfg, &arrivals).expect("valid");
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
        let again = simulate(&m, &w, &fabric_cfg, &arrivals).expect("valid");
        assert_eq!(fabric, again);
        // `None` inherits the model's own engine: a fabric-configured
        // model without an override must match the explicit override.
        let fabric_model = m.clone().with_transfer(TransferBackend::Fabric(
            tensordimm_system::TopologyKind::FullyConnected,
        ));
        let inherited = simulate(&fabric_model, &w, &base, &arrivals).expect("valid");
        assert_eq!(inherited, fabric);
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
        let gray = base.with_faults(FaultPlan::none().with_gray(GrayRank {
            start_us: 0.0,
            duration_us: 1e9,
            latency_multiplier: 3.0,
        }));
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
        let rowy = base.with_faults(FaultPlan::none().with_row_faults(RowFaults {
            every_us: 100.0,
            rows: 512,
        }));
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

    /// A hot-row tier whose set count is not a power of two is rejected
    /// up front instead of panicking at the cycle backend's first replay.
    #[test]
    fn invalid_hot_row_tier_is_an_error_not_a_panic() {
        let m = model();
        let w = Workload::youtube();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 1, BatchPolicy::new(4, 50.0))
            .with_pricing(PricingBackend::CycleCalibrated)
            .with_hot_rows(HotRowCacheConfig::set_associative(12, 4));
        let bad_tier = SimError::InvalidConfig {
            parameter: "hot_rows",
        };
        assert_eq!(cfg.build_pricer(&m).err(), Some(bad_tier.clone()));
        assert_eq!(simulate(&m, &w, &cfg, &[0.0, 1.0]), Err(bad_tier));
    }

    /// Arrivals stream from the trace, so the timer heap holds only live
    /// timers: at a fixed offered load its peak tracks the deadline
    /// window, not the trace length.
    #[test]
    fn timer_heap_peak_does_not_grow_with_the_trace() {
        let m = model();
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0))
            .with_retry(RetryPolicy::none().with_deadline(2_000.0))
            .with_admission(AdmissionPolicy::bounded(256));
        let pricer = cfg.build_pricer(&m).expect("valid");
        let peak = |n| {
            let arrivals = poisson(300_000.0, n, 3);
            let (report, peak) = run_engine(&w, &cfg, &arrivals, pricer.as_ref()).expect("valid");
            assert_eq!(report.completed, n);
            peak
        };
        let (small, large) = (peak(10_000), peak(200_000));
        assert!(small > 0 && small < 10_000, "peak {small} for 10k requests");
        assert!(
            large <= 2 * small,
            "peak heap grew from {small} (10k requests) to {large} (200k)"
        );
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
