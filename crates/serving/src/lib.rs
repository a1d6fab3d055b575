//! Request-level serving simulation for the TensorDIMM reproduction.
//!
//! The analytic system model (`tensordimm_system`) prices *one* inference
//! at a fixed batch size; real recommendation serving — the regime RecNMP
//! (Ke et al.) and Cho et al. evaluate, and this repo's north star —
//! receives *individual requests* at unpredictable instants and must batch
//! them on the fly. This crate turns the analytic model into a
//! traffic-driven discrete-event simulator:
//!
//! * **arrivals** — open-loop Poisson or bursty traces with Zipf-skewed
//!   table popularity ([`ArrivalProcess`], [`RequestTrace`], re-using the
//!   rejection-inversion Zipf sampler of `tensordimm_embedding`),
//! * **dynamic batching** — the two-knob policy (`max_batch`,
//!   `max_wait_us`) of production serving stacks ([`BatchPolicy`],
//!   [`DynamicBatcher`]),
//! * **multi-GPU dispatch** — sealed batches go to the first free GPU and
//!   are priced through a pluggable [`tensordimm_system::BatchPricer`]
//!   backend (analytic closed form, or cycle-calibrated replay on the
//!   event-driven DRAM/NMP co-simulator), so node-backed designs pay
//!   shared-TensorNode contention that grows with the number of batches
//!   in flight,
//! * **metrics** — p50/p95/p99 latency, throughput, time-weighted queue
//!   depth and batch-occupancy histograms ([`SimReport`]); the outcome
//!   fields (counts, latency summary, availability, throughput, goodput,
//!   shed rate) come from [`OutcomeFold`], the one outcome fold the node
//!   and cluster reports share,
//! * **sweeps** — offered-load curves and sustainable-QPS-at-SLA search
//!   ([`offered_load_sweep`], [`sustainable_qps`]), with the independent
//!   load points optionally fanned across a deterministic worker pool
//!   ([`offered_load_sweep_par`] — bit-identical to the sequential path
//!   at any worker count),
//! * **faults and degraded-mode serving** — a seeded
//!   [`FaultPlan`] (`tensordimm_faults`) injects DIMM rank losses, node
//!   outages, gray ranks and transient row faults into the event loop;
//!   [`RetryPolicy`] (deadlines, capped-backoff re-admission, hedged
//!   re-dispatch) and [`AdmissionPolicy`] (bounded queue, deadline-aware
//!   shedding) govern the response, and every request is accounted to a
//!   typed [`RequestOutcome`] with goodput / shed-rate / availability in
//!   the report. Inert plans and policies are bit-identical to fault-free
//!   runs.
//!
//! The headline experiment (`examples/serving_sim.rs`,
//! `sweep_qps_sla` in `tensordimm_bench`): at request granularity, TDIMM's
//! near-memory reduction lets the same node + GPUs meet a p99 SLA at
//! several times the offered load PMEM can sustain — the paper's Fig. 6c
//! argument, re-derived from queueing behavior instead of steady-state
//! rounds.
//!
//! Everything is deterministic per seed; there is no wall-clock time
//! anywhere in the loop.

pub mod arrivals;
pub mod batcher;
pub mod metrics;
pub mod policy;
pub mod request;
pub mod sim;
pub mod sweep;

pub use arrivals::{hot_row_share, zipf_lookup_rows, ArrivalProcess};
pub use batcher::{BatchPolicy, DynamicBatcher, QueuedRequest};
pub use metrics::{percentile, BatchStats, LatencySummary, OutcomeCounts, OutcomeFold, QueueStats};
pub use policy::{AdmissionPolicy, RetryPolicy};
pub use request::{CompletionRecord, RequestOutcome, RequestRecord, RequestTrace};
pub use sim::{simulate, simulate_with_pricer, validate_arrivals, SimConfig, SimError, SimReport};
pub use sweep::{
    offered_load_sweep, offered_load_sweep_par, sustainable_qps, sweep_arrivals_us, LoadPoint,
};
pub use tensordimm_faults::{FaultPlan, FaultSchedule, GrayRank, NodeOutage, RowFaults};
pub use tensordimm_system::{TopologyKind, TransferBackend};
