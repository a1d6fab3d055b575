//! Sharded multi-node serving for the TensorDIMM reproduction.
//!
//! The paper evaluates one TensorNode; a production recommender shards
//! its embedding tables across many. This crate lifts the per-node
//! discrete-event serving simulator (`tensordimm_serving`) to a cluster:
//!
//! * **placement** — a [`ShardPlan`] maps embedding rows to owner nodes:
//!   hash, round-robin, capacity-aware (weights ∝ per-node DIMM counts),
//!   or [`Placement::HotColdSplit`] — RecNMP's hot-entry treatment, where
//!   the top-k Zipf rows are replicated on `R` nodes with load-balanced
//!   routing and the cold tail is sharded with successor replicas,
//! * **fan-out / rejoin** — each request samples its Zipf rows, fans out
//!   one sub-request to every shard owning them, each shard prices its
//!   sub-trace on the existing per-node engine (node capacity sliced by
//!   its DIMM count; shards of one DIMM count share one sliced model and
//!   one `BatchPricer`, so each batch shape replays once per cluster, not
//!   once per shard), and the request rejoins at **max-of-shards**
//!   latency — the tail-latency math a single-node simulator cannot
//!   express,
//! * **robustness** — every node carries its own seeded `FaultPlan`
//!   (derived via `FaultPlan::for_node`, so per-node streams decorrelate
//!   while the thinning construction's rate-nesting survives); a
//!   [`FailoverPolicy`] reroutes a dead shard's traffic to replicas —
//!   the replicas absorb its Zipf-hot load, so the induced hotspot is
//!   modeled, not wished away — and hedges sub-requests aimed at nodes
//!   inside their repair window,
//! * **accounting** — the rejoin reads each shard's records back in
//!   routing order (one cursor per shard), and a [`ClusterReport`]
//!   carries per-request rejoined outcomes, routing statistics, and every
//!   per-shard `SimReport`. Its outcome fields come from the same
//!   `OutcomeFold` the per-node report uses, so both layers share one
//!   rate formula and one availability contract;
//!   [`ClusterReport::is_conserved`] extends the single-node conservation
//!   law to the fan-out (every offered request resolves exactly once,
//!   including at a horizon cut).
//!
//! Everything is a pure function of `(model, workload, config, trace)`:
//! the router precomputes each node's dead/degraded windows from its
//! fault schedule (fault plans are virtual-time pure, so liveness is
//! known a priori), shards fan across the deterministic worker pool, and
//! replays are bit-identical at any worker count.
//!
//! The three invariants gated at cluster scale by `sweep_cluster`:
//!
//! 1. **Inert decomposition** — replication factor 1, all-inert fault
//!    plans, [`FailoverPolicy::None`]: every per-shard report is
//!    bit-identical to an independent single-node `simulate` run on the
//!    derived sub-trace ([`shard_traces`] exposes exactly those traces).
//! 2. **Conservation** — `OutcomeCounts::is_conserved` holds at every
//!    sweep point, including points where the horizon cuts arrivals off.
//! 3. **Monotone availability** — availability-at-SLA is non-increasing
//!    in the per-node DIMM fault rate (inherited from the thinning
//!    construction; rerouting volume only grows with the rate).

pub mod placement;
pub mod sim;

pub use placement::{Placement, ShardId, ShardPlan};
pub use sim::{
    shard_sim_config, shard_traces, simulate_cluster, ClusterConfig, ClusterError, ClusterRecord,
    ClusterReport, FailoverPolicy, NodeSpec, RoutingStats, ShardOutcome,
};
