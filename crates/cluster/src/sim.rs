//! The cluster-level fan-out/rejoin simulator.

use std::error::Error;
use std::fmt;

use tensordimm_exec::par_map;
use tensordimm_faults::FaultPlan;
use tensordimm_models::Workload;
use tensordimm_serving::{
    simulate_with_pricer, validate_arrivals, AdmissionPolicy, BatchPolicy, IndexStream,
    LatencySummary, OutcomeCounts, OutcomeFold, RequestOutcome, RequestRecord, RetryPolicy,
    SimConfig, SimError, SimReport,
};
use tensordimm_system::{BatchPricer, DesignPoint, PricingBackend, SystemModel};

use crate::placement::{mix, ShardId, ShardPlan};

/// Errors from configuring or running the cluster simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A cluster-level knob is unusable.
    InvalidConfig {
        /// Which knob.
        parameter: &'static str,
    },
    /// A per-shard run failed (bad per-node plan, unsorted trace, pricing).
    Shard(SimError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidConfig { parameter } => {
                write!(f, "cluster parameter {parameter} is unusable")
            }
            ClusterError::Shard(e) => write!(f, "per-shard simulation failed: {e}"),
        }
    }
}

impl Error for ClusterError {}

impl From<SimError> for ClusterError {
    fn from(e: SimError) -> Self {
        ClusterError::Shard(e)
    }
}

impl From<tensordimm_faults::FaultError> for ClusterError {
    fn from(e: tensordimm_faults::FaultError) -> Self {
        ClusterError::Shard(SimError::from(e))
    }
}

/// One TensorNode in the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// DIMMs provisioned — slices the node's aggregate gather bandwidth
    /// via [`SystemModel::with_node_dimms`], so heterogeneous clusters
    /// price capacity honestly.
    pub dimms: u64,
    /// GPUs pulling batches on this node.
    pub gpus: usize,
    /// The node's own seeded fault plan ([`FaultPlan::none`] = healthy).
    pub faults: FaultPlan,
}

impl NodeSpec {
    /// The paper's Table 1 node: 32 DIMMs, `gpus` GPUs, no faults.
    pub fn paper(gpus: usize) -> Self {
        NodeSpec {
            dimms: SystemModel::PAPER_NODE_DIMMS,
            gpus,
            faults: FaultPlan::none(),
        }
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// How the router treats shards that are dead or inside a repair window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailoverPolicy {
    /// Static routing: every row goes to its primary owner, dead or not
    /// (a sub-request aimed at a dead node is shed at the router). The
    /// inert baseline the decomposition gate runs under.
    None,
    /// Reroute around dead nodes: a row whose chosen owner is dead goes
    /// to its first live replica instead. The replicas absorb the dead
    /// shard's Zipf-hot load — the induced hotspot is part of the model.
    #[default]
    Reroute,
    /// [`FailoverPolicy::Reroute`], plus SLA-aware hedging: a sub-request
    /// aimed at a *degraded* node (ranks down or gray, inside its repair
    /// window) is duplicated onto a live replica; the rejoin takes
    /// whichever copy finishes first.
    HedgeDegraded,
}

/// Cluster simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Row-to-node placement and replication.
    pub plan: ShardPlan,
    /// One spec per node; `nodes.len()` must equal `plan.nodes()`.
    pub nodes: Vec<NodeSpec>,
    /// Design point every shard serves with.
    pub design: DesignPoint,
    /// Per-shard dynamic-batching policy.
    pub policy: BatchPolicy,
    /// Per-shard batch-pricing backend.
    pub pricing: PricingBackend,
    /// Per-shard deadline / retry / hedging policy.
    pub retry: RetryPolicy,
    /// Per-shard admission control.
    pub admission: AdmissionPolicy,
    /// Router behavior around dead/degraded shards.
    pub failover: FailoverPolicy,
    /// Optional virtual-time cutoff, µs (same semantics as the per-node
    /// simulator: later arrivals never arrive; queued work is left in
    /// flight for conservation accounting).
    pub horizon_us: Option<f64>,
    /// Popularity skew of the per-request row sample.
    pub zipf_s: f64,
    /// Rows sampled per request to decide its fan-out. The sub-request a
    /// shard receives is priced as one full workload sample regardless —
    /// a deliberately conservative approximation (each touched shard
    /// gathers a full sample's worth of embeddings).
    pub routing_lookups: usize,
    /// Seed of the per-request row sampler.
    pub lookup_seed: u64,
    /// Worker threads fanning the per-shard runs (results are
    /// bit-identical at any count).
    pub workers: usize,
}

impl ClusterConfig {
    /// A cluster of `nodes` with the given plan: analytic pricing, inert
    /// policies, rerouting failover, paper-default skew, no horizon.
    pub fn new(
        plan: ShardPlan,
        nodes: Vec<NodeSpec>,
        design: DesignPoint,
        policy: BatchPolicy,
    ) -> Self {
        ClusterConfig {
            plan,
            nodes,
            design,
            policy,
            pricing: PricingBackend::Analytic,
            retry: RetryPolicy::none(),
            admission: AdmissionPolicy::unbounded(),
            failover: FailoverPolicy::Reroute,
            horizon_us: None,
            zipf_s: 0.9,
            routing_lookups: 16,
            lookup_seed: 0x7e50,
            workers: 1,
        }
    }

    /// Serve with this per-shard retry/deadline/hedging policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Gate per-shard arrivals through this admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Route around failures with this policy.
    pub fn with_failover(mut self, failover: FailoverPolicy) -> Self {
        self.failover = failover;
        self
    }

    /// Stop the virtual clock at `horizon_us`.
    pub fn with_horizon(mut self, horizon_us: f64) -> Self {
        self.horizon_us = Some(horizon_us);
        self
    }

    /// Select the per-shard batch-pricing backend.
    pub fn with_pricing(mut self, pricing: PricingBackend) -> Self {
        self.pricing = pricing;
        self
    }

    /// Fan the per-shard runs across `workers` threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sample `routing_lookups` rows per request at skew `zipf_s` under
    /// `lookup_seed`.
    pub fn with_lookups(mut self, routing_lookups: usize, zipf_s: f64, lookup_seed: u64) -> Self {
        self.routing_lookups = routing_lookups;
        self.zipf_s = zipf_s;
        self.lookup_seed = lookup_seed;
        self
    }

    /// Check the cluster knobs and the workload knob the router reads:
    /// rows are sampled from `[0, rows_per_table)`, which must not be
    /// empty.
    fn validate(&self, workload: &Workload) -> Result<(), ClusterError> {
        let bad = |parameter| Err(ClusterError::InvalidConfig { parameter });
        if self.nodes.is_empty() || self.nodes.len() != self.plan.nodes() {
            return bad("nodes.len");
        }
        for node in &self.nodes {
            if node.dimms == 0 {
                return bad("node.dimms");
            }
            if node.gpus == 0 {
                return bad("node.gpus");
            }
        }
        if !self.zipf_s.is_finite() || self.zipf_s < 0.0 {
            return bad("zipf_s");
        }
        if self.routing_lookups == 0 {
            return bad("routing_lookups");
        }
        if self.workers == 0 {
            return bad("workers");
        }
        if workload.rows_per_table == 0 {
            return bad("workload.rows_per_table");
        }
        Ok(())
    }
}

/// The `SimConfig` shard `node` runs under — exposed so the inert-
/// decomposition gate can reproduce a shard's run independently.
pub fn shard_sim_config(cfg: &ClusterConfig, node: usize) -> SimConfig {
    let spec = &cfg.nodes[node];
    let mut sim = SimConfig::new(cfg.design, spec.gpus, cfg.policy)
        .with_pricing(cfg.pricing)
        .with_faults(spec.faults)
        .with_retry(cfg.retry)
        .with_admission(cfg.admission);
    if let Some(h) = cfg.horizon_us {
        sim = sim.with_horizon(h);
    }
    sim
}

/// A node's liveness over virtual time, folded from its fault schedule.
/// Half-open windows `[start, end)`, matching the serving engine's
/// same-instant order (fault transitions apply before arrivals).
#[derive(Debug, Clone, Default)]
struct NodeHealth {
    /// Node cannot dispatch at all: node outage or every DIMM down.
    dead: WindowCursor,
    /// Node serves but is degraded: ranks down or a gray window open.
    degraded: WindowCursor,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Healthy,
    Degraded,
    Dead,
}

impl NodeHealth {
    fn from_plan(plan: &FaultPlan, horizon_us: f64) -> Result<Self, ClusterError> {
        let mut health = NodeHealth::default();
        if plan.is_inert() {
            return Ok(health);
        }
        let transitions = plan.schedule(horizon_us)?.transitions();
        let mut state = tensordimm_faults::FaultState::healthy(plan.dimms);
        let classify = |s: &tensordimm_faults::FaultState| {
            if !s.can_dispatch() {
                Health::Dead
            } else if s.dimms_alive() < s.dimms_total() || s.gray_multiplier() > 1.0 {
                Health::Degraded
            } else {
                Health::Healthy
            }
        };
        let mut cur = classify(&state);
        let mut cur_start = 0.0f64;
        let push = |h: Health, start: f64, end: f64, me: &mut NodeHealth| {
            if end <= start {
                return;
            }
            let list = match h {
                Health::Dead => &mut me.dead.windows,
                Health::Degraded => &mut me.degraded.windows,
                Health::Healthy => return,
            };
            match list.last_mut() {
                Some(last) if last.1 >= start => last.1 = last.1.max(end),
                _ => list.push((start, end)),
            }
        };
        for t in &transitions {
            // RowFault transitions don't change liveness; applying them
            // is harmless (pending rows never reach `classify`).
            let next_time = t.at_us;
            state.apply(t.change);
            // Same-instant transitions collapse: the interval is empty.
            let next = classify(&state);
            if next != cur {
                push(cur, cur_start, next_time, &mut health);
                cur = next;
                cur_start = next_time;
            }
        }
        push(cur, cur_start, f64::INFINITY, &mut health);
        Ok(health)
    }
}

/// Sorted, disjoint half-open windows read by a forward cursor: queries
/// come at non-decreasing times (the router walks a sorted trace), so the
/// cursor only ever steps past windows that ended and each query is
/// amortized O(1).
#[derive(Debug, Clone, Default)]
struct WindowCursor {
    windows: Vec<(f64, f64)>,
    /// First window not yet ended at the last query time.
    next: usize,
}

impl WindowCursor {
    /// Whether `t` falls inside a window. `t` must not be earlier than
    /// the previous query's.
    fn contains(&mut self, t: f64) -> bool {
        while self.windows.get(self.next).is_some_and(|w| w.1 <= t) {
            self.next += 1;
        }
        self.windows.get(self.next).is_some_and(|w| w.0 <= t)
    }
}

/// One leg of a fanned-out request: the rows a primary shard serves,
/// with an optional hedged duplicate on a replica.
///
/// 8 bytes: shard ids fit `u32` (a [`ShardPlan`] has fewer than
/// `u32::MAX` nodes), and the absent hedge is the [`Leg::NO_HEDGE`]
/// sentinel instead of an `Option` tag. A run holds one leg per routed
/// (request, shard) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Leg {
    /// The primary shard serving this leg's rows.
    primary: u32,
    /// The replica carrying the hedged duplicate, or [`Leg::NO_HEDGE`].
    hedge: u32,
}

const _: () = assert!(std::mem::size_of::<Leg>() == 8);

impl Leg {
    /// The `hedge` of an unhedged leg; never a shard id.
    const NO_HEDGE: u32 = u32::MAX;

    fn new(primary: ShardId, hedge: Option<ShardId>) -> Self {
        let id = |shard: ShardId| u32::try_from(shard).expect("shard ids are below u32::MAX");
        Leg {
            primary: id(primary),
            hedge: hedge.map_or(Leg::NO_HEDGE, id),
        }
    }

    /// The primary shard.
    fn primary(self) -> ShardId {
        self.primary as ShardId
    }

    /// The hedge shard, if the leg is hedged.
    fn hedge(self) -> Option<ShardId> {
        (self.hedge != Leg::NO_HEDGE).then_some(self.hedge as ShardId)
    }
}

/// Where a request was routed: its legs are `start..end` of the run's
/// flat leg table (empty when shed at the router).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Route {
    start: u32,
    end: u32,
    router_shed: bool,
    rerouted: bool,
}

impl Route {
    /// This request's legs in the run's leg table.
    fn legs<'a>(&self, legs: &'a [Leg]) -> &'a [Leg] {
        &legs[self.start as usize..self.end as usize]
    }
}

/// Cluster-wide routing statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoutingStats {
    /// Sub-requests dispatched to shards (hedges included).
    pub subrequests: usize,
    /// Hedged duplicate sub-requests.
    pub hedge_subrequests: usize,
    /// Requests with at least one row rerouted off a primary owner that
    /// was dead at the request's arrival.
    pub rerouted_requests: usize,
    /// Requests shed at the router (no live owner for some row).
    pub router_shed: usize,
    /// Hot rows served by a shard the request already fans out to
    /// (HotColdSplit's fan-out-narrowing affinity).
    pub affinity_hits: usize,
    /// Mean distinct primary shards per routed request.
    pub mean_fanout: f64,
}

/// Per-request rejoined outcome: 32 bytes, one per offered request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterRecord {
    /// When the request arrived, µs.
    pub arrival_us: f64,
    /// Rejoined fate; `None` when the horizon cut the arrival off.
    pub outcome: Option<RequestOutcome>,
    /// When the *slowest* leg finished (max-of-shards), µs; `None` unless
    /// the request completed.
    pub finish_us: Option<f64>,
    /// Distinct primary shards fanned out to: `0` when shed at the router,
    /// at most the plan's node count (below `u32::MAX`).
    pub fanout: u32,
    /// Whether any row was rerouted off a primary owner that was dead at
    /// the request's arrival.
    pub rerouted: bool,
    /// Whether any leg carried a hedged duplicate.
    pub hedged: bool,
}

const _: () = assert!(std::mem::size_of::<ClusterRecord>() == 32);

impl ClusterRecord {
    /// End-to-end latency (arrival to slowest leg), µs.
    pub fn latency_us(&self) -> Option<f64> {
        match (self.outcome, self.finish_us) {
            (Some(RequestOutcome::Completed), Some(f)) => Some(f - self.arrival_us),
            _ => None,
        }
    }
}

/// One shard's share of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Which node.
    pub node: usize,
    /// Sub-requests in the shard's trace.
    pub subrequests: usize,
    /// The per-node engine's full report for the sub-trace.
    pub report: SimReport,
}

/// What a cluster run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Requests in the input trace.
    pub offered: usize,
    /// Requests whose arrival fell inside the simulated window.
    pub arrived: usize,
    /// Requests whose every leg completed.
    pub completed: usize,
    /// Where every arrived request ended up (rejoined, not per-shard).
    pub outcomes: OutcomeCounts,
    /// Rejoined end-to-end latency summary (max-of-shards per request).
    pub latency: LatencySummary,
    /// Fraction of arrived requests completed within [`sla_us`](Self::sla_us).
    pub availability: f64,
    /// The SLA judged against (the retry policy's deadline, `∞` if none).
    pub sla_us: f64,
    /// End of the run, µs: the latest shard's `end_us`.
    pub end_us: f64,
    /// Completed requests per second of virtual time.
    pub throughput_qps: f64,
    /// Requests completed within the SLA per second of virtual time.
    pub goodput_qps: f64,
    /// Fraction of arrived requests shed (router + shards).
    pub shed_rate: f64,
    /// Router statistics.
    pub routing: RoutingStats,
    /// Per-request rejoined records, indexed like the arrival trace.
    pub records: Vec<ClusterRecord>,
    /// Every shard's sub-trace size and full per-node report.
    pub shards: Vec<ShardOutcome>,
}

impl ClusterReport {
    /// Requests whose arrival the horizon cut off.
    pub fn not_arrived(&self) -> usize {
        self.offered - self.arrived
    }

    /// Cluster-level flow conservation: every offered request has a
    /// record, every arrived one resolves exactly once after the rejoin,
    /// and every per-shard report conserves too.
    pub fn is_conserved(&self) -> bool {
        self.arrived <= self.offered
            && self.records.len() == self.offered
            && self.outcomes.is_conserved(self.arrived)
            && self.shards.iter().all(|s| s.report.is_conserved())
    }

    /// Fraction of arrived requests whose slowest leg finished within
    /// `sla_us`: the report's [`OutcomeFold`] re-run at another SLA, with
    /// the per-node report's contracts (`1.0` with no arrivals, `0.0` at
    /// an all-shed point).
    ///
    /// # Panics
    ///
    /// Panics on a NaN `sla_us`.
    pub fn availability_at(&self, sla_us: f64) -> f64 {
        fold_records(&self.records, sla_us, self.end_us).availability
    }
}

/// The outcome fold over the rejoined records; requests the horizon cut
/// off before arrival carry no outcome and are skipped.
fn fold_records(records: &[ClusterRecord], sla_us: f64, end_us: f64) -> OutcomeFold {
    OutcomeFold::fold(
        records
            .iter()
            .filter_map(|r| r.outcome.map(|o| (o, r.latency_us()))),
        sla_us,
        end_us,
    )
}

/// The run's router: routes one request at a time, in arrival order, and
/// owns every buffer it needs. Once its scratch buffers have grown to a
/// request's size, the only allocations left are the flat leg table's
/// amortized doublings.
#[derive(Debug)]
struct Router<'a> {
    cfg: &'a ClusterConfig,
    /// Per-node liveness, read through forward cursors.
    health: Vec<NodeHealth>,
    /// The one row sampler, reseeded per request.
    sampler: IndexStream,
    /// Every routed request's legs, in routing order.
    legs: Vec<Leg>,
    stats: RoutingStats,
    routed_requests: usize,
    fanout_sum: usize,
    // Scratch buffers reused across rows and requests.
    rows: Vec<u64>,
    owners: Vec<ShardId>,
    live: Vec<ShardId>,
    dead: Vec<bool>,
    primaries: Vec<ShardId>,
    hedges: Vec<(ShardId, ShardId)>,
}

impl<'a> Router<'a> {
    fn new(cfg: &'a ClusterConfig, rows_per_table: u64, health: Vec<NodeHealth>) -> Self {
        Router {
            cfg,
            sampler: IndexStream::with_skew(rows_per_table, cfg.zipf_s, cfg.lookup_seed),
            legs: Vec::new(),
            stats: RoutingStats::default(),
            routed_requests: 0,
            fanout_sum: 0,
            rows: Vec::with_capacity(cfg.routing_lookups),
            owners: Vec::with_capacity(cfg.plan.replication()),
            live: Vec::with_capacity(cfg.plan.replication()),
            dead: vec![false; health.len()],
            primaries: Vec::with_capacity(health.len()),
            hedges: Vec::with_capacity(health.len()),
            health,
        }
    }

    /// Route request `id`, arriving at `t` (no earlier than the previous
    /// request): sample its rows, pick an owner per row, group rows into
    /// per-shard legs, attach hedges.
    fn route(&mut self, id: usize, t: f64) -> Route {
        let cfg = self.cfg;
        // Reseeding replays exactly the stream a fresh per-request
        // sampler would draw under this seed.
        self.sampler.reseed(cfg.lookup_seed ^ mix(id as u64));
        self.rows.clear();
        self.sampler
            .extend_into(cfg.routing_lookups, &mut self.rows);
        self.rows.sort_unstable();
        self.rows.dedup();
        for (dead, health) in self.dead.iter_mut().zip(&mut self.health) {
            *dead = health.dead.contains(t);
        }
        let dead = &self.dead;
        // One deterministic per-request draw spreads hot-row load across
        // replicas without widening the fan-out per row.
        let spread = mix(cfg.lookup_seed ^ mix(id as u64 ^ 0x10d7));
        let mut router_shed = false;
        let mut rerouted = false;
        self.primaries.clear();
        self.hedges.clear();
        // Cold rows first (descending ids): their placement is forced,
        // so the hot head's affinity check sees the full cold target set
        // and can narrow the fan-out instead of widening it.
        'rows: for &row in self.rows.iter().rev() {
            cfg.plan.owners_into(row, &mut self.owners);
            let owners = &self.owners;
            let target = match cfg.failover {
                FailoverPolicy::None => {
                    let primary = owners[0];
                    if dead[primary] {
                        router_shed = true;
                        break 'rows;
                    }
                    primary
                }
                FailoverPolicy::Reroute | FailoverPolicy::HedgeDegraded => {
                    self.live.clear();
                    self.live
                        .extend(owners.iter().copied().filter(|&o| !dead[o]));
                    let live = &self.live;
                    if live.is_empty() {
                        router_shed = true;
                        break 'rows;
                    }
                    let chosen = if cfg.plan.is_hot(row) {
                        // Affinity first: serve the hot row from a shard
                        // this request already touches. Otherwise
                        // load-balance across live replicas.
                        match live.iter().copied().find(|o| self.primaries.contains(o)) {
                            Some(o) => {
                                self.stats.affinity_hits += 1;
                                o
                            }
                            None => live[(spread % live.len() as u64) as usize],
                        }
                    } else {
                        live[0]
                    };
                    // Load-balancing across live replicas is not a
                    // reroute; leaving a dead primary is.
                    if dead[owners[0]] {
                        rerouted = true;
                    }
                    chosen
                }
            };
            if !self.primaries.contains(&target) {
                self.primaries.push(target);
                // SLA-aware hedging: duplicate the leg on a live replica
                // when its shard is inside a repair window.
                if cfg.failover == FailoverPolicy::HedgeDegraded
                    && self.health[target].degraded.contains(t)
                {
                    let alt = owners.iter().copied().find(|&o| o != target && !dead[o]);
                    if let Some(h) = alt {
                        self.hedges.push((target, h));
                    }
                }
            }
        }
        let start = self.legs.len();
        if router_shed {
            self.stats.router_shed += 1;
        } else {
            for &primary in &self.primaries {
                let hedge = self
                    .hedges
                    .iter()
                    .find(|(lp, _)| *lp == primary)
                    .map(|&(_, h)| h);
                self.legs.push(Leg::new(primary, hedge));
            }
            let legs = &self.legs[start..];
            let hedged = legs.iter().filter(|l| l.hedge().is_some()).count();
            self.routed_requests += 1;
            self.fanout_sum += legs.len();
            self.stats.subrequests += legs.len() + hedged;
            self.stats.hedge_subrequests += hedged;
            if rerouted {
                self.stats.rerouted_requests += 1;
            }
        }
        let index = |i: usize| u32::try_from(i).expect("leg table indexes fit in u32");
        Route {
            start: index(start),
            end: index(self.legs.len()),
            router_shed,
            rerouted,
        }
    }

    /// The flat leg table and the run's routing statistics.
    fn finish(self) -> (Vec<Leg>, RoutingStats) {
        let mut stats = self.stats;
        stats.mean_fanout = if self.routed_requests > 0 {
            self.fanout_sum as f64 / self.routed_requests as f64
        } else {
            0.0
        };
        (self.legs, stats)
    }
}

/// Route every request, in arrival order, through one [`Router`].
fn route_requests(
    cfg: &ClusterConfig,
    rows_per_table: u64,
    arrivals_us: &[f64],
    health: Vec<NodeHealth>,
) -> (Vec<Route>, Vec<Leg>, RoutingStats) {
    let mut router = Router::new(cfg, rows_per_table, health);
    let routes = arrivals_us
        .iter()
        .enumerate()
        .map(|(id, &t)| router.route(id, t))
        .collect();
    let (legs, stats) = router.finish();
    (routes, legs, stats)
}

/// Fan-out preview: the per-shard arrival sub-traces a cluster run would
/// dispatch (hedge duplicates included). The inert-decomposition gate
/// replays these through independent single-node `simulate` calls and
/// asserts bit-identity with [`ClusterReport::shards`].
///
/// # Errors
///
/// As [`simulate_cluster`], minus per-shard simulation errors.
pub fn shard_traces(
    cfg: &ClusterConfig,
    workload: &Workload,
    arrivals_us: &[f64],
) -> Result<Vec<Vec<f64>>, ClusterError> {
    cfg.validate(workload)?;
    validate_arrivals(arrivals_us)?;
    let health = node_healths(cfg, arrivals_us)?;
    let (routes, legs, _) = route_requests(cfg, workload.rows_per_table, arrivals_us, health);
    Ok(per_shard_arrivals(
        cfg.plan.nodes(),
        arrivals_us,
        &routes,
        &legs,
    ))
}

fn node_healths(cfg: &ClusterConfig, arrivals_us: &[f64]) -> Result<Vec<NodeHealth>, ClusterError> {
    // The router expands each plan over the horizon when set, the
    // cluster's last arrival otherwise; a shard's engine expands the same
    // plan over the horizon or *its own* last arrival, which can be
    // earlier. They still agree at every arrival the shard sees: a longer
    // window only adds transitions after the shorter one ends (pinned by
    // `schedule_is_a_pure_function_of_plan_and_horizon`).
    let horizon = cfg
        .horizon_us
        .unwrap_or_else(|| arrivals_us.last().copied().unwrap_or(0.0));
    cfg.nodes
        .iter()
        .map(|n| NodeHealth::from_plan(&n.faults, horizon))
        .collect()
}

/// Every shard's sub-request arrivals, pushed in routing order: request
/// id, then leg, then primary before hedge. The rejoin reads the shards'
/// records back in exactly this order, one cursor per shard.
fn per_shard_arrivals(
    nodes: usize,
    arrivals_us: &[f64],
    routes: &[Route],
    legs: &[Leg],
) -> Vec<Vec<f64>> {
    let mut shard_subs = vec![Vec::new(); nodes];
    for (route, &t) in routes.iter().zip(arrivals_us) {
        for leg in route.legs(legs) {
            shard_subs[leg.primary()].push(t);
            if let Some(h) = leg.hedge() {
                shard_subs[h].push(t);
            }
        }
    }
    shard_subs
}

/// Run the cluster: route, fan out, price every shard on the per-node
/// engine, rejoin at max-of-shards.
///
/// Pure in `(model, workload, cfg, arrivals_us)` — bit-identical replays
/// at any `cfg.workers`.
///
/// # Errors
///
/// [`ClusterError::InvalidConfig`] for unusable cluster knobs;
/// [`ClusterError::Shard`] when a per-shard run rejects its configuration
/// or trace.
pub fn simulate_cluster(
    model: &SystemModel,
    workload: &Workload,
    cfg: &ClusterConfig,
    arrivals_us: &[f64],
) -> Result<ClusterReport, ClusterError> {
    cfg.validate(workload)?;
    validate_arrivals(arrivals_us)?;
    let health = node_healths(cfg, arrivals_us)?;
    let (routes, legs, stats) = route_requests(cfg, workload.rows_per_table, arrivals_us, health);
    let shard_subs = per_shard_arrivals(cfg.plan.nodes(), arrivals_us, &routes, &legs);

    // One capacity-sliced model and one pricer per node shape (DIMM
    // count), built as `simulate` builds them (the pricing backend is
    // cluster-wide). Every shard of a shape prices through the same
    // pricer, so a batch shape replays once per cluster and the model's
    // transfer memo fills once. Both memos are pure functions of their
    // keys: sharing them keeps every shard bit-identical to an independent
    // run, at any worker count.
    let mut dimms: Vec<u64> = cfg.nodes.iter().map(|n| n.dimms).collect();
    dimms.sort_unstable();
    dimms.dedup();
    let models: Vec<SystemModel> = dimms
        .iter()
        .map(|&d| model.clone().with_node_dimms(d))
        .collect();
    let pricers: Vec<Box<dyn BatchPricer + '_>> =
        models.iter().map(|m| cfg.pricing.build(m)).collect();

    // Fan the per-shard runs across the worker pool; errors surface from
    // the lowest shard index for determinism.
    let inputs: Vec<usize> = (0..cfg.plan.nodes()).collect();
    let results: Vec<Result<SimReport, SimError>> = par_map(&inputs, cfg.workers, |_, &node| {
        let shape = dimms
            .binary_search(&cfg.nodes[node].dimms)
            .expect("every node's shape has a pricer");
        let sim_cfg = shard_sim_config(cfg, node);
        simulate_with_pricer(workload, &sim_cfg, &shard_subs[node], &*pricers[shape])
    });
    let mut shards = Vec::with_capacity(results.len());
    for (node, result) in results.into_iter().enumerate() {
        shards.push(ShardOutcome {
            node,
            subrequests: shard_subs[node].len(),
            report: result?,
        });
    }
    // The shard reports hold every sub-request's arrival; free the
    // sub-traces before the rejoin allocates the cluster records.
    drop(shard_subs);

    // Rejoin in routing order: each shard's next unread record is this
    // request's next sub-request there (see `per_shard_arrivals`).
    let mut cursors = vec![0usize; shards.len()];
    let mut copies = Vec::new();
    let mut records = Vec::with_capacity(arrivals_us.len());
    for (route, &t) in routes.iter().zip(arrivals_us) {
        let route_legs = route.legs(&legs);
        let mut record = ClusterRecord {
            arrival_us: t,
            outcome: None,
            finish_us: None,
            fanout: route.end - route.start,
            rerouted: route.rerouted,
            hedged: route_legs.iter().any(|l| l.hedge().is_some()),
        };
        // A request the horizon cut off leaves its sub-requests unread;
        // the trace is sorted, so every later request is cut off too and
        // no cursor is read again.
        if cfg.horizon_us.is_none_or(|h| t <= h) {
            record.outcome = Some(if route.router_shed {
                RequestOutcome::Shed
            } else {
                let mut next = |shard: ShardId| {
                    let rec = &shards[shard].report.records[cursors[shard]];
                    cursors[shard] += 1;
                    rec
                };
                copies.clear();
                for leg in route_legs {
                    copies.push((next(leg.primary()), leg.hedge().map(&mut next)));
                }
                rejoin(route_legs, &copies, &mut record)
            });
        }
        records.push(record);
    }
    let shard_arrivals: Vec<usize> = shards.iter().map(|s| s.report.arrived).collect();
    assert_eq!(
        cursors, shard_arrivals,
        "the rejoin reads every arrived sub-request once"
    );

    let end_us = shards
        .iter()
        .map(|s| s.report.end_us)
        .fold(0.0f64, f64::max);
    let sla_us = cfg.retry.deadline_us;
    let OutcomeFold {
        arrived,
        outcomes,
        latency,
        availability,
        throughput_qps,
        goodput_qps,
        shed_rate,
    } = fold_records(&records, sla_us, end_us);
    let report = ClusterReport {
        offered: arrivals_us.len(),
        arrived,
        completed: outcomes.completed,
        outcomes,
        latency,
        availability,
        sla_us,
        end_us,
        throughput_qps,
        goodput_qps,
        shed_rate,
        routing: stats,
        records,
        shards,
    };
    debug_assert!(report.is_conserved());
    Ok(report)
}

/// Outcome severity for the rejoin's folds: a leg keeps its best copy,
/// a request its worst leg.
fn rank(o: RequestOutcome) -> u8 {
    match o {
        RequestOutcome::Shed => 0,
        RequestOutcome::TimedOut => 1,
        RequestOutcome::InFlightAtHorizon => 2,
        RequestOutcome::Completed => 3,
    }
}

/// Rejoin a request's legs from their copies' shard records, read in
/// routing order: `copies[i]` holds leg `i`'s primary record and (iff the
/// leg is hedged) its hedge record. A leg resolves to the best of its
/// copies (hedged duplicates race — first completion wins), the request
/// to the worst of its legs (every leg must finish; max-of-shards latency,
/// written to `record.finish_us` on completion). A terminally failed leg
/// (shed / timed out) fails the request even if other legs are still in
/// flight. Hedge copies race by shard: a leg races every hedge copy the
/// request sent to its hedge shard, so two legs hedged onto one shard
/// each race both copies there.
fn rejoin(
    legs: &[Leg],
    copies: &[(&RequestRecord, Option<&RequestRecord>)],
    record: &mut ClusterRecord,
) -> RequestOutcome {
    let mut request_outcome = RequestOutcome::Completed;
    let mut slowest_finish = 0.0f64;
    for (leg, &(primary, _)) in legs.iter().zip(copies) {
        let hedges = copies
            .iter()
            .zip(legs)
            .filter(|(_, other)| leg.hedge().is_some() && other.hedge() == leg.hedge())
            .filter_map(|(&(_, hedge), _)| hedge);
        let leg_copies = std::iter::once(primary).chain(hedges);
        let leg_outcome = leg_copies
            .clone()
            .map(|rec| rec.outcome.expect("in-window sub-request resolves"))
            .max_by_key(|&o| rank(o))
            .expect("every leg has a primary copy");
        request_outcome = std::cmp::min_by_key(request_outcome, leg_outcome, |&o| rank(o));
        if leg_outcome == RequestOutcome::Completed {
            let first_finish = leg_copies
                .filter_map(|rec| rec.completion)
                .fold(f64::INFINITY, |f, c| f.min(c.finish_us));
            slowest_finish = slowest_finish.max(first_finish);
        }
    }
    if request_outcome == RequestOutcome::Completed {
        record.finish_us = Some(slowest_finish);
    }
    request_outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use proptest::prelude::*;
    use tensordimm_faults::{GrayRank, NodeOutage, RankOutage};
    use tensordimm_serving::{simulate, zipf_lookup_rows, ArrivalProcess};

    fn model() -> SystemModel {
        SystemModel::paper_defaults()
    }

    fn arrivals(qps: f64, n: usize, seed: u64) -> Vec<f64> {
        ArrivalProcess::Poisson { rate_qps: qps }.sample_arrivals_us(n, seed)
    }

    fn base_cfg(nodes: usize, replication: usize) -> ClusterConfig {
        ClusterConfig::new(
            ShardPlan::hash(nodes, replication).expect("valid"),
            vec![NodeSpec::paper(2); nodes],
            DesignPoint::Tdimm,
            BatchPolicy::new(16, 200.0),
        )
    }

    #[test]
    fn cluster_run_is_deterministic_and_conserved() {
        let m = model();
        let w = Workload::facebook();
        let trace = arrivals(60_000.0, 300, 7);
        let cfg = base_cfg(4, 2)
            .with_retry(RetryPolicy::none().with_deadline(5_000.0))
            .with_admission(AdmissionPolicy::bounded(64));
        let a = simulate_cluster(&m, &w, &cfg, &trace).expect("valid");
        let b = simulate_cluster(&m, &w, &cfg, &trace).expect("valid");
        assert_eq!(a, b, "replays are bit-identical");
        assert!(a.is_conserved());
        assert_eq!(a.offered, 300);
        assert_eq!(a.arrived, 300);
        assert!(a.completed > 0);
        assert!(a.routing.mean_fanout >= 1.0);
        // Worker count must not perturb anything.
        let par = simulate_cluster(&m, &w, &cfg.clone().with_workers(4), &trace).expect("valid");
        assert_eq!(a, par, "bit-identical at any worker count");
    }

    #[test]
    fn inert_cluster_decomposes_into_single_node_runs() {
        let m = model();
        let w = Workload::youtube();
        let trace = arrivals(50_000.0, 200, 11);
        let mut cfg = base_cfg(3, 1).with_failover(FailoverPolicy::None);
        cfg.plan = ShardPlan::round_robin(3, 1).expect("valid");
        let report = simulate_cluster(&m, &w, &cfg, &trace).expect("valid");
        let traces = shard_traces(&cfg, &w, &trace).expect("valid");
        for (node, sub_trace) in traces.iter().enumerate() {
            let independent = simulate(
                &m.clone().with_node_dimms(cfg.nodes[node].dimms),
                &w,
                &shard_sim_config(&cfg, node),
                sub_trace,
            )
            .expect("valid");
            assert_eq!(
                report.shards[node].report, independent,
                "shard {node} must be bit-identical to its independent run"
            );
        }
        // Single-leg requests rejoin at exactly the shard latency.
        for (id, rec) in report.records.iter().enumerate() {
            if rec.fanout == 1 && rec.outcome == Some(RequestOutcome::Completed) {
                assert!(rec.finish_us.expect("completed") > trace[id]);
            }
        }
    }

    #[test]
    fn dead_node_reroutes_to_replicas_or_sheds() {
        let m = model();
        let w = Workload::facebook();
        let trace = arrivals(40_000.0, 150, 3);
        let horizon = *trace.last().expect("nonempty");
        let outage = FaultPlan::none().with_node_outage(NodeOutage {
            start_us: 0.0,
            duration_us: horizon + 1.0,
        });
        // Unreplicated + static routing: every request touching node 0
        // is shed at the router.
        let mut dead0 = base_cfg(3, 1).with_failover(FailoverPolicy::None);
        dead0.nodes[0] = dead0.nodes[0].with_faults(outage);
        let r = simulate_cluster(&m, &w, &dead0, &trace).expect("valid");
        assert!(r.is_conserved());
        assert!(r.routing.router_shed > 0, "dead primary must shed");
        assert!(r.availability < 1.0);
        // Replicated + rerouting: everything still completes; the
        // survivors absorb the load.
        let mut rerouted = base_cfg(3, 2).with_failover(FailoverPolicy::Reroute);
        rerouted.nodes[0] = rerouted.nodes[0].with_faults(outage);
        let r2 = simulate_cluster(&m, &w, &rerouted, &trace).expect("valid");
        assert!(r2.is_conserved());
        assert_eq!(r2.routing.router_shed, 0);
        assert!(r2.routing.rerouted_requests > 0);
        assert_eq!(r2.shards[0].subrequests, 0, "dead node receives nothing");
        assert_eq!(r2.completed, r2.arrived);
    }

    #[test]
    fn fault_free_cluster_reroutes_nothing() {
        // Hot rows load-balance across live replicas, so many requests
        // leave a row's first owner; with every node alive none of that
        // is a reroute.
        let m = model();
        let w = Workload::facebook();
        let trace = arrivals(60_000.0, 200, 17);
        for failover in [FailoverPolicy::Reroute, FailoverPolicy::HedgeDegraded] {
            let mut cfg = base_cfg(4, 2).with_failover(failover);
            cfg.plan = ShardPlan::hot_cold(4, 2, 64).expect("valid");
            let r = simulate_cluster(&m, &w, &cfg, &trace).expect("valid");
            assert!(r.is_conserved());
            assert_eq!(r.routing.rerouted_requests, 0, "{failover:?}");
            assert!(r.records.iter().all(|rec| !rec.rerouted), "{failover:?}");
        }
    }

    #[test]
    fn hedging_duplicates_legs_on_degraded_shards() {
        let m = model();
        let w = Workload::facebook();
        let trace = arrivals(40_000.0, 120, 5);
        let horizon = *trace.last().expect("nonempty");
        // Node 0 limps through the whole run with a rank out.
        let degraded = FaultPlan::none().with_rank_outage(RankOutage {
            rank: 0,
            start_us: 0.0,
            duration_us: horizon + 1.0,
        });
        let mut cfg = base_cfg(3, 2).with_failover(FailoverPolicy::HedgeDegraded);
        cfg.nodes[0] = cfg.nodes[0].with_faults(degraded);
        let r = simulate_cluster(&m, &w, &cfg, &trace).expect("valid");
        assert!(r.is_conserved());
        assert!(r.routing.hedge_subrequests > 0, "degraded shard is hedged");
        assert!(r.records.iter().any(|rec| rec.hedged));
        // Without hedging the same cluster routes strictly fewer subs.
        let plain = simulate_cluster(
            &m,
            &w,
            &cfg.clone().with_failover(FailoverPolicy::Reroute),
            &trace,
        )
        .expect("valid");
        assert!(plain.routing.subrequests < r.routing.subrequests);
        assert_eq!(plain.routing.hedge_subrequests, 0);
    }

    /// A route as the per-request router built it: its own leg vector.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct OracleRoute {
        legs: Vec<Leg>,
        router_shed: bool,
        rerouted: bool,
    }

    fn in_windows(windows: &[(f64, f64)], t: f64) -> bool {
        let i = windows.partition_point(|w| w.1 <= t);
        windows.get(i).is_some_and(|w| w.0 <= t)
    }

    /// The per-request router [`Router`] replaced, kept as its oracle: a
    /// fresh sampler, row vector and owner set per request, one leg
    /// vector per route, and binary-searched health windows queried per
    /// owner.
    fn oracle_route_requests(
        cfg: &ClusterConfig,
        rows_per_table: u64,
        arrivals_us: &[f64],
        health: &[NodeHealth],
    ) -> (Vec<OracleRoute>, RoutingStats) {
        let dead_at = |node: ShardId, t: f64| in_windows(&health[node].dead.windows, t);
        let degraded_at = |node: ShardId, t: f64| in_windows(&health[node].degraded.windows, t);
        let mut routes = Vec::with_capacity(arrivals_us.len());
        let mut stats = RoutingStats::default();
        let mut routed_requests = 0usize;
        let mut fanout_sum = 0usize;
        let mut live: Vec<ShardId> = Vec::new();
        let mut primaries: Vec<ShardId> = Vec::new();
        let mut hedges: Vec<(ShardId, ShardId)> = Vec::new();
        for (id, &t) in arrivals_us.iter().enumerate() {
            let mut rows = zipf_lookup_rows(
                cfg.routing_lookups,
                rows_per_table,
                cfg.zipf_s,
                cfg.lookup_seed ^ mix(id as u64),
            );
            rows.sort_unstable();
            rows.dedup();
            let spread = mix(cfg.lookup_seed ^ mix(id as u64 ^ 0x10d7));
            let mut route = OracleRoute::default();
            primaries.clear();
            hedges.clear();
            'rows: for &row in rows.iter().rev() {
                let owners = cfg.plan.owners(row);
                let target = match cfg.failover {
                    FailoverPolicy::None => {
                        let primary = owners[0];
                        if dead_at(primary, t) {
                            route.router_shed = true;
                            break 'rows;
                        }
                        primary
                    }
                    FailoverPolicy::Reroute | FailoverPolicy::HedgeDegraded => {
                        live.clear();
                        live.extend(owners.iter().copied().filter(|&o| !dead_at(o, t)));
                        if live.is_empty() {
                            route.router_shed = true;
                            break 'rows;
                        }
                        let chosen = if cfg.plan.is_hot(row) {
                            match live.iter().copied().find(|o| primaries.contains(o)) {
                                Some(o) => {
                                    stats.affinity_hits += 1;
                                    o
                                }
                                None => live[(spread % live.len() as u64) as usize],
                            }
                        } else {
                            live[0]
                        };
                        if dead_at(owners[0], t) {
                            route.rerouted = true;
                        }
                        chosen
                    }
                };
                if !primaries.contains(&target) {
                    primaries.push(target);
                    if cfg.failover == FailoverPolicy::HedgeDegraded && degraded_at(target, t) {
                        let alt = owners
                            .iter()
                            .copied()
                            .find(|&o| o != target && !dead_at(o, t));
                        if let Some(h) = alt {
                            hedges.push((target, h));
                        }
                    }
                }
            }
            if route.router_shed {
                stats.router_shed += 1;
                route.legs.clear();
            } else {
                route.legs = primaries
                    .iter()
                    .map(|&p| Leg::new(p, hedges.iter().find(|(lp, _)| *lp == p).map(|&(_, h)| h)))
                    .collect();
                routed_requests += 1;
                fanout_sum += route.legs.len();
                stats.subrequests += route
                    .legs
                    .iter()
                    .map(|l| 1 + usize::from(l.hedge().is_some()))
                    .sum::<usize>();
                stats.hedge_subrequests +=
                    route.legs.iter().filter(|l| l.hedge().is_some()).count();
                if route.rerouted {
                    stats.rerouted_requests += 1;
                }
            }
            routes.push(route);
        }
        stats.mean_fanout = if routed_requests > 0 {
            fanout_sum as f64 / routed_requests as f64
        } else {
            0.0
        };
        (routes, stats)
    }

    /// The scan-based rejoin the cursor rejoin replaced, kept as its
    /// oracle: every copy of a request is tagged `(shard, outcome,
    /// finish, is_hedge)`, and each leg scans the request's copies for
    /// its primary copy and the hedge copies on its hedge shard.
    fn scan_rejoin(
        legs: &[Leg],
        sub_outcomes: &[(ShardId, Option<RequestOutcome>, Option<f64>, bool)],
        record: &mut ClusterRecord,
    ) -> Option<RequestOutcome> {
        let mut request_outcome = RequestOutcome::Completed;
        let mut slowest_finish = 0.0f64;
        for leg in legs {
            let mut leg_outcome: Option<RequestOutcome> = None;
            let mut leg_finish: Option<f64> = None;
            for &(shard, outcome, finish, is_hedge) in sub_outcomes {
                let belongs = (shard == leg.primary() && !is_hedge)
                    || (Some(shard) == leg.hedge() && is_hedge);
                if !belongs {
                    continue;
                }
                let o = outcome.expect("in-window sub-request resolves");
                if o == RequestOutcome::Completed {
                    let f = finish.expect("completed sub has a finish");
                    leg_finish = Some(leg_finish.map_or(f, |cur: f64| cur.min(f)));
                    leg_outcome = Some(RequestOutcome::Completed);
                } else if leg_outcome != Some(RequestOutcome::Completed) {
                    let better = leg_outcome.is_none_or(|cur| rank(o) > rank(cur));
                    if better {
                        leg_outcome = Some(o);
                    }
                }
            }
            let o = leg_outcome.expect("every leg has at least one sub-request");
            if rank(o) < rank(request_outcome) {
                request_outcome = o;
            }
            if let Some(f) = leg_finish {
                slowest_finish = slowest_finish.max(f);
            }
        }
        if request_outcome == RequestOutcome::Completed {
            record.finish_us = Some(slowest_finish);
        }
        Some(request_outcome)
    }

    #[test]
    fn cursor_rejoin_matches_the_scan_oracle() {
        let m = model();
        let w = Workload::facebook();
        let trace = arrivals(150_000.0, 400, 21);
        let end = *trace.last().expect("nonempty");
        // Nodes 0-2 limp with a rank out (their legs hedge); node 3 dies
        // for a stretch (its legs reroute).
        let limping = FaultPlan::none().with_rank_outage(RankOutage {
            rank: 0,
            start_us: 0.0,
            duration_us: end + 1.0,
        });
        let mut cfg = base_cfg(4, 2)
            .with_failover(FailoverPolicy::HedgeDegraded)
            .with_horizon(trace[300])
            .with_retry(RetryPolicy::none().with_deadline(2_000.0))
            .with_admission(AdmissionPolicy::bounded(16))
            .with_lookups(4, 0.9, 7);
        cfg.plan = ShardPlan::hot_cold(4, 2, 4_096).expect("valid");
        for node in &mut cfg.nodes[..3] {
            *node = node.with_faults(limping);
        }
        cfg.nodes[3] = cfg.nodes[3].with_faults(FaultPlan::none().with_node_outage(NodeOutage {
            start_us: end / 4.0,
            duration_us: end / 4.0,
        }));
        let report = simulate_cluster(&m, &w, &cfg, &trace).expect("valid");
        assert!(report.is_conserved());
        assert!(report.not_arrived() > 0, "the horizon cuts arrivals off");

        let health = node_healths(&cfg, &trace).expect("valid");
        let (routes, legs, _) = route_requests(&cfg, w.rows_per_table, &trace, health);
        let hedge_on = |r: &Route, shard: ShardId| {
            r.legs(&legs)
                .iter()
                .filter(|l| l.hedge() == Some(shard))
                .count()
        };
        assert!(
            routes
                .iter()
                .any(|r| r.legs(&legs).iter().any(|l| hedge_on(r, l.primary()) > 0)),
            "some hedge must land on another leg's primary shard"
        );
        assert!(
            routes
                .iter()
                .any(|r| (0..cfg.plan.nodes()).any(|s| hedge_on(r, s) > 1)),
            "some request must hedge two legs onto one shard"
        );
        // Tag every sub-request with (request, is_hedge) in dispatch
        // order, then key each shard record back to its request.
        let mut tagged: Vec<Vec<(usize, bool)>> = vec![Vec::new(); cfg.plan.nodes()];
        for (id, route) in routes.iter().enumerate() {
            for leg in route.legs(&legs) {
                tagged[leg.primary()].push((id, false));
                if let Some(h) = leg.hedge() {
                    tagged[h].push((id, true));
                }
            }
        }
        let mut subs = vec![Vec::new(); trace.len()];
        for (node, tags) in tagged.iter().enumerate() {
            for (local, &(id, is_hedge)) in tags.iter().enumerate() {
                let rec = &report.shards[node].report.records[local];
                let finish = rec.completion.map(|c| c.finish_us);
                subs[id].push((node, rec.outcome, finish, is_hedge));
            }
        }
        let horizon = cfg.horizon_us.expect("set");
        let oracle: Vec<ClusterRecord> = routes
            .iter()
            .enumerate()
            .map(|(id, route)| {
                let mut record = ClusterRecord {
                    arrival_us: trace[id],
                    outcome: None,
                    finish_us: None,
                    fanout: route.end - route.start,
                    rerouted: route.rerouted,
                    hedged: route.legs(&legs).iter().any(|l| l.hedge().is_some()),
                };
                if trace[id] <= horizon {
                    record.outcome = if route.router_shed {
                        Some(RequestOutcome::Shed)
                    } else {
                        scan_rejoin(route.legs(&legs), &subs[id], &mut record)
                    };
                }
                record
            })
            .collect();
        // Debug prints every f64 in its shortest round-trip form, so equal
        // strings are equal bits.
        assert_eq!(format!("{oracle:?}"), format!("{:?}", report.records));
        assert!(report.outcomes.completed > 0 && report.outcomes.total() > report.completed);
    }

    #[test]
    fn horizon_cut_conserves() {
        let m = model();
        let w = Workload::ncf();
        let trace = arrivals(80_000.0, 200, 13);
        let mid = trace[99];
        let cfg = base_cfg(2, 2)
            .with_horizon(mid)
            .with_retry(RetryPolicy::none().with_deadline(3_000.0));
        let r = simulate_cluster(&m, &w, &cfg, &trace).expect("valid");
        assert!(r.is_conserved());
        assert!(r.not_arrived() > 0, "the cut must strand arrivals");
        assert_eq!(r.arrived + r.not_arrived(), 200);
        assert!(r
            .records
            .iter()
            .filter(|rec| rec.arrival_us > mid)
            .all(|rec| rec.outcome.is_none()));
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let m = model();
        let w = Workload::ncf();
        let reject = |cfg: ClusterConfig, parameter: &'static str| {
            assert_eq!(
                simulate_cluster(&m, &w, &cfg, &[0.0]),
                Err(ClusterError::InvalidConfig { parameter }),
                "{parameter}"
            );
        };
        let mut wrong_len = base_cfg(3, 1);
        wrong_len.nodes.pop();
        reject(wrong_len, "nodes.len");
        let mut no_gpus = base_cfg(2, 1);
        no_gpus.nodes[1].gpus = 0;
        reject(no_gpus, "node.gpus");
        let mut no_dimms = base_cfg(2, 1);
        no_dimms.nodes[0].dimms = 0;
        reject(no_dimms, "node.dimms");
        reject(base_cfg(2, 1).with_lookups(0, 0.9, 1), "routing_lookups");
        reject(base_cfg(2, 1).with_workers(0), "workers");
        let mut bad_skew = base_cfg(2, 1);
        bad_skew.zipf_s = f64::NAN;
        reject(bad_skew, "zipf_s");
        // An empty table has no row to route, at either skew; both entry
        // points refuse it before the sampler runs.
        let mut empty = Workload::ncf();
        empty.rows_per_table = 0;
        for zipf_s in [0.0, 0.9] {
            let cfg = base_cfg(2, 1).with_lookups(4, zipf_s, 1);
            let parameter = "workload.rows_per_table";
            assert_eq!(
                simulate_cluster(&m, &empty, &cfg, &[0.0]),
                Err(ClusterError::InvalidConfig { parameter }),
                "zipf_s = {zipf_s}"
            );
            assert_eq!(
                shard_traces(&cfg, &empty, &[0.0]),
                Err(ClusterError::InvalidConfig { parameter }),
                "zipf_s = {zipf_s}"
            );
        }
        // Legs store shard ids as `u32` with `u32::MAX` reserved, so a
        // plan that wide is refused up front.
        assert_eq!(
            ShardPlan::hash(u32::MAX as usize, 1),
            Err(ClusterError::InvalidConfig { parameter: "nodes" })
        );
        // Trace and per-shard errors wrap as Shard.
        assert!(matches!(
            simulate_cluster(&m, &w, &base_cfg(2, 1), &[1.0, 0.5]),
            Err(ClusterError::Shard(SimError::BadArrival { index: 1 }))
        ));
        let mut wide_gpus = base_cfg(2, 1);
        wide_gpus.nodes[0].gpus = u32::MAX as usize + 1;
        assert_eq!(
            simulate_cluster(&m, &w, &wide_gpus, &[0.0]),
            Err(ClusterError::Shard(SimError::InvalidConfig {
                parameter: "gpus"
            }))
        );
        assert!(!ClusterError::InvalidConfig { parameter: "nodes" }
            .to_string()
            .is_empty());
    }

    #[test]
    fn health_windows_fold_schedules() {
        let plan = FaultPlan::none()
            .with_node_outage(NodeOutage {
                start_us: 100.0,
                duration_us: 50.0,
            })
            .with_rank_outage(RankOutage {
                rank: 0,
                start_us: 300.0,
                duration_us: 100.0,
            });
        // The cursors answer queries at non-decreasing times.
        let mut h = NodeHealth::from_plan(&plan, 1_000.0).expect("valid");
        assert!(!h.dead.contains(99.9) && h.dead.contains(100.0) && h.dead.contains(149.9));
        assert!(h.dead.contains(149.9), "a repeated instant reads the same");
        assert!(
            !h.dead.contains(150.0),
            "half-open: repaired at the boundary"
        );
        assert!(!h.degraded.contains(120.0), "dead is not degraded");
        assert!(h.degraded.contains(350.0) && !h.degraded.contains(450.0));
        // A cursor jumping past every window lands after the last one.
        let mut jump = NodeHealth::from_plan(&plan, 1_000.0).expect("valid");
        assert!(!jump.dead.contains(500.0) && !jump.degraded.contains(500.0));
        // A 1-DIMM node losing its only rank is dead, not degraded.
        let mut tiny = FaultPlan::none().with_rank_outage(RankOutage {
            rank: 0,
            start_us: 10.0,
            duration_us: 5.0,
        });
        tiny.dimms = 1;
        let mut h1 = NodeHealth::from_plan(&tiny, 100.0).expect("valid");
        assert!(h1.dead.contains(12.0) && !h1.degraded.contains(12.0));
        assert!(!h1.dead.contains(15.0));
    }

    fn grid(k: u32) -> f64 {
        25.0 * f64::from(k)
    }

    /// Arrivals on the 25 µs grid; a gap code of 0 repeats the previous
    /// timestamp.
    fn grid_trace(gaps: &[u8]) -> Vec<f64> {
        let mut t = 0.0;
        gaps.iter()
            .map(|&g| {
                t += grid(u32::from(g));
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

    /// One node's plan, every window on the 25 µs grid so transitions
    /// share instants with each other and with arrivals: a node outage,
    /// two rank outages (all ranks out kills a small node), a gray window
    /// and seeded DIMM faults, each optional.
    fn arb_node_plan() -> impl Strategy<Value = FaultPlan> {
        let window = || (0u32..40, 1u32..20);
        let windows = (
            maybe(window()),
            maybe((0u64..4, window())),
            maybe((0u64..4, window())),
            maybe(window()),
        );
        (1u64..4, windows, maybe((0u64..1_000, 1u32..20, 1u32..40))).prop_map(
            |(dimms, (outage, rank_a, rank_b, gray), dimm_faults)| {
                let mut plan = FaultPlan::none();
                if let Some((seed, gap, repair)) = dimm_faults {
                    plan = FaultPlan::dimm_faults(seed, 0.8);
                    plan.dimm_candidate_gap_us = grid(gap);
                    plan.dimm_repair_us = grid(repair);
                }
                plan.dimms = dimms;
                if let Some((start, len)) = outage {
                    plan = plan.with_node_outage(NodeOutage {
                        start_us: grid(start),
                        duration_us: grid(len),
                    });
                }
                // Windows on one rank may not touch: a second outage of
                // the first window's rank starts after its repair.
                let mut first: Option<(u64, u32)> = None;
                for (rank, (start, len)) in [rank_a, rank_b].into_iter().flatten() {
                    let rank = rank % dimms;
                    let start = match first {
                        Some((r, end)) if r == rank => end + 1 + start,
                        _ => start,
                    };
                    first = Some((rank, start + len));
                    plan = plan.with_rank_outage(RankOutage {
                        rank,
                        start_us: grid(start),
                        duration_us: grid(len),
                    });
                }
                if let Some((start, len)) = gray {
                    plan = plan.with_gray(GrayRank {
                        start_us: grid(start),
                        duration_us: grid(len),
                        latency_multiplier: 2.0,
                    });
                }
                plan
            },
        )
    }

    /// A router config and a table size: every placement, replication
    /// `1..=nodes`, every failover policy, per-node fault plans, an
    /// optional horizon cut, uniform or Zipf rows, 1–32 lookups.
    fn arb_router_config() -> impl Strategy<Value = (ClusterConfig, u64)> {
        let shape = (
            1usize..6,
            0usize..6,
            0u8..4,
            0u64..64,
            prop::collection::vec(1u32..8, 5..6),
        );
        let failover = prop_oneof![
            Just(FailoverPolicy::None),
            Just(FailoverPolicy::Reroute),
            Just(FailoverPolicy::HedgeDegraded)
        ];
        let skew = prop_oneof![Just(0.0), 0.3f64..1.5];
        let lookups = (1usize..33, skew, 0u64..1_000);
        let rows = prop_oneof![1u64..8, 8u64..400, Just(1_000_000_000u64)];
        let plans = prop::collection::vec(arb_node_plan(), 5..6);
        let horizon = maybe(1u32..200);
        (shape, failover, lookups, rows, plans, horizon).prop_map(
            |((nodes, repl, kind, hot_rows, weights), failover, lookups, rows, plans, horizon)| {
                let replication = 1 + repl % nodes;
                let placement = match kind {
                    0 => Placement::Hash,
                    1 => Placement::RoundRobin,
                    2 => Placement::CapacityAware {
                        weights: weights[..nodes].iter().map(|&w| f64::from(w)).collect(),
                    },
                    _ => Placement::HotColdSplit { hot_rows },
                };
                let plan = ShardPlan::new(nodes, replication, placement).expect("valid");
                let specs = plans[..nodes]
                    .iter()
                    .map(|&p| NodeSpec::paper(1).with_faults(p))
                    .collect();
                let (routing_lookups, zipf_s, seed) = lookups;
                let mut cfg =
                    ClusterConfig::new(plan, specs, DesignPoint::Tdimm, BatchPolicy::new(8, 100.0))
                        .with_failover(failover)
                        .with_lookups(routing_lookups, zipf_s, seed);
                if let Some(k) = horizon {
                    cfg = cfg.with_horizon(grid(k));
                }
                (cfg, rows)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The allocation-free router reproduces the per-request oracle:
        /// every route's legs and flags, and the whole `RoutingStats`.
        #[test]
        fn router_matches_the_per_request_oracle(
            spec in arb_router_config(),
            gaps in prop::collection::vec(0u8..4, 1..200),
        ) {
            let (cfg, rows) = spec;
            let arrivals = grid_trace(&gaps);
            let health = node_healths(&cfg, &arrivals).expect("valid plans");
            let (oracle, oracle_stats) = oracle_route_requests(&cfg, rows, &arrivals, &health);
            let (routes, legs, stats) = route_requests(&cfg, rows, &arrivals, health);
            prop_assert_eq!(routes.len(), oracle.len());
            for (route, want) in routes.iter().zip(&oracle) {
                prop_assert_eq!(route.legs(&legs), &want.legs[..]);
                prop_assert_eq!(route.router_shed, want.router_shed);
                prop_assert_eq!(route.rerouted, want.rerouted);
            }
            prop_assert_eq!(routes.last().map_or(0, |r| r.end as usize), legs.len());
            // Debug prints f64 in shortest round-trip form: equal bits.
            prop_assert_eq!(format!("{stats:?}"), format!("{oracle_stats:?}"));
        }
    }

    /// The proptest's configs reach every router path: sheds, reroutes,
    /// hedges, hot-row affinity and duplicate arrival times.
    #[test]
    fn router_oracle_configs_reach_every_path() {
        use proptest::test_runner::{Prng, SeedableRng};
        let mut rng = Prng::seed_from_u64(7);
        let configs = arb_router_config();
        let traces = prop::collection::vec(0u8..4, 1..200);
        let mut seen = RoutingStats::default();
        let mut duplicate_instants = false;
        for _ in 0..128 {
            let (cfg, rows) = configs.sample(&mut rng);
            let arrivals = grid_trace(&traces.sample(&mut rng));
            duplicate_instants |= arrivals.windows(2).any(|w| w[0] == w[1]);
            let health = node_healths(&cfg, &arrivals).expect("valid plans");
            let (_, _, stats) = route_requests(&cfg, rows, &arrivals, health);
            seen.router_shed += stats.router_shed;
            seen.rerouted_requests += stats.rerouted_requests;
            seen.hedge_subrequests += stats.hedge_subrequests;
            seen.affinity_hits += stats.affinity_hits;
        }
        assert!(duplicate_instants);
        assert!(seen.router_shed > 0, "{seen:?}");
        assert!(seen.rerouted_requests > 0, "{seen:?}");
        assert!(seen.hedge_subrequests > 0, "{seen:?}");
        assert!(seen.affinity_hits > 0, "{seen:?}");
    }
}
