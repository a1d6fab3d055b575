//! Pluggable batch-pricing backends for the serving layer.
//!
//! The request-level serving simulator prices every sealed batch through a
//! [`BatchPricer`]. Two backends are provided:
//!
//! * [`AnalyticPricer`] — the closed-form model: [`SystemModel::evaluate`]
//!   plus the shared-TensorNode contention math. Fast (µs per price) but
//!   blind to DRAM-level behaviour: its node-side lookup phase is `bytes /
//!   (peak × utilization-constant)`.
//! * [`CyclePricer`] — cycle-calibrated: the batch's embedding gathers are
//!   lowered to a TensorISA `GATHER` access plan over one DIMM's slice
//!   (the batch's own Zipf row draws, via
//!   [`tensordimm_embedding::zipf_lookup_rows`]) and replayed through
//!   [`NmpCore::run_plan`] on the event-driven DRAM engine. The replay's
//!   completion cycles convert to microseconds and replace the analytic
//!   lookup phase, so rank-level parallelism, row-buffer locality and
//!   refresh interference show up in serving tail latency. Replays are
//!   memoized in a latency table keyed by `(workload, batch, dimms)` and
//!   shared across the node designs (which execute the identical gather
//!   pattern — see [`CycleKey`]), so steady-state serving runs pay the
//!   cycle cost once per distinct batch shape.
//!
//! Both backends price through one composition (the Fig. 13 phases, the
//! degraded-node view, the contention model) and differ in one input
//! only: where the node's gather bandwidth comes from. They diverge only
//! where the cycle simulation disagrees with the utilization constants
//! (see `EXPERIMENTS.md`, "Analytic vs cycle-calibrated serving", and the
//! `sweep_backend_compare` binary).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tensordimm_cache::{HotRowCacheConfig, HotRowStats};
use tensordimm_embedding::zipf_lookup_rows;
use tensordimm_interconnect::InterconnectError;
use tensordimm_isa::{AccessPlan, DimmContext, Instruction};
use tensordimm_models::Workload;
use tensordimm_nmp::{NmpConfig, NmpCore, NmpError};

use crate::breakdown::PhaseBreakdown;
use crate::design::DesignPoint;
use crate::model::SystemModel;

/// Which pricing backend a serving run should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PricingBackend {
    /// Closed-form analytic model (the default; fastest).
    #[default]
    Analytic,
    /// Cycle-calibrated: node lookups replayed on the event-driven
    /// DRAM/NMP co-simulator, memoized per batch shape.
    CycleCalibrated,
}

impl PricingBackend {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            PricingBackend::Analytic => "analytic",
            PricingBackend::CycleCalibrated => "cycle-calibrated",
        }
    }

    /// Construct the backend over `model` with a hot-row cache tier in
    /// front of the gather replay ([`HotRowCacheConfig::disabled`] for
    /// none). The analytic backend has no replay and ignores the knob; the
    /// cycle backend folds it into its NMP configuration (and thus into
    /// every [`CycleKey`]).
    ///
    /// # Errors
    ///
    /// Returns what [`CyclePricer::with_config`] finds in the cycle
    /// backend's knobs (an invalid hot-row tier is [`NmpError::Cache`]),
    /// so a bad tier is rejected here rather than at the first replay.
    pub fn build_with_hot_rows<'a>(
        self,
        model: &'a SystemModel,
        hot_rows: HotRowCacheConfig,
    ) -> Result<Box<dyn BatchPricer + 'a>, NmpError> {
        Ok(match self {
            PricingBackend::Analytic => Box::new(AnalyticPricer::new(model)),
            PricingBackend::CycleCalibrated => {
                let mut cfg = CyclePricerConfig::for_model(model);
                cfg.nmp.hot_rows = hot_rows;
                Box::new(CyclePricer::with_config(model, cfg)?)
            }
        })
    }
}

/// The degraded-capacity view of the TensorNode a batch is priced
/// against: how many DIMM ranks are serving, any gray-failure latency
/// inflation, and rows a transient fault forces the batch to re-read.
///
/// [`DegradedNode::healthy`] is the identity: pricing against it is
/// required (and tested) to be bit-identical to the plain
/// [`BatchPricer::price`] path, so fault-aware callers with an empty
/// schedule reproduce fault-free runs exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedNode {
    /// DIMM ranks currently serving (`>= 1`; a node with zero alive
    /// ranks cannot dispatch and is rejected).
    pub dimms_alive: u64,
    /// DIMM ranks configured.
    pub dimms_total: u64,
    /// Gray-failure service-time inflation (`1.0` = healthy; applied to
    /// the whole batch cost without removing capacity).
    pub latency_multiplier: f64,
    /// Rows this batch must re-read after transient faults (charged as
    /// extra gather traffic at the degraded bandwidth).
    pub reread_rows: u64,
}

impl DegradedNode {
    /// The identity view of a `dimms_total`-rank node.
    pub fn healthy(dimms_total: u64) -> Self {
        DegradedNode {
            dimms_alive: dimms_total,
            dimms_total,
            latency_multiplier: 1.0,
            reread_rows: 0,
        }
    }

    /// Whether this view degrades nothing.
    pub fn is_healthy(&self) -> bool {
        self.dimms_alive == self.dimms_total
            && self.latency_multiplier == 1.0
            && self.reread_rows == 0
    }

    /// Surviving fraction of the node's aggregated bandwidth: the
    /// Fig. 7 stripe mapping spreads every gather over all ranks
    /// symmetrically, so `alive/total` of the peak survives.
    pub fn bandwidth_factor(&self) -> f64 {
        self.dimms_alive as f64 / self.dimms_total as f64
    }

    /// Hashable identity for price memoization: two views with equal
    /// fingerprints price identically.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (
            self.dimms_alive,
            self.dimms_total,
            self.latency_multiplier.to_bits(),
            self.reread_rows,
        )
    }

    /// Check the view is priceable.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] when no rank is alive,
    /// `dimms_alive > dimms_total`, or the multiplier is not a finite
    /// value `>= 1`.
    pub fn validate(&self) -> Result<(), InterconnectError> {
        if self.dimms_alive == 0 || self.dimms_alive > self.dimms_total {
            return Err(InterconnectError::InvalidLink {
                parameter: "dimms_alive",
            });
        }
        if !self.latency_multiplier.is_finite() || self.latency_multiplier < 1.0 {
            return Err(InterconnectError::InvalidLink {
                parameter: "latency_multiplier",
            });
        }
        Ok(())
    }
}

/// Prices one dispatched batch at a given concurrency.
///
/// Implementations must be deterministic: the same `(workload, batch,
/// design, active_gpus)` must always return the bit-identical cost, so a
/// serving run replays exactly per seed regardless of backend — *including
/// across threads*. `Send + Sync` is a supertrait so one pricer instance
/// (and its memoized state) can be shared by every worker of a parallel
/// sweep.
pub trait BatchPricer: Send + Sync {
    /// Cost of one `batch`-request batch of `workload` on `design`, with
    /// `active_gpus` GPUs (including this one) concurrently in flight.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] when `active_gpus` is
    /// zero (no backend can price a batch with nothing running it).
    fn price(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        active_gpus: usize,
    ) -> Result<BatchCost, InterconnectError>;

    /// [`BatchPricer::price`] against a degraded TensorNode.
    ///
    /// The default implementation is conservative: for node designs it
    /// scales the healthy cost by `total/alive` (lost ranks slow the
    /// whole batch, not just the node phases) and by the gray multiplier,
    /// and ignores `reread_rows`; non-node designs are unaffected (their
    /// memory paths are not the TensorNode's). The built-in backends
    /// degrade only the node-side phases, and price `price` itself as the
    /// [`DegradedNode::healthy`] view. Every implementation must price a
    /// healthy view bit-identically to `price`.
    ///
    /// # Errors
    ///
    /// As [`price`](BatchPricer::price), plus
    /// [`InterconnectError::InvalidLink`] for an unpriceable view (see
    /// [`DegradedNode::validate`]).
    fn price_degraded(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        active_gpus: usize,
        degraded: DegradedNode,
    ) -> Result<BatchCost, InterconnectError> {
        degraded.validate()?;
        let mut cost = self.price(workload, batch, design, active_gpus)?;
        if is_node_design(design) {
            cost.service_us *= degraded.latency_multiplier / degraded.bandwidth_factor();
        }
        Ok(cost)
    }

    /// Which backend this is.
    fn backend(&self) -> PricingBackend;
}

/// Cost of one batch dispatched to a GPU while `active_gpus` GPUs in total
/// (including this one) are concurrently reading from the shared TensorNode.
///
/// This is the per-batch unit the request-level serving simulator prices
/// every formed batch with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCost {
    /// Wall-clock time from dispatch to completion, µs.
    pub service_us: f64,
    /// Whether the node's switch port (rather than its internal DRAM
    /// bandwidth) is the binding shared resource.
    pub port_bound: bool,
}

/// Whether `design` reads its embeddings from the TensorNode.
fn is_node_design(design: DesignPoint) -> bool {
    matches!(design, DesignPoint::Pmem | DesignPoint::Tdimm)
}

/// The shared-node contention math over a solo per-phase breakdown.
///
/// For the node-backed designs (`Pmem`, `Tdimm`) the node's internal
/// lookup bandwidth and its single switch port are divided across all
/// `active_gpus`. The remaining designs have no shared TensorNode, so
/// their cost is the solo latency regardless of concurrency (CPU-side
/// contention for `CpuOnly`/`CpuGpu` is not modeled).
///
/// # Errors
///
/// Returns [`InterconnectError::InvalidLink`] when `active_gpus` is zero.
fn contended_cost(
    model: &SystemModel,
    workload: &Workload,
    batch: usize,
    design: DesignPoint,
    active_gpus: usize,
    solo: &PhaseBreakdown,
) -> Result<BatchCost, InterconnectError> {
    if active_gpus == 0 {
        return Err(InterconnectError::InvalidLink {
            parameter: "active_gpus",
        });
    }
    if !is_node_design(design) {
        return Ok(BatchCost {
            service_us: solo.total_us(),
            port_bound: false,
        });
    }
    let bytes = match design {
        DesignPoint::Tdimm => workload.pooled_bytes(batch),
        _ => workload.gathered_bytes(batch),
    };
    // All active GPUs pull their transfer from node port 0 concurrently;
    // the model memoizes the result per (bytes, active_gpus) and prices it
    // on the configured fabric layout (analytic crossbar or a topology).
    let contended_transfer_us = model.contended_node_transfer_us(bytes, active_gpus)?;

    let other_phases_us = solo.lookup_us + solo.dnn_us + solo.other_us;
    // The node-side lookup phase is also shared: N GPUs' gathers divide the
    // node's internal bandwidth.
    let shared_lookup_us = solo.lookup_us * active_gpus as f64;
    // Per-GPU latency: its own compute + the contended transfer; the
    // node-internal phases pipeline across GPUs, so the effective per-round
    // latency is whichever shared resource saturates first.
    let service_us = (other_phases_us + contended_transfer_us)
        .max(shared_lookup_us + solo.dnn_us + solo.other_us);
    Ok(BatchCost {
        service_us,
        port_bound: contended_transfer_us > shared_lookup_us,
    })
}

/// Extra gather traffic of `reread_rows` forced re-reads, priced at the
/// (degraded) effective gather bandwidth.
fn reread_us(workload: &Workload, reread_rows: u64, gather_gbps: f64) -> f64 {
    reread_rows as f64 * workload.embedding_bytes() as f64 / (gather_gbps * 1e3)
}

/// The price composition both built-in backends share. They differ only
/// in where the node's gather bandwidth comes from: `solo_at(f)` is the
/// solo breakdown with the node's bandwidth scaled by `f`, and
/// `gather_gbps_at(f)` the effective gather bandwidth at that scale.
///
/// For node designs the view keeps `alive/total` of the node's bandwidth
/// (the Fig. 7 stripe mapping spreads every gather over all ranks), forced
/// re-reads are charged as extra gather traffic at the degraded bandwidth,
/// and the gray multiplier inflates the contended cost. Non-node designs
/// are unaffected: their memory paths are not the TensorNode's. A healthy
/// view scales by exactly `1.0` and adds nothing, so it prices
/// bit-identically to the fault-free composition.
#[allow(clippy::too_many_arguments)]
fn price_view(
    model: &SystemModel,
    workload: &Workload,
    batch: usize,
    design: DesignPoint,
    active_gpus: usize,
    view: DegradedNode,
    solo_at: impl FnOnce(f64) -> PhaseBreakdown,
    gather_gbps_at: impl FnOnce(f64) -> f64,
) -> Result<BatchCost, InterconnectError> {
    view.validate()?;
    let node = is_node_design(design);
    let factor = if node { view.bandwidth_factor() } else { 1.0 };
    let mut solo = solo_at(factor);
    if node && view.reread_rows > 0 {
        solo.lookup_us += reread_us(workload, view.reread_rows, gather_gbps_at(factor));
    }
    let mut cost = contended_cost(model, workload, batch, design, active_gpus, &solo)?;
    if node {
        cost.service_us *= view.latency_multiplier;
    }
    Ok(cost)
}

/// The closed-form analytic backend: [`SystemModel`]'s solo breakdown at
/// the node's peak × utilization-constant bandwidth, plus the
/// shared-node contention math.
#[derive(Debug, Clone)]
pub struct AnalyticPricer<'a> {
    model: &'a SystemModel,
}

impl<'a> AnalyticPricer<'a> {
    /// An analytic pricer over `model`.
    pub fn new(model: &'a SystemModel) -> Self {
        AnalyticPricer { model }
    }
}

impl BatchPricer for AnalyticPricer<'_> {
    fn price(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        active_gpus: usize,
    ) -> Result<BatchCost, InterconnectError> {
        let healthy = DegradedNode::healthy(self.model.node_dimms());
        self.price_degraded(workload, batch, design, active_gpus, healthy)
    }

    /// The node-side phases are re-evaluated at the surviving fraction of
    /// the node's peak bandwidth.
    fn price_degraded(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        active_gpus: usize,
        degraded: DegradedNode,
    ) -> Result<BatchCost, InterconnectError> {
        let cfg = self.model.config();
        let utilization = match design {
            DesignPoint::Pmem => cfg.pmem_read_utilization,
            _ => cfg.node_gather_utilization,
        };
        price_view(
            self.model,
            workload,
            batch,
            design,
            active_gpus,
            degraded,
            |f| {
                self.model
                    .evaluate_with_node_peak(workload, batch, design, cfg.node_peak_gbps * f)
            },
            |f| cfg.node_peak_gbps * f * utilization,
        )
    }

    fn backend(&self) -> PricingBackend {
        PricingBackend::Analytic
    }
}

/// Knobs of the cycle-calibrated backend.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclePricerConfig {
    /// The NMP core (and its local DRAM channel) each replay runs on.
    pub nmp: NmpConfig,
    /// DIMMs in the TensorNode (32 for the paper's Table 1 node); one
    /// DIMM's symmetric slice is replayed and scaled by this count.
    pub dimms: u64,
    /// Cap on gather lookups replayed per measurement. Batches whose
    /// traffic exceeds the cap are measured on a prefix — bandwidth, not
    /// absolute latency, is what the replay calibrates, and DDR4 gather
    /// streams reach steady state within a few hundred lookups.
    pub max_replayed_lookups: usize,
}

impl CyclePricerConfig {
    /// The calibration setup of `EXPERIMENTS.md`: the paper's NMP core
    /// with trace-replay DRAM queue depths (the reorder window a
    /// Ramulator-style replay enjoys — the same deepening
    /// `bench::traffic` applies when measuring the analytic constants),
    /// 32 DIMMs, 2 000-lookup replay cap (matching the analytic model's
    /// `gather_sim_lookups`).
    pub fn paper_defaults() -> Self {
        let mut nmp = NmpConfig::paper();
        nmp.dram.read_queue_depth = 256;
        nmp.dram.write_queue_depth = 256;
        nmp.dram.write_high_watermark = 192;
        nmp.dram.write_low_watermark = 64;
        CyclePricerConfig {
            nmp,
            dimms: 32,
            max_replayed_lookups: 2000,
        }
    }

    /// [`CyclePricerConfig::paper_defaults`] replaying `model`'s TensorNode:
    /// `dimms` is [`SystemModel::node_dimms`], so a capacity-sliced node
    /// measures its own per-DIMM slice instead of the 32-DIMM paper node's.
    pub fn for_model(model: &SystemModel) -> Self {
        CyclePricerConfig {
            dimms: model.node_dimms(),
            ..CyclePricerConfig::paper_defaults()
        }
    }

    /// The exact gather this configuration replays for `(workload, batch)`
    /// at Zipf skew `zipf_s`: the lowered instruction, its runtime index
    /// list and the per-DIMM context. This *is* the trace
    /// [`CyclePricer`] measures — exposed so static-analysis gates
    /// (`sweep_static_check`) can verify and lower-bound the same plan the
    /// pricer prices, without re-deriving the lowering recipe.
    pub fn lowered_gather(
        &self,
        zipf_s: f64,
        workload: &Workload,
        batch: usize,
    ) -> (Instruction, Vec<u64>, DimmContext) {
        let dimms = self.dimms.max(1);
        let vec_blocks = workload.embedding_bytes().div_ceil(64);
        // Whole-stripe padding, as the node's allocator provisions.
        let vb = vec_blocks.div_ceil(dimms) * dimms;
        // `.max(1)` guards a zero cap (and a zero-lookup workload): the
        // measurement always replays at least one gather.
        let lookups = (batch.max(1) as u64 * workload.lookups_per_sample())
            .min(self.max_replayed_lookups as u64)
            .max(1);
        let rows = workload.rows_per_table.max(1);
        // Deterministic per batch shape: the trace is part of the key.
        let seed = 0xc1c1e ^ (batch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rows;
        let indices = zipf_lookup_rows(lookups as usize, rows, zipf_s, seed);
        // Distinct stripe-aligned operand regions (block addresses); the
        // NMP-local address map folds them into DIMM capacity.
        let region = (rows.max(lookups) + 1) * vb;
        let instr = Instruction::Gather {
            table_base: 0,
            idx_base: 3 * region,
            output_base: region,
            count: lookups,
            vec_blocks: vb,
        };
        (instr, indices, DimmContext::new(dimms, 0))
    }
}

impl Default for CyclePricerConfig {
    fn default() -> Self {
        CyclePricerConfig::paper_defaults()
    }
}

/// Latency-table key: which measurements are interchangeable. Workloads
/// are fingerprinted by every field the gather trace depends on, so e.g.
/// a `scaled_embeddings` variant never aliases its base workload. The
/// design point is deliberately *not* part of the key: PMEM's NMP-less
/// remote reads execute the identical gather access pattern on the same
/// DIMMs (only the consumer differs — see EXPERIMENTS.md), so PMEM and
/// TDIMM share one measurement instead of paying two identical replays.
/// The final field is the hot-row cache fingerprint
/// ([`HotRowCacheConfig::fingerprint`]): bandwidth measured with a cache
/// in front of DRAM must never alias an uncached measurement.
pub type CycleKey = (u64, u64, u64, usize, u64, u64);

/// One memoized replay: the measured aggregate bandwidth plus the hot-row
/// cache counters of the replay that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleMeasure {
    /// Aggregate delivered node gather bandwidth, GB/s.
    pub gbps: f64,
    /// Hot-row cache counters of the replay (zero when disabled).
    pub hot_rows: HotRowStats,
}

fn workload_fingerprint(w: &Workload) -> (u64, u64, u64) {
    (
        w.embedding_bytes(),
        w.lookups_per_sample(),
        w.rows_per_table,
    )
}

/// The cycle-calibrated backend.
///
/// Holds an interior-mutable memoized latency table tied to the
/// `(SystemModel, CyclePricerConfig)` pair the pricer was built over. Both
/// are fixed for the pricer's lifetime: the model is borrowed immutably
/// and the knobs enter only through [`CyclePricer::new`] /
/// [`CyclePricer::with_config`], so a memoized measurement can never go
/// stale. A different configuration is a different pricer.
///
/// The pricer is `Sync`: one instance can serve every worker of a
/// parallel sweep. The table's mutex is held only for map probes and each
/// entry is a [`OnceLock`] cell, so cold misses for distinct keys replay
/// concurrently while concurrent misses for the *same* key serialize
/// behind exactly one replay
/// ([`CyclePricer::replay_count`] counts them; see the concurrent-warm
/// stress tests).
pub struct CyclePricer<'a> {
    model: &'a SystemModel,
    config: CyclePricerConfig,
    /// Memoized replay measurements keyed by `(workload fingerprint,
    /// batch, dimms, hot-row fingerprint)` (shared by the node designs —
    /// see [`CycleKey`]). Each entry is a per-key [`OnceLock`] cell:
    /// concurrent cold misses on the *same* key block on one replay
    /// instead of duplicating it. The mutex is held only for the map
    /// probe, never across a replay.
    table: Mutex<BTreeMap<CycleKey, Arc<OnceLock<CycleMeasure>>>>,
    /// Cold replays performed over this pricer's lifetime (monotone).
    replays: AtomicU64,
}

impl<'a> CyclePricer<'a> {
    /// A cycle-calibrated pricer over `model` with
    /// [`CyclePricerConfig::for_model`].
    pub fn new(model: &'a SystemModel) -> Self {
        // The paper's replay knobs are valid by construction.
        CyclePricer::unvalidated(model, CyclePricerConfig::for_model(model))
    }

    /// A pricer with explicit knobs.
    ///
    /// # Errors
    ///
    /// Returns what [`NmpConfig::validate`] finds in `config.nmp`, which
    /// every cold replay would otherwise trip over.
    pub fn with_config(
        model: &'a SystemModel,
        config: CyclePricerConfig,
    ) -> Result<Self, NmpError> {
        config.nmp.validate()?;
        Ok(CyclePricer::unvalidated(model, config))
    }

    fn unvalidated(model: &'a SystemModel, config: CyclePricerConfig) -> Self {
        CyclePricer {
            model,
            config,
            table: Mutex::new(BTreeMap::new()),
            replays: AtomicU64::new(0),
        }
    }

    /// The knobs in use.
    pub fn config(&self) -> CyclePricerConfig {
        self.config.clone()
    }

    /// Entries currently memoized (initialized cells only).
    pub fn cached_entries(&self) -> usize {
        self.cached_table().len()
    }

    /// Snapshot of the memoized latency table, sorted by key — the
    /// bit-identity witness the thread-count-invariance tests compare.
    pub fn cached_table(&self) -> Vec<(CycleKey, f64)> {
        self.cached_measures()
            .into_iter()
            .map(|(k, m)| (k, m.gbps))
            .collect()
    }

    /// Snapshot of the hot-row cache counters behind each memoized
    /// measurement, sorted by key (all-zero stats when the cache is
    /// disabled) — what the serving sweeps aggregate hit rates from.
    pub fn cached_hot_row_table(&self) -> Vec<(CycleKey, HotRowStats)> {
        self.cached_measures()
            .into_iter()
            .map(|(k, m)| (k, m.hot_rows))
            .collect()
    }

    fn cached_measures(&self) -> Vec<(CycleKey, CycleMeasure)> {
        let table = self.table.lock().expect("table lock");
        table
            .iter()
            .filter_map(|(k, cell)| cell.get().map(|&v| (*k, v)))
            .collect()
    }

    /// Cold replays performed so far (monotone over the pricer's
    /// lifetime). `warm`/`price` calls served from the table do not move
    /// it; the concurrent-warm stress test pins it to the number of
    /// *distinct* keys.
    pub fn replay_count(&self) -> u64 {
        self.replays.load(Ordering::SeqCst)
    }

    /// Replay every distinct batch shape in `shapes` concurrently on up
    /// to `workers` threads, filling the latency table so later
    /// (sequential or parallel) pricing is served from memo hits. Returns
    /// the number of fresh measurements *this call's* closures performed —
    /// a key measured by a racing `price`/`warm` on another thread counts
    /// toward that caller, not this one (the global tally is
    /// [`CyclePricer::replay_count`]).
    ///
    /// Shapes that alias the same [`CycleKey`] (duplicates, or workloads
    /// with identical gather fingerprints) share one per-key [`OnceLock`]
    /// cell, as do racing external `price` calls: only the closure that
    /// fills a cell replays and counts, so warming is idempotent and never
    /// measures a key twice.
    pub fn warm(&self, shapes: &[(Workload, usize)], workers: usize) -> u64 {
        let fresh = AtomicU64::new(0);
        tensordimm_exec::par_map(shapes, workers, |_, (w, batch)| {
            self.measured_counted(w, *batch, Some(&fresh));
        });
        fresh.load(Ordering::SeqCst)
    }

    /// Measured aggregate TensorNode gather bandwidth for this batch
    /// shape, GB/s (memoized; both node designs share the measurement —
    /// see [`CycleKey`]). Replays one DIMM's slice of the batch's
    /// `GATHER` — the batch's own Zipf row draws over the workload's
    /// tables — through the NMP core on the event-driven DRAM path, and
    /// scales by the DIMM count (slices are symmetric under the Fig. 7
    /// stripe mapping).
    pub fn measured_node_gbps(&self, workload: &Workload, batch: usize) -> f64 {
        self.measured_counted(workload, batch, None).gbps
    }

    /// The hot-row cache counters of this batch shape's (memoized)
    /// replay — all zero when the cache is disabled. Shares the memo cell
    /// with [`CyclePricer::measured_node_gbps`], so asking for the stats
    /// never pays a second replay.
    pub fn measured_hot_rows(&self, workload: &Workload, batch: usize) -> HotRowStats {
        self.measured_counted(workload, batch, None).hot_rows
    }

    /// The memoized measurement, also bumping `fresh` when the replay was
    /// performed by *this* call (rather than served from the table or a
    /// racing initializer).
    fn measured_counted(
        &self,
        workload: &Workload,
        batch: usize,
        fresh: Option<&AtomicU64>,
    ) -> CycleMeasure {
        let (emb, lps, rows) = workload_fingerprint(workload);
        let key = (
            emb,
            lps,
            rows,
            batch,
            self.config.dimms,
            self.config.nmp.hot_rows.fingerprint(),
        );
        let cell = {
            let mut table = self.table.lock().expect("table lock");
            Arc::clone(table.entry(key).or_default())
        };
        // The replay runs outside the table mutex: other keys proceed in
        // parallel.
        *cell.get_or_init(|| {
            self.replays.fetch_add(1, Ordering::SeqCst);
            if let Some(f) = fresh {
                f.fetch_add(1, Ordering::SeqCst);
            }
            self.replay_gather(workload, batch)
        })
    }

    /// Cold replay: cycles on one DIMM → aggregate node GB/s plus the
    /// replay's hot-row cache counters.
    fn replay_gather(&self, workload: &Workload, batch: usize) -> CycleMeasure {
        let config = &self.config;
        let dimms = config.dimms.max(1);
        let (instr, indices, ctx) =
            config.lowered_gather(self.model.config().zipf_s, workload, batch);
        let plan = AccessPlan::for_dimm(&instr, ctx, Some(&indices))
            .expect("generated gather plan is valid");
        let mut core = NmpCore::new(config.nmp.clone()).expect("pricer NMP config is valid");
        let stats = core
            .run_plan(&instr, &plan, ctx)
            .expect("pricer DRAM config is valid");
        // Delivered bandwidth: DRAM traffic plus SRAM-served hit blocks —
        // identical to `achieved_gbps` when the hot-row cache is disabled.
        CycleMeasure {
            gbps: stats.delivered_gbps() * dimms as f64,
            hot_rows: stats.hot_rows,
        }
    }

    /// The solo per-phase breakdown with the node-side gather phase
    /// re-priced at the measured bandwidth (non-node designs return the
    /// analytic breakdown unchanged — their memory paths are not the
    /// TensorNode's and keep the analytic model).
    ///
    /// `bw_factor` scales the node's effective bandwidth — both the
    /// analytic baseline and the measured gather term — for degraded
    /// pricing: each surviving rank delivers what the replay measured for
    /// it, there are just fewer of them aggregating. The healthy path
    /// passes `1.0`, which is exact (multiplying by `1.0` is the
    /// floating-point identity), so degraded support costs the fault-free
    /// path nothing.
    fn calibrated_solo(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        bw_factor: f64,
    ) -> PhaseBreakdown {
        let cfg = self.model.config();
        let node_peak = cfg.node_peak_gbps * bw_factor;
        let mut solo = self
            .model
            .evaluate_with_node_peak(workload, batch, design, node_peak);
        if !is_node_design(design) {
            return solo;
        }
        let measured_gbps = self.measured_node_gbps(workload, batch) * bw_factor;
        let gathered = workload.gathered_bytes(batch) as f64;
        let us_per_byte = |gbps: f64| 1.0 / (gbps * 1e3);
        // Swap the analytic gather term for the measured one; the
        // streaming-pool, dispatch-overhead and transfer terms are left
        // analytic (the replay calibrates the gather pattern only).
        let (analytic_gather_us, measured_gather_us) = match design {
            DesignPoint::Pmem => (
                gathered * us_per_byte(node_peak * cfg.pmem_read_utilization),
                gathered * us_per_byte(measured_gbps),
            ),
            _ => {
                let passes = if cfg.fused_gather_pool { 1.0 } else { 2.0 };
                (
                    passes * gathered * us_per_byte(node_peak * cfg.node_gather_utilization),
                    passes * gathered * us_per_byte(measured_gbps),
                )
            }
        };
        solo.lookup_us = (solo.lookup_us - analytic_gather_us + measured_gather_us).max(0.0);
        solo
    }
}

impl BatchPricer for CyclePricer<'_> {
    fn price(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        active_gpus: usize,
    ) -> Result<BatchCost, InterconnectError> {
        let healthy = DegradedNode::healthy(self.model.node_dimms());
        self.price_degraded(workload, batch, design, active_gpus, healthy)
    }

    /// The memoized per-rank measurement is reused (per-rank bandwidth
    /// does not change when a *different* rank dies — the aggregate just
    /// sums fewer ranks), scaled by `alive/total`.
    fn price_degraded(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        active_gpus: usize,
        degraded: DegradedNode,
    ) -> Result<BatchCost, InterconnectError> {
        price_view(
            self.model,
            workload,
            batch,
            design,
            active_gpus,
            degraded,
            |f| self.calibrated_solo(workload, batch, design, f),
            |f| self.measured_node_gbps(workload, batch) * f,
        )
    }

    fn backend(&self) -> PricingBackend {
        PricingBackend::CycleCalibrated
    }
}

impl std::fmt::Debug for CyclePricer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CyclePricer")
            .field("config", &self.config)
            .field("cached_entries", &self.cached_entries())
            .field("replay_count", &self.replay_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small replay cap keeps the debug-build tests quick; bandwidth
    /// reaches steady state well before the cap.
    fn quick_pricer(model: &SystemModel) -> CyclePricer<'_> {
        let mut cfg = CyclePricerConfig::paper_defaults();
        cfg.max_replayed_lookups = 256;
        CyclePricer::with_config(model, cfg).expect("valid replay config")
    }

    #[test]
    fn cache_hit_is_bit_identical_to_cold_replay() {
        let model = SystemModel::paper_defaults();
        let warm = quick_pricer(&model);
        let w = Workload::youtube();
        let cold_cost = warm.price(&w, 16, DesignPoint::Tdimm, 4).expect("valid");
        assert_eq!(warm.cached_entries(), 1);
        let hit_cost = warm.price(&w, 16, DesignPoint::Tdimm, 4).expect("valid");
        assert_eq!(warm.cached_entries(), 1, "hit must not re-measure");
        assert_eq!(
            cold_cost.service_us.to_bits(),
            hit_cost.service_us.to_bits()
        );
        // A completely fresh pricer's cold replay agrees bit-for-bit.
        let fresh = quick_pricer(&model);
        let fresh_cost = fresh.price(&w, 16, DesignPoint::Tdimm, 4).expect("valid");
        assert_eq!(
            cold_cost.service_us.to_bits(),
            fresh_cost.service_us.to_bits()
        );
    }

    /// DRAM knobs are part of what a pricer measures: a pricer built at
    /// half the channel clock replays afresh and measures less bandwidth
    /// than the default one, never serving the default's measurement.
    #[test]
    fn table_invalidated_when_dram_knobs_change() {
        let model = SystemModel::paper_defaults();
        let pricer = quick_pricer(&model);
        let w = Workload::youtube();
        let before = pricer.measured_node_gbps(&w, 8);

        let mut cfg = pricer.config();
        cfg.nmp.dram.timing.clock_mhz /= 2;
        let half_clock = CyclePricer::with_config(&model, cfg).expect("valid DRAM config");
        let after = half_clock.measured_node_gbps(&w, 8);
        assert!(
            after < before,
            "half-clock replay should be slower: {after:.1} vs {before:.1} GB/s"
        );
        assert_eq!(half_clock.replay_count(), 1);
    }

    #[test]
    fn warm_deduplicates_and_counts_replays() {
        let model = SystemModel::paper_defaults();
        let pricer = quick_pricer(&model);
        let w = Workload::ncf();
        // Duplicated shapes and an aliasing workload clone: 2 distinct keys.
        let shapes = vec![
            (w.clone(), 4),
            (w.clone(), 8),
            (w.clone(), 4),
            (w.clone(), 8),
        ];
        let fresh = pricer.warm(&shapes, 4);
        assert_eq!(fresh, 2, "only distinct keys replay");
        assert_eq!(pricer.replay_count(), 2);
        assert_eq!(pricer.cached_entries(), 2);
        // Warming again is a no-op served from the table.
        assert_eq!(pricer.warm(&shapes, 4), 0);
        assert_eq!(pricer.replay_count(), 2);
        // And the warmed entries price bit-identically to a fresh pricer.
        let cold = quick_pricer(&model);
        assert_eq!(
            pricer
                .price(&w, 8, DesignPoint::Tdimm, 2)
                .expect("valid")
                .service_us
                .to_bits(),
            cold.price(&w, 8, DesignPoint::Tdimm, 2)
                .expect("valid")
                .service_us
                .to_bits()
        );
    }

    #[test]
    fn cached_table_snapshot_is_sorted_and_stable() {
        let model = SystemModel::paper_defaults();
        let a = quick_pricer(&model);
        let b = quick_pricer(&model);
        let w = Workload::youtube();
        let shapes: Vec<(Workload, usize)> =
            [16usize, 4, 8].iter().map(|&x| (w.clone(), x)).collect();
        a.warm(&shapes, 1);
        b.warm(&shapes, 4);
        let ta = a.cached_table();
        let tb = b.cached_table();
        assert_eq!(ta.len(), 3);
        assert!(ta.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");
        // Thread-count invariance of the table contents, bit for bit.
        let bits = |t: &[(super::CycleKey, f64)]| -> Vec<(super::CycleKey, u64)> {
            t.iter().map(|&(k, v)| (k, v.to_bits())).collect()
        };
        assert_eq!(bits(&ta), bits(&tb));
    }

    #[test]
    fn distinct_batch_shapes_get_distinct_entries() {
        let model = SystemModel::paper_defaults();
        let pricer = quick_pricer(&model);
        let w = Workload::ncf();
        pricer.measured_node_gbps(&w, 4);
        pricer.measured_node_gbps(&w, 8);
        let scaled = w.scaled_embeddings(2);
        pricer.measured_node_gbps(&scaled, 8);
        assert_eq!(pricer.cached_entries(), 3);
        // The node designs share the measurement (identical gather
        // pattern): pricing both must not add a second entry per shape.
        pricer.price(&w, 8, DesignPoint::Tdimm, 2).expect("valid");
        pricer.price(&w, 8, DesignPoint::Pmem, 2).expect("valid");
        assert_eq!(pricer.cached_entries(), 3);
    }

    #[test]
    fn invalid_replay_configs_are_rejected_not_a_panic() {
        let model = SystemModel::paper_defaults();
        let mut bad_reads = CyclePricerConfig::paper_defaults();
        bad_reads.nmp.dram.read_queue_depth = 0;
        assert!(matches!(
            CyclePricer::with_config(&model, bad_reads),
            Err(NmpError::Dram(_))
        ));
        let mut bad_writes = CyclePricerConfig::paper_defaults();
        bad_writes.nmp.dram.write_queue_depth = 0;
        assert!(matches!(
            CyclePricer::with_config(&model, bad_writes),
            Err(NmpError::Dram(_))
        ));
        let mut tiny_queues = CyclePricerConfig::paper_defaults();
        tiny_queues.nmp.input_queue_bytes = 32;
        assert!(matches!(
            CyclePricer::with_config(&model, tiny_queues),
            Err(NmpError::QueueTooSmall { bytes: 32 })
        ));
    }

    #[test]
    fn zero_replay_cap_is_clamped_not_a_panic() {
        let model = SystemModel::paper_defaults();
        let mut cfg = CyclePricerConfig::paper_defaults();
        cfg.max_replayed_lookups = 0;
        let pricer = CyclePricer::with_config(&model, cfg).expect("valid replay config");
        let cost = pricer
            .price(&Workload::ncf(), 8, DesignPoint::Tdimm, 1)
            .expect("a zero cap degrades to a one-lookup replay");
        assert!(cost.service_us.is_finite() && cost.service_us > 0.0);
    }

    #[test]
    fn non_node_designs_delegate_to_analytic() {
        let model = SystemModel::paper_defaults();
        let cycle = quick_pricer(&model);
        let analytic = AnalyticPricer::new(&model);
        let w = Workload::fox();
        for d in [
            DesignPoint::CpuOnly,
            DesignPoint::CpuGpu,
            DesignPoint::GpuOnly,
        ] {
            let c = cycle.price(&w, 32, d, 4).expect("valid");
            let a = analytic.price(&w, 32, d, 4).expect("valid");
            assert_eq!(c.service_us.to_bits(), a.service_us.to_bits(), "{d}");
        }
        assert_eq!(cycle.cached_entries(), 0, "no replays for non-node designs");
    }

    #[test]
    fn zero_gpus_rejected_by_both_backends() {
        let model = SystemModel::paper_defaults();
        let w = Workload::ncf();
        assert!(AnalyticPricer::new(&model)
            .price(&w, 8, DesignPoint::Tdimm, 0)
            .is_err());
        assert!(quick_pricer(&model)
            .price(&w, 8, DesignPoint::Tdimm, 0)
            .is_err());
    }

    #[test]
    fn backends_agree_within_calibration_band() {
        // The utilization constants were measured on this same simulator,
        // so the cycle backend must land near the analytic one; the
        // serving-level acceptance band is documented in EXPERIMENTS.md.
        let model = SystemModel::paper_defaults();
        let cycle = quick_pricer(&model);
        let analytic = AnalyticPricer::new(&model);
        let w = Workload::facebook();
        for d in [DesignPoint::Pmem, DesignPoint::Tdimm] {
            let c = cycle.price(&w, 16, d, 4).expect("valid").service_us;
            let a = analytic.price(&w, 16, d, 4).expect("valid").service_us;
            let gap = (c - a).abs() / a;
            assert!(
                gap < 0.25,
                "{d}: cycle {c:.1} vs analytic {a:.1} ({gap:.3})"
            );
        }
    }

    #[test]
    fn contention_still_grows_under_cycle_pricing() {
        let model = SystemModel::paper_defaults();
        let pricer = quick_pricer(&model);
        let w = Workload::facebook();
        let solo = pricer
            .price(&w, 16, DesignPoint::Pmem, 1)
            .expect("valid")
            .service_us;
        let shared = pricer
            .price(&w, 16, DesignPoint::Pmem, 8)
            .expect("valid")
            .service_us;
        assert!(shared > solo, "shared {shared:.1} vs solo {solo:.1}");
        assert_eq!(
            pricer.cached_entries(),
            1,
            "concurrency is priced from one measurement"
        );
    }

    /// A hot-row cache re-keys the measurement: cached entries never
    /// alias uncached ones, and a head-sized cache on a skewed workload
    /// hits and delivers at least the uncached bandwidth.
    #[test]
    fn hot_row_config_rekeys_and_improves_delivery() {
        let model = SystemModel::paper_defaults();
        let plain = quick_pricer(&model);
        let w = Workload::youtube();
        let uncached = plain.measured_node_gbps(&w, 16);
        assert_eq!(plain.measured_hot_rows(&w, 16), HotRowStats::default());
        let uncached_keys: Vec<_> = plain.cached_table();
        assert_eq!(uncached_keys.len(), 1);
        assert_eq!(uncached_keys[0].0 .5, 0, "disabled cache fingerprints 0");

        // A cache sized for the whole replayed trace's hot head.
        let mut cfg = plain.config();
        cfg.nmp.hot_rows = HotRowCacheConfig::fully_associative(100_000);
        let cached_pricer = CyclePricer::with_config(&model, cfg).expect("valid replay config");
        let cached = cached_pricer.measured_node_gbps(&w, 16);
        let stats = cached_pricer.measured_hot_rows(&w, 16);
        assert!(stats.hits > 0, "Zipf head must revisit rows: {stats:?}");
        assert!(
            cached >= uncached,
            "cache must not lose bandwidth: {cached:.1} vs {uncached:.1}"
        );
        let table = cached_pricer.cached_hot_row_table();
        assert_eq!(table.len(), 1);
        assert_ne!(table[0].0 .5, 0);
        assert_eq!(table[0].1, stats);
        assert_eq!(cached_pricer.replay_count(), 1, "one replay per key");
    }

    #[test]
    fn build_with_hot_rows_flows_into_cycle_backend() {
        let model = SystemModel::paper_defaults();
        let hot = HotRowCacheConfig::fully_associative(4096);
        // Analytic ignores the knob entirely.
        let a = PricingBackend::Analytic
            .build_with_hot_rows(&model, hot)
            .expect("valid tier");
        let plain = AnalyticPricer::new(&model);
        let w = Workload::ncf();
        assert_eq!(
            a.price(&w, 8, DesignPoint::Tdimm, 2)
                .expect("valid")
                .service_us
                .to_bits(),
            plain
                .price(&w, 8, DesignPoint::Tdimm, 2)
                .expect("valid")
                .service_us
                .to_bits()
        );
        // The cycle backend matches an explicitly configured pricer.
        let b = PricingBackend::CycleCalibrated
            .build_with_hot_rows(&model, hot)
            .expect("valid tier");
        let mut cfg = CyclePricerConfig::paper_defaults();
        cfg.nmp.hot_rows = hot;
        let explicit = CyclePricer::with_config(&model, cfg).expect("valid replay config");
        assert_eq!(
            b.price(&w, 8, DesignPoint::Tdimm, 2)
                .expect("valid")
                .service_us
                .to_bits(),
            explicit
                .price(&w, 8, DesignPoint::Tdimm, 2)
                .expect("valid")
                .service_us
                .to_bits()
        );
    }

    /// A tier `HotRowCacheConfig::validate` rejects fails the cycle
    /// backend's construction, so no pricer exists to replay with it; the
    /// analytic backend has no replay and ignores the tier.
    #[test]
    fn invalid_hot_row_tier_fails_the_build_not_a_replay() {
        let model = SystemModel::paper_defaults();
        let bad = HotRowCacheConfig::set_associative(12, 4);
        assert!(bad.validate().is_err());
        assert!(matches!(
            PricingBackend::CycleCalibrated.build_with_hot_rows(&model, bad),
            Err(NmpError::Cache(_))
        ));
        assert!(PricingBackend::Analytic
            .build_with_hot_rows(&model, bad)
            .is_ok());
    }

    /// Pricing against a healthy `DegradedNode` must be bit-identical to
    /// the plain `price` path on both backends — the foundation of the
    /// empty-fault-schedule identity gate.
    #[test]
    fn healthy_degraded_view_is_bit_identical_to_price() {
        let model = SystemModel::paper_defaults();
        let cycle = quick_pricer(&model);
        let analytic = AnalyticPricer::new(&model);
        let w = Workload::facebook();
        let healthy = DegradedNode::healthy(32);
        assert!(healthy.is_healthy());
        for d in [
            DesignPoint::Pmem,
            DesignPoint::Tdimm,
            DesignPoint::CpuGpu,
            DesignPoint::GpuOnly,
        ] {
            for pricer in [&analytic as &dyn BatchPricer, &cycle as &dyn BatchPricer] {
                let plain = pricer.price(&w, 16, d, 4).expect("valid");
                let degraded = pricer.price_degraded(&w, 16, d, 4, healthy).expect("valid");
                assert_eq!(
                    plain.service_us.to_bits(),
                    degraded.service_us.to_bits(),
                    "{d} on {:?}",
                    pricer.backend()
                );
                assert_eq!(plain.port_bound, degraded.port_bound);
            }
        }
    }

    #[test]
    fn losing_ranks_raises_node_costs_monotonically() {
        let model = SystemModel::paper_defaults();
        let cycle = quick_pricer(&model);
        let analytic = AnalyticPricer::new(&model);
        let w = Workload::facebook();
        for d in [DesignPoint::Pmem, DesignPoint::Tdimm] {
            for pricer in [&analytic as &dyn BatchPricer, &cycle as &dyn BatchPricer] {
                let mut last = 0.0f64;
                for alive in (8..=32).rev().step_by(8) {
                    let view = DegradedNode {
                        dimms_alive: alive,
                        ..DegradedNode::healthy(32)
                    };
                    let cost = pricer.price_degraded(&w, 16, d, 4, view).expect("valid");
                    assert!(
                        cost.service_us >= last,
                        "{d}: {alive}/32 ranks priced {} below {last}",
                        cost.service_us
                    );
                    last = cost.service_us;
                }
                let healthy = pricer.price(&w, 16, d, 4).expect("valid").service_us;
                assert!(last > healthy, "quarter-capacity must cost more");
            }
        }
    }

    #[test]
    fn gray_multiplier_inflates_and_rereads_add_traffic() {
        let model = SystemModel::paper_defaults();
        let cycle = quick_pricer(&model);
        let analytic = AnalyticPricer::new(&model);
        let w = Workload::youtube();
        let base = DegradedNode {
            dimms_alive: 31,
            ..DegradedNode::healthy(32)
        };
        for pricer in [&analytic as &dyn BatchPricer, &cycle as &dyn BatchPricer] {
            let backend = pricer.backend();
            let plain = pricer
                .price_degraded(&w, 16, DesignPoint::Tdimm, 2, base)
                .expect("valid");
            let gray = pricer
                .price_degraded(
                    &w,
                    16,
                    DesignPoint::Tdimm,
                    2,
                    DegradedNode {
                        latency_multiplier: 2.0,
                        ..base
                    },
                )
                .expect("valid");
            assert_eq!(
                gray.service_us.to_bits(),
                (plain.service_us * 2.0).to_bits(),
                "gray inflates the final cost exactly on {backend:?}"
            );
            let reread = pricer
                .price_degraded(
                    &w,
                    16,
                    DesignPoint::Tdimm,
                    2,
                    DegradedNode {
                        reread_rows: 10_000,
                        ..base
                    },
                )
                .expect("valid");
            assert!(reread.service_us > plain.service_us, "{backend:?}");
            // Non-node designs ignore the degradation entirely.
            let gpu = pricer
                .price_degraded(
                    &w,
                    16,
                    DesignPoint::GpuOnly,
                    2,
                    DegradedNode {
                        dimms_alive: 1,
                        latency_multiplier: 4.0,
                        ..DegradedNode::healthy(32)
                    },
                )
                .expect("valid");
            let gpu_plain = pricer
                .price(&w, 16, DesignPoint::GpuOnly, 2)
                .expect("valid");
            assert_eq!(
                gpu.service_us.to_bits(),
                gpu_plain.service_us.to_bits(),
                "{backend:?}"
            );
        }
    }

    /// The trait's conservative default: scales node costs, leaves the
    /// rest alone.
    #[test]
    fn default_price_degraded_scales_whole_batch() {
        struct Fixed;
        impl BatchPricer for Fixed {
            fn price(
                &self,
                _workload: &Workload,
                _batch: usize,
                _design: DesignPoint,
                active_gpus: usize,
            ) -> Result<BatchCost, InterconnectError> {
                if active_gpus == 0 {
                    return Err(InterconnectError::InvalidLink {
                        parameter: "active_gpus",
                    });
                }
                Ok(BatchCost {
                    service_us: 100.0,
                    port_bound: false,
                })
            }
            fn backend(&self) -> PricingBackend {
                PricingBackend::Analytic
            }
        }
        let half = DegradedNode {
            dimms_alive: 16,
            latency_multiplier: 1.5,
            ..DegradedNode::healthy(32)
        };
        let cost = Fixed
            .price_degraded(&Workload::ncf(), 8, DesignPoint::Tdimm, 1, half)
            .expect("valid");
        assert!((cost.service_us - 100.0 * 2.0 * 1.5).abs() < 1e-9);
        let non_node = Fixed
            .price_degraded(&Workload::ncf(), 8, DesignPoint::CpuGpu, 1, half)
            .expect("valid");
        assert_eq!(non_node.service_us, 100.0);
    }

    #[test]
    fn unpriceable_degraded_views_rejected() {
        let model = SystemModel::paper_defaults();
        let cycle = quick_pricer(&model);
        let analytic = AnalyticPricer::new(&model);
        let w = Workload::ncf();
        for view in [
            DegradedNode {
                dimms_alive: 0,
                ..DegradedNode::healthy(32)
            },
            DegradedNode {
                dimms_alive: 33,
                ..DegradedNode::healthy(32)
            },
            DegradedNode {
                latency_multiplier: 0.5,
                ..DegradedNode::healthy(32)
            },
            DegradedNode {
                latency_multiplier: f64::NAN,
                ..DegradedNode::healthy(32)
            },
        ] {
            for pricer in [&analytic as &dyn BatchPricer, &cycle as &dyn BatchPricer] {
                assert!(
                    pricer
                        .price_degraded(&w, 8, DesignPoint::Tdimm, 1, view)
                        .is_err(),
                    "{view:?} on {:?}",
                    pricer.backend()
                );
            }
        }
        assert_eq!(cycle.replay_count(), 0, "rejected before any replay");
    }

    /// Node-sharing throughput of `gpus` GPUs, each running one batch of
    /// 64 at that concurrency.
    fn sharing_qps(pricer: &AnalyticPricer<'_>, w: &Workload, d: DesignPoint, gpus: usize) -> f64 {
        let cost = pricer.price(w, 64, d, gpus).expect("valid");
        gpus as f64 / (cost.service_us * 1e-6)
    }

    #[test]
    fn tdimm_scales_to_more_gpus_than_pmem() {
        let model = SystemModel::paper_defaults();
        let pricer = AnalyticPricer::new(&model);
        let w = Workload::facebook();
        // Throughput at 16 GPUs relative to 1 GPU: TDIMM keeps scaling,
        // PMEM saturates on the node port.
        let scaling = |d| sharing_qps(&pricer, &w, d, 16) / sharing_qps(&pricer, &w, d, 1);
        let tdimm_scaling = scaling(DesignPoint::Tdimm);
        let pmem_scaling = scaling(DesignPoint::Pmem);
        assert!(
            tdimm_scaling > 1.5 * pmem_scaling,
            "tdimm {tdimm_scaling:.1}x vs pmem {pmem_scaling:.1}x"
        );
        let pmem16 = pricer.price(&w, 64, DesignPoint::Pmem, 16).expect("valid");
        assert!(pmem16.port_bound, "PMEM at 16 GPUs should be port-bound");
    }

    #[test]
    fn throughput_grows_monotonically_for_tdimm_small_counts() {
        let model = SystemModel::paper_defaults();
        let pricer = AnalyticPricer::new(&model);
        let w = Workload::youtube();
        let qps: Vec<f64> = [1, 2, 4]
            .iter()
            .map(|&g| sharing_qps(&pricer, &w, DesignPoint::Tdimm, g))
            .collect();
        assert!(qps[1] > qps[0]);
        assert!(qps[2] > qps[1]);
    }

    #[test]
    fn analytic_non_node_designs_ignore_concurrency() {
        let model = SystemModel::paper_defaults();
        let pricer = AnalyticPricer::new(&model);
        let w = Workload::youtube();
        for d in [
            DesignPoint::CpuOnly,
            DesignPoint::CpuGpu,
            DesignPoint::GpuOnly,
        ] {
            let solo = model.evaluate(&w, 64, d).total_us();
            for gpus in [1usize, 4, 16] {
                let cost = pricer.price(&w, 64, d, gpus).expect("valid");
                assert_eq!(cost.service_us, solo, "{d} at {gpus} GPUs");
                assert!(!cost.port_bound);
            }
        }
        assert!(pricer.price(&w, 64, DesignPoint::GpuOnly, 0).is_err());
    }

    #[test]
    fn analytic_contention_grows_with_active_gpus() {
        let model = SystemModel::paper_defaults();
        let pricer = AnalyticPricer::new(&model);
        let w = Workload::facebook();
        for d in [DesignPoint::Pmem, DesignPoint::Tdimm] {
            let solo = pricer.price(&w, 64, d, 1).expect("valid").service_us;
            let shared = pricer.price(&w, 64, d, 8).expect("valid").service_us;
            assert!(shared > solo, "{d}: shared {shared} vs solo {solo}");
        }
    }

    #[test]
    fn backend_labels_and_builder() {
        let model = SystemModel::paper_defaults();
        assert_eq!(PricingBackend::default(), PricingBackend::Analytic);
        for b in [PricingBackend::Analytic, PricingBackend::CycleCalibrated] {
            let pricer = b
                .build_with_hot_rows(&model, HotRowCacheConfig::disabled())
                .expect("valid tier");
            assert_eq!(pricer.backend(), b);
            assert!(!b.label().is_empty());
        }
    }

    /// The built cycle pricer replays the model's own DIMM count: a
    /// capacity-sliced node's measured gather slows with its slice, as the
    /// analytic gather term does, instead of borrowing the 32-DIMM
    /// measurement (which moved service time by ~1% where the analytic
    /// model moves it by ~35%).
    #[test]
    fn cycle_pricer_replays_the_node_dimm_count() {
        let w = Workload::facebook();
        let service_us = |pricing: PricingBackend, dimms: u64| {
            let model = SystemModel::paper_defaults().with_node_dimms(dimms);
            let pricer = pricing
                .build_with_hot_rows(&model, HotRowCacheConfig::disabled())
                .expect("valid tier");
            let cost = pricer.price(&w, 32, DesignPoint::Tdimm, 1).expect("valid");
            cost.service_us
        };
        assert_eq!(
            CyclePricer::new(&SystemModel::paper_defaults().with_node_dimms(8))
                .config()
                .dimms,
            8
        );
        let cycle_slowdown = service_us(PricingBackend::CycleCalibrated, 8)
            - service_us(PricingBackend::CycleCalibrated, 32);
        let analytic_slowdown =
            service_us(PricingBackend::Analytic, 8) - service_us(PricingBackend::Analytic, 32);
        assert!(
            cycle_slowdown > 0.5 * analytic_slowdown,
            "8-DIMM cycle gather must slow like the analytic one: \
             +{cycle_slowdown:.1} µs vs analytic +{analytic_slowdown:.1} µs"
        );
    }
}
