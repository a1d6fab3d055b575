//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into each layer's public functions, and a [`BatchPricer`] wrapper that
//! puts the pricer, the cold replay and the contended transfer in spans of
//! their own.
//!
//! Spans stay in memory and are written out when the run ends. A layer's
//! self time is its span's duration minus the time its child spans cover.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

use tensordimm_interconnect::InterconnectError;
use tensordimm_models::Workload;
use tensordimm_system::{
    AnalyticPricer, BatchCost, BatchPricer, CyclePricer, CyclePricerConfig, DegradedNode,
    DesignPoint, PricingBackend, SystemModel,
};

/// One timed call: `[start_ns, end_ns)` from the tracer's origin, and the
/// span that was open when it started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A cold replay the pricer performed: enough to re-run the same access
/// plan on a fresh NMP core, and the bandwidth the pricer memoized.
#[derive(Debug, Clone)]
pub struct Replay {
    pub config: CyclePricerConfig,
    pub zipf_s: f64,
    pub workload: Workload,
    pub batch: usize,
    pub gbps: f64,
}

/// Work counted at the pricer boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `BatchPricer` calls (healthy and degraded).
    pub price_calls: u64,
    /// `BatchPricer::price_degraded` calls.
    pub degraded_calls: u64,
    /// Cycle-pricer memo lookups: shapes warmed plus cycle-backed
    /// node-design price calls.
    pub memo_lookups: u64,
    /// Cold replays.
    pub replays: u64,
    /// Contended-transfer keys computed (each model's memo starts empty).
    pub transfer_keys: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Counts,
    replays: Vec<Replay>,
}

/// Span and counter sink for one traced repetition.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("no traced call panics")
    }

    fn enter(&self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let mut s = self.state();
        let parent = s.open.last().copied();
        s.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let id = s.spans.len() - 1;
        s.open.push(id);
        id
    }

    fn exit(&self, id: usize, name: &'static str) {
        let end_ns = self.now_ns();
        let mut s = self.state();
        assert_eq!(s.open.pop(), Some(id), "spans close in LIFO order");
        let span = &mut s.spans[id];
        span.end_ns = end_ns;
        span.name = name;
    }

    /// Time `f` in a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id, name);
        out
    }

    /// Ask `pricer` for the bandwidth of `(workload, batch)` in a span
    /// named `system.replay` when the call replayed and `system.memo_hit`
    /// when the memo served it.
    pub fn measure(
        &self,
        pricer: &CyclePricer<'_>,
        zipf_s: f64,
        workload: &Workload,
        batch: usize,
    ) {
        let before = pricer.replay_count();
        let id = self.enter("system.replay");
        let gbps = pricer.measured_node_gbps(workload, batch);
        let replayed = pricer.replay_count() - before;
        self.exit(
            id,
            if replayed > 0 {
                "system.replay"
            } else {
                "system.memo_hit"
            },
        );
        let mut s = self.state();
        s.counts.memo_lookups += 1;
        s.counts.replays += replayed;
        if replayed > 0 {
            s.replays.push(Replay {
                config: pricer.config(),
                zipf_s,
                workload: workload.clone(),
                batch,
                gbps,
            });
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    pub fn counts(&self) -> Counts {
        self.state().counts
    }

    pub fn replays(&self) -> Vec<Replay> {
        self.state().replays.clone()
    }

    /// Total duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let s = self.state();
        ns_to_s(
            s.spans
                .iter()
                .filter(|sp| sp.name == name)
                .map(Span::duration_ns)
                .sum(),
        )
    }

    /// Per span name: summed self time (duration minus the time direct
    /// children cover), seconds. Spans on one thread nest, so children
    /// never overlap each other.
    pub fn self_times_s(&self) -> BTreeMap<&'static str, f64> {
        let s = self.state();
        let mut child_ns = vec![0u64; s.spans.len()];
        for sp in &s.spans {
            if let Some(p) = sp.parent {
                child_ns[p] += sp.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (sp, child) in s.spans.iter().zip(&child_ns) {
            *out.entry(sp.name).or_default() += sp.duration_ns() - child;
        }
        out.into_iter().map(|(k, v)| (k, ns_to_s(v))).collect()
    }
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Time `f` in a span when tracing, or just call it.
pub fn maybe_span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Build the pricer `pricing` selects over `model` — the same backend
/// `PricingBackend::build` constructs, with no hot-row tier — and hand it
/// to `f` together with its cycle-pricer view, if it has one.
pub fn with_pricer<R>(
    pricing: PricingBackend,
    model: &SystemModel,
    f: impl FnOnce(&dyn BatchPricer, Option<&CyclePricer<'_>>) -> R,
) -> R {
    match pricing {
        PricingBackend::Analytic => f(&AnalyticPricer::new(model), None),
        PricingBackend::CycleCalibrated => {
            let pricer = CyclePricer::new(model);
            f(&pricer, Some(&pricer))
        }
    }
}

/// Shapes and transfer keys this wrapper has already pre-called.
#[derive(Debug, Default)]
struct Seen {
    shapes: BTreeSet<(u64, u64, u64, usize)>,
    transfers: BTreeSet<(u64, usize)>,
}

/// A [`BatchPricer`] that delegates every call to the pricer it wraps and
/// records one `system.price` span per call.
///
/// On the first call for a node-design shape it first asks the cycle
/// pricer (if any) for the shape's bandwidth, so a cold replay gets its
/// own `system.replay` span, and prices the shape's contended transfer
/// through `SystemModel::contended_node_transfer_us`, so the transfer
/// gets its own `interconnect.transfer` span. Both are memoized pure
/// functions, so the delegated call then returns the bit-identical cost.
pub struct TracedPricer<'a, 'm> {
    inner: &'a dyn BatchPricer,
    cycle: Option<&'a CyclePricer<'m>>,
    model: &'a SystemModel,
    tracer: &'a Tracer,
    seen: Mutex<Seen>,
}

impl std::fmt::Debug for TracedPricer<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedPricer")
            .field("backend", &self.inner.backend())
            .finish_non_exhaustive()
    }
}

impl<'a, 'm> TracedPricer<'a, 'm> {
    /// Wrap `inner`, the pricer built over `model`; `cycle` is `inner`'s
    /// cycle-pricer view when it has one.
    pub fn new(
        inner: &'a dyn BatchPricer,
        cycle: Option<&'a CyclePricer<'m>>,
        model: &'a SystemModel,
        tracer: &'a Tracer,
    ) -> Self {
        TracedPricer {
            inner,
            cycle,
            model,
            tracer,
            seen: Mutex::new(Seen::default()),
        }
    }

    fn pre_call(&self, workload: &Workload, batch: usize, design: DesignPoint, active: usize) {
        self.tracer.state().counts.price_calls += 1;
        let bytes = match design {
            DesignPoint::Tdimm => workload.pooled_bytes(batch),
            DesignPoint::Pmem => workload.gathered_bytes(batch),
            _ => return,
        };
        let mut seen = self.seen.lock().expect("no traced call panics");
        if let Some(cycle) = self.cycle {
            let shape = (
                workload.embedding_bytes(),
                workload.lookups_per_sample(),
                workload.rows_per_table,
                batch,
            );
            if seen.shapes.insert(shape) {
                // This lookup stands in for the one the delegated call
                // would make (and which now hits).
                self.tracer
                    .measure(cycle, self.model.config().zipf_s, workload, batch);
            } else {
                self.tracer.state().counts.memo_lookups += 1;
            }
        }
        if active > 0 && seen.transfers.insert((bytes, active)) {
            // The result is discarded: the delegated call reads the same
            // value back from the model's memo (or returns the same error).
            let _ = self.tracer.span("interconnect.transfer", || {
                self.model.contended_node_transfer_us(bytes, active)
            });
            self.tracer.state().counts.transfer_keys += 1;
        }
    }
}

impl BatchPricer for TracedPricer<'_, '_> {
    fn price(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        active_gpus: usize,
    ) -> Result<BatchCost, InterconnectError> {
        self.tracer.span("system.price", || {
            self.pre_call(workload, batch, design, active_gpus);
            self.inner.price(workload, batch, design, active_gpus)
        })
    }

    fn price_degraded(
        &self,
        workload: &Workload,
        batch: usize,
        design: DesignPoint,
        active_gpus: usize,
        degraded: DegradedNode,
    ) -> Result<BatchCost, InterconnectError> {
        self.tracer.span("system.price", || {
            self.tracer.state().counts.degraded_calls += 1;
            self.pre_call(workload, batch, design, active_gpus);
            self.inner
                .price_degraded(workload, batch, design, active_gpus, degraded)
        })
    }

    fn backend(&self) -> PricingBackend {
        self.inner.backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensordimm_system::TransferBackend;

    fn views() -> Vec<Option<DegradedNode>> {
        vec![
            None,
            Some(DegradedNode::healthy(4)),
            Some(DegradedNode {
                dimms_alive: 3,
                dimms_total: 4,
                latency_multiplier: 1.0,
                reread_rows: 0,
            }),
            Some(DegradedNode {
                dimms_alive: 1,
                dimms_total: 4,
                latency_multiplier: 1.5,
                reread_rows: 40,
            }),
        ]
    }

    fn price(
        p: &dyn BatchPricer,
        w: &Workload,
        batch: usize,
        design: DesignPoint,
        active: usize,
        view: Option<DegradedNode>,
    ) -> Result<BatchCost, InterconnectError> {
        match view {
            None => p.price(w, batch, design, active),
            Some(v) => p.price_degraded(w, batch, design, active, v),
        }
    }

    /// Every cost the wrapper returns is bit-identical to the cost the
    /// wrapped pricer returns on its own, for both backends, for healthy
    /// and degraded views, across node and non-node designs.
    #[test]
    fn wrapper_is_bit_identical_to_the_wrapped_pricer() {
        let w = Workload::facebook();
        for transfer in [
            TransferBackend::Analytic,
            TransferBackend::Fabric(tensordimm_system::TopologyKind::Ring),
        ] {
            for pricing in [PricingBackend::Analytic, PricingBackend::CycleCalibrated] {
                // Separate models and pricers, so neither side can read
                // the other's memo.
                let bare_model = SystemModel::paper_defaults().with_transfer(transfer);
                let traced_model = SystemModel::paper_defaults().with_transfer(transfer);
                let tracer = Tracer::new();
                with_pricer(pricing, &bare_model, |bare, _| {
                    with_pricer(pricing, &traced_model, |inner, cycle| {
                        let traced = TracedPricer::new(inner, cycle, &traced_model, &tracer);
                        assert_eq!(traced.backend(), pricing);
                        for design in [DesignPoint::Tdimm, DesignPoint::Pmem, DesignPoint::CpuGpu] {
                            for batch in [1, 7, 32] {
                                for active in [1, 3, 8] {
                                    for view in views() {
                                        let a = price(bare, &w, batch, design, active, view)
                                            .expect("valid shape");
                                        let b = price(&traced, &w, batch, design, active, view)
                                            .expect("valid shape");
                                        assert_eq!(
                                            (a.service_us.to_bits(), a.port_bound),
                                            (b.service_us.to_bits(), b.port_bound),
                                            "{pricing:?} {transfer:?} {design:?} b={batch} a={active} {view:?}"
                                        );
                                    }
                                }
                            }
                        }
                    })
                });
                let counts = tracer.counts();
                // 3 designs × 3 batches × 3 concurrencies × 4 views.
                assert_eq!(counts.price_calls, 3 * 3 * 3 * 4);
                assert_eq!(counts.degraded_calls, 3 * 3 * 3 * 3);
                // One transfer key per (node design bytes, active) pair.
                assert_eq!(counts.transfer_keys, 2 * 3 * 3);
                let replays = if pricing == PricingBackend::CycleCalibrated {
                    3
                } else {
                    0
                };
                assert_eq!(counts.replays, replays);
            }
        }
    }

    /// The wrapper forwards errors from the pricer it wraps unchanged.
    #[test]
    fn wrapper_forwards_errors() {
        let model = SystemModel::paper_defaults();
        let w = Workload::facebook();
        let tracer = Tracer::new();
        with_pricer(PricingBackend::Analytic, &model, |inner, cycle| {
            let traced = TracedPricer::new(inner, cycle, &model, &tracer);
            let bad = DegradedNode {
                dimms_alive: 0,
                dimms_total: 4,
                latency_multiplier: 1.0,
                reread_rows: 0,
            };
            assert_eq!(
                traced.price(&w, 8, DesignPoint::Tdimm, 0).err(),
                inner.price(&w, 8, DesignPoint::Tdimm, 0).err()
            );
            assert_eq!(
                traced
                    .price_degraded(&w, 8, DesignPoint::Tdimm, 2, bad)
                    .err(),
                inner
                    .price_degraded(&w, 8, DesignPoint::Tdimm, 2, bad)
                    .err()
            );
        });
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let self_s = t.self_times_s();
        assert!(self_s["inner"] >= 0.020);
        assert!(self_s["outer"] >= 0.005 && self_s["outer"] < 0.020);
        assert!((t.total_s("outer") - self_s["outer"] - self_s["inner"]).abs() < 1e-9);
    }
}
