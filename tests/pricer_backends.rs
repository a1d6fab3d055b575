//! Cross-crate integration tests for the pluggable batch-pricing
//! backends: backend selection through `SimConfig`, cycle-backend
//! determinism at serving granularity, latency-table reuse across a
//! sweep, and the Zipf row sampler the cycle backend shares with the
//! traffic harnesses.

use tensordimm::models::Workload;
use tensordimm::serving::{
    offered_load_sweep, simulate, simulate_with_pricer, zipf_lookup_rows, ArrivalProcess,
    BatchPolicy, SimConfig,
};
use tensordimm::system::{
    AnalyticPricer, CyclePricer, CyclePricerConfig, DesignPoint, PricingBackend, SystemModel,
};

/// Shortened replays keep the debug-build suite fast; the measured
/// bandwidth reaches steady state well before the cap.
fn quick_cycle_pricer(model: &SystemModel) -> CyclePricer<'_> {
    let mut cfg = CyclePricerConfig::paper_defaults();
    cfg.max_replayed_lookups = 256;
    CyclePricer::with_config(model, cfg).expect("valid replay config")
}

#[test]
fn simulate_dispatches_on_the_configured_backend() {
    let model = SystemModel::paper_defaults();
    let w = Workload::youtube();
    let arrivals = ArrivalProcess::Poisson { rate_qps: 80_000.0 }.sample_arrivals_us(120, 3);
    let base = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(8, 200.0));

    // The default is analytic, and `simulate` matches an explicit
    // analytic pricer bit-for-bit.
    assert_eq!(base.pricing, PricingBackend::Analytic);
    let via_cfg = simulate(&model, &w, &base, &arrivals).expect("valid");
    let via_pricer =
        simulate_with_pricer(&w, &base, &arrivals, &AnalyticPricer::new(&model)).expect("valid");
    assert_eq!(via_cfg, via_pricer);

    // The cycle backend flows through `SimConfig` the same way.
    let cycle_cfg = base.with_pricing(PricingBackend::CycleCalibrated);
    let via_cycle_cfg = simulate(&model, &w, &cycle_cfg, &arrivals).expect("valid");
    let via_cycle_pricer =
        simulate_with_pricer(&w, &cycle_cfg, &arrivals, &CyclePricer::new(&model)).expect("valid");
    assert_eq!(via_cycle_cfg, via_cycle_pricer);
    assert_ne!(
        via_cfg.latency.p99_us, via_cycle_cfg.latency.p99_us,
        "backends must not alias on a node design"
    );
}

#[test]
fn cycle_backend_serving_run_is_deterministic() {
    let model = SystemModel::paper_defaults();
    let w = Workload::fox();
    let arrivals = ArrivalProcess::Bursty {
        rate_qps: 60_000.0,
        mean_burst: 8.0,
    }
    .sample_arrivals_us(150, 11);
    let cfg = SimConfig::new(DesignPoint::Pmem, 3, BatchPolicy::new(16, 250.0));
    let a = simulate_with_pricer(&w, &cfg, &arrivals, &quick_cycle_pricer(&model)).expect("valid");
    let b = simulate_with_pricer(&w, &cfg, &arrivals, &quick_cycle_pricer(&model)).expect("valid");
    assert_eq!(a, b, "fresh pricers must replay bit-identically");
    assert!(a.is_conserved());
    assert_eq!(a.completed, 150);
}

#[test]
fn warmed_latency_table_prices_identically_to_cold() {
    let model = SystemModel::paper_defaults();
    let w = Workload::youtube();
    let arrivals = ArrivalProcess::Poisson { rate_qps: 90_000.0 }.sample_arrivals_us(100, 29);
    let cfg = SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(8, 200.0));
    let shared = quick_cycle_pricer(&model);
    let first = simulate_with_pricer(&w, &cfg, &arrivals, &shared).expect("valid");
    let warmed_entries = shared.cached_entries();
    assert!(warmed_entries > 0, "the run must have populated the table");
    // The second run is served from the memoized table and must be
    // bit-identical to the cold one.
    let second = simulate_with_pricer(&w, &cfg, &arrivals, &shared).expect("valid");
    assert_eq!(first, second);
    assert_eq!(
        shared.cached_entries(),
        warmed_entries,
        "a replayed run must not grow the table"
    );
}

#[test]
fn offered_load_sweep_supports_both_backends() {
    let model = SystemModel::paper_defaults();
    let w = Workload::ncf();
    let rates = [20_000.0, 60_000.0];
    for backend in [PricingBackend::Analytic, PricingBackend::CycleCalibrated] {
        let cfg =
            SimConfig::new(DesignPoint::Tdimm, 2, BatchPolicy::new(8, 200.0)).with_pricing(backend);
        let points = offered_load_sweep(&model, &w, &cfg, &rates, 120, 7).expect("valid");
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.report.completed, 120, "{}", backend.label());
            assert!(p.report.is_conserved());
        }
    }
}

/// The sampler the cycle pricer draws its gather traces from keeps its
/// head-heaviness across table scales — including paper-scale row counts
/// where any O(rows) CDF precompute would be fatal — and stays pinned per
/// seed at small scale.
#[test]
fn zipf_rows_scale_invariants() {
    let small = zipf_lookup_rows(4_000, 10_000, 0.9, 13);
    let huge = zipf_lookup_rows(4_000, 2_000_000_000, 0.9, 13);
    let head = |rows_hit: &[u64], rows: u64| {
        rows_hit.iter().filter(|&&r| r < rows / 100).count() as f64 / rows_hit.len() as f64
    };
    let small_head = head(&small, 10_000);
    let huge_head = head(&huge, 2_000_000_000);
    assert!(small_head > 0.10, "small-table head share {small_head:.3}");
    assert!(huge_head > 0.05, "billion-row head share {huge_head:.3}");
    // Fixed seed ⇒ fixed stream, at any scale.
    assert_eq!(huge, zipf_lookup_rows(4_000, 2_000_000_000, 0.9, 13));
    assert_eq!(small, zipf_lookup_rows(4_000, 10_000, 0.9, 13));
}
