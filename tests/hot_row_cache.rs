//! Cross-crate tests for the hot-row cache tier in the gather path.
//!
//! The RecNMP-style hot-row SRAM in front of the NMP core's local DRAM
//! must be *inert* when it never hits (a gather of distinct rows replays
//! byte for byte as it does uncached, bar the miss counters), and
//! *useful* when skew and capacity cooperate: hit rate is
//! monotone non-decreasing in capacity (the LRU stack property) and
//! rises with Zipf skew. Finally, enabling the cache under the
//! cycle-calibrated pricer must not invert any of the paper's Fig. 14
//! design-point orderings — caching accelerates the memory system, it
//! does not reshuffle the architecture comparison.

use std::collections::BTreeSet;

use proptest::prelude::*;
use tensordimm::cache::{HotRowCache, HotRowCacheConfig, HotRowStats};
use tensordimm::isa::{DimmContext, Instruction};
use tensordimm::models::Workload;
use tensordimm::nmp::{NmpConfig, NmpCore, NmpRunStats};
use tensordimm::serving::zipf_lookup_rows;
use tensordimm::system::{BatchPricer, CyclePricer, CyclePricerConfig, DesignPoint, SystemModel};

fn run_gather(indices: &[u64], vec_blocks: u64, hot_rows: HotRowCacheConfig) -> NmpRunStats {
    let mut cfg = NmpConfig::paper();
    cfg.hot_rows = hot_rows;
    let g = Instruction::Gather {
        table_base: 0,
        idx_base: 1 << 26,
        output_base: 1 << 27,
        count: indices.len() as u64,
        vec_blocks,
    };
    let mut core = NmpCore::new(cfg).expect("valid config");
    core.run_instruction(&g, DimmContext::new(32, 0), Some(indices))
        .expect("valid gather")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance invariant: an enabled cache that never hits — every
    /// gathered row is distinct — reproduces the uncached replay
    /// byte-identically across random gather traces; only its own
    /// counters (one miss per row, evictions past capacity) differ.
    #[test]
    fn cache_without_hits_is_byte_identical(
        rows in 1u64..4096,
        count in 1usize..300,
        vec_blocks in prop_oneof![Just(32u64), Just(64u64), Just(128u64)],
        capacity_rows in 1u64..64,
        seed in 0u64..u64::MAX,
    ) {
        let mut seen = BTreeSet::new();
        let indices: Vec<u64> = zipf_lookup_rows(count, rows, 0.9, seed)
            .into_iter()
            .filter(|&row| seen.insert(row))
            .collect();
        let uncached = run_gather(&indices, vec_blocks, HotRowCacheConfig::disabled());
        let mut cached = run_gather(
            &indices,
            vec_blocks,
            HotRowCacheConfig::fully_associative(capacity_rows),
        );
        let distinct = indices.len() as u64;
        prop_assert_eq!(
            cached.hot_rows,
            HotRowStats {
                hits: 0,
                misses: distinct,
                evictions: distinct.saturating_sub(capacity_rows),
                hit_blocks: 0,
            }
        );
        cached.hot_rows = HotRowStats::default();
        prop_assert_eq!(uncached, cached);
    }
}

/// LRU stack property, observed end to end: on the same Zipf trace, a
/// strictly larger fully-associative cache never hits less.
#[test]
fn hit_rate_is_monotone_in_capacity() {
    let trace = zipf_lookup_rows(4000, 10_000, 0.9, 7);
    let mut prev_hits = 0u64;
    for capacity in [8u64, 32, 128, 512, 2048] {
        let mut cache = HotRowCache::new(HotRowCacheConfig::fully_associative(capacity));
        for &row in &trace {
            cache.access(row);
        }
        let hits = cache.stats().hits;
        assert!(
            hits >= prev_hits,
            "capacity {capacity}: hits fell from {prev_hits} to {hits}"
        );
        prev_hits = hits;
    }
    assert!(prev_hits > 0, "the largest cache must hit a Zipf-0.9 trace");
}

/// Skew sensitivity: with capacity held fixed, heavier Zipf tails
/// concentrate lookups on the cached head, so hits rise with `s`.
#[test]
fn hit_rate_rises_with_zipf_skew() {
    let mut prev_hits = 0u64;
    for s in [0.0, 0.4, 0.8, 1.1] {
        let trace = zipf_lookup_rows(4000, 10_000, s, 7);
        let mut cache = HotRowCache::new(HotRowCacheConfig::fully_associative(256));
        for &row in &trace {
            cache.access(row);
        }
        let hits = cache.stats().hits;
        assert!(
            hits >= prev_hits,
            "zipf {s}: hits fell from {prev_hits} to {hits}"
        );
        prev_hits = hits;
    }
    assert!(prev_hits > 1000, "zipf 1.1 must hit a 256-row cache hard");
}

/// Fig. 14's design-point orderings survive a cache-enabled cycle
/// pricer: PMEM beats both baselines, TDIMM beats (or near-ties) PMEM,
/// the oracle bounds TDIMM. Orderings only — the calibrated magnitude
/// bands stay pinned by the uncached golden tests.
#[test]
fn fig14_orderings_hold_with_cache_enabled() {
    let m = SystemModel::paper_defaults();
    let mut cfg = CyclePricerConfig::paper_defaults();
    cfg.max_replayed_lookups = 384;
    cfg.nmp.hot_rows = HotRowCacheConfig::fully_associative(4096);
    let cycle = CyclePricer::with_config(&m, cfg).expect("valid replay config");
    let batch = 64;
    for w in Workload::all() {
        let cost = |d: DesignPoint| {
            cycle
                .price(&w, batch, d, 1)
                .expect("valid point")
                .service_us
        };
        let cpu = cost(DesignPoint::CpuOnly);
        let hybrid = cost(DesignPoint::CpuGpu);
        let pmem = cost(DesignPoint::Pmem);
        let tdimm = cost(DesignPoint::Tdimm);
        let oracle = cost(DesignPoint::GpuOnly);
        assert!(
            pmem < cpu.min(hybrid),
            "{}: PMEM {pmem:.1} must beat baselines",
            w.name
        );
        // NCF's reduction factor of 2 keeps TDIMM/PMEM a near-tie.
        let tie = if w.name == tensordimm::models::WorkloadName::Ncf {
            1.13
        } else {
            1.0
        };
        assert!(
            tdimm <= pmem * tie,
            "{}: PMEM {pmem:.1} beat TDIMM {tdimm:.1}",
            w.name
        );
        assert!(
            oracle <= tdimm * 1.001,
            "{}: TDIMM {tdimm:.1} beat the oracle {oracle:.1}",
            w.name
        );
    }
}
