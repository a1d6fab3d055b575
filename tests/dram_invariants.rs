//! Property-based tests over the DRAM substrate: address-mapping bijection,
//! request conservation, and physical bandwidth bounds.

use proptest::prelude::*;

use tensordimm::dram::{DramConfig, MappingScheme, MemorySystem, Request, Trace, TraceRunner};

fn arb_geometry() -> impl Strategy<Value = tensordimm::dram::config::Geometry> {
    (0u32..2, 0u32..3, 1u32..3, 1u32..3, 8u32..12, 5u32..8).prop_map(
        |(ch, ranks, bg, banks, rows, cols)| tensordimm::dram::config::Geometry {
            channels: 1 << ch,
            ranks_per_channel: 1 << ranks,
            bank_groups: 1 << bg,
            banks_per_group: 1 << banks,
            rows: 1 << rows,
            columns: 1 << cols,
            bus_bytes: 8,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode is a bijection (via encode) for every preset mapping and
    /// any in-range address.
    #[test]
    fn mapping_bijection(geom in arb_geometry(), frac in 0.0f64..1.0) {
        let addr = ((geom.capacity_bytes() as f64 * frac) as u64) & !63;
        let addr = addr.min(geom.capacity_bytes() - 64);
        for mapping in [
            MappingScheme::channel_interleaved(&geom),
            MappingScheme::nmp_local(&geom),
        ] {
            mapping.validate(&geom).expect("preset fits geometry");
            let coord = mapping.decode(addr, &geom).expect("in range");
            prop_assert!(coord.channel < geom.channels);
            prop_assert!(coord.rank < geom.ranks_per_channel);
            prop_assert!(coord.bank_group < geom.bank_groups);
            prop_assert!(coord.bank < geom.banks_per_group);
            prop_assert!(coord.row < geom.rows);
            prop_assert!(coord.column < geom.columns);
            prop_assert_eq!(mapping.encode(&coord, &geom), addr);
        }
    }

    /// Every request pushed is eventually completed exactly once, and the
    /// simulator never reports more than physical peak bandwidth.
    #[test]
    fn conservation_and_bandwidth_bound(
        reads in 1usize..200,
        writes in 0usize..100,
        stride in 1u64..64,
        seed in 0u64..1000,
    ) {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = seed % 2 == 0;
        let cap = cfg.capacity_bytes();
        let mut trace = Trace::new();
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        for i in 0..reads {
            trace.read((i as u64 * stride * 64) % cap);
        }
        for _ in 0..writes {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            trace.write((x % cap) & !63);
        }
        let mut runner = TraceRunner::new(MemorySystem::new(cfg).expect("valid")) ;
        let stats = runner.run(&trace).expect("in range");
        prop_assert_eq!(stats.totals.reads, reads as u64);
        prop_assert_eq!(stats.totals.writes, writes as u64);
        prop_assert!(stats.utilization() <= 1.0 + 1e-9, "util {}", stats.utilization());
        let mut done = Vec::new();
        runner.memory_mut().drain_completions_into(&mut done);
        prop_assert_eq!(done.len(), reads + writes);
    }

    /// Request latency is bounded below by the physical minimum
    /// (tRCD + CL + burst for a cold bank).
    #[test]
    fn latency_lower_bound(addr_block in 0u64..10_000) {
        let mut cfg = DramConfig::ddr4_3200_channel();
        cfg.refresh_enabled = false;
        let t = cfg.timing.clone();
        let mut mem = MemorySystem::new(cfg).expect("valid");
        mem.push(Request::read(addr_block * 64)).expect("in range").then_some(()).expect("queue empty");
        mem.run_to_completion();
        let mut done = Vec::new();
        mem.drain_completions_into(&mut done);
        prop_assert_eq!(done.len(), 1);
        prop_assert!(done[0].latency() >= t.trcd + t.cl + t.burst_cycles());
    }
}
