//! Equivalence of the event-driven DRAM engine against the tick oracle.
//!
//! The event-driven path (`TraceRunner::run`, `MemorySystem::advance_to`,
//! `push_blocking`, `run_to_completion`) must be *bit-identical* to
//! stepping one cycle at a time (`TraceRunner::run_ticked`,
//! `run_to_completion_ticked`): same completions in the same order, same
//! final cycle, same `ChannelStats` down to `busy_cycles`. These tests
//! drive both paths over randomized traces spanning every scheduler /
//! row-policy / refresh combination.

use proptest::prelude::*;

use tensordimm::dram::{
    Completion, DramConfig, MemoryStats, MemorySystem, Request, RowPolicy, SchedulerKind, Trace,
    TraceEntry, TraceRunner,
};

/// Run one trace through both engine paths and return
/// `(stats, completions, final_cycle, skipped)` per path.
fn both_paths(cfg: &DramConfig, trace: &Trace) -> [(MemoryStats, Vec<Completion>, u64, u64); 2] {
    let mut out = Vec::new();
    for event_driven in [false, true] {
        let mem = MemorySystem::new(cfg.clone()).expect("valid config");
        let mut runner = TraceRunner::new(mem);
        let stats = if event_driven {
            runner.run(trace).expect("in range")
        } else {
            runner.run_ticked(trace).expect("in range")
        };
        let memory = runner.memory_mut();
        let mut completions = Vec::new();
        memory.drain_completions_into(&mut completions);
        out.push((
            stats,
            completions,
            memory.cycle(),
            memory.idle_cycles_skipped(),
        ));
    }
    out.try_into().expect("two paths")
}

fn config(
    scheduler: SchedulerKind,
    row_policy: RowPolicy,
    refresh: bool,
    channels: usize,
) -> DramConfig {
    let mut cfg = if channels == 1 {
        DramConfig::ddr4_3200_channel()
    } else {
        DramConfig::cpu_memory(channels)
    };
    cfg.scheduler = scheduler;
    cfg.row_policy = row_policy;
    cfg.refresh_enabled = refresh;
    cfg
}

fn build_trace(ops: &[(u8, u64, u64)], capacity: u64) -> Trace {
    let mut not_before = 0u64;
    ops.iter()
        .map(|&(kind, addr_frac, gap)| {
            not_before += gap;
            let addr = (addr_frac % (capacity / 64)) * 64;
            TraceEntry {
                not_before,
                request: if kind % 2 == 0 {
                    Request::read(addr).with_id(addr_frac)
                } else {
                    Request::write(addr).with_id(addr_frac)
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed read/write traces, with and without arrival gaps,
    /// across every scheduler x row-policy x refresh combination: the two
    /// paths must agree bit-for-bit, and the event path must actually
    /// skip cycles whenever the trace leaves idle time.
    #[test]
    fn event_path_matches_tick_oracle(
        ops in prop::collection::vec((0u8..2, 0u64..u64::MAX, 0u64..400), 1..120),
        scheduler_pick in 0u8..2,
        policy_pick in 0u8..2,
        refresh in 0u8..2,
        channels_pick in 0u8..2,
    ) {
        let scheduler = if scheduler_pick == 0 { SchedulerKind::FrFcfs } else { SchedulerKind::Fcfs };
        let policy = if policy_pick == 0 { RowPolicy::OpenPage } else { RowPolicy::ClosedPage };
        let channels = if channels_pick == 0 { 1 } else { 2 };
        let cfg = config(scheduler, policy, refresh == 1, channels);
        let trace = build_trace(&ops, cfg.capacity_bytes());

        let [(o_stats, o_done, o_cycle, o_skip), (f_stats, f_done, f_cycle, f_skip)] =
            both_paths(&cfg, &trace);

        prop_assert_eq!(o_skip, 0, "oracle path must not skip");
        prop_assert_eq!(&o_stats, &f_stats, "stats diverged");
        prop_assert_eq!(o_done, f_done, "completion streams diverged");
        prop_assert_eq!(o_cycle, f_cycle, "final cycles diverged");
        prop_assert_eq!(o_stats.totals.reads + o_stats.totals.writes, trace.len() as u64);
        // Any arrival gap implies idle spans the fast path should jump.
        let gaps: u64 = ops.iter().map(|&(_, _, g)| g).sum();
        if gaps > 2_000 {
            prop_assert!(f_skip > 0, "no cycles skipped despite {gaps} gap cycles");
        }
    }

    /// Narrow address windows force row conflicts and bank contention —
    /// the regime where the keep-row-open heuristic, precharge timing,
    /// and write-drain watermarks all interact.
    #[test]
    fn event_path_matches_oracle_under_conflicts(
        ops in prop::collection::vec((0u8..2, 0u64..64, 0u64..8), 16..200),
        scheduler_pick in 0u8..2,
        refresh in 0u8..2,
    ) {
        let scheduler = if scheduler_pick == 0 { SchedulerKind::FrFcfs } else { SchedulerKind::Fcfs };
        let cfg = config(scheduler, RowPolicy::OpenPage, refresh == 1, 1);
        // Map the tiny address space over two rows of a few banks so open
        // rows are constantly contested.
        let window = 1u64 << 20;
        let conflict_ops: Vec<(u8, u64, u64)> = ops
            .iter()
            .map(|&(k, a, g)| (k, (a * 8191) % (window / 64), g))
            .collect();
        let trace = build_trace(&conflict_ops, window);

        let [(o_stats, o_done, o_cycle, _), (f_stats, f_done, f_cycle, _)] =
            both_paths(&cfg, &trace);
        prop_assert_eq!(&o_stats, &f_stats);
        prop_assert_eq!(o_done, f_done);
        prop_assert_eq!(o_cycle, f_cycle);
    }
}

/// A full-queue back-pressure replay: `push_blocking` (event path) and the
/// per-cycle retry loop must enqueue at identical cycles, which the
/// per-completion `enqueued_at` stamps make observable.
#[test]
fn back_pressure_enqueue_cycles_match() {
    let mut cfg = DramConfig::ddr4_3200_channel();
    cfg.read_queue_depth = 4;
    cfg.write_queue_depth = 4;
    cfg.write_high_watermark = 3;
    cfg.write_low_watermark = 1;
    let mut trace = Trace::new();
    for i in 0..256u64 {
        if i % 3 == 0 {
            trace.write((i * 131) % (1 << 22) * 64);
        } else {
            trace.read((i * 131) % (1 << 22) * 64);
        }
    }
    let [(o_stats, o_done, _, _), (f_stats, f_done, _, f_skip)] = both_paths(&cfg, &trace);
    assert_eq!(o_stats, f_stats);
    assert!(!o_done.is_empty());
    for (o, f) in o_done.iter().zip(&f_done) {
        assert_eq!(o.enqueued_at, f.enqueued_at, "enqueue cycle drift");
        assert_eq!(o.finished_at, f.finished_at, "finish cycle drift");
    }
    assert!(
        f_skip > 0,
        "tiny queues stall the producer; spans must skip"
    );
}

/// An empty trace is a no-op on both paths.
#[test]
fn empty_trace_is_noop() {
    let cfg = DramConfig::ddr4_3200_channel();
    let [(o_stats, o_done, o_cycle, _), (f_stats, f_done, f_cycle, _)] =
        both_paths(&cfg, &Trace::new());
    assert_eq!(o_stats, f_stats);
    assert_eq!(o_done, f_done);
    assert_eq!((o_cycle, f_cycle), (0, 0));
}

/// `advance_to` across several refresh windows on an idle system must
/// replay every refresh the oracle performs.
#[test]
fn idle_refresh_cadence_matches() {
    let cfg = DramConfig::ddr4_3200_channel();
    let horizon = 5 * cfg.timing.trefi;
    let mut oracle = MemorySystem::new(cfg.clone()).unwrap();
    for _ in 0..horizon {
        oracle.tick();
    }
    let mut fast = MemorySystem::new(cfg).unwrap();
    fast.advance_to(horizon);
    assert_eq!(oracle.stats(), fast.stats());
    assert!(oracle.stats().totals.refreshes > 0);
    assert!(fast.idle_cycles_skipped() > 0);
}
