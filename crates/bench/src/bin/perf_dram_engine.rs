//! Perf + equivalence harness for the event-driven DRAM engine.
//!
//! Replays the Fig. 4 / Fig. 11 gather traces (plus a sparse, low-QPS
//! variant with `not_before` arrival gaps) through both engine paths —
//! the tick-stepped oracle ([`TraceRunner::run_ticked`]) and the
//! event-driven fast path ([`TraceRunner::run`]) — asserts bit-identical
//! `MemoryStats` and completion streams, and reports the wall-clock
//! speedup plus the idle-cycles-skipped counter as JSON.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tensordimm_bench --bin perf_dram_engine \
//!     [-- --quick] [-- --workers N]
//! ```
//!
//! `--quick` shrinks the traces so CI can gate on the equivalence
//! assertions (not the speed numbers) in seconds. The full run also writes
//! `BENCH_dram_engine.json`, seeding the repo's perf trajectory.
//!
//! Besides wall-clock, the replay rows carry `banks_examined`, the
//! scheduler's deterministic work counter
//! ([`MemorySystem::banks_examined`]): bank candidates visited over all
//! scheduling decisions of the event path (the NMP row reports its
//! uncached replay).
//!
//! The `cached_gather` scenario exercises the hot-row SRAM tier in the
//! gather replay: a zero-capacity cache must reproduce the uncached
//! pipeline byte for byte, while a head-sized cache against a Zipf-0.9
//! stream must hit and shorten the replay. The `faulted_serving` scenario
//! does the same for the fault-injection layer: an armed fault plan whose
//! schedule is empty must leave the serving simulation byte-identical,
//! and a harsh plan must degrade it while conserving every request.
//!
//! Besides the tick-vs-event scenarios, the harness runs the **parallel
//! execution layer** through its paces: a sequential-vs-parallel offered
//! load sweep (`parallel_sweep`), a sequential-vs-concurrent cycle-pricer
//! warm-up (`pricer_concurrent_warm`), and a multi-worker channel advance
//! (`parallel_channels`). Every parallel scenario asserts bit-identity
//! against its single-threaded oracle regardless of flags; the speedup
//! floors (>= 2x under `--quick`, >= 3x full) are enforced only when the
//! run is actually parallel enough to owe them — at least 4 workers on at
//! least 4 cores — so a `--workers 2` CI run or a small container still
//! exercises and gates the *correctness* of the parallel path.

use std::time::Instant;

use tensordimm_bench::args::workers_from_args;
use tensordimm_bench::traffic::{op_trace, OpExperiment, OpKind};
use tensordimm_dram::{
    Completion, DramConfig, MemoryStats, MemorySystem, Request, Trace, TraceEntry, TraceRunner,
};
use tensordimm_embedding::zipf_lookup_rows;
use tensordimm_isa::{DimmContext, Instruction};
use tensordimm_models::Workload;
use tensordimm_nmp::{NmpConfig, NmpCore, NmpRunStats};
use tensordimm_serving::{
    offered_load_sweep, offered_load_sweep_par, simulate, ArrivalProcess, BatchPolicy, FaultPlan,
    NodeOutage, SimConfig,
};
use tensordimm_system::{
    BatchPricer, CyclePricer, CyclePricerConfig, DesignPoint, HotRowCacheConfig, SystemModel,
};

struct Scenario {
    name: &'static str,
    /// Minimum wall-clock speedup the full-size run must reach.
    speedup_floor: f64,
    trace: Trace,
    config: DramConfig,
}

fn gather_exp(count: u64, seed: u64) -> OpExperiment {
    OpExperiment {
        op: OpKind::Gather,
        count,
        vec_blocks: 32,
        table_rows: 100_000,
        seed,
        zipf_s: 0.0,
    }
}

fn spaced(trace: &Trace, gap: u64) -> Trace {
    trace
        .entries()
        .iter()
        .enumerate()
        .map(|(i, e)| TraceEntry {
            not_before: i as u64 * gap,
            request: e.request,
        })
        .collect()
}

fn scenarios(quick: bool) -> Vec<Scenario> {
    let dense_count: u64 = if quick { 64 } else { 1024 };
    let sparse_count: u64 = if quick { 48 } else { 256 };
    let channel = DramConfig::ddr4_3200_channel();
    let cpu = DramConfig::cpu_memory(8);

    let dense = op_trace(&gather_exp(dense_count, 5), channel.capacity_bytes());
    let cpu_dense = op_trace(&gather_exp(dense_count / 2, 7), cpu.capacity_bytes());
    // Sparse: one 64-byte lookup block every `gap` cycles — a low-QPS
    // serving replay where almost every cycle is idle.
    let sparse_base = op_trace(&gather_exp(sparse_count, 11), channel.capacity_bytes());
    let gap = 2_000;

    vec![
        // The fig-04/fig-11 dense gather on a TensorDIMM's local channel:
        // the acceptance target of >= 1.5x rides on this scenario.
        Scenario {
            name: "dense_gather_1ch",
            speedup_floor: 1.5,
            trace: dense,
            config: channel.clone(),
        },
        // The same stream over the 8-channel CPU memory; action-dense on
        // every channel, so the honest floor is lower.
        Scenario {
            name: "dense_gather_8ch_cpu",
            speedup_floor: 1.2,
            trace: cpu_dense,
            config: cpu,
        },
        Scenario {
            name: "sparse_gather_low_qps",
            speedup_floor: 10.0,
            trace: spaced(&sparse_base, gap),
            config: channel,
        },
    ]
}

struct PathResult {
    stats: MemoryStats,
    completions: Vec<Completion>,
    final_cycle: u64,
    skipped: u64,
    banks_examined: u64,
    wall_s: f64,
}

fn replay(trace: &Trace, config: &DramConfig, event_driven: bool) -> PathResult {
    let mem = MemorySystem::new(config.clone()).expect("valid config");
    let mut runner = TraceRunner::new(mem);
    let start = Instant::now();
    let stats = if event_driven {
        runner.run(trace).expect("trace in range")
    } else {
        runner.run_ticked(trace).expect("trace in range")
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut completions = Vec::new();
    let memory = runner.memory_mut();
    memory.drain_completions_into(&mut completions);
    PathResult {
        stats,
        completions,
        final_cycle: memory.cycle(),
        skipped: memory.idle_cycles_skipped(),
        banks_examined: memory.banks_examined(),
        wall_s,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let workers = workers_from_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The parallel speedup floors only bind when the run can plausibly
    // deliver them: >= 4 workers actually running on >= 4 cores (the
    // acceptance target is >= 3x on a 4-core full grid). Bit-identity is
    // asserted unconditionally.
    let gate_parallel = workers >= 4 && cores >= 4;
    let par_floor = if quick { 2.0 } else { 3.0 };
    eprintln!(
        "parallel scenarios: {workers} workers on {cores} cores; speedup floor {par_floor:.1}x {}",
        if gate_parallel {
            "(gated)"
        } else {
            "(informational — needs >= 4 workers and >= 4 cores to gate)"
        }
    );
    let mut rows = Vec::new();
    let mut gate_failures = Vec::new();

    for sc in scenarios(quick) {
        let oracle = replay(&sc.trace, &sc.config, false);
        let fast = replay(&sc.trace, &sc.config, true);

        assert_eq!(
            oracle.stats, fast.stats,
            "{}: MemoryStats diverged between tick and event paths",
            sc.name
        );
        assert_eq!(
            oracle.completions, fast.completions,
            "{}: completion streams diverged",
            sc.name
        );
        assert_eq!(
            oracle.final_cycle, fast.final_cycle,
            "{}: final cycles diverged",
            sc.name
        );
        assert_eq!(oracle.skipped, 0, "oracle path must not skip");

        let speedup = oracle.wall_s / fast.wall_s.max(1e-9);
        if !quick && speedup < sc.speedup_floor {
            gate_failures.push(format!(
                "{}: {speedup:.2}x below the {:.1}x floor",
                sc.name, sc.speedup_floor
            ));
        }
        rows.push(format!(
            concat!(
                "    {{\"scenario\": \"{}\", \"requests\": {}, ",
                "\"simulated_cycles\": {}, \"idle_cycles_skipped\": {}, ",
                "\"banks_examined\": {}, ",
                "\"tick_wall_s\": {:.6}, \"event_wall_s\": {:.6}, ",
                "\"speedup\": {:.2}, \"identical\": true}}"
            ),
            sc.name,
            sc.trace.len(),
            fast.final_cycle,
            fast.skipped,
            fast.banks_examined,
            oracle.wall_s,
            fast.wall_s,
            speedup,
        ));
        eprintln!(
            "{:<24} {:>7} reqs  {:>10} cycles  {:>10} skipped  tick {:>8.3}s  event {:>8.3}s  {:>6.1}x",
            sc.name,
            sc.trace.len(),
            fast.final_cycle,
            fast.skipped,
            oracle.wall_s,
            fast.wall_s,
            speedup
        );
    }

    // Hot-row cache in the cycle-level gather path: a Zipf-0.9 lookup
    // stream replayed uncached, through a zero-capacity cache (must be
    // byte-identical — the acceptance witness that the cache plumbing is
    // inert when disabled), and through a head-sized cache (must hit and
    // shorten the replay). The wall-clock floor on the hit path only arms
    // on hosts with >= 4 cores, mirroring the parallel-floor policy.
    {
        let lookups: usize = if quick { 512 } else { 4096 };
        let table_rows: u64 = 50_000;
        let zipf_s = 0.9;
        let indices = zipf_lookup_rows(lookups, table_rows, zipf_s, 0xcafe);
        let g = Instruction::Gather {
            table_base: 0,
            idx_base: 1 << 27,
            output_base: 1 << 28,
            count: lookups as u64,
            vec_blocks: 32,
        };
        let ctx = DimmContext::new(32, 0);
        let run = |hot_rows: HotRowCacheConfig| -> (NmpRunStats, f64) {
            let mut cfg = NmpConfig::paper();
            cfg.hot_rows = hot_rows;
            let mut core = NmpCore::new(cfg).expect("valid NMP config");
            let start = Instant::now();
            let stats = core
                .run_instruction(&g, ctx, Some(&indices))
                .expect("valid gather");
            (stats, start.elapsed().as_secs_f64())
        };

        let (uncached, uncached_wall_s) = run(HotRowCacheConfig::disabled());
        // Zero capacity with latent geometry knobs set: the cache code
        // path must collapse to the uncached pipeline bit for bit.
        let (zeroed, _) = run(HotRowCacheConfig {
            capacity_rows: 0,
            ways: 4,
            hit_latency_cycles: 77,
        });
        assert_eq!(
            uncached, zeroed,
            "cached_gather: zero-capacity cache perturbed the uncached replay"
        );

        let capacity = 500; // head-sized: ~1% of the table's rows
        let (cached, cached_wall_s) = run(HotRowCacheConfig::fully_associative(capacity));
        assert!(
            cached.hot_rows.hits > 0,
            "cached_gather: Zipf-{zipf_s} head produced no hits"
        );
        assert_eq!(
            cached.writes, uncached.writes,
            "cached_gather: outputs must still drain to DRAM"
        );
        assert_eq!(
            cached.reads,
            uncached.reads - cached.hot_rows.hit_blocks,
            "cached_gather: every hit block must come off the DRAM read stream"
        );
        assert!(
            cached.cycles < uncached.cycles,
            "cached_gather: cache did not shorten the replay \
             ({} vs {} cycles)",
            cached.cycles,
            uncached.cycles
        );

        let hit_rate = cached.hot_rows.hit_rate();
        let cycle_ratio = uncached.cycles as f64 / cached.cycles as f64;
        let speedup = uncached_wall_s / cached_wall_s.max(1e-9);
        // Fewer DRAM events to simulate should also be faster to simulate,
        // but only gate wall clock where the host is quiet enough to owe it.
        if !quick && cores >= 4 && speedup < 1.05 {
            gate_failures.push(format!(
                "cached_gather: hit path only {speedup:.2}x the uncached replay wall clock"
            ));
        }
        rows.push(format!(
            concat!(
                "    {{\"scenario\": \"cached_gather\", \"lookups\": {}, ",
                "\"table_rows\": {}, \"zipf_s\": {}, \"capacity_rows\": {}, ",
                "\"hit_rate\": {:.4}, \"hits\": {}, \"misses\": {}, ",
                "\"uncached_cycles\": {}, \"cached_cycles\": {}, ",
                "\"uncached_banks_examined\": {}, ",
                "\"cycle_speedup\": {:.3}, \"uncached_wall_s\": {:.6}, ",
                "\"cached_wall_s\": {:.6}, \"wall_speedup\": {:.2}, ",
                "\"identical_when_disabled\": true}}"
            ),
            lookups,
            table_rows,
            zipf_s,
            capacity,
            hit_rate,
            cached.hot_rows.hits,
            cached.hot_rows.misses,
            uncached.cycles,
            cached.cycles,
            uncached.banks_examined,
            cycle_ratio,
            uncached_wall_s,
            cached_wall_s,
            speedup,
        ));
        eprintln!(
            "{:<24} {:>7} rows   {:>10.1}% hits  {:>10} cycles  unc  {:>8.3}s  cache {:>8.3}s  {:>6.1}x",
            "cached_gather",
            capacity,
            hit_rate * 100.0,
            cached.cycles,
            uncached_wall_s,
            cached_wall_s,
            speedup
        );
    }

    // Serving-backend cost: one cold cycle-calibrated batch price (the
    // gather replay) vs a memoized hit. Backend cost regressions — a
    // slower replay or a broken latency table — show up here and are
    // gated on the full-size run.
    {
        let model = SystemModel::paper_defaults();
        let mut cfg = CyclePricerConfig::paper_defaults();
        if quick {
            cfg.max_replayed_lookups = 256;
        }
        let pricer = CyclePricer::with_config(&model, cfg).expect("valid replay config");
        let w = Workload::facebook();
        let start = Instant::now();
        let cold = pricer
            .price(&w, 32, DesignPoint::Tdimm, 8)
            .expect("valid batch");
        let cold_wall_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let warm = pricer
            .price(&w, 32, DesignPoint::Tdimm, 8)
            .expect("valid batch");
        let warm_wall_s = start.elapsed().as_secs_f64();
        assert_eq!(
            cold.service_us.to_bits(),
            warm.service_us.to_bits(),
            "memoized price must be bit-identical to the cold replay"
        );
        let memo_speedup = cold_wall_s / warm_wall_s.max(1e-9);
        if !quick && memo_speedup < 50.0 {
            gate_failures.push(format!(
                "serving_cycle_price: memo hit only {memo_speedup:.1}x faster than cold replay"
            ));
        }
        rows.push(format!(
            concat!(
                "    {{\"scenario\": \"serving_cycle_price\", ",
                "\"workload\": \"Facebook\", \"batch\": 32, ",
                "\"service_us\": {:.3}, \"cold_wall_s\": {:.6}, ",
                "\"warm_wall_s\": {:.9}, \"memo_speedup\": {:.1}, ",
                "\"identical\": true}}"
            ),
            cold.service_us, cold_wall_s, warm_wall_s, memo_speedup,
        ));
        eprintln!(
            "{:<24} {:>7}      batch-32 price {:>8.1} us    cold {:>8.4}s  warm {:>9.6}s  {:>6.0}x",
            "serving_cycle_price", "", cold.service_us, cold_wall_s, warm_wall_s, memo_speedup
        );
    }

    // Parallel offered-load sweep: the same analytic sweep run through the
    // sequential oracle and through the worker pool must produce
    // bit-identical LoadPoint curves; wall-clock gap is the sweep tier's
    // speedup. Analytic pricing keeps every point compute-bound in the
    // simulator itself, so the scenario measures the pool, not the memo.
    {
        let model = SystemModel::paper_defaults();
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0));
        let (n_rates, requests) = if quick { (8, 1_500) } else { (16, 12_000) };
        let rates: Vec<f64> = (1..=n_rates).map(|i| 50_000.0 * i as f64).collect();
        let seed = 0x51a;

        let start = Instant::now();
        let seq = offered_load_sweep(&model, &w, &cfg, &rates, requests, seed).expect("valid");
        let seq_wall_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let par = offered_load_sweep_par(&model, &w, &cfg, &rates, requests, seed, workers)
            .expect("valid");
        let par_wall_s = start.elapsed().as_secs_f64();
        assert_eq!(
            seq, par,
            "parallel_sweep: parallel curve diverged from the sequential oracle"
        );

        let speedup = seq_wall_s / par_wall_s.max(1e-9);
        if gate_parallel && speedup < par_floor {
            gate_failures.push(format!(
                "parallel_sweep: {speedup:.2}x below the {par_floor:.1}x floor \
                 ({workers} workers, {cores} cores)"
            ));
        }
        rows.push(format!(
            concat!(
                "    {{\"scenario\": \"parallel_sweep\", \"rates\": {}, ",
                "\"requests_per_rate\": {}, \"workers\": {}, \"cores\": {}, ",
                "\"seq_wall_s\": {:.6}, \"par_wall_s\": {:.6}, ",
                "\"speedup\": {:.2}, \"gated\": {}, \"identical\": true}}"
            ),
            rates.len(),
            requests,
            workers,
            cores,
            seq_wall_s,
            par_wall_s,
            speedup,
            gate_parallel,
        ));
        eprintln!(
            "{:<24} {:>7} rates  {:>10} reqs/rate  {:>10}      seq  {:>8.3}s  par   {:>8.3}s  {:>6.1}x",
            "parallel_sweep",
            rates.len(),
            requests,
            "",
            seq_wall_s,
            par_wall_s,
            speedup
        );
    }

    // Concurrent cycle-pricer warm-up: replaying the distinct batch shapes
    // of a full backend-compare grid on the worker pool must produce a
    // bit-identical latency table with exactly one replay per key.
    {
        let model = SystemModel::paper_defaults();
        let make_pricer = || {
            let mut cfg = CyclePricerConfig::paper_defaults();
            cfg.max_replayed_lookups = if quick { 256 } else { 2000 };
            CyclePricer::with_config(&model, cfg).expect("valid replay config")
        };
        let batches: &[usize] = if quick { &[8, 32] } else { &[8, 16, 32, 64] };
        let shapes: Vec<(Workload, usize)> = Workload::all()
            .into_iter()
            .flat_map(|w| batches.iter().map(move |&b| (w.clone(), b)))
            .collect();

        let seq_pricer = make_pricer();
        let start = Instant::now();
        let seq_fresh = seq_pricer.warm(&shapes, 1);
        let seq_wall_s = start.elapsed().as_secs_f64();
        let par_pricer = make_pricer();
        let start = Instant::now();
        let par_fresh = par_pricer.warm(&shapes, workers);
        let par_wall_s = start.elapsed().as_secs_f64();

        // Workloads may share a gather fingerprint (the table is keyed by
        // what the replay actually depends on), so the ground truth for
        // "one replay per distinct key" is the table size itself.
        let distinct = seq_pricer.cached_entries() as u64;
        assert!(distinct > 0 && distinct <= shapes.len() as u64);
        assert_eq!(
            seq_fresh, distinct,
            "pricer_concurrent_warm: sequential warm must replay each distinct key once"
        );
        assert_eq!(
            par_fresh, seq_fresh,
            "pricer_concurrent_warm: concurrent warm duplicated or dropped replays"
        );
        assert_eq!(
            par_pricer.replay_count(),
            distinct,
            "pricer_concurrent_warm: duplicate replays for the same key"
        );
        let seq_table: Vec<_> = seq_pricer
            .cached_table()
            .into_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .collect();
        let par_table: Vec<_> = par_pricer
            .cached_table()
            .into_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .collect();
        assert_eq!(
            seq_table, par_table,
            "pricer_concurrent_warm: memo tables diverged between 1 and {workers} workers"
        );

        let speedup = seq_wall_s / par_wall_s.max(1e-9);
        if gate_parallel && speedup < par_floor {
            gate_failures.push(format!(
                "pricer_concurrent_warm: {speedup:.2}x below the {par_floor:.1}x floor \
                 ({workers} workers, {cores} cores)"
            ));
        }
        rows.push(format!(
            concat!(
                "    {{\"scenario\": \"pricer_concurrent_warm\", \"shapes\": {}, ",
                "\"replays\": {}, \"workers\": {}, \"cores\": {}, ",
                "\"seq_wall_s\": {:.6}, \"par_wall_s\": {:.6}, ",
                "\"speedup\": {:.2}, \"gated\": {}, \"identical\": true}}"
            ),
            shapes.len(),
            par_fresh,
            workers,
            cores,
            seq_wall_s,
            par_wall_s,
            speedup,
            gate_parallel,
        ));
        eprintln!(
            "{:<24} {:>7} shapes {:>10} replays    {:>10}      seq  {:>8.3}s  par   {:>8.3}s  {:>6.1}x",
            "pricer_concurrent_warm",
            shapes.len(),
            par_fresh,
            "",
            seq_wall_s,
            par_wall_s,
            speedup
        );
    }

    // Multi-worker channel advance: the 8-channel CPU memory drained and
    // then advanced far past its last event (refresh-only activity) with
    // the channels fanned across the pool must match the single-threaded
    // engine bit for bit. No speedup floor: per-event advances are
    // deliberately kept sequential below the spawn-cost threshold, so this
    // scenario gates correctness of the engine tier, not a number.
    {
        let count: u64 = if quick { 2_048 } else { 16_384 };
        let cfg = DramConfig::cpu_memory(8);
        let run = |workers: usize| -> (MemoryStats, Vec<Completion>, u64, f64) {
            let mut mem = MemorySystem::new(cfg.clone())
                .expect("valid config")
                .with_workers(workers);
            let start = Instant::now();
            for i in 0..count {
                mem.push_when_ready(Request::read((i * 64) % cfg.capacity_bytes()).with_id(i));
            }
            mem.run_to_completion();
            mem.advance_to(mem.cycle() + 2_000_000);
            let wall_s = start.elapsed().as_secs_f64();
            let completions = mem.drain_completions();
            (mem.stats(), completions, mem.cycle(), wall_s)
        };
        let (seq_stats, seq_completions, seq_cycle, seq_wall_s) = run(1);
        let (par_stats, par_completions, par_cycle, par_wall_s) = run(workers);
        assert_eq!(
            seq_stats, par_stats,
            "parallel_channels: MemoryStats diverged across worker counts"
        );
        assert_eq!(
            seq_completions, par_completions,
            "parallel_channels: completion streams diverged"
        );
        assert_eq!(
            seq_cycle, par_cycle,
            "parallel_channels: final cycles diverged"
        );
        let speedup = seq_wall_s / par_wall_s.max(1e-9);
        rows.push(format!(
            concat!(
                "    {{\"scenario\": \"parallel_channels\", \"requests\": {}, ",
                "\"simulated_cycles\": {}, \"workers\": {}, \"cores\": {}, ",
                "\"seq_wall_s\": {:.6}, \"par_wall_s\": {:.6}, ",
                "\"speedup\": {:.2}, \"gated\": false, \"identical\": true}}"
            ),
            count, par_cycle, workers, cores, seq_wall_s, par_wall_s, speedup,
        ));
        eprintln!(
            "{:<24} {:>7} reqs  {:>10} cycles  {:>10}      seq  {:>8.3}s  par   {:>8.3}s  {:>6.1}x",
            "parallel_channels", count, par_cycle, "", seq_wall_s, par_wall_s, speedup
        );
    }

    // Fault-injection plumbing in the serving loop: a run whose fault
    // plan is armed but generates an *empty* schedule (node outage beyond
    // the trace) must be byte-identical to the plain simulator — the
    // zero-cost-when-unused witness for the degraded-mode layer — and a
    // genuinely faulted run must still conserve every request. The armed
    // run's wall clock is reported as the layer's overhead (informational;
    // both runs are milliseconds, too noisy to gate).
    {
        let model = SystemModel::paper_defaults();
        let w = Workload::facebook();
        let cfg = SimConfig::new(DesignPoint::Tdimm, 8, BatchPolicy::new(32, 300.0));
        let requests = if quick { 400 } else { 2_000 };
        let arrivals = ArrivalProcess::Poisson {
            rate_qps: 300_000.0,
        }
        .sample_arrivals_us(requests, 0xfa11);

        let start = Instant::now();
        let plain = simulate(&model, &w, &cfg, &arrivals).expect("valid");
        let plain_wall_s = start.elapsed().as_secs_f64();

        let armed_plan = FaultPlan::none().with_node_outage(NodeOutage {
            start_us: arrivals.last().copied().unwrap_or(0.0) + 1.0,
            duration_us: 1.0,
        });
        assert!(!armed_plan.is_inert());
        let start = Instant::now();
        let armed = simulate(&model, &w, &cfg.with_faults(armed_plan), &arrivals).expect("valid");
        let armed_wall_s = start.elapsed().as_secs_f64();
        assert_eq!(
            plain, armed,
            "faulted_serving: an armed plan with an empty schedule perturbed the run"
        );
        assert_eq!(
            plain.latency.p99_us.to_bits(),
            armed.latency.p99_us.to_bits(),
            "faulted_serving: p99 must be byte-identical, not merely close"
        );

        // A full-rate 2-DIMM plan plus a mid-trace node outage longer than
        // the deadline: some requests are structurally guaranteed to miss
        // the SLA whatever the trace seed draws.
        let mut harsh = FaultPlan::dimm_faults(0xfa, 1.0);
        harsh.dimms = 2;
        harsh.dimm_candidate_gap_us = 250.0;
        harsh.dimm_repair_us = 2_500.0;
        let harsh = harsh.with_node_outage(NodeOutage {
            start_us: 100.0,
            duration_us: 2_500.0,
        });
        let faulted_cfg = cfg
            .with_faults(harsh)
            .with_retry(
                tensordimm_serving::RetryPolicy::none()
                    .with_deadline(2_000.0)
                    .with_retries(3, 100.0, 2_000.0),
            )
            .with_admission(tensordimm_serving::AdmissionPolicy::bounded(256));
        let faulted = simulate(&model, &w, &faulted_cfg, &arrivals).expect("valid");
        assert!(
            faulted.is_conserved(),
            "faulted_serving: conservation violated under faults"
        );
        assert!(
            faulted.availability < 1.0,
            "faulted_serving: a full-rate 2-DIMM plan must cost some availability"
        );

        let overhead = armed_wall_s / plain_wall_s.max(1e-9);
        rows.push(format!(
            concat!(
                "    {{\"scenario\": \"faulted_serving\", \"requests\": {}, ",
                "\"plain_wall_s\": {:.6}, \"armed_wall_s\": {:.6}, ",
                "\"armed_overhead\": {:.2}, \"faulted_availability\": {:.4}, ",
                "\"faulted_timeouts\": {}, \"faulted_shed\": {}, ",
                "\"identical_when_empty\": true}}"
            ),
            requests,
            plain_wall_s,
            armed_wall_s,
            overhead,
            faulted.availability,
            faulted.outcomes.timed_out,
            faulted.outcomes.shed,
        ));
        eprintln!(
            "{:<24} {:>7} reqs  {:>9.4} avail under faults      plain {:>6.3}s  armed {:>7.3}s  {:>6.2}x",
            "faulted_serving",
            requests,
            faulted.availability,
            plain_wall_s,
            armed_wall_s,
            overhead
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"dram_engine\",\n  \"quick\": {},\n  \"scenarios\": [\n{}\n  ]\n}}",
        quick,
        rows.join(",\n")
    );
    println!("{json}");

    // Tick-vs-event speed gates only arm on the full-size traces; the
    // parallel floors arm whenever the run is parallel enough (>= 4
    // workers on >= 4 cores), quick or not. Either way, a non-empty list
    // here is a regression.
    assert!(
        gate_failures.is_empty(),
        "speedup gates failed: {}",
        gate_failures.join("; ")
    );
    if !quick {
        std::fs::write("BENCH_dram_engine.json", format!("{json}\n"))
            .expect("write BENCH_dram_engine.json");
        eprintln!("wrote BENCH_dram_engine.json");
    }
}
