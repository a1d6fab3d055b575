//! Integration: timing numbers produced by the simulation stack are
//! physically sane and move in the right directions.

use tensordimm::core::{ReduceOp, TensorNode, TensorNodeConfig, TimingMode};
use tensordimm::isa::{DimmContext, Instruction};
use tensordimm::nmp::{NmpConfig, NmpCore};

#[test]
fn node_bandwidth_never_exceeds_peak() {
    let mut node =
        TensorNode::new(TensorNodeConfig::paper().with_pool_blocks(1 << 20)).expect("valid config");
    let t = node.create_table("t", 4096, 512).expect("fits");
    let idx: Vec<u64> = (0..512u64).map(|i| (i * 97) % 4096).collect();
    let g = node.gather(&t, &idx).expect("in range");
    let _ = node.average(&g, 8).expect("divisible");
    for report in node.reports() {
        let gbps = report.node_gbps().expect("replay timing on");
        assert!(gbps > 0.0);
        assert!(
            gbps <= node.peak_gbps() * 1.001,
            "{gbps} GB/s exceeds the node's physical {} GB/s",
            node.peak_gbps()
        );
    }
}

#[test]
fn pipeline_mode_is_not_faster_than_replay() {
    // The detailed pipeline adds SRAM-queue and ALU constraints on top of
    // the raw DRAM replay, so it can only be slower or equal.
    let reduce = Instruction::Reduce {
        input1: 0,
        input2: 1 << 20,
        output_base: 1 << 21,
        count: 32 * 2048,
        op: ReduceOp::Add,
    };
    let ctx = DimmContext::new(32, 0);
    let mut core = NmpCore::new(NmpConfig::paper()).expect("valid");
    let replay = core.replay_instruction(&reduce, ctx, None).expect("valid");
    let pipeline = core.run_instruction(&reduce, ctx, None).expect("valid");
    assert!(
        pipeline.cycles as f64 >= replay.cycles as f64 * 0.95,
        "pipeline {} cycles vs replay {}",
        pipeline.cycles,
        replay.cycles
    );
}

#[test]
fn more_dimms_means_higher_node_bandwidth() {
    let mut last = 0.0f64;
    for dimms in [4u64, 8, 16, 32] {
        let cfg = TensorNodeConfig::paper()
            .with_dimms(dimms)
            .with_pool_blocks(1 << 20);
        let mut node = TensorNode::new(cfg).expect("valid");
        let t = node.create_table("t", 2048, 512).expect("fits");
        let idx: Vec<u64> = (0..512u64).map(|i| (i * 61) % 2048).collect();
        let _ = node.gather(&t, &idx).expect("in range");
        let gbps = node
            .last_report()
            .and_then(|r| r.node_gbps())
            .expect("replay timing on");
        assert!(
            gbps > last,
            "{dimms} DIMMs: {gbps:.0} GB/s not above previous {last:.0}"
        );
        last = gbps;
    }
}

#[test]
fn functional_and_replay_modes_agree_on_values() {
    // Timing mode must not change functional results.
    let run = |timing| {
        let cfg = TensorNodeConfig::small().with_timing(timing);
        let mut node = TensorNode::new(cfg).expect("valid");
        let t = node.create_table("t", 128, 64).expect("fits");
        node.fill_table(&t, |r, c| (r * 7 + c as u64) as f32)
            .expect("valid");
        let g = node.gather(&t, &[1, 3, 5, 7]).expect("in range");
        let a = node.average(&g, 2).expect("divisible");
        node.read_tensor(&a).expect("readable")
    };
    assert_eq!(run(TimingMode::Functional), run(TimingMode::Replay));
}

#[test]
fn gather_timing_scales_with_batch() {
    let cfg = TensorNodeConfig::paper().with_pool_blocks(1 << 20);
    let mut node = TensorNode::new(cfg).expect("valid");
    let t = node.create_table("t", 4096, 512).expect("fits");
    let small_idx: Vec<u64> = (0..64u64).collect();
    let large_idx: Vec<u64> = (0..1024u64).map(|i| i % 4096).collect();
    let _ = node.gather(&t, &small_idx).expect("in range");
    let small_ns = node.last_report().unwrap().elapsed_ns().unwrap();
    let _ = node.gather(&t, &large_idx).expect("in range");
    let large_ns = node.last_report().unwrap().elapsed_ns().unwrap();
    assert!(
        large_ns > 4.0 * small_ns,
        "16x the lookups only took {large_ns:.0} ns vs {small_ns:.0} ns"
    );
}
