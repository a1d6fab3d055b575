//! Criterion micro-benchmarks for the TensorISA functional executor.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tensordimm_isa::{decode, encode, execute_on_node, Instruction, ReduceOp, VecMemory};

const VB: u64 = 32; // dim-512 vectors
const COUNT: u64 = 256;

fn setup() -> (VecMemory, Vec<u64>) {
    let mut mem = VecMemory::new(1 << 16);
    for r in 0..1024u64 {
        for b in 0..VB {
            mem.write_f32(r * VB + b, [r as f32; 16]);
        }
    }
    let indices: Vec<u64> = (0..COUNT).map(|i| (i * 997) % 1024).collect();
    let idx_u32: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
    mem.write_u32_slice(40_000, &idx_u32);
    (mem, indices)
}

fn bench_exec(c: &mut Criterion) {
    let (mem, _) = setup();
    let gather = Instruction::Gather {
        table_base: 0,
        idx_base: 40_000,
        output_base: 45_056,
        count: COUNT,
        vec_blocks: VB,
    };
    let reduce = Instruction::Reduce {
        input1: 0,
        input2: 8192,
        output_base: 16_384,
        count: 8192,
        op: ReduceOp::Add,
    };

    let mut group = c.benchmark_group("isa_exec");
    group.throughput(Throughput::Bytes(COUNT * VB * 64 * 2));
    group.bench_function("gather_node32", |b| {
        b.iter_batched(
            || mem.clone(),
            |mut m| execute_on_node(black_box(&gather), &mut m, 32),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("reduce_node32", |b| {
        b.iter_batched(
            || mem.clone(),
            |mut m| execute_on_node(black_box(&reduce), &mut m, 32),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("encode_decode", |b| {
        b.iter(|| decode(&encode(black_box(&gather)).expect("encodable")))
    });
    group.finish();
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
