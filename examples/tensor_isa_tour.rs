//! A tour of the TensorISA: wire encoding, broadcast execution, and how
//! each DIMM's slice composes into the full operation (paper Figs. 8-9).
//!
//! Run with: `cargo run --example tensor_isa_tour`

use tensordimm::isa::{
    decode, encode, execute_on_dimm, DimmContext, Instruction, ReduceOp, VecMemory,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let node_dim = 4u64; // four TensorDIMMs
    let vec_blocks = 4u64; // 256-byte embeddings

    // A memory pool with an 8-row table: row r holds the value r.
    let mut mem = VecMemory::new(4096);
    for r in 0..8u64 {
        for b in 0..vec_blocks {
            mem.write_f32(r * vec_blocks + b, [r as f32; 16]);
        }
    }
    // The replicated index list {6, 1, 3, 6} at block 512.
    mem.write_u32_slice(512, &[6, 1, 3, 6]);

    let gather = Instruction::Gather {
        table_base: 0,
        idx_base: 512,
        output_base: 1024,
        count: 4,
        vec_blocks,
    };

    // 1) The instruction crosses the wire exactly as a GPU runtime would
    //    ship it (Fig. 8's format).
    let wire = encode(&gather)?;
    println!("GATHER on the wire: {:016x?}", wire.words());
    let decoded = decode(&wire)?;
    assert_eq!(decoded, gather);

    // 2) Broadcast: every DIMM executes its own stripe; slices are
    //    disjoint and complete.
    for tid in 0..node_dim {
        let summary = execute_on_dimm(&decoded, &mut mem, DimmContext::new(node_dim, tid))?;
        println!(
            "DIMM {tid}: read {} blocks, wrote {} blocks (its 1/{} stripe)",
            summary.blocks_read, summary.blocks_written, node_dim
        );
    }
    println!(
        "gathered rows: {:?}",
        (0..4u64)
            .map(|i| mem.read_f32(1024 + i * vec_blocks)[0])
            .collect::<Vec<_>>()
    );

    // 3) REDUCE the gathered tensor with itself (element-wise max).
    let reduce = Instruction::Reduce {
        input1: 1024,
        input2: 1024,
        output_base: 2048,
        count: 4 * vec_blocks,
        op: ReduceOp::Max,
    };
    let wire = encode(&reduce)?;
    println!("REDUCE.max on the wire: {:016x?}", wire.words());
    for tid in 0..node_dim {
        execute_on_dimm(&decode(&wire)?, &mut mem, DimmContext::new(node_dim, tid))?;
    }
    println!("reduced row 0 value: {}", mem.read_f32(2048)[0]);

    // 4) AVERAGE pools the four gathered rows into one (Fig. 9c).
    let average = Instruction::Average {
        input_base: 1024,
        output_base: 3072,
        count: 1,
        group: 4,
        vec_blocks,
    };
    for tid in 0..node_dim {
        execute_on_dimm(&average, &mut mem, DimmContext::new(node_dim, tid))?;
    }
    println!(
        "average of rows [6,1,3,6] = {} (expected 4.0)",
        mem.read_f32(3072)[0]
    );
    Ok(())
}
