//! Property-based tests over the TensorISA: wire-format round-trips,
//! slice-decomposition invariants, and executor-vs-golden equivalence.

use proptest::prelude::*;

use tensordimm::isa::{
    decode, decode_bytes, encode, execute_on_dimm, execute_on_node, AccessPlan, DimmContext,
    EncodedInstruction, Instruction, IsaError, ReduceOp, VecMemory,
};

fn arb_reduce_op() -> impl Strategy<Value = ReduceOp> {
    prop_oneof![
        Just(ReduceOp::Add),
        Just(ReduceOp::Sub),
        Just(ReduceOp::Mul),
        Just(ReduceOp::Min),
        Just(ReduceOp::Max),
    ]
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    let gather = (
        0u64..1 << 30,
        0u64..1 << 30,
        0u64..1 << 30,
        1u64..1 << 20,
        1u64..1024,
    )
        .prop_map(|(table_base, idx_base, output_base, count, vec_blocks)| {
            Instruction::Gather {
                table_base,
                idx_base,
                output_base,
                count,
                vec_blocks,
            }
        });
    let reduce = (
        0u64..1 << 30,
        0u64..1 << 30,
        0u64..1 << 30,
        1u64..1 << 20,
        arb_reduce_op(),
    )
        .prop_map(
            |(input1, input2, output_base, count, op)| Instruction::Reduce {
                input1,
                input2,
                output_base,
                count,
                op,
            },
        );
    let average = (
        0u64..1 << 30,
        0u64..1 << 30,
        1u64..1 << 16,
        1u64..256,
        1u64..1024,
    )
        .prop_map(
            |(input_base, output_base, count, group, vec_blocks)| Instruction::Average {
                input_base,
                output_base,
                count,
                group,
                vec_blocks,
            },
        );
    prop_oneof![gather, reduce, average]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every instruction survives the wire format bit-exactly.
    #[test]
    fn wire_roundtrip(instr in arb_instruction()) {
        let wire = encode(&instr).expect("fields fit the format by construction");
        prop_assert_eq!(decode(&wire).expect("just encoded"), instr);
    }

    /// The byte-level wire format also round-trips bit-exactly: encode →
    /// serialize → deserialize → decode is the identity.
    #[test]
    fn wire_byte_roundtrip(instr in arb_instruction()) {
        let bytes = encode(&instr).expect("fields fit").to_bytes();
        prop_assert_eq!(bytes.len(), EncodedInstruction::BYTES);
        prop_assert_eq!(decode_bytes(&bytes).expect("just serialized"), instr);
    }

    /// Any truncated (or padded) buffer is rejected with `WireLength` —
    /// never mis-parsed, never panicking.
    #[test]
    fn truncated_buffers_rejected(instr in arb_instruction(), cut in 0usize..40) {
        let bytes = encode(&instr).expect("fields fit").to_bytes();
        prop_assert_eq!(
            decode_bytes(&bytes[..cut]),
            Err(IsaError::WireLength { len: cut, expected: EncodedInstruction::BYTES })
        );
        let mut padded = bytes.to_vec();
        padded.extend_from_slice(&bytes[..cut.max(1)]);
        let verdict = decode_bytes(&padded);
        prop_assert!(
            matches!(verdict, Err(IsaError::WireLength { .. })),
            "padded buffer was accepted: {verdict:?}"
        );
    }

    /// Corrupting any single byte of a valid wire never panics: the result
    /// is either a clean decode error or a decoded instruction that
    /// re-encodes onto the observed bytes (i.e. the corruption landed on a
    /// meaningful field, not in dead padding the decoder ignores —
    /// AVERAGE's unused AUX word and REDUCE's vec_blocks lanes are the
    /// exceptions that decode but re-encode canonically).
    #[test]
    fn corrupted_buffers_never_panic(
        instr in arb_instruction(),
        pos in 0usize..40,
        flip in 1u8..255,
    ) {
        let mut bytes = encode(&instr).expect("fields fit").to_bytes();
        bytes[pos] ^= flip;
        match decode_bytes(&bytes) {
            Err(_) => {}
            Ok(decoded) => {
                // A successful decode must be internally consistent: the
                // instruction re-encodes without a field overflow.
                let reencoded = encode(&decoded).expect("decoded fields fit the format");
                prop_assert!(!reencoded.to_bytes().is_empty());
            }
        }
    }

    /// Fully arbitrary 40-byte garbage never panics the decoder.
    #[test]
    fn random_buffers_never_panic(
        words in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let wire = EncodedInstruction::from_words([words.0, words.1, words.2, words.3, words.4]);
        let _ = decode_bytes(&wire.to_bytes());
    }

    /// Executing slices tid = 0..node_dim in *any* order produces the same
    /// memory as the reference whole-node execution: slices are disjoint.
    #[test]
    fn slice_order_is_irrelevant(
        seed in 0u64..1000,
        node_dim in 1u64..9,
        perm_seed in 0u64..1000,
    ) {
        let vec_blocks = node_dim * 2;
        let count = 8u64;
        let mut base = VecMemory::new(8192);
        for r in 0..32u64 {
            for b in 0..vec_blocks {
                base.write_f32(r * vec_blocks + b, [(r as f32) + seed as f32; 16]);
            }
        }
        let idx: Vec<u32> = (0..count).map(|i| ((i * 7 + seed) % 32) as u32).collect();
        base.write_u32_slice(4096, &idx);
        let instr = Instruction::Gather {
            table_base: 0,
            idx_base: 4096,
            // Tensor bases must be stripe-aligned (multiples of node_dim).
            output_base: node_dim * 700,
            count,
            vec_blocks,
        };

        let mut reference = base.clone();
        execute_on_node(&instr, &mut reference, node_dim).expect("valid");

        // A permuted slice order.
        let mut order: Vec<u64> = (0..node_dim).collect();
        let n = order.len();
        for i in 0..n {
            let j = ((perm_seed as usize) + i * 31) % n;
            order.swap(i, j);
        }
        let mut permuted = base.clone();
        for tid in order {
            execute_on_dimm(&instr, &mut permuted, DimmContext::new(node_dim, tid))
                .expect("valid");
        }
        prop_assert_eq!(reference, permuted);
    }

    /// The access plan counts exactly the traffic the executor performs.
    #[test]
    fn plan_matches_execution(
        count in 1u64..64,
        node_dim in 1u64..9,
        op in arb_reduce_op(),
    ) {
        let blocks = count * node_dim;
        let mut mem = VecMemory::new(1 << 14);
        let instr = Instruction::Reduce {
            input1: 0,
            input2: blocks,
            output_base: 2 * blocks,
            count: blocks,
            op,
        };
        for tid in 0..node_dim {
            let ctx = DimmContext::new(node_dim, tid);
            let plan = AccessPlan::for_dimm(&instr, ctx, None).expect("valid");
            let summary = execute_on_dimm(&instr, &mut mem, ctx).expect("valid");
            prop_assert_eq!(plan.reads(), summary.blocks_read);
            prop_assert_eq!(plan.writes(), summary.blocks_written);
        }
    }

    /// Misalignment is always rejected, never silently mis-executed.
    #[test]
    fn misaligned_instructions_rejected(
        node_dim in 2u64..33,
        off in 1u64..32,
    ) {
        prop_assume!(off % node_dim != 0);
        let instr = Instruction::Reduce {
            input1: off,
            input2: 0,
            output_base: 0,
            count: node_dim,
            op: ReduceOp::Add,
        };
        let mut mem = VecMemory::new(4096);
        prop_assert!(execute_on_node(&instr, &mut mem, node_dim).is_err());
    }
}
