//! Integration: the near-memory execution path (TensorNode -> TensorISA
//! wire format -> broadcast per-DIMM execution) is bit-exact against the
//! golden single-threaded tensor ops, across node sizes and embedding
//! dimensions (including ones that need stripe padding).

use tensordimm::core::{ReduceOp, TensorNode, TensorNodeConfig, TimingMode};
use tensordimm::embedding::{ops, Distribution, EmbeddingTable, IndexStream};

fn node(dimms: u64) -> TensorNode {
    let cfg = TensorNodeConfig::paper()
        .with_dimms(dimms)
        .with_timing(TimingMode::Functional)
        .with_pool_blocks(1 << 18);
    TensorNode::new(cfg).expect("valid config")
}

fn check_workflow(dimms: u64, dim: usize, rows: u64, batch: usize, group: u64) {
    let golden_table = EmbeddingTable::seeded("t", rows, dim, dimms ^ dim as u64);
    let mut n = node(dimms);
    let handle = n.create_table("t", rows, dim).expect("fits pool");
    n.fill_table(&handle, |r, c| golden_table.row(r).expect("in range")[c])
        .expect("valid handle");

    let mut stream = IndexStream::new(Distribution::Zipfian { s: 0.8 }, rows, 7);
    let indices = stream.batch(batch);

    // GATHER
    let gathered = n.gather(&handle, &indices).expect("indices in range");
    let golden_gathered = ops::gather(&golden_table, &indices).expect("in range");
    assert_eq!(
        n.read_tensor(&gathered).expect("readable"),
        golden_gathered,
        "gather mismatch: dimms={dimms} dim={dim}"
    );

    // AVERAGE
    if (batch as u64).is_multiple_of(group) {
        let pooled = n.average(&gathered, group).expect("divisible");
        let golden_pooled = ops::average(&golden_gathered, group as usize, dim).expect("divisible");
        let got = n.read_tensor(&pooled).expect("readable");
        assert_eq!(got.len(), golden_pooled.len());
        for (a, b) in got.iter().zip(&golden_pooled) {
            assert!((a - b).abs() <= 1e-6, "average mismatch {a} vs {b}");
        }
    }

    // REDUCE (all operators)
    for op in ReduceOp::all() {
        let reduced = n.reduce(&gathered, &gathered, op).expect("same shape");
        let golden_reduced =
            ops::reduce(&golden_gathered, &golden_gathered, op).expect("same shape");
        assert_eq!(
            n.read_tensor(&reduced).expect("readable"),
            golden_reduced,
            "reduce {op} mismatch: dimms={dimms} dim={dim}"
        );
    }
}

#[test]
fn single_dimm_node() {
    check_workflow(1, 64, 256, 16, 4);
}

#[test]
fn four_dimm_node() {
    check_workflow(4, 128, 512, 24, 6);
}

#[test]
fn paper_node_dim512() {
    check_workflow(32, 512, 256, 16, 4);
}

#[test]
fn padded_dimensions() {
    // dim 100 -> 400 B -> 7 blocks, padded to the DIMM stripe.
    check_workflow(4, 100, 128, 8, 2);
    check_workflow(32, 48, 64, 8, 2);
}

#[test]
fn repeated_and_duplicate_indices() {
    let mut n = node(8);
    let t = n.create_table("t", 32, 64).expect("fits");
    n.fill_table(&t, |r, _| r as f32).expect("valid");
    let g = n.gather(&t, &[5, 5, 5, 5]).expect("in range");
    let host = n.read_tensor(&g).expect("readable");
    assert!(host.chunks(64).all(|c| c[0] == 5.0));
}

#[test]
fn chained_ops_compose() {
    // gather -> average -> reduce chains preserve values end-to-end.
    let mut n = node(4);
    let t = n.create_table("t", 64, 32).expect("fits");
    n.fill_table(&t, |r, _| r as f32).expect("valid");
    let g = n.gather(&t, &[0, 2, 4, 6]).expect("in range");
    let avg = n.average(&g, 4).expect("divisible"); // (0+2+4+6)/4 = 3
    let doubled = n.reduce(&avg, &avg, ReduceOp::Add).expect("same shape");
    let host = n.read_tensor(&doubled).expect("readable");
    assert!(host.iter().all(|&v| v == 6.0), "{host:?}");
}

#[test]
fn embedding_layer_matches_golden_pipeline() {
    // The full Fig. 2 path (multi-table gather -> AVERAGE pool -> concat)
    // through the runtime equals the golden ops composed by hand.
    let dim = 32usize;
    let lookups = 4u64;
    let batch = 6usize;
    let rows = 64u64;
    let mut n = node(8);

    let golden_tables: Vec<EmbeddingTable> = (0..3)
        .map(|t| EmbeddingTable::seeded(&format!("t{t}"), rows, dim, t as u64))
        .collect();
    let mut handles = Vec::new();
    for (t, g) in golden_tables.iter().enumerate() {
        let h = n
            .create_table(&format!("t{t}"), rows, dim)
            .expect("fits pool");
        n.fill_table(&h, |r, c| g.row(r).expect("in range")[c])
            .expect("valid handle");
        handles.push(h);
    }
    let mut stream = IndexStream::new(Distribution::Uniform, rows, 5);
    let indices: Vec<Vec<u64>> = (0..3)
        .map(|_| stream.batch(batch * lookups as usize))
        .collect();

    let features = n
        .embedding_layer(&handles, &indices, lookups)
        .expect("valid layer");
    let got = n.read_features(&features, 3).expect("divides");

    // Golden: per table gather + average, then per-sample concat.
    let mut want = vec![0.0f32; batch * 3 * dim];
    for (t, g) in golden_tables.iter().enumerate() {
        let gathered = ops::gather(g, &indices[t]).expect("in range");
        let pooled = ops::average(&gathered, lookups as usize, dim).expect("divides");
        for b in 0..batch {
            let dst = b * 3 * dim + t * dim;
            want[dst..dst + dim].copy_from_slice(&pooled[b * dim..(b + 1) * dim]);
        }
    }
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(&want) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}
