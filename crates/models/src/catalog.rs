//! The four evaluated workloads (paper Table 2).

use crate::mlp::MlpSpec;

/// Workload identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadName {
    /// Neural collaborative filtering (MLPerf).
    Ncf,
    /// The YouTube candidate-ranking network.
    YouTube,
    /// The Fox movie-recommendation network.
    Fox,
    /// Facebook's deep-learning recommendation model.
    Facebook,
}

impl WorkloadName {
    /// All four, in the paper's order.
    pub fn all() -> [WorkloadName; 4] {
        [
            WorkloadName::Ncf,
            WorkloadName::YouTube,
            WorkloadName::Fox,
            WorkloadName::Facebook,
        ]
    }
}

impl std::fmt::Display for WorkloadName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadName::Ncf => "NCF",
            WorkloadName::YouTube => "YouTube",
            WorkloadName::Fox => "Fox",
            WorkloadName::Facebook => "Facebook",
        };
        f.write_str(s)
    }
}

/// One recommender workload: embedding-layer shape plus DNN shape.
///
/// Embedding traffic per inference follows Fig. 2: each of `tables` lookup
/// tables is queried `lookups_per_table` times per sample (Table 2's "max
/// reduction"), the gathered embeddings are pooled per table, and the
/// pooled embeddings (one per table) feed the MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Which workload.
    pub name: WorkloadName,
    /// Number of embedding lookup tables.
    pub tables: usize,
    /// Embeddings gathered and pooled per table per sample.
    pub lookups_per_table: usize,
    /// Embedding dimension (512 by default in the paper).
    pub embedding_dim: usize,
    /// Rows per lookup table (5 M in the paper's Fig. 3 experiment).
    pub rows_per_table: u64,
    /// The DNN the pooled embeddings feed.
    pub mlp: MlpSpec,
}

impl Workload {
    fn build(
        name: WorkloadName,
        tables: usize,
        lookups: usize,
        hidden: &[usize],
        embedding_dim: usize,
    ) -> Self {
        let mut widths = vec![tables * embedding_dim];
        widths.extend_from_slice(hidden);
        widths.push(1);
        Workload {
            name,
            tables,
            lookups_per_table: lookups,
            embedding_dim,
            rows_per_table: 5_000_000,
            mlp: MlpSpec::new(widths).expect("catalog widths are nonempty"),
        }
    }

    /// NCF: 4 tables, reduction 2, 4 FC layers.
    pub fn ncf() -> Self {
        Workload::build(WorkloadName::Ncf, 4, 2, &[1024, 512, 256], 512)
    }

    /// YouTube: 2 tables, reduction 50, 4 MLP layers.
    pub fn youtube() -> Self {
        Workload::build(WorkloadName::YouTube, 2, 50, &[1024, 512, 256], 512)
    }

    /// Fox: 2 tables, reduction 50, 1 FC layer.
    pub fn fox() -> Self {
        Workload::build(WorkloadName::Fox, 2, 50, &[], 512)
    }

    /// Facebook: 8 tables, reduction 25, 6 MLP layers.
    pub fn facebook() -> Self {
        Workload::build(
            WorkloadName::Facebook,
            8,
            25,
            &[1024, 768, 512, 256, 128],
            512,
        )
    }

    /// Look up a workload by name.
    pub fn by_name(name: WorkloadName) -> Self {
        match name {
            WorkloadName::Ncf => Workload::ncf(),
            WorkloadName::YouTube => Workload::youtube(),
            WorkloadName::Fox => Workload::fox(),
            WorkloadName::Facebook => Workload::facebook(),
        }
    }

    /// All four workloads with default configuration.
    pub fn all() -> Vec<Workload> {
        WorkloadName::all().map(Workload::by_name).to_vec()
    }

    /// Scale the embedding dimension by `factor` (the Fig. 12/15/16
    /// "embedding (2x/4x/8x)" sweeps), rebuilding the MLP input width.
    pub fn scaled_embeddings(&self, factor: usize) -> Workload {
        let mut scaled = self.clone();
        scaled.embedding_dim = self.embedding_dim * factor;
        let mut widths = self.mlp.widths().to_vec();
        widths[0] = scaled.tables * scaled.embedding_dim;
        scaled.mlp = MlpSpec::new(widths).expect("same arity as source spec");
        scaled
    }

    /// Bytes of one embedding vector.
    pub fn embedding_bytes(&self) -> u64 {
        self.embedding_dim as u64 * 4
    }

    /// Embeddings gathered per sample (all tables).
    pub fn lookups_per_sample(&self) -> u64 {
        (self.tables * self.lookups_per_table) as u64
    }

    /// Bytes gathered from the tables for a batch (before pooling).
    pub fn gathered_bytes(&self, batch: usize) -> u64 {
        batch as u64 * self.lookups_per_sample() * self.embedding_bytes()
    }

    /// Bytes after per-table pooling (what the DNN consumes / what an NMP
    /// reduction ships to the GPU): one vector per table per sample.
    pub fn pooled_bytes(&self, batch: usize) -> u64 {
        batch as u64 * self.tables as u64 * self.embedding_bytes()
    }

    /// The communication-compression factor NMP reduction provides
    /// (`gathered / pooled` = lookups per table).
    pub fn reduction_factor(&self) -> u64 {
        self.lookups_per_table as u64
    }

    /// Total embedding-table footprint in bytes.
    pub fn table_footprint_bytes(&self) -> u64 {
        self.tables as u64 * self.rows_per_table * self.embedding_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_configuration() {
        let specs = [
            (Workload::ncf(), 4, 2, 4),
            (Workload::youtube(), 2, 50, 4),
            (Workload::fox(), 2, 50, 1),
            (Workload::facebook(), 8, 25, 6),
        ];
        for (w, tables, lookups, layers) in specs {
            assert_eq!(w.tables, tables, "{}", w.name);
            assert_eq!(w.lookups_per_table, lookups, "{}", w.name);
            assert_eq!(w.mlp.layers(), layers, "{}", w.name);
            assert_eq!(w.embedding_dim, 512, "{}", w.name);
        }
    }

    #[test]
    fn traffic_accounting() {
        let w = Workload::youtube();
        // 2 tables x 50 lookups x 2 KiB x batch.
        assert_eq!(w.gathered_bytes(1), 2 * 50 * 2048);
        assert_eq!(w.pooled_bytes(1), 2 * 2048);
        assert_eq!(w.reduction_factor(), 50);
        assert_eq!(w.gathered_bytes(64), 64 * 2 * 50 * 2048);
    }

    #[test]
    fn mlp_input_matches_pooled_width() {
        for w in Workload::all() {
            assert_eq!(w.mlp.input_dim(), w.tables * w.embedding_dim, "{}", w.name);
            assert_eq!(w.mlp.widths().last(), Some(&1), "{}", w.name);
        }
    }

    #[test]
    fn embedding_scaling() {
        let w = Workload::facebook().scaled_embeddings(4);
        assert_eq!(w.embedding_dim, 2048);
        assert_eq!(w.mlp.input_dim(), 8 * 2048);
        assert_eq!(w.mlp.layers(), Workload::facebook().mlp.layers());
        assert_eq!(
            w.table_footprint_bytes(),
            4 * Workload::facebook().table_footprint_bytes()
        );
    }

    #[test]
    fn footprints_exceed_gpu_memory() {
        // The paper's premise: tables do not fit the 16-32 GB of a GPU.
        for w in Workload::all() {
            assert!(
                w.table_footprint_bytes() > 16 << 30,
                "{} fits in GPU memory",
                w.name
            );
        }
    }

    #[test]
    fn by_name_and_display() {
        for name in WorkloadName::all() {
            let w = Workload::by_name(name);
            assert_eq!(w.name, name);
            assert!(!name.to_string().is_empty());
        }
    }
}
