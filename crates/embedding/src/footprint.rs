//! Memory-footprint models (behind paper Fig. 3).
//!
//! Fig. 3 shows why embeddings — not MLPs — blow up recommender-model
//! size: the table footprint scales with `users × dim` while MLP parameters
//! scale only with layer widths. These helpers compute both.

/// Bytes of one embedding table (`rows × dim` f32).
pub fn table_bytes(rows: u64, dim: u64) -> u64 {
    rows * dim * 4
}

/// Parameter count of a dense MLP over the given layer widths
/// (weights + biases for each consecutive pair).
pub fn mlp_params(widths: &[u64]) -> u64 {
    widths.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
}

/// A model-size breakdown for one configuration point of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintReport {
    /// Embedding-table bytes.
    pub embedding_bytes: u64,
    /// MLP parameter bytes.
    pub mlp_bytes: u64,
}

impl FootprintReport {
    /// Total model bytes.
    pub fn total_bytes(&self) -> u64 {
        self.embedding_bytes + self.mlp_bytes
    }

    /// Fraction of the model that is embeddings.
    pub fn embedding_fraction(&self) -> f64 {
        if self.total_bytes() == 0 {
            0.0
        } else {
            self.embedding_bytes as f64 / self.total_bytes() as f64
        }
    }
}

/// Footprint of a neural-collaborative-filtering model (the Fig. 3 subject):
/// MF + MLP embedding towers for `users` and `items` at `emb_dim`, plus a
/// pyramid MLP whose first hidden width is `mlp_dim`.
///
/// The experiment in the paper assumes 5 M users and 5 M items per lookup
/// table; four tables total (user/item × MF/MLP towers).
///
/// # Example
///
/// ```
/// use tensordimm_embedding::footprint::ncf_footprint;
///
/// let small = ncf_footprint(5_000_000, 5_000_000, 64, 1024);
/// let wide = ncf_footprint(5_000_000, 5_000_000, 4096, 1024);
/// // Scaling the embedding dimension 64x scales the model ~64x.
/// assert!(wide.total_bytes() > small.total_bytes() * 32);
/// ```
pub fn ncf_footprint(users: u64, items: u64, emb_dim: u64, mlp_dim: u64) -> FootprintReport {
    // Four towers: user-MF, item-MF, user-MLP, item-MLP.
    let embedding_bytes = 2 * (table_bytes(users, emb_dim) + table_bytes(items, emb_dim));
    // Pyramid MLP: concat(user, item) -> mlp_dim -> mlp_dim/2 -> mlp_dim/4 -> 1.
    let widths = [
        2 * emb_dim,
        mlp_dim,
        (mlp_dim / 2).max(1),
        (mlp_dim / 4).max(1),
        1,
    ];
    FootprintReport {
        embedding_bytes,
        mlp_bytes: mlp_params(&widths) * 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_bytes_math() {
        assert_eq!(table_bytes(1000, 512), 1000 * 512 * 4);
    }

    #[test]
    fn mlp_params_counts_weights_and_biases() {
        // 3 -> 2 -> 1: (3*2 + 2) + (2*1 + 1) = 11.
        assert_eq!(mlp_params(&[3, 2, 1]), 11);
        assert_eq!(mlp_params(&[5]), 0);
        assert_eq!(mlp_params(&[]), 0);
    }

    #[test]
    fn embeddings_dominate_ncf() {
        // The Fig. 3 observation: embedding dim dominates MLP dim.
        let r = ncf_footprint(5_000_000, 5_000_000, 512, 8192);
        assert!(r.embedding_fraction() > 0.97, "{}", r.embedding_fraction());
        // 4 tables x 5M x 512 x 4B = 40.96 GB ~ 38.1 GiB.
        let gib = r.total_bytes() as f64 / (1u64 << 30) as f64;
        assert!((gib - 38.15).abs() < 1.0, "{gib}");
    }

    #[test]
    fn embedding_scaling_beats_mlp_scaling() {
        let base = ncf_footprint(5_000_000, 5_000_000, 64, 64);
        let big_emb = ncf_footprint(5_000_000, 5_000_000, 512, 64);
        let big_mlp = ncf_footprint(5_000_000, 5_000_000, 64, 8192);
        let emb_growth = big_emb.total_bytes() as f64 / base.total_bytes() as f64;
        let mlp_growth = big_mlp.total_bytes() as f64 / base.total_bytes() as f64;
        assert!(emb_growth > 5.0 * mlp_growth);
    }

    #[test]
    fn report_helpers() {
        let r = FootprintReport {
            embedding_bytes: 3 << 30,
            mlp_bytes: 1 << 30,
        };
        assert_eq!(r.total_bytes(), 4 << 30);
        assert!((r.embedding_fraction() - 0.75).abs() < 1e-9);
    }
}

#[cfg(test)]
mod fig3_grid_tests {
    use super::*;

    /// The Fig. 3 grid is monotone along both axes, and the embedding axis
    /// dominates everywhere in the swept range.
    #[test]
    fn grid_monotonicity() {
        let users = 5_000_000;
        let items = 5_000_000;
        let mut prev_row_total = 0u64;
        for e in (6..=15).map(|p| 1u64 << p) {
            let mut prev = 0u64;
            let mut row_total = 0u64;
            for m in (6..=13).map(|p| 1u64 << p) {
                let r = ncf_footprint(users, items, e, m);
                assert!(r.total_bytes() >= prev, "mlp axis not monotone");
                prev = r.total_bytes();
                row_total = r.total_bytes();
            }
            assert!(row_total > prev_row_total, "embedding axis not monotone");
            prev_row_total = row_total;
        }
    }

    #[test]
    fn default_workload_point_matches_table2_footprint() {
        // emb 512, 5M rows, 4 NCF tables: the Table 2 NCF footprint.
        let r = ncf_footprint(5_000_000, 5_000_000, 512, 1024);
        let table2_ncf_bytes = 4u64 * 5_000_000 * 512 * 4;
        assert_eq!(r.embedding_bytes, table2_ncf_bytes);
    }
}
