//! Row-to-node placement: which shards own which embedding rows.

use crate::sim::ClusterError;

/// Index of a node (= shard) in the cluster, `0..nodes`.
pub type ShardId = usize;

/// How rows map to primary owners.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Multiplicative hash of the row id — decorrelated from popularity,
    /// so the Zipf head lands on arbitrary nodes.
    Hash,
    /// RecNMP's hot-entry treatment: rows below `hot_rows` (the Zipf
    /// head — low row ids are the popular ones) get **spread** replica
    /// sets and load-balanced routing; the cold tail is hash-sharded
    /// with successor replicas and primary-first routing.
    HotColdSplit {
        /// Rows in the replicated head.
        hot_rows: u64,
    },
}

/// A validated placement over a fixed cluster: primary owner plus
/// `replication - 1` successor replicas per row.
///
/// [`ShardPlan::owners_into`] is a pure function of the row id, so routing
/// never needs a directory service and replays bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    nodes: usize,
    replication: usize,
    placement: Placement,
}

/// SplitMix64 finalizer: the row-id mix behind every hashed placement
/// decision. Fixed (never seeded) so a plan is a pure function of its
/// knobs.
pub(crate) fn mix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ShardPlan {
    /// Build and validate a plan.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] when `nodes` is zero or at least
    /// `u32::MAX` (routed legs store shard ids as `u32`, with `u32::MAX`
    /// reserved) or `replication` is not in `1..=nodes`.
    pub fn new(
        nodes: usize,
        replication: usize,
        placement: Placement,
    ) -> Result<Self, ClusterError> {
        let bad = |parameter| Err(ClusterError::InvalidConfig { parameter });
        if nodes == 0 || nodes >= u32::MAX as usize {
            return bad("nodes");
        }
        if replication == 0 || replication > nodes {
            return bad("replication");
        }
        Ok(ShardPlan {
            nodes,
            replication,
            placement,
        })
    }

    /// Hash placement.
    pub fn hash(nodes: usize, replication: usize) -> Result<Self, ClusterError> {
        ShardPlan::new(nodes, replication, Placement::Hash)
    }

    /// Hot-cold split: replicate the `hot_rows` Zipf head, shard the tail.
    pub fn hot_cold(nodes: usize, replication: usize, hot_rows: u64) -> Result<Self, ClusterError> {
        ShardPlan::new(nodes, replication, Placement::HotColdSplit { hot_rows })
    }

    /// Nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Copies of every row (`1` = unreplicated).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Whether `row` is in the replicated, load-balanced Zipf head (only
    /// ever true under [`Placement::HotColdSplit`]).
    pub fn is_hot(&self, row: u64) -> bool {
        matches!(self.placement, Placement::HotColdSplit { hot_rows } if row < hot_rows)
    }

    /// The primary owner of `row`.
    pub fn primary(&self, row: u64) -> ShardId {
        if self.is_hot(row) {
            // A second mix round decorrelates the head's owner sets from
            // the tail's: spreading the replicated head across nodes is the
            // whole point of the split.
            (mix(mix(row) ^ 0x5bd1_e995) % self.nodes as u64) as ShardId
        } else {
            (mix(row) % self.nodes as u64) as ShardId
        }
    }

    /// The owner set of `row` into a caller-owned buffer: `owners` is
    /// cleared, then filled with the primary followed by `replication - 1`
    /// replicas, so a router reusing one buffer allocates nothing per row.
    /// Always `replication` distinct nodes, in deterministic order.
    ///
    /// Cold/hashed rows take *ring successors* (`primary + k`), the
    /// classic shard layout. [`Placement::HotColdSplit`]'s hot head
    /// instead draws **spread** replica sets — each replica is an
    /// independent hash probe — so when a node dies, its hot load
    /// rebalances across *all* survivors instead of funneling onto the
    /// ring successor along with the cold tail.
    pub fn owners_into(&self, row: u64, owners: &mut Vec<ShardId>) {
        let primary = self.primary(row);
        owners.clear();
        owners.push(primary);
        if self.is_hot(row) {
            let mut probe = 1u64;
            while owners.len() < self.replication && probe < 8 * self.nodes as u64 {
                let cand = (mix(mix(row) ^ 0x5bd1_e995 ^ probe.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    % self.nodes as u64) as ShardId;
                if !owners.contains(&cand) {
                    owners.push(cand);
                }
                probe += 1;
            }
            // Probe exhaustion is vanishingly rare; fill from the ring so
            // the set is always complete and deterministic.
        }
        let mut next = (primary + 1) % self.nodes;
        while owners.len() < self.replication {
            if !owners.contains(&next) {
                owners.push(next);
            }
            next = (next + 1) % self.nodes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The owner set of `row` in a fresh buffer.
    fn owners(plan: &ShardPlan, row: u64) -> Vec<ShardId> {
        let mut owners = Vec::new();
        plan.owners_into(row, &mut owners);
        owners
    }

    #[test]
    fn plans_validate() {
        assert!(ShardPlan::hash(0, 1).is_err());
        assert!(ShardPlan::hash(4, 0).is_err());
        assert!(ShardPlan::hash(4, 5).is_err());
        assert!(ShardPlan::hot_cold(4, 5, 1000).is_err());
        assert!(ShardPlan::hash(4, 4).is_ok());
        assert!(ShardPlan::hot_cold(4, 2, 1000).is_ok());
    }

    #[test]
    fn owners_are_distinct_in_range_and_deterministic() {
        for plan in [
            ShardPlan::hash(5, 3).expect("valid"),
            ShardPlan::hot_cold(5, 3, 500).expect("valid"),
            ShardPlan::hot_cold(5, 3, u64::MAX).expect("valid"),
        ] {
            for row in (0..2_000u64).chain([u64::MAX, u64::MAX - 7]) {
                let set = owners(&plan, row);
                assert_eq!(set.len(), 3);
                assert!(set.iter().all(|&o| o < 5));
                let mut sorted = set.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 3, "owners distinct for row {row}");
                assert_eq!(set[0], plan.primary(row));
                assert_eq!(set, owners(&plan, row), "pure function of the row");
            }
        }
    }

    #[test]
    fn owners_into_a_dirty_buffer_matches_owners() {
        let mut buf = vec![7, 7, 7, 7, 7, 7, 7, 7, 7];
        for plan in [
            ShardPlan::hash(6, 3).expect("valid"),
            ShardPlan::hash(6, 1).expect("valid"),
            ShardPlan::hot_cold(6, 6, 300).expect("valid"),
            ShardPlan::hot_cold(6, 4, 300).expect("valid"),
        ] {
            for row in (0..1_000u64).chain([u64::MAX]) {
                plan.owners_into(row, &mut buf);
                assert_eq!(buf, owners(&plan, row), "row {row} under {plan:?}");
            }
        }
    }

    #[test]
    fn hash_scatters_contiguous_rows() {
        let hash = ShardPlan::hash(4, 1).expect("valid");
        let mut seen = [false; 4];
        for row in 0..64 {
            seen[hash.primary(row)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Not `row % nodes`: contiguous rows do not interleave.
        assert_ne!(
            (0..8).map(|r| hash.primary(r)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 0, 1, 2, 3]
        );
    }

    #[test]
    fn hot_cold_split_knows_its_head() {
        let plan = ShardPlan::hot_cold(4, 2, 100).expect("valid");
        assert!(plan.is_hot(0) && plan.is_hot(99));
        assert!(!plan.is_hot(100));
        assert!(!ShardPlan::hash(4, 2).expect("valid").is_hot(0));
        // Head owner sets are decorrelated from what plain hashing of
        // the same rows would give.
        let hash = ShardPlan::hash(4, 2).expect("valid");
        let differs = (0..100u64).any(|r| plan.primary(r) != hash.primary(r));
        assert!(differs, "head must not inherit the tail's placement");
        // The head itself spreads across every node.
        let mut seen = [false; 4];
        for row in 0..100 {
            seen[plan.primary(row)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Hot replica sets are spread, not ring successors: some hot row
        // must have a non-successor replica, while the cold tail always
        // takes the successor.
        let spread = (0..100u64).any(|r| owners(&plan, r)[1] != (plan.primary(r) + 1) % 4);
        assert!(spread, "hot replicas must decorrelate from the ring");
        for row in 5_000..5_100u64 {
            assert_eq!(owners(&plan, row)[1], (plan.primary(row) + 1) % 4);
            assert_eq!(plan.primary(row), hash.primary(row), "the tail hashes");
        }
    }
}
