//! A hot-row cache over embedding *rows* for the NMP gather path.
//!
//! RecNMP's observation (see PAPERS.md): embedding lookups are heavily
//! Zipf-skewed, so a small SRAM cache of whole rows in front of the
//! rank-level DRAM recovers most of the tail latency at tiny capacities.
//! Unlike [`crate::Cache`], which models 64-byte CPU lines, this cache is
//! keyed by *row id* — one entry covers every block of an embedding
//! vector's slice on a DIMM, because the NMP core either has the whole
//! row staged in SRAM or it does not.
//!
//! The cache is fully associative with exact LRU replacement, so hits are
//! monotone in capacity (the LRU stack property). It stores tags only
//! (the simulation is timing-level); hits are credited
//! [`HotRowCacheConfig::PAPER_HIT_LATENCY_CYCLES`] of SRAM latency by the
//! consumer (`tensordimm_nmp::NmpCore`), which also records how many
//! 64-byte blocks each hit served via [`HotRowCache::credit_hit_blocks`].
//!
//! # Example
//!
//! ```
//! use tensordimm_cache::{HotRowCache, HotRowCacheConfig};
//!
//! let mut c = HotRowCache::new(HotRowCacheConfig::fully_associative(2));
//! assert!(!c.access(7)); // cold miss fills
//! assert!(c.access(7)); // hot row hits
//! assert!(!c.access(8));
//! assert!(!c.access(9)); // evicts row 7 (LRU)
//! assert!(!c.access(7));
//! assert_eq!(c.stats().evictions, 2);
//! ```

/// Capacity of a hot-row cache. `capacity_rows == 0` disables the cache
/// entirely: the gather path must behave bit-identically to an uncached
/// replay (the regression suite enforces this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct HotRowCacheConfig {
    /// Rows the cache can hold (0 = disabled).
    pub capacity_rows: u64,
}

impl HotRowCacheConfig {
    /// The disabled configuration: every gather replays against DRAM.
    pub fn disabled() -> Self {
        HotRowCacheConfig { capacity_rows: 0 }
    }

    /// DRAM-clock cycles to stream one cached row slice out of SRAM: a
    /// row slice streams out of the buffer-device SRAM in a handful of
    /// DRAM-bus cycles, an order of magnitude under an activate + CAS.
    /// The gather replay credits it per hit block in place of the skipped
    /// DRAM reads, and the static analyzer's SRAM-port bound uses it.
    pub const PAPER_HIT_LATENCY_CYCLES: u64 = 4;

    /// A fully associative LRU cache of `capacity_rows` rows.
    pub fn fully_associative(capacity_rows: u64) -> Self {
        HotRowCacheConfig { capacity_rows }
    }

    /// Whether the cache participates in the gather path at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity_rows > 0
    }

    /// A stable fingerprint of the configuration, for memo keys (the
    /// cycle pricer's latency table must never alias measurements taken
    /// under different cache configurations). The disabled configuration
    /// fingerprints to 0; an enabled one never does.
    pub fn fingerprint(&self) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        self.capacity_rows
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(Self::PAPER_HIT_LATENCY_CYCLES)
            | 1
    }
}

/// Hit/miss/eviction counters of one gather replay (all zero when the
/// cache is disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotRowStats {
    /// Row lookups served from the cache.
    pub hits: u64,
    /// Row lookups that went to DRAM (and filled the cache).
    pub misses: u64,
    /// Resident rows displaced by fills.
    pub evictions: u64,
    /// 64-byte blocks served from SRAM instead of DRAM (credited by the
    /// consumer, which knows each row's block span on its DIMM).
    pub hit_blocks: u64,
}

impl HotRowStats {
    /// Hits over all row lookups, in `[0, 1]` (0 when nothing was looked
    /// up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merge another replay's counters into this one.
    pub fn merge(&mut self, other: &HotRowStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.hit_blocks += other.hit_blocks;
    }
}

/// An LRU cache of embedding-row tags (see the module docs).
#[derive(Debug, Clone)]
pub struct HotRowCache {
    /// One row tag per slot (`capacity_rows` of them); `lru` keeps their
    /// recency order and maps each resident row to its slot.
    tags: Vec<u64>,
    lru: LruIndex,
    stats: HotRowStats,
}

impl HotRowCache {
    /// Build a cache from `config`. A disabled (zero-capacity) config
    /// yields a cache whose [`HotRowCache::access`] always misses without
    /// filling — but callers on the hot path should skip construction
    /// entirely when [`HotRowCacheConfig::is_enabled`] is false.
    pub fn new(config: HotRowCacheConfig) -> Self {
        let slots = config.capacity_rows as usize;
        HotRowCache {
            tags: vec![u64::MAX; slots],
            lru: LruIndex::new(slots),
            stats: HotRowStats::default(),
        }
    }

    /// Look up `row`; returns `true` on hit. Misses allocate, evicting
    /// the LRU row. A disabled cache always misses and never fills.
    pub fn access(&mut self, row: u64) -> bool {
        if self.tags.is_empty() {
            self.stats.misses += 1;
            return false;
        }
        let (hit, evicted) = self.lru.access(&mut self.tags, row);
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);
        self.stats.evictions += u64::from(evicted);
        hit
    }

    /// Record `blocks` 64-byte blocks served from SRAM by the last hit.
    pub fn credit_hit_blocks(&mut self, blocks: u64) {
        self.stats.hit_blocks += blocks;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> HotRowStats {
        self.stats
    }
}

/// No slot / an empty table position.
const NIL: usize = usize::MAX;

/// Exact LRU bookkeeping for the cache, so a lookup costs O(1) instead of
/// a scan and rotation of every resident row. Each entry of the tags is a
/// slot. The slots are chained from most to least recently used, and
/// an open-addressing table (linear probing, multiplicative hash) maps
/// each resident row to its slot.
#[derive(Debug, Clone)]
struct LruIndex {
    /// Slots filled so far: they fill in order and stay filled.
    filled: usize,
    /// Per slot, the next more recently used slot (`NIL` for the MRU).
    newer: Vec<usize>,
    /// Per slot, the next less recently used slot (`NIL` for the LRU).
    older: Vec<usize>,
    mru: usize,
    lru: usize,
    /// Slot by probe position, `NIL` where free; at most half full.
    table: Vec<usize>,
    /// `64 − log2(table.len())`: a row's home is its hash's top bits.
    shift: u32,
}

impl LruIndex {
    fn new(slots: usize) -> Self {
        let positions = (2 * slots).next_power_of_two();
        LruIndex {
            filled: 0,
            newer: vec![NIL; slots],
            older: vec![NIL; slots],
            mru: NIL,
            lru: NIL,
            table: vec![NIL; positions],
            shift: 64 - positions.trailing_zeros(),
        }
    }

    /// Look `row` up, filling a free slot or the LRU one on a miss;
    /// returns `(hit, evicted)`.
    fn access(&mut self, tags: &mut [u64], row: u64) -> (bool, bool) {
        let pos = self.probe(tags, row);
        if self.table[pos] != NIL {
            self.touch(self.table[pos]);
            return (true, false);
        }
        let evicted = self.filled == tags.len();
        let slot = if evicted {
            let victim = self.probe(tags, tags[self.lru]);
            self.remove(tags, victim);
            self.lru
        } else {
            self.filled += 1;
            self.filled - 1
        };
        tags[slot] = row;
        // A removal may have shifted `row`'s free position back.
        let pos = self.probe(tags, row);
        self.table[pos] = slot;
        self.touch(slot);
        (false, evicted)
    }

    fn home(&self, row: u64) -> usize {
        (row.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The position holding `row`, or the free one that ends its probe.
    fn probe(&self, tags: &[u64], row: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut pos = self.home(row);
        while self.table[pos] != NIL && tags[self.table[pos]] != row {
            pos = (pos + 1) & mask;
        }
        pos
    }

    /// Free position `pos`, moving back every later entry of its probe
    /// run whose home does not lie after the hole, so no probe breaks.
    fn remove(&mut self, tags: &[u64], mut pos: usize) {
        let mask = self.table.len() - 1;
        let mut next = (pos + 1) & mask;
        while self.table[next] != NIL {
            let home = self.home(tags[self.table[next]]);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(pos) & mask {
                self.table[pos] = self.table[next];
                pos = next;
            }
            next = (next + 1) & mask;
        }
        self.table[pos] = NIL;
    }

    /// Make `slot` the most recently used, unlinking it first if listed.
    fn touch(&mut self, slot: usize) {
        if self.mru == slot {
            return;
        }
        let (newer, older) = (self.newer[slot], self.older[slot]);
        if newer != NIL {
            self.older[newer] = older;
        }
        if older != NIL {
            self.newer[older] = newer;
        }
        if self.lru == slot {
            self.lru = newer;
        }
        (self.newer[slot], self.older[slot]) = (NIL, self.mru);
        if self.mru != NIL {
            self.newer[self.mru] = slot;
        }
        self.mru = slot;
        if self.lru == NIL {
            self.lru = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Look `row` up in `ways`, kept in LRU order (front = most recent),
    /// by a linear scan; returns `(hit, evicted)`. A hit moves the row to
    /// the front; a miss shifts every way back and fills the front.
    fn scan_set(ways: &mut [u64], row: u64) -> (bool, bool) {
        if let Some(pos) = ways.iter().position(|&t| t == row) {
            ways[..=pos].rotate_right(1);
            return (true, false);
        }
        let evicted = ways[ways.len() - 1] != u64::MAX;
        ways.rotate_right(1);
        ways[0] = row;
        (false, evicted)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The oracle: an LRU cache is the linear scan over every way kept
        /// in recency order. The LRU index must give the same hit or miss
        /// and eviction on every access, and so the same counters.
        /// Rows come from a universe of three times the capacity, so hits,
        /// misses and evictions all occur; some are spread over the whole
        /// `u64` range or strided, so their probe positions collide.
        #[test]
        fn lru_index_matches_the_linear_scan(
            capacity in 1u64..70,
            draws in prop::collection::vec((0u8..3, 0u64..u64::MAX), 1..1500),
        ) {
            let mut index = HotRowCache::new(HotRowCacheConfig::fully_associative(capacity));
            let mut ways = vec![u64::MAX; capacity as usize];
            let mut scan = HotRowStats::default();
            for (shape, draw) in draws {
                let row = draw % (3 * capacity);
                let row = match shape {
                    0 => row,
                    1 => row.wrapping_mul(0x5851_f42d_4c95_7f2d) >> 1,
                    _ => row << 40,
                };
                let (hit, evicted) = scan_set(&mut ways, row);
                scan.hits += u64::from(hit);
                scan.misses += u64::from(!hit);
                scan.evictions += u64::from(evicted);
                prop_assert_eq!(index.access(row), hit);
            }
            prop_assert_eq!(index.stats(), scan);
        }
    }

    #[test]
    fn disabled_cache_always_misses_and_never_fills() {
        let mut c = HotRowCache::new(HotRowCacheConfig::disabled());
        for _ in 0..3 {
            assert!(!c.access(5));
        }
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn lru_eviction_counts() {
        let mut c = HotRowCache::new(HotRowCacheConfig::fully_associative(2));
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // 1 is now MRU
        assert!(!c.access(3)); // evicts 2
        assert!(c.access(1));
        assert!(!c.access(2)); // 2 was evicted; evicts 3
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn fully_associative_has_stack_property() {
        // LRU inclusion: any trace's hits are monotone in capacity.
        let trace: Vec<u64> = (0..600u64).map(|i| (i * i + 7 * i) % 37).collect();
        let mut prev_hits = 0;
        for cap in [1u64, 2, 4, 8, 16, 37] {
            let mut c = HotRowCache::new(HotRowCacheConfig::fully_associative(cap));
            for &r in &trace {
                c.access(r);
            }
            assert!(
                c.stats().hits >= prev_hits,
                "capacity {cap}: hits {} < smaller cache's {prev_hits}",
                c.stats().hits
            );
            prev_hits = c.stats().hits;
        }
        // The whole-universe cache misses each distinct row exactly once.
        let mut distinct = trace.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(prev_hits, (trace.len() - distinct.len()) as u64);
    }

    #[test]
    fn stats_helpers() {
        let mut s = HotRowStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            hit_blocks: 12,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        s.merge(&HotRowStats {
            hits: 1,
            misses: 3,
            evictions: 2,
            hit_blocks: 4,
        });
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.hit_blocks, 16);
        assert_eq!(HotRowStats::default().hit_rate(), 0.0);
    }

    /// The cycle pricer's memo keys carry the fingerprint, so its value
    /// is pinned for three capacities.
    #[test]
    fn fingerprints_distinguish_configs() {
        let a = HotRowCacheConfig::fully_associative(1024);
        let b = HotRowCacheConfig::fully_associative(2048);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.fingerprint(),
            0,
            "enabled configs never collide with disabled"
        );
        assert_eq!(a.fingerprint(), 0xdde6_e5fd_29f0_5405);
        assert_eq!(
            HotRowCacheConfig::fully_associative(4096).fingerprint(),
            0x779b_97f4_a7c1_5005
        );
        assert_eq!(
            HotRowCacheConfig::fully_associative(100_000).fingerprint(),
            0x661c_abdb_0795_8b25
        );
        assert_eq!(HotRowCacheConfig::disabled().fingerprint(), 0);
        assert_eq!(HotRowCacheConfig::default().fingerprint(), 0);
    }
}
