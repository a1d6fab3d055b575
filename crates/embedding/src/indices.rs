//! Sparse-feature index generators.
//!
//! Recommendation inference traffic is popularity-skewed: a small set of
//! hot users/items dominates lookups. The paper's production traces are
//! proprietary; zipfian sampling is the standard synthetic equivalent
//! (uniform sampling is the worst case for row-buffer locality and is kept
//! for stress tests).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sampling distribution over table rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Every row equally likely.
    Uniform,
    /// Zipfian with exponent `s` (typical recommendation skew: 0.9–1.1).
    Zipfian {
        /// Skew exponent; larger is more head-heavy.
        s: f64,
    },
}

/// A deterministic stream of embedding-table indices.
///
/// Zipfian sampling draws rank k (1-based, row k − 1) with probability
/// proportional to k^-s by the rejection-inversion method of Hörmann &
/// Derflinger ("Rejection-inversion to generate variates from monotone
/// discrete distributions", ACM TOMACS 1996): one uniform per trial, O(1)
/// time and state for any table size.
///
/// # Example
///
/// ```
/// use tensordimm_embedding::{Distribution, IndexStream};
///
/// let mut s = IndexStream::new(Distribution::Zipfian { s: 1.0 }, 1_000_000, 9);
/// let batch = s.batch(64);
/// assert_eq!(batch.len(), 64);
/// assert!(batch.iter().all(|&i| i < 1_000_000));
/// ```
#[derive(Debug, Clone)]
pub struct IndexStream {
    distribution: Distribution,
    rows: u64,
    rng: StdRng,
    // Rejection-inversion precomputation for zipfian sampling.
    zipf: Option<ZipfSampler>,
}

/// Rejection inversion over ranks 1..=N with hat function h(x) = x^-s.
///
/// H(x) = ∫₁ˣ t^-s dt maps ranks onto a line: rank k ≥ 2 owns the slice
/// from H(k−½) to H(k+½) and rank 1 the slice from H(1½) − 1 to H(1½). A
/// trial draws u uniformly between H(1½) − 1 and H(N+½), inverts it to
/// x = H⁻¹(u) and rounds x to k, clamped to 1..=N. It accepts when u lies
/// in the top k^-s of k's slice, so each rank's accept set has measure
/// exactly k^-s (h is convex, so the slice is at least that wide). The
/// squeeze `k − x ≤ s₀` accepts most trials without evaluating H(k+½) or
/// k^-s.
#[derive(Debug, Clone)]
struct ZipfSampler {
    s: f64,
    rows: f64,
    /// H(N + ½), the top of the uniform's range.
    h_n: f64,
    /// H(1½) − 1, the bottom of the uniform's range.
    h_x1: f64,
    /// The squeeze s₀ = 2 − H⁻¹(H(2½) − 2^-s).
    squeeze: f64,
}

impl ZipfSampler {
    fn new(s: f64, rows: u64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and non-negative, got {s}"
        );
        let rows = rows as f64;
        ZipfSampler {
            s,
            rows,
            h_n: h_integral(rows + 0.5, s),
            h_x1: h_integral(1.5, s) - 1.0,
            squeeze: 2.0 - h_integral_inverse(h_integral(2.5, s) - h(2.0, s), s),
        }
    }

    /// One trial at uniform point `u`: the rounded rank and whether the
    /// trial accepts it.
    fn trial(&self, u: f64) -> (f64, bool) {
        let x = h_integral_inverse(u, self.s);
        let k = (x + 0.5).floor().clamp(1.0, self.rows);
        let accept = k - x <= self.squeeze || u >= h_integral(k + 0.5, self.s) - h(k, self.s);
        (k, accept)
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let (k, accept) = self.trial(u);
            if accept {
                return k as u64 - 1;
            }
        }
    }
}

/// h(x) = x^-s.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// H(x) = ∫₁ˣ t^-s dt = (x^(1−s) − 1)/(1 − s), written as
/// ln x · (e^((1−s)·ln x) − 1)/((1−s)·ln x) so it stays exact through
/// s = 1, where it is ln x.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    exp_m1_over_x((1.0 - s) * log_x) * log_x
}

/// H⁻¹(y) = (1 + (1−s)·y)^(1/(1−s)), written as
/// exp(y · ln(1 + (1−s)·y)/((1−s)·y)) for the same reason. (1−s)·y is
/// clamped at −1, where rounding can push it just past the pole.
fn h_integral_inverse(y: f64, s: f64) -> f64 {
    let t = (y * (1.0 - s)).max(-1.0);
    (ln_1p_over_x(t) * y).exp()
}

/// ln(1 + x)/x, continued by its series through x = 0.
fn ln_1p_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// (eˣ − 1)/x, continued by its series through x = 0.
fn exp_m1_over_x(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// Zipf-skewed lookup rows: `count` draws over `[0, rows)` with exponent
/// `s` (rank 0 = hottest). `s = 0` degenerates to uniform.
///
/// Memory is bounded regardless of `rows`: sampling uses the
/// rejection-inversion method (no O(rows) CDF table is ever built), so
/// paper-scale tables — billions of rows — cost the same O(1) state as a
/// thousand-row toy table. The only allocation is the `count`-sized output.
pub fn zipf_lookup_rows(count: usize, rows: u64, s: f64, seed: u64) -> Vec<u64> {
    IndexStream::with_skew(rows, s, seed).batch(count)
}

/// Fraction of `rows_hit` falling in the hottest `hot_fraction` of the
/// table (e.g. `0.01` = the top 1% of rows). The locality headroom a
/// rank-level cache could exploit.
pub fn hot_row_share(rows_hit: &[u64], rows: u64, hot_fraction: f64) -> f64 {
    if rows_hit.is_empty() {
        return 0.0;
    }
    let cutoff = ((rows as f64) * hot_fraction).max(1.0) as u64;
    rows_hit.iter().filter(|&&r| r < cutoff).count() as f64 / rows_hit.len() as f64
}

impl IndexStream {
    /// A stream over `[0, rows)` with the given distribution and seed.
    ///
    /// # Panics
    ///
    /// On a Zipfian exponent that is NaN, infinite or negative: no Zipf
    /// distribution is defined there, and the sampler would never accept
    /// a trial.
    pub fn new(distribution: Distribution, rows: u64, seed: u64) -> Self {
        let zipf = match distribution {
            Distribution::Zipfian { s } => Some(ZipfSampler::new(s, rows)),
            Distribution::Uniform => None,
        };
        IndexStream {
            distribution,
            rows,
            rng: StdRng::seed_from_u64(seed),
            zipf,
        }
    }

    /// A stream over `[0, rows)` at Zipf exponent `s`: uniform for
    /// `s <= 0`, Zipfian otherwise (the skew knob every workload and
    /// router config carries). A NaN or `+∞` exponent panics as in
    /// [`IndexStream::new`].
    pub fn with_skew(rows: u64, s: f64, seed: u64) -> Self {
        let distribution = if s <= 0.0 {
            Distribution::Uniform
        } else {
            Distribution::Zipfian { s }
        };
        IndexStream::new(distribution, rows, seed)
    }

    /// Restart the stream at `seed`: the draws that follow equal a fresh
    /// stream's under that seed. The rejection-inversion constants depend
    /// only on the distribution and the row count, so they are kept.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// The distribution in use.
    pub fn distribution(&self) -> Distribution {
        self.distribution
    }

    /// Number of rows sampled over.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Draw one index.
    ///
    /// # Panics
    ///
    /// On a stream over zero rows, which has no index to draw (drawing
    /// none, as `batch(0)` does, is fine).
    pub fn next_index(&mut self) -> u64 {
        assert!(
            self.rows > 0,
            "cannot draw an index from a table of zero rows"
        );
        match &self.zipf {
            None => self.rng.gen_range(0..self.rows),
            Some(z) => z.sample(&mut self.rng),
        }
    }

    /// Draw `n` indices.
    pub fn batch(&mut self, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        self.extend_into(n, &mut out);
        out
    }

    /// Draw `n` indices, appending them to `out` (a caller-owned buffer,
    /// so a hot loop allocates nothing once `out` has grown).
    pub fn extend_into(&mut self, n: usize, out: &mut Vec<u64>) {
        out.extend((0..n).map(|_| self.next_index()));
    }

    /// Draw a multi-hot batch: `batch` samples of `lookups` indices each
    /// (the "max reduction" column of Table 2: how many embeddings are
    /// pooled per sample).
    pub fn multi_hot(&mut self, batch: usize, lookups: usize) -> Vec<u64> {
        self.batch(batch * lookups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bounds_and_determinism() {
        let mut a = IndexStream::new(Distribution::Uniform, 1000, 5);
        let mut b = IndexStream::new(Distribution::Uniform, 1000, 5);
        let xa = a.batch(256);
        let xb = b.batch(256);
        assert_eq!(xa, xb);
        assert!(xa.iter().all(|&i| i < 1000));
    }

    #[test]
    fn zipf_is_head_heavy() {
        let rows = 100_000u64;
        let mut s = IndexStream::new(Distribution::Zipfian { s: 1.0 }, rows, 11);
        let xs = s.batch(20_000);
        let head = xs.iter().filter(|&&i| i < rows / 100).count() as f64;
        let frac = head / xs.len() as f64;
        // The top 1% of rows must draw far more than 1% of traffic.
        assert!(frac > 0.2, "head fraction {frac}");
        assert!(xs.iter().all(|&i| i < rows));
    }

    #[test]
    fn zipf_higher_skew_is_hotter() {
        let rows = 100_000u64;
        let head = |s_exp: f64| {
            let mut s = IndexStream::new(Distribution::Zipfian { s: s_exp }, rows, 13);
            let xs = s.batch(20_000);
            xs.iter().filter(|&&i| i < rows / 100).count()
        };
        assert!(head(1.2) > head(0.8));
    }

    #[test]
    fn multi_hot_size() {
        let mut s = IndexStream::new(Distribution::Uniform, 10, 3);
        assert_eq!(s.multi_hot(4, 25).len(), 100);
    }

    #[test]
    fn zipf_lookup_rows_bounded_memory_at_paper_scale() {
        // Billions of rows: the rejection-inversion sampler keeps O(1)
        // state, so this must complete instantly with no O(rows) table.
        let rows = 4_000_000_000u64;
        let hits = zipf_lookup_rows(5_000, rows, 0.9, 21);
        assert_eq!(hits.len(), 5_000);
        assert!(hits.iter().all(|&r| r < rows));
        // Head-heaviness is preserved at scale: the hottest 1% of four
        // billion rows still draws far more than its uniform 1% share.
        let hot = hot_row_share(&hits, rows, 0.01);
        assert!(hot > 0.05, "billion-row hot share {hot:.4}");
        // Uniform (s = 0) stays near its 1% baseline.
        let uniform = zipf_lookup_rows(5_000, rows, 0.0, 21);
        let uniform_hot = hot_row_share(&uniform, rows, 0.01);
        assert!(uniform_hot < 0.03, "uniform hot share {uniform_hot:.4}");
    }

    #[test]
    fn zipf_lookup_rows_small_rows_pinned_per_seed() {
        // The exact draws for small tables are pinned: a sampler rewrite
        // (e.g. swapping rejection inversion for a bucketed CDF) must
        // either reproduce these streams or consciously update this test.
        assert_eq!(
            zipf_lookup_rows(8, 100, 0.9, 7),
            [79, 48, 2, 14, 0, 11, 2, 23]
        );
        assert_eq!(
            zipf_lookup_rows(8, 100, 0.0, 7),
            [61, 16, 78, 56, 42, 65, 8, 72]
        );
        assert_ne!(
            zipf_lookup_rows(8, 100, 0.9, 7),
            zipf_lookup_rows(8, 100, 0.9, 8),
            "seed must matter"
        );
    }

    /// The least float in `[lo, hi]` where `pred` turns true, for a `pred`
    /// that is false and then true over that range and true at `hi`.
    fn first_true(mut lo: f64, mut hi: f64, pred: impl Fn(f64) -> bool) -> f64 {
        if pred(lo) {
            return lo;
        }
        loop {
            let mid = lo + (hi - lo) / 2.0;
            if mid <= lo || mid >= hi {
                return hi;
            }
            if pred(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    #[test]
    fn zipf_accept_sets_have_measure_k_pow_minus_s() {
        // A trial at u yields rank k = round(H⁻¹(u)); the u that round to
        // k form one slice, and inside it a trial accepts from a threshold
        // up. Bisection finds both ends to the last float, so this is the
        // exact accept measure of each rank, squeeze included, up to
        // rounding: it must be k^-s for the draws to follow Zipf(s).
        for s in [0.5, 0.9, 1.0, 1.1, 2.0] {
            for n in [1u64, 2, 3, 17, 64] {
                let z = ZipfSampler::new(s, n);
                let mut lo = z.h_x1;
                for k in 1..=n {
                    let rank = k as f64;
                    let top = if k == n {
                        z.h_n
                    } else {
                        first_true(lo, z.h_n, |u| z.trial(u).0 > rank)
                    };
                    let start = first_true(lo, top, |u| u >= top || z.trial(u).1);
                    let measure = top - start;
                    let want = rank.powf(-s);
                    assert!(
                        (measure - want).abs() <= 1e-9 * want,
                        "s = {s}, N = {n}, k = {k}: accept measure {measure}, want {want}"
                    );
                    lo = top;
                }
            }
        }
    }

    #[test]
    fn zipf_draws_pass_a_chi_square_test() {
        // 1M draws over 1000 ranks against the Zipf(s) pmf. Tail ranks are
        // pooled so every bin expects at least five draws (only s = 2 has
        // such ranks). The bound is the 99.9% point of chi-square with
        // bins − 1 degrees of freedom (Wilson–Hilferty): 1142.9 for the
        // unpooled 999.
        const ROWS: u64 = 1000;
        const DRAWS: usize = 1_000_000;
        for s in [0.5, 0.9, 1.0, 1.1, 2.0] {
            let mut counts = vec![0u64; ROWS as usize];
            let mut stream = IndexStream::new(Distribution::Zipfian { s }, ROWS, 1);
            for _ in 0..DRAWS {
                counts[stream.next_index() as usize] += 1;
            }
            let weights: Vec<f64> = (1..=ROWS).map(|k| (k as f64).powf(-s)).collect();
            let total: f64 = weights.iter().sum();
            // (expected, observed) per bin.
            let mut bins: Vec<(f64, f64)> = Vec::new();
            let mut open = (0.0, 0.0);
            for (w, &c) in weights.iter().zip(&counts) {
                open.0 += w / total * DRAWS as f64;
                open.1 += c as f64;
                if open.0 >= 5.0 {
                    bins.push(std::mem::take(&mut open));
                }
            }
            let last = bins.last_mut().unwrap();
            last.0 += open.0;
            last.1 += open.1;
            let chi2: f64 = bins.iter().map(|(e, o)| (o - e).powi(2) / e).sum();
            let dof = (bins.len() - 1) as f64;
            // Wilson–Hilferty, with the standard normal's 99.9% point.
            let (c, z) = (2.0 / (9.0 * dof), 3.0902);
            let bound = dof * (1.0 - c + z * c.sqrt()).powi(3);
            assert!(
                chi2 < bound,
                "s = {s}: chi-square {chi2:.1} over {dof} dof exceeds {bound:.1}"
            );
        }
    }

    #[test]
    fn h_integral_is_continuous_through_s_equal_one() {
        // At s = 1, H(x) = ln x and H⁻¹(y) = eʸ; just beside it the plain
        // (x^(1−s) − 1)/(1 − s) form cancels away most of its digits.
        for x in [1.5, 2.5, 1e3, 4e9] {
            for s in [1.0 - 1e-12, 1.0, 1.0 + 1e-12] {
                let h = h_integral(x, s);
                assert!(
                    (h - x.ln()).abs() <= 1e-10 * x.ln(),
                    "H({x}) at s = {s}: {h}"
                );
                let back = h_integral_inverse(h, s);
                assert!(
                    (back - x).abs() <= 1e-12 * x,
                    "H⁻¹(H({x})) at s = {s}: {back}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "Zipf exponent must be finite and non-negative, got NaN")]
    fn nan_zipf_exponent_is_rejected() {
        IndexStream::new(Distribution::Zipfian { s: f64::NAN }, 100, 1);
    }

    #[test]
    fn zero_row_streams_draw_nothing() {
        for s in [0.0, 0.9] {
            assert!(zipf_lookup_rows(0, 0, s, 1).is_empty());
            let drawn = std::panic::catch_unwind(|| IndexStream::with_skew(0, s, 1).next_index());
            let message = *drawn.unwrap_err().downcast::<&str>().unwrap();
            assert_eq!(message, "cannot draw an index from a table of zero rows");
        }
    }

    #[test]
    fn reseeded_stream_replays_a_fresh_one() {
        for s in [0.0, 0.9] {
            let mut stream = IndexStream::with_skew(10_000, s, 3);
            let mut out = stream.batch(17);
            for seed in [5u64, 0, u64::MAX] {
                stream.reseed(seed);
                out.clear();
                stream.extend_into(12, &mut out);
                assert_eq!(out, zipf_lookup_rows(12, 10_000, s, seed), "s = {s}");
            }
            // Appending keeps what the buffer already holds.
            stream.reseed(9);
            stream.extend_into(4, &mut out);
            assert_eq!(out.len(), 16);
            assert_eq!(out[12..], zipf_lookup_rows(4, 10_000, s, 9)[..]);
        }
    }

    #[test]
    fn hot_row_share_edge_cases() {
        assert_eq!(hot_row_share(&[], 100, 0.01), 0.0);
        // Cutoff is at least one row, so rank 0 always counts as hot.
        assert_eq!(hot_row_share(&[0, 99], 100, 0.001), 0.5);
        assert_eq!(hot_row_share(&[5, 6], 100, 1.0), 1.0);
    }

    #[test]
    fn zipf_covers_tail() {
        // Even skewed streams must occasionally reach the tail.
        let rows = 10_000u64;
        let mut s = IndexStream::new(Distribution::Zipfian { s: 0.9 }, rows, 17);
        let xs = s.batch(50_000);
        assert!(xs.iter().any(|&i| i > rows / 2), "tail never sampled");
    }
}
