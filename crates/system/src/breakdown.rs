//! Per-phase latency breakdown (the Fig. 13 quantities).

/// Latency of one inference split into the paper's four phases.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Embedding lookup (gather + any near-data pooling), µs.
    pub lookup_us: f64,
    /// Embedding copy to the GPU (`cudaMemcpy`), µs.
    pub transfer_us: f64,
    /// DNN computation (including on-device pooling where applicable), µs.
    pub dnn_us: f64,
    /// Everything else (feature prep, launches, framework), µs.
    pub other_us: f64,
}

impl PhaseBreakdown {
    /// Total inference latency, µs.
    pub fn total_us(&self) -> f64 {
        self.lookup_us + self.transfer_us + self.dnn_us + self.other_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let b = PhaseBreakdown {
            lookup_us: 10.0,
            transfer_us: 20.0,
            dnn_us: 60.0,
            other_us: 10.0,
        };
        assert!((b.total_us() - 100.0).abs() < 1e-12);
        assert!((b.dnn_us / b.total_us() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = PhaseBreakdown::default();
        assert_eq!(b.total_us(), 0.0);
    }
}
