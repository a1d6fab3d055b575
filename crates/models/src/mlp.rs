//! Dense MLP: cost model and functional forward pass.

use crate::ModelError;

/// Shape of a dense multi-layer perceptron: layer widths from input to
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    widths: Vec<usize>,
}

impl MlpSpec {
    /// A spec from layer widths (`[input, hidden.., output]`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DegenerateSpec`] for fewer than two widths.
    pub fn new(widths: Vec<usize>) -> Result<Self, ModelError> {
        if widths.len() < 2 {
            return Err(ModelError::DegenerateSpec {
                widths: widths.len(),
            });
        }
        Ok(MlpSpec { widths })
    }

    /// Layer widths.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.widths[0]
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        *self.widths.last().expect("validated: at least two widths")
    }

    /// Number of weight layers.
    pub fn layers(&self) -> usize {
        self.widths.len() - 1
    }

    /// Parameter count (weights + biases).
    pub fn params(&self) -> u64 {
        self.widths
            .windows(2)
            .map(|w| (w[0] * w[1] + w[1]) as u64)
            .sum()
    }

    /// FLOPs for one forward pass at `batch` (2 per MAC).
    pub fn flops(&self, batch: usize) -> u64 {
        2 * batch as u64
            * self
                .widths
                .windows(2)
                .map(|w| (w[0] * w[1]) as u64)
                .sum::<u64>()
    }
}

/// A functional f32 MLP with deterministic weights: ReLU between layers and
/// a sigmoid on the scalar output when the final width is 1 (the CTR head
/// of a recommender).
///
/// # Example
///
/// ```
/// use tensordimm_models::{Mlp, MlpSpec};
///
/// let mlp = Mlp::seeded(MlpSpec::new(vec![8, 4, 1])?, 7);
/// let out = mlp.forward(&[0.5; 8])?;
/// assert_eq!(out.len(), 1);
/// assert!(out[0] > 0.0 && out[0] < 1.0, "sigmoid output: {}", out[0]);
/// # Ok::<(), tensordimm_models::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    spec: MlpSpec,
    /// Per-layer row-major weights (`out x in`) followed by biases.
    layers: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Mlp {
    /// Build with small deterministic pseudo-random weights.
    pub fn seeded(spec: MlpSpec, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            // xorshift64*
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.2
        };
        let layers = spec
            .widths()
            .windows(2)
            .map(|w| {
                let (n_in, n_out) = (w[0], w[1]);
                let weights = (0..n_in * n_out).map(|_| next()).collect();
                let biases = (0..n_out).map(|_| next()).collect();
                (weights, biases)
            })
            .collect();
        Mlp { spec, layers }
    }

    /// The shape.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// Forward one sample.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InputShape`] when `input.len()` differs from
    /// the first layer width.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>, ModelError> {
        if input.len() != self.spec.input_dim() {
            return Err(ModelError::InputShape {
                got: input.len(),
                expected: self.spec.input_dim(),
            });
        }
        let mut activ = input.to_vec();
        let last = self.layers.len() - 1;
        for (li, (weights, biases)) in self.layers.iter().enumerate() {
            let n_in = self.spec.widths()[li];
            let n_out = self.spec.widths()[li + 1];
            let mut out = vec![0.0f32; n_out];
            for (o, out_v) in out.iter_mut().enumerate() {
                let row = &weights[o * n_in..(o + 1) * n_in];
                let mut acc = biases[o];
                for (w, a) in row.iter().zip(&activ) {
                    acc += w * a;
                }
                *out_v = if li == last {
                    if n_out == 1 {
                        1.0 / (1.0 + (-acc).exp()) // sigmoid CTR head
                    } else {
                        acc
                    }
                } else {
                    acc.max(0.0) // ReLU
                };
            }
            activ = out;
        }
        Ok(activ)
    }

    /// Forward a batch laid out row-major (`batch × input_dim`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InputShape`] when the input is not a whole
    /// number of samples.
    pub fn forward_batch(&self, inputs: &[f32]) -> Result<Vec<f32>, ModelError> {
        let d = self.spec.input_dim();
        if d == 0 || !inputs.len().is_multiple_of(d) {
            return Err(ModelError::InputShape {
                got: inputs.len(),
                expected: d,
            });
        }
        let mut out = Vec::new();
        for sample in inputs.chunks(d) {
            out.extend(self.forward(sample)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_and_counts() {
        assert!(MlpSpec::new(vec![4]).is_err());
        let s = MlpSpec::new(vec![4, 3, 2]).unwrap();
        assert_eq!(s.layers(), 2);
        assert_eq!(s.input_dim(), 4);
        assert_eq!(s.output_dim(), 2);
        // (4*3+3) + (3*2+2) = 23.
        assert_eq!(s.params(), 23);
        // 2 * (12 + 6) per sample.
        assert_eq!(s.flops(1), 36);
        assert_eq!(s.flops(10), 360);
    }

    #[test]
    fn forward_is_deterministic() {
        let spec = MlpSpec::new(vec![8, 8, 1]).unwrap();
        let a = Mlp::seeded(spec.clone(), 5);
        let b = Mlp::seeded(spec, 5);
        let x = [0.25f32; 8];
        assert_eq!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
    }

    #[test]
    fn sigmoid_head_bounds_output() {
        let mlp = Mlp::seeded(MlpSpec::new(vec![16, 8, 1]).unwrap(), 3);
        for i in 0..10 {
            let x = vec![i as f32 * 0.3 - 1.5; 16];
            let y = mlp.forward(&x).unwrap()[0];
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn relu_zeroes_negatives() {
        // With an identity-free check: a single layer net with ReLU off at
        // the head (n_out > 1) returns raw affine outputs.
        let mlp = Mlp::seeded(MlpSpec::new(vec![4, 2]).unwrap(), 1);
        let y = mlp.forward(&[1.0, -1.0, 0.5, 2.0]).unwrap();
        assert_eq!(y.len(), 2);
    }

    #[test]
    fn batch_matches_per_sample() {
        let mlp = Mlp::seeded(MlpSpec::new(vec![4, 4, 1]).unwrap(), 9);
        let a = [0.1f32, 0.2, 0.3, 0.4];
        let b = [0.9f32, -0.2, 0.0, 1.0];
        let batch: Vec<f32> = a.iter().chain(&b).copied().collect();
        let batched = mlp.forward_batch(&batch).unwrap();
        assert_eq!(batched[0], mlp.forward(&a).unwrap()[0]);
        assert_eq!(batched[1], mlp.forward(&b).unwrap()[0]);
    }

    #[test]
    fn shape_errors() {
        let mlp = Mlp::seeded(MlpSpec::new(vec![4, 1]).unwrap(), 0);
        assert!(mlp.forward(&[1.0; 3]).is_err());
        assert!(mlp.forward_batch(&[1.0; 7]).is_err());
    }
}
