//! The 64-byte vector register semantics of the NMP core's 16-wide ALU.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::instruction::ReduceOp;

/// Number of f32 lanes in one 64-byte block (the NMP ALU width).
pub const LANES: usize = 16;

/// A 64-byte vector register: sixteen f32 lanes.
///
/// This is the value type flowing through the NMP core's input (A, B) and
/// output (C) SRAM queues; one `Vec16` corresponds to one DDR4 burst.
///
/// # Example
///
/// ```
/// use tensordimm_isa::{ReduceOp, Vec16};
///
/// let a = Vec16::splat(2.0);
/// let b = Vec16::splat(3.0);
/// assert_eq!((a + b).lanes()[0], 5.0);
/// assert_eq!(a.reduce(b, ReduceOp::Mul).lanes()[15], 6.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec16 {
    lanes: [f32; LANES],
}

impl Vec16 {
    /// All lanes zero.
    pub fn zero() -> Self {
        Vec16::default()
    }

    /// All lanes set to `value`.
    pub fn splat(value: f32) -> Self {
        Vec16 {
            lanes: [value; LANES],
        }
    }

    /// The lane values.
    pub fn lanes(&self) -> &[f32; LANES] {
        &self.lanes
    }

    /// Apply `op` element-wise against `rhs`.
    pub fn reduce(self, rhs: Vec16, op: ReduceOp) -> Vec16 {
        match op {
            ReduceOp::Add => self + rhs,
            ReduceOp::Sub => self - rhs,
            ReduceOp::Mul => self * rhs,
            ReduceOp::Min => self.min(rhs),
            ReduceOp::Max => self.max(rhs),
        }
    }

    /// Lane-wise minimum.
    pub fn min(self, rhs: Vec16) -> Vec16 {
        let mut out = self;
        for (o, r) in out.lanes.iter_mut().zip(rhs.lanes.iter()) {
            *o = o.min(*r);
        }
        out
    }

    /// Lane-wise maximum.
    pub fn max(self, rhs: Vec16) -> Vec16 {
        let mut out = self;
        for (o, r) in out.lanes.iter_mut().zip(rhs.lanes.iter()) {
            *o = o.max(*r);
        }
        out
    }

    /// Divide every lane by a scalar (used by AVERAGE).
    pub fn scale(self, divisor: f32) -> Vec16 {
        self / Vec16::splat(divisor)
    }

    /// Reinterpret the 64 bytes as sixteen u32 words (index-list view).
    pub fn to_bits(self) -> [u32; LANES] {
        self.lanes.map(f32::to_bits)
    }

    /// Reinterpret sixteen u32 words as f32 lanes.
    pub fn from_bits(bits: [u32; LANES]) -> Self {
        Vec16 {
            lanes: bits.map(f32::from_bits),
        }
    }
}

impl From<[f32; LANES]> for Vec16 {
    fn from(lanes: [f32; LANES]) -> Self {
        Vec16 { lanes }
    }
}

impl From<Vec16> for [f32; LANES] {
    fn from(v: Vec16) -> Self {
        v.lanes
    }
}

impl fmt::Display for Vec16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Vec16[{}, {}, .., {}]",
            self.lanes[0], self.lanes[1], self.lanes[15]
        )
    }
}

macro_rules! lane_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Vec16 {
            type Output = Vec16;
            fn $method(self, rhs: Vec16) -> Vec16 {
                let mut out = self;
                for (o, r) in out.lanes.iter_mut().zip(rhs.lanes.iter()) {
                    let lane = *o $op *r;
                    *o = lane;
                }
                out
            }
        }
    };
}

lane_op!(Add, add, +);
lane_op!(Sub, sub, -);
lane_op!(Mul, mul, *);
lane_op!(Div, div, /);

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Vec16 {
        let mut v = [0.0f32; LANES];
        for (i, lane) in v.iter_mut().enumerate() {
            *lane = i as f32;
        }
        Vec16::from(v)
    }

    #[test]
    fn arithmetic_is_lanewise() {
        let a = ramp();
        let b = Vec16::splat(2.0);
        assert_eq!((a + b).lanes()[3], 5.0);
        assert_eq!((a - b).lanes()[3], 1.0);
        assert_eq!((a * b).lanes()[3], 6.0);
        assert_eq!((a / b).lanes()[3], 1.5);
    }

    #[test]
    fn reduce_dispatches_all_ops() {
        let a = ramp();
        let b = Vec16::splat(7.0);
        assert_eq!(a.reduce(b, ReduceOp::Add).lanes()[1], 8.0);
        assert_eq!(a.reduce(b, ReduceOp::Sub).lanes()[1], -6.0);
        assert_eq!(a.reduce(b, ReduceOp::Mul).lanes()[2], 14.0);
        assert_eq!(a.reduce(b, ReduceOp::Min).lanes()[10], 7.0);
        assert_eq!(a.reduce(b, ReduceOp::Max).lanes()[10], 10.0);
    }

    #[test]
    fn scale_divides() {
        assert_eq!(Vec16::splat(9.0).scale(3.0).lanes()[0], 3.0);
    }

    #[test]
    fn bit_roundtrip_preserves_indices() {
        let mut bits = [0u32; LANES];
        for (i, b) in bits.iter_mut().enumerate() {
            *b = (i as u32) * 1_000_003;
        }
        assert_eq!(Vec16::from_bits(bits).to_bits(), bits);
    }

    #[test]
    fn display_nonempty() {
        assert!(!Vec16::zero().to_string().is_empty());
    }

    #[test]
    fn conversions() {
        let arr = [1.0f32; LANES];
        let v = Vec16::from(arr);
        let back: [f32; LANES] = v.into();
        assert_eq!(arr, back);
    }
}
