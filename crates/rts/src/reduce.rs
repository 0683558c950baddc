//! Reduction operators for `allreduce`/`reduce` collectives.

use crate::error::{RtsError, RtsResult};

/// Element-wise reduction operator over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Element-wise product.
    Prod,
}

impl ReduceOp {
    /// Apply the operator to a pair of values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Prod => a * b,
        }
    }

    /// Identity element of the operator.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Prod => 1.0,
        }
    }

    /// Fold `src` into `acc` element-wise. Buffers of different
    /// lengths (a collective-contract violation by the caller) are a
    /// typed [`RtsError::LengthMismatch`], and `acc` is left unchanged.
    pub fn fold_into(self, acc: &mut [f64], src: &[f64]) -> RtsResult<()> {
        if acc.len() != src.len() {
            return Err(RtsError::LengthMismatch {
                expected: acc.len(),
                got: src.len(),
            });
        }
        for (a, &s) in acc.iter_mut().zip(src) {
            *a = self.apply(*a, s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max, ReduceOp::Prod] {
            assert_eq!(op.apply(op.identity(), 3.5), 3.5);
        }
    }

    #[test]
    fn fold_into_works() {
        let mut acc = vec![1.0, 5.0, -2.0];
        ReduceOp::Max
            .fold_into(&mut acc, &[0.0, 7.0, -1.0])
            .unwrap();
        assert_eq!(acc, vec![1.0, 7.0, -1.0]);
        ReduceOp::Sum.fold_into(&mut acc, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(acc, vec![2.0, 8.0, 0.0]);
    }

    #[test]
    fn fold_length_mismatch_is_typed() {
        let mut acc = vec![0.0];
        assert_eq!(
            ReduceOp::Sum.fold_into(&mut acc, &[1.0, 2.0]),
            Err(RtsError::LengthMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(acc, vec![0.0]);
    }
}
