//! The reduction operator.
//!
//! The paper's object I/O passes a user computation into the I/O layer via
//! `MPI_Op_create` (Fig. 6, line 10). [`ReduceOp`] is the Rust analogue: a
//! combiner over equal-length slices of `u64` words — the wire form of
//! every partial this stack reduces — required to be associative (as MPI
//! requires of user ops used with `MPI_Reduce`). Commutativity is *not*
//! required: `reduce` combines contributions in rank order, merging
//! contiguous ascending rank blocks, matching MPI's defined ordering for
//! non-commutative ops. Any `Fn(&mut [u64], &[u64])` closure is an op.

/// A reduction over equal-length word slices.
///
/// Implementations must be associative up to floating-point rounding; the
/// collectives apply them in rank order (contiguous ascending blocks), so
/// non-commutative associative ops reduce exactly as MPI specifies.
pub trait ReduceOp: Send + Sync {
    /// Folds `incoming` into `acc`.
    ///
    /// # Panics
    /// Implementations may assume and assert `acc.len() == incoming.len()`.
    fn combine(&self, acc: &mut [u64], incoming: &[u64]);
}

impl<F> ReduceOp for F
where
    F: Fn(&mut [u64], &[u64]) + Send + Sync,
{
    fn combine(&self, acc: &mut [u64], incoming: &[u64]) {
        assert_eq!(acc.len(), incoming.len(), "reduce length mismatch");
        self(acc, incoming);
    }
}

/// Exactly associative word ops for the collectives' tests: a wrapping sum,
/// the non-commutative first and last selections, and minimum and maximum.
#[cfg(test)]
pub(crate) mod word_ops {
    pub(crate) fn wrapping_sum(acc: &mut [u64], incoming: &[u64]) {
        for (a, b) in acc.iter_mut().zip(incoming) {
            *a = a.wrapping_add(*b);
        }
    }

    pub(crate) fn take_left(_acc: &mut [u64], _incoming: &[u64]) {}

    pub(crate) fn take_right(acc: &mut [u64], incoming: &[u64]) {
        acc.copy_from_slice(incoming);
    }

    pub(crate) fn min(acc: &mut [u64], incoming: &[u64]) {
        for (a, b) in acc.iter_mut().zip(incoming) {
            *a = (*a).min(*b);
        }
    }

    pub(crate) fn max(acc: &mut [u64], incoming: &[u64]) {
        for (a, b) in acc.iter_mut().zip(incoming) {
            *a = (*a).max(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::word_ops::wrapping_sum;
    use super::*;

    #[test]
    fn fn_op_wraps_closure() {
        let xor = |acc: &mut [u64], inc: &[u64]| {
            for (a, b) in acc.iter_mut().zip(inc) {
                *a ^= *b;
            }
        };
        let mut acc = [0b1010];
        xor.combine(&mut acc, &[0b0110]);
        assert_eq!(acc, [0b1100]);
    }

    #[test]
    #[should_panic(expected = "reduce length mismatch")]
    fn length_mismatch_panics() {
        wrapping_sum.combine(&mut [1], &[1, 2]);
    }
}
