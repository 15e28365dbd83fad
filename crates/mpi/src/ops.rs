//! Reduction operators.
//!
//! The paper's object I/O passes a user computation into the I/O layer via
//! `MPI_Op_create` (Fig. 6, line 10). [`ReduceOp`] is the Rust analogue: an
//! element-wise combiner over equal-length slices, required to be
//! associative (as MPI requires of user ops used with `MPI_Reduce`).
//! Commutativity is *not* required: `reduce` combines contributions in
//! rank order, merging contiguous ascending rank blocks, matching MPI's
//! defined ordering for non-commutative ops.

use crate::elem::Elem;

/// An element-wise reduction over equal-length slices.
///
/// Implementations must be associative up to floating-point rounding; the
/// collectives apply them in rank order (contiguous ascending blocks), so
/// non-commutative associative ops reduce exactly as MPI specifies.
pub trait ReduceOp<T: Elem>: Send + Sync {
    /// Folds `incoming` into `acc`, element by element.
    ///
    /// # Panics
    /// Implementations may assume and assert `acc.len() == incoming.len()`.
    fn combine(&self, acc: &mut [T], incoming: &[T]);
}

/// Element-wise sum (`MPI_SUM`).
pub struct SumOp;

impl<T> ReduceOp<T> for SumOp
where
    T: Elem + std::ops::Add<Output = T>,
{
    fn combine(&self, acc: &mut [T], incoming: &[T]) {
        assert_eq!(acc.len(), incoming.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(incoming) {
            *a = *a + *b;
        }
    }
}

/// Element-wise minimum (`MPI_MIN`).
pub struct MinOp;

impl<T> ReduceOp<T> for MinOp
where
    T: Elem + PartialOrd,
{
    fn combine(&self, acc: &mut [T], incoming: &[T]) {
        assert_eq!(acc.len(), incoming.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(incoming) {
            if *b < *a {
                *a = *b;
            }
        }
    }
}

/// Element-wise maximum (`MPI_MAX`).
pub struct MaxOp;

impl<T> ReduceOp<T> for MaxOp
where
    T: Elem + PartialOrd,
{
    fn combine(&self, acc: &mut [T], incoming: &[T]) {
        assert_eq!(acc.len(), incoming.len(), "reduce length mismatch");
        for (a, b) in acc.iter_mut().zip(incoming) {
            if *b > *a {
                *a = *b;
            }
        }
    }
}

/// A user-defined operator built from a closure — the analogue of
/// `MPI_Op_create` on a user function.
pub struct FnOp<F>(pub F);

impl<T, F> ReduceOp<T> for FnOp<F>
where
    T: Elem,
    F: Fn(&mut [T], &[T]) + Send + Sync,
{
    fn combine(&self, acc: &mut [T], incoming: &[T]) {
        assert_eq!(acc.len(), incoming.len(), "reduce length mismatch");
        (self.0)(acc, incoming);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sum_combines_elementwise() {
        let mut acc = [1.0f64, 2.0, 3.0];
        SumOp.combine(&mut acc, &[10.0, 20.0, 30.0]);
        assert_eq!(acc, [11.0, 22.0, 33.0]);
    }

    #[test]
    fn min_max_combine() {
        let mut lo = [5i64, -2, 7];
        MinOp.combine(&mut lo, &[3, 0, 9]);
        assert_eq!(lo, [3, -2, 7]);
        let mut hi = [5i64, -2, 7];
        MaxOp.combine(&mut hi, &[3, 0, 9]);
        assert_eq!(hi, [5, 0, 9]);
    }

    #[test]
    fn fn_op_wraps_closure() {
        let xor = FnOp(|acc: &mut [u32], inc: &[u32]| {
            for (a, b) in acc.iter_mut().zip(inc) {
                *a ^= *b;
            }
        });
        let mut acc = [0b1010u32];
        xor.combine(&mut acc, &[0b0110]);
        assert_eq!(acc, [0b1100]);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut acc = [1.0f32];
        SumOp.combine(&mut acc, &[1.0, 2.0]);
    }

    proptest! {
        // Associativity and commutativity of the integer ops, which is what
        // lets the collectives apply them in arbitrary tree order.
        #[test]
        fn prop_sum_assoc_commut(
            a in -1_000_000_000i64..1_000_000_000,
            b in -1_000_000_000i64..1_000_000_000,
            c in -1_000_000_000i64..1_000_000_000,
        ) {
            let combine = |x: i64, y: i64| {
                let mut acc = [x];
                SumOp.combine(&mut acc, &[y]);
                acc[0]
            };
            prop_assert_eq!(
                combine(combine(a, b), c),
                combine(a, combine(b, c))
            );
            prop_assert_eq!(combine(a, b), combine(b, a));
        }

        #[test]
        fn prop_min_is_lattice_meet(a in any::<i32>(), b in any::<i32>()) {
            let mut acc = [a];
            MinOp.combine(&mut acc, &[b]);
            prop_assert_eq!(acc[0], a.min(b));
            // Idempotent.
            let mut acc2 = [a];
            MinOp.combine(&mut acc2, &[a]);
            prop_assert_eq!(acc2[0], a);
        }
    }
}
