//! Kernel fusion: several analyses in one pass over the data.
//!
//! The paper's benchmark "simulate\[s\] the computation part with different
//! operations, e.g., sum, max, and average" — in practice an analyst wants
//! several statistics of the same subset. Running them as separate object
//! I/Os re-reads the data each time; [`FusedKernel`] computes all of them
//! in a single collective, with the partials of each component traveling
//! side by side. The I/O cost is paid once.

use crate::kernel::{with_staging, MapKernel, Partial};

/// A compound kernel: applies every component kernel to each run and
/// carries their partials concatenated (`[n, len_0, values_0..., count_0,
/// len_1, ...]` in the `values` slot).
pub struct FusedKernel<'a> {
    components: Vec<&'a dyn MapKernel>,
}

impl<'a> FusedKernel<'a> {
    /// Fuses the given kernels.
    ///
    /// # Panics
    /// Panics on an empty component list.
    pub fn new(components: Vec<&'a dyn MapKernel>) -> Self {
        assert!(!components.is_empty(), "fusion needs at least one kernel");
        Self { components }
    }

    /// Splits a fused partial back into per-component partials.
    ///
    /// # Panics
    /// Panics if `fused` was not produced by this kernel arrangement.
    pub fn split(&self, fused: &Partial) -> Vec<Partial> {
        let mut out = Vec::with_capacity(self.components.len());
        let mut pos = 0usize;
        for _ in &self.components {
            let len = fused.values[pos] as usize;
            let count = fused.values[pos + 1] as u64;
            let values = fused.values[pos + 2..pos + 2 + len].to_vec();
            out.push(Partial { values, count });
            pos += 2 + len;
        }
        assert_eq!(pos, fused.values.len(), "fused partial shape mismatch");
        out
    }

    /// Finalizes each component and returns their results in order.
    pub fn finalize_each(&self, fused: &Partial) -> Vec<Vec<f64>> {
        self.split(fused)
            .iter()
            .zip(&self.components)
            .map(|(p, k)| k.finalize(p))
            .collect()
    }

    fn pack(&self, parts: &[Partial]) -> Partial {
        let mut values = Vec::new();
        let mut count = 0;
        for p in parts {
            values.push(p.values.len() as f64);
            values.push(p.count as f64);
            values.extend_from_slice(&p.values);
            count = count.max(p.count);
        }
        Partial { values, count }
    }

    /// Runs `step` on each component and its slot of `acc`, staged through
    /// one of the thread's staging partials, and writes the slots back:
    /// the accumulator is walked in place instead of split and repacked.
    /// `step` also gets the slot's position in the layout. The fused count
    /// is the largest component count.
    fn for_each_slot(
        &self,
        acc: &mut Partial,
        mut step: impl FnMut(&dyn MapKernel, &mut Partial, usize),
    ) {
        with_staging(|slot| {
            let mut pos = 0usize;
            let mut max_count = 0u64;
            for &k in &self.components {
                let len = stage(slot, &acc.values, pos);
                step(k, slot, pos);
                assert_eq!(slot.values.len(), len, "component changed partial shape");
                acc.values[pos + 1] = slot.count as f64;
                acc.values[pos + 2..pos + 2 + len].copy_from_slice(&slot.values);
                max_count = max_count.max(slot.count);
                pos += 2 + len;
            }
            assert_eq!(pos, acc.values.len(), "fused partial shape mismatch");
            acc.count = max_count;
        });
    }
}

/// Copies the component slot at `pos` of a fused layout into `into` and
/// returns its value count.
fn stage(into: &mut Partial, layout: &[f64], pos: usize) -> usize {
    let len = layout[pos] as usize;
    into.count = layout[pos + 1] as u64;
    into.values.clear();
    into.values
        .extend_from_slice(&layout[pos + 2..pos + 2 + len]);
    len
}

impl MapKernel for FusedKernel<'_> {
    fn name(&self) -> &'static str {
        "fused"
    }

    fn identity(&self) -> Partial {
        let parts: Vec<Partial> = self.components.iter().map(|k| k.identity()).collect();
        self.pack(&parts)
    }

    fn map(&self, acc: &mut Partial, start_elem: u64, values: &[f64]) {
        self.for_each_slot(acc, |k, slot, _| k.map(slot, start_elem, values));
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        with_staging(|theirs| {
            self.for_each_slot(acc, |k, mine, pos| {
                let len = stage(theirs, &other.values, pos);
                assert_eq!(len, mine.values.len(), "fused partial shape mismatch");
                k.combine(mine, theirs);
            });
        });
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        // The flat concatenation of every component's finalized output.
        self.finalize_each(acc).concat()
    }

    fn tolerance(&self) -> cc_compress::Tolerance {
        // A fused sweep is only as tolerant as its strictest component:
        // one exact kernel (a located min, say) forces lossless framing
        // for the whole shared read.
        if self
            .components
            .iter()
            .all(|k| k.tolerance() == cc_compress::Tolerance::BoundedError)
        {
            cc_compress::Tolerance::BoundedError
        } else {
            cc_compress::Tolerance::Exact
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{CountKernel, MaxKernel, MeanKernel, MinLocKernel, SumKernel};

    fn fused<'a>() -> FusedKernel<'a> {
        FusedKernel::new(vec![&SumKernel, &MaxKernel, &MeanKernel, &CountKernel])
    }

    #[test]
    fn fused_matches_separate_kernels() {
        let data = [3.0, -1.0, 4.0, 1.5, 9.0];
        let k = fused();
        let mut acc = k.identity();
        k.map(&mut acc, 0, &data[..2]);
        k.map(&mut acc, 2, &data[2..]);
        let results = k.finalize_each(&acc);
        assert_eq!(results[0], vec![16.5]); // sum
        assert_eq!(results[1], vec![9.0]); // max
        assert_eq!(results[2], vec![16.5 / 5.0]); // mean
        assert_eq!(results[3], vec![5.0]); // count
    }

    #[test]
    fn fused_combine_is_componentwise() {
        let k = fused();
        let mut a = k.identity();
        k.map(&mut a, 0, &[1.0, 2.0]);
        let mut b = k.identity();
        k.map(&mut b, 2, &[10.0]);
        k.combine(&mut a, &b);
        let results = k.finalize_each(&a);
        assert_eq!(results[0], vec![13.0]);
        assert_eq!(results[1], vec![10.0]);
        assert_eq!(results[3], vec![3.0]);
    }

    #[test]
    fn fused_with_positional_component() {
        let k = FusedKernel::new(vec![&MinLocKernel, &SumKernel]);
        let mut acc = k.identity();
        k.map(&mut acc, 100, &[5.0, 1.0, 7.0]);
        let results = k.finalize_each(&acc);
        assert_eq!(results[0], vec![1.0, 101.0]);
        assert_eq!(results[1], vec![13.0]);
    }

    #[test]
    fn fused_word_roundtrip_survives_reduce_path() {
        // The fused partial must survive the wire codec used by reduce.
        let k = fused();
        let mut acc = k.identity();
        k.map(&mut acc, 0, &[1.0, 2.0, 3.0]);
        let (back, _) = Partial::from_words(&acc.to_words());
        assert_eq!(back, acc);
    }

    #[test]
    #[should_panic]
    fn empty_fusion_panics() {
        let _ = FusedKernel::new(vec![]);
    }
}
