//! Map kernels: the user computation carried by object I/O.
//!
//! A kernel folds runs of decoded values into a small [`Partial`]
//! accumulator, combines partials associatively, and finalizes to the
//! user-visible result. The same kernel drives both the collective-
//! computing engine (mapping mid-collective at aggregators) and the
//! traditional baseline (mapping after the read), so comparisons are
//! apples-to-apples. Kernels receive the linear element index of each run's
//! first value, so positional analyses (the WRF "where is the pressure
//! minimum" task) work even though the data arrives as anonymous runs.
//!
//! The built-in folds split each run into four independent
//! accumulators, so a run is not one serial dependency chain (DESIGN §16).
//! Sums combine their lanes in one fixed order, `(l0 + l1) + (l2 + l3)`,
//! then add the tail in order: they differ from a sequential fold only in
//! rounding, deterministically per run, and not at all wherever the
//! sequential fold is exact (integer-valued data, say). Selections (min,
//! max and their located variants) are bit-identical to the sequential
//! fold: the lanes only find the winning value, and the accumulator takes
//! the run's first element that compares equal to it.

use std::cell::RefCell;

use cc_compress::Tolerance;
use cc_mpi::ReduceOp;

/// A small, fixed-shape accumulator: a handful of values plus an element
/// count. All partials of one kernel have the same `values` length, which
/// is what lets them ride `MPI_Reduce`-style collectives.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    /// Kernel-defined slots (a sum, a min and its location, ...).
    pub values: Vec<f64>,
    /// Elements folded into this partial.
    pub(crate) count: u64,
}

impl Partial {
    /// A partial with the given slots and zero count.
    pub fn new(values: Vec<f64>) -> Self {
        Self { values, count: 0 }
    }

    /// Serializes to words (bit-exact) for the wire: `[count, n, bits...]`.
    pub fn to_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.words_len());
        self.write_words_into(&mut out);
        out
    }

    /// Words [`to_words`](Self::to_words) produces for this partial.
    pub(crate) fn words_len(&self) -> usize {
        self.values.len() + 2
    }

    /// Appends the wire encoding to `out` without clearing it, so callers
    /// batch many partials into one reused buffer. Identical output to
    /// [`to_words`](Self::to_words).
    pub(crate) fn write_words_into(&self, out: &mut Vec<u64>) {
        out.reserve(self.words_len());
        out.push(self.count);
        out.push(self.values.len() as u64);
        out.extend(self.values.iter().map(|v| v.to_bits()));
    }

    /// Deserializes [`to_words`](Self::to_words) output; returns the partial
    /// and the words consumed.
    ///
    /// # Panics
    /// Panics on a truncated buffer.
    pub fn from_words(words: &[u64]) -> (Self, usize) {
        let mut p = Self::new(Vec::new());
        let used = p.read_words(words);
        (p, used)
    }

    /// Overwrites `self` with the [`to_words`](Self::to_words) output at
    /// the head of `words`, reusing `values`' allocation, and returns the
    /// words consumed. A receiver that decodes many partials into one
    /// allocates once.
    ///
    /// # Panics
    /// Panics on a truncated buffer.
    pub(crate) fn read_words(&mut self, words: &[u64]) -> usize {
        assert!(words.len() >= 2, "truncated partial");
        let n = words[1] as usize;
        assert!(words.len() - 2 >= n, "truncated partial values");
        self.count = words[0];
        self.values.clear();
        self.values
            .extend(words[2..2 + n].iter().map(|&b| f64::from_bits(b)));
        2 + n
    }
}

thread_local! {
    /// Partials that combines and fused folds stage operands through,
    /// kept for the thread's next call: a stack, so a kernel staging
    /// inside another's staging (a fused kernel under the reduce op) takes
    /// its own.
    static STAGING: RefCell<Vec<Partial>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on one of this thread's staging partials, holding whatever
/// it last held. After a thread's first few calls this allocates nothing.
pub(crate) fn with_staging<R>(f: impl FnOnce(&mut Partial) -> R) -> R {
    let mut p = STAGING
        .with_borrow_mut(Vec::pop)
        .unwrap_or_else(|| Partial::new(Vec::new()));
    let out = f(&mut p);
    STAGING.with_borrow_mut(|stack| stack.push(p));
    out
}

/// A user computation pushed into the collective (the paper's object-I/O
/// operator, `MPI_Op_create` analogue).
///
/// `combine` must be associative and commutative so partials can be reduced
/// in any tree order.
pub trait MapKernel: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// The identity accumulator.
    fn identity(&self) -> Partial;

    /// Folds a run of values into `acc`. `start_elem` is the linear element
    /// index (in the variable) of `values[0]`; consecutive values are
    /// consecutive elements.
    fn map(&self, acc: &mut Partial, start_elem: u64, values: &[f64]);

    /// Merges `other` into `acc`.
    fn combine(&self, acc: &mut Partial, other: &Partial);

    /// Produces the user-visible result.
    fn finalize(&self, acc: &Partial) -> Vec<f64>;

    /// How this kernel tolerates error-bounded lossy compression of the
    /// field bytes it consumes. Defaults to [`Tolerance::Exact`] — the
    /// safe class: selection kernels (min/max and their located variants)
    /// can return the *wrong winner or index* if a near-tie is perturbed
    /// within the bound, so the engine clamps `ErrorBounded` hints to
    /// lossless for them. Smooth accumulations (sum, mean, moments) opt
    /// in to [`Tolerance::BoundedError`]: a per-element error `<= eb`
    /// moves an n-element sum by at most `n * eb`.
    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }
}

/// Independent accumulators a built-in fold keeps per run. The combine
/// orders below are written out for four.
const LANES: usize = 4;

/// Sum of `values`, and of their squares when `squares` is set: element
/// `j` of each whole group of [`LANES`] goes to lane `j`, the lanes combine
/// as `(l0 + l1) + (l2 + l3)`, then the tail adds in order. Lanes start at
/// `-0.0`, the additive identity, so an empty run adds nothing, not even a
/// zero's sign.
fn lane_sums(values: &[f64], squares: bool) -> (f64, f64) {
    let (groups, tail) = values.as_chunks::<LANES>();
    let mut sum = [-0.0; LANES];
    let mut sumsq = [-0.0; LANES];
    for group in groups {
        for j in 0..LANES {
            sum[j] += group[j];
            if squares {
                sumsq[j] += group[j] * group[j];
            }
        }
    }
    let mut s = (sum[0] + sum[1]) + (sum[2] + sum[3]);
    let mut sq = (sumsq[0] + sumsq[1]) + (sumsq[2] + sumsq[3]);
    for &v in tail {
        s += v;
        if squares {
            sq += v * v;
        }
    }
    (s, sq)
}

/// The element a sequential selection fold over `values` would keep, as
/// `(position, value)`, if it beats or ties `best`; `None` otherwise.
/// `beats` is a strict order under which NaN never wins (`<` for minima,
/// `>` for maxima) and `worst` is its bottom. The lanes find the winning
/// value; the result is the run's first element that compares equal to it,
/// so of equal values the first is kept and a zero keeps its sign.
fn run_winner(
    values: &[f64],
    best: f64,
    worst: f64,
    beats: impl Fn(f64, f64) -> bool,
) -> Option<(usize, f64)> {
    let (groups, tail) = values.as_chunks::<LANES>();
    let mut lane = [worst; LANES];
    for group in groups {
        for j in 0..LANES {
            if beats(group[j], lane[j]) {
                lane[j] = group[j];
            }
        }
    }
    let pick = |a: f64, b: f64| if beats(b, a) { b } else { a };
    let mut w = pick(pick(lane[0], lane[1]), pick(lane[2], lane[3]));
    for &v in tail {
        w = pick(w, v);
    }
    if !(beats(w, best) || w == best) {
        return None;
    }
    let i = values.iter().position(|&v| v == w)?;
    Some((i, values[i]))
}

/// Folds a run into a min or max accumulator (`acc.values[0]`).
fn select_map(acc: &mut Partial, values: &[f64], worst: f64, beats: impl Fn(f64, f64) -> bool) {
    let best = acc.values[0];
    if let Some((_, v)) = run_winner(values, best, worst, &beats) {
        if beats(v, best) {
            acc.values[0] = v;
        }
    }
    acc.count += values.len() as u64;
}

/// Folds a run starting at element `start_elem` into a located min or max
/// accumulator (`[value, index]`): a tie with the accumulator goes to the
/// lower index. Indices are exact below 2^53.
fn select_loc_map(
    acc: &mut Partial,
    start_elem: u64,
    values: &[f64],
    worst: f64,
    beats: impl Fn(f64, f64) -> bool,
) {
    let best = acc.values[0];
    if let Some((i, v)) = run_winner(values, best, worst, &beats) {
        let idx = (start_elem + i as u64) as f64;
        if beats(v, best) || idx < acc.values[1] {
            acc.values[0] = v;
            acc.values[1] = idx;
        }
    }
    acc.count += values.len() as u64;
}

/// Sum of all elements.
pub struct SumKernel;

impl MapKernel for SumKernel {
    fn name(&self) -> &'static str {
        "sum"
    }

    fn identity(&self) -> Partial {
        Partial::new(vec![0.0])
    }

    fn map(&self, acc: &mut Partial, _start_elem: u64, values: &[f64]) {
        acc.values[0] += lane_sums(values, false).0;
        acc.count += values.len() as u64;
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        acc.values[0] += other.values[0];
        acc.count += other.count;
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        vec![acc.values[0]]
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::BoundedError
    }
}

/// Minimum element value.
pub struct MinKernel;

impl MapKernel for MinKernel {
    fn name(&self) -> &'static str {
        "min"
    }

    fn identity(&self) -> Partial {
        Partial::new(vec![f64::INFINITY])
    }

    fn map(&self, acc: &mut Partial, _start_elem: u64, values: &[f64]) {
        select_map(acc, values, f64::INFINITY, |a, b| a < b);
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        if other.values[0] < acc.values[0] {
            acc.values[0] = other.values[0];
        }
        acc.count += other.count;
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        vec![acc.values[0]]
    }
}

/// Maximum element value.
pub struct MaxKernel;

impl MapKernel for MaxKernel {
    fn name(&self) -> &'static str {
        "max"
    }

    fn identity(&self) -> Partial {
        Partial::new(vec![f64::NEG_INFINITY])
    }

    fn map(&self, acc: &mut Partial, _start_elem: u64, values: &[f64]) {
        select_map(acc, values, f64::NEG_INFINITY, |a, b| a > b);
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        if other.values[0] > acc.values[0] {
            acc.values[0] = other.values[0];
        }
        acc.count += other.count;
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        vec![acc.values[0]]
    }
}

/// Arithmetic mean (sum and count travel; division happens at finalize).
pub struct MeanKernel;

impl MapKernel for MeanKernel {
    fn name(&self) -> &'static str {
        "mean"
    }

    fn identity(&self) -> Partial {
        Partial::new(vec![0.0])
    }

    fn map(&self, acc: &mut Partial, _start_elem: u64, values: &[f64]) {
        acc.values[0] += lane_sums(values, false).0;
        acc.count += values.len() as u64;
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        acc.values[0] += other.values[0];
        acc.count += other.count;
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        if acc.count == 0 {
            vec![f64::NAN]
        } else {
            vec![acc.values[0] / acc.count as f64]
        }
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::BoundedError
    }
}

/// Element count (useful for coverage checks and selectivity studies).
pub struct CountKernel;

impl MapKernel for CountKernel {
    fn name(&self) -> &'static str {
        "count"
    }

    fn identity(&self) -> Partial {
        Partial::new(vec![])
    }

    fn map(&self, acc: &mut Partial, _start_elem: u64, values: &[f64]) {
        acc.count += values.len() as u64;
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        acc.count += other.count;
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        vec![acc.count as f64]
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::BoundedError
    }
}

/// Minimum value and the linear element index where it occurs — the WRF
/// "min sea-level pressure (and where)" task. Ties resolve to the lowest
/// index, which keeps the kernel associative-commutative and deterministic.
pub struct MinLocKernel;

impl MapKernel for MinLocKernel {
    fn name(&self) -> &'static str {
        "minloc"
    }

    fn identity(&self) -> Partial {
        Partial::new(vec![f64::INFINITY, -1.0])
    }

    fn map(&self, acc: &mut Partial, start_elem: u64, values: &[f64]) {
        select_loc_map(acc, start_elem, values, f64::INFINITY, |a, b| a < b);
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        let better = other.values[0] < acc.values[0]
            || (other.values[0] == acc.values[0]
                && other.values[1] >= 0.0
                && (acc.values[1] < 0.0 || other.values[1] < acc.values[1]));
        if better {
            acc.values[0] = other.values[0];
            acc.values[1] = other.values[1];
        }
        acc.count += other.count;
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        vec![acc.values[0], acc.values[1]]
    }
}

/// Maximum value and its linear element index — the WRF "max 10 m wind
/// speed" task.
pub struct MaxLocKernel;

impl MapKernel for MaxLocKernel {
    fn name(&self) -> &'static str {
        "maxloc"
    }

    fn identity(&self) -> Partial {
        Partial::new(vec![f64::NEG_INFINITY, -1.0])
    }

    fn map(&self, acc: &mut Partial, start_elem: u64, values: &[f64]) {
        select_loc_map(acc, start_elem, values, f64::NEG_INFINITY, |a, b| a > b);
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        let better = other.values[0] > acc.values[0]
            || (other.values[0] == acc.values[0]
                && other.values[1] >= 0.0
                && (acc.values[1] < 0.0 || other.values[1] < acc.values[1]));
        if better {
            acc.values[0] = other.values[0];
            acc.values[1] = other.values[1];
        }
        acc.count += other.count;
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        vec![acc.values[0], acc.values[1]]
    }
}

/// Sum and sum of squares (first two moments; variance at finalize).
pub struct SumSqKernel;

impl MapKernel for SumSqKernel {
    fn name(&self) -> &'static str {
        "sumsq"
    }

    fn identity(&self) -> Partial {
        Partial::new(vec![0.0, 0.0])
    }

    fn map(&self, acc: &mut Partial, _start_elem: u64, values: &[f64]) {
        let (sum, sumsq) = lane_sums(values, true);
        acc.values[0] += sum;
        acc.values[1] += sumsq;
        acc.count += values.len() as u64;
    }

    fn combine(&self, acc: &mut Partial, other: &Partial) {
        acc.values[0] += other.values[0];
        acc.values[1] += other.values[1];
        acc.count += other.count;
    }

    fn finalize(&self, acc: &Partial) -> Vec<f64> {
        // [mean, variance]
        if acc.count == 0 {
            return vec![f64::NAN, f64::NAN];
        }
        let n = acc.count as f64;
        let mean = acc.values[0] / n;
        vec![mean, acc.values[1] / n - mean * mean]
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::BoundedError
    }
}

/// Adapter letting word-encoded partials ride the MPI reduce collectives:
/// the traditional baseline's `MPI_Reduce` with a user op (Fig. 5, line 8),
/// and the engine's final reduce. Both operands decode into the thread's
/// staging partials, so a tree of combines allocates nothing per combine.
pub struct PartialReduceOp<'a>(pub &'a dyn MapKernel);

impl ReduceOp for PartialReduceOp<'_> {
    fn combine(&self, acc: &mut [u64], incoming: &[u64]) {
        with_staging(|a| {
            with_staging(|b| {
                assert_eq!(a.read_words(acc), acc.len(), "partial word length mismatch");
                assert_eq!(
                    b.read_words(incoming),
                    incoming.len(),
                    "partial word length mismatch"
                );
                self.0.combine(a, b);
            });
            assert_eq!(a.words_len(), acc.len(), "combine changed partial shape");
            acc[0] = a.count;
            for (slot, v) in acc[2..].iter_mut().zip(&a.values) {
                *slot = v.to_bits();
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fold(kernel: &dyn MapKernel, values: &[f64]) -> Vec<f64> {
        let mut acc = kernel.identity();
        kernel.map(&mut acc, 0, values);
        kernel.finalize(&acc)
    }

    #[test]
    fn sum_min_max_mean_count() {
        let v = [3.0, -1.0, 4.0, 1.5];
        assert_eq!(fold(&SumKernel, &v), vec![7.5]);
        assert_eq!(fold(&MinKernel, &v), vec![-1.0]);
        assert_eq!(fold(&MaxKernel, &v), vec![4.0]);
        assert_eq!(fold(&MeanKernel, &v), vec![7.5 / 4.0]);
        assert_eq!(fold(&CountKernel, &v), vec![4.0]);
    }

    #[test]
    fn minloc_tracks_position() {
        let mut acc = MinLocKernel.identity();
        MinLocKernel.map(&mut acc, 100, &[5.0, 2.0, 7.0]);
        MinLocKernel.map(&mut acc, 500, &[2.0, 9.0]);
        // 2.0 occurs at elems 101 and 500; ties take the lower index.
        assert_eq!(MinLocKernel.finalize(&acc), vec![2.0, 101.0]);
    }

    #[test]
    fn maxloc_tracks_position() {
        let mut acc = MaxLocKernel.identity();
        MaxLocKernel.map(&mut acc, 10, &[5.0, 8.0]);
        MaxLocKernel.map(&mut acc, 0, &[8.0]);
        assert_eq!(MaxLocKernel.finalize(&acc), vec![8.0, 0.0]);
    }

    #[test]
    fn sumsq_gives_mean_and_variance() {
        let out = fold(&SumSqKernel, &[1.0, 3.0]);
        assert_eq!(out[0], 2.0);
        assert_eq!(out[1], 1.0);
    }

    #[test]
    fn mean_of_nothing_is_nan() {
        let k = MeanKernel;
        let out = k.finalize(&k.identity());
        assert!(out[0].is_nan());
    }

    #[test]
    fn partial_word_roundtrip() {
        let p = Partial {
            values: vec![1.5, -0.0, f64::INFINITY],
            count: 42,
        };
        let (q, used) = Partial::from_words(&p.to_words());
        assert_eq!(used, 5);
        assert_eq!(q.count, 42);
        assert_eq!(q.values[0], 1.5);
        assert!(q.values[1] == 0.0 && q.values[1].is_sign_negative());
        assert_eq!(q.values[2], f64::INFINITY);
    }

    #[test]
    fn partial_reduce_op_combines_through_words() {
        let k = SumKernel;
        let mut a = Partial::new(vec![10.0]);
        a.count = 2;
        let mut b = Partial::new(vec![5.0]);
        b.count = 3;
        let mut words = a.to_words();
        PartialReduceOp(&k).combine(&mut words, &b.to_words());
        let (c, _) = Partial::from_words(&words);
        assert_eq!(c.values[0], 15.0);
        assert_eq!(c.count, 5);
    }

    /// The sequential folds the lane folds replaced, one element at a
    /// time: selections must match them bit for bit on any run, sums
    /// wherever the sequential sum is exact.
    mod reference {
        use super::Partial;

        pub fn sum(acc: &mut Partial, _start_elem: u64, values: &[f64]) {
            acc.values[0] += values.iter().sum::<f64>();
            acc.count += values.len() as u64;
        }

        pub fn sumsq(acc: &mut Partial, _start_elem: u64, values: &[f64]) {
            let mut sum = acc.values[0];
            let mut sumsq = acc.values[1];
            for &v in values {
                sum += v;
                sumsq += v * v;
            }
            acc.values[0] = sum;
            acc.values[1] = sumsq;
            acc.count += values.len() as u64;
        }

        pub fn min(acc: &mut Partial, _start_elem: u64, values: &[f64]) {
            let mut best = acc.values[0];
            for &v in values {
                if v < best {
                    best = v;
                }
            }
            acc.values[0] = best;
            acc.count += values.len() as u64;
        }

        pub fn max(acc: &mut Partial, _start_elem: u64, values: &[f64]) {
            let mut best = acc.values[0];
            for &v in values {
                if v > best {
                    best = v;
                }
            }
            acc.values[0] = best;
            acc.count += values.len() as u64;
        }

        pub fn minloc(acc: &mut Partial, start_elem: u64, values: &[f64]) {
            let mut best = acc.values[0];
            let mut best_idx = acc.values[1];
            let mut idx = start_elem as f64;
            for &v in values {
                if v < best || (v == best && idx < best_idx) {
                    best = v;
                    best_idx = idx;
                }
                idx += 1.0;
            }
            acc.values[0] = best;
            acc.values[1] = best_idx;
            acc.count += values.len() as u64;
        }

        pub fn maxloc(acc: &mut Partial, start_elem: u64, values: &[f64]) {
            let mut best = acc.values[0];
            let mut best_idx = acc.values[1];
            let mut idx = start_elem as f64;
            for &v in values {
                if v > best || (v == best && idx < best_idx) {
                    best = v;
                    best_idx = idx;
                }
                idx += 1.0;
            }
            acc.values[0] = best;
            acc.values[1] = best_idx;
            acc.count += values.len() as u64;
        }
    }

    type Fold = fn(&mut Partial, u64, &[f64]);

    fn selections() -> [(&'static dyn MapKernel, Fold); 4] {
        [
            (&MinKernel, reference::min),
            (&MaxKernel, reference::max),
            (&MinLocKernel, reference::minloc),
            (&MaxLocKernel, reference::maxloc),
        ]
    }

    fn sums() -> [(&'static dyn MapKernel, Fold); 3] {
        [
            (&SumKernel, reference::sum),
            (&MeanKernel, reference::sum),
            (&SumSqKernel, reference::sumsq),
        ]
    }

    fn bits(p: &Partial) -> (u64, Vec<u64>) {
        (p.count, p.values.iter().map(|v| v.to_bits()).collect())
    }

    /// The values selection runs are drawn from: both zeros, NaN, both
    /// infinities, and few finite values.
    const SPECIALS: [f64; 9] = [
        0.0,
        1.0,
        -0.0,
        -1.0,
        f64::NAN,
        2.0,
        -2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// Prior accumulator indices: the identity's `-1`, indices before,
    /// inside and after the runs (which start at 0..20), and NaN.
    const PRIOR_INDICES: [f64; 6] = [-1.0, 0.0, 7.0, 19.0, 100.0, f64::NAN];

    /// Runs over the first `k` of [`SPECIALS`], negated or not: short
    /// palettes make repeats, and ties between zeros of both signs behind
    /// a larger first value, common for minima and maxima alike.
    fn special_run() -> impl Strategy<Value = Vec<f64>> {
        (
            1..SPECIALS.len() + 1,
            0..2usize,
            prop::collection::vec(0..SPECIALS.len(), 0..41),
        )
            .prop_map(|(k, negate, ix)| {
                let sign = if negate == 1 { -1.0 } else { 1.0 };
                ix.into_iter().map(|i| sign * SPECIALS[i % k]).collect()
            })
    }

    #[test]
    fn selections_keep_the_first_of_equal_values() {
        // +0.0 first at element 12 (lane 2), -0.0 later at element 14
        // (lane 0): the lanes' winner is the -0.0, the sequential fold
        // keeps the +0.0. Negated, the same holds for maxima.
        let run = [1.0, 1.0, 0.0, 1.0, -0.0, 1.0, 1.0, 1.0];
        let negated = run.map(|v: f64| -v);
        let cases: [(&dyn MapKernel, &[f64]); 4] = [
            (&MinKernel, &run),
            (&MinLocKernel, &run),
            (&MaxKernel, &negated),
            (&MaxLocKernel, &negated),
        ];
        for (k, values) in cases {
            let mut acc = k.identity();
            k.map(&mut acc, 10, values);
            assert_eq!(acc.values[0].to_bits(), values[2].to_bits(), "{}", k.name());
            assert_eq!(
                acc.values[1..],
                [12.0][..acc.values.len() - 1],
                "{}",
                k.name()
            );
        }
    }

    #[test]
    fn lane_sum_order_is_pinned() {
        // Lanes (0.1+-1e8, 3.3+3.3, 1e-17+1e8, 0.001+0.1), combined as
        // (l0+l1)+(l2+l3), then the tail 0.5, 0.7, 1.1 in order. The
        // sequential fold reads ...4ccccc; (l0+l1+l2)+l3 reads ...3b645a.
        let run = [0.1, 3.3, 1e-17, 0.001, -1e8, 3.3, 1e8, 0.1, 0.5, 0.7, 1.1];
        let golden = 0x4022_33b6_4519_9999;
        for (k, _) in sums() {
            let mut acc = k.identity();
            k.map(&mut acc, 0, &run);
            assert_eq!(acc.values[0].to_bits(), golden, "{}", k.name());
        }
        let mut seq = SumKernel.identity();
        reference::sum(&mut seq, 0, &run);
        assert_ne!(
            seq.values[0].to_bits(),
            golden,
            "the golden must pin the order"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn prop_selections_match_sequential_folds_bitwise(
            run in special_run(),
            start in 0u64..20,
            prior in (0..SPECIALS.len(), 0..PRIOR_INDICES.len(), 0u64..4),
            fresh in 0..2usize,
        ) {
            for (k, fold) in selections() {
                // A fresh identity, or an arbitrary prior accumulator.
                let mut acc = k.identity();
                if fresh == 0 {
                    acc.values[0] = SPECIALS[prior.0];
                    if acc.values.len() > 1 {
                        acc.values[1] = PRIOR_INDICES[prior.1];
                    }
                    acc.count = prior.2;
                }
                let mut want = acc.clone();
                fold(&mut want, start, &run);
                k.map(&mut acc, start, &run);
                prop_assert_eq!(bits(&acc), bits(&want), "kernel {} on {:?}", k.name(), run);
            }
        }

        #[test]
        fn prop_sums_match_sequential_folds_on_integers(
            ints in prop::collection::vec(-50i64..51, 0..41),
            start in 0u64..20,
            prior in (-50i64..51, -1000i64..1001, 0u64..4),
        ) {
            // -50 stands for -0.0, so runs and priors carry both zeros.
            let value = |i: i64| if i == -50 { -0.0 } else { i as f64 };
            let run: Vec<f64> = ints.iter().map(|&i| value(i)).collect();
            for (k, fold) in sums() {
                let mut acc = k.identity();
                acc.values[0] = value(prior.0);
                if acc.values.len() > 1 {
                    acc.values[1] = prior.1 as f64;
                }
                acc.count = prior.2;
                let mut want = acc.clone();
                fold(&mut want, start, &run);
                k.map(&mut acc, start, &run);
                prop_assert_eq!(bits(&acc), bits(&want), "kernel {} on {:?}", k.name(), run);
            }
        }
    }

    /// All kernels under one roof for generic law tests.
    fn all_kernels() -> Vec<Box<dyn MapKernel>> {
        vec![
            Box::new(SumKernel),
            Box::new(MinKernel),
            Box::new(MaxKernel),
            Box::new(MeanKernel),
            Box::new(CountKernel),
            Box::new(MinLocKernel),
            Box::new(MaxLocKernel),
            Box::new(SumSqKernel),
        ]
    }

    proptest! {
        #[test]
        fn prop_split_map_equals_whole_map(
            values in proptest::collection::vec(-100.0f64..100.0, 1..40),
            split in 0usize..40,
        ) {
            // Mapping a run in one piece or two must agree (up to fp
            // rounding in sums; exact for order stable folds like these).
            let split = split.min(values.len());
            for k in all_kernels() {
                let mut whole = k.identity();
                k.map(&mut whole, 7, &values);
                let mut parts = k.identity();
                k.map(&mut parts, 7, &values[..split]);
                k.map(&mut parts, 7 + split as u64, &values[split..]);
                prop_assert_eq!(whole.count, parts.count, "kernel {}", k.name());
                for (a, b) in whole.values.iter().zip(&parts.values) {
                    prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0),
                        "kernel {}: {a} vs {b}", k.name());
                }
            }
        }

        #[test]
        fn prop_combine_is_commutative(
            v1 in proptest::collection::vec(-50.0f64..50.0, 1..20),
            v2 in proptest::collection::vec(-50.0f64..50.0, 1..20),
        ) {
            for k in all_kernels() {
                let mut a = k.identity();
                k.map(&mut a, 0, &v1);
                let mut b = k.identity();
                k.map(&mut b, 1000, &v2);
                let mut ab = a.clone();
                k.combine(&mut ab, &b);
                let mut ba = b.clone();
                k.combine(&mut ba, &a);
                prop_assert_eq!(ab.count, ba.count);
                for (x, y) in ab.values.iter().zip(&ba.values) {
                    prop_assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0),
                        "kernel {} not commutative: {x} vs {y}", k.name());
                }
            }
        }

        #[test]
        fn prop_identity_is_neutral(
            values in proptest::collection::vec(-50.0f64..50.0, 1..20),
        ) {
            for k in all_kernels() {
                let mut a = k.identity();
                k.map(&mut a, 3, &values);
                let mut with_id = a.clone();
                k.combine(&mut with_id, &k.identity());
                prop_assert_eq!(&with_id.count, &a.count);
                prop_assert_eq!(&with_id.values, &a.values, "kernel {}", k.name());
            }
        }
    }
}
