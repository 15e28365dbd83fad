//! Error-bounded lossy compression for data-movement frames.
//!
//! C-Coll-style (arXiv:2304.03890) integration of an SZ-like predictor +
//! uniform-quantizer codec into the simulated collective stack: the smooth
//! f32/f64 science fields the two-phase engines shuffle compress heavily
//! under a linear predictor with an error-bounded quantizer, turning cheap
//! CPU into inter-node byte savings. This crate is the codec itself plus
//! the configuration types the rest of the workspace shares:
//!
//! * [`Compression`] — the knob carried by `Hints` (off / lossless /
//!   error-bounded), hashable so it enters the plan-cache key;
//! * [`ErrorBound`] — absolute and value-range-relative bounds, resolved
//!   per payload to `eb = max(abs, rel * (max - min))`;
//! * [`Tolerance`] — the kernel-declared error class that clamps
//!   error-bounded framing back to lossless for exact kernels
//!   (Min/Max/MinLoc/MaxLoc), the wrong-winner guard;
//! * [`codec`] — the wire format: self-describing frames holding either
//!   stored bytes, losslessly delta-coded words, or quantized prediction
//!   residuals with a raw escape path.
//!
//! No external dependencies; everything is deterministic and
//! platform-independent (little-endian serialization throughout).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;

pub use codec::{decode_into, decoded_len, encode_into};

use std::hash::{Hash, Hasher};

/// Absolute and relative error bounds for lossy framing.
///
/// The bound actually enforced on a payload is
/// `eb = max(abs, rel * (max - min))` over the finite values in that
/// payload, the SZ convention: `abs` is a floor in engineering units,
/// `rel` scales with the field's local dynamic range. Either may be zero
/// (but not both); the codec escapes to raw bytes wherever quantization
/// cannot honor the bound, so `eb` is a hard guarantee, not a target.
#[derive(Debug, Clone, Copy)]
pub struct ErrorBound {
    /// Absolute error floor, in the field's units.
    pub abs: f64,
    /// Error relative to the payload's value range (`max - min`).
    pub rel: f64,
}

impl ErrorBound {
    /// A bound with both components; each must be finite and `>= 0`, and
    /// at least one must be positive.
    pub(crate) fn new(abs: f64, rel: f64) -> Self {
        assert!(
            abs.is_finite() && abs >= 0.0,
            "abs bound must be finite and >= 0"
        );
        assert!(
            rel.is_finite() && rel >= 0.0,
            "rel bound must be finite and >= 0"
        );
        assert!(abs > 0.0 || rel > 0.0, "error bound must be positive");
        Self { abs, rel }
    }

    /// A purely absolute bound.
    pub fn absolute(abs: f64) -> Self {
        Self::new(abs, 0.0)
    }

    /// A purely range-relative bound.
    pub(crate) fn relative(rel: f64) -> Self {
        Self::new(0.0, rel)
    }

    /// The bound enforced on a payload whose finite values span
    /// `[min, max]`.
    pub fn resolve(&self, min: f64, max: f64) -> f64 {
        let range = if max > min { max - min } else { 0.0 };
        (self.rel * range).max(self.abs)
    }
}

/// `1e-4` of the payload's value range — the default the benchmarks sweep
/// around, tight enough to be invisible on smooth science fields and loose
/// enough to quantize most residuals into one-byte tokens.
impl Default for ErrorBound {
    fn default() -> Self {
        Self::relative(1e-4)
    }
}

impl PartialEq for ErrorBound {
    fn eq(&self, other: &Self) -> bool {
        self.abs.to_bits() == other.abs.to_bits() && self.rel.to_bits() == other.rel.to_bits()
    }
}

impl Eq for ErrorBound {}

impl Hash for ErrorBound {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.abs.to_bits().hash(state);
        self.rel.to_bits().hash(state);
    }
}

/// How data-movement frames are compressed.
///
/// Carried by `cc_mpiio::Hints`, so it enters the plan-cache key: plans
/// compiled under different compression settings never alias. `Off` keeps
/// every engine on its original code path, byte- and clock-identical to a
/// build without this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// No compression; frames carry raw bytes (the seed behavior).
    #[default]
    Off,
    /// Bit-exact frames: XOR-delta word coding with a stored-bytes
    /// fallback, never larger than the raw payload plus a small header.
    Lossless,
    /// Error-bounded lossy frames for float payloads (lossless fallback
    /// for payloads that are not element-aligned).
    ErrorBounded(ErrorBound),
}

impl Compression {
    /// Whether frames are framed at all (anything but `Off`).
    pub fn is_on(&self) -> bool {
        !matches!(self, Compression::Off)
    }

    /// Clamps the requested mode to what a kernel's [`Tolerance`] admits:
    /// an `Exact` consumer downgrades `ErrorBounded` to `Lossless`
    /// (index-exact framing), everything else passes through. This is the
    /// wrong-winner guard for Min/Max/MinLoc/MaxLoc — a lossy frame could
    /// flip a near-tie winner, so exact kernels never see one.
    pub fn clamp_for(self, tolerance: Tolerance) -> Compression {
        match (self, tolerance) {
            (Compression::ErrorBounded(_), Tolerance::Exact) => Compression::Lossless,
            (mode, _) => mode,
        }
    }
}

/// The error class a reduction kernel declares for the bytes it consumes.
///
/// Additive kernels (Sum, SumSq, Mean, Count) tolerate value noise within
/// an error bound: the reduction's own result moves by at most the bound
/// (times element count), which is the accuracy contract the user already
/// accepted by setting a bound. Selection kernels (Min/Max/MinLoc/MaxLoc)
/// are `Exact`: an epsilon on a near-tie changes *which* element wins,
/// an unbounded output error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tolerance {
    /// Results must be bit-identical to the uncompressed run; only
    /// lossless framing is admissible.
    #[default]
    Exact,
    /// Bounded value error is acceptable; error-bounded lossy framing is
    /// admissible.
    BoundedError,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn bound_resolution_takes_the_max_component() {
        let b = ErrorBound::new(0.5, 1e-2);
        assert_eq!(b.resolve(0.0, 10.0), 0.5); // abs floor wins
        assert_eq!(b.resolve(0.0, 1000.0), 10.0); // rel wins
        assert_eq!(b.resolve(3.0, 3.0), 0.5); // degenerate range
    }

    #[test]
    fn compression_is_hashable_and_distinguishes_bounds() {
        let a = Compression::ErrorBounded(ErrorBound::absolute(1e-3));
        let b = Compression::ErrorBounded(ErrorBound::absolute(1e-4));
        assert_ne!(a, b);
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_eq!(a, Compression::ErrorBounded(ErrorBound::new(1e-3, 0.0)));
    }

    #[test]
    fn clamp_downgrades_lossy_for_exact_consumers() {
        let lossy = Compression::ErrorBounded(ErrorBound::default());
        assert_eq!(lossy.clamp_for(Tolerance::Exact), Compression::Lossless);
        assert_eq!(lossy.clamp_for(Tolerance::BoundedError), lossy);
        assert_eq!(
            Compression::Lossless.clamp_for(Tolerance::Exact),
            Compression::Lossless
        );
        assert_eq!(
            Compression::Off.clamp_for(Tolerance::Exact),
            Compression::Off
        );
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_bound_rejected() {
        ErrorBound::new(0.0, 0.0);
    }
}
