//! Computation cost model.
//!
//! The paper's central experiment (Fig. 9) sweeps the computation-to-I/O
//! ratio, which in this reproduction is a direct function of
//! `map_cost_per_byte` relative to the disk model. The other parameters
//! price the bookkeeping that collective computing adds: combining
//! intermediate results and maintaining their logical metadata (Figs. 11-12).

use crate::time::SimTime;

/// CPU cost parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Cost of applying the user map kernel to one byte of raw data
    /// (seconds/byte). Benchmarks sweep this to set the computation:I/O
    /// ratio.
    pub map_cost_per_byte: f64,
    /// Cost of combining one element of intermediate/partial results
    /// (seconds/element).
    pub reduce_cost_per_element: f64,
    /// Cost of staging one byte through a memory copy, e.g. packing shuffle
    /// buffers (seconds/byte).
    pub memcpy_cost_per_byte: f64,
    /// Cost of creating/indexing one intermediate-result metadata entry
    /// (seconds/entry).
    pub metadata_cost_per_entry: f64,
    /// Cost of pushing one element through the error-bounded frame codec
    /// on the encode side — predict, quantize, verify, emit (seconds per
    /// element, where an element is one predictor step: an f64/f32 value
    /// or a u64 word in lossless mode). Decoding replays only the
    /// reconstruction and is charged at half this rate.
    pub(crate) compress_cost_per_element: f64,
}

impl CpuModel {
    /// Parameters loosely matching a 2.1 GHz AMD MagnyCours core: a simple
    /// streaming kernel (sum/min/max) sustains a few GB/s per core.
    pub(crate) fn magny_cours_like() -> Self {
        Self {
            map_cost_per_byte: 2.5e-10, // ~4 GB/s streaming kernel
            reduce_cost_per_element: 5e-9,
            memcpy_cost_per_byte: 1.5e-10, // ~6.6 GB/s copy
            metadata_cost_per_entry: 2e-7,
            compress_cost_per_element: 2e-9, // ~0.5 Gelem/s quantizer
        }
    }

    /// Time to map-compute over `bytes` of raw data.
    pub fn map_time(&self, bytes: usize) -> SimTime {
        SimTime::from_secs(self.map_cost_per_byte * bytes as f64)
    }

    /// Time to combine `elements` partial-result elements.
    pub fn reduce_time(&self, elements: usize) -> SimTime {
        SimTime::from_secs(self.reduce_cost_per_element * elements as f64)
    }

    /// Time to memcpy `bytes`.
    pub fn memcpy_time(&self, bytes: usize) -> SimTime {
        SimTime::from_secs(self.memcpy_cost_per_byte * bytes as f64)
    }

    /// Time to create `entries` metadata records.
    pub fn metadata_time(&self, entries: usize) -> SimTime {
        SimTime::from_secs(self.metadata_cost_per_entry * entries as f64)
    }

    /// Time to encode a `bytes`-long payload through the frame codec.
    /// Elements are 8-byte predictor steps (f64 values or u64 words);
    /// partial trailing elements round up.
    pub fn compress_time(&self, bytes: usize) -> SimTime {
        SimTime::from_secs(self.compress_cost_per_element * bytes.div_ceil(8) as f64)
    }

    /// Time to decode a payload that reconstructs to `bytes` logical
    /// bytes: half the encode rate (no range scan, no verify pass).
    pub fn decompress_time(&self, bytes: usize) -> SimTime {
        SimTime::from_secs(0.5 * self.compress_cost_per_element * bytes.div_ceil(8) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_time_is_linear() {
        let c = CpuModel::magny_cours_like();
        let t1 = c.map_time(1 << 20).secs();
        let t2 = c.map_time(1 << 21).secs();
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_work_is_free() {
        let c = CpuModel::magny_cours_like();
        assert_eq!(c.map_time(0), SimTime::ZERO);
        assert_eq!(c.reduce_time(0), SimTime::ZERO);
        assert_eq!(c.memcpy_time(0), SimTime::ZERO);
        assert_eq!(c.metadata_time(0), SimTime::ZERO);
        assert_eq!(c.compress_time(0), SimTime::ZERO);
        assert_eq!(c.decompress_time(0), SimTime::ZERO);
    }

    #[test]
    fn codec_time_counts_eight_byte_elements() {
        let c = CpuModel::magny_cours_like();
        // 4096 bytes = 512 elements; a 4097-byte payload rounds up.
        assert_eq!(c.compress_time(4096), c.compress_time(4089));
        assert!(c.compress_time(4097) > c.compress_time(4096));
        // Decode is charged at half the encode rate.
        assert!(
            (c.decompress_time(4096).secs() / c.compress_time(4096).secs() - 0.5).abs() < 1e-12
        );
    }
}
