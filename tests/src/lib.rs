//! Shared helpers for the cross-crate integration tests.

#![forbid(unsafe_code)]

use std::sync::Arc;

use cc_array::{DType, Hyperslab, Shape, Variable};
use cc_model::{ClusterModel, DiskModel, Topology};
use cc_pfs::backend::{ElemKind, SyntheticBackend};
use cc_pfs::{Pfs, StripeLayout};

/// The deterministic element value used across the integration tests.
pub fn test_value(i: u64) -> f64 {
    ((i.wrapping_mul(31) ^ (i >> 3)) % 1009) as f64 - 500.0
}

/// Builds a file system with one `f64` variable of the given shape, valued
/// by [`test_value`], striped `stripe_size` x `stripe_count`.
pub fn build_var_fs(
    shape: &Shape,
    stripe_size: u64,
    stripe_count: usize,
    total_osts: usize,
) -> (Arc<Pfs>, Variable) {
    let fs = Pfs::new(total_osts, DiskModel::lustre_like());
    let var = Variable::new("v", shape.clone(), DType::F64, 0);
    fs.create(
        "t.nc",
        StripeLayout::round_robin(stripe_size, stripe_count, 0, total_osts),
        Box::new(SyntheticBackend::new(
            shape.num_elements(),
            ElemKind::F64,
            test_value,
        )),
    );
    (Arc::new(fs), var)
}

/// A test cluster model with `nodes * cores` rank slots and fast wire
/// speeds (tests assert data correctness and invariants, not timings).
pub fn test_model(nodes: usize, cores: usize) -> ClusterModel {
    let mut m = ClusterModel::test_tiny(1);
    m.topology = Topology::new(nodes, cores);
    m
}

/// Sums [`test_value`] over a hyperslab directly (oracle).
pub fn oracle_sum(shape: &Shape, slab: &Hyperslab) -> f64 {
    slab.runs(shape)
        .flat_map(|(s, l)| s..s + l)
        .map(test_value)
        .sum()
}

/// Minimum of [`test_value`] over a hyperslab with its element index
/// (ties to the lowest index), directly.
pub fn oracle_min_loc(shape: &Shape, slab: &Hyperslab) -> (f64, u64) {
    let mut best = (f64::INFINITY, u64::MAX);
    for (s, l) in slab.runs(shape) {
        for i in s..s + l {
            let v = test_value(i);
            if v < best.0 {
                best = (v, i);
            }
        }
    }
    best
}

/// Asserts two floats agree to relative 1e-9.
pub fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(1.0),
        "{what}: {a} != {b}"
    );
}
