//! Shared helpers for the runnable examples.

#![forbid(unsafe_code)]

use std::sync::Arc;

use cc_array::{DType, Shape, Variable};
use cc_model::DiskModel;
use cc_pfs::backend::{ElemKind, SyntheticBackend};
use cc_pfs::{Pfs, StripeLayout};

/// Creates a small simulated file system holding one 2-D `f64` variable
/// named `temperature` whose value at element `i` is `f(i)`. Returns the
/// file system and the variable descriptor.
pub fn make_temperature_file(rows: u64, cols: u64, f: fn(u64) -> f64) -> (Arc<Pfs>, Variable) {
    let fs = Pfs::new(8, DiskModel::lustre_like());
    let var = Variable::new("temperature", Shape::new(vec![rows, cols]), DType::F64, 0);
    fs.create(
        "demo.nc",
        StripeLayout::round_robin(1 << 20, 8, 0, 8),
        Box::new(SyntheticBackend::new(rows * cols, ElemKind::F64, f)),
    );
    (Arc::new(fs), var)
}

/// Prints a section header.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
