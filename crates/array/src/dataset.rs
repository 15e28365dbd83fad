//! Datasets: ordered collections of variables in one file, plus the
//! PnetCDF-style collective read entry point.

use cc_mpi::Comm;
use cc_mpiio::{collective_read, collective_write, Hints, TwoPhaseReport, WriteReport};
use cc_pfs::{FileHandle, Pfs};

use crate::dtype::DType;
use crate::hyperslab::Hyperslab;
use crate::shape::Shape;
use crate::variable::Variable;

/// A self-describing file layout: variables packed back to back after a
/// fixed-size header, netCDF classic style.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    vars: Vec<Variable>,
    header_bytes: u64,
}

impl Dataset {
    /// An empty dataset with no header.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a variable after the existing ones; returns its index.
    ///
    /// # Panics
    /// Panics on a duplicate name.
    pub fn add_var(&mut self, name: &str, shape: Shape, dtype: DType) -> usize {
        assert!(
            self.vars.iter().all(|v| v.name() != name),
            "duplicate variable '{name}'"
        );
        let base = self
            .vars
            .last()
            .map_or(self.header_bytes, Variable::end_offset);
        self.vars.push(Variable::new(name, shape, dtype, base));
        self.vars.len() - 1
    }

    /// Looks a variable up by name.
    pub fn var(&self, name: &str) -> Option<&Variable> {
        self.vars.iter().find(|v| v.name() == name)
    }

    /// Total file size in bytes (header plus all variables).
    pub fn total_bytes(&self) -> u64 {
        self.vars
            .last()
            .map_or(self.header_bytes, Variable::end_offset)
    }
}

/// The `ncmpi_get_vara_*_all` analogue: collectively reads `slab` of `var`
/// through the two-phase engine and decodes to `f64`. Must be called by all
/// ranks; each rank passes its own selection.
pub fn get_vara_all(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    hints: &Hints,
) -> (Vec<f64>, TwoPhaseReport) {
    let request = var.byte_extents(slab);
    let (bytes, report) = collective_read(comm, pfs, file, &request, hints);
    (var.dtype().decode(&bytes), report)
}

/// The `ncmpi_put_vara_*_all` analogue: collectively writes `values` into
/// `slab` of `var` through the two-phase write engine. Must be called by
/// all ranks; each rank passes its own selection and values (in row-major
/// selection order).
///
/// # Panics
/// Panics if `values.len()` does not match the selection size.
pub fn put_vara_all(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    values: &[f64],
    hints: &Hints,
) -> WriteReport {
    assert_eq!(
        values.len() as u64,
        slab.num_elements(),
        "value buffer does not match the selection size"
    );
    let request = var.byte_extents(slab);
    let bytes = var.dtype().encode(values);
    collective_write(comm, pfs, file, &request, &bytes, hints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::{ClusterModel, Topology};
    use cc_mpi::World;
    use cc_pfs::backend::ElemKind;
    use cc_pfs::{StripeLayout, SyntheticBackend};
    use std::sync::Arc;

    impl Dataset {
        /// An empty dataset reserving `header_bytes` before the first variable.
        fn with_header(header_bytes: u64) -> Self {
            Self {
                vars: Vec::new(),
                header_bytes,
            }
        }
    }

    #[test]
    fn variables_pack_back_to_back() {
        let mut ds = Dataset::with_header(128);
        ds.add_var("a", Shape::new(vec![10]), DType::F64);
        ds.add_var("b", Shape::new(vec![4, 4]), DType::F32);
        let a = ds.var("a").expect("a exists");
        let b = ds.var("b").expect("b exists");
        assert_eq!(a.base_offset(), 128);
        assert_eq!(b.base_offset(), 128 + 80);
        assert_eq!(ds.total_bytes(), 128 + 80 + 64);
        assert!(ds.var("missing").is_none());
    }

    #[test]
    #[should_panic]
    fn duplicate_name_panics() {
        let mut ds = Dataset::new();
        ds.add_var("x", Shape::new(vec![1]), DType::F32);
        ds.add_var("x", Shape::new(vec![1]), DType::F32);
    }

    #[test]
    fn put_then_get_vara_roundtrip() {
        // Collectively write a checkerboard selection, then read it back.
        let shape = Shape::new(vec![8, 10]);
        let mut ds = Dataset::new();
        ds.add_var("t", shape.clone(), DType::F64);
        let fs = Pfs::new(
            2,
            cc_model::DiskModel {
                seek: 1e-3,
                ost_bandwidth: 1e8,
            },
        );
        fs.create(
            "d",
            StripeLayout::round_robin(64, 2, 0, 2),
            Box::new(cc_pfs::MemBackend::zeroed(640)),
        );
        let fs = Arc::new(fs);
        let mut model = ClusterModel::test_tiny(4);
        model.topology = Topology::new(2, 2);
        let world = World::new(4, model);
        let ds = &ds;
        let fs = &fs;
        let ok = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let var = ds.var("t").expect("t exists");
            let slab = Hyperslab::new(vec![2 * comm.rank() as u64, 3], vec![2, 4]);
            // Values are a function of rank and position.
            let values: Vec<f64> = (0..8).map(|k| (comm.rank() * 100 + k) as f64).collect();
            put_vara_all(comm, fs, &file, var, &slab, &values, &Hints::default());
            comm.barrier();
            let (back, _) = get_vara_all(comm, fs, &file, var, &slab, &Hints::default());
            back == values
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn get_vara_all_reads_correct_values() {
        // One f64 variable whose value equals its element index.
        let shape = Shape::new(vec![8, 10]);
        let mut ds = Dataset::new();
        ds.add_var("t", shape.clone(), DType::F64);
        let fs = Pfs::new(
            2,
            cc_model::DiskModel {
                seek: 1e-3,
                ost_bandwidth: 1e8,
            },
        );
        fs.create(
            "d",
            StripeLayout::round_robin(64, 2, 0, 2),
            Box::new(SyntheticBackend::new(80, ElemKind::F64, |i: u64| i as f64)),
        );
        let fs = Arc::new(fs);

        let mut model = ClusterModel::test_tiny(4);
        model.topology = Topology::new(2, 2);
        let world = World::new(4, model);
        let ds = &ds;
        let fs = &fs;
        let results = world.run(move |comm| {
            let file = fs.open("d").expect("exists");
            let var = ds.var("t").expect("t exists");
            // Rank r reads rows 2r..2r+2, columns 3..7.
            let slab = Hyperslab::new(vec![2 * comm.rank() as u64, 3], vec![2, 4]);
            get_vara_all(comm, fs, &file, var, &slab, &Hints::default()).0
        });
        for (r, values) in results.iter().enumerate() {
            let mut expect = Vec::new();
            for row in (2 * r as u64)..(2 * r as u64 + 2) {
                for col in 3..7u64 {
                    expect.push((row * 10 + col) as f64);
                }
            }
            assert_eq!(values, &expect, "rank {r}");
        }
    }
}
