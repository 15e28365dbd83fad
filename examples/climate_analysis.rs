//! Climate analysis: the paper's benchmark scenario end to end.
//!
//! A 72-rank job analyzes a (virtually) huge 4-D climate variable — the
//! Fig. 1 configuration — computing the mean, extremes, and variance of an
//! interleaved 4-D subset, first with traditional MPI (collective read,
//! then compute, then reduce) and then with collective computing, and
//! prints the phase breakdown of both.
//!
//! ```text
//! cargo run --release -p cc-examples --bin climate_analysis
//! ```

use cc_core::{
    object_get_vara, MapKernel, MaxKernel, MeanKernel, MinKernel, ObjectIo, ReduceMode, SumSqKernel,
};
use cc_examples::banner;
use cc_model::ClusterModel;
use cc_mpi::World;
use cc_mpiio::Hints;
use cc_workloads::ClimateWorkload;

fn main() {
    banner("climate analysis (paper Fig. 1 configuration, scaled)");
    // 72 ranks on 6 nodes x 12 cores, 6 aggregators per node; the variable
    // is the paper's 1024 x 1024 x 100 x 1024 f32 (429 TB virtual), with
    // the fast dimensions of the subset shrunk 5x to keep the demo quick.
    let workload = ClimateWorkload::fig1(72, 5);
    let mut model = ClusterModel::hopper_like(6, 12);
    // An analysis kernel whose cost is comparable to the I/O — the paper's
    // peak-speedup regime (Fig. 9, ratio ~1:1).
    model.cpu.map_cost_per_byte = 5e-6;
    let hints = Hints {
        cb_buffer_size: 1 << 20,
        aggregators_per_node: 6,
        nonblocking: true,
        align_domains_to: Some(workload.stripe_size),
        ..Hints::default()
    };
    println!(
        "variable: {:?} f32 = {:.1} TB (virtual, lazily generated)",
        workload.var().shape().dims(),
        workload.var().size_bytes() as f64 / 1e12
    );
    println!(
        "requested: {:.1} MB across {} ranks",
        workload.requested_bytes() as f64 / 1e6,
        workload.nprocs()
    );

    let kernels: [&dyn MapKernel; 4] = [&MeanKernel, &MinKernel, &MaxKernel, &SumSqKernel];
    let trials = 3; // OST queueing jitters like a real file system: average
    for kernel in kernels {
        let mut line = format!("{:<6}", kernel.name());
        for blocking in [true, false] {
            let mut total = 0.0;
            let mut result = Vec::new();
            for _ in 0..trials {
                let fs = workload.build_fs(156, model.disk.clone());
                let world = World::new(workload.nprocs(), model.clone());
                let fs = &fs;
                let workload = &workload;
                let hints = &hints;
                let outcomes = world.run(move |comm| {
                    let file = fs.open(ClimateWorkload::FILE).expect("created");
                    let slab = workload.slab(comm.rank());
                    let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                        .blocking(blocking)
                        .hints(hints.clone())
                        .reduce(ReduceMode::AllToOne { root: 0 });
                    object_get_vara(comm, fs, &file, workload.var(), &io, kernel)
                });
                total += outcomes
                    .iter()
                    .map(|o| o.report.end)
                    .max()
                    .expect("nonempty")
                    .secs();
                result = outcomes[0].global.clone().expect("root result");
            }
            let label = if blocking { "MPI" } else { "CC" };
            line.push_str(&format!(
                "  {label}: t={:.3}s result={:?}",
                total / trials as f64,
                result
                    .iter()
                    .map(|v| (v * 1000.0).round() / 1000.0)
                    .collect::<Vec<_>>()
            ));
        }
        println!("{line}");
    }
    println!("\n(CC and MPI compute identical results; CC finishes earlier by");
    println!(" overlapping the analysis with the read and shrinking the shuffle.)");
}
