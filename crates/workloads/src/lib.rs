//! Workload generators for the paper's experiments.
//!
//! - [`climate`]: the synthetic climate datasets behind Figs. 1 and 9-12 —
//!   a 4-D variable accessed as interleaved 4-D subsets (Fig. 1's I/O
//!   profile) and a 3-D variable swept over computation:I/O ratios,
//!   process counts, and buffer sizes (Figs. 9-12).
//! - [`wrf`]: a Weather Research & Forecasting-style hurricane simulation
//!   output with analytically-known extrema, driving the paper's two
//!   application tasks ("Min Sea-Level Pressure", "Max 10 m wind speed",
//!   Fig. 13).
//! - [`incite`]: the INCITE application data requirements of Table I.
//! - [`traffic`]: mixed multi-job populations (background batch sweeps +
//!   interactive ROI queries) for the shared-cluster collective service.
//! - [`manytask`]: thousands of tiny overlapping analysis tasks in
//!   arrival waves for the request-fusion batch runner.
//!
//! Every generator is a closed-form function of the element index, so any
//! reduction computed through the full stack can be verified against an
//! independently computed oracle, even for virtually TB-sized files.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod climate;
pub mod incite;
pub mod manytask;
pub mod traffic;
pub mod wrf;

pub use climate::ClimateWorkload;
pub use manytask::ManyTask;
pub use traffic::MixedTraffic;
pub use wrf::{WrfGrid, WrfWorkload};
