//! Profiling and reporting utilities shared by the engines and benchmarks.
//!
//! The paper motivates collective computing with CPU profiles (Figs. 2-3:
//! user/system/wait percentages over time) and evaluates it with phase
//! timings. Engines in this workspace record [`Segment`]s of virtual time
//! tagged with an [`Activity`]; [`CpuProfile`] bins them into the
//! user/sys/wait time series of the paper's figures, and [`Table`] renders
//! benchmark output as aligned text or CSV.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod activity;
pub mod cpu;
pub mod table;

pub use activity::{Activity, Segment};
pub use cpu::CpuProfile;
pub use table::Table;
