//! # hbm-bench — reproduction harness
//!
//! Shared code for the `repro` binary (which regenerates every table and
//! figure of the paper) and the Criterion benches.
//!
//! The paper's reference values are embedded as constants so every
//! report prints *paper vs. measured* side by side; EXPERIMENTS.md is
//! written from this output.

pub mod fig7;
pub mod json;
pub mod paper;
pub mod profilecmd;
pub mod render;
pub mod tracecmd;
pub mod xvalidate;

pub use fig7::{accel_bandwidths, AccelBandwidths};
