//! # grbac-bench — shared fixtures and measurement for the harness
//!
//! The Criterion benches (`benches/e*.rs`), the `experiments` binary
//! and the consoles build their systems from this crate and measure
//! with its one method, so configurations and timing are the same
//! everywhere. See EXPERIMENTS.md for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod fixtures;
pub mod measure;
pub mod serveload;
pub mod table;
