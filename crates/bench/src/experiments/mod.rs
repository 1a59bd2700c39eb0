//! Experiment modules E1–E12, E14 and E15, and shared plumbing.

pub mod common;
pub mod e1;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e14;
pub mod e15;

pub use common::ExperimentCtx;
