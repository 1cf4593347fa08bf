//! Shared harness for the experiment binaries under `src/bin/`: `repro`
//! regenerates every table and figure of the paper, one subcommand each,
//! and the other binaries measure this implementation's own layers and
//! tiers or check what they write (each module doc says which).

pub mod instances;
pub mod report;
pub mod runner;
pub mod table;
