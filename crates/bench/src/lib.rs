//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (one binary per experiment under `src/bin/`;
//! each module doc names the table or figure it regenerates).

pub mod instances;
pub mod report;
pub mod runner;
pub mod table;
