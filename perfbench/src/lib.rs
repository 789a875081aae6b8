//! End-to-end and per-layer benchmark of the Diff-Index stack: three
//! closed-loop workloads against the real cluster (in process and over
//! loopback sockets), timed from outside the program, with a correctness
//! gate on every run. See `README.md` in this directory.

pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
