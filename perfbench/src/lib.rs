//! Host-time benchmark of the paper workloads.
//!
//! Each workload runs through the public façade for its end-to-end
//! numbers and through a traced path that charges host time to the
//! layer whose code ran. See `README.md` in this directory for the
//! metrics and how to run them.

pub mod net;
pub mod report;
pub mod workloads;
