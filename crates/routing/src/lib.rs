//! # qn-routing — routing controller and signalling protocol
//!
//! The two supporting protocols the QNP requires (paper §3.3):
//!
//! * [`controller`] — the central routing controller: shortest paths and
//!   per-link fidelity budgets computed by inverting the worst-case
//!   decoherence chain ("every link-pair is swapped just before its
//!   cutoff timer pops", §5);
//! * [`budget`] — the worst-case fidelity math and the two cutoff
//!   policies of the evaluation (1.5 % fidelity-loss and the 0.85
//!   generation-probability quantile), each validated against the
//!   density-matrix engine;
//! * [`signalling`] — source-routed circuit installation: MPLS-style
//!   link-label allocation and the per-node routing entries of §4.1;
//! * [`topology`] — the network graph, including the paper's Fig 7
//!   dumbbell and linear-chain presets;
//! * [`wire`] — the byte-level encoding of the install/teardown
//!   signalling messages (shared registry with [`qn_net::wire`]).

#![warn(missing_docs)]

pub mod budget;
pub mod controller;
pub mod signalling;
pub mod topology;
pub mod wire;

pub use budget::CutoffPolicy;
pub use controller::{CircuitPlan, Controller, PlanError};
pub use signalling::{InstalledCircuit, Signaller};
pub use topology::{
    chain, dumbbell, grid, ring, wide_dumbbell, Dumbbell, LinkSpec, Topology, WideDumbbell,
};
pub use wire::SignalMessage;
