//! # qn-link — the link layer entanglement generation service
//!
//! The layer directly below the QNP in the paper's stack (Fig 2),
//! modelled on the link layer protocol of Ref \[19\] (Dahlberg et al.,
//! SIGCOMM'19). It turns the probabilistic midpoint-heralding physics into
//! a *meaningful service*: batched, multiplexed, retried entanglement
//! generation with per-pair identifiers and Bell-state announcements.
//!
//! The service properties the QNP requires (paper §3.5):
//!
//! 1. link-unique request identifiers ([`LinkLabel`], the Purpose ID);
//! 2. per-pair identifiers ([`EntanglementId`]);
//! 3. Bell-state announcement per pair ([`LinkPair::announced`]);
//! 4. QoS knobs: minimum fidelity, counted or continuous demand, and a
//!    scheduling weight ([`LinkRequest`]).
//!
//! The protocol core ([`LinkProtocol`]) is sans-IO and deterministic; the
//! simulation runtime in `qn-netsim` drives it against the hardware model
//! and the event queue.

#![warn(missing_docs)]

pub mod protocol;
pub mod scheduler;
pub mod service;

pub use protocol::{GenerateSpec, LinkEvent, LinkProtocol};
pub use scheduler::TimeShareScheduler;
pub use service::{EntanglementId, LinkLabel, LinkPair, LinkRequest, PairDemand, RejectReason};
