//! # qn-netsim — the full-network simulation runtime
//!
//! Composes every layer of the reproduction — `qn-sim` (events),
//! `qn-quantum` (states), `qn-hardware` (devices and heralding),
//! `qn-link` (link layer), `qn-net` (the QNP) and `qn-routing`
//! (controller + signalling) — into a runnable network simulation,
//! playing the role NetSquid scenario scripts play in the paper.
//!
//! * [`runtime`] — the discrete-event model: classical channels with
//!   delay injection, geometric fast-forward link generation, timed noisy
//!   swaps/measurements, cutoff timers, near-term storage moves;
//! * [`build`] — the [`build::NetworkBuilder`] / [`build::NetSim`]
//!   façade: open circuits, submit requests, run, read metrics;
//! * [`app`] — the application harness with oracle-annotated deliveries.
//!
//! ## Example: one pair over the Fig 7 dumbbell
//!
//! ```
//! use qn_hardware::params::{FibreParams, HardwareParams};
//! use qn_netsim::build::NetworkBuilder;
//! use qn_net::{Address, Demand, RequestId, RequestType, UserRequest};
//! use qn_routing::{dumbbell, CutoffPolicy};
//! use qn_sim::{SimTime, SimDuration};
//!
//! let (topology, d) = dumbbell(HardwareParams::simulation(), FibreParams::lab_2m());
//! let mut sim = NetworkBuilder::new(topology).seed(7).build();
//! let vc = sim.open_circuit(d.a0, d.b0, 0.8, CutoffPolicy::short()).unwrap();
//! sim.submit_at(SimTime::ZERO, vc, UserRequest {
//!     id: RequestId(1),
//!     head: Address { node: d.a0, identifier: 0 },
//!     tail: Address { node: d.b0, identifier: 0 },
//!     min_fidelity: 0.8,
//!     demand: Demand::Pairs { n: 1, deadline: None },
//!     request_type: RequestType::Keep,
//!     final_state: None,
//! });
//! sim.run_until(SimTime::ZERO + SimDuration::from_secs(20));
//! assert!(sim.app().completed.len() == 1, "request must complete");
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod build;
pub mod classical;
pub mod estimation;
pub mod faults;
pub mod runtime;

pub use app::{AppHarness, DeliveryRecord, Payload};
pub use build::{NetSim, NetworkBuilder};
pub use classical::{BatchId, BatchOpen, ClassicalFaults, ClassicalPlane, ClassicalStats};
pub use estimation::FidelityEstimator;
pub use faults::{ComponentEvent, FaultPlan};
pub use runtime::{CheckpointPolicy, Ev, NetworkModel, RuntimeConfig};

// The seed sweeps (`qn_bench::run_sweep`) build and run whole
// simulations on worker threads, so the façade types stay `Send`.
// Checked at compile time: introducing an `Rc`/`RefCell` anywhere in
// the stack breaks this build, not a bench run three layers up.
#[allow(dead_code)]
fn _netsim_types_are_send() {
    fn is_send<T: Send>() {}
    is_send::<NetSim>();
    is_send::<NetworkBuilder>();
    is_send::<NetworkModel>();
    is_send::<AppHarness>();
}
