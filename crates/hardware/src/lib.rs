//! # qn-hardware — NV-centre quantum network hardware model
//!
//! The hardware substrate of the QNP reproduction: everything below the
//! link layer in the paper's stack (Fig 2), parameterised by the Appendix B
//! tables.
//!
//! * [`params`] — Tables 1–2 as the `simulation()` and `near_term()`
//!   parameter sets, plus fibre models;
//! * [`heralding`] — the single-click midpoint-heralding physics with the
//!   bright-state `α` knob (fidelity ↔ rate trade-off);
//! * [`pairs`] — the live entangled-pair store: lazy T1/T2 decoherence,
//!   noisy entanglement swaps, measurements with readout error, the
//!   simulation-only fidelity oracle;
//! * [`device`] — per-node qubit inventories (two communication qubits per
//!   link in the main simulations; one electron + carbons for Fig 11).
//!
//! ## Example: generate, age, and swap pairs
//!
//! ```
//! use qn_hardware::heralding::LinkPhysics;
//! use qn_hardware::pairs::{PairStore, SwapNoise};
//! use qn_hardware::StateRep;
//! use qn_hardware::params::{FibreParams, HardwareParams};
//! use qn_hardware::device::QubitId;
//! use qn_sim::{NodeId, SimRng, SimTime, SimDuration};
//!
//! let physics = LinkPhysics::new(HardwareParams::simulation(), FibreParams::lab_2m());
//! let alpha = physics.alpha_for_fidelity(0.95).unwrap();
//! let announced = qn_quantum::BellState::PSI_PLUS;
//! let state = physics.heralded_state(alpha, announced);
//!
//! let mut store = PairStore::new(StateRep::Bell);
//! let id = store.create(
//!     SimTime::ZERO,
//!     state,
//!     announced,
//!     [(NodeId(0), QubitId(0), 3600.0, 60.0), (NodeId(1), QubitId(0), 3600.0, 60.0)],
//! );
//! // The oracle sees the fidelity fall as the pair idles.
//! let f0 = store.fidelity_to(id, announced, SimTime::ZERO);
//! let f1 = store.fidelity_to(id, announced, SimTime::ZERO + SimDuration::from_secs(5));
//! assert!(f1 < f0);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod distill;
pub mod heralding;
pub mod pairs;
pub mod params;

pub use device::{QDevice, QubitId, QubitKind};
pub use distill::{bbpssw_output_fidelity, bbpssw_success_prob, DistillResult};
pub use heralding::LinkPhysics;
pub use pairs::{MeasureResult, PairId, PairStore, PairView, SwapNoise, SwapResult};
pub use params::{FibreParams, GateParams, GateSpec, HardwareParams, ReadoutSpec};
pub use qn_quantum::pairstate::{PairState, StateRep};
