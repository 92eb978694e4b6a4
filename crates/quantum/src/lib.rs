//! # qn-quantum — density-matrix quantum information engine
//!
//! The quantum substrate of the QNP reproduction (the role NetSquid's
//! qubit engine plays in the paper). It provides:
//!
//! * [`state::DensityMatrix`] — mixed states of 1–4 qubits with unitary
//!   application, Kraus channels, measurement and partial trace, by
//!   dense matrix products;
//! * [`pairstate`] — the dual-representation pair-state layer: the
//!   [`pairstate::BellDiagonal`] closed-form fast path and the dense
//!   4×4 [`pairstate::DensePair`] (selected by [`StateRep`]), which is
//!   also the fallback for operations that leave the Bell-diagonal
//!   family, plus the exact conditional-map tables for swap and
//!   distillation and the swap's POVM elements, each built once per
//!   process per noise level;
//! * [`gates`] — standard gates plus the native NV controlled-√X;
//! * [`channels`] — the noise processes of the paper (P1–P4): depolarizing,
//!   dephasing, amplitude damping, and the fidelity↔parameter conversions;
//! * [`bell`] — the four Bell states and the XOR *lazy tracking* algebra
//!   the QNP uses instead of simulating intermediate states;
//! * [`measure`] — Pauli measurements and Bell-state measurements;
//! * [`formulas`] — closed-form Werner-state fidelity math used by the
//!   routing budget, cross-validated against the density-matrix engine.
//!
//! Design rule: this crate owns **no randomness** — all probabilistic
//! operations take a uniform sample from the caller, which keeps the
//! engine deterministic and lets the simulator control every stream.
//!
//! ## Example: entanglement swap with lazy tracking
//!
//! ```
//! use qn_quantum::bell::BellState;
//! use qn_quantum::measure::bell_measure_ideal;
//!
//! // Two perfect link pairs (A,B1) and (B2,C).
//! let joint = BellState::PHI_PLUS.density().tensor(&BellState::PSI_PLUS.density());
//! // Swap at node B: Bell-measure the middle qubits.
//! let (outcome, rest) = bell_measure_ideal(&joint, 1, 2, 0.42);
//! // The XOR algebra predicts the resulting end-to-end state …
//! let predicted = BellState::PHI_PLUS.combine(BellState::PSI_PLUS, outcome);
//! // … and the full quantum simulation agrees:
//! let fidelity = rest.unwrap().fidelity_pure(&predicted.amplitudes());
//! assert!((fidelity - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod bell;
pub mod channels;
pub mod complex;
pub mod formulas;
pub mod gates;
pub mod matrix;
pub mod measure;
pub mod pairstate;
pub mod state;

pub use bell::BellState;
pub use complex::C64;
pub use gates::Pauli;
pub use matrix::CMatrix;
pub use pairstate::{BellDiagonal, PairState, StateRep};
pub use state::DensityMatrix;
