//! Scenario functions: one simulation run of one figure configuration
//! at one seed.
//!
//! Every function here is a **pure function of its arguments** — it
//! builds a fresh topology and simulation, runs it, and returns a plain
//! point struct. That purity is what lets [`crate::run_sweep`] run
//! seeds on worker threads while guaranteeing bit-identical results at
//! any thread count.

mod ablation;
mod chaos;
mod diversity;
mod fig10;
mod fig11;
mod fig8;
mod fig9;
mod openworld;

pub use ablation::{chain_point_scenario, cutoff_point_scenario, ChainPoint, CutoffPoint};
pub use chaos::{chaos_scenario, ChaosConfig, ChaosPoint};
pub use diversity::{wide_dumbbell_scenario, WideDumbbellPoint};
pub use fig10::{fig10ab_scenario, fig10c_scenario, Fig10Point, Fig10Variant, Fig10cPoint};
pub use fig11::{fig11_plan, fig11_scenario};
pub use fig8::{circuit_pairs, fig8_scenario, Fig8Point};
pub use fig9::{fig9_scenario, Fig9Point};
pub use openworld::{openworld_scenario, OpenWorldConfig, OpenWorldPoint, OwArrivals, OwTopology};

use qn_net::{Address, Demand, RequestId, RequestType, UserRequest};
use qn_sim::NodeId;

/// A KEEP request for `n` pairs without deadline.
pub fn keep_request(id: u64, head: NodeId, tail: NodeId, f: f64, n: u64) -> UserRequest {
    UserRequest {
        id: RequestId(id),
        head: Address {
            node: head,
            identifier: 0,
        },
        tail: Address {
            node: tail,
            identifier: 0,
        },
        min_fidelity: f,
        demand: Demand::Pairs { n, deadline: None },
        request_type: RequestType::Keep,
        final_state: None,
    }
}
