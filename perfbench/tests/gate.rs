//! The traced path simulates exactly what the façade does, and a
//! repeat reproduces it. One test, because the façade reads the state
//! representation from the environment and each workload pins its own.

use perfbench::net::{Facade, Traced};
use perfbench::workloads::Workload;

#[test]
fn traced_and_repeat_runs_reproduce_the_facade_outcome() {
    for w in Workload::ALL {
        std::env::set_var("QNP_QSTATE", w.rep().as_str());
        let facade = w.run::<Facade>(11, 0.02).outcome;
        assert!(facade.events > 0 && facade.units > 0, "{}: ran", w.name());
        assert_eq!(
            w.run::<Traced>(11, 0.02).outcome,
            facade,
            "{}: traced",
            w.name()
        );
        assert_eq!(
            w.run::<Facade>(11, 0.02).outcome,
            facade,
            "{}: repeat",
            w.name()
        );
        assert_ne!(
            w.run::<Facade>(12, 0.02).outcome.digest,
            facade.digest,
            "{}: seed",
            w.name()
        );
    }
}
