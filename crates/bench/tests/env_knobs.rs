//! The qn_bench env knobs (`QNP_RUNS`, `QNP_PAIRS`, `QNP_WIRE`,
//! `QNP_MAX_ARRIVALS`, `QNP_REQUESTS`) fail fast on garbage instead of
//! silently running the default sweep. One test, because the
//! environment is process-global.

use qn_bench::{env_u64, pairs, runs, wire_on};
use std::panic;

#[test]
fn env_knobs_fail_fast_on_garbage() {
    let knobs = [
        "QNP_RUNS",
        "QNP_PAIRS",
        "QNP_WIRE",
        "QNP_MAX_ARRIVALS",
        "QNP_REQUESTS",
    ];
    for knob in knobs {
        std::env::remove_var(knob);
    }
    // Unset means the default.
    assert_eq!(runs(3), 3);
    assert_eq!(pairs(40), 40);
    assert!(!wire_on());
    assert_eq!(env_u64("QNP_MAX_ARRIVALS", 24), 24);
    assert_eq!(env_u64("QNP_REQUESTS", 8), 8);

    // Unsigned integers are honoured, zero included.
    std::env::set_var("QNP_RUNS", "2");
    assert_eq!(runs(3), 2);
    std::env::set_var("QNP_PAIRS", "0");
    assert_eq!(pairs(40), 0);
    std::env::set_var("QNP_WIRE", "1");
    assert!(wire_on());

    for knob in knobs {
        for bad in ["2x", "", "-1", "1.5", "many"] {
            std::env::set_var(knob, bad);
            let err = panic::catch_unwind(|| env_u64(knob, 7))
                .expect_err("a garbage knob must fail fast, not fall back");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains(&format!("invalid {knob}={bad:?}"))
                    && msg.contains("unsigned integer"),
                "{knob}={bad:?} panic message: {msg:?}"
            );
        }
        std::env::remove_var(knob);
    }
    assert_eq!(runs(3), 3);
}
