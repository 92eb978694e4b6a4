//! The traced path's spans account for the run's wall time exactly
//! once: every dispatched event is charged to one span, and the spans
//! plus engine self time add up to the wall time.

use perfbench::net::{Span, Traced};
use perfbench::report::Layers;
use perfbench::workloads::Workload;

#[test]
fn layer_spans_and_engine_self_time_add_up_to_wall_time() {
    for w in Workload::ALL {
        let rep = w.run::<Traced>(7, 0.02);
        let p = &rep.profile;
        let charged: u64 = Span::ALL
            .into_iter()
            .filter(|s| !s.is_routing())
            .map(|s| p.calls[s as usize])
            .sum();
        assert_eq!(
            charged,
            rep.outcome.events,
            "{}: events charged once",
            w.name()
        );

        let l = Layers::of(std::slice::from_ref(&rep));
        let events: f64 = Span::ALL
            .into_iter()
            .filter(|s| !s.is_routing())
            .map(|s| l.span(s))
            .sum();
        let self_s = l.engine_self();
        assert!(self_s > 0.0, "{}: spans exceed the wall time", w.name());
        assert!(l.routing_in_run <= l.span(Span::RoutingPlan) + l.span(Span::RoutingInstall));
        let total = events + l.routing_in_run + self_s;
        assert!(
            (total - l.wall).abs() <= 1e-9 * l.wall.max(1.0),
            "{}: spans {total} s against wall {} s",
            w.name(),
            l.wall
        );
    }
}
