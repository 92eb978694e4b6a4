//! Lightweight event tracing.
//!
//! Scenario code and examples record human-readable protocol events
//! (message sends, swaps, deliveries) through a [`Trace`]: an in-memory
//! list of `(time, category, source, text)` rows that can be printed as
//! a sequence log (used by `examples/sequence_trace` to reproduce the
//! paper's Fig 6).
//!
//! [`Trace::record`] takes the source and text as [`fmt::Arguments`]
//! (`format_args!`) and formats them only when the trace is enabled, so
//! a disabled trace builds no string and runs no argument's `Display`:
//! a call site in a hot path costs a branch.

use crate::time::SimTime;
use std::fmt;

/// Category of a trace row, used for filtering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Classical control message transmitted.
    Message,
    /// Quantum operation (swap, measurement, move).
    Quantum,
    /// Link-layer pair generated.
    LinkPair,
    /// Pair delivered to an application.
    Delivery,
    /// Qubit discarded (cutoff or expiry notification).
    Discard,
    /// Anything else.
    Info,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Message => "MSG",
            TraceKind::Quantum => "QOP",
            TraceKind::LinkPair => "LNK",
            TraceKind::Delivery => "DLV",
            TraceKind::Discard => "DSC",
            TraceKind::Info => "INF",
        };
        f.write_str(s)
    }
}

/// One recorded trace row.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// When the event happened.
    pub time: SimTime,
    /// Event category.
    pub kind: TraceKind,
    /// Node or component that produced the event.
    pub source: String,
    /// Human-readable description.
    pub text: String,
}

/// An in-memory trace recorder. A disabled recorder drops rows without
/// formatting them.
#[derive(Debug, Default)]
pub struct Trace {
    rows: Vec<TraceRow>,
    enabled: bool,
}

impl Trace {
    /// A disabled trace: records nothing.
    pub fn disabled() -> Self {
        Trace {
            rows: Vec::new(),
            enabled: false,
        }
    }

    /// An enabled trace.
    pub fn enabled() -> Self {
        Trace {
            rows: Vec::new(),
            enabled: true,
        }
    }

    /// Record a row; `source` and `text` are formatted only when the
    /// trace is enabled (a disabled trace never runs their `Display`).
    pub fn record(
        &mut self,
        time: SimTime,
        kind: TraceKind,
        source: fmt::Arguments<'_>,
        text: fmt::Arguments<'_>,
    ) {
        if self.enabled {
            self.rows.push(TraceRow {
                time,
                kind,
                source: source.to_string(),
                text: text.to_string(),
            });
        }
    }

    /// All recorded rows in order.
    pub fn rows(&self) -> &[TraceRow] {
        &self.rows
    }

    /// Render the trace as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let src_w = self
            .rows
            .iter()
            .map(|r| r.source.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for r in &self.rows {
            out.push_str(&format!(
                "{:>14}  {}  {:<w$}  {}\n",
                format!("{}", r.time),
                r.kind,
                r.source,
                r.text,
                w = src_w
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(
            SimTime::ZERO,
            TraceKind::Info,
            format_args!("n0"),
            format_args!("hello"),
        );
        assert!(t.rows().is_empty());
    }

    /// Formatting it is a bug: a disabled trace must never get that far.
    struct Unformattable;

    impl fmt::Display for Unformattable {
        fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
            panic!("a disabled trace formatted its arguments")
        }
    }

    #[test]
    fn disabled_trace_never_formats_its_arguments() {
        let mut t = Trace::disabled();
        t.record(
            SimTime::ZERO,
            TraceKind::Message,
            format_args!("{}", Unformattable),
            format_args!("FORWARD {} -> {}", Unformattable, Unformattable),
        );
        assert!(t.rows().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.record(
            SimTime::ZERO,
            TraceKind::Message,
            format_args!("n{}", 0),
            format_args!("FORWARD"),
        );
        t.record(
            SimTime::ZERO + SimDuration::from_micros(3),
            TraceKind::Quantum,
            format_args!("n1"),
            format_args!("SWAP"),
        );
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[0].text, "FORWARD");
    }

    #[test]
    fn render_contains_rows() {
        let mut t = Trace::enabled();
        t.record(
            SimTime::ZERO,
            TraceKind::Delivery,
            format_args!("alice"),
            format_args!("pair #{}", 1),
        );
        let s = t.render();
        assert!(s.contains("DLV"));
        assert!(s.contains("alice"));
        assert!(s.contains("pair #1"));
    }
}
