//! Structured compilation diagnostics.
//!
//! The driver accumulates warnings, degradation notices, and per-unit
//! errors in a [`Diagnostics`] sink instead of aborting on the first
//! problem: one broken instruction costs that instruction, not the ISAX.
//! Every event carries the flow stage that raised it, the instruction or
//! `always`-block it refers to (when unit-local), and — where the frontend
//! provided one — the source [`Span`] of the offending definition.

use coredsl::error::Span;
use std::fmt;

/// How bad a diagnostic event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Compilation succeeded but with a caveat (e.g. a scheduler
    /// degradation). Exit code 0.
    Warning,
    /// A unit failed to compile; the rest of the ISAX is unaffected.
    /// Exit code 1.
    Error,
    /// An internal invariant was violated (IR verifier, netlist lint, or a
    /// contained panic) — a compiler bug, not a user error. Exit code 2.
    Fault,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::Fault => "internal fault",
        })
    }
}

/// One diagnostic event with stage and source provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagEvent {
    pub severity: Severity,
    /// Flow stage that raised the event (`frontend`, `lower`, `verify`,
    /// `schedule`, `netlist`, ...).
    pub stage: &'static str,
    /// Instruction / always-block name, when unit-local.
    pub unit: Option<String>,
    /// Source location of the offending definition, when known.
    pub span: Option<Span>,
    /// Telemetry span (by raw id) that was open when the event fired, so
    /// trace consumers can line diagnostics up with pipeline stages.
    pub trace_span: Option<u64>,
    /// Stable machine-readable code (`LN0xxx`), when the frontend
    /// assigned one.
    pub code: Option<&'static str>,
    /// Suggested fix, when the frontend provided one.
    pub fixit: Option<String>,
    pub message: String,
}

impl fmt::Display for DiagEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.stage)?;
        if let Some(unit) = &self.unit {
            write!(f, " `{unit}`")?;
        }
        if let Some(span) = &self.span {
            write!(f, " at {span}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(code) = self.code {
            write!(f, " [{code}]")?;
        }
        if let Some(fixit) = &self.fixit {
            write!(f, "; help: {fixit}")?;
        }
        Ok(())
    }
}

/// Accumulating diagnostics sink for one compilation.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// All events, in the order they were raised.
    pub events: Vec<DiagEvent>,
    /// Telemetry span stamped onto events as they are recorded; the
    /// driver keeps this aligned with the span it is currently inside.
    current_trace_span: Option<u64>,
}

impl Diagnostics {
    /// Sets the telemetry span subsequently recorded events link to.
    pub fn set_trace_span(&mut self, span: Option<u64>) {
        self.current_trace_span = span;
    }

    /// Records an event.
    pub fn push(
        &mut self,
        severity: Severity,
        stage: &'static str,
        unit: Option<&str>,
        span: Option<Span>,
        message: impl Into<String>,
    ) {
        self.events.push(DiagEvent {
            severity,
            stage,
            unit: unit.map(str::to_owned),
            span,
            trace_span: self.current_trace_span,
            code: None,
            fixit: None,
            message: message.into(),
        });
    }

    /// Records a fully built event (used for frontend diagnostics that
    /// carry codes and fix-its), re-stamping its trace span.
    pub fn push_event(&mut self, mut event: DiagEvent) {
        event.trace_span = self.current_trace_span;
        self.events.push(event);
    }

    /// Records a warning.
    pub fn warn(
        &mut self,
        stage: &'static str,
        unit: Option<&str>,
        span: Option<Span>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Warning, stage, unit, span, message);
    }

    /// Records a unit-level error.
    pub fn error(
        &mut self,
        stage: &'static str,
        unit: Option<&str>,
        span: Option<Span>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Error, stage, unit, span, message);
    }

    /// Records an internal fault.
    pub fn fault(
        &mut self,
        stage: &'static str,
        unit: Option<&str>,
        span: Option<Span>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Fault, stage, unit, span, message);
    }

    /// Re-records previously captured events — e.g. the core-independent
    /// lowering diagnostics the pipeline's `frontend` stage caches —
    /// re-stamping each with the currently active trace span so replayed
    /// events link into *this* compilation's trace, not the one they were
    /// first raised in.
    pub fn replay(&mut self, events: &[DiagEvent]) {
        for e in events {
            self.push_event(e.clone());
        }
    }

    /// Worst severity recorded, if any event exists.
    pub fn worst(&self) -> Option<Severity> {
        self.events.iter().map(|e| e.severity).max()
    }

    pub fn has_errors(&self) -> bool {
        self.worst() >= Some(Severity::Error)
    }

    pub fn has_faults(&self) -> bool {
        self.worst() == Some(Severity::Fault)
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one severity.
    pub fn of(&self, severity: Severity) -> impl Iterator<Item = &DiagEvent> {
        self.events.iter().filter(move |e| e.severity == severity)
    }

    /// Renders the full report, one event per line, with a trailing
    /// summary when anything was recorded.
    ///
    /// Events are rendered in a deterministic order — pipeline stage,
    /// then unit, then source span — *not* raise order, which varies
    /// with `--jobs N` interleaving. Identical cascaded events (same
    /// everything but the trace span) collapse into one line with a
    /// repeat count; the summary still counts every raw event.
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let mut sorted: Vec<&DiagEvent> = self.events.iter().collect();
        sorted.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
        let mut i = 0;
        while i < sorted.len() {
            let e = sorted[i];
            let mut n = 1;
            while i + n < sorted.len() && same_event(e, sorted[i + n]) {
                n += 1;
            }
            let _ = if n == 1 {
                writeln!(out, "{e}")
            } else {
                writeln!(out, "{e} (x{n})")
            };
            i += n;
        }
        if !self.events.is_empty() {
            let counts = [Severity::Fault, Severity::Error, Severity::Warning]
                .iter()
                .filter_map(|&s| {
                    let n = self.of(s).count();
                    (n > 0).then(|| format!("{n} {s}{}", if n == 1 { "" } else { "(s)" }))
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "{counts}");
        }
        out
    }
}

/// Rank of a stage in the pipeline; ad-hoc stage names (`schedule`,
/// `verify`, ...) sort after the telemetry pipeline stages, then
/// alphabetically.
fn stage_rank(stage: &str) -> usize {
    telemetry::STAGES
        .iter()
        .position(|s| *s == stage)
        .unwrap_or(telemetry::STAGES.len())
}

type SortKey<'a> = (
    usize,
    &'a str,
    &'a Option<String>,
    Option<(u32, u32)>,
    Severity,
    &'a str,
);

fn sort_key(e: &DiagEvent) -> SortKey<'_> {
    (
        stage_rank(e.stage),
        e.stage,
        &e.unit,
        e.span.map(|s| (s.line, s.col)),
        e.severity,
        &e.message,
    )
}

/// Event identity for de-duplication: everything except the trace span,
/// which legitimately differs between cascaded copies of one error.
fn same_event(a: &DiagEvent, b: &DiagEvent) -> bool {
    a.severity == b.severity
        && a.stage == b.stage
        && a.unit == b.unit
        && a.span == b.span
        && a.code == b.code
        && a.fixit == b.fixit
        && a.message == b.message
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_ordering_drives_worst() {
        let mut d = Diagnostics::default();
        assert_eq!(d.worst(), None);
        assert!(!d.has_errors());
        d.warn("schedule", Some("sqrt"), None, "degraded to ASAP");
        assert_eq!(d.worst(), Some(Severity::Warning));
        assert!(!d.has_errors());
        d.error("lower", Some("bad"), Some(Span::new(3, 1)), "dynamic loop");
        assert_eq!(d.worst(), Some(Severity::Error));
        assert!(d.has_errors());
        assert!(!d.has_faults());
        d.fault("verify", None, None, "operand width mismatch");
        assert!(d.has_faults());
    }

    #[test]
    fn events_link_to_the_current_trace_span() {
        let mut d = Diagnostics::default();
        d.warn("schedule", None, None, "before any span");
        d.set_trace_span(Some(7));
        d.warn("schedule", Some("sqrt"), None, "inside unit span");
        d.set_trace_span(None);
        d.error("lower", None, None, "after");
        assert_eq!(d.events[0].trace_span, None);
        assert_eq!(d.events[1].trace_span, Some(7));
        assert_eq!(d.events[2].trace_span, None);
    }

    #[test]
    fn rendering_includes_provenance() {
        let mut d = Diagnostics::default();
        d.error("lower", Some("bad"), Some(Span::new(3, 7)), "dynamic loop");
        let report = d.render();
        assert!(report.contains("error[lower]"), "{report}");
        assert!(report.contains("`bad`"), "{report}");
        assert!(report.contains("3:7"), "{report}");
        assert!(report.contains("1 error"), "{report}");
    }

    #[test]
    fn rendering_shows_codes_and_fixits() {
        let mut d = Diagnostics::default();
        d.push_event(DiagEvent {
            severity: Severity::Error,
            stage: "frontend",
            unit: Some("bad".into()),
            span: Some(Span::new(2, 4)),
            trace_span: None,
            code: Some("LN0304"),
            fixit: Some("use an explicit cast".into()),
            message: "lossy conversion".into(),
        });
        let report = d.render();
        assert!(report.contains("[LN0304]"), "{report}");
        assert!(report.contains("help: use an explicit cast"), "{report}");
    }

    #[test]
    fn render_order_is_deterministic_not_raise_order() {
        // Raise events in two different orders; the report must come out
        // identical (stage rank, then unit, then span).
        let mut a = Diagnostics::default();
        a.error("rtl", Some("zeta"), None, "late stage");
        a.warn("frontend", Some("alpha"), Some(Span::new(9, 1)), "early");
        a.warn("frontend", Some("alpha"), Some(Span::new(2, 1)), "earlier");
        let mut b = Diagnostics::default();
        b.warn("frontend", Some("alpha"), Some(Span::new(2, 1)), "earlier");
        b.error("rtl", Some("zeta"), None, "late stage");
        b.warn("frontend", Some("alpha"), Some(Span::new(9, 1)), "early");
        assert_eq!(a.render(), b.render());
        let report = a.render();
        let fe = report.find("earlier").unwrap();
        let rtl = report.find("late stage").unwrap();
        assert!(fe < rtl, "frontend events must precede rtl ones: {report}");
    }

    #[test]
    fn identical_cascaded_events_are_deduplicated() {
        let mut d = Diagnostics::default();
        for trace in [Some(1), Some(2), None] {
            d.set_trace_span(trace);
            d.error("lower", Some("u"), Some(Span::new(1, 1)), "same problem");
        }
        let report = d.render();
        assert_eq!(report.matches("same problem").count(), 1, "{report}");
        assert!(report.contains("(x3)"), "{report}");
        assert!(report.contains("3 error(s)"), "{report}");
    }
}
