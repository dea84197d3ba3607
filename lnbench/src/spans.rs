//! The traced run's span recorder. Spans are kept in memory as folded
//! stacks (`root;child;leaf` → self nanoseconds) and written out when the
//! run ends. The benchmark opens spans around its own calls into the
//! program; [`Recorder::import`] grafts the spans a compilation recorded
//! in its own trace below the benchmark span that timed the call.

use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::{EventKind, Trace};

struct Open {
    path: String,
    start: Instant,
    child_ns: u64,
}

/// Folded-stack span recorder for one thread.
#[derive(Default)]
pub struct Recorder {
    folded: BTreeMap<String, u64>,
    open: Vec<Open>,
}

impl Recorder {
    fn path_of(&self, name: &str) -> String {
        match self.open.last() {
            Some(parent) => format!("{};{name}", parent.path),
            None => name.to_string(),
        }
    }

    /// Opens a span named `name` below the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let path = self.path_of(name);
        self.open.push(Open {
            path,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost span and returns its duration in nanoseconds.
    pub fn exit(&mut self) -> u64 {
        let span = self.open.pop().expect("exit without a matching enter");
        let dur = nanos(span.start);
        self.add_closed(span.path, dur, span.child_ns);
        dur
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name);
        let out = f();
        let dur = self.exit();
        (out, dur)
    }

    /// Records a span of known duration (measured elsewhere, for example
    /// on a worker thread) below the innermost open span.
    pub fn leaf(&mut self, name: &str, dur_ns: u64) {
        let path = self.path_of(name);
        self.add_closed(path, dur_ns, 0);
    }

    /// Grafts every span of a program trace below the span `under`, a
    /// just-closed child of the innermost open span, with each span's self
    /// time (its duration minus its children's). The grafted roots' time
    /// leaves `under`'s self time.
    pub fn import(&mut self, under: &str, trace: &Trace) {
        let mut spans: BTreeMap<u64, (Option<u64>, String, u64)> = BTreeMap::new();
        for e in &trace.events {
            match &e.kind {
                EventKind::SpanStart {
                    id, parent, name, ..
                } => {
                    spans.insert(id.0, (parent.map(|p| p.0), name.clone(), 0));
                }
                EventKind::SpanEnd { id, dur_ns } => {
                    if let Some(s) = spans.get_mut(&id.0) {
                        s.2 = *dur_ns;
                    }
                }
                _ => {}
            }
        }
        let base = self.path_of(under);
        let path = |mut id: u64| {
            let mut names = Vec::new();
            loop {
                let (parent, name, _) = &spans[&id];
                names.push(name.as_str());
                match parent {
                    Some(p) if spans.contains_key(p) => id = *p,
                    _ => break,
                }
            }
            names.reverse();
            format!("{base};{}", names.join(";"))
        };
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        let mut roots_ns = 0;
        for (parent, _, dur) in spans.values() {
            match parent {
                Some(p) if spans.contains_key(p) => *child_ns.entry(*p).or_default() += dur,
                _ => roots_ns += dur,
            }
        }
        for (&id, (_, _, dur)) in &spans {
            let children = child_ns.get(&id).copied().unwrap_or(0);
            *self.folded.entry(path(id)).or_default() += dur.saturating_sub(children);
        }
        let own = self.folded.entry(base).or_default();
        *own = own.saturating_sub(roots_ns);
    }

    fn add_closed(&mut self, path: String, dur: u64, child_ns: u64) {
        // Children that ran in parallel can add up to more than their
        // parent's wall time; the parent's self time then counts as 0.
        *self.folded.entry(path).or_default() += dur.saturating_sub(child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Adds another thread's spans into this recorder.
    pub fn merge(&mut self, other: Recorder) {
        assert!(other.open.is_empty(), "merging a recorder with open spans");
        for (path, ns) in other.folded {
            *self.folded.entry(path).or_default() += ns;
        }
    }

    /// The folded stacks, one `path self_ns` line each.
    pub fn folded(&self) -> String {
        assert!(self.open.is_empty(), "rendering a recorder with open spans");
        self.folded
            .iter()
            .filter(|(_, &ns)| ns > 0)
            .map(|(path, ns)| format!("{path} {ns}\n"))
            .collect()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far, in nanoseconds: by the whole process (all
/// threads, including finished ones) or by the calling thread.
pub fn cpu_ns(process: bool) -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let clock = if process {
        CLOCK_PROCESS_CPUTIME_ID
    } else {
        CLOCK_THREAD_CPUTIME_ID
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

/// Nanoseconds since `start`.
pub fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::Telemetry;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::default();
        rec.enter("req");
        rec.leaf("work", 5_000_000_000);
        rec.exit();
        let folded = rec.folded();
        assert!(folded.contains("req;work 5000000000\n"), "{folded}");
        // The parent ran far shorter than its reported child: self time 0.
        assert!(!folded.contains("req "), "{folded}");
    }

    #[test]
    fn imported_traces_nest_below_the_open_span() {
        let mut tel = Telemetry::new();
        let root = tel.start_span("compile");
        let unit = tel.start_span("unit");
        let solve = tel.start_span("solve");
        tel.end_span(solve);
        tel.end_span(unit);
        tel.end_span(root);
        let trace = tel.finish();
        let mut rec = Recorder::default();
        rec.enter("w");
        rec.leaf("cells", u64::MAX / 4);
        rec.import("cells", &trace);
        rec.exit();
        let mut other = Recorder::default();
        other.leaf("cells", 1);
        other.import("cells", &trace);
        rec.merge(other);
        let paths: Vec<&str> = rec.folded.keys().map(String::as_str).collect();
        for want in [
            "w;cells",
            "w;cells;compile",
            "w;cells;compile;unit",
            "w;cells;compile;unit;solve",
            "cells;compile;unit;solve",
        ] {
            assert!(paths.contains(&want), "{want} missing from {paths:?}");
        }
    }
}
