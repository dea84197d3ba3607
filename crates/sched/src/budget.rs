//! Deterministic work budgets for the exact scheduler.
//!
//! A [`Budget`] is a single pool of abstract *work units* shared across
//! every layer touched by one scheduling attempt (chaining-repair rounds,
//! and the lifts and augmenting paths of the difference-constraint solver
//! in [`crate::lift`]). Exhaustion is a typed error ([`Exhausted`]), so
//! callers can fall back to a cheaper algorithm instead of crashing.
//!
//! Work is counted, never timed: charges are a deterministic function of the
//! problem and the algorithm, so a budget-limited run produces the same
//! result on every machine and every repetition.

use std::cell::Cell;
use std::fmt;

/// One unit of charged solver work. Costs reflect the rough relative
/// expense of each step so a single limit governs all layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// One lazy-constraint repair round (a from-scratch re-solve with the
    /// added chain breakers).
    Round,
    /// One lift: raising the start times of an improving closed set by one.
    Lift,
    /// One augmenting path of the max-flow that finds the next lift.
    Augment,
}

impl WorkKind {
    /// The work-unit cost of one step of this kind.
    pub const fn cost(self) -> u64 {
        match self {
            WorkKind::Round => 256,
            WorkKind::Lift | WorkKind::Augment => 1,
        }
    }
}

impl fmt::Display for WorkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WorkKind::Round => "repair round",
            WorkKind::Lift => "lift",
            WorkKind::Augment => "augmenting path",
        })
    }
}

/// The budget ran out. Carries the accounting state at the point of
/// exhaustion for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// Work units spent when the charge failed.
    pub used: u64,
    /// The budget's limit.
    pub limit: u64,
    /// The kind of work whose charge could not be covered.
    pub at: WorkKind,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solver work budget exhausted at a {} ({} of {} units spent)",
            self.at, self.used, self.limit
        )
    }
}

impl std::error::Error for Exhausted {}

/// A deterministic pool of solver work units.
///
/// Shared by reference across solver layers; interior mutability keeps the
/// call signatures `&Budget` so one budget can thread through nested calls
/// (repair loop → lift solver) without plumbing `&mut`.
#[derive(Debug)]
pub struct Budget {
    limit: u64,
    used: Cell<u64>,
    /// Completed steps per kind (rounds, lifts, augmenting paths) — the
    /// solver metrics telemetry reads after a solve. A step whose charge
    /// failed is not counted: the counters describe work actually
    /// performed.
    counts: [Cell<u64>; 3],
}

impl Budget {
    /// The default limit, sized so that every well-formed scheduling
    /// problem solves far below it. Hitting it indicates a pathological
    /// problem, for which callers degrade gracefully.
    pub const DEFAULT_LIMIT: u64 = 4_000_000;

    /// Creates a budget with the given work-unit limit.
    pub fn new(limit: u64) -> Self {
        Budget {
            limit,
            used: Cell::new(0),
            counts: Default::default(),
        }
    }

    /// A budget that never exhausts.
    pub fn unlimited() -> Self {
        Budget::new(u64::MAX)
    }

    /// Charges one step of `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`Exhausted`] when the charge does not fit; the budget is
    /// left saturated at its limit so later charges also fail.
    pub fn charge(&self, kind: WorkKind) -> Result<(), Exhausted> {
        let used = self.used.get().saturating_add(kind.cost());
        if used > self.limit {
            self.used.set(self.limit);
            return Err(Exhausted {
                used: self.limit,
                limit: self.limit,
                at: kind,
            });
        }
        self.used.set(used);
        let c = &self.counts[kind as usize];
        c.set(c.get() + 1);
        Ok(())
    }

    /// Work units spent so far.
    pub fn used(&self) -> u64 {
        self.used.get()
    }

    /// Completed steps of `kind` charged so far (e.g. lifts).
    pub fn count(&self, kind: WorkKind) -> u64 {
        self.counts[kind as usize].get()
    }

    /// The configured limit.
    pub fn limit(&self) -> u64 {
        self.limit
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::new(Budget::DEFAULT_LIMIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_exhaust() {
        let b = Budget::new(WorkKind::Round.cost() + WorkKind::Lift.cost());
        assert!(b.charge(WorkKind::Round).is_ok());
        assert!(b.charge(WorkKind::Lift).is_ok());
        assert_eq!(b.used(), b.limit());
        let err = b.charge(WorkKind::Augment).unwrap_err();
        assert_eq!(err.limit, b.limit());
        assert_eq!(err.at, WorkKind::Augment);
    }

    #[test]
    fn per_kind_counters_track_completed_steps_only() {
        let b = Budget::new(WorkKind::Lift.cost() + 2 * WorkKind::Augment.cost());
        b.charge(WorkKind::Augment).unwrap();
        b.charge(WorkKind::Augment).unwrap();
        b.charge(WorkKind::Lift).unwrap();
        // This charge fails: it must not count as performed work.
        assert!(b.charge(WorkKind::Round).is_err());
        assert_eq!(b.count(WorkKind::Augment), 2);
        assert_eq!(b.count(WorkKind::Lift), 1);
        assert_eq!(b.count(WorkKind::Round), 0);
    }

    #[test]
    fn exhaustion_is_sticky() {
        let b = Budget::new(0);
        assert!(b.charge(WorkKind::Lift).is_err());
        assert!(b.charge(WorkKind::Round).is_err());
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge(WorkKind::Round).unwrap();
        }
        assert_eq!(b.used(), 10_000 * WorkKind::Round.cost());
    }

    #[test]
    fn display_is_informative() {
        let b = Budget::new(10);
        let err = b.charge(WorkKind::Round).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("budget exhausted"), "{msg}");
        assert!(msg.contains("repair round"), "{msg}");
    }
}
