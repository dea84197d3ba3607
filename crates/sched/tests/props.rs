//! Property-based tests: random scheduling problems through both
//! schedulers, and the exact lift solver against the general ILP solver
//! (`ilp`, simplex plus branch-and-bound) as the oracle.

use ilp::{Model, Sense, SolveError, VarId};
use proptest::prelude::*;
use sched::lift::{self, DiffSystem};
use sched::problem::{LongnailProblem, OperatorType, Schedule, ScheduleError};
use sched::{schedule_asap, schedule_ilp, Budget};

/// A random DAG: `n` operations, each with edges from a random subset of
/// earlier operations, random operator characteristics, and a random
/// cycle-time budget.
#[derive(Debug, Clone)]
struct RandomProblem {
    ops: Vec<(u32, u32, u32, Option<u32>)>, // (latency, delay_tenths, earliest, latest)
    edges: Vec<(usize, usize)>,
    cycle_tenths: u32,
}

fn random_problem() -> impl Strategy<Value = RandomProblem> {
    (2usize..=14).prop_flat_map(|n| {
        let ops = proptest::collection::vec(
            (
                0u32..=2,                       // latency
                0u32..=10,                      // delay in tenths
                0u32..=3,                       // earliest
                proptest::option::weighted(0.3, 4u32..=20), // latest
            ),
            n,
        );
        let edges = proptest::collection::vec((0usize..n, 0usize..n), 0..=2 * n).prop_map(
            move |pairs| {
                pairs
                    .into_iter()
                    .filter(|(a, b)| a < b) // acyclic by construction
                    .collect::<Vec<_>>()
            },
        );
        (ops, edges, 12u32..=40).prop_map(|(ops, edges, cycle_tenths)| RandomProblem {
            ops,
            edges,
            cycle_tenths,
        })
    })
}

fn build(rp: &RandomProblem) -> LongnailProblem {
    let mut p = LongnailProblem {
        cycle_time: rp.cycle_tenths as f64 / 10.0,
        ..LongnailProblem::default()
    };
    for (i, &(latency, delay_tenths, earliest, latest)) in rp.ops.iter().enumerate() {
        let delay = (delay_tenths as f64 / 10.0).min(rp.cycle_tenths as f64 / 10.0);
        let mut ot = OperatorType::sequential(&format!("t{i}"), latency, delay);
        ot.earliest = earliest;
        ot.latest = latest.map(|l| l.max(earliest));
        let tid = p.add_operator_type(ot);
        p.add_operation(&format!("op{i}"), tid);
    }
    for &(a, b) in &rp.edges {
        p.add_dependence(
            sched::problem::OperationId(a),
            sched::problem::OperationId(b),
        );
    }
    p
}

fn objective(p: &LongnailProblem, s: &Schedule) -> u64 {
    let starts: u64 = s.start_time.iter().map(|&t| t as u64).sum();
    let lifetimes: u64 = p
        .dependences
        .iter()
        .map(|d| (s.start_time[d.to.0] - s.start_time[d.from.0]) as u64)
        .sum();
    starts + lifetimes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whenever the ILP finds a schedule, it satisfies all three constraint
    /// levels of Table 2.
    #[test]
    fn ilp_schedules_verify(rp in random_problem()) {
        let mut p = build(&rp);
        if let Ok(s) = schedule_ilp(&mut p) {
            p.verify(&s).unwrap();
        }
    }

    /// ASAP solutions also verify, and the ILP is never worse on the
    /// Figure 7 objective.
    #[test]
    fn ilp_objective_never_worse_than_asap(rp in random_problem()) {
        let mut p_asap = build(&rp);
        let mut p_ilp = build(&rp);
        // Chain breakers are part of the ILP model; give ASAP the same
        // problem (it handles chaining natively).
        #[allow(clippy::single_match)]
        match (schedule_asap(&mut p_asap), schedule_ilp(&mut p_ilp)) {
            (Ok(a), Ok(i)) => {
                p_asap.verify(&a).unwrap();
                p_ilp.verify(&i).unwrap();
                // The initial breakers are satisfied by the ASAP schedule
                // (they are derived from the same timeline), so the ILP can
                // only be worse when the lazy repair loop added further
                // breakers — constraints ASAP never faced. Compare only
                // when no repair happened.
                let mut p_initial = build(&rp);
                sched::chain::compute_chain_breakers(&mut p_initial).unwrap();
                if p_ilp.chain_breakers.len() == p_initial.chain_breakers.len() {
                    prop_assert!(
                        objective(&p_ilp, &i) <= objective(&p_asap, &a),
                        "ILP {} vs ASAP {}",
                        objective(&p_ilp, &i),
                        objective(&p_asap, &a)
                    );
                }
            }
            // Feasibility may legitimately differ: ASAP is greedy and can
            // miss schedules that require delaying early ops, and chain
            // breakers add constraints ASAP does not have. Either solver
            // failing alone is acceptable; both failing is fine too.
            _ => {}
        }
    }

    /// Makespan lower bound: no schedule beats the critical path.
    #[test]
    fn makespan_respects_critical_path(rp in random_problem()) {
        let mut p = build(&rp);
        if let Ok(s) = schedule_ilp(&mut p) {
            // Longest path in whole cycles (latencies only).
            let n = p.operations.len();
            let mut dist = vec![0u32; n];
            // Edges only go from lower to higher index, so processing them
            // sorted by source is a topological relaxation.
            let mut deps = p.dependences.clone();
            deps.sort_by_key(|d| d.from.0);
            for d in &deps {
                let lat = p.lot(d.from).latency;
                let v = dist[d.from.0] + lat;
                if v > dist[d.to.0] {
                    dist[d.to.0] = v;
                }
            }
            for (i, &d) in dist.iter().enumerate() {
                prop_assert!(
                    s.start_time[i] >= d.max(p.lot(sched::problem::OperationId(i)).earliest)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Resilience: an arbitrarily tiny work budget never panics. The
    /// outcome either verifies against every Table 2 constraint level
    /// (exact or degraded), or the problem is genuinely infeasible — in
    /// which case the ASAP fallback on a fresh copy fails too.
    #[test]
    fn tiny_budget_never_panics_and_fallback_verifies(
        rp in random_problem(),
        limit in 0u64..300,
    ) {
        let mut p = build(&rp);
        match sched::schedule_resilient(&mut p, &sched::Budget::new(limit)) {
            Ok(out) => {
                p.verify(&out.schedule).unwrap();
                if let Some(d) = &out.degradation {
                    prop_assert!(d.work_used <= d.work_limit);
                }
            }
            Err(_) => {
                let mut fresh = build(&rp);
                let fallback = schedule_asap(&mut fresh)
                    .and_then(|s| fresh.verify(&s).map(|_| s));
                prop_assert!(
                    fallback.is_err(),
                    "resilient errored on a problem the fallback solves"
                );
            }
        }
    }

    /// No happy-path change: with the default budget the resilient facade
    /// takes the exact path and returns the identical schedule to the
    /// plain ILP entry point.
    #[test]
    fn default_budget_matches_exact_schedule(rp in random_problem()) {
        let mut p_exact = build(&rp);
        let mut p_res = build(&rp);
        let exact = schedule_ilp(&mut p_exact);
        let resilient = sched::schedule_resilient(&mut p_res, &sched::Budget::default());
        match (exact, resilient) {
            (Ok(a), Ok(out)) => {
                prop_assert!(out.is_exact());
                prop_assert_eq!(&a.start_time, &out.schedule.start_time);
                prop_assert_eq!(
                    &a.start_time_in_cycle,
                    &out.schedule.start_time_in_cycle
                );
            }
            // The ILP can be infeasible (breaker over-constraint) where the
            // fallback still finds a valid schedule; that is a degradation.
            (Err(_), Ok(out)) => prop_assert!(!out.is_exact()),
            (Ok(_), Err(e)) => prop_assert!(
                false,
                "resilient failed where exact succeeded: {}",
                e
            ),
            (Err(_), Err(_)) => {}
        }
    }
}

// ---- the lift solver against the ILP oracle ----

/// The oracle's verdict on one model: the optimal objective and the least
/// optimum (the componentwise-earliest optimal start times).
type Verdict = Result<(i128, Vec<i64>), SolveError>;

/// Solves the model twice with the general ILP solver: once for the
/// optimal objective, then for the least optimum — minimize `Σ t` subject
/// to the objective staying at its optimum. The optimal set of a
/// difference system is closed under componentwise minimum, so that
/// minimizer is unique. `constraints` carries no objective yet.
fn least_optimum(constraints: &Model, objective: &[(VarId, i64)], t: &[VarId]) -> Verdict {
    let mut first = constraints.clone();
    for &(v, c) in objective {
        first.obj(v, c);
    }
    let opt = first.solve()?.objective.to_integer();
    let mut least = constraints.clone();
    least.constraint_eq(objective, opt as i64);
    for &v in t {
        least.obj(v, 1);
    }
    let sol = least.solve()?;
    Ok((opt, t.iter().map(|&v| sol.value(v) as i64).collect()))
}

/// The literal Figure 7 model of `p` (with its current chain breakers):
/// start times and lifetimes, `minimize Σ t + Σ l`.
fn figure7_oracle(p: &LongnailProblem) -> Verdict {
    let mut m = Model::new(Sense::Minimize);
    let mut objective = Vec::new();
    let t: Vec<_> = p
        .operations
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let v = m.int_var(&format!("t{i}"));
            let ot = &p.operator_types[op.operator_type.0];
            m.set_lower(v, ot.earliest as i64);
            if let Some(latest) = ot.latest {
                m.set_upper(v, latest as i64);
            }
            objective.push((v, 1));
            v
        })
        .collect();
    for (k, d) in p.dependences.iter().enumerate() {
        let latency = p.lot(d.from).latency as i64;
        m.constraint_le(&[(t[d.from.0], 1), (t[d.to.0], -1)], -latency); // C1
        let l = m.int_var(&format!("l{k}"));
        m.constraint_ge(&[(l, 1), (t[d.to.0], -1), (t[d.from.0], 1)], 0); // C2
        objective.push((l, 1));
    }
    for d in &p.chain_breakers {
        let latency = p.lot(d.from).latency as i64;
        m.constraint_le(&[(t[d.from.0], 1), (t[d.to.0], -1)], -(latency + 1)); // C5
    }
    least_optimum(&m, &objective, &t)
}

/// A difference system with arbitrary weights, mirroring the
/// lazy-constraint loop: a DAG of `t_j - t_i >= latency` arcs, plus
/// breaker-style arcs added one round at a time. Windows are often tight,
/// so a good share of the systems is infeasible.
#[derive(Debug, Clone)]
struct DiffModel {
    n: usize,
    weights: Vec<i64>,
    /// `(lower, upper)` per variable; upper is at most [`UPPER`].
    windows: Vec<(i64, i64)>,
    /// Base arcs `(i, j, latency)`, i < j.
    edges: Vec<(usize, usize, i64)>,
    /// Arcs added in later rounds, one each.
    extra: Vec<(usize, usize, i64)>,
}

const UPPER: i64 = 50;

/// Normalizes a raw (a, b) pair into a forward edge i < j over n nodes.
fn forward_edge(n: usize, a: usize, b: usize) -> Option<(usize, usize)> {
    let (i, j) = (a % n, b % n);
    match i.cmp(&j) {
        std::cmp::Ordering::Less => Some((i, j)),
        std::cmp::Ordering::Greater => Some((j, i)),
        std::cmp::Ordering::Equal => None,
    }
}

fn diff_model() -> impl Strategy<Value = DiffModel> {
    (2usize..=8).prop_flat_map(|n| {
        (
            proptest::collection::vec(-2i64..=3, n),
            proptest::collection::vec(
                (0i64..=4, proptest::option::weighted(0.6, 0i64..=6)),
                n,
            ),
            proptest::collection::vec((0usize..64, 0usize..64, 0i64..=3), 0..=8),
            proptest::collection::vec((0usize..64, 0usize..64, 1i64..=4), 1..=3),
        )
            .prop_map(move |(weights, raw_windows, raw_edges, raw_extra)| {
                let forward = |raw: Vec<(usize, usize, i64)>| {
                    raw.into_iter()
                        .filter_map(|(a, b, l)| forward_edge(n, a, b).map(|(i, j)| (i, j, l)))
                        .collect()
                };
                DiffModel {
                    n,
                    weights,
                    windows: raw_windows
                        .into_iter()
                        .map(|(lo, span)| (lo, span.map_or(UPPER, |s| lo + s)))
                        .collect(),
                    edges: forward(raw_edges),
                    extra: forward(raw_extra),
                }
            })
    })
}

/// The system after `rounds` added arcs, as the lift solver's input and as
/// an oracle model.
fn diff_system(m: &DiffModel, rounds: usize) -> DiffSystem {
    DiffSystem {
        lower: m.windows.iter().map(|w| w.0).collect(),
        upper: m.windows.iter().map(|w| Some(w.1)).collect(),
        weight: m.weights.clone(),
        arcs: m.edges.iter().chain(&m.extra[..rounds]).copied().collect(),
    }
}

fn diff_oracle(sys: &DiffSystem) -> Verdict {
    let mut m = Model::new(Sense::Minimize);
    let t: Vec<_> = (0..sys.weight.len())
        .map(|i| {
            let v = m.int_var(&format!("t{i}"));
            m.set_lower(v, sys.lower[i]);
            if let Some(upper) = sys.upper[i] {
                m.set_upper(v, upper);
            }
            v
        })
        .collect();
    for &(i, j, lat) in &sys.arcs {
        m.constraint_le(&[(t[i], 1), (t[j], -1)], -lat);
    }
    let objective: Vec<_> = t.iter().copied().zip(sys.weight.iter().copied()).collect();
    least_optimum(&m, &objective, &t)
}

/// Checks one lift-solver outcome against the oracle's verdict.
fn agree(
    got: Result<Vec<i64>, ScheduleError>,
    objective: impl Fn(&[i64]) -> i128,
    oracle: Verdict,
) -> Result<(), TestCaseError> {
    match (got, oracle) {
        (Ok(t), Ok((opt, least))) => {
            prop_assert_eq!(objective(&t), opt, "objective differs from the oracle's");
            prop_assert_eq!(t, least, "not the oracle's least optimum");
        }
        (Err(ScheduleError::Infeasible(_)), Err(SolveError::Infeasible)) => {}
        (got, oracle) => prop_assert!(false, "lift {got:?} vs oracle {oracle:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On the scheduler's own problems, the exact schedule is the Figure 7
    /// oracle's least optimum over the final breaker set, and both agree
    /// on infeasibility.
    #[test]
    fn ilp_schedule_is_the_oracles_least_optimum(rp in random_problem()) {
        let mut p = build(&rp);
        let got = schedule_ilp(&mut p).map(|s| {
            s.start_time.iter().map(|&t| i64::from(t)).collect::<Vec<_>>()
        });
        // A chaining violation the repair loop cannot fix (a sequential
        // operator's outgoing delay plus its consumer's delay) is caught
        // by the final verification, which Figure 7 does not model.
        prop_assume!(!matches!(got, Err(ScheduleError::Violation(_))));
        let figure7_objective = |t: &[i64]| {
            let s = Schedule {
                start_time: t.iter().map(|&v| v as u32).collect(),
                start_time_in_cycle: Vec::new(),
            };
            i128::from(objective(&p, &s))
        };
        agree(got, figure7_objective, figure7_oracle(&p))?;
    }

    /// On difference systems with arbitrary weights, every round (each a
    /// from-scratch solve with one more arc) matches the oracle.
    #[test]
    fn lift_matches_the_oracle_on_difference_systems(m in diff_model()) {
        let order: Vec<usize> = (0..m.n).collect();
        for rounds in 0..=m.extra.len() {
            let sys = diff_system(&m, rounds);
            let got = lift::solve(&sys, &order, &Budget::unlimited());
            let objective = |t: &[i64]| {
                t.iter().zip(&sys.weight).map(|(&x, &w)| i128::from(x * w)).sum()
            };
            agree(got, objective, diff_oracle(&sys))?;
        }
    }

    /// Under every budget below what a solve needed, the lift solver fails
    /// with a typed exhaustion error carrying that limit — never a panic,
    /// never a wrong answer.
    #[test]
    fn lift_survives_budget_exhaustion(m in diff_model()) {
        let order: Vec<usize> = (0..m.n).collect();
        let sys = diff_system(&m, m.extra.len());
        let full = Budget::unlimited();
        prop_assume!(lift::solve(&sys, &order, &full).is_ok());
        let needed = full.used();
        for limit in [0, needed / 2, needed.saturating_sub(1)] {
            if limit >= needed {
                continue;
            }
            match lift::solve(&sys, &order, &Budget::new(limit)) {
                Err(ScheduleError::Exhausted(e)) => prop_assert_eq!(e.limit, limit),
                other => prop_assert!(false, "limit {limit}: unexpected {other:?}"),
            }
        }
    }
}
