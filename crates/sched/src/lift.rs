//! An exact integer solver for difference systems: the least optimal
//! schedule of Figure 7 by unit lifts of minimum closed sets.
//!
//! After the lifetime terms are folded into the objective (see
//! [`crate::ilp_sched`]), the Figure 7 ILP is a pure difference system —
//! the SDC formulation (Cong & Zhang, DAC 2006) that CIRCT's scheduler
//! also uses:
//!
//! ```text
//! minimize   Σ w_i t_i
//! s.t.       t_j − t_i ≥ c          for every arc i → j  (C1, C5)
//!            lower_i ≤ t_i ≤ upper_i                    (C3, C4)
//! ```
//!
//! with integer `w`, `c` and bounds. The constraint matrix is totally
//! unimodular, so no general LP solver is needed. [`solve`] returns the
//! **least optimum**, the componentwise-earliest optimal schedule, in
//! `i64` arithmetic throughout:
//!
//! 1. Start at the least feasible point `x`: longest paths from the lower
//!    bounds over the arcs, in topological order. If it exceeds an upper
//!    bound, no feasible point exists.
//! 2. Build the closure network: `source → i` with capacity `−w_i` for
//!    `w_i < 0`, `i → sink` with capacity `w_i` for `w_i > 0`, and
//!    infinite `i → j` for every *tight* arc (`x_j − x_i = c`) and
//!    infinite `i → sink` for every variable at its upper bound. A source
//!    side `S` of a finite cut is exactly a set whose lift `x + 1_S` stays
//!    feasible, and the cut's capacity is `w(S)` plus a constant.
//! 3. Take the minimal minimum cut — the nodes reachable from the source
//!    in the residual graph of a maximum flow. If `w(S) < 0`, lift: add 1
//!    to the start times in `S` and repeat from 2. Otherwise `x` is
//!    optimal.
//!
//! This is steepest descent on an L♮-convex function (Murota, *Discrete
//! Convex Analysis*). Feasible points are closed under componentwise
//! `∧`/`∨` and under adding a constant, which gives the proof:
//!
//! - **The result is the least optimum.** Let `x*` be the least optimum,
//!   `x ≤ x*` an iterate with `x ≠ x*`, and `D = {i : x_i < x*_i}`. The
//!   point `x* − 1_D = x ∨ (x* − 1)` is feasible and below `x*`, so it is
//!   not optimal: `w(D) < 0`. As `x + 1_D = (x + 1) ∧ x*` is feasible, `D`
//!   is an improving liftable set, so the loop does not stop early. The
//!   minimal minimizing set `S` stays inside `D`: otherwise `S ∩ D` is
//!   liftable and, `S` being minimal, `w(S ∩ D) > w(S)`, so
//!   `w(S \ D) < 0`; then `max(x*, x + 1_S) = x* + 1_{S \ D}` is feasible
//!   and beats `x*`. So every lift keeps `x ≤ x*`, and at `x = x*` no
//!   improving set exists.
//! - **It terminates.** For the Figure 7 weights `w_i = 1 + indeg_i −
//!   outdeg_i`, a nonempty set closed under all dependences has weight
//!   `|S| + (dependences entering S) > 0`, so the objective is bounded
//!   below and an optimum exists; each lift raises `Σ x` towards `Σ x*`.
//!   For arbitrary weights the caller's [`Budget`] bounds the descent.
//!
//! Work is charged against the [`Budget`]: one [`WorkKind::Augment`] per
//! augmenting path and one [`WorkKind::Lift`] per lift.

use crate::budget::{Budget, WorkKind};
use crate::problem::ScheduleError;
use std::collections::VecDeque;

/// A difference system over integer variables, minimized by [`solve`].
#[derive(Debug, Clone)]
pub struct DiffSystem {
    /// Lower bound per variable.
    pub lower: Vec<i64>,
    /// Upper bound per variable, `None` when unbounded above.
    pub upper: Vec<Option<i64>>,
    /// Objective weight per variable (the objective is `Σ weight_i t_i`).
    pub weight: Vec<i64>,
    /// Arcs `(i, j, c)`, each requiring `t_j − t_i ≥ c`.
    pub arcs: Vec<(usize, usize, i64)>,
}

/// Capacity of the closure arcs; far above any finite cut.
const INF: i64 = i64::MAX / 4;

/// Returns the least optimum of `sys`. `order` must be a topological order
/// of the variables under `sys.arcs`.
///
/// # Errors
///
/// Returns [`ScheduleError::Infeasible`] when no point satisfies the bounds
/// and arcs, and [`ScheduleError::Exhausted`] when `budget` runs out.
pub fn solve(
    sys: &DiffSystem,
    order: &[usize],
    budget: &Budget,
) -> Result<Vec<i64>, ScheduleError> {
    let n = sys.lower.len();
    let mut succs: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    for &(i, j, c) in &sys.arcs {
        succs[i].push((j, c));
    }
    let mut x = sys.lower.clone();
    for &i in order {
        for &(j, c) in &succs[i] {
            x[j] = x[j].max(x[i] + c);
        }
    }
    if x.iter()
        .zip(&sys.upper)
        .any(|(&v, u)| u.is_some_and(|u| v > u))
    {
        return Err(ScheduleError::Infeasible(
            "no schedule satisfies the interface windows and precedence constraints".into(),
        ));
    }
    let (source, sink) = (n, n + 1);
    loop {
        let mut net = Network::new(n + 2);
        for (i, &w) in sys.weight.iter().enumerate() {
            if w < 0 {
                net.edge(source, i, -w);
            } else if w > 0 {
                net.edge(i, sink, w);
            }
            if sys.upper[i] == Some(x[i]) {
                net.edge(i, sink, INF);
            }
        }
        for &(i, j, c) in &sys.arcs {
            if x[j] - x[i] == c {
                net.edge(i, j, INF);
            }
        }
        let lift = net.min_cut_side(source, sink, budget)?;
        // The objective change of lifting the set; no lift improves `x`
        // when even the minimum one does not.
        let change: i64 = (0..n).filter(|&i| lift[i]).map(|i| sys.weight[i]).sum();
        if change >= 0 {
            return Ok(x);
        }
        budget
            .charge(WorkKind::Lift)
            .map_err(ScheduleError::Exhausted)?;
        for (v, &up) in x.iter_mut().zip(&lift) {
            if up {
                *v += 1;
            }
        }
    }
}

/// A residual flow network; edge `e ^ 1` is the reverse of edge `e`.
struct Network {
    adj: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<i64>,
    /// Each node's entering edge on the last BFS tree; the source holds
    /// the sentinel `usize::MAX`.
    parent: Vec<Option<usize>>,
    queue: VecDeque<usize>,
}

impl Network {
    fn new(nodes: usize) -> Self {
        Network {
            adj: vec![Vec::new(); nodes],
            to: Vec::new(),
            cap: Vec::new(),
            parent: vec![None; nodes],
            queue: VecDeque::new(),
        }
    }

    fn edge(&mut self, from: usize, to: usize, cap: i64) {
        for (a, b, c) in [(from, to, cap), (to, from, 0)] {
            self.adj[a].push(self.to.len());
            self.to.push(b);
            self.cap.push(c);
        }
    }

    /// Runs Edmonds–Karp to a maximum flow, charging one
    /// [`WorkKind::Augment`] per augmenting path, and returns the nodes
    /// reachable from `source` in the final residual graph: the source
    /// side of the minimal minimum cut.
    fn min_cut_side(
        &mut self,
        source: usize,
        sink: usize,
        budget: &Budget,
    ) -> Result<Vec<bool>, ScheduleError> {
        while self.bfs(source, sink) {
            budget
                .charge(WorkKind::Augment)
                .map_err(ScheduleError::Exhausted)?;
            let mut path = Vec::new();
            let mut v = sink;
            while v != source {
                let e = self.parent[v].expect("the path lies on the BFS tree");
                path.push(e);
                v = self.to[e ^ 1];
            }
            let bottleneck = path.iter().map(|&e| self.cap[e]).min().unwrap_or(0);
            for e in path {
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
            }
        }
        Ok(self.parent.iter().map(Option::is_some).collect())
    }

    /// Breadth-first search over edges with residual capacity, recording
    /// the tree in `parent`. Stops as soon as it reaches `sink` (returning
    /// `true`); otherwise `parent` marks exactly the nodes reachable from
    /// `source`.
    fn bfs(&mut self, source: usize, sink: usize) -> bool {
        self.parent.fill(None);
        self.parent[source] = Some(usize::MAX);
        self.queue.clear();
        self.queue.push_back(source);
        while let Some(u) = self.queue.pop_front() {
            for &e in &self.adj[u] {
                let v = self.to[e];
                if self.cap[e] > 0 && self.parent[v].is_none() {
                    self.parent[v] = Some(e);
                    if v == sink {
                        return true;
                    }
                    self.queue.push_back(v);
                }
            }
        }
        false
    }
}
