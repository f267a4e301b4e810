//! The integer-programming formulations of §5 (Programs 6 and 7).
//!
//! The paper encodes Min Wiener Connector as a min-cost multicommodity
//! flow ILP (Program 6) and a smaller tree-based relaxation (Program 7),
//! solved with Gurobi to obtain the Table 2 bounds. A commercial MIP
//! solver is outside this reproduction's dependency policy, but the
//! formulations themselves are part of the paper's contribution, so this
//! module builds them as explicit constraint systems that can be
//! inspected, exported, and *checked*:
//!
//! * [`flow_formulation`] — Program 6, exact (`Θ(|E||V|²)` variables);
//! * [`tree_formulation`] — Program 7, the relaxation with tree/cycle
//!   constraints (`O(|V|²)` variables; cycle constraints supplied lazily,
//!   here via a fundamental cycle basis);
//! * [`assignment_for_connector`] — Theorem 5's forward direction made
//!   executable: translates any connector into a feasible assignment of
//!   Program 6 whose objective equals its Wiener index (tested).
//!
//! Together with `crate::exact` (which certifies optima directly) this
//! covers §5's role in the evaluation.

use mwc_graph::hash::FxHashMap;
use mwc_graph::traversal::bfs::{bfs_parents, path_from_parents};
use mwc_graph::{Graph, NodeId};

use crate::connector::Connector;
use crate::error::Result;
use crate::wsq::normalize_query;

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `≤ rhs`
    Le,
    /// `≥ rhs`
    Ge,
    /// `= rhs`
    Eq,
}

/// A sparse linear constraint `Σ coeff · x[var] (op) rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse terms `(variable index, coefficient)`.
    pub terms: Vec<(usize, f64)>,
    /// Comparison operator.
    pub op: Cmp,
    /// Right-hand side.
    pub rhs: f64,
    /// Human-readable provenance (e.g. `flow-conservation s=0 t=3 v=2`).
    pub label: String,
}

impl Constraint {
    /// Evaluates the left-hand side under `x`.
    pub fn lhs(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|&(i, c)| c * x[i]).sum()
    }

    /// Whether `x` satisfies the constraint within `tol`.
    pub fn satisfied(&self, x: &[f64], tol: f64) -> bool {
        let lhs = self.lhs(x);
        match self.op {
            Cmp::Le => lhs <= self.rhs + tol,
            Cmp::Ge => lhs >= self.rhs - tol,
            Cmp::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// A (mixed-)integer linear program: minimize `objective · x`.
#[derive(Debug, Clone)]
pub struct IntegerProgram {
    /// Variable display names (debugging / export).
    pub var_names: Vec<String>,
    /// Sparse objective `(variable, coefficient)`; minimization.
    pub objective: Vec<(usize, f64)>,
    /// All constraints.
    pub constraints: Vec<Constraint>,
    /// Which variables are 0/1-integral (`y_u` in the paper; flow and pair
    /// variables may remain continuous, Theorem 5).
    pub binary: Vec<bool>,
}

impl IntegerProgram {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Objective value of an assignment.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().map(|&(i, c)| c * x[i]).sum()
    }

    /// Returns the first violated constraint, if any. Integrality of
    /// `binary` variables is checked too.
    pub fn check(&self, x: &[f64], tol: f64) -> Option<String> {
        assert_eq!(x.len(), self.num_vars());
        for (i, &b) in self.binary.iter().enumerate() {
            if b && (x[i] - x[i].round()).abs() > tol {
                return Some(format!("integrality violated for {}", self.var_names[i]));
            }
            if x[i] < -tol {
                return Some(format!("negativity violated for {}", self.var_names[i]));
            }
        }
        self.constraints
            .iter()
            .find(|c| !c.satisfied(x, tol))
            .map(|c| {
                format!(
                    "violated: {} (lhs = {}, rhs = {})",
                    c.label,
                    c.lhs(x),
                    c.rhs
                )
            })
    }
}

/// Variable layout of Program 6, exposed so tests and the assignment
/// builder agree on indices.
#[derive(Debug)]
pub struct FlowLayout {
    n: usize,
    /// `edge_index[(u, v)]` for both orientations of every edge.
    edge_index: FxHashMap<(NodeId, NodeId), usize>,
    num_pairs: usize,
    num_arcs: usize,
}

impl FlowLayout {
    /// Builds the layout for `g` (deterministic: follows `g.edges()` order).
    pub fn for_graph(g: &Graph) -> Self {
        FlowLayout::new(g)
    }

    /// Index of the arc `u → v` within the arc block (0-based), if the
    /// edge exists. Program 7 stores arc variable `x_uv` at
    /// `num_nodes + C(n,2) + arc(u, v)`.
    pub fn arc(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.edge_index.get(&(u, v)).copied()
    }

    /// Number of directed arcs (`2|E|`).
    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// Number of vertices the layout was built for.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut edge_index = FxHashMap::default();
        let mut arcs = 0usize;
        for (u, v) in g.edges() {
            edge_index.insert((u, v), arcs);
            arcs += 1;
            edge_index.insert((v, u), arcs);
            arcs += 1;
        }
        FlowLayout {
            n,
            edge_index,
            num_pairs: n * (n - 1) / 2,
            num_arcs: arcs,
        }
    }

    /// Index of `y_u`.
    pub fn y(&self, u: NodeId) -> usize {
        u as usize
    }

    /// Index of `p_{st}` (`s ≠ t`, order-insensitive).
    pub fn p(&self, s: NodeId, t: NodeId) -> usize {
        let (s, t) = (s.min(t) as usize, s.max(t) as usize);
        debug_assert!(s < t);
        // Position of pair (s, t) in lexicographic order.
        let before_s: usize = s * self.n - s * (s + 1) / 2;
        self.n + before_s + (t - s - 1)
    }

    /// Index of the flow variable `f^{st}_{uv}` (directed arc `u → v`).
    pub fn f(&self, s: NodeId, t: NodeId, u: NodeId, v: NodeId) -> usize {
        let pair = self.p(s, t) - self.n;
        let arc = self.edge_index[&(u, v)];
        self.n + self.num_pairs + pair * self.num_arcs + arc
    }
}

/// Builds Program 6 (the exact flow formulation) for `(g, q)`.
///
/// Variables: `y_u` (vertex chosen, binary), `p_st` (pair both-chosen),
/// `f^{st}_{uv}` (unit flow for commodity `{s, t}`). Objective
/// `½ Σ f^{st}_{uv}`. Use only on small graphs — the variable count is
/// `n + C(n,2) · (1 + 2m)`.
pub fn flow_formulation(g: &Graph, q: &[NodeId]) -> Result<(IntegerProgram, FlowLayout)> {
    let q = normalize_query(g, q)?;
    let layout = FlowLayout::new(g);
    let n = layout.n;

    let mut var_names = Vec::with_capacity(n + layout.num_pairs * (1 + layout.num_arcs));
    for u in 0..n {
        var_names.push(format!("y[{u}]"));
    }
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(layout.num_pairs);
    for s in 0..n as NodeId {
        for t in (s + 1)..n as NodeId {
            pairs.push((s, t));
            var_names.push(format!("p[{s},{t}]"));
        }
    }
    let arcs: Vec<(NodeId, NodeId)> = {
        let mut a = Vec::with_capacity(layout.num_arcs);
        for (u, v) in g.edges() {
            a.push((u, v));
            a.push((v, u));
        }
        a
    };
    for &(s, t) in &pairs {
        for &(u, v) in &arcs {
            var_names.push(format!("f[{s},{t}][{u}->{v}]"));
        }
    }

    let mut binary = vec![false; var_names.len()];
    binary[..n].fill(true);

    // Objective: the paper's ½ Σ_{s,t,u,v} f^{st}_{uv} ranges over
    // *ordered* commodity pairs; this encoding routes a single flow per
    // unordered pair, so each arc counts with coefficient 1.
    let mut objective = Vec::new();
    for &(s, t) in &pairs {
        for &(u, v) in &arcs {
            objective.push((layout.f(s, t, u, v), 1.0));
        }
    }

    let mut constraints = Vec::new();
    // Flow conservation for every commodity {s, t} and vertex v.
    for &(s, t) in &pairs {
        for v in 0..n as NodeId {
            let mut terms: Vec<(usize, f64)> = Vec::new();
            for &nb in g.neighbors(v) {
                terms.push((layout.f(s, t, nb, v), 1.0)); // inflow
                terms.push((layout.f(s, t, v, nb), -1.0)); // outflow
            }
            // Net flow: -p at the source, +p at the sink, 0 elsewhere.
            let coeff_p: f64 = if v == s {
                1.0
            } else if v == t {
                -1.0
            } else {
                0.0
            };
            if coeff_p != 0.0 {
                terms.push((layout.p(s, t), coeff_p));
            }
            constraints.push(Constraint {
                terms,
                op: Cmp::Eq,
                rhs: 0.0,
                label: format!("flow-conservation s={s} t={t} v={v}"),
            });
        }
        // Capacity: f^{st}_{uv} ≤ y_u.
        for &(u, v) in &arcs {
            constraints.push(Constraint {
                terms: vec![(layout.f(s, t, u, v), 1.0), (layout.y(u), -1.0)],
                op: Cmp::Le,
                rhs: 0.0,
                label: format!("capacity s={s} t={t} {u}->{v}"),
            });
        }
        // Pair activation: p_st ≥ y_s + y_t − 1.
        constraints.push(Constraint {
            terms: vec![
                (layout.p(s, t), 1.0),
                (layout.y(s), -1.0),
                (layout.y(t), -1.0),
            ],
            op: Cmp::Ge,
            rhs: -1.0,
            label: format!("pair-activation s={s} t={t}"),
        });
    }
    // Query containment: y_u = 1 for u ∈ Q.
    for &u in &q {
        constraints.push(Constraint {
            terms: vec![(layout.y(u), 1.0)],
            op: Cmp::Eq,
            rhs: 1.0,
            label: format!("query y[{u}] = 1"),
        });
    }

    Ok((
        IntegerProgram {
            var_names,
            objective,
            constraints,
            binary,
        },
        layout,
    ))
}

/// Translates a connector into the intended feasible assignment of
/// Program 6 (Theorem 5's forward direction): `y_u = 1` on the connector,
/// `p_st = 1` for chosen pairs, and one unit of flow routed along a
/// shortest path inside the induced subgraph for each pair.
pub fn assignment_for_connector(
    g: &Graph,
    q: &[NodeId],
    connector: &Connector,
    layout: &FlowLayout,
    program: &IntegerProgram,
) -> Result<Vec<f64>> {
    let _ = normalize_query(g, q)?;
    let mut x = vec![0.0f64; program.num_vars()];
    for &u in connector.vertices() {
        x[layout.y(u)] = 1.0;
    }
    let sub = connector.induced(g)?;
    let members = connector.vertices();
    for (i, &s) in members.iter().enumerate() {
        let s_local = sub.to_local(s).expect("member");
        let bfs = bfs_parents(sub.graph(), s_local);
        for &t in &members[i + 1..] {
            let t_local = sub.to_local(t).expect("member");
            let path =
                path_from_parents(&bfs.parent, s_local, t_local).expect("connector is connected");
            x[layout.p(s, t)] = 1.0;
            // Route the unit s→t flow along the path (global ids).
            for w in path.windows(2) {
                let (a, b) = (sub.to_global(w[0]), sub.to_global(w[1]));
                x[layout.f(s, t, a, b)] += 1.0;
            }
        }
    }
    Ok(x)
}

/// Builds Program 7 (the tree-based relaxation) for `(g, q)`.
///
/// Variables: `y_u`, `p_st`, and arc indicators `x_uv` selecting a
/// spanning arborescence of the solution rooted at the first query vertex.
/// The exponential cycle family is represented by the constraints for the
/// given `cycles` (the paper adds them lazily; [`fundamental_cycles`]
/// yields a cycle basis). Objective `½ Σ d_G(s,t) · p_st` — a *lower
/// bound* on the Wiener index.
pub fn tree_formulation(g: &Graph, q: &[NodeId], cycles: &[Vec<NodeId>]) -> Result<IntegerProgram> {
    let q = normalize_query(g, q)?;
    let n = g.num_nodes();
    let layout = FlowLayout::new(g);

    // Variable layout: y (n) + p (C(n,2)) + x arcs (2m).
    let mut var_names: Vec<String> = (0..n).map(|u| format!("y[{u}]")).collect();
    for s in 0..n as NodeId {
        for t in (s + 1)..n as NodeId {
            var_names.push(format!("p[{s},{t}]"));
        }
    }
    let arcs: Vec<(NodeId, NodeId)> = {
        let mut a = Vec::with_capacity(layout.num_arcs);
        for (u, v) in g.edges() {
            a.push((u, v));
            a.push((v, u));
        }
        a
    };
    let arc_base = var_names.len();
    let arc_idx = |u: NodeId, v: NodeId| arc_base + layout.edge_index[&(u, v)];
    for &(u, v) in &arcs {
        var_names.push(format!("x[{u}->{v}]"));
    }

    let mut binary = vec![false; var_names.len()];
    binary[..n].fill(true);

    // Objective: ½ Σ_{s≠t} d_G(s,t) p_st (the relaxation measures original
    // distances). Pair variables count unordered pairs once, so no halving
    // is needed here; the ½ in the paper accounts for ordered sums.
    let mut dist_rows: Vec<Vec<u32>> = Vec::with_capacity(n);
    for s in 0..n as NodeId {
        dist_rows.push(mwc_graph::traversal::bfs::bfs_distances(g, s));
    }
    let mut objective = Vec::new();
    for s in 0..n as NodeId {
        for t in (s + 1)..n as NodeId {
            let d = dist_rows[s as usize][t as usize];
            if d != mwc_graph::INF_DIST && d > 0 {
                objective.push((layout.p(s, t), d as f64));
            }
        }
    }

    let root = q[0];
    let mut constraints = Vec::new();
    // Every chosen non-root vertex has exactly one parent:
    // Σ_{u ∈ N(v)} x_uv = y_v.
    for v in 0..n as NodeId {
        if v == root {
            continue;
        }
        let mut terms: Vec<(usize, f64)> = g
            .neighbors(v)
            .iter()
            .map(|&u| (arc_idx(u, v), 1.0))
            .collect();
        terms.push((layout.y(v), -1.0));
        constraints.push(Constraint {
            terms,
            op: Cmp::Eq,
            rhs: 0.0,
            label: format!("one-parent v={v}"),
        });
    }
    // Tree edge count: Σ (x_uv + x_vu) = Σ y_u − 1.
    {
        let mut terms: Vec<(usize, f64)> =
            arcs.iter().map(|&(u, v)| (arc_idx(u, v), 1.0)).collect();
        for u in 0..n {
            terms.push((u, -1.0));
        }
        constraints.push(Constraint {
            terms,
            op: Cmp::Eq,
            rhs: -1.0,
            label: "edge-count".into(),
        });
    }
    // Orientation/selection coupling: x_uv + x_vu ≤ y_u (both endpoints
    // chosen when the edge is used; paper states it per endpoint).
    for (u, v) in g.edges() {
        for (a, b) in [(u, v), (v, u)] {
            constraints.push(Constraint {
                terms: vec![
                    (arc_idx(a, b), 1.0),
                    (arc_idx(b, a), 1.0),
                    (layout.y(a), -1.0),
                ],
                op: Cmp::Le,
                rhs: 0.0,
                label: format!("edge-coupling ({a},{b})"),
            });
        }
    }
    // Pair activation.
    for s in 0..n as NodeId {
        for t in (s + 1)..n as NodeId {
            constraints.push(Constraint {
                terms: vec![
                    (layout.p(s, t), 1.0),
                    (layout.y(s), -1.0),
                    (layout.y(t), -1.0),
                ],
                op: Cmp::Ge,
                rhs: -1.0,
                label: format!("pair-activation s={s} t={t}"),
            });
        }
    }
    // Cycle elimination for the supplied cycles: Σ_{(u,v) ∈ C} (x_uv +
    // x_vu) ≤ |C| − 1.
    for (ci, cycle) in cycles.iter().enumerate() {
        let len = cycle.len();
        let mut terms = Vec::with_capacity(2 * len);
        for i in 0..len {
            let (a, b) = (cycle[i], cycle[(i + 1) % len]);
            terms.push((arc_idx(a, b), 1.0));
            terms.push((arc_idx(b, a), 1.0));
        }
        constraints.push(Constraint {
            terms,
            op: Cmp::Le,
            rhs: len as f64 - 1.0,
            label: format!("cycle-{ci}"),
        });
    }
    // Query containment.
    for &u in &q {
        constraints.push(Constraint {
            terms: vec![(layout.y(u), 1.0)],
            op: Cmp::Eq,
            rhs: 1.0,
            label: format!("query y[{u}] = 1"),
        });
    }

    Ok(IntegerProgram {
        var_names,
        objective,
        constraints,
        binary,
    })
}

/// A fundamental cycle basis of `g`: one cycle per non-tree edge of a BFS
/// spanning forest. These are the first cycles a lazy-constraint loop
/// would separate on.
pub fn fundamental_cycles(g: &Graph) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut cycles = Vec::new();
    let mut visited_root = vec![false; n];
    for start in 0..n as NodeId {
        if visited_root[start as usize] {
            continue;
        }
        let bfs = bfs_parents(g, start);
        for v in 0..n as NodeId {
            if bfs.dist[v as usize] != mwc_graph::INF_DIST {
                visited_root[v as usize] = true;
            }
        }
        for (u, v) in g.edges() {
            if bfs.dist[u as usize] == mwc_graph::INF_DIST {
                continue;
            }
            // Tree edges: parent relation in either direction.
            if bfs.parent[u as usize] == v || bfs.parent[v as usize] == u {
                continue;
            }
            // Only cycles rooted in this component, counted once.
            if bfs.dist[u as usize] == mwc_graph::INF_DIST {
                continue;
            }
            if let Some(cycle) = cycle_through(&bfs.parent, u, v) {
                cycles.push(cycle);
            }
        }
    }
    cycles
}

/// The cycle formed by tree paths root→u, root→v and the edge (u, v).
fn cycle_through(parent: &[NodeId], u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
    // Collect ancestor chains, find the lowest common ancestor.
    let chain = |mut x: NodeId| {
        let mut c = vec![x];
        while parent[x as usize] != mwc_graph::NO_NODE {
            x = parent[x as usize];
            c.push(x);
        }
        c
    };
    let cu = chain(u);
    let cv = chain(v);
    let setu: std::collections::HashSet<NodeId> = cu.iter().copied().collect();
    let lca = *cv.iter().find(|x| setu.contains(x))?;
    let mut cycle: Vec<NodeId> = cu.iter().copied().take_while(|&x| x != lca).collect();
    cycle.push(lca);
    let tail: Vec<NodeId> = cv.iter().copied().take_while(|&x| x != lca).collect();
    cycle.extend(tail.into_iter().rev());
    (cycle.len() >= 3).then_some(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_minimum, ExactConfig};
    use mwc_graph::generators::structured;
    use rand::SeedableRng;

    const TOL: f64 = 1e-9;

    #[test]
    fn program6_counts_match_paper_formula() {
        // Paper: "more than 2|E||V|² variables and more than |V|³
        // constraints" (ordered pairs); our unordered-pair encoding has
        // n + C(n,2)(1 + 2m) variables.
        let g = structured::cycle(5);
        let (ip, _) = flow_formulation(&g, &[0, 2]).unwrap();
        let (n, m) = (5usize, 5usize);
        assert_eq!(ip.num_vars(), n + (n * (n - 1) / 2) * (1 + 2 * m));
        assert!(ip.constraints.len() >= n * (n - 1) / 2 * n);
    }

    #[test]
    fn connector_assignment_is_feasible_with_wiener_objective() {
        // Theorem 5 forward direction, executed: for random small graphs
        // and random connectors, the intended assignment is feasible and
        // its objective equals W(G[S]).
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut checked = 0;
        while checked < 6 {
            let g = mwc_graph::generators::gnm(8, 12, &mut rng);
            let (g, _) = match mwc_graph::connectivity::largest_component_graph(&g) {
                Ok(x) => x,
                Err(_) => continue,
            };
            let n = g.num_nodes() as NodeId;
            if n < 4 {
                continue;
            }
            let q = vec![0, n - 1];
            let (ip, layout) = flow_formulation(&g, &q).unwrap();
            // Whole-graph connector.
            let connector = Connector::new(&g, &(0..n).collect::<Vec<_>>()).unwrap();
            let x = assignment_for_connector(&g, &q, &connector, &layout, &ip).unwrap();
            assert_eq!(ip.check(&x, TOL), None, "infeasible assignment");
            let w = connector.wiener_index(&g).unwrap();
            assert!(
                (ip.objective_value(&x) - w as f64).abs() < TOL,
                "objective {} != W {}",
                ip.objective_value(&x),
                w
            );
            checked += 1;
        }
    }

    #[test]
    fn optimal_connector_assignment_matches_exact_optimum() {
        let g = structured::figure2_graph(6);
        let q: Vec<NodeId> = (0..6).collect();
        let exact = exact_minimum(&g, &q, None, &ExactConfig::default()).unwrap();
        let (ip, layout) = flow_formulation(&g, &q).unwrap();
        let x = assignment_for_connector(&g, &q, &exact.connector, &layout, &ip).unwrap();
        assert_eq!(ip.check(&x, TOL), None);
        assert!((ip.objective_value(&x) - exact.wiener_index as f64).abs() < TOL);
    }

    #[test]
    fn broken_assignments_are_rejected() {
        let g = structured::path(4);
        let q = vec![0u32, 3];
        let (ip, layout) = flow_formulation(&g, &q).unwrap();
        let connector = Connector::new(&g, &[0, 1, 2, 3]).unwrap();
        let mut x = assignment_for_connector(&g, &q, &connector, &layout, &ip).unwrap();
        // Remove a flow unit: conservation must break.
        let f = layout.f(0, 3, 0, 1);
        x[f] = 0.0;
        assert!(ip.check(&x, TOL).is_some());
        // Fractional y must break integrality.
        let mut y_frac = assignment_for_connector(&g, &q, &connector, &layout, &ip).unwrap();
        y_frac[layout.y(1)] = 0.5;
        assert!(ip.check(&y_frac, TOL).is_some());
    }

    #[test]
    fn program7_tree_assignment_is_feasible_and_lower_bounds() {
        // Encode a spanning tree of a connector; objective = Σ d_G over
        // chosen pairs ≤ W (the relaxation's defining property).
        let g = structured::figure2_graph(6);
        let q: Vec<NodeId> = (0..6).collect();
        let cycles = fundamental_cycles(&g);
        let ip = tree_formulation(&g, &q, &cycles).unwrap();

        // Assignment: whole graph chosen, arcs = BFS tree from q[0].
        let n = g.num_nodes();
        let layout = FlowLayout::new(&g);
        let arc_base = n + n * (n - 1) / 2;
        let mut x = vec![0.0f64; ip.num_vars()];
        x[..n].fill(1.0);
        for s in 0..n as NodeId {
            for t in (s + 1)..n as NodeId {
                x[layout.p(s, t)] = 1.0;
            }
        }
        let bfs = bfs_parents(&g, q[0]);
        for v in 0..n as NodeId {
            let p = bfs.parent[v as usize];
            if p != mwc_graph::NO_NODE {
                x[arc_base + layout.edge_index[&(p, v)]] = 1.0;
            }
        }
        assert_eq!(ip.check(&x, TOL), None, "tree assignment infeasible");

        // Relaxation property: objective ≤ true Wiener index of the set.
        let connector = Connector::new(&g, &(0..n as NodeId).collect::<Vec<_>>()).unwrap();
        let w = connector.wiener_index(&g).unwrap() as f64;
        assert!(ip.objective_value(&x) <= w + TOL);
    }

    #[test]
    fn program7_rejects_cyclic_selections() {
        let g = structured::cycle(4);
        let q = vec![0u32];
        let cycles = fundamental_cycles(&g);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 4);
        let ip = tree_formulation(&g, &q, &cycles).unwrap();
        let layout = FlowLayout::new(&g);
        let n = 4usize;
        let arc_base = n + n * (n - 1) / 2;
        let mut x = vec![0.0f64; ip.num_vars()];
        x[..n].fill(1.0);
        for s in 0..n as NodeId {
            for t in (s + 1)..n as NodeId {
                x[layout.p(s, t)] = 1.0;
            }
        }
        // Orient the whole cycle: 0→1→2→3→0. Violates one-parent for 0? No:
        // 0's parent is 3. Violates edge count (4 arcs vs y-1 = 3) and the
        // cycle constraint.
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            x[arc_base + layout.edge_index[&(a, b)]] = 1.0;
        }
        let violation = ip.check(&x, TOL);
        assert!(violation.is_some(), "cyclic selection accepted");
    }

    #[test]
    fn fundamental_cycles_count_is_m_minus_n_plus_c() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..5 {
            let g = mwc_graph::generators::gnm(12, 18, &mut rng);
            let comps = mwc_graph::connectivity::connected_components(&g);
            let expect = g.num_edges() + comps.count - g.num_nodes();
            let cycles = fundamental_cycles(&g);
            assert_eq!(cycles.len(), expect);
            for c in &cycles {
                assert!(c.len() >= 3);
                for i in 0..c.len() {
                    assert!(g.has_edge(c[i], c[(i + 1) % c.len()]), "not a cycle: {c:?}");
                }
            }
        }
    }
}
