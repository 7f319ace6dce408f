//! The TE objective zoo: one formulation layer, many objectives.
//!
//! A [`TeFormulation`] owns, per [`TeObjective`]:
//!
//! - the **variable/row layout** of the sparse LP, chosen to stay
//!   *augmentation-stable* where the objective permits it (fake-edge
//!   columns and capacity rows strictly appended, scalar columns pinned at
//!   index 0) so the revised simplex's structural warm key keeps matching
//!   across dirty-link rounds;
//! - lowering **per shape**: each LP is a pattern (rows, column order,
//!   entries), which only the problem's shape fixes, plus the values one
//!   writer fills in; a solver that keeps its LP rewrites just the values
//!   while its problems keep their shape (`lower_retained`);
//! - the **translation back** from an LP point to a [`TeSolution`] (plus
//!   objective-specific extras in [`TeSolve`]);
//! - **deterministic tie-breaking** so the translated upgrade/reduction
//!   sets do not depend on which co-optimal vertex the simplex lands on
//!   (see `fake_tie_break`).
//!
//! The objectives:
//!
//! | objective            | LP shape                                          |
//! |----------------------|---------------------------------------------------|
//! | [`MaxThroughput`]    | today's weighted max-flow MCF                     |
//! | [`MinMlu`]           | max `λ` with every envelope routed at `λ·U_k`     |
//! | [`MaxConcurrentFlow`]| max `λ ≤ 1` with every demand routed at `λ·d_k`   |
//! | [`Unsplittable`]     | the paper's Fig. 8 node-splitting gadget          |
//! | [`CapacityReduction`]| max-throughput readout of *deletable* fake slices |
//!
//! Min-MLU and max-concurrent-flow are one LP shape with different
//! per-commodity volumes (`U_k` or `d_k`) and a different bound on `λ`
//! (none or 1): minimising `mlu` with every envelope routed under
//! `mlu · capacity` is maximising `λ` with `λ · U` routed under the
//! capacities themselves, at `mlu* = 1/λ*` and flows divided by `λ*`.
//! Capacities therefore stay rhs values and bounds under every objective.
//!
//! [`MaxThroughput`]: TeObjective::MaxThroughput
//! [`MinMlu`]: TeObjective::MinMlu
//! [`MaxConcurrentFlow`]: TeObjective::MaxConcurrentFlow
//! [`Unsplittable`]: TeObjective::Unsplittable
//! [`CapacityReduction`]: TeObjective::CapacityReduction

use crate::gadget::GadgetLowering;
use crate::problem::{EdgeOrigin, TeProblem, TeSolution};
use crate::TeError;
use rwc_lp::{LpOutcome, Relation, SparseLp, SparseLpBuilder};
use rwc_topology::wan::LinkId;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::mem::Discriminant;

/// Flow below this is "not using the slice" for capacity-reduction
/// readouts. Far above simplex tolerance, far below any real allocation.
const REDUCTION_EPS: f64 = 1e-6;

/// A min-MLU optimum with `λ*` at or below this routes no positive
/// multiple of the envelope: the revised simplex's primal tolerance.
const LAMBDA_TOL: f64 = 1e-9;

/// What the TE layer optimises for.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TeObjective {
    /// Maximise total routed volume (the original shape): throughput is
    /// rewarded at `throughput_weight` per unit, edge costs act as a
    /// lexicographic tie-breaker.
    #[default]
    MaxThroughput,
    /// Minimise the maximum link utilisation over a set of representative
    /// traffic matrices, TROD-style: each matrix is a per-commodity volume
    /// vector (parallel to `TeProblem::commodities`), the per-commodity
    /// *envelope* `U_k = max over matrices` is routed exactly, and every
    /// edge carries at most `mlu · capacity`. Lowered as its equivalent
    /// max-concurrent-flow LP: maximise `λ` with `λ · U_k` routed under
    /// the capacities, then `mlu = 1/λ` and the flows are divided by `λ`.
    /// An all-zero envelope answers `mlu = 0` with no flow; an envelope
    /// that no positive multiple of fits (`λ* = 0`, a commodity cut off
    /// from its sink) is a [`TeError::SolverAbort`] naming the commodity.
    /// An empty list means "use the problem's own demands as the single
    /// matrix".
    MinMlu {
        /// Representative traffic matrices; each entry is a volume vector
        /// with one element per commodity.
        traffic_matrices: Vec<Vec<f64>>,
    },
    /// Max-concurrent-flow fairness: maximise `λ ∈ [0, 1]` such that every
    /// commodity routes exactly `λ · demand` — no commodity is starved to
    /// fatten the total.
    MaxConcurrentFlow,
    /// The paper's Fig. 8 unsplittable-upgrade gadget: every real edge
    /// with fake upgrade rungs is split through an auxiliary node, so the
    /// routed graph holds one edge at each rung's full upgraded rate (a
    /// single path can carry an unsplittable flow at that rate) while a
    /// series guard caps the link at its fastest rate. The LP itself
    /// stays fractional.
    Unsplittable,
    /// Capacity *reduction* (fake-edge deletion instead of addition): the
    /// same max-throughput LP, but the fake edges model currently-lit
    /// capacity slices that cost to keep; slices left unused by the
    /// optimum are reported as deletable in [`TeSolve::reductions`].
    CapacityReduction,
}

impl TeObjective {
    /// Stable algorithm name for reports, memo keys and error contexts.
    pub fn algorithm_name(&self) -> &'static str {
        match self {
            TeObjective::MaxThroughput => "exact-lp:max-throughput",
            TeObjective::MinMlu { .. } => "exact-lp:min-mlu",
            TeObjective::MaxConcurrentFlow => "exact-lp:max-concurrent-flow",
            TeObjective::Unsplittable => "exact-lp:unsplittable",
            TeObjective::CapacityReduction => "exact-lp:capacity-reduction",
        }
    }
}

/// An objective-specific LP result: the shared [`TeSolution`] plus the
/// extras only some objectives produce.
#[derive(Debug, Clone, PartialEq)]
pub struct TeSolve {
    /// Flows and routed volumes on the *original* problem's edges (gadget
    /// plumbing is already folded back for [`TeObjective::Unsplittable`]).
    pub solution: TeSolution,
    /// The optimal maximum link utilisation ([`TeObjective::MinMlu`]):
    /// `1/λ*` of its lowering, whose flows are divided by `λ*` so the
    /// solution routes the envelope itself (under `mlu · capacity`, which
    /// exceeds a capacity when `mlu > 1`).
    pub mlu: Option<f64>,
    /// The optimal concurrency factor ([`TeObjective::MaxConcurrentFlow`]).
    pub lambda: Option<f64>,
    /// Links whose fake capacity slices the optimum leaves unused in both
    /// directions — safely deletable ([`TeObjective::CapacityReduction`]).
    /// Sorted ascending, and deterministic: the fake-edge objective
    /// epsilon breaks co-optimal ties the same way on every solve.
    pub reductions: Option<Vec<LinkId>>,
}

/// A TE objective plus the lowering knobs: builds the LP and translates
/// its solution back. Stateless — the solver owns the simplex engine and
/// the LP it last lowered, the formulation owns the shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct TeFormulation {
    /// The objective to lower.
    pub objective: TeObjective,
    /// Objective weight of the headline quantity (routed unit or `λ`)
    /// relative to one unit of edge cost. Must dwarf any plausible
    /// per-unit cost so costs stay a lexicographic tie-breaker.
    pub throughput_weight: f64,
}

impl Default for TeFormulation {
    fn default() -> Self {
        Self::new(TeObjective::MaxThroughput)
    }
}

impl TeFormulation {
    /// A formulation with the default throughput weight (`1e6`).
    pub fn new(objective: TeObjective) -> Self {
        Self { objective, throughput_weight: 1e6 }
    }

    /// Stable algorithm name for reports, memo keys and error contexts.
    pub fn name(&self) -> &'static str {
        self.objective.algorithm_name()
    }

    /// Problem-independent configuration checks: finite positive weight,
    /// self-consistent traffic matrices. (Per-problem shape checks happen
    /// in [`TeFormulation::lower`].)
    pub fn validate(&self) -> Result<(), TeError> {
        let fail = |detail: String| {
            Err(TeError::InvalidConfig { algorithm: self.name(), detail })
        };
        if !self.throughput_weight.is_finite() || self.throughput_weight <= 0.0 {
            return fail(format!(
                "throughput_weight must be finite and positive, got {}",
                self.throughput_weight
            ));
        }
        if let TeObjective::MinMlu { traffic_matrices } = &self.objective {
            for (i, tm) in traffic_matrices.iter().enumerate() {
                if tm.len() != traffic_matrices[0].len() {
                    return fail(format!(
                        "traffic matrix {i} has {} commodities, matrix 0 has {}",
                        tm.len(),
                        traffic_matrices[0].len()
                    ));
                }
                if let Some(v) = tm.iter().find(|v| !v.is_finite() || **v < 0.0) {
                    return fail(format!("traffic matrix {i} has invalid volume {v}"));
                }
            }
        }
        Ok(())
    }

    /// A 64-bit FNV-1a fingerprint of everything that changes what a solve
    /// *means*: objective discriminant, weight, and (for min-MLU) the full
    /// traffic-matrix contents. The round engine folds this into its memo
    /// key so cached baselines never leak across objectives.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        fold(self.throughput_weight.to_bits());
        match &self.objective {
            TeObjective::MaxThroughput => fold(1),
            TeObjective::MinMlu { traffic_matrices } => {
                fold(2);
                fold(traffic_matrices.len() as u64);
                for tm in traffic_matrices {
                    fold(tm.len() as u64);
                    for v in tm {
                        fold(v.to_bits());
                    }
                }
            }
            TeObjective::MaxConcurrentFlow => fold(3),
            TeObjective::Unsplittable => fold(4),
            TeObjective::CapacityReduction => fold(5),
        }
        h
    }

    /// Lowers the problem: resolves min-MLU envelopes, expands the Fig. 8
    /// gadget for [`TeObjective::Unsplittable`], and returns a handle that
    /// builds the LP and translates its outcome back.
    pub fn lower<'p>(&self, problem: &'p TeProblem) -> Result<LoweredTe<'p>, TeError> {
        let kind = self.lowered_kind(problem)?;
        let gadget = self.gadget(problem).map(Cow::Owned);
        Ok(LoweredTe { problem, gadget, kind, weight: self.throughput_weight, name: self.name() })
    }

    /// [`Self::lower`] into a lowering kept from an earlier solve: when the
    /// problem has the same [`TeShape`] only the values are rewritten (and
    /// the gadget's capacities and costs), otherwise the LP is built anew.
    /// Returns the lowering and its LP, which equals
    /// `self.lower(problem)?.sparse_lp()`.
    pub(crate) fn lower_retained<'a>(
        &self,
        problem: &'a TeProblem,
        retained: &'a mut Option<RetainedLp>,
    ) -> Result<(LoweredTe<'a>, &'a SparseLp), TeError> {
        let kind = self.lowered_kind(problem)?;
        let shape = TeShape::of(&self.objective, &kind, problem);
        let kept = match retained.take() {
            Some(mut kept) if kept.shape == shape => {
                if let Some(g) = &mut kept.gadget {
                    g.refresh(problem);
                }
                kept
            }
            stale => {
                // Freed before the new LP is built, so the two never
                // coexist.
                drop(stale);
                let gadget = self.gadget(problem);
                let rp = gadget.as_ref().map_or(problem, |g| &g.inner);
                RetainedLp { shape, lp: sparse_pattern(rp, &kind), gadget }
            }
        };
        let RetainedLp { lp, gadget, .. } = retained.insert(kept);
        let lowered = LoweredTe {
            problem,
            gadget: gadget.as_ref().map(Cow::Borrowed),
            kind,
            weight: self.throughput_weight,
            name: self.name(),
        };
        lowered.refresh(lp);
        Ok((lowered, lp))
    }

    /// The Fig. 8 expansion, for [`TeObjective::Unsplittable`] only.
    fn gadget(&self, problem: &TeProblem) -> Option<GadgetLowering> {
        matches!(self.objective, TeObjective::Unsplittable).then(|| GadgetLowering::build(problem))
    }

    /// Validates the configuration against `problem` and resolves the LP
    /// kind (and min-MLU's envelopes). A negative or non-finite demand is
    /// refused here: it would put the LP's demand row outside the class
    /// the engine accepts (infeasible at the origin, or not finite).
    fn lowered_kind(&self, problem: &TeProblem) -> Result<LoweredKind, TeError> {
        self.validate()?;
        let hostile = |d: f64| !(d.is_finite() && d >= 0.0);
        if let Some((ki, c)) = problem.commodities.iter().enumerate().find(|(_, c)| hostile(c.demand)) {
            return Err(TeError::InvalidConfig {
                algorithm: self.name(),
                detail: format!("commodity {ki} has invalid demand {}", c.demand),
            });
        }
        Ok(match &self.objective {
            TeObjective::MaxThroughput => LoweredKind::Throughput { reduction: false },
            TeObjective::CapacityReduction => LoweredKind::Throughput { reduction: true },
            TeObjective::Unsplittable => LoweredKind::Throughput { reduction: false },
            TeObjective::MinMlu { traffic_matrices } => {
                let k = problem.commodities.len();
                for (i, tm) in traffic_matrices.iter().enumerate() {
                    if tm.len() != k {
                        return Err(TeError::InvalidConfig {
                            algorithm: self.name(),
                            detail: format!(
                                "traffic matrix {i} has {} volumes for {k} commodities",
                                tm.len()
                            ),
                        });
                    }
                }
                let envelopes = (0..k)
                    .map(|ki| {
                        traffic_matrices
                            .iter()
                            .map(|tm| tm[ki])
                            .fold(f64::NEG_INFINITY, f64::max)
                            .max(if traffic_matrices.is_empty() {
                                problem.commodities[ki].demand
                            } else {
                                0.0
                            })
                    })
                    .collect();
                LoweredKind::Concurrent { volumes: envelopes, min_mlu: true }
            }
            TeObjective::MaxConcurrentFlow => LoweredKind::Concurrent {
                volumes: problem.commodities.iter().map(|c| c.demand).collect(),
                min_mlu: false,
            },
        })
    }

    /// The answer to a problem with nothing to route, which never reaches
    /// the engine: no commodities under any objective, or an all-zero
    /// min-MLU envelope (its `λ` would be unbounded), which answers
    /// `mlu = 0` with no flow. `None` when there is an LP to solve.
    pub(crate) fn idle_solve(&self, problem: &TeProblem) -> Result<Option<TeSolve>, TeError> {
        let idle = problem.commodities.is_empty()
            || match self.lowered_kind(problem)? {
                LoweredKind::Concurrent { volumes, min_mlu: true } => {
                    volumes.iter().all(|&u| u == 0.0)
                }
                _ => false,
            };
        if !idle {
            return Ok(None);
        }
        let min_mlu = matches!(self.objective, TeObjective::MinMlu { .. });
        let solution = TeSolution {
            routed: vec![0.0; problem.commodities.len()],
            edge_flows: vec![0.0; problem.net.n_edges()],
            total: 0.0,
        };
        Ok(Some(TeSolve {
            solution,
            mlu: min_mlu.then_some(0.0),
            lambda: None,
            reductions: None,
        }))
    }
}

/// What fixes a lowering's sparsity pattern and, under the Fig. 8 gadget,
/// its layout: the objective's variant, the node count, each edge's
/// endpoints and origin, each commodity's endpoints, and the zeros the
/// `λ` column skips — zero envelopes under min-MLU, zero demands under
/// max-concurrent-flow. Everything else, capacities included, is a value
/// [`LoweredTe::refresh`] rewrites.
#[derive(Debug, PartialEq)]
struct TeShape {
    objective: Discriminant<TeObjective>,
    n_nodes: usize,
    /// `(from, to, origin)` per edge.
    edges: Vec<(usize, usize, EdgeOrigin)>,
    /// `(source, sink, zero volume under the λ column)` per commodity.
    commodities: Vec<(usize, usize, bool)>,
}

impl TeShape {
    fn of(objective: &TeObjective, kind: &LoweredKind, problem: &TeProblem) -> TeShape {
        let volumes = match kind {
            LoweredKind::Concurrent { volumes, .. } => volumes.as_slice(),
            LoweredKind::Throughput { .. } => &[],
        };
        TeShape {
            objective: std::mem::discriminant(objective),
            n_nodes: problem.net.n_nodes(),
            edges: problem
                .net
                .edges()
                .iter()
                .zip(&problem.origins)
                .map(|(e, &origin)| (e.from, e.to, origin))
                .collect(),
            commodities: problem
                .commodities
                .iter()
                .enumerate()
                .map(|(ki, c)| (c.source, c.sink, volumes.get(ki) == Some(&0.0)))
                .collect(),
        }
    }
}

/// The LP of a solver's last lowering, the shape it has, and (unsplittable
/// only) the gadget it routes on; see [`TeFormulation::lower_retained`].
#[derive(Debug)]
pub(crate) struct RetainedLp {
    shape: TeShape,
    lp: SparseLp,
    gadget: Option<GadgetLowering>,
}

/// Which LP shape a [`LoweredTe`] carries.
#[derive(Debug, Clone)]
enum LoweredKind {
    /// Weighted max-flow (also the unsplittable gadget's inner shape and
    /// the capacity-reduction readout).
    Throughput {
        /// Report deletable fake slices after extraction.
        reduction: bool,
    },
    /// Scalar `λ` column tied into the demand row of every commodity
    /// with a non-zero volume: max-concurrent-flow, or min-MLU over its
    /// envelope.
    Concurrent {
        /// Per commodity, what `λ` scales: the demand `d_k`, or min-MLU's
        /// envelope `U_k` (the max over its traffic matrices).
        volumes: Vec<f64>,
        /// Min-MLU: `λ` has no upper bound (1 otherwise), and the optimum
        /// reads back as `mlu = 1/λ` with the flows divided by `λ`.
        min_mlu: bool,
    },
}

/// A problem lowered under one objective: builds the sparse LP and
/// translates the solver's outcome back to the original problem.
#[derive(Debug)]
pub struct LoweredTe<'p> {
    problem: &'p TeProblem,
    gadget: Option<Cow<'p, GadgetLowering>>,
    kind: LoweredKind,
    weight: f64,
    name: &'static str,
}

impl LoweredTe<'_> {
    /// The problem the LP actually routes on: the gadget expansion for
    /// unsplittable, the original otherwise.
    pub fn routing_problem(&self) -> &TeProblem {
        match &self.gadget {
            Some(g) => &g.inner,
            None => self.problem,
        }
    }

    /// Leading scalar (non-flow) variables: `λ`, if any.
    fn scalar_vars(&self) -> usize {
        match self.kind {
            LoweredKind::Throughput { .. } => 0,
            LoweredKind::Concurrent { .. } => 1,
        }
    }

    /// Lowers straight to sparse computational form: scalar variables
    /// first, then flow variables edge-major at `scalar + ei·k + ki` (the
    /// augmentation-stable order — fake edges append columns and capacity
    /// rows strictly at the end, and `λ` touches only demand rows, so the
    /// structural warm key survives dirty-link updates). The pattern, then
    /// the values.
    pub fn sparse_lp(&self) -> SparseLp {
        let mut lp = sparse_pattern(self.routing_problem(), &self.kind);
        self.refresh(&mut lp);
        lp
    }

    /// The value writer: rewrites every value of `lp` that a problem of
    /// this shape may move — objective, upper bounds, demand- and
    /// capacity-row rhs, and `λ`'s `−d_k` (max-concurrent-flow) or `−U_k`
    /// (min-MLU) entries. Capacities are only ever capacity-row rhs values
    /// and flow-column bounds. `lp` must have been built for a problem of
    /// the same shape (see `TeShape`).
    fn refresh(&self, lp: &mut SparseLp) {
        let rp = self.routing_problem();
        let k = rp.commodities.len();
        let edges = rp.net.edges();
        let weight = self.weight;
        let cap_base = lp.n_rows() - if has_capacity_rows(rp) { edges.len() } else { 0 };
        let demand_base = cap_base - k;
        for (ki, c) in rp.commodities.iter().enumerate() {
            lp.rhs[demand_base + ki] = match &self.kind {
                LoweredKind::Throughput { .. } => c.demand,
                LoweredKind::Concurrent { .. } => 0.0,
            };
        }
        for (rhs, e) in lp.rhs[cap_base..].iter_mut().zip(edges) {
            *rhs = e.capacity;
        }
        // Column 0, if the objective has `λ`: its objective, bound and
        // entries.
        if let LoweredKind::Concurrent { volumes, min_mlu } = &self.kind {
            let bound = if *min_mlu { f64::INFINITY } else { 1.0 };
            (lp.objective[0], lp.upper[0]) = (weight, bound);
            let entries = lp.a.col_ptr[0]..lp.a.col_ptr[1];
            for (v, volume) in
                lp.a.values[entries].iter_mut().zip(volumes.iter().filter(|&&u| u != 0.0))
            {
                *v = -volume;
            }
        }
        let scalar = self.scalar_vars();
        let throughput = matches!(self.kind, LoweredKind::Throughput { .. });
        for (ei, e) in edges.iter().enumerate() {
            let tie_break = fake_tie_break(rp, ei);
            let cols = scalar + ei * k..scalar + (ei + 1) * k;
            for ((objective, bound), c) in
                lp.objective[cols.clone()].iter_mut().zip(&mut lp.upper[cols]).zip(&rp.commodities)
            {
                *objective = if throughput {
                    outflow_of(e.from, e.to, c.source) * weight - e.cost - tie_break
                } else {
                    -e.cost - tie_break
                };
                *bound = e.capacity;
            }
        }
    }

    /// Translates the solver's outcome back to the original problem,
    /// reading the flow variables where [`Self::sparse_lp`] put them.
    pub fn extract_sparse(&self, outcome: LpOutcome) -> Result<TeSolve, TeError> {
        let algorithm = self.name;
        let rp = self.routing_problem();
        let k = rp.commodities.len();
        let m = rp.net.n_edges();
        let point = match outcome {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Stalled => {
                return Err(TeError::SolverTimeout {
                    algorithm,
                    detail: format!(
                        "simplex stalled: pivot budget, watchdog, singular cold basis or \
                         unblocked ratio test ({k} commodities, {m} edges)"
                    ),
                })
            }
        };
        let offset = self.scalar_vars();
        let (mut routed, inner_flows) = flows_from_point(&point.x, offset, rp);
        let mut edge_flows = match &self.gadget {
            Some(g) => g.map_back(&inner_flows, self.problem),
            None => inner_flows,
        };
        let (mut mlu, mut lambda, mut reductions) = (None, None, None);
        match &self.kind {
            LoweredKind::Throughput { reduction } => {
                reductions = reduction.then(|| deletable_links(self.problem, &edge_flows));
            }
            LoweredKind::Concurrent { min_mlu: false, .. } => lambda = Some(point.x[0]),
            LoweredKind::Concurrent { volumes, min_mlu: true } => {
                let lambda = point.x[0];
                if lambda <= LAMBDA_TOL {
                    let detail = unroutable(rp, volumes, lambda);
                    return Err(TeError::SolverAbort { algorithm, detail });
                }
                for v in routed.iter_mut().chain(&mut edge_flows) {
                    *v /= lambda;
                }
                mlu = Some(1.0 / lambda);
            }
        }
        let total = routed.iter().sum();
        let solution = TeSolution { routed, edge_flows, total };
        Ok(TeSolve { solution, mlu, lambda, reductions })
    }
}

/// Why a min-MLU optimum at `λ* = 0` is a refusal: the first commodity
/// with a positive envelope and no path of positive capacity to its sink,
/// or, if every one has such a path, the optimum itself.
fn unroutable(rp: &TeProblem, envelopes: &[f64], lambda: f64) -> String {
    let cut_off = rp.commodities.iter().zip(envelopes).enumerate().find(|(_, (c, &u))| {
        u > 0.0 && rwc_flow::widest_path(&rp.net, c.source, c.sink) == 0.0
    });
    match cut_off {
        Some((ki, (c, u))) => format!(
            "commodity {ki} ({} -> {}) has envelope {u} and no path of positive capacity \
             (lambda* = {lambda})",
            c.source, c.sink
        ),
        None => format!("no positive multiple of the envelope is routable (lambda* = {lambda})"),
    }
}

/// Reads per-commodity routed volumes and aggregate edge flows out of an
/// LP point whose flow variables sit edge-major (`offset + ei·k + ki`)
/// after `offset` scalar variables.
fn flows_from_point(x: &[f64], offset: usize, rp: &TeProblem) -> (Vec<f64>, Vec<f64>) {
    let k = rp.commodities.len();
    let mut net_out = vec![0.0; k];
    let mut edge_flows = vec![0.0; rp.net.n_edges()];
    for (ei, e) in rp.net.edges().iter().enumerate() {
        for (ki, c) in rp.commodities.iter().enumerate() {
            let f = x[offset + ei * k + ki];
            edge_flows[ei] += f;
            if e.from == c.source {
                net_out[ki] += f;
            }
            if e.to == c.source {
                net_out[ki] -= f;
            }
        }
    }
    let routed = net_out.into_iter().map(|v| v.max(0.0)).collect();
    (routed, edge_flows)
}

/// Links whose every fake capacity slice carries (numerically) zero flow —
/// the capacity-reduction readout. Sorted ascending by construction.
fn deletable_links(problem: &TeProblem, edge_flows: &[f64]) -> Vec<LinkId> {
    let mut used: BTreeMap<usize, bool> = BTreeMap::new();
    for (ei, origin) in problem.origins.iter().enumerate() {
        if let EdgeOrigin::Fake { link, .. } = origin {
            let entry = used.entry(link.0).or_insert(false);
            *entry |= edge_flows[ei] > REDUCTION_EPS;
        }
    }
    used.into_iter().filter(|&(_, u)| !u).map(|(l, _)| LinkId(l)).collect()
}

// ---------------------------------------------------------------------------
// Lowerings (augmentation-stable layouts; see `sparse_lp`'s note).
// ---------------------------------------------------------------------------

/// `+1/−1` net-outflow coefficient of an edge at a commodity's source.
fn outflow_of(from: usize, to: usize, source: usize) -> f64 {
    let mut v = 0.0;
    if from == source {
        v += 1.0;
    }
    if to == source {
        v -= 1.0;
    }
    v
}

/// Conservation-row map shared by every sparse lowering: one row per
/// (commodity, non-terminal node), commodity-major, allocated for every
/// such node so the row map never depends on the edge set. Returns the
/// map (with `usize::MAX` for terminals) and the next free row index.
fn sparse_conservation_rows(rp: &TeProblem) -> (Vec<usize>, usize) {
    let n_nodes = rp.net.n_nodes();
    let k = rp.commodities.len();
    let mut cons_row = vec![usize::MAX; k * n_nodes];
    let mut next_row = 0usize;
    for (ki, c) in rp.commodities.iter().enumerate() {
        for node in 0..n_nodes {
            if node != c.source && node != c.sink {
                cons_row[ki * n_nodes + node] = next_row;
                next_row += 1;
            }
        }
    }
    (cons_row, next_row)
}

/// Whether every edge has a capacity row: only with more than one
/// commodity (one commodity's capacities are its columns' upper bounds).
fn has_capacity_rows(rp: &TeProblem) -> bool {
    rp.commodities.len() > 1
}

/// The deterministic fake-edge tie-break epsilon: prefers earlier-appended
/// fake edges among cost-tied optima, so the translated upgrade/reduction
/// sets do not depend on which co-optimal vertex a warm or cold solve
/// lands on (Fig. 7's one-upgrade tie).
fn fake_tie_break(rp: &TeProblem, ei: usize) -> f64 {
    match rp.origins.get(ei) {
        Some(EdgeOrigin::Fake { .. }) => 1e-6 * ei as f64,
        _ => 0.0,
    }
}

/// Pushes one flow column's pattern: conservation ± demand-outflow ±
/// capacity entries, merged, zero-free and sorted. A column has at most
/// four entries, so they are gathered on the stack.
fn push_flow_col(
    b: &mut SparseLpBuilder,
    rp: &TeProblem,
    cons_row: &[usize],
    ei: usize,
    ki: usize,
    demand_row: usize,
    cap_row: Option<usize>,
) {
    let n_nodes = rp.net.n_nodes();
    let e = rp.net.edge(ei);
    let c = &rp.commodities[ki];
    let mut entries = [(0usize, 0.0f64); 4];
    let mut len = 0;
    let mut push = |row: usize, v: f64| match entries[..len].iter_mut().find(|(r, _)| *r == row) {
        Some(slot) => slot.1 += v,
        None => {
            entries[len] = (row, v);
            len += 1;
        }
    };
    let from_row = cons_row[ki * n_nodes + e.from];
    if from_row != usize::MAX {
        push(from_row, 1.0);
    }
    let to_row = cons_row[ki * n_nodes + e.to];
    if to_row != usize::MAX {
        push(to_row, -1.0);
    }
    let outflow = outflow_of(e.from, e.to, c.source);
    if outflow != 0.0 {
        push(demand_row, outflow);
    }
    if let Some(cap_row) = cap_row {
        push(cap_row, 1.0);
    }
    let mut kept = 0;
    for i in 0..len {
        if entries[i].1 != 0.0 {
            entries.swap(kept, i);
            kept += 1;
        }
    }
    let entries = &mut entries[..kept];
    entries.sort_unstable_by_key(|&(r, _)| r);
    b.push_col(0.0, 0.0, entries);
}

/// The pattern writer: row map and relations, column order and entries;
/// every value the value writer ([`LoweredTe::refresh`]) owns is left at
/// zero. Rows are `[conservation (=)][demand][capacity (≤ cap_e)]`: a
/// demand row is `≤ d_k` under max-throughput and
/// `net outflow − λ·v_k = 0` under max-concurrent-flow (`v = d`) and
/// min-MLU (`v = U`); capacity rows exist as `has_capacity_rows` says.
///
/// Column 0 is `λ`, if any, with an entry in the demand row of every
/// commodity with a non-zero volume. It touches only demand rows, so —
/// like max-throughput — the layout is fully augmentation-stable, and
/// capacities are rhs values and bounds only: capacity drift, crawls and
/// cuts leave the matrix bit for bit and take the engine's fast resolve.
/// Traffic-matrix drift under min-MLU rewrites `λ`'s values, so it takes
/// the structural warm plan instead.
fn sparse_pattern(rp: &TeProblem, kind: &LoweredKind) -> SparseLp {
    let k = rp.commodities.len();
    let edges = rp.net.edges();
    let (cons_row, n_cons) = sparse_conservation_rows(rp);
    let demand_row = |ki: usize| n_cons + ki;
    let cap_base = n_cons + k;
    let cap_rows = has_capacity_rows(rp);
    let n_rows = if cap_rows { cap_base + edges.len() } else { cap_base };

    // Capacity rows keep the builder's `≤`.
    let mut b = SparseLpBuilder::new(n_rows);
    let demand_rel = match kind {
        LoweredKind::Throughput { .. } => Relation::Le,
        LoweredKind::Concurrent { .. } => Relation::Eq,
    };
    for ki in 0..k {
        b.set_row(demand_row(ki), demand_rel, 0.0);
    }
    for r in cons_row.iter().filter(|&&r| r != usize::MAX) {
        b.set_row(*r, Relation::Eq, 0.0);
    }

    if let LoweredKind::Concurrent { volumes, .. } = kind {
        let entries: Vec<(usize, f64)> =
            (0..k).filter(|&ki| volumes[ki] != 0.0).map(|ki| (demand_row(ki), 0.0)).collect();
        b.push_col(0.0, 0.0, &entries);
    }
    for ei in 0..edges.len() {
        for ki in 0..k {
            let cap_row = cap_rows.then_some(cap_base + ei);
            push_flow_col(&mut b, rp, &cons_row, ei, ki, demand_row(ki), cap_row);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{DemandMatrix, Priority};
    use crate::solver::TeSolver;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    fn fig7_two_commodities() -> TeProblem {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let c = wan.node_by_name("C").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(125.0), Priority::Elastic);
        dm.add(c, d, Gbps(125.0), Priority::Elastic);
        TeProblem::from_wan(&wan, &dm)
    }

    /// Adds a fake upgrade rung parallel to real edge `2·link + dir`.
    fn add_fake(p: &mut TeProblem, link: usize, forward: bool, capacity: f64, cost: f64) {
        let ei = 2 * link + usize::from(!forward);
        let e = p.net.edge(ei);
        p.net.add_edge(e.from, e.to, capacity, cost);
        p.origins.push(EdgeOrigin::Fake { link: LinkId(link), forward });
    }

    /// A cold solve that must certify (a refused certificate panics).
    fn solve(objective: TeObjective, p: &TeProblem) -> TeSolve {
        let solver = TeSolver::builder().objective(objective).build().unwrap();
        solver.solve_certified(p).unwrap().0
    }

    #[test]
    fn min_mlu_fig7_matches_hand_optimum() {
        // One A→B envelope of 150 against A's outgoing capacity of 200
        // (A-B 100 + A-C 100): splitting 100/50 leaves the bottleneck on
        // the direct A-B link at 100/100?? No: the optimum balances at
        // A-B 85.714.. vs paths through C. The true optimum is governed by
        // the max-flow structure; assert the LP invariants instead of a
        // brittle constant.
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(150.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let objective = TeObjective::MinMlu { traffic_matrices: vec![vec![150.0]] };
        let s = solve(objective, &p);
        let mlu = s.mlu.unwrap();
        // The envelope is routed exactly.
        assert!((s.solution.routed[0] - 150.0).abs() < 1e-6);
        // Realised utilisation never exceeds the reported mlu.
        let worst = s
            .solution
            .edge_flows
            .iter()
            .zip(p.net.edges())
            .filter(|(_, e)| e.capacity > 0.0)
            .map(|(f, e)| f / e.capacity)
            .fold(0.0f64, f64::max);
        assert!(worst <= mlu + 1e-6, "worst {worst} vs mlu {mlu}");
        // 150 through a 200-capacity cut needs mlu ≥ 0.75; it is exactly
        // 0.75 when the flow balances both A-exits.
        assert!((mlu - 0.75).abs() < 1e-6, "mlu {mlu}");
    }

    #[test]
    fn min_mlu_envelope_dominates_single_matrices() {
        let p = fig7_two_commodities();
        let tms = vec![vec![80.0, 20.0], vec![30.0, 90.0]];
        let objective = TeObjective::MinMlu { traffic_matrices: tms.clone() };
        let s = solve(objective, &p);
        let envelope_mlu = s.mlu.unwrap();
        // Envelope routes max(80,30)=80 and max(20,90)=90.
        assert!((s.solution.routed[0] - 80.0).abs() < 1e-6);
        assert!((s.solution.routed[1] - 90.0).abs() < 1e-6);
        // Each individual matrix fits within the envelope's mlu.
        for tm in &tms {
            let single = TeObjective::MinMlu { traffic_matrices: vec![tm.clone()] };
            let st = solve(single, &p);
            assert!(
                st.mlu.unwrap() <= envelope_mlu + 1e-6,
                "single-TM mlu {} above envelope {envelope_mlu}",
                st.mlu.unwrap()
            );
        }
    }

    #[test]
    fn concurrent_flow_shares_shortfall() {
        let p = fig7_two_commodities();
        let s = solve(TeObjective::MaxConcurrentFlow, &p);
        let lambda = s.lambda.unwrap();
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda {lambda}");
        // Every commodity routes exactly λ·demand — that's the fairness.
        for (ki, c) in p.commodities.iter().enumerate() {
            assert!(
                (s.solution.routed[ki] - lambda * c.demand).abs() < 1e-6,
                "commodity {ki} routed {} at lambda {lambda}",
                s.solution.routed[ki]
            );
        }
        s.solution.validate(&p).unwrap();
    }

    #[test]
    fn concurrent_flow_hits_one_when_demands_fit() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(50.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let s = solve(TeObjective::MaxConcurrentFlow, &p);
        assert!((s.lambda.unwrap() - 1.0).abs() < 1e-6);
        assert!((s.solution.routed[0] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn unsplittable_gadget_respects_guard_capacity() {
        // Fig. 7's A–B link (100 G) with a 100 G rung on A→B, and 300 G
        // demanded A→B. Inside the gadget the internal real (100) and
        // fake (200) parallels would take 300; the guard holds the link
        // to 200, so the whole cut (guard 200 + A–C 100) routes 300 with
        // exactly 200 over A→B.
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(300.0), Priority::Elastic);
        let mut p = TeProblem::from_wan(&wan, &dm);
        add_fake(&mut p, 0, true, 100.0, 1.0);
        let lowered = TeFormulation::new(TeObjective::Unsplittable).lower(&p).unwrap();
        let inner = &lowered.routing_problem().net;
        let n = p.net.n_nodes();
        let guard = inner.edges().iter().find(|e| e.from == a.0 && e.to >= n).unwrap();
        let parallels: f64 =
            inner.edges().iter().filter(|e| e.from == guard.to).map(|e| e.capacity).sum();
        assert_eq!((guard.capacity, parallels), (200.0, 300.0));

        let s = solve(TeObjective::Unsplittable, &p);
        s.solution.validate(&p).unwrap();
        assert!((s.solution.total - 300.0).abs() < 1e-6, "total {}", s.solution.total);
        let fake_ei = p.net.n_edges() - 1;
        let over_ab = s.solution.edge_flows[0] + s.solution.edge_flows[fake_ei];
        assert!((over_ab - guard.capacity).abs() < 1e-6, "A→B carries {over_ab}");
        assert!((s.solution.edge_flows[fake_ei] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn unsplittable_matches_max_throughput_without_fakes() {
        // With no fake edges the gadget is the identity.
        let p = fig7_two_commodities();
        let s = solve(TeObjective::Unsplittable, &p);
        let t = solve(TeObjective::MaxThroughput, &p);
        assert!((s.solution.total - t.solution.total).abs() < 1e-6);
        s.solution.validate(&p).unwrap();
    }

    #[test]
    fn capacity_reduction_reports_unused_slices() {
        // Two links carry deletable slices; demand only needs one of them.
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(150.0), Priority::Elastic);
        let mut p = TeProblem::from_wan(&wan, &dm);
        // Slice on link 0 (A–B direct, forward) and on link 4 (C–D).
        add_fake(&mut p, 0, true, 100.0, 0.5);
        add_fake(&mut p, 4, true, 100.0, 0.5);
        let s = solve(TeObjective::CapacityReduction, &p);
        let sr = s.reductions.unwrap();
        // 150 fits through A's 200-capacity cut without either slice —
        // costs push flow off the fakes, so both slices are deletable.
        assert_eq!(sr, vec![LinkId(0), LinkId(4)]);
        // Raise demand to 250: the A–B slice becomes load-bearing while
        // the C–D slice stays idle.
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(250.0), Priority::Elastic);
        let mut p2 = TeProblem::from_wan(&wan, &dm);
        add_fake(&mut p2, 0, true, 100.0, 0.5);
        add_fake(&mut p2, 4, true, 100.0, 0.5);
        let s2 = solve(TeObjective::CapacityReduction, &p2);
        assert_eq!(s2.reductions.unwrap(), vec![LinkId(4)]);
    }

    #[test]
    fn every_objective_certifies_on_fig7() {
        // Each objective's optimum carries a valid certificate (asserted
        // in `solve`), validates against the problem it came from, and
        // reports exactly the extras its objective owns.
        let p = fig7_two_commodities();
        let tms = vec![vec![60.0, 40.0], vec![20.0, 80.0]];
        let objectives = [
            TeObjective::MaxThroughput,
            TeObjective::MinMlu { traffic_matrices: tms },
            TeObjective::MaxConcurrentFlow,
            TeObjective::Unsplittable,
            TeObjective::CapacityReduction,
        ];
        for objective in objectives {
            let name = objective.algorithm_name();
            let s = solve(objective.clone(), &p);
            s.solution.validate(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
            let extras = (s.mlu.is_some(), s.lambda.is_some(), s.reductions.is_some());
            let want = match objective {
                TeObjective::MinMlu { .. } => (true, false, false),
                TeObjective::MaxConcurrentFlow => (false, true, false),
                TeObjective::CapacityReduction => (false, false, true),
                _ => (false, false, false),
            };
            assert_eq!(extras, want, "{name}");
        }
    }

    #[test]
    fn fingerprints_separate_objectives_and_traffic() {
        let base = TeFormulation::default();
        let mlu_a = TeFormulation::new(TeObjective::MinMlu {
            traffic_matrices: vec![vec![1.0, 2.0]],
        });
        let mlu_b = TeFormulation::new(TeObjective::MinMlu {
            traffic_matrices: vec![vec![1.0, 3.0]],
        });
        let fair = TeFormulation::new(TeObjective::MaxConcurrentFlow);
        let prints = [
            base.fingerprint(),
            mlu_a.fingerprint(),
            mlu_b.fingerprint(),
            fair.fingerprint(),
        ];
        for (i, a) in prints.iter().enumerate() {
            for b in &prints[i + 1..] {
                assert_ne!(a, b, "fingerprint collision");
            }
        }
        // Stable across calls.
        assert_eq!(base.fingerprint(), TeFormulation::default().fingerprint());
    }

    #[test]
    fn invalid_configs_rejected() {
        let ragged = TeFormulation::new(TeObjective::MinMlu {
            traffic_matrices: vec![vec![1.0, 2.0], vec![1.0]],
        });
        assert!(matches!(ragged.validate(), Err(TeError::InvalidConfig { .. })));
        let negative = TeFormulation::new(TeObjective::MinMlu {
            traffic_matrices: vec![vec![-1.0]],
        });
        assert!(matches!(negative.validate(), Err(TeError::InvalidConfig { .. })));
        let bad_weight =
            TeFormulation { objective: TeObjective::MaxThroughput, throughput_weight: f64::NAN };
        assert!(matches!(bad_weight.validate(), Err(TeError::InvalidConfig { .. })));
        // Shape mismatch against a concrete problem surfaces at lower().
        let p = fig7_two_commodities();
        let wrong_k =
            TeFormulation::new(TeObjective::MinMlu { traffic_matrices: vec![vec![1.0]] });
        assert!(matches!(wrong_k.lower(&p), Err(TeError::InvalidConfig { .. })));
    }

    #[test]
    fn hostile_demands_are_refused_before_the_engine() {
        // A negative demand would put a max-throughput demand row outside
        // the origin-feasible class; NaN and ∞ would not be finite. Every
        // objective refuses each one as a configuration error naming the
        // commodity, before anything is lowered or solved.
        let objectives = [
            TeObjective::MaxThroughput,
            TeObjective::MinMlu { traffic_matrices: vec![] },
            TeObjective::MaxConcurrentFlow,
            TeObjective::Unsplittable,
            TeObjective::CapacityReduction,
        ];
        for objective in objectives {
            for bad in [-5.0, f64::NAN, f64::INFINITY] {
                let mut p = fig7_two_commodities();
                p.commodities[1].demand = bad;
                let name = objective.algorithm_name();
                let solver = TeSolver::builder().objective(objective.clone()).build().unwrap();
                match solver.solve_detailed(&p) {
                    Err(TeError::InvalidConfig { detail, .. }) => {
                        assert!(detail.contains("commodity 1"), "{name}, {bad}: {detail}")
                    }
                    other => panic!("{name}, {bad}: expected InvalidConfig, got {other:?}"),
                }
                let lowered = TeFormulation::new(objective.clone()).lower(&p);
                assert!(matches!(lowered, Err(TeError::InvalidConfig { .. })), "{name}, {bad}");
            }
        }
    }
}
