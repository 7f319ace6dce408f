//! The shared TE problem representation.
//!
//! All solvers consume a [`TeProblem`]: a [`FlowNetwork`] (whose edges may
//! include fake upgrade links injected by `rwc-core` — solvers cannot
//! tell), a commodity list derived from a [`DemandMatrix`], and bookkeeping
//! that maps flow edges back to WAN links for reporting.

use crate::demand::{Demand, DemandMatrix, Priority};
use rwc_flow::network::FlowNetwork;
use rwc_topology::wan::{LinkId, WanTopology};
use std::fmt;

/// One traffic demand as the solvers see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// Origin node.
    pub source: usize,
    /// Destination node.
    pub sink: usize,
    /// Offered load (flow is capped at this).
    pub demand: f64,
}

/// Where a flow edge came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeOrigin {
    /// Direction `a→b` (`forward = true`) or `b→a` of a real WAN link.
    Real {
        /// The WAN link.
        link: LinkId,
        /// True for the `a→b` direction.
        forward: bool,
    },
    /// A fake upgrade edge injected by the graph abstraction.
    Fake {
        /// The WAN link this fake edge would upgrade.
        link: LinkId,
        /// True for the `a→b` direction.
        forward: bool,
    },
    /// Gadget plumbing (e.g. the unsplittable-flow intermediate nodes).
    Auxiliary,
}

/// A TE problem instance.
#[derive(Debug, Clone)]
pub struct TeProblem {
    /// The (possibly augmented) flow network.
    pub net: FlowNetwork,
    /// Origin of each flow edge, parallel to `net.edges()`.
    pub origins: Vec<EdgeOrigin>,
    /// Commodities, parallel to `demands`.
    pub commodities: Vec<Commodity>,
    /// The demands the commodities came from.
    pub demands: Vec<Demand>,
}

impl TeProblem {
    /// Builds the unaugmented problem: two directed flow edges per WAN
    /// link at its current capacity, one commodity per demand.
    pub fn from_wan(wan: &WanTopology, demands: &DemandMatrix) -> TeProblem {
        let mut net = FlowNetwork::new(wan.n_nodes());
        let mut origins = Vec::with_capacity(wan.n_links() * 2);
        for (id, l) in wan.links() {
            net.add_edge(l.a.0, l.b.0, l.capacity().value(), 0.0);
            origins.push(EdgeOrigin::Real { link: id, forward: true });
            net.add_edge(l.b.0, l.a.0, l.capacity().value(), 0.0);
            origins.push(EdgeOrigin::Real { link: id, forward: false });
        }
        let commodities = demands
            .demands()
            .iter()
            .map(|d| Commodity { source: d.from.0, sink: d.to.0, demand: d.volume.value() })
            .collect();
        TeProblem { net, origins, commodities, demands: demands.demands().to_vec() }
    }

    /// Overrides the capacity of both directed edges of a WAN link
    /// (edges `2·link` and `2·link + 1` in the `from_wan` layout). Used to
    /// model drained or failed links without touching the topology.
    pub fn override_link_capacity(&mut self, link: LinkId, capacity: f64) {
        assert!(2 * link.0 + 1 < self.net.n_edges(), "link out of range");
        let mut net = FlowNetwork::new(self.net.n_nodes());
        for (i, e) in self.net.edges().iter().enumerate() {
            let cap = if i / 2 == link.0 { capacity } else { e.capacity };
            net.add_edge(e.from, e.to, cap, e.cost);
        }
        self.net = net;
    }

    /// Indices of commodities in a priority class.
    pub fn commodities_of(&self, p: Priority) -> Vec<usize> {
        self.demands
            .iter()
            .enumerate()
            .filter(|(_, d)| d.priority == p)
            .map(|(i, _)| i)
            .collect()
    }
}

/// A TE solution: per-commodity routed volume plus aggregate edge flows.
#[derive(Debug, Clone, PartialEq)]
pub struct TeSolution {
    /// Routed volume per commodity (same order as `TeProblem::commodities`).
    pub routed: Vec<f64>,
    /// Aggregate flow per edge (same order as the problem's network edges).
    pub edge_flows: Vec<f64>,
    /// Total routed volume.
    pub total: f64,
}

/// Why a [`TeSolution`] failed validation against its problem.
///
/// Typed so callers (and the `RwcError` hierarchy in `rwc-core`) can react
/// per-violation — e.g. a capacity overrun after a drift round is a solver
/// bug, while an edge-count mismatch means the solution is being checked
/// against the wrong (augmented vs. unaugmented) problem.
#[derive(Debug, Clone, PartialEq)]
pub enum TeValidationError {
    /// `edge_flows` is not parallel to the problem's edge list.
    EdgeCountMismatch {
        /// Edge count of the problem's flow network.
        expected: usize,
        /// Length of the solution's `edge_flows`.
        actual: usize,
    },
    /// An edge carries (beyond tolerance) negative flow.
    NegativeFlow {
        /// Offending edge index.
        edge: usize,
        /// The negative flow value.
        flow: f64,
    },
    /// An edge carries more flow than its capacity (beyond tolerance).
    CapacityExceeded {
        /// Offending edge index.
        edge: usize,
        /// Flow on the edge.
        flow: f64,
        /// The edge's capacity.
        capacity: f64,
    },
    /// A commodity routes more than it asked for (beyond tolerance).
    DemandExceeded {
        /// Offending commodity index.
        commodity: usize,
        /// Routed volume.
        routed: f64,
        /// The commodity's demand.
        demand: f64,
    },
    /// The declared `total` disagrees with the sum of `routed`.
    TotalMismatch {
        /// The declared total.
        total: f64,
        /// What `routed` actually sums to.
        routed_sum: f64,
    },
}

impl fmt::Display for TeValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeValidationError::EdgeCountMismatch { expected, actual } => {
                write!(f, "edge flow length mismatch: expected {expected}, got {actual}")
            }
            TeValidationError::NegativeFlow { edge, flow } => {
                write!(f, "edge {edge}: negative flow {flow}")
            }
            TeValidationError::CapacityExceeded { edge, flow, capacity } => {
                write!(f, "edge {edge}: {flow} exceeds capacity {capacity}")
            }
            TeValidationError::DemandExceeded { commodity, routed, demand } => {
                write!(f, "commodity {commodity}: routed {routed} above demand {demand}")
            }
            TeValidationError::TotalMismatch { total, routed_sum } => {
                write!(f, "total {total} but routed sums to {routed_sum}")
            }
        }
    }
}

impl std::error::Error for TeValidationError {}

impl TeSolution {
    /// Validates against the problem: capacities, demand caps, and (for the
    /// aggregate) per-node balance of total in/out adjusted for terminals.
    pub fn validate(&self, problem: &TeProblem) -> Result<(), TeValidationError> {
        if self.edge_flows.len() != problem.net.n_edges() {
            return Err(TeValidationError::EdgeCountMismatch {
                expected: problem.net.n_edges(),
                actual: self.edge_flows.len(),
            });
        }
        for (i, (&f, e)) in self.edge_flows.iter().zip(problem.net.edges()).enumerate() {
            if f < -1e-6 {
                return Err(TeValidationError::NegativeFlow { edge: i, flow: f });
            }
            if f > e.capacity + 1e-6 {
                return Err(TeValidationError::CapacityExceeded {
                    edge: i,
                    flow: f,
                    capacity: e.capacity,
                });
            }
        }
        for (k, (&r, c)) in self.routed.iter().zip(&problem.commodities).enumerate() {
            if r > c.demand + 1e-6 {
                return Err(TeValidationError::DemandExceeded {
                    commodity: k,
                    routed: r,
                    demand: c.demand,
                });
            }
        }
        let declared: f64 = self.routed.iter().sum();
        if (declared - self.total).abs() > 1e-6 {
            return Err(TeValidationError::TotalMismatch { total: self.total, routed_sum: declared });
        }
        Ok(())
    }

    /// Fraction of offered demand satisfied.
    pub fn satisfaction(&self, problem: &TeProblem) -> f64 {
        let offered: f64 = problem.commodities.iter().map(|c| c.demand).sum();
        if offered <= 0.0 {
            1.0
        } else {
            self.total / offered
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    #[test]
    fn from_wan_shape() {
        let wan = builders::fig7_example();
        let mut dm = DemandMatrix::new();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        dm.add(a, b, Gbps(100.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        assert_eq!(p.net.n_nodes(), 4);
        assert_eq!(p.net.n_edges(), 8, "two directions per link");
        assert_eq!(p.commodities.len(), 1);
        assert_eq!(p.commodities[0].demand, 100.0);
        assert!(matches!(p.origins[0], EdgeOrigin::Real { forward: true, .. }));
        assert!(matches!(p.origins[1], EdgeOrigin::Real { forward: false, .. }));
    }

    #[test]
    fn capacities_follow_modulation() {
        let mut wan = builders::fig7_example();
        wan.set_modulation(rwc_topology::wan::LinkId(0), rwc_optics::Modulation::Dp16Qam200);
        let p = TeProblem::from_wan(&wan, &DemandMatrix::new());
        assert_eq!(p.net.edge(0).capacity, 200.0);
        assert_eq!(p.net.edge(2).capacity, 100.0);
    }

    #[test]
    fn priority_partition() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(10.0), Priority::Interactive);
        dm.add(a, b, Gbps(20.0), Priority::Background);
        dm.add(b, a, Gbps(5.0), Priority::Interactive);
        let p = TeProblem::from_wan(&wan, &dm);
        assert_eq!(p.commodities_of(Priority::Interactive), vec![0, 2]);
        assert_eq!(p.commodities_of(Priority::Background), vec![1]);
        assert!(p.commodities_of(Priority::Elastic).is_empty());
    }

    #[test]
    fn solution_validation() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(50.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let mut flows = vec![0.0; p.net.n_edges()];
        // Direct A→B edge is edge 0 (link 0 forward).
        flows[0] = 50.0;
        let sol = TeSolution { routed: vec![50.0], edge_flows: flows, total: 50.0 };
        sol.validate(&p).unwrap();
        assert!((sol.satisfaction(&p) - 1.0).abs() < 1e-12);
        let bad = TeSolution { routed: vec![200.0], edge_flows: vec![0.0; 10], total: 200.0 };
        assert_eq!(
            bad.validate(&p),
            Err(TeValidationError::EdgeCountMismatch { expected: 8, actual: 10 })
        );
    }

    #[test]
    fn validation_errors_are_typed_per_violation() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(50.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let m = p.net.n_edges();

        let mut over = vec![0.0; m];
        over[0] = 150.0; // edge 0 capacity is 100
        let sol = TeSolution { routed: vec![50.0], edge_flows: over, total: 50.0 };
        assert_eq!(
            sol.validate(&p),
            Err(TeValidationError::CapacityExceeded { edge: 0, flow: 150.0, capacity: 100.0 })
        );

        let mut neg = vec![0.0; m];
        neg[3] = -1.0;
        let sol = TeSolution { routed: vec![0.0], edge_flows: neg, total: 0.0 };
        assert_eq!(sol.validate(&p), Err(TeValidationError::NegativeFlow { edge: 3, flow: -1.0 }));

        let sol = TeSolution { routed: vec![60.0], edge_flows: vec![0.0; m], total: 60.0 };
        assert_eq!(
            sol.validate(&p),
            Err(TeValidationError::DemandExceeded { commodity: 0, routed: 60.0, demand: 50.0 })
        );

        let sol = TeSolution { routed: vec![40.0], edge_flows: vec![0.0; m], total: 41.0 };
        assert_eq!(
            sol.validate(&p),
            Err(TeValidationError::TotalMismatch { total: 41.0, routed_sum: 40.0 })
        );
        let msg = TeValidationError::TotalMismatch { total: 41.0, routed_sum: 40.0 }.to_string();
        assert!(msg.contains("41") && msg.contains("40"), "{msg}");
    }
}
