//! The paper's Fig. 8 unsplittable-upgrade gadget, as the
//! [`TeObjective::Unsplittable`](crate::TeObjective::Unsplittable)
//! lowering routes on it.
//!
//! Plain augmentation puts an upgradable 100 G link in G′ as two parallel
//! edges, 100 real and 100 fake, so no single path carries a 200 G flow.
//! [`GadgetLowering`] splits such a link through an auxiliary node: one
//! internal edge per rung at the link's full rate on that rung, behind a
//! guard that caps the link at its fastest rate. [`GadgetLowering::map_back`]
//! folds the inner flows onto the original real edge and rungs, which is
//! what `translate` reads upgrades from.

use crate::problem::{EdgeOrigin, TeProblem};
use rwc_flow::network::FlowNetwork;
use std::collections::BTreeMap;

/// Where an original edge's flow is read back from the gadget solution.
#[derive(Debug, Clone, Copy)]
enum FlowReadback {
    /// Copied straight from an inner edge.
    Copy(usize),
    /// The real member of a gadget group: `min(combined, capacity)`.
    GroupReal(usize),
    /// Fake rung `slot` of a gadget group: its share of the remainder.
    GroupFake(usize, usize),
}

/// One split link direction: guard `u→w`, internal real `w→v`, internal
/// fake rungs `w→v`.
#[derive(Debug, Clone)]
struct GadgetGroup {
    /// Inner index of the guard edge.
    guard: usize,
    /// Inner index of the zero-cost internal real edge.
    real: usize,
    /// Inner indices of the internal fake rungs, original-index order.
    fakes: Vec<usize>,
    /// Capacity of the original real edge.
    real_cap: f64,
    /// Capacities of the original fake rungs, same order as `fakes`.
    fake_caps: Vec<f64>,
}

/// The Fig. 8 node-splitting expansion of an augmented problem.
#[derive(Debug, Clone)]
pub(crate) struct GadgetLowering {
    /// The expanded problem the LP routes on.
    pub(crate) inner: TeProblem,
    groups: Vec<GadgetGroup>,
    /// Per original edge: how to read its flow out of the inner solution.
    readback: Vec<FlowReadback>,
}

impl GadgetLowering {
    /// Splits every real edge that carries fake upgrade rungs through an
    /// auxiliary node: a guard `u→w` at the fastest rate (current + all
    /// increments) with the real edge's cost, a zero-cost internal real
    /// `w→v` at current capacity, and one internal fake `w→v` per rung at
    /// the link's full rate on that rung (current + the increments up to
    /// it) and the rung's penalty. A single path through the fake rung
    /// carries the whole upgraded rate and the guard caps the link at
    /// it — the paper's unsplittable-upgrade construction — while edges
    /// without rungs copy through unchanged. The LP stays fractional; the
    /// gadget only makes the single path exist. Deterministic: original
    /// edge order drives construction, so the inner layout (and the LP
    /// tie-breaks) never depend on map iteration order. The layout
    /// depends on the problem's shape alone; [`Self::refresh`] writes its
    /// values.
    pub(crate) fn build(problem: &TeProblem) -> GadgetLowering {
        // Fake rungs per (link, forward), in original edge order.
        let mut rungs: BTreeMap<(usize, bool), Vec<usize>> = BTreeMap::new();
        for (ei, origin) in problem.origins.iter().enumerate() {
            if let EdgeOrigin::Fake { link, forward } = origin {
                rungs.entry((link.0, *forward)).or_default().push(ei);
            }
        }
        // The real edge each rung group attaches to (first occurrence).
        let mut real_of: BTreeMap<(usize, bool), usize> = BTreeMap::new();
        for (ei, origin) in problem.origins.iter().enumerate() {
            if let EdgeOrigin::Real { link, forward } = origin {
                real_of.entry((link.0, *forward)).or_insert(ei);
            }
        }

        let mut inner = FlowNetwork::new(problem.net.n_nodes());
        let mut origins = Vec::new();
        let mut groups: Vec<GadgetGroup> = Vec::new();
        // Every entry is overwritten below: each edge copies through or
        // belongs to the group of its link direction.
        let mut readback = vec![FlowReadback::Copy(usize::MAX); problem.net.n_edges()];
        for (ei, origin) in problem.origins.iter().enumerate() {
            let e = problem.net.edge(ei);
            match origin {
                EdgeOrigin::Real { link, forward }
                    if rungs.contains_key(&(link.0, *forward))
                        && real_of[&(link.0, *forward)] == ei =>
                {
                    let fake_idx = &rungs[&(link.0, *forward)];
                    let aux = inner.add_node();
                    let guard = inner.add_edge(e.from, aux, 0.0, 0.0);
                    origins.push(EdgeOrigin::Auxiliary);
                    let real = inner.add_edge(aux, e.to, 0.0, 0.0);
                    origins.push(EdgeOrigin::Real { link: *link, forward: *forward });
                    let mut fakes = Vec::with_capacity(fake_idx.len());
                    for (slot, &fi) in fake_idx.iter().enumerate() {
                        fakes.push(inner.add_edge(aux, e.to, 0.0, 0.0));
                        origins.push(EdgeOrigin::Fake { link: *link, forward: *forward });
                        readback[fi] = FlowReadback::GroupFake(groups.len(), slot);
                    }
                    readback[ei] = FlowReadback::GroupReal(groups.len());
                    groups.push(GadgetGroup {
                        guard,
                        real,
                        real_cap: 0.0,
                        fake_caps: vec![0.0; fakes.len()],
                        fakes,
                    });
                }
                EdgeOrigin::Fake { link, forward } if real_of.contains_key(&(link.0, *forward)) => {
                    // Represented inside its group; readback set above (or
                    // below, if the real edge comes later — it never does
                    // in `from_wan` + augmentation order, but the group
                    // construction keys on the real edge either way).
                }
                _ => {
                    let idx = inner.add_edge(e.from, e.to, 0.0, 0.0);
                    origins.push(*origin);
                    readback[ei] = FlowReadback::Copy(idx);
                }
            }
        }
        let inner = TeProblem {
            net: inner,
            origins,
            commodities: problem.commodities.clone(),
            demands: problem.demands.clone(),
        };
        let mut gadget = GadgetLowering { inner, groups, readback };
        gadget.refresh(problem);
        gadget
    }

    /// Writes `problem`'s values into the layout [`Self::build`] made for
    /// a problem of the same shape: inner capacities and costs, each
    /// rung's and guard's full rate, the `real_cap` / `fake_caps`
    /// (increments) that [`Self::map_back`] reads, and the demands.
    pub(crate) fn refresh(&mut self, problem: &TeProblem) {
        let net = &mut self.inner.net;
        for (e, rb) in problem.net.edges().iter().zip(&self.readback) {
            match *rb {
                FlowReadback::Copy(idx) => {
                    net.set_capacity(idx, e.capacity);
                    net.set_cost(idx, e.cost);
                }
                FlowReadback::GroupReal(gi) => {
                    let g = &mut self.groups[gi];
                    g.real_cap = e.capacity;
                    net.set_capacity(g.real, e.capacity);
                    net.set_cost(g.guard, e.cost);
                }
                FlowReadback::GroupFake(gi, slot) => {
                    let g = &mut self.groups[gi];
                    g.fake_caps[slot] = e.capacity;
                    net.set_cost(g.fakes[slot], e.cost);
                }
            }
        }
        // After the walk: a group's real edge may follow its rungs.
        for g in &self.groups {
            let mut rate = g.real_cap;
            for (&fake, &increment) in g.fakes.iter().zip(&g.fake_caps) {
                rate += increment;
                net.set_capacity(fake, rate);
            }
            net.set_capacity(g.guard, g.real_cap + g.fake_caps.iter().sum::<f64>());
        }
        self.inner.commodities.copy_from_slice(&problem.commodities);
        self.inner.demands.clone_from_slice(&problem.demands);
    }

    /// Folds inner-edge flows back onto the original edge set: each
    /// group's combined flow fills the real edge up to its capacity, and
    /// the remainder fills the fake rungs in ladder order (the guard edge
    /// guarantees the remainder fits). Guard/aux flows vanish.
    pub(crate) fn map_back(&self, inner_flows: &[f64], problem: &TeProblem) -> Vec<f64> {
        let combined: Vec<f64> = self
            .groups
            .iter()
            .map(|g| {
                inner_flows[g.real] + g.fakes.iter().map(|&fi| inner_flows[fi]).sum::<f64>()
            })
            .collect();
        let mut flows = vec![0.0; problem.net.n_edges()];
        for (ei, rb) in self.readback.iter().enumerate() {
            flows[ei] = match *rb {
                FlowReadback::Copy(idx) => inner_flows[idx],
                FlowReadback::GroupReal(gi) => combined[gi].min(self.groups[gi].real_cap),
                FlowReadback::GroupFake(gi, slot) => {
                    let g = &self.groups[gi];
                    let mut leftover = (combined[gi] - g.real_cap).max(0.0);
                    for s in 0..slot {
                        leftover = (leftover - g.fake_caps[s]).max(0.0);
                    }
                    if slot + 1 == g.fake_caps.len() {
                        // Last rung absorbs any numerical residue so the
                        // folded flows conserve exactly.
                        leftover
                    } else {
                        leftover.min(g.fake_caps[slot])
                    }
                }
            };
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandMatrix;
    use rwc_topology::builders;
    use rwc_topology::wan::{LinkId, WanTopology};

    /// One A–B link at 100 G whose rungs add `increments` (both
    /// directions, penalty 100 per unit): original edges are the forward
    /// and reverse real edges, then the rungs, forward before reverse.
    fn one_link_problem(increments: &[f64]) -> TeProblem {
        let mut wan = WanTopology::new();
        let a = wan.add_node("A", None);
        let b = wan.add_node("B", None);
        wan.add_link(a, b, 400.0);
        let mut p = TeProblem::from_wan(&wan, &DemandMatrix::new());
        for &inc in increments {
            for forward in [true, false] {
                let e = p.net.edge(usize::from(!forward));
                p.net.add_edge(e.from, e.to, inc, 100.0);
                p.origins.push(EdgeOrigin::Fake { link: LinkId(0), forward });
            }
        }
        p
    }

    /// `(capacity, cost)` of inner edge `ei`.
    fn edge(g: &GadgetLowering, ei: usize) -> (f64, f64) {
        let e = g.inner.net.edge(ei);
        (e.capacity, e.cost)
    }

    #[test]
    fn gadget_structure() {
        // Both directions split: two auxiliary nodes, three edges each.
        let g = GadgetLowering::build(&one_link_problem(&[100.0]));
        assert_eq!((g.inner.net.n_nodes(), g.inner.net.n_edges()), (4, 6));
        assert_eq!(g.groups.len(), 2);
        let fwd = &g.groups[0];
        assert_eq!(edge(&g, fwd.guard), (200.0, 0.0));
        assert_eq!(edge(&g, fwd.real), (100.0, 0.0));
        assert_eq!(edge(&g, fwd.fakes[0]), (200.0, 100.0));
    }

    #[test]
    fn unsplittable_200g_single_path_exists() {
        // Fig. 8's point: plain augmentation's 100 + 100 parallels carry
        // at most 100 on one path; the gadget has a single 200 G path.
        let g = GadgetLowering::build(&one_link_problem(&[100.0]));
        assert_eq!(rwc_flow::widest_path(&g.inner.net, 0, 1), 200.0);
    }

    #[test]
    fn total_capacity_capped_at_upgraded_rate() {
        // Max-flow through the gadget is 200, not real 100 + fake 200.
        let g = GadgetLowering::build(&one_link_problem(&[100.0]));
        let f = rwc_flow::max_flow(&g.inner.net, 0, 1);
        assert!((f.value - 200.0).abs() < 1e-9, "value={}", f.value);
    }

    #[test]
    fn min_cost_prefers_real_capacity_first() {
        // 80 G fits the current rate: min-cost flow stays on the free
        // internal real edge and pays nothing.
        let g = GadgetLowering::build(&one_link_problem(&[100.0]));
        let fwd = &g.groups[0];
        let r = rwc_flow::mincost::min_cost_flow_up_to(&g.inner.net, 0, 1, 80.0);
        assert!((r.flow.edge_flows[fwd.real] - 80.0).abs() < 1e-9);
        assert!(r.flow.edge_flows[fwd.fakes[0]] < 1e-9);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn multi_rung_links_carry_full_rates() {
        // 100 → 125 → 150 → 200: each internal rung is the link's whole
        // rate at that rung; the guard is the fastest.
        let g = GadgetLowering::build(&one_link_problem(&[25.0, 25.0, 50.0]));
        let fwd = &g.groups[0];
        let caps: Vec<f64> = fwd.fakes.iter().map(|&fi| edge(&g, fi).0).collect();
        assert_eq!(caps, vec![125.0, 150.0, 200.0]);
        assert_eq!(edge(&g, fwd.guard).0, 200.0);
    }

    #[test]
    fn non_upgradable_links_stay_plain() {
        // No rungs anywhere: no auxiliary node, every edge copied through.
        let p = TeProblem::from_wan(&builders::fig7_example(), &DemandMatrix::new());
        let g = GadgetLowering::build(&p);
        assert!(g.groups.is_empty());
        assert_eq!(g.inner.net.n_nodes(), 4, "no auxiliary nodes");
        assert_eq!(g.inner.net.n_edges(), 8);
        assert_eq!(g.inner.net.edges(), p.net.edges());
    }

    #[test]
    fn trickle_on_fake_edge_is_not_an_upgrade() {
        // 100 → 150 → 200. Original edges: 0/1 real, 2/3 first rung,
        // 4/5 second rung.
        let p = one_link_problem(&[50.0, 50.0]);
        let g = GadgetLowering::build(&p);
        let fwd = &g.groups[0];
        let mut flows = vec![0.0; g.inner.net.n_edges()];
        flows[fwd.guard] = 60.0;
        flows[fwd.fakes[0]] = 60.0; // fits within the current 100 G
        assert_eq!(g.map_back(&flows, &p), vec![60.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        flows[fwd.real] = 80.0; // combined 140 > 100
        flows[fwd.guard] = 140.0;
        let folded = g.map_back(&flows, &p);
        assert_eq!(
            (folded[0], folded[2], folded[4]),
            (100.0, 40.0, 0.0),
            "140 G fits the 150 rung"
        );
    }

    #[test]
    fn upgrade_readout() {
        // A 200 G min-cost max-flow folds back as the full real edge plus
        // the whole rung: the link is read as upgraded to 200 G.
        let p = one_link_problem(&[100.0]);
        let g = GadgetLowering::build(&p);
        let mc = rwc_flow::min_cost_max_flow(&g.inner.net, 0, 1);
        let folded = g.map_back(&mc.flow.edge_flows, &p);
        assert_eq!(folded, vec![100.0, 0.0, 100.0, 0.0]);
    }
}
