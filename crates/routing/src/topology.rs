//! Network topology description used by the routing controller.

use crate::controller::{CircuitPlan, PlanError};
use qn_hardware::heralding::LinkPhysics;
use qn_hardware::params::{FibreParams, HardwareParams};
use qn_sim::{LinkId, NodeId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

/// What a plan is a function of besides the links: head, tail, the
/// end-to-end fidelity's bits and the cutoff policy's key.
pub(crate) type PlanKey = (NodeId, NodeId, u64, (u8, u64));

/// One physical link of the network.
#[derive(Clone)]
pub struct LinkSpec {
    /// The link's identity.
    pub id: LinkId,
    /// Lower endpoint.
    pub a: NodeId,
    /// Upper endpoint.
    pub b: NodeId,
    /// The physics of the link (hardware + fibre).
    pub physics: LinkPhysics,
}

impl LinkSpec {
    /// The endpoint opposite `n`.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            debug_assert_eq!(n, self.b);
            self.a
        }
    }
}

/// The network graph: nodes and links with their physics.
///
/// A circuit plan is a pure function of the links, the end-nodes, the
/// fidelity target and the cutoff policy, so the topology remembers
/// every plan [`crate::Controller::plan`] derives on it, as each link's
/// [`LinkPhysics`] remembers its fidelity peak. [`Topology::add_link`]
/// forgets them all, and a clone starts with none.
#[derive(Default)]
pub struct Topology {
    links: Vec<LinkSpec>,
    adjacency: BTreeMap<NodeId, Vec<(NodeId, LinkId)>>,
    plans: Mutex<BTreeMap<PlanKey, Result<CircuitPlan, PlanError>>>,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        Topology {
            links: self.links.clone(),
            adjacency: self.adjacency.clone(),
            plans: Mutex::default(),
        }
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link between `a` and `b` with the given physics. Node ids
    /// are implicit — any id mentioned by a link exists. Forgets every
    /// remembered plan.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, physics: LinkPhysics) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        self.plans
            .get_mut()
            .expect("a plan derivation panicked")
            .clear();
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec { id, a, b, physics });
        self.adjacency.entry(a).or_default().push((b, id));
        self.adjacency.entry(b).or_default().push((a, id));
        id
    }

    /// The plan for `key`, derived by `derive` on first use and
    /// remembered. The lock is held while deriving, so no key is
    /// derived twice.
    pub(crate) fn plan(
        &self,
        key: PlanKey,
        derive: impl FnOnce() -> Result<CircuitPlan, PlanError>,
    ) -> Result<CircuitPlan, PlanError> {
        let mut plans = self.plans.lock().expect("a plan derivation panicked");
        plans.entry(key).or_insert_with(derive).clone()
    }

    /// Look up a link.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0 as usize]
    }

    /// All links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self.adjacency.keys().copied().collect();
        set.into_iter().collect()
    }

    /// Links attached to a node, deterministic order.
    pub fn links_of(&self, n: NodeId) -> Vec<LinkId> {
        self.adjacency
            .get(&n)
            .map(|v| v.iter().map(|(_, l)| *l).collect())
            .unwrap_or_default()
    }

    /// The link joining `a` and `b`, if adjacent.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency
            .get(&a)?
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    /// Shortest path by hop count (all links identical in the paper's
    /// evaluation). BFS with deterministic neighbour order.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for (next, _) in self.adjacency.get(&n).into_iter().flatten() {
                if *next == from || prev.contains_key(next) {
                    continue;
                }
                prev.insert(*next, n);
                if *next == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = prev.get(&cur) {
                        path.push(*p);
                        cur = *p;
                        if cur == from {
                            break;
                        }
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(*next);
            }
        }
        None
    }
}

/// Named handles for the paper's Fig 7 evaluation topology.
#[derive(Clone, Copy, Debug)]
pub struct Dumbbell {
    /// End-node A0.
    pub a0: NodeId,
    /// End-node A1.
    pub a1: NodeId,
    /// Router MA (A-side of the bottleneck).
    pub ma: NodeId,
    /// Router MB (B-side of the bottleneck).
    pub mb: NodeId,
    /// End-node B0.
    pub b0: NodeId,
    /// End-node B1.
    pub b1: NodeId,
}

/// Named handles for a widened dumbbell: `width` end-nodes per side
/// around the same MA–MB bottleneck (the scenario-diversity axis of the
/// sweep runner; `width = 2` is exactly the paper's Fig 7 topology).
#[derive(Clone, Debug)]
pub struct WideDumbbell {
    /// A-side end-nodes A0..A(width-1).
    pub ends_a: Vec<NodeId>,
    /// Router MA (A-side of the bottleneck).
    pub ma: NodeId,
    /// Router MB (B-side of the bottleneck).
    pub mb: NodeId,
    /// B-side end-nodes B0..B(width-1).
    pub ends_b: Vec<NodeId>,
}

impl WideDumbbell {
    /// End-nodes per side.
    pub fn width(&self) -> usize {
        self.ends_a.len()
    }

    /// The straight-across circuit endpoints (Ai, Bi).
    pub fn straight_pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.ends_a
            .iter()
            .zip(&self.ends_b)
            .map(|(a, b)| (*a, *b))
            .collect()
    }
}

/// Build a dumbbell with `width` end-nodes per side: A0..Aw — MA — MB —
/// B0..Bw with identical links; MA–MB is the shared bottleneck. Node
/// ids: A-side ends first, then MA, MB, then the B-side ends (so
/// `width = 2` reproduces the Fig 7 numbering exactly).
pub fn wide_dumbbell(
    width: usize,
    params: HardwareParams,
    fibre: FibreParams,
) -> (Topology, WideDumbbell) {
    assert!(
        width >= 1,
        "a dumbbell needs at least one end-node per side"
    );
    let w = width as u32;
    let handles = WideDumbbell {
        ends_a: (0..w).map(NodeId).collect(),
        ma: NodeId(w),
        mb: NodeId(w + 1),
        ends_b: (0..w).map(|i| NodeId(w + 2 + i)).collect(),
    };
    let mut t = Topology::new();
    let phys = LinkPhysics::new(params, fibre);
    for a in &handles.ends_a {
        t.add_link(*a, handles.ma, phys.clone());
    }
    t.add_link(handles.ma, handles.mb, phys.clone());
    for b in &handles.ends_b {
        t.add_link(handles.mb, *b, phys.clone());
    }
    (t, handles)
}

/// Build the Fig 7 dumbbell: A0,A1 — MA — MB — B0,B1 with identical
/// links; MA–MB is the bottleneck.
pub fn dumbbell(params: HardwareParams, fibre: FibreParams) -> (Topology, Dumbbell) {
    let (t, wide) = wide_dumbbell(2, params, fibre);
    let handles = Dumbbell {
        a0: wide.ends_a[0],
        a1: wide.ends_a[1],
        ma: wide.ma,
        mb: wide.mb,
        b0: wide.ends_b[0],
        b1: wide.ends_b[1],
    };
    (t, handles)
}

/// Build a linear chain of `n` nodes with identical links (Fig 11 uses
/// `n = 3` with 25 km telecom fibre).
pub fn chain(n: usize, params: HardwareParams, fibre: FibreParams) -> Topology {
    assert!(n >= 2);
    let mut t = Topology::new();
    let phys = LinkPhysics::new(params, fibre);
    for i in 0..n - 1 {
        t.add_link(NodeId(i as u32), NodeId(i as u32 + 1), phys.clone());
    }
    t
}

/// Build a `w × h` grid of nodes with identical links. Node ids are
/// row-major (`NodeId(y * w + x)`), dense from 0 — a requirement of the
/// runtime's per-node dense tables — with links to the right and down
/// neighbours. Grids give the open-world workload engine a topology
/// with genuine path diversity and interior routers that serve four
/// links at once.
pub fn grid(w: usize, h: usize, params: HardwareParams, fibre: FibreParams) -> Topology {
    assert!(w >= 1 && h >= 1, "a grid needs at least one node");
    assert!(w * h >= 2, "a grid needs at least one link");
    let mut t = Topology::new();
    let phys = LinkPhysics::new(params, fibre);
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                t.add_link(id(x, y), id(x + 1, y), phys.clone());
            }
            if y + 1 < h {
                t.add_link(id(x, y), id(x, y + 1), phys.clone());
            }
        }
    }
    t
}

/// Build a ring of `n` nodes with identical links — a topology with
/// genuine path choices (the shortest-path computation has to pick a
/// direction, and antipodal nodes have two equal-length candidates).
pub fn ring(n: usize, params: HardwareParams, fibre: FibreParams) -> Topology {
    assert!(n >= 3);
    let mut t = Topology::new();
    let phys = LinkPhysics::new(params, fibre);
    for i in 0..n {
        t.add_link(NodeId(i as u32), NodeId(((i + 1) % n) as u32), phys.clone());
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab() -> (HardwareParams, FibreParams) {
        (HardwareParams::simulation(), FibreParams::lab_2m())
    }

    #[test]
    fn dumbbell_shape() {
        let (p, f) = lab();
        let (t, d) = dumbbell(p, f);
        assert_eq!(t.links().len(), 5);
        assert_eq!(t.nodes().len(), 6);
        // A0 to B0 goes through MA and MB.
        let path = t.shortest_path(d.a0, d.b0).unwrap();
        assert_eq!(path, vec![d.a0, d.ma, d.mb, d.b0]);
        // The bottleneck link exists.
        assert!(t.link_between(d.ma, d.mb).is_some());
        assert!(t.link_between(d.a0, d.b0).is_none());
    }

    #[test]
    fn chain_paths() {
        let (p, f) = lab();
        let t = chain(5, p, f);
        let path = t.shortest_path(NodeId(0), NodeId(4)).unwrap();
        assert_eq!(path.len(), 5);
        assert_eq!(t.shortest_path(NodeId(2), NodeId(2)), Some(vec![NodeId(2)]));
    }

    #[test]
    fn no_path_between_disconnected() {
        let (p, f) = lab();
        let mut t = Topology::new();
        let phys = LinkPhysics::new(p, f);
        t.add_link(NodeId(0), NodeId(1), phys.clone());
        t.add_link(NodeId(2), NodeId(3), phys);
        assert!(t.shortest_path(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn links_of_node() {
        let (p, f) = lab();
        let (t, d) = dumbbell(p, f);
        assert_eq!(t.links_of(d.ma).len(), 3);
        assert_eq!(t.links_of(d.a0).len(), 1);
    }

    #[test]
    fn ring_takes_the_short_way_around() {
        let (p, f) = lab();
        let t = ring(6, p, f);
        assert_eq!(t.links().len(), 6);
        // 0 -> 2: two hops clockwise beats four hops the other way.
        let path = t.shortest_path(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(path.len(), 3);
        // 0 -> 3 is antipodal: either direction is 3 hops; the result
        // must be deterministic and length-3.
        let p1 = t.shortest_path(NodeId(0), NodeId(3)).unwrap();
        let p2 = t.shortest_path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 4);
    }

    #[test]
    fn wide_dumbbell_matches_fig7_at_width_2() {
        let (p, f) = lab();
        let (tw, w) = wide_dumbbell(2, p, f);
        let (td, d) = dumbbell(p, f);
        assert_eq!(tw.links().len(), td.links().len());
        for (lw, ld) in tw.links().iter().zip(td.links()) {
            assert_eq!((lw.a, lw.b), (ld.a, ld.b));
        }
        assert_eq!(w.straight_pairs(), vec![(d.a0, d.b0), (d.a1, d.b1)]);
    }

    #[test]
    fn wide_dumbbell_routes_through_the_bottleneck() {
        let (p, f) = lab();
        let (t, w) = wide_dumbbell(4, p, f);
        assert_eq!(t.nodes().len(), 10);
        assert_eq!(t.links().len(), 9);
        for (a, b) in w.straight_pairs() {
            let path = t.shortest_path(a, b).unwrap();
            assert_eq!(path, vec![a, w.ma, w.mb, b]);
        }
    }

    #[test]
    fn grid_shape_and_paths() {
        let (p, f) = lab();
        let t = grid(3, 3, p, f);
        assert_eq!(t.nodes().len(), 9);
        // 2 * w * h - w - h internal links.
        assert_eq!(t.links().len(), 12);
        // Node ids are dense row-major: every id in 0..9 appears.
        assert_eq!(
            t.nodes(),
            (0..9).map(NodeId).collect::<Vec<_>>(),
            "grid ids must be dense from 0 (runtime tables assume it)"
        );
        // Corner to corner is a 4-hop manhattan walk.
        let path = t.shortest_path(NodeId(0), NodeId(8)).unwrap();
        assert_eq!(path.len(), 5);
        // The centre serves four links.
        assert_eq!(t.links_of(NodeId(4)).len(), 4);
        // Degenerate 1 x n grid is a chain.
        let (p, f) = lab();
        let t = grid(1, 4, p, f);
        assert_eq!(t.links().len(), 3);
        assert_eq!(t.shortest_path(NodeId(0), NodeId(3)).unwrap().len(), 4);
    }

    #[test]
    fn routing_types_are_send() {
        // The seed sweeps (`qn_bench::run_sweep`) lend topologies and
        // plans to their worker threads; these bounds must never regress.
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<Topology>();
        is_send_sync::<LinkSpec>();
        is_send_sync::<Dumbbell>();
        is_send_sync::<WideDumbbell>();
        is_send_sync::<crate::CircuitPlan>();
        is_send_sync::<crate::CutoffPolicy>();
    }

    #[test]
    fn link_other_endpoint() {
        let (p, f) = lab();
        let (t, d) = dumbbell(p, f);
        let l = t.link_between(d.ma, d.mb).unwrap();
        assert_eq!(t.link(l).other(d.ma), d.mb);
        assert_eq!(t.link(l).other(d.mb), d.ma);
    }
}
