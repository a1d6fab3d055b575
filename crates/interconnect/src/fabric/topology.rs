//! Route-aware fabric layouts.
//!
//! A [`FabricLayout`] makes the wiring explicit: it enumerates the
//! directed links of the fabric and answers `route(from, to)` with the
//! ordered sequence of links a message must traverse, so the
//! [`Fabric`](crate::fabric::Fabric) engine can forward messages
//! hop-by-hop and charge each link's finite bandwidth.
//!
//! Three layouts are provided, run-time selectable through
//! [`TopologyKind`]:
//!
//! * [`TopologyKind::Line`] — a chain `0 — 1 — … — n-1`; every transfer
//!   between distant nodes crosses every intermediate link, so the links
//!   next to a hot endpoint saturate first,
//! * [`TopologyKind::Ring`] — the chain closed into a cycle; routes take
//!   the shorter direction (ties go clockwise), roughly halving the
//!   worst-case hop count and splitting a hot endpoint's traffic over two
//!   links,
//! * [`TopologyKind::FullyConnected`] — a dedicated link per ordered pair,
//!   so contention appears only at shared endpoint ports. With zero
//!   handoff this is the paper's NVSwitch crossbar: the fabric then prices
//!   it exactly as the closed-form max-min fluid allocation (see the
//!   exactness gates in `sweep_fabric` and `tests/fabric_properties.rs`).

use std::fmt;

use crate::link::Link;
use crate::InterconnectError;

/// A directed physical link between two adjacent fabric nodes.
///
/// Links are directed: `0 → 1` and `1 → 0` are distinct wires with
/// independent bandwidth (full duplex), matching NVLINK's per-direction
/// lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId {
    /// Transmitting node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.from, self.to)
    }
}

/// Default local handoff cost, µs: moving a message between a node's core
/// and its link controller. This — not the multi-hop transit — is the only
/// stall a sender pays (the fabric's routing hardware forwards
/// asynchronously).
pub const DEFAULT_HANDOFF_US: f64 = 0.5;

/// The physical layout of a message fabric: a [`TopologyKind`] over
/// `nodes` nodes, built by [`TopologyKind::build`].
///
/// The layout describes connectivity and per-hop costs; the
/// [`Fabric`](crate::fabric::Fabric) engine does the forwarding. Every
/// link shares the one [`Link`] class (a homogeneous fabric, like the
/// paper's NVLINK mesh): its effective bandwidth is each directed link's
/// capacity, and of each node egress/ingress port, so endpoint contention
/// is modeled even when pair links are private; its setup latency is paid
/// per hop.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricLayout {
    kind: TopologyKind,
    nodes: usize,
    link: Link,
    handoff_us: f64,
}

impl FabricLayout {
    /// Replace the local handoff cost (µs).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite value — handoff is a physical
    /// latency.
    pub fn with_handoff_us(mut self, handoff_us: f64) -> Self {
        assert!(
            handoff_us.is_finite() && handoff_us >= 0.0,
            "handoff_us must be finite and non-negative, got {handoff_us}"
        );
        self.handoff_us = handoff_us;
        self
    }

    /// Number of nodes in the fabric.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The per-link physical layer.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Local cost of moving a message between a node core and its link
    /// controller, µs — the only stall charged to the *sender*
    /// ([`Fabric::inject`](crate::fabric::Fabric::inject) returns it); the
    /// multi-hop transit runs asynchronously in the fabric.
    pub fn local_handoff_us(&self) -> f64 {
        self.handoff_us
    }

    /// Every physical directed link, for fabric initialization and
    /// per-link accounting. The order is deterministic per layout.
    pub fn links(&self) -> Vec<LinkId> {
        let n = self.nodes;
        let segments = match self.kind {
            TopologyKind::FullyConnected => {
                return (0..n)
                    .flat_map(|from| (0..n).map(move |to| LinkId { from, to }))
                    .filter(|l| l.from != l.to)
                    .collect();
            }
            TopologyKind::Ring if n >= 3 => n,
            // A 2-ring degenerates to the line's single bidirectional pair.
            TopologyKind::Line | TopologyKind::Ring => n.saturating_sub(1),
        };
        (0..segments)
            .flat_map(|i| {
                let j = (i + 1) % n;
                [LinkId { from: i, to: j }, LinkId { from: j, to: i }]
            })
            .collect()
    }

    /// The ordered directed links a message from `from` to `to` traverses.
    /// A self-route (`from == to`) is the empty route: the message never
    /// enters the fabric and is delivered after the local handoff alone.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::UnknownNode`] for an out-of-range
    /// endpoint.
    pub fn route(&self, from: usize, to: usize) -> Result<Vec<LinkId>, InterconnectError> {
        let n = self.nodes;
        for index in [from, to] {
            if index >= n {
                return Err(InterconnectError::UnknownNode { index, nodes: n });
            }
        }
        // Every hop moves `step` nodes up, modulo `n` (a `step` of `n - 1`
        // is one node down).
        let up = (to + n - from) % n;
        let (step, hops) = match self.kind {
            TopologyKind::FullyConnected => (up, usize::from(from != to)),
            TopologyKind::Line if to >= from => (1, up),
            TopologyKind::Line => (n - 1, from - to),
            // Shorter direction wins; ties go clockwise.
            TopologyKind::Ring if up <= n - up => (1, up),
            TopologyKind::Ring => (n - 1, n - up),
        };
        let mut route = Vec::with_capacity(hops);
        let mut at = from;
        for _ in 0..hops {
            let next = (at + step) % n;
            route.push(LinkId { from: at, to: next });
            at = next;
        }
        Ok(route)
    }
}

/// Run-time layout selection: the payload of the system model's fabric
/// transfer backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// A chain `0 — 1 — … — n-1`. Node positions are their indices.
    Line,
    /// The chain closed into a cycle: node `i` connects to `(i + 1) mod n`.
    Ring,
    /// A dedicated directed link per ordered node pair — the
    /// NVSwitch-like layout whose only contention is at shared endpoint
    /// ports.
    FullyConnected,
}

impl TopologyKind {
    /// Every selectable layout, worst-connected first.
    pub fn all() -> [TopologyKind; 3] {
        [
            TopologyKind::Line,
            TopologyKind::Ring,
            TopologyKind::FullyConnected,
        ]
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Line => "line",
            TopologyKind::Ring => "ring",
            TopologyKind::FullyConnected => "fully-connected",
        }
    }

    /// The layout over `nodes` nodes of `link`-class wires, with the
    /// [`DEFAULT_HANDOFF_US`] handoff.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] for zero nodes.
    pub fn build(&self, nodes: usize, link: Link) -> Result<FabricLayout, InterconnectError> {
        if nodes == 0 {
            return Err(InterconnectError::InvalidLink { parameter: "nodes" });
        }
        Ok(FabricLayout {
            kind: *self,
            nodes,
            link,
            handoff_us: DEFAULT_HANDOFF_US,
        })
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nv() -> Link {
        Link::nvlink2_x6()
    }

    #[test]
    fn line_routes_cross_every_intermediate_link() {
        let t = TopologyKind::Line.build(5, nv()).expect("valid");
        let r = t.route(0, 4).expect("in range");
        assert_eq!(
            r,
            vec![
                LinkId { from: 0, to: 1 },
                LinkId { from: 1, to: 2 },
                LinkId { from: 2, to: 3 },
                LinkId { from: 3, to: 4 },
            ]
        );
        let back = t.route(3, 1).expect("in range");
        assert_eq!(
            back,
            vec![LinkId { from: 3, to: 2 }, LinkId { from: 2, to: 1 }]
        );
        assert!(t.route(0, 0).expect("self route").is_empty());
        assert_eq!(t.links().len(), 8, "4 bidirectional segments");
    }

    #[test]
    fn ring_takes_the_shorter_direction() {
        let t = TopologyKind::Ring.build(6, nv()).expect("valid");
        assert_eq!(t.route(0, 1).expect("in range").len(), 1);
        // 0 -> 5 wraps counter-clockwise in one hop.
        assert_eq!(
            t.route(0, 5).expect("in range"),
            vec![LinkId { from: 0, to: 5 }]
        );
        // Antipodal distance ties go clockwise.
        assert_eq!(
            t.route(0, 3).expect("in range"),
            vec![
                LinkId { from: 0, to: 1 },
                LinkId { from: 1, to: 2 },
                LinkId { from: 2, to: 3 },
            ]
        );
        assert_eq!(t.links().len(), 12);
        // Every routed hop is a physical link.
        let links = t.links();
        for from in 0..6 {
            for to in 0..6 {
                for hop in t.route(from, to).expect("in range") {
                    assert!(links.contains(&hop), "{hop} not a physical link");
                }
            }
        }
    }

    #[test]
    fn two_node_ring_degenerates_to_a_line() {
        let r = TopologyKind::Ring.build(2, nv()).expect("valid");
        let l = TopologyKind::Line.build(2, nv()).expect("valid");
        let mut rl = r.links();
        let mut ll = l.links();
        rl.sort_unstable();
        ll.sort_unstable();
        assert_eq!(rl, ll, "no duplicate pair links on a 2-ring");
    }

    #[test]
    fn fully_connected_is_single_hop() {
        let t = TopologyKind::FullyConnected.build(4, nv()).expect("valid");
        for from in 0..4 {
            for to in 0..4 {
                let r = t.route(from, to).expect("in range");
                assert_eq!(r.len(), usize::from(from != to));
            }
        }
        assert_eq!(t.links().len(), 12, "n*(n-1) directed links");
    }

    #[test]
    fn out_of_range_nodes_rejected() {
        let t = TopologyKind::Ring.build(3, nv()).expect("valid");
        assert!(matches!(
            t.route(0, 3),
            Err(InterconnectError::UnknownNode { index: 3, nodes: 3 })
        ));
        assert!(t.route(7, 0).is_err());
        assert!(TopologyKind::Line.build(0, nv()).is_err());
    }

    #[test]
    fn kind_round_trips_and_builds() {
        for kind in TopologyKind::all() {
            let topo = kind.build(4, nv()).expect("valid");
            assert_eq!(topo.nodes(), 4);
            assert_eq!(kind.to_string(), kind.label());
            assert_eq!(topo.link(), &nv());
            assert!(topo.local_handoff_us() >= 0.0);
        }
    }

    #[test]
    fn handoff_is_configurable() {
        let t = TopologyKind::Line
            .build(2, nv())
            .expect("valid")
            .with_handoff_us(2.5);
        assert_eq!(t.local_handoff_us(), 2.5);
        assert_eq!(
            TopologyKind::Line
                .build(2, nv())
                .expect("valid")
                .local_handoff_us(),
            DEFAULT_HANDOFF_US
        );
    }
}
