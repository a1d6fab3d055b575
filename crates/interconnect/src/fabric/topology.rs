//! Route-aware fabric topologies.
//!
//! A [`FabricTopology`] makes the wiring explicit: it enumerates the
//! directed links of the fabric and answers `route(from, to)` with the
//! ordered sequence of links a message must traverse, so the
//! [`Fabric`](crate::fabric::Fabric) engine can forward messages
//! hop-by-hop and charge each link's finite bandwidth.
//!
//! Three layouts are provided, run-time selectable through
//! [`TopologyKind`]:
//!
//! * [`Line`] — a chain `0 — 1 — … — n-1`; every transfer between distant
//!   nodes crosses every intermediate link, so the links next to a hot
//!   endpoint saturate first,
//! * [`Ring`] — the chain closed into a cycle; routes take the shorter
//!   direction (ties go clockwise), roughly halving the worst-case hop
//!   count and splitting a hot endpoint's traffic over two links,
//! * [`FullyConnected`] — a dedicated link per ordered pair, so contention
//!   appears only at shared endpoint ports. With zero handoff this is the
//!   paper's NVSwitch crossbar: the fabric then prices it exactly as the
//!   closed-form max-min fluid allocation (see the exactness gates in
//!   `sweep_fabric` and `tests/fabric_properties.rs`).

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

/// The physical layout of a message fabric.
///
/// Implementations describe connectivity and per-hop costs; the
/// [`Fabric`](crate::fabric::Fabric) engine does the forwarding. All links
/// of one topology share a single capacity (a homogeneous fabric, like the
/// paper's NVLINK mesh); node egress/ingress ports have the same capacity,
/// so endpoint contention is modeled even when pair links are private.
pub trait FabricTopology: Send + Sync {
    /// Human-readable layout name.
    fn name(&self) -> &'static str;

    /// Number of nodes in the fabric.
    fn nodes(&self) -> usize;

    /// Every physical directed link, for fabric initialization and
    /// per-link accounting. The order is deterministic per topology.
    fn links(&self) -> Vec<LinkId>;

    /// The ordered directed links a message from `from` to `to` traverses.
    /// A self-route (`from == to`) is the empty route: the message never
    /// enters the fabric and is delivered after the local handoff alone.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::UnknownNode`] for an out-of-range
    /// endpoint.
    fn route(&self, from: usize, to: usize) -> Result<Vec<LinkId>, InterconnectError>;

    /// Effective bandwidth of each directed link (and of each node
    /// egress/ingress port), GB/s.
    fn link_capacity_gbps(&self) -> f64;

    /// Wire/controller latency to start one link traversal, µs.
    fn hop_latency_us(&self) -> f64;

    /// Local cost of moving a message between a node core and its link
    /// controller, µs — the only stall charged to the *sender*
    /// ([`Fabric::inject`](crate::fabric::Fabric::inject) returns it); the
    /// multi-hop transit runs asynchronously in the fabric.
    fn local_handoff_us(&self) -> f64;
}

/// Shared knobs of the built-in topologies: node count, the per-link
/// physical layer, and the local handoff cost.
#[derive(Debug, Clone, PartialEq)]
struct FabricParams {
    nodes: usize,
    link: Link,
    handoff_us: f64,
}

impl FabricParams {
    fn new(nodes: usize, link: Link) -> Result<Self, InterconnectError> {
        if nodes == 0 {
            return Err(InterconnectError::InvalidLink { parameter: "nodes" });
        }
        Ok(FabricParams {
            nodes,
            link,
            handoff_us: DEFAULT_HANDOFF_US,
        })
    }

    fn check(&self, node: usize) -> Result<(), InterconnectError> {
        if node >= self.nodes {
            return Err(InterconnectError::UnknownNode {
                index: node,
                nodes: self.nodes,
            });
        }
        Ok(())
    }
}

macro_rules! fabric_common {
    () => {
        /// Replace the local handoff cost (µs).
        ///
        /// # Panics
        ///
        /// Panics on a negative or non-finite value — handoff is a
        /// physical latency.
        pub fn with_handoff_us(mut self, handoff_us: f64) -> Self {
            assert!(
                handoff_us.is_finite() && handoff_us >= 0.0,
                "handoff_us must be finite and non-negative, got {handoff_us}"
            );
            self.params.handoff_us = handoff_us;
            self
        }

        /// The per-link physical layer.
        pub fn link(&self) -> &Link {
            &self.params.link
        }
    };
}

/// A chain `0 — 1 — … — n-1`. Node positions are their indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    params: FabricParams,
}

impl Line {
    /// A line of `nodes` nodes over `link`-class wires.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] for zero nodes.
    pub fn new(nodes: usize, link: Link) -> Result<Self, InterconnectError> {
        Ok(Line {
            params: FabricParams::new(nodes, link)?,
        })
    }

    fabric_common!();
}

impl FabricTopology for Line {
    fn name(&self) -> &'static str {
        "line"
    }

    fn nodes(&self) -> usize {
        self.params.nodes
    }

    fn links(&self) -> Vec<LinkId> {
        let mut out = Vec::with_capacity(2 * self.params.nodes.saturating_sub(1));
        for i in 0..self.params.nodes.saturating_sub(1) {
            out.push(LinkId { from: i, to: i + 1 });
            out.push(LinkId { from: i + 1, to: i });
        }
        out
    }

    fn route(&self, from: usize, to: usize) -> Result<Vec<LinkId>, InterconnectError> {
        self.params.check(from)?;
        self.params.check(to)?;
        let mut hops = Vec::with_capacity(from.abs_diff(to));
        let mut at = from;
        while at != to {
            let next = if to > at { at + 1 } else { at - 1 };
            hops.push(LinkId { from: at, to: next });
            at = next;
        }
        Ok(hops)
    }

    fn link_capacity_gbps(&self) -> f64 {
        self.params.link.effective_gbps()
    }

    fn hop_latency_us(&self) -> f64 {
        self.params.link.setup_us()
    }

    fn local_handoff_us(&self) -> f64 {
        self.params.handoff_us
    }
}

/// The chain closed into a cycle: node `i` connects to `(i + 1) mod n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ring {
    params: FabricParams,
}

impl Ring {
    /// A ring of `nodes` nodes over `link`-class wires.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] for zero nodes.
    pub fn new(nodes: usize, link: Link) -> Result<Self, InterconnectError> {
        Ok(Ring {
            params: FabricParams::new(nodes, link)?,
        })
    }

    fabric_common!();
}

impl FabricTopology for Ring {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn nodes(&self) -> usize {
        self.params.nodes
    }

    fn links(&self) -> Vec<LinkId> {
        let n = self.params.nodes;
        if n < 2 {
            return Vec::new();
        }
        // A 2-ring degenerates to the line's single bidirectional pair.
        let mut out = Vec::with_capacity(2 * n);
        for i in 0..n {
            let j = (i + 1) % n;
            if n == 2 && i == 1 {
                break;
            }
            out.push(LinkId { from: i, to: j });
            out.push(LinkId { from: j, to: i });
        }
        out
    }

    fn route(&self, from: usize, to: usize) -> Result<Vec<LinkId>, InterconnectError> {
        self.params.check(from)?;
        self.params.check(to)?;
        let n = self.params.nodes;
        if from == to {
            return Ok(Vec::new());
        }
        let clockwise = (to + n - from) % n;
        let counter = n - clockwise;
        // Shorter direction wins; ties go clockwise.
        let (step_cw, hops) = if clockwise <= counter {
            (true, clockwise)
        } else {
            (false, counter)
        };
        let mut route = Vec::with_capacity(hops);
        let mut at = from;
        for _ in 0..hops {
            let next = if step_cw {
                (at + 1) % n
            } else {
                (at + n - 1) % n
            };
            route.push(LinkId { from: at, to: next });
            at = next;
        }
        Ok(route)
    }

    fn link_capacity_gbps(&self) -> f64 {
        self.params.link.effective_gbps()
    }

    fn hop_latency_us(&self) -> f64 {
        self.params.link.setup_us()
    }

    fn local_handoff_us(&self) -> f64 {
        self.params.handoff_us
    }
}

/// A dedicated directed link per ordered node pair — the NVSwitch-like
/// layout whose only contention is at shared endpoint ports.
#[derive(Debug, Clone, PartialEq)]
pub struct FullyConnected {
    params: FabricParams,
}

impl FullyConnected {
    /// A full mesh of `nodes` nodes over `link`-class wires.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] for zero nodes.
    pub fn new(nodes: usize, link: Link) -> Result<Self, InterconnectError> {
        Ok(FullyConnected {
            params: FabricParams::new(nodes, link)?,
        })
    }

    fabric_common!();
}

impl FabricTopology for FullyConnected {
    fn name(&self) -> &'static str {
        "fully-connected"
    }

    fn nodes(&self) -> usize {
        self.params.nodes
    }

    fn links(&self) -> Vec<LinkId> {
        let n = self.params.nodes;
        let mut out = Vec::with_capacity(n * n.saturating_sub(1));
        for from in 0..n {
            for to in 0..n {
                if from != to {
                    out.push(LinkId { from, to });
                }
            }
        }
        out
    }

    fn route(&self, from: usize, to: usize) -> Result<Vec<LinkId>, InterconnectError> {
        self.params.check(from)?;
        self.params.check(to)?;
        if from == to {
            return Ok(Vec::new());
        }
        Ok(vec![LinkId { from, to }])
    }

    fn link_capacity_gbps(&self) -> f64 {
        self.params.link.effective_gbps()
    }

    fn hop_latency_us(&self) -> f64 {
        self.params.link.setup_us()
    }

    fn local_handoff_us(&self) -> f64 {
        self.params.handoff_us
    }
}

/// Run-time topology selection: the payload of the system model's fabric
/// transfer backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// [`Line`].
    Line,
    /// [`Ring`].
    Ring,
    /// [`FullyConnected`].
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

    /// Build the layout over `nodes` nodes of `link`-class wires.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] for zero nodes.
    pub fn build(
        &self,
        nodes: usize,
        link: Link,
    ) -> Result<Box<dyn FabricTopology>, InterconnectError> {
        Ok(match self {
            TopologyKind::Line => Box::new(Line::new(nodes, link)?),
            TopologyKind::Ring => Box::new(Ring::new(nodes, link)?),
            TopologyKind::FullyConnected => Box::new(FullyConnected::new(nodes, link)?),
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
        let t = Line::new(5, nv()).expect("valid");
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
        let t = Ring::new(6, nv()).expect("valid");
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
        let r = Ring::new(2, nv()).expect("valid");
        let l = Line::new(2, nv()).expect("valid");
        let mut rl = r.links();
        let mut ll = l.links();
        rl.sort_unstable();
        ll.sort_unstable();
        assert_eq!(rl, ll, "no duplicate pair links on a 2-ring");
    }

    #[test]
    fn fully_connected_is_single_hop() {
        let t = FullyConnected::new(4, nv()).expect("valid");
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
        let t = Ring::new(3, nv()).expect("valid");
        assert!(matches!(
            t.route(0, 3),
            Err(InterconnectError::UnknownNode { index: 3, nodes: 3 })
        ));
        assert!(t.route(7, 0).is_err());
        assert!(Line::new(0, nv()).is_err());
    }

    #[test]
    fn kind_round_trips_and_builds() {
        for kind in TopologyKind::all() {
            let topo = kind.build(4, nv()).expect("valid");
            assert_eq!(topo.nodes(), 4);
            assert_eq!(topo.name(), kind.label());
            assert!(topo.link_capacity_gbps() > 0.0);
            assert!(topo.hop_latency_us() >= 0.0);
            assert!(topo.local_handoff_us() >= 0.0);
        }
    }

    #[test]
    fn handoff_is_configurable() {
        let t = Line::new(2, nv()).expect("valid").with_handoff_us(2.5);
        assert_eq!(t.local_handoff_us(), 2.5);
        assert_eq!(
            Line::new(2, nv()).expect("valid").local_handoff_us(),
            DEFAULT_HANDOFF_US
        );
    }
}
