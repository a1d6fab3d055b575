//! The hop-by-hop message fabric.
//!
//! [`Fabric`] forwards injected messages along the routes a
//! [`FabricTopology`] computes, one link at a time, under finite per-link
//! (and per-port) bandwidth. Time advances in fixed ticks; each tick the
//! engine recomputes max-min fair rates for every message currently
//! streaming on a link, so the measured completion times converge to the
//! fluid allocation of the analytic [`Switch`](crate::Switch) as the tick
//! shrinks — the agreement the `sweep_fabric` gate pins for the
//! [`FullyConnected`](crate::fabric::FullyConnected) layout.
//!
//! Two pitfalls the exemplar literature names are load-bearing here:
//!
//! * **Senders stall only for the local handoff.** [`Fabric::inject`]
//!   returns [`FabricTopology::local_handoff_us`] — the cost of moving the
//!   message from the node core to its link controller. The multi-hop
//!   transit happens asynchronously inside the fabric; coupling sender
//!   stalls to end-to-end transit time would serialize the whole node.
//! * **Termination waits on in-flight messages.** [`Fabric::is_idle`] is
//!   false while any message is anywhere between handoff and final
//!   delivery, and [`Fabric::run_until_idle`] drains them all; cutting a
//!   run at "no new injections" would silently drop messages mid-route.

use std::collections::BTreeMap;

use crate::fabric::topology::{FabricTopology, LinkId};
use crate::InterconnectError;

/// Receipt for an injected message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectReceipt {
    /// Fabric-assigned message id (dense, in injection order).
    pub id: u64,
    /// The stall the *sender* pays, µs: the local handoff to its link
    /// controller — never the multi-hop transit.
    pub handoff_us: f64,
}

/// A message delivered to its destination node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Message id from the [`InjectReceipt`].
    pub id: u64,
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Payload size.
    pub bytes: u64,
    /// Virtual time the message was injected, µs.
    pub injected_us: f64,
    /// Virtual time it arrived at the destination's link controller, µs.
    pub delivered_us: f64,
}

impl Delivery {
    /// End-to-end fabric latency, µs (handoff + all hops).
    pub fn transit_us(&self) -> f64 {
        self.delivered_us - self.injected_us
    }
}

/// Where a message currently is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Local handoff from the sender core to its link controller.
    Handoff { remaining_us: f64 },
    /// Paying the wire latency of the current hop.
    HopLatency { remaining_us: f64 },
    /// Streaming payload bytes across the current hop.
    Streaming { remaining_bytes: f64 },
}

/// One message in flight, carrying its whole physical route and a cursor.
#[derive(Debug, Clone)]
struct InFlightMessage {
    id: u64,
    from: usize,
    to: usize,
    bytes: u64,
    route: Vec<LinkId>,
    hop: usize,
    phase: Phase,
    injected_us: f64,
}

/// Traffic counters for one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Messages that completed a traversal of this link.
    pub forwarded_messages: u64,
    /// Payload bytes that completed a traversal of this link.
    pub forwarded_bytes: u64,
    /// Peak number of messages concurrently streaming on this link — the
    /// link's peak demand in message count (× message rate for GB/s).
    pub peak_in_flight: usize,
}

/// Fabric-wide counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FabricStats {
    /// Messages injected so far.
    pub injected: u64,
    /// Messages delivered so far.
    pub delivered: u64,
    /// Peak number of messages concurrently in flight anywhere.
    pub peak_in_flight: usize,
    /// Per-link counters, ordered like [`Fabric::links`].
    pub per_link: Vec<(LinkId, LinkStats)>,
}

/// Bandwidth-sharing resources: every directed link, plus one egress and
/// one ingress port per node (a hop on `u → v` consumes all three), all at
/// the topology's uniform link capacity. Ports are what make endpoint
/// contention appear even on private pair links — the effect the analytic
/// `Switch` models, and the reason the fully-connected fabric converges to
/// it.
#[derive(Debug)]
struct Resources {
    /// Resource count: `2 * nodes + links`.
    count: usize,
    nodes: usize,
    link_index: BTreeMap<LinkId, usize>,
}

impl Resources {
    fn new(nodes: usize, links: &[LinkId]) -> Self {
        let link_index = links
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, 2 * nodes + i))
            .collect();
        Resources {
            count: 2 * nodes + links.len(),
            nodes,
            link_index,
        }
    }

    /// The three resources a traversal of `link` consumes.
    fn of(&self, link: LinkId) -> [usize; 3] {
        [
            link.from,              // egress port
            self.nodes + link.to,   // ingress port
            self.link_index[&link], // the wire
        ]
    }
}

/// The cycle-level message fabric over a [`FabricTopology`].
///
/// # Example
///
/// Two messages leaving node 0 at once share its egress port and take
/// about twice as long as one alone; a disjoint pair is unaffected:
///
/// ```
/// use tensordimm_interconnect::fabric::{Fabric, FullyConnected};
/// use tensordimm_interconnect::Link;
///
/// let topo = FullyConnected::new(6, Link::nvlink2_x6())?;
/// let mut fabric = Fabric::new(Box::new(topo));
/// fabric.inject(0, 1, 64 << 20)?;
/// fabric.inject(0, 2, 64 << 20)?;
/// fabric.inject(3, 4, 64 << 20)?;
/// let deliveries = fabric.run_until_idle(1.0)?;
/// assert!(fabric.is_idle());
/// let t = |id: u64| deliveries.iter().find(|d| d.id == id).unwrap().transit_us();
/// assert!(t(0) > 1.8 * t(2) && t(0) < 2.2 * t(2));
/// # Ok::<(), tensordimm_interconnect::InterconnectError>(())
/// ```
pub struct Fabric {
    topo: Box<dyn FabricTopology>,
    resources: Resources,
    links: Vec<LinkId>,
    /// Bytes per µs per resource.
    cap: f64,
    in_flight: Vec<InFlightMessage>,
    now_us: f64,
    next_id: u64,
    stats: FabricStats,
}

impl Fabric {
    /// A fabric over `topo`, at virtual time zero.
    pub fn new(topo: Box<dyn FabricTopology>) -> Self {
        let links = topo.links();
        let resources = Resources::new(topo.nodes(), &links);
        let cap = topo.link_capacity_gbps() * 1e3;
        let per_link = links.iter().map(|&l| (l, LinkStats::default())).collect();
        Fabric {
            topo,
            resources,
            links,
            cap,
            in_flight: Vec::new(),
            now_us: 0.0,
            next_id: 0,
            stats: FabricStats {
                per_link,
                ..FabricStats::default()
            },
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &dyn FabricTopology {
        self.topo.as_ref()
    }

    /// The physical directed links, in per-link-stats order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Current virtual time, µs.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Messages anywhere between handoff and delivery.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// True when no message is in flight. Termination must wait for this —
    /// a fabric with pending messages has undelivered work even if nothing
    /// new will be injected.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Inject a message at the current virtual time. Returns the message
    /// id and the sender's stall — the local handoff cost only.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::UnknownNode`] for an out-of-range
    /// endpoint.
    pub fn inject(
        &mut self,
        from: usize,
        to: usize,
        bytes: u64,
    ) -> Result<InjectReceipt, InterconnectError> {
        let route = self.topo.route(from, to)?;
        let handoff_us = self.topo.local_handoff_us();
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight.push(InFlightMessage {
            id,
            from,
            to,
            bytes,
            route,
            hop: 0,
            phase: Phase::Handoff {
                remaining_us: handoff_us,
            },
            injected_us: self.now_us,
        });
        self.stats.injected += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight.len());
        Ok(InjectReceipt { id, handoff_us })
    }

    /// Max-min fair rate (bytes/µs) for each in-flight message; zero for
    /// messages not currently streaming. The same progressive-filling
    /// allocation as [`Switch::concurrent_transfer_us`], generalized to
    /// the per-hop resource sets (egress port, wire, ingress port).
    ///
    /// [`Switch::concurrent_transfer_us`]: crate::Switch::concurrent_transfer_us
    fn fair_share_rates(&self) -> Vec<f64> {
        let n = self.in_flight.len();
        let mut rate = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        let streaming: Vec<usize> = (0..n)
            .filter(|&i| matches!(self.in_flight[i].phase, Phase::Streaming { .. }))
            .collect();
        if streaming.is_empty() {
            return rate;
        }
        let uses = |i: usize| {
            self.resources
                .of(self.in_flight[i].route[self.in_flight[i].hop])
        };
        loop {
            let mut residual = vec![self.cap; self.resources.count];
            let mut degree = vec![0usize; self.resources.count];
            for &i in &streaming {
                for r in uses(i) {
                    if frozen[i] {
                        residual[r] -= rate[i];
                    } else {
                        degree[r] += 1;
                    }
                }
            }
            let bottleneck = (0..self.resources.count)
                .filter(|&r| degree[r] > 0)
                .map(|r| (residual[r] / degree[r] as f64, r))
                .min_by(|a, b| a.0.total_cmp(&b.0));
            let Some((share, port)) = bottleneck else {
                break;
            };
            // Float-error floor: a legitimately-allocated share is a
            // meaningful fraction of capacity; clamping keeps every
            // streaming message progressing so `run_until_idle` always
            // terminates.
            let share = share.max(self.cap * 1e-9);
            let mut changed = false;
            for &i in &streaming {
                if !frozen[i] && uses(i).contains(&port) {
                    rate[i] = share;
                    frozen[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        rate
    }

    /// Advance virtual time by one tick, moving every in-flight message
    /// through its current phase, and return the messages delivered during
    /// the tick.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] for a non-positive or
    /// non-finite tick.
    pub fn advance(&mut self, tick_us: f64) -> Result<Vec<Delivery>, InterconnectError> {
        if !tick_us.is_finite() || tick_us <= 0.0 {
            return Err(InterconnectError::InvalidLink {
                parameter: "tick_us",
            });
        }
        let rates = self.fair_share_rates();
        // Per-link concurrency at this tick, for the peak-demand counters.
        for (link, stats) in &mut self.stats.per_link {
            let on_link = self
                .in_flight
                .iter()
                .filter(|m| matches!(m.phase, Phase::Streaming { .. }) && m.route[m.hop] == *link)
                .count();
            stats.peak_in_flight = stats.peak_in_flight.max(on_link);
        }
        self.now_us += tick_us;
        let now = self.now_us;
        let hop_latency = self.topo.hop_latency_us();

        let mut delivered = Vec::new();
        // Advance in injection (id) order — determinism is part of the
        // fabric's contract.
        for (i, m) in self.in_flight.iter_mut().enumerate() {
            let mut hop_completed = false;
            match &mut m.phase {
                Phase::Handoff { remaining_us } => {
                    *remaining_us -= tick_us;
                    if *remaining_us <= 0.0 {
                        if m.hop < m.route.len() {
                            // First hop pays its wire latency like any other.
                            m.phase = Phase::HopLatency {
                                remaining_us: hop_latency + *remaining_us,
                            };
                        } else {
                            // Empty route (self-delivery): done after the
                            // handoff alone.
                            delivered.push(Delivery {
                                id: m.id,
                                from: m.from,
                                to: m.to,
                                bytes: m.bytes,
                                injected_us: m.injected_us,
                                delivered_us: now,
                            });
                        }
                    }
                }
                Phase::HopLatency { remaining_us } => {
                    *remaining_us -= tick_us;
                    if *remaining_us <= 0.0 {
                        m.phase = Phase::Streaming {
                            remaining_bytes: m.bytes as f64,
                        };
                    }
                }
                Phase::Streaming { remaining_bytes } => {
                    *remaining_bytes -= rates[i] * tick_us;
                    if *remaining_bytes <= 0.0 {
                        hop_completed = true;
                    }
                }
            }
            if hop_completed {
                let link = m.route[m.hop];
                let (_, stats) = self
                    .stats
                    .per_link
                    .iter_mut()
                    .find(|(l, _)| *l == link)
                    .expect("routed hops are physical links");
                stats.forwarded_messages += 1;
                stats.forwarded_bytes += m.bytes;
                m.hop += 1;
                if m.hop == m.route.len() {
                    delivered.push(Delivery {
                        id: m.id,
                        from: m.from,
                        to: m.to,
                        bytes: m.bytes,
                        injected_us: m.injected_us,
                        delivered_us: now,
                    });
                } else {
                    // Store-and-forward: the next hop pays its own wire
                    // latency before streaming restarts.
                    m.phase = Phase::HopLatency {
                        remaining_us: hop_latency,
                    };
                }
            }
        }
        let done: Vec<u64> = delivered.iter().map(|d| d.id).collect();
        self.in_flight.retain(|m| !done.contains(&m.id));
        self.stats.delivered += done.len() as u64;
        Ok(delivered)
    }

    /// Run ticks of `tick_us` until every in-flight message has been
    /// delivered, returning all deliveries in completion order. This is
    /// the fabric's termination contract: it never declares the run over
    /// while a message is still mid-route.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidLink`] for a non-positive or
    /// non-finite tick.
    pub fn run_until_idle(&mut self, tick_us: f64) -> Result<Vec<Delivery>, InterconnectError> {
        let mut out = Vec::new();
        while !self.is_idle() {
            out.extend(self.advance(tick_us)?);
        }
        Ok(out)
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("topology", &self.topo.name())
            .field("nodes", &self.topo.nodes())
            .field("now_us", &self.now_us)
            .field("in_flight", &self.in_flight.len())
            .field("stats", &(self.stats.injected, self.stats.delivered))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::topology::TopologyKind;
    use crate::link::Link;

    fn nv() -> Link {
        Link::nvlink2_x6()
    }

    fn fabric(kind: TopologyKind, nodes: usize) -> Fabric {
        Fabric::new(kind.build(nodes, nv()).expect("valid"))
    }

    #[test]
    fn single_message_matches_link_model_on_one_hop() {
        let mut f = fabric(TopologyKind::FullyConnected, 4);
        let bytes = 16 << 20;
        let receipt = f.inject(0, 1, bytes).expect("in range");
        assert_eq!(receipt.handoff_us, f.topology().local_handoff_us());
        let expected = receipt.handoff_us + nv().transfer_time_us(bytes);
        let d = f.run_until_idle(expected / 4096.0).expect("positive tick");
        assert_eq!(d.len(), 1);
        let err = (d[0].transit_us() - expected).abs() / expected;
        assert!(
            err < 0.01,
            "transit {} vs {expected} ({err:.4})",
            d[0].transit_us()
        );
    }

    #[test]
    fn sender_stall_is_the_handoff_not_the_transit() {
        // A 6-node line: 0 -> 5 crosses five hops, but the sender's stall
        // is the (single) local handoff regardless of route length.
        let mut f = fabric(TopologyKind::Line, 6);
        let near = f.inject(0, 1, 1 << 20).expect("in range");
        let far = f.inject(2, 5, 1 << 20).expect("in range");
        assert_eq!(near.handoff_us, far.handoff_us);
        let d = f.run_until_idle(0.05).expect("positive tick");
        let t = |id: u64| {
            d.iter()
                .find(|x| x.id == id)
                .expect("delivered")
                .transit_us()
        };
        assert!(
            t(far.id) > 2.0 * t(near.id),
            "multi-hop transit {} should dwarf single-hop {}",
            t(far.id),
            t(near.id)
        );
    }

    #[test]
    fn termination_waits_on_in_flight_messages() {
        let mut f = fabric(TopologyKind::Ring, 4);
        assert!(f.is_idle());
        f.inject(0, 2, 64 << 20).expect("in range");
        assert!(!f.is_idle(), "an injected message is in-flight work");
        // A few ticks in, the message is still mid-route.
        for _ in 0..3 {
            f.advance(1.0).expect("positive tick");
        }
        assert!(!f.is_idle());
        assert_eq!(f.stats().delivered, 0);
        let d = f.run_until_idle(1.0).expect("positive tick");
        assert_eq!(d.len(), 1);
        assert!(f.is_idle());
        assert_eq!(f.stats().delivered, 1);
    }

    #[test]
    fn line_forwards_hop_by_hop_through_intermediate_links() {
        let mut f = fabric(TopologyKind::Line, 4);
        f.inject(0, 3, 8 << 20).expect("in range");
        f.run_until_idle(0.25).expect("positive tick");
        let stats = f.stats().clone();
        let forwarded = |from: usize, to: usize| {
            stats
                .per_link
                .iter()
                .find(|(l, _)| *l == LinkId { from, to })
                .expect("physical link")
                .1
        };
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            assert_eq!(forwarded(a, b).forwarded_messages, 1, "{a}->{b}");
            assert_eq!(forwarded(a, b).forwarded_bytes, 8 << 20, "{a}->{b}");
        }
        // The reverse wires never carried it.
        assert_eq!(forwarded(1, 0).forwarded_messages, 0);
    }

    #[test]
    fn shared_chain_link_halves_bandwidth() {
        // Both messages leave node 0 rightward on a line: the 0->1 wire is
        // shared, so each runs at half rate even though destinations differ.
        let mut f = fabric(TopologyKind::Line, 3);
        let a = f.inject(0, 1, 32 << 20).expect("in range");
        f.inject(0, 2, 32 << 20).expect("in range");
        let solo = nv().transfer_time_us(32 << 20);
        let d = f.run_until_idle(solo / 2048.0).expect("positive tick");
        let t = |id: u64| {
            d.iter()
                .find(|x| x.id == id)
                .expect("delivered")
                .transit_us()
        };
        assert!(
            t(a.id) > 1.8 * solo && t(a.id) < 2.2 * solo,
            "shared-wire transit {} vs solo {solo}",
            t(a.id)
        );
        let peak = f
            .stats()
            .per_link
            .iter()
            .find(|(l, _)| *l == LinkId { from: 0, to: 1 })
            .expect("physical link")
            .1
            .peak_in_flight;
        assert_eq!(peak, 2, "peak demand counter sees both messages");
    }

    #[test]
    fn self_delivery_costs_only_the_handoff() {
        let mut f = fabric(TopologyKind::FullyConnected, 3);
        let r = f.inject(1, 1, 1 << 30).expect("in range");
        let d = f.run_until_idle(0.1).expect("positive tick");
        assert_eq!(d.len(), 1);
        assert!(
            (d[0].transit_us() - r.handoff_us).abs() <= 0.1 + 1e-9,
            "self-delivery transit {} vs handoff {}",
            d[0].transit_us(),
            r.handoff_us
        );
    }

    #[test]
    fn bad_endpoints_and_ticks_rejected() {
        let mut f = fabric(TopologyKind::Line, 2);
        assert!(f.inject(0, 2, 64).is_err());
        f.inject(0, 1, 64).expect("in range");
        assert!(f.advance(0.0).is_err());
        assert!(f.advance(f64::NAN).is_err());
        assert!(f.run_until_idle(-1.0).is_err());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut f = fabric(TopologyKind::Ring, 6);
            for g in 1..6 {
                f.inject(0, g, (g as u64) << 20).expect("in range");
            }
            f.run_until_idle(0.5)
                .expect("positive tick")
                .iter()
                .map(|d| (d.id, d.delivered_us.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fully_connected_and_line_order_as_expected() {
        // Broadcast from node 0 to everyone: the line serializes traffic
        // through the 0->1 wire while the full mesh only shares the egress
        // port — strictly better hop latency budget, so line >= mesh.
        let bytes = 16 << 20;
        let time = |kind: TopologyKind| {
            let mut f = fabric(kind, 5);
            for g in 1..5 {
                f.inject(0, g, bytes).expect("in range");
            }
            f.run_until_idle(1.0)
                .expect("positive tick")
                .iter()
                .map(|d| d.delivered_us)
                .fold(0.0f64, f64::max)
        };
        let line = time(TopologyKind::Line);
        let ring = time(TopologyKind::Ring);
        let full = time(TopologyKind::FullyConnected);
        assert!(
            line >= ring && ring >= full,
            "line {line} ring {ring} full {full}"
        );
        assert!(
            line > 1.2 * full,
            "line {line} should clearly trail full {full}"
        );
    }

    #[test]
    fn fabric_stats_conserve_messages() {
        let mut f = fabric(TopologyKind::FullyConnected, 8);
        for g in 1..8 {
            f.inject(0, g, 4 << 20).expect("in range");
        }
        let d = f.run_until_idle(0.5).expect("positive tick");
        assert_eq!(d.len(), 7);
        assert_eq!(f.stats().injected, 7);
        assert_eq!(f.stats().delivered, 7);
        assert_eq!(f.stats().peak_in_flight, 7);
        let mut ids: Vec<u64> = d.iter().map(|x| x.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 7, "every message delivered exactly once");
    }
}
