//! The hop-by-hop message fabric.
//!
//! [`Fabric`] forwards injected messages along the routes a
//! [`FabricLayout`] computes, one link at a time, under finite per-link
//! (and per-port) bandwidth. Every message is in one phase at a time: the
//! local handoff, a hop's wire latency, or streaming its payload across a
//! hop. Max-min fair rates change only when some phase ends, so the engine
//! is event-driven and exact: it computes the rates once per event, jumps
//! straight to the earliest phase end and retires every phase that ends
//! there. There is no time quantum. On the
//! [`FullyConnected`](crate::fabric::TopologyKind::FullyConnected) layout
//! with zero handoff this is the closed-form max-min crossbar allocation,
//! to float rounding.
//!
//! Two pitfalls the exemplar literature names are load-bearing here:
//!
//! * **Senders stall only for the local handoff.** [`Fabric::inject`]
//!   returns [`FabricLayout::local_handoff_us`] — the cost of moving the
//!   message from the node core to its link controller. The multi-hop
//!   transit happens asynchronously inside the fabric; coupling sender
//!   stalls to end-to-end transit time would serialize the whole node.
//! * **Termination waits on in-flight messages.** [`Fabric::in_flight`]
//!   counts every message anywhere between handoff and final delivery,
//!   and [`Fabric::run_until_idle`] drains them all; cutting a run at "no
//!   new injections" would silently drop messages mid-route.

use std::collections::BTreeMap;

use crate::fabric::topology::{FabricLayout, LinkId};
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

/// Where a message currently is, and how much of that phase is left.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Local handoff from the sender core to its link controller.
    Handoff { remaining_us: f64 },
    /// Paying the wire latency of the current hop.
    HopLatency { remaining_us: f64 },
    /// Streaming payload bytes across the current hop.
    Streaming { remaining_bytes: f64 },
}

impl Phase {
    /// Time until the phase ends at `rate` bytes/µs (the rate matters
    /// only while streaming, and is then positive).
    fn time_left_us(&self, rate: f64) -> f64 {
        match *self {
            Phase::Handoff { remaining_us } | Phase::HopLatency { remaining_us } => remaining_us,
            Phase::Streaming { remaining_bytes } => remaining_bytes / rate,
        }
    }

    /// Spend `dt_us` of the phase at `rate`. The remainder is clamped at
    /// zero so float rounding can never schedule an event in the past.
    fn progress(&mut self, dt_us: f64, rate: f64) {
        match self {
            Phase::Handoff { remaining_us } | Phase::HopLatency { remaining_us } => {
                *remaining_us = (*remaining_us - dt_us).max(0.0);
            }
            Phase::Streaming { remaining_bytes } => {
                *remaining_bytes = (*remaining_bytes - rate * dt_us).max(0.0);
            }
        }
    }
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
/// the layout's uniform link capacity. Ports are what make endpoint
/// contention appear even on private pair links, as on the paper's
/// NVSwitch crossbar.
#[derive(Debug)]
struct Resources {
    nodes: usize,
    /// Position of each link in [`Fabric::links`].
    link_pos: BTreeMap<LinkId, usize>,
}

impl Resources {
    /// Resource count: `2 * nodes + links`.
    fn count(&self) -> usize {
        2 * self.nodes + self.link_pos.len()
    }

    /// The three resources a traversal of `link` consumes.
    fn of(&self, link: LinkId) -> [usize; 3] {
        [
            link.from,                             // egress port
            self.nodes + link.to,                  // ingress port
            2 * self.nodes + self.link_pos[&link], // the wire
        ]
    }
}

/// The event-driven message fabric over a [`FabricLayout`].
///
/// # Example
///
/// Two messages leaving node 0 at once share its egress port and take
/// about twice as long as one alone; a disjoint pair is unaffected:
///
/// ```
/// use tensordimm_interconnect::fabric::{Fabric, TopologyKind};
/// use tensordimm_interconnect::Link;
///
/// let layout = TopologyKind::FullyConnected.build(6, Link::nvlink2_x6())?;
/// let mut fabric = Fabric::new(layout);
/// fabric.inject(0, 1, 64 << 20)?;
/// fabric.inject(0, 2, 64 << 20)?;
/// fabric.inject(3, 4, 64 << 20)?;
/// let deliveries = fabric.run_until_idle();
/// assert_eq!(fabric.in_flight(), 0);
/// let t = |id: u64| {
///     let d = deliveries.iter().find(|d| d.id == id).unwrap();
///     d.delivered_us - d.injected_us
/// };
/// assert!(t(0) > 1.8 * t(2) && t(0) < 2.2 * t(2));
/// # Ok::<(), tensordimm_interconnect::InterconnectError>(())
/// ```
#[derive(Debug)]
pub struct Fabric {
    layout: FabricLayout,
    resources: Resources,
    links: Vec<LinkId>,
    /// Bytes per µs per resource.
    cap: f64,
    /// In id order.
    in_flight: Vec<InFlightMessage>,
    /// Max-min rate of each in-flight message, bytes/µs (zero unless
    /// streaming), constant since `event_us`.
    rates: Vec<f64>,
    /// Virtual time of the last event; every in-flight phase's remainder
    /// is measured from here, so stopping at an arbitrary time in between
    /// never perturbs the events that follow.
    event_us: f64,
    now_us: f64,
    next_id: u64,
    stats: FabricStats,
}

impl Fabric {
    /// A fabric over `layout`, at virtual time zero.
    pub fn new(layout: FabricLayout) -> Self {
        let links = layout.links();
        let resources = Resources {
            nodes: layout.nodes(),
            link_pos: links.iter().enumerate().map(|(i, &l)| (l, i)).collect(),
        };
        let cap = layout.link().effective_gbps() * 1e3;
        let per_link = links.iter().map(|&l| (l, LinkStats::default())).collect();
        Fabric {
            layout,
            resources,
            links,
            cap,
            in_flight: Vec::new(),
            rates: Vec::new(),
            event_us: 0.0,
            now_us: 0.0,
            next_id: 0,
            stats: FabricStats {
                per_link,
                ..FabricStats::default()
            },
        }
    }

    /// The layout being simulated.
    pub fn layout(&self) -> &FabricLayout {
        &self.layout
    }

    /// The physical directed links, in per-link-stats order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Current virtual time, µs.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Messages anywhere between handoff and delivery. Termination must
    /// wait for zero — a fabric with pending messages has undelivered work
    /// even if nothing new will be injected.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
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
        let route = self.layout.route(from, to)?;
        // Re-anchor the in-flight phases at now. A handoff moves no bytes,
        // so the rates stand.
        let dt = self.now_us - self.event_us;
        if dt > 0.0 {
            for (m, &rate) in self.in_flight.iter_mut().zip(&self.rates) {
                m.phase.progress(dt, rate);
            }
            self.event_us = self.now_us;
        }
        let handoff_us = self.layout.local_handoff_us();
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
        self.rates.push(0.0);
        self.stats.injected += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight.len());
        Ok(InjectReceipt { id, handoff_us })
    }

    /// Advance virtual time to `t_us`, retiring every phase that ends by
    /// then, and return the messages delivered on the way in completion
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`InterconnectError::InvalidTime`] for a non-finite time or
    /// one before [`Fabric::now_us`].
    pub fn advance_to(&mut self, t_us: f64) -> Result<Vec<Delivery>, InterconnectError> {
        if !t_us.is_finite() || t_us < self.now_us {
            return Err(InterconnectError::InvalidTime {
                t_us,
                now_us: self.now_us,
            });
        }
        let mut out = Vec::new();
        while let Some(dt) = self.next_phase_end() {
            if self.event_us + dt > t_us {
                break;
            }
            self.retire_phases(dt, &mut out);
        }
        self.now_us = t_us;
        Ok(out)
    }

    /// Run until every in-flight message has been delivered, returning all
    /// deliveries in completion order. This is the fabric's termination
    /// contract: it never declares the run over while a message is still
    /// mid-route. Each event ends at least one of the finitely many phases
    /// left, so the loop always terminates.
    pub fn run_until_idle(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(dt) = self.next_phase_end() {
            self.retire_phases(dt, &mut out);
        }
        out
    }

    /// Time from `event_us` to the earliest phase end; `None` when idle.
    fn next_phase_end(&self) -> Option<f64> {
        self.in_flight
            .iter()
            .zip(&self.rates)
            .map(|(m, &rate)| m.phase.time_left_us(rate))
            .min_by(f64::total_cmp)
    }

    /// Jump `dt` past the last event, where the earliest phases end: move
    /// every message through its phase and, in id order, retire each phase
    /// that ends exactly there. Then re-solve the rates.
    fn retire_phases(&mut self, dt: f64, out: &mut Vec<Delivery>) {
        let t = self.event_us + dt;
        let hop_latency = self.layout.link().setup_us();
        let first = out.len();
        for (m, &rate) in self.in_flight.iter_mut().zip(&self.rates) {
            if m.phase.time_left_us(rate) != dt {
                m.phase.progress(dt, rate);
                continue;
            }
            if let Phase::Streaming { .. } = m.phase {
                let stats = &mut self.stats.per_link[self.resources.link_pos[&m.route[m.hop]]].1;
                stats.forwarded_messages += 1;
                stats.forwarded_bytes += m.bytes;
                m.hop += 1;
            }
            m.phase = match m.phase {
                // The last hop streamed (or the route is empty and the
                // handoff was all there was): delivered.
                Phase::Handoff { .. } | Phase::Streaming { .. } if m.hop == m.route.len() => {
                    out.push(Delivery {
                        id: m.id,
                        from: m.from,
                        to: m.to,
                        bytes: m.bytes,
                        injected_us: m.injected_us,
                        delivered_us: t,
                    });
                    continue;
                }
                Phase::HopLatency { .. } => Phase::Streaming {
                    remaining_bytes: m.bytes as f64,
                },
                // Store-and-forward: every hop, the first included, pays
                // its own wire latency before streaming.
                Phase::Handoff { .. } | Phase::Streaming { .. } => Phase::HopLatency {
                    remaining_us: hop_latency,
                },
            };
        }
        let delivered = &out[first..];
        self.in_flight
            .retain(|m| delivered.binary_search_by_key(&m.id, |d| d.id).is_err());
        self.stats.delivered += delivered.len() as u64;
        self.event_us = t;
        self.now_us = t;
        self.rates = self.fair_share_rates();
        let mut on_link = vec![0usize; self.links.len()];
        for m in &self.in_flight {
            if let Phase::Streaming { .. } = m.phase {
                on_link[self.resources.link_pos[&m.route[m.hop]]] += 1;
            }
        }
        for ((_, stats), n) in self.stats.per_link.iter_mut().zip(on_link) {
            stats.peak_in_flight = stats.peak_in_flight.max(n);
        }
    }

    /// Max-min fair rate (bytes/µs) for each in-flight message; zero for
    /// messages not currently streaming. Progressive filling over the
    /// per-hop resource sets (egress port, wire, ingress port): the
    /// tightest resource fixes the share of every message using it, its
    /// users leave, and the rest refill from what remains.
    fn fair_share_rates(&self) -> Vec<f64> {
        let mut rate = vec![0.0f64; self.in_flight.len()];
        let mut unfrozen: Vec<(usize, [usize; 3])> = self
            .in_flight
            .iter()
            .enumerate()
            .filter(|(_, m)| matches!(m.phase, Phase::Streaming { .. }))
            .map(|(i, m)| (i, self.resources.of(m.route[m.hop])))
            .collect();
        let mut residual = vec![self.cap; self.resources.count()];
        while !unfrozen.is_empty() {
            let mut degree = vec![0usize; residual.len()];
            for (_, uses) in &unfrozen {
                for &r in uses {
                    degree[r] += 1;
                }
            }
            let (share, bottleneck) = (0..residual.len())
                .filter(|&r| degree[r] > 0)
                .map(|r| (residual[r] / degree[r] as f64, r))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("a streaming message uses three resources");
            unfrozen.retain(|&(i, uses)| {
                if !uses.contains(&bottleneck) {
                    return true;
                }
                rate[i] = share;
                for r in uses {
                    residual[r] -= share;
                }
                false
            });
        }
        rate
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

    /// End-to-end fabric latency of a delivery, µs (handoff + all hops).
    fn transit_us(d: &Delivery) -> f64 {
        d.delivered_us - d.injected_us
    }

    #[test]
    fn single_message_matches_link_model_on_one_hop() {
        let mut f = fabric(TopologyKind::FullyConnected, 4);
        let bytes = 16 << 20;
        let receipt = f.inject(0, 1, bytes).expect("in range");
        assert_eq!(receipt.handoff_us, f.layout().local_handoff_us());
        let expected = receipt.handoff_us + nv().transfer_time_us(bytes);
        let d = f.run_until_idle();
        assert_eq!(d.len(), 1);
        let err = (transit_us(&d[0]) - expected).abs() / expected;
        assert!(
            err < 1e-12,
            "transit {} vs {expected} ({err:e})",
            transit_us(&d[0])
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
        let d = f.run_until_idle();
        let t = |id: u64| transit_us(d.iter().find(|x| x.id == id).expect("delivered"));
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
        assert_eq!(f.in_flight(), 0);
        f.inject(0, 2, 64 << 20).expect("in range");
        assert_eq!(f.in_flight(), 1, "an injected message is in-flight work");
        // A few microseconds in, the message is still mid-route.
        for k in 1..=3 {
            f.advance_to(k as f64).expect("forward in time");
        }
        assert_eq!(f.in_flight(), 1);
        assert_eq!(f.stats().delivered, 0);
        let d = f.run_until_idle();
        assert_eq!(d.len(), 1);
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.stats().delivered, 1);
    }

    #[test]
    fn line_forwards_hop_by_hop_through_intermediate_links() {
        let mut f = fabric(TopologyKind::Line, 4);
        f.inject(0, 3, 8 << 20).expect("in range");
        f.run_until_idle();
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
        let d = f.run_until_idle();
        let t = |id: u64| transit_us(d.iter().find(|x| x.id == id).expect("delivered"));
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
        let d = f.run_until_idle();
        assert_eq!(d.len(), 1);
        assert_eq!(
            transit_us(&d[0]),
            r.handoff_us,
            "self-delivery transit is exactly the handoff"
        );
    }

    #[test]
    fn bad_endpoints_and_ticks_rejected() {
        let mut f = fabric(TopologyKind::Line, 2);
        assert!(f.inject(0, 2, 64).is_err());
        f.inject(0, 1, 64).expect("in range");
        assert!(f.advance_to(f64::NAN).is_err());
        assert!(f.advance_to(f64::INFINITY).is_err());
        f.advance_to(1.0).expect("forward in time");
        assert!(matches!(
            f.advance_to(0.5),
            Err(InterconnectError::InvalidTime { .. })
        ));
        assert_eq!(f.now_us(), 1.0, "a rejected advance leaves time alone");
        f.advance_to(1.0).expect("standing still is allowed");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut f = fabric(TopologyKind::Ring, 6);
            for g in 1..6 {
                f.inject(0, g, (g as u64) << 20).expect("in range");
            }
            f.run_until_idle()
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
            f.run_until_idle()
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
        let d = f.run_until_idle();
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
