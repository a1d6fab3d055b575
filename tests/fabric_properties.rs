//! Property tests for the event-driven interconnect fabric: message
//! conservation (every injected message delivered exactly once),
//! termination only after in-flight messages drain, bit-identical
//! determinism (per run, across `advance_to` cut points, and across sweep
//! worker counts), exact per-hop timing, and the fully-connected fabric
//! reproducing the closed-form crossbar oracle ([`switch::Switch`]) on
//! single-source flow sets.

use proptest::prelude::*;

use tensordimm::interconnect::fabric::{Fabric, FabricLayout, DEFAULT_HANDOFF_US};
use tensordimm::interconnect::{Link, LinkId, TopologyKind};
use tensordimm::models::{Workload, WorkloadName};
use tensordimm::serving::{offered_load_sweep_par, BatchPolicy, SimConfig};
use tensordimm::system::{DesignPoint, SystemModel, TransferBackend};

/// The closed-form NVSwitch crossbar: max-min fair sharing of per-port
/// bandwidth, solved analytically. The fabric is checked against it.
mod switch {
    use tensordimm::interconnect::{InterconnectError, Link};

    /// One transfer request across the switch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Flow {
        /// Source port index.
        pub from: usize,
        /// Destination port index.
        pub to: usize,
        /// Payload bytes.
        pub bytes: u64,
    }

    /// A non-blocking crossbar switch with `ports` identical full-duplex
    /// ports.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Switch {
        ports: usize,
        link: Link,
    }

    impl Switch {
        /// A switch with `ports` ports of `link` bandwidth each.
        pub fn new(ports: usize, link: Link) -> Result<Self, InterconnectError> {
            if ports == 0 {
                return Err(InterconnectError::InvalidLink { parameter: "ports" });
            }
            Ok(Switch { ports, link })
        }

        /// Completion time (µs) of each flow when all run concurrently,
        /// under max-min fair sharing of source (egress) and destination
        /// (ingress) port bandwidth. Flows are fluid: rates are recomputed
        /// as flows finish, one finisher at a time.
        pub fn concurrent_transfer_us(
            &self,
            flows: &[Flow],
        ) -> Result<Vec<f64>, InterconnectError> {
            for f in flows {
                for p in [f.from, f.to] {
                    if p >= self.ports {
                        return Err(InterconnectError::UnknownGpu {
                            index: p,
                            gpus: self.ports,
                        });
                    }
                }
            }
            let cap = self.link.effective_gbps() * 1e3; // bytes per µs
            let mut remaining: Vec<f64> = flows.iter().map(|f| f.bytes as f64).collect();
            let mut finish = vec![0.0f64; flows.len()];
            let mut now = self.link.setup_us();
            let mut active: Vec<usize> = (0..flows.len()).collect();

            while !active.is_empty() {
                // Max-min fair rates: iteratively saturate the tightest port.
                let mut rate = vec![0.0f64; flows.len()];
                let mut frozen = vec![false; flows.len()];
                loop {
                    let mut residual = vec![cap; self.ports];
                    let mut degree = vec![0usize; self.ports];
                    for &i in &active {
                        // A self-loop occupies its port once, not twice.
                        if frozen[i] {
                            residual[flows[i].from] -= rate[i];
                            if flows[i].to != flows[i].from {
                                residual[flows[i].to] -= rate[i];
                            }
                        } else {
                            degree[flows[i].from] += 1;
                            if flows[i].to != flows[i].from {
                                degree[flows[i].to] += 1;
                            }
                        }
                    }
                    let bottleneck = (0..self.ports)
                        .filter(|&p| degree[p] > 0)
                        .map(|p| (residual[p] / degree[p] as f64, p))
                        .min_by(|a, b| a.0.total_cmp(&b.0));
                    let Some((share, port)) = bottleneck else {
                        break;
                    };
                    let mut changed = false;
                    for &i in &active {
                        if !frozen[i] && (flows[i].from == port || flows[i].to == port) {
                            rate[i] = share;
                            frozen[i] = true;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                // Advance to the next completion.
                let (next_i, dt) = active
                    .iter()
                    .map(|&i| (i, remaining[i] / rate[i].max(1e-12)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("active is nonempty");
                now += dt;
                for &i in &active {
                    remaining[i] -= rate[i] * dt;
                }
                finish[next_i] = now;
                remaining[next_i] = 0.0;
                active.retain(|&i| i != next_i);
            }
            Ok(finish)
        }
    }

    mod tests {
        use super::*;

        fn sw() -> Switch {
            Switch::new(8, Link::nvlink2_x6()).expect("nonzero ports")
        }

        fn flow(from: usize, to: usize, bytes: u64) -> Flow {
            Flow { from, to, bytes }
        }

        /// Two GPUs reading from the TensorNode port halve each other's
        /// bandwidth; a third flow between unrelated ports is unaffected.
        #[test]
        fn node_port_sharers_halve_while_disjoint_pairs_do_not() {
            let times = Switch::new(8, Link::nvlink2_x6())
                .expect("nonzero ports")
                .concurrent_transfer_us(&[
                    flow(0, 1, 1 << 30),
                    flow(0, 2, 1 << 30),
                    flow(3, 4, 1 << 30),
                ])
                .expect("ports in range");
            assert!(times[0] > 1.9 * times[2] && times[0] < 2.1 * times[2]);
        }

        #[test]
        fn single_flow_matches_link_model() {
            let t = sw()
                .concurrent_transfer_us(&[flow(0, 1, 1 << 20)])
                .expect("ports in range");
            let direct = Link::nvlink2_x6().transfer_time_us(1 << 20);
            assert!((t[0] - direct).abs() < 1e-6);
        }

        #[test]
        fn disjoint_flows_do_not_contend() {
            let t = sw()
                .concurrent_transfer_us(&[
                    flow(0, 1, 1 << 24),
                    flow(2, 3, 1 << 24),
                    flow(4, 5, 1 << 24),
                ])
                .expect("ports in range");
            let solo = Link::nvlink2_x6().transfer_time_us(1 << 24);
            for x in t {
                assert!((x - solo).abs() / solo < 0.01, "{x} vs {solo}");
            }
        }

        #[test]
        fn shared_source_port_splits_bandwidth() {
            let flows: Vec<Flow> = (1..=4).map(|g| flow(0, g, 1 << 26)).collect();
            let t = sw().concurrent_transfer_us(&flows).expect("ports in range");
            let solo = Link::nvlink2_x6().transfer_time_us(1 << 26);
            // Four flows from one port: each takes ~4x as long.
            for x in &t {
                assert!(*x > 3.5 * solo && *x < 4.5 * solo, "{x} vs {solo}");
            }
        }

        #[test]
        fn finished_flows_release_bandwidth() {
            let t = sw()
                .concurrent_transfer_us(&[flow(0, 1, 1 << 20), flow(0, 2, 1 << 26)])
                .expect("ports in range");
            let solo_large = Link::nvlink2_x6().transfer_time_us(1 << 26);
            // The large flow runs at half rate only while the small one lives.
            assert!(t[1] < 1.2 * solo_large, "{} vs {}", t[1], solo_large);
            assert!(t[0] < t[1]);
        }

        /// A loopback occupies its port once and completes exactly like
        /// any other single flow.
        #[test]
        fn lone_self_loop_runs_at_full_bandwidth() {
            let t = sw()
                .concurrent_transfer_us(&[flow(3, 3, 1 << 26)])
                .expect("ports in range");
            let solo = Link::nvlink2_x6().transfer_time_us(1 << 26);
            assert!(
                (t[0] - solo).abs() / solo < 1e-9,
                "self-loop {} vs solo {solo}",
                t[0]
            );
        }

        /// A self-loop still contends like one flow with other users of
        /// its port: loopback + one incoming flow split port 3 evenly.
        #[test]
        fn self_loop_contends_once_with_port_sharers() {
            let t = sw()
                .concurrent_transfer_us(&[flow(3, 3, 1 << 26), flow(0, 3, 1 << 26)])
                .expect("ports in range");
            let solo = Link::nvlink2_x6().transfer_time_us(1 << 26);
            for x in &t {
                assert!(*x > 1.9 * solo && *x < 2.1 * solo, "{x} vs solo {solo}");
            }
        }

        #[test]
        fn bad_port_rejected() {
            assert!(sw().concurrent_transfer_us(&[flow(0, 8, 64)]).is_err());
            assert!(Switch::new(0, Link::nvlink2_x6()).is_err());
        }

        #[test]
        fn empty_flow_set() {
            assert!(sw()
                .concurrent_transfer_us(&[])
                .expect("trivially ok")
                .is_empty());
        }
    }
}

use switch::{Flow, Switch};

fn arb_kind() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Line),
        Just(TopologyKind::Ring),
        Just(TopologyKind::FullyConnected),
    ]
}

/// Random (from, to, bytes) message sets over an `n`-node fabric.
fn arb_messages(n: usize) -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0..n, 0..n, (1u64 << 16)..(1 << 24)), 1..12)
}

fn build(kind: TopologyKind, nodes: usize) -> Fabric {
    Fabric::new(
        kind.build(nodes, Link::nvlink2_x6())
            .expect("nonzero nodes, valid link"),
    )
}

/// Per-message completion times (µs, by id) of a single-source flow set —
/// node 0 sends `bytes[g]` to node `g + 1` — on a crossbar fabric.
fn crossbar_times(layout: FabricLayout, bytes: &[u64]) -> Vec<f64> {
    let mut fabric = Fabric::new(layout);
    for (g, &b) in bytes.iter().enumerate() {
        fabric.inject(0, g + 1, b).expect("endpoints in range");
    }
    let mut times = vec![f64::NAN; bytes.len()];
    for d in fabric.run_until_idle() {
        times[d.id as usize] = d.delivered_us;
    }
    times
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation: every injected message is delivered exactly once —
    /// no loss, no duplication — on every layout, for arbitrary
    /// (including self-loop) endpoint sets.
    #[test]
    fn every_message_is_delivered_exactly_once(
        kind in arb_kind(),
        messages in arb_messages(6),
    ) {
        let mut fabric = build(kind, 6);
        for &(from, to, bytes) in &messages {
            fabric.inject(from, to, bytes).expect("endpoints in range");
        }
        let deliveries = fabric.run_until_idle();
        prop_assert_eq!(deliveries.len(), messages.len());
        let mut ids: Vec<u64> = deliveries.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(&ids, &(0..messages.len() as u64).collect::<Vec<_>>());
        for d in &deliveries {
            let (from, to, bytes) = messages[d.id as usize];
            prop_assert_eq!((d.from, d.to, d.bytes), (from, to, bytes));
            prop_assert!(d.delivered_us > d.injected_us);
        }
        prop_assert_eq!(fabric.stats().injected, messages.len() as u64);
        prop_assert_eq!(fabric.stats().delivered, messages.len() as u64);
        prop_assert_eq!(fabric.in_flight(), 0);
    }

    /// Termination waits on in-flight messages: while anything is
    /// mid-route the fabric reports busy and has delivered nothing it
    /// hasn't accounted for; `run_until_idle` then drains every pending
    /// message without injecting more.
    #[test]
    fn termination_only_after_in_flight_messages_drain(
        kind in arb_kind(),
        messages in arb_messages(5),
        partial_steps in 1usize..6,
    ) {
        let mut fabric = build(kind, 5);
        for &(from, to, bytes) in &messages {
            fabric.inject(from, to, bytes).expect("endpoints in range");
        }
        let mut early = 0usize;
        for k in 1..=partial_steps {
            early += fabric.advance_to(k as f64 * 0.25).expect("forward in time").len();
        }
        // Invariant mid-run: delivered + in-flight accounts for everything.
        prop_assert_eq!(early + fabric.in_flight(), messages.len());
        let late = fabric.run_until_idle().len();
        prop_assert_eq!(early + late, messages.len());
        prop_assert_eq!(fabric.in_flight(), 0);
    }

    /// Determinism: identical injections replay to bit-identical delivery
    /// times and identical per-link statistics.
    #[test]
    fn fabric_replays_bit_identically(
        kind in arb_kind(),
        messages in arb_messages(6),
    ) {
        let run = || {
            let mut fabric = build(kind, 6);
            for &(from, to, bytes) in &messages {
                fabric.inject(from, to, bytes).expect("endpoints in range");
            }
            let d: Vec<(u64, u64)> = fabric
                .run_until_idle()
                .iter()
                .map(|d| (d.id, d.delivered_us.to_bits()))
                .collect();
            (d, fabric.stats().clone())
        };
        prop_assert_eq!(run(), run());
    }

    /// Stopping at arbitrary times changes nothing: `advance_to` at random
    /// cut points, then `run_until_idle`, delivers bit-identically (same
    /// order, same times) with the same statistics as one uncut run.
    #[test]
    fn advance_to_cut_points_replay_bit_identically(
        kind in arb_kind(),
        messages in arb_messages(6),
        cuts in prop::collection::vec(0.0f64..3000.0, 0..5),
    ) {
        let mut cuts = cuts;
        cuts.sort_by(f64::total_cmp);
        let start = |fabric: &mut Fabric| {
            for &(from, to, bytes) in &messages {
                fabric.inject(from, to, bytes).expect("endpoints in range");
            }
        };
        let bits = |d: Vec<tensordimm::interconnect::fabric::Delivery>| -> Vec<(u64, u64)> {
            d.iter().map(|d| (d.id, d.delivered_us.to_bits())).collect()
        };
        let mut whole = build(kind, 6);
        start(&mut whole);
        let uncut = bits(whole.run_until_idle());

        let mut cut = build(kind, 6);
        start(&mut cut);
        let mut pieces = Vec::new();
        for &t in &cuts {
            pieces.extend(cut.advance_to(t).expect("cuts are sorted"));
            prop_assert_eq!(cut.now_us(), t);
        }
        pieces.extend(cut.run_until_idle());
        prop_assert_eq!(bits(pieces), uncut);
        prop_assert_eq!(cut.stats(), whole.stats());
    }

    /// Exact per-hop timing: one message over `k` hops of a line arrives
    /// at `handoff + k · (setup_us + bytes / cap)` — store-and-forward with
    /// nothing to share bandwidth with.
    #[test]
    fn lone_message_pays_each_hop_exactly(
        k in 1usize..6,
        bytes in 1u64..(1 << 26),
    ) {
        let link = Link::nvlink2_x6();
        let mut fabric = build(TopologyKind::Line, 6);
        let receipt = fabric.inject(0, k, bytes).expect("endpoints in range");
        let delivered = fabric.run_until_idle()[0].delivered_us;
        let per_hop = link.setup_us() + bytes as f64 / (link.effective_gbps() * 1e3);
        let expected = receipt.handoff_us + k as f64 * per_hop;
        prop_assert!(
            (delivered - expected).abs() / expected < 1e-12,
            "{} hops: {} vs {}",
            k,
            delivered,
            expected
        );
    }

    /// Peak demand: a line broadcast streams every message over the
    /// source's first wire at once.
    #[test]
    fn line_broadcast_peaks_every_message_on_the_first_link(
        nodes in 2usize..9,
        bytes in (1u64 << 10)..(1 << 24),
    ) {
        let mut fabric = build(TopologyKind::Line, nodes);
        for g in 1..nodes {
            fabric.inject(0, g, bytes).expect("endpoints in range");
        }
        fabric.run_until_idle();
        let first = fabric
            .stats()
            .per_link
            .iter()
            .find(|(l, _)| *l == LinkId { from: 0, to: 1 })
            .expect("physical link")
            .1;
        prop_assert_eq!(first.peak_in_flight, nodes - 1);
        prop_assert_eq!(first.forwarded_messages, (nodes - 1) as u64);
    }

    /// Exactness against the closed-form oracle on single-source flow
    /// sets (the node port feeding GPUs, of random sizes and fan-outs):
    /// the zero-handoff crossbar reproduces the `Switch` per flow to
    /// float rounding, and the default-handoff crossbar sits exactly
    /// `DEFAULT_HANDOFF_US` later.
    #[test]
    fn fully_connected_converges_to_analytic_switch(
        sizes in prop::collection::vec((1u64 << 20)..(1 << 26), 1..8),
        equal in 0u8..2,
    ) {
        // Equal sizes make every flow finish at the same instant.
        let bytes = if equal == 1 { vec![sizes[0]; sizes.len()] } else { sizes };
        let link = Link::nvlink2_x6();
        let ports = bytes.len() + 1;
        let flows: Vec<Flow> = bytes
            .iter()
            .enumerate()
            .map(|(g, &b)| Flow { from: 0, to: g + 1, bytes: b })
            .collect();
        let oracle = Switch::new(ports, link.clone())
            .expect("nonzero ports")
            .concurrent_transfer_us(&flows)
            .expect("ports in range");
        let bare = crossbar_times(
            TopologyKind::FullyConnected
                .build(ports, link.clone())
                .expect("nonzero nodes")
                .with_handoff_us(0.0),
            &bytes,
        );
        let handed_off = crossbar_times(
            TopologyKind::FullyConnected.build(ports, link).expect("nonzero nodes"),
            &bytes,
        );
        for g in 0..bytes.len() {
            let rel = |t: f64| (t - oracle[g]).abs() / oracle[g];
            prop_assert!(
                rel(bare[g]) < 1e-12,
                "flow {}: zero-handoff crossbar {} vs switch {}",
                g,
                bare[g],
                oracle[g]
            );
            prop_assert!(
                rel(handed_off[g] - DEFAULT_HANDOFF_US) < 1e-12,
                "flow {}: crossbar {} minus handoff vs switch {}",
                g,
                handed_off[g],
                oracle[g]
            );
        }
    }
}

/// The fabric-backed serving path keeps the repo-wide worker-count
/// invariance: an offered-load sweep priced through the measured fabric is
/// bit-identical at 1, 2 and 4 workers.
#[test]
fn fabric_backed_sweep_invariant_across_worker_counts() {
    let model = SystemModel::paper_defaults()
        .with_transfer(TransferBackend::Fabric(TopologyKind::FullyConnected));
    let workload = Workload::by_name(WorkloadName::Facebook);
    let cfg = SimConfig::new(DesignPoint::Tdimm, 4, BatchPolicy::new(16, 200.0));
    let rates = [40_000.0, 120_000.0, 360_000.0];
    let baseline =
        offered_load_sweep_par(&model, &workload, &cfg, &rates, 120, 17, 1).expect("valid sweep");
    for workers in [2usize, 4] {
        let par = offered_load_sweep_par(&model, &workload, &cfg, &rates, 120, 17, workers)
            .expect("valid sweep");
        assert_eq!(baseline, par, "workers={workers}");
    }
}
