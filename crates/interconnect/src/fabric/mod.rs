//! Route-aware, event-driven message fabric.
//!
//! A [`FabricLayout`] describes the physical wiring (which directed
//! links exist and which ordered sequence a message crosses between two
//! nodes), and a [`Fabric`] forwards [`inject`](Fabric::inject)ed messages
//! hop by hop under finite per-link and per-port bandwidth, tracking
//! in-flight and peak-demand counters per link. The engine jumps from
//! phase end to phase end, so its delivery times are exact rather than
//! quantized.
//!
//! Three layouts are provided and run-time selectable via [`TopologyKind`]:
//! [`Line`](TopologyKind::Line), [`Ring`](TopologyKind::Ring), and
//! [`FullyConnected`](TopologyKind::FullyConnected). The fully-connected
//! fabric with zero handoff is the paper's NVSwitch crossbar, and it
//! reproduces the closed-form max-min crossbar allocation to float
//! rounding; with the default handoff it sits exactly
//! [`DEFAULT_HANDOFF_US`] later.

pub mod engine;
pub mod topology;

pub use engine::{Delivery, Fabric, FabricStats, InjectReceipt, LinkStats};
pub use topology::{FabricLayout, LinkId, TopologyKind, DEFAULT_HANDOFF_US};
