//! # geometa-sim — deterministic multi-site cloud simulation
//!
//! A small discrete-event simulation (DES) kernel plus a model of a
//! geographically distributed cloud: regions, datacenters (*sites*), the
//! wide-area links between them and the FIFO service queues of the services
//! deployed inside them.
//!
//! This crate is the substrate on which the geometa experiments run. The
//! paper this project reproduces (Pineda-Morales et al., CLUSTER 2015)
//! evaluated its metadata-management strategies on four Microsoft Azure
//! datacenters; we replace that testbed with a simulator whose latency
//! hierarchy is calibrated to the paper's measurements (local ≈ 2 ms RTT,
//! same-region ≈ 25 ms, geo-distant ≈ 100 ms — the "up to 50x" gap of
//! paper §IV-D).
//!
//! ## Design
//!
//! * **Virtual time** is an integer microsecond counter ([`SimTime`]);
//!   every run with the same seed is bit-for-bit reproducible.
//! * **Actors** ([`Actor`]) are state machines placed at sites. They react
//!   to messages and timers through a context ([`Ctx`]) that lets them send
//!   messages (delivered after the modeled network delay), set timers and
//!   record metrics.
//! * **The network** ([`NetworkModel`]) computes message delay as
//!   `one-way latency + size/bandwidth + jitter`, with deterministic jitter
//!   drawn from a splittable RNG.
//! * **Server queues** ([`server::ServiceQueue`]) model single-server FIFO
//!   service: this is what makes a centralized metadata registry saturate
//!   under load, exactly like the paper's baseline does.
//!
//! ## Quick example
//!
//! ```
//! use geometa_sim::prelude::*;
//!
//! // A pair of actors playing ping-pong across two datacenters.
//! #[derive(Clone, Debug)]
//! enum Msg { Ping(u32), Pong(u32) }
//!
//! struct Pinger { peer: ActorId, left: u32 }
//! impl Actor<Msg> for Pinger {
//!     fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
//!         ctx.send(self.peer, Msg::Ping(self.left), 64);
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
//!         if let Msg::Pong(n) = env.msg {
//!             if n > 0 { ctx.send(self.peer, Msg::Ping(n - 1), 64); }
//!         }
//!     }
//! }
//!
//! struct Ponger;
//! impl Actor<Msg> for Ponger {
//!     fn on_message(&mut self, ctx: &mut Ctx<Msg>, env: Envelope<Msg>) {
//!         if let Msg::Ping(n) = env.msg {
//!             ctx.send(env.from, Msg::Pong(n), 64);
//!         }
//!     }
//! }
//!
//! let topo = Topology::azure_4dc();
//! let mut engine = Engine::new(topo, 42);
//! let site_a = SiteId(0);
//! let site_b = SiteId(2); // geo-distant
//! let ponger = engine.add_actor(site_b, Ponger);
//! engine.add_actor(site_a, Pinger { peer: ponger, left: 3 });
//! let report = engine.run();
//! assert!(report.events_processed > 0);
//! assert!(engine.now() > SimTime::ZERO);
//! ```

pub mod engine;
mod event;
pub mod faults;
mod metrics;
mod network;
pub mod oracle;
pub mod rng;
pub mod server;
pub mod time;
pub mod topology;

pub use engine::{Actor, ActorId, Ctx, Engine, Envelope, RunReport, TimerId};
pub use faults::{FaultAction, FaultNotice, FaultSchedule, FaultStats};
pub use network::{LinkStats, NetworkModel};
pub use oracle::{AckedWrite, Fingerprint, OpLog, SharedOpLog};
pub use rng::SplitMix64;
pub use server::ServiceQueue;
pub use time::{SimDuration, SimTime};
pub use topology::{Distance, Region, SiteId, SiteSpec, Topology};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::engine::{Actor, ActorId, Ctx, Engine, Envelope, RunReport, TimerId};
    pub use crate::faults::{FaultAction, FaultNotice, FaultSchedule, FaultStats};
    pub use crate::metrics::MetricsHub;
    pub use crate::network::NetworkModel;
    pub use crate::oracle::{Fingerprint, OpLog, SharedOpLog};
    pub use crate::rng::SplitMix64;
    pub use crate::server::ServiceQueue;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Distance, Region, SiteId, SiteSpec, Topology};
}
