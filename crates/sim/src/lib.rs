//! The deterministic virtual-time backend of the unified `Deployment` API.
//!
//! The paper evaluates AEON on EC2.  This crate is the substitute
//! substrate: [`SimDeployment`] executes the *real* contextclass code,
//! single-threaded and inline, through the same event interpreter as the
//! runtime and the cluster, and charges every event virtual time.  Runs are
//! strictly serializable by construction and exact for a fixed input, so
//! they reproduce the *shapes* of the paper's figures (where a sequencer
//! saturates, how throughput follows the servers) — not the absolute EC2
//! numbers.
//!
//! Two accounting modes:
//!
//! * **serial** (the default) — each event costs `hop + Σ service + hop`
//!   and the clock is the sum over events;
//! * **contention** ([`SimDeploymentBuilder::contention`]) — a greedy
//!   timeline: events arrive open-loop, are sequenced at their target's
//!   dominator (shared for read-only events), take the per-context lock of
//!   every context they enter and queue for CPU on FIFO cores per server.
//!   Every contended resource tracks the virtual time at which it next
//!   becomes free; an event's latency is the queueing it meets plus its own
//!   service and network time, and the clock is the makespan.  This
//!   captures saturation and contention while staying exact for FIFO
//!   resources.

pub mod deployment;
mod resources;

pub use deployment::{SimDeployment, SimDeploymentBuilder, SimSession};
