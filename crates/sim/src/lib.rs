//! The deterministic virtual-time backend of the unified `Deployment` API.
//!
//! The paper evaluates AEON on EC2.  This crate is the substitute
//! substrate: [`SimDeployment`] is the runtime's core on the caller's
//! thread plus a virtual clock.  Every event runs the *real* contextclass
//! code through `aeon-runtime`'s own event path — its locks, its control
//! plane, its interpreter — on the thread that submits it, one causal chain
//! at a time, and the clock, an observer of that path, charges it virtual
//! time.  Runs are strictly serializable by construction and exact for a
//! fixed input, so they reproduce the *shapes* of the paper's figures (where
//! a sequencer saturates, how throughput follows the servers) — not the
//! absolute EC2 numbers.
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
