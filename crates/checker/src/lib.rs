//! # aeon-checker — execution-history recording and serializability checking
//!
//! The AEON paper's central correctness claim (§4) is that every execution
//! of an application built on the runtime is **strictly serializable**:
//! indistinguishable from some serial execution of its events that respects
//! the real-time order of non-overlapping events.  This crate provides the
//! tooling to *test* that claim against the actual runtime rather than take
//! it on faith:
//!
//! * [`HistoryRecorder`] / [`History`] capture what happened during a run —
//!   per-event invocation/response spans and per-context read/write
//!   sequences;
//! * [`check_strict_serializability`] builds the precedence graph (conflict
//!   edges + real-time edges) and either produces an equivalent serial
//!   order or a witnessed cycle;
//! * [`generator`] produces synthetic correct and incorrect histories (and
//!   the [`generator::inject_lost_update`] cyclic mutation) for property
//!   tests and benchmarks of the checker itself.
//!
//! # The live recording surface
//!
//! Synthetic histories only test the checker; to test the *system*, the
//! recorder doubles as the canonical [`aeon_types::HistorySink`]: install a
//! clone on any `aeon_api::Deployment` via `install_history_sink` and the
//! backend itself feeds it —
//!
//! * the gateway/runtime records `invoked` when an event id is assigned
//!   (before the event can start) and `responded` once the completion is
//!   observable, so recorded spans over-approximate the true ones and the
//!   derived real-time order stays sound;
//! * each node records `accessed` under the context's object lock, so
//!   per-context sequences equal the order the context observed;
//! * deployment-level snapshots are recorded as one event *reading* every
//!   member, restores as one event *writing* every member — which is what
//!   lets the checker catch a torn (non-atomic) snapshot as a conflict
//!   cycle through the snapshot event.
//!
//! # The distributed freeze protocol being verified
//!
//! The cluster's `snapshot_context`/`restore_snapshot` run a coordinated
//! subtree freeze (`FreezeReq`/`FreezeAck`/`ThawReq`): the freeze event
//! first takes the root's dominator sequencer exclusively (quiescing every
//! in-flight event that could reach shared members), then exclusively
//! activates the members owner-before-owned across their hosting nodes,
//! capturing or restoring each at activation while *all* locks stay held,
//! and finally thaws every contacted node — also on failure, so a node
//! crash mid-freeze leaves no stranded locks.  The chaos suite
//! (`tests/chaos_serializability.rs`) drives randomized workloads with
//! snapshot/crash/restore/migration injected mid-run, feeds the recorded
//! history to [`check_strict_serializability`], and demonstrates that a
//! member-at-a-time capture (one read-only event per account, recorded by
//! the test as a single event) is rejected by the same machinery.
//!
//! # Examples
//!
//! ```
//! use aeon_api::Deployment;
//! use aeon_checker::{check_strict_serializability, HistoryRecorder};
//! use aeon_runtime::{AeonRuntime, KvContext, Placement};
//! use aeon_types::args;
//! use std::sync::Arc;
//!
//! # fn main() -> aeon_types::Result<()> {
//! let recorder = HistoryRecorder::new();
//! let runtime = AeonRuntime::builder().build()?;
//! runtime.install_history_sink(Arc::new(recorder.clone()));
//! let item = runtime.create_context(Box::new(KvContext::new("Item")), Placement::Auto)?;
//! let session = Deployment::session(&runtime);
//! session.call(item, "set", args!["gold", 3])?;
//! let history = recorder.history();
//! let order = check_strict_serializability(&history).expect("serializable");
//! assert_eq!(order.order.len(), history.event_count());
//! runtime.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checker;
pub mod generator;
pub mod history;

pub use checker::{
    check_serializability, check_strict_serializability, EdgeReason, PrecedenceEdge,
    PrecedenceGraph, SerializationOrder, Violation,
};
pub use generator::{inject_lost_update, GeneratorConfig};
pub use history::{EventSpan, History, HistoryRecorder, OpKind, Operation};
