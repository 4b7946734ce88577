//! Foundational types shared by every crate of the AEON reproduction.
//!
//! The crate is intentionally dependency-light: identifiers, access modes,
//! the dynamic [`Value`]/[`Args`] representation used for method dispatch,
//! a small self-contained binary codec used for snapshots, migration
//! payloads and the cluster's messages, error types, and the time primitives of the virtual-time
//! backend (`aeon-sim`).
//!
//! # Examples
//!
//! ```
//! use aeon_types::{ContextId, Value, Args};
//!
//! let ctx = ContextId::new(7);
//! let args = Args::new(vec![Value::from(50i64), Value::from("gold")]);
//! assert_eq!(args.get_i64(0).unwrap(), 50);
//! assert_eq!(ctx.raw(), 7);
//! ```

pub mod access;
pub mod codec;
pub mod error;
pub mod history;
pub mod ids;
pub mod metrics;
pub mod promtext;
pub mod text;
mod thin;
pub mod time;
pub mod value;

pub use access::AccessMode;
pub use error::{AeonError, Result};
pub use history::{HistorySink, SharedHistorySink};
pub use ids::{ClassName, ClientId, ContextId, EventId, IdGenerator, ServerId};
pub use metrics::{LatencyHistogram, NetworkStatsSnapshot, ServerMetrics};
pub use thin::{ThinBytes, ThinList, ThinStr};
pub use time::{SimDuration, SimTime};
pub use value::{Args, Value};
