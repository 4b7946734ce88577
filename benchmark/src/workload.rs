//! The five workloads: what each one deploys, how it is loaded, and the
//! invariant its final state must satisfy.
//!
//! A workload is generated from the seed alone (world shape and op stream);
//! the deployment under test receives only the generated events.

pub mod bank;
pub mod game;
pub mod social;
pub mod tpcc;

use aeon::api::{Deployment, Session};
use aeon::cluster::ClusterTransport;
use aeon::ownership::ClassGraph;
use aeon::{Args, ContextId, DeployConfig};
use aeon_apps::social::SocialOp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// Load threads per workload: the host has two cores.
pub const LOAD_THREADS: usize = 2;
/// Worker threads per execution engine (`DeployConfig::worker_threads`).
pub const WORKER_THREADS: usize = 2;
/// Servers per deployment.
pub const SERVERS: usize = 4;

/// One event to submit, bound to the contexts of a deployed world.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Target context.
    pub target: ContextId,
    /// Method name.
    pub method: &'static str,
    /// Arguments.
    pub args: Args,
    /// Submitted in read-only mode.
    pub readonly: bool,
    /// Successful completions of this event are tallied for the invariant.
    pub tallied: bool,
    /// The event is the last of its transaction.  A load thread stops only
    /// behind such an event, so a multi-event transaction is never cut in
    /// half by the end of a phase.
    pub closes_txn: bool,
}

impl Event {
    /// An exclusive (update) event.
    pub fn update(target: ContextId, method: &'static str, args: Args) -> Self {
        Self {
            target,
            method,
            args,
            readonly: false,
            tallied: false,
            closes_txn: true,
        }
    }

    /// A read-only event.
    pub fn read(target: ContextId, method: &'static str, args: Args) -> Self {
        Self {
            readonly: true,
            ..Self::update(target, method, args)
        }
    }
}

/// How events are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `threads` closed-loop threads, each keeping a FIFO ring of `window`
    /// events in flight: a slow system receives less load.
    Closed {
        /// Load threads.
        threads: usize,
        /// Events each thread keeps in flight.
        window: usize,
    },
    /// One thread sends `rate` events per second on a fixed schedule
    /// whatever completes; a second thread waits the handles in order.
    Open {
        /// Events offered per second.
        rate: f64,
    },
}

/// Work that runs beside the event stream.
#[derive(Debug, Clone, Default)]
pub enum Side {
    /// Nothing.
    #[default]
    None,
    /// Every `every`-th op of closed-loop thread `t` toggles the next of
    /// `edges[t]` (add it, and on the next visit remove it) through
    /// `add_ownership` / `remove_ownership`.
    Churn {
        /// Ops between two ownership mutations of one thread.
        every: u64,
        /// Per thread, the `(owner, owned)` edges it toggles.
        edges: Vec<Vec<(ContextId, ContextId)>>,
    },
    /// One more thread migrates the next of `contexts` to the next server,
    /// round-robin, once per `period`, with the load threads parked while
    /// the context moves.
    Migrate {
        /// Pause between two migrations.
        period: Duration,
        /// Contexts migrated in turn.
        contexts: Vec<ContextId>,
    },
}

/// World sizes: the measured ones, or the small ones of `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes every reported figure uses.
    Full,
    /// Small worlds for the smoke check.
    Smoke,
}

impl Size {
    /// Ops generated per load thread; a thread that exhausts its stream
    /// starts over.
    pub fn stream_len(self) -> usize {
        match self {
            Size::Full => 1 << 15,
            Size::Smoke => 1 << 11,
        }
    }

    /// Picks the value for this size.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Successful completions the invariants need, summed over every phase of
/// a run (warm-up included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Successful completions of events marked [`Event::tallied`].
    pub tallied_ok: u64,
}

/// The final-state check of a workload.
pub type Invariant = Box<dyn Fn(&dyn Deployment, &Tally) -> Result<(), String> + Send + Sync>;

/// A deployed world, ready to be loaded.
pub struct World {
    /// One bound op stream per submitting thread.
    pub streams: Vec<Vec<Event>>,
    /// Work beside the streams.
    pub side: Side,
    /// Checks the final state; `Err` describes the violation.
    pub invariant: Invariant,
    /// Root of the world, for snapshot / checkpoint probes.
    pub root: ContextId,
    /// The abstract social stream and plan, replayed on the simulator by
    /// the `sim` probe (`social-zipf-runtime` only).
    pub social: Option<(aeon_apps::SocialPlan, Vec<SocialOp>)>,
}

/// The workloads, in the order they are interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Game on the in-process runtime.
    GameRuntime,
    /// The identical game stream on the channel cluster.
    GameCluster,
    /// Flattened TPC-C over TCP loopback, open loop.
    TpccTcp,
    /// Zipf-skewed social graph with ownership churn on the runtime.
    SocialZipfRuntime,
    /// Bank transfers on the channel cluster, parked around a live
    /// migration every 200 ms.
    BankMigrateCluster,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::GameRuntime,
        Workload::GameCluster,
        Workload::TpccTcp,
        Workload::SocialZipfRuntime,
        Workload::BankMigrateCluster,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GameRuntime => "game-runtime",
            Workload::GameCluster => "game-cluster",
            Workload::TpccTcp => "tpcc-tcp",
            Workload::SocialZipfRuntime => "social-zipf-runtime",
            Workload::BankMigrateCluster => "bank-migrate-cluster",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the backend is the message-passing cluster.
    pub fn on_cluster(self) -> bool {
        !matches!(self, Workload::GameRuntime | Workload::SocialZipfRuntime)
    }

    /// How the workload is offered; in-flight count is a fixed property of
    /// each workload, because throughput on the cluster depends on it.
    pub fn load(self) -> Load {
        match self {
            Workload::GameRuntime | Workload::GameCluster | Workload::SocialZipfRuntime => {
                Load::Closed {
                    threads: LOAD_THREADS,
                    window: 16,
                }
            }
            // Off saturation: single-context events over TCP loopback
            // complete at 10-17 k/s on the reference host.
            Workload::TpccTcp => Load::Open { rate: 4_000.0 },
            // The second load thread of this workload is the migrator.
            Workload::BankMigrateCluster => Load::Closed {
                threads: 1,
                window: 2,
            },
        }
    }

    /// The contextclass constraint graph of the workload's application.
    pub fn class_graph(self) -> ClassGraph {
        match self {
            Workload::GameRuntime | Workload::GameCluster => aeon_apps::game::game_class_graph(),
            Workload::TpccTcp => aeon_apps::tpcc::tpcc_class_graph(),
            Workload::SocialZipfRuntime => aeon_apps::social_class_graph(),
            Workload::BankMigrateCluster => aeon_apps::bank::bank_class_graph(),
        }
    }

    /// The deployment the workload runs on.
    pub fn deploy_config(self) -> DeployConfig {
        let config = if self.on_cluster() {
            DeployConfig::cluster()
        } else {
            DeployConfig::runtime()
        };
        let transport = match self {
            Workload::TpccTcp => ClusterTransport::TcpLoopback,
            _ => ClusterTransport::Channel,
        };
        config
            .servers(SERVERS)
            .worker_threads(WORKER_THREADS)
            .transport(transport)
            .class_graph(self.class_graph())
    }

    /// Set-ups per round.  One set-up takes 5 to 200 ms, of which the
    /// shared host can double any single one, so `deploy_s` is read off
    /// many: as many as fit in about a second of each round (a cluster also
    /// takes 50 ms to shut down between two).  A count, not a time, so every
    /// run makes the same ones.
    pub fn setups(self, size: Size) -> usize {
        let full = match self {
            Workload::GameRuntime => 60,
            Workload::GameCluster => 16,
            Workload::TpccTcp => 10,
            Workload::SocialZipfRuntime => 5,
            Workload::BankMigrateCluster => 16,
        };
        size.pick(full, 2)
    }

    /// Ops per submitting thread of the traced run, for a run of
    /// `seconds`: a count, so per-event ratios repeat.
    pub fn traced_ops(self, size: Size, seconds: f64) -> u64 {
        let per_second = match self {
            Workload::GameRuntime => 2_000.0,
            Workload::GameCluster => 60.0,
            Workload::TpccTcp => 600.0,
            Workload::SocialZipfRuntime => 150.0,
            // The history of the traced pass is checked for strict
            // serializability, which costs time quadratic in its events.
            Workload::BankMigrateCluster => 100.0,
        };
        let ops = (per_second * seconds) as u64;
        size.pick(ops, ops / 4).max(200)
    }

    /// Deploys the workload's world on `deployment` and binds its op
    /// streams to the created contexts.
    pub fn deploy_world(
        self,
        deployment: &Arc<dyn Deployment>,
        seed: u64,
        size: Size,
    ) -> aeon::Result<World> {
        match self {
            Workload::GameRuntime | Workload::GameCluster => {
                game::deploy(deployment.as_ref(), seed, size)
            }
            Workload::TpccTcp => tpcc::deploy(deployment.as_ref(), seed, size),
            Workload::SocialZipfRuntime => social::deploy(deployment.as_ref(), seed, size),
            Workload::BankMigrateCluster => bank::deploy(deployment.as_ref(), seed, size),
        }
    }
}

/// The generator of load thread `thread` for `seed`.
pub fn thread_rng(seed: u64, thread: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(thread as u64),
    )
}

/// Reads an integer through a read-only event.
pub fn read_i64(
    session: &dyn Session,
    target: ContextId,
    method: &str,
    args: Args,
) -> Result<i64, String> {
    session
        .call_readonly(target, method, args)
        .map_err(|e| format!("{method} on {target}: {e}"))?
        .as_i64()
        .ok_or_else(|| format!("{method} on {target} returned a non-integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn thread_streams_differ_by_thread_and_by_seed() {
        use rand::RngCore;
        let draw = |seed, thread| thread_rng(seed, thread).next_u64();
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
    }
}
