//! Config-driven deployment: one entry point, three execution backends.
//!
//! Application code written against `dyn Deployment` does not care which
//! substrate executes it; [`deploy`] makes the choice a configuration value
//! instead of a type.  A [`DeployConfig`] names the backend and the knobs
//! every backend understands (server count, worker pool size, class
//! constraints), and the returned `Box<dyn Deployment>` is whatever
//! the config selected:
//!
//! * [`Backend::Runtime`] — the in-process concurrent runtime
//!   (`aeon_runtime::AeonRuntime`);
//! * [`Backend::Cluster`] — the distributed message-passing cluster
//!   (`aeon_cluster::Cluster`);
//! * [`Backend::Sim`] — the deterministic virtual-time simulator
//!   (`aeon_sim::SimDeployment`).
//!
//! [`deploy_shared`] returns an `Arc<dyn Deployment>` instead, which is the
//! shape long-lived services hold (the elasticity manager's
//! `EManager::new` takes exactly that).

use aeon_api::Deployment;
use aeon_cluster::{Cluster, ClusterTransport};
use aeon_ownership::ClassGraph;
use aeon_runtime::AeonRuntime;
use aeon_sim::SimDeployment;
use aeon_types::{AeonError, Result};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Which execution substrate [`deploy`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The in-process concurrent runtime (`AeonRuntime`).
    #[default]
    Runtime,
    /// The distributed message-passing cluster (`Cluster`).
    Cluster,
    /// The deterministic virtual-time simulator (`SimDeployment`).
    Sim,
}

impl Backend {
    /// All backends, in the order benchmarks and parity tests iterate them.
    pub const ALL: [Backend; 3] = [Backend::Runtime, Backend::Cluster, Backend::Sim];
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Backend::Runtime => "runtime",
            Backend::Cluster => "cluster",
            Backend::Sim => "sim",
        })
    }
}

impl FromStr for Backend {
    type Err = AeonError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "runtime" | "in-process" => Ok(Backend::Runtime),
            "cluster" | "distributed" => Ok(Backend::Cluster),
            "sim" | "simulator" => Ok(Backend::Sim),
            other => Err(AeonError::Config(format!(
                "unknown backend {other:?} (expected runtime, cluster, or sim)"
            ))),
        }
    }
}

/// Configuration consumed by [`deploy`].
///
/// The fields are public for struct-literal construction; the builder-style
/// methods cover the common cases.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// The execution substrate to build.
    pub backend: Backend,
    /// Number of (logical or simulated) servers started with the
    /// deployment.
    pub servers: usize,
    /// Resident worker-pool threads per execution engine (the runtime's
    /// pool, or each cluster node's pool).  `None` keeps the backend
    /// default (available parallelism).  Ignored by the single-threaded
    /// simulator.
    pub worker_threads: Option<usize>,
    /// Optional contextclass constraint graph.  Every backend refuses it
    /// unless it passes `aeon_analyzer::enforce`.
    pub class_graph: Option<ClassGraph>,
    /// Message transport used by [`Backend::Cluster`]: in-process channels
    /// (the default), TCP sockets on loopback, or a TCP mesh of external
    /// `aeon-node` processes.  Ignored by the runtime and the simulator,
    /// which have no wire.
    pub transport: ClusterTransport,
}

impl Default for DeployConfig {
    fn default() -> Self {
        Self {
            backend: Backend::default(),
            servers: 1,
            worker_threads: None,
            class_graph: None,
            transport: ClusterTransport::default(),
        }
    }
}

impl DeployConfig {
    /// Starts a config for `backend` with one server and default knobs.
    pub fn new(backend: Backend) -> Self {
        Self {
            backend,
            ..Self::default()
        }
    }

    /// A config for the in-process runtime.
    pub fn runtime() -> Self {
        Self::new(Backend::Runtime)
    }

    /// A config for the distributed cluster.
    pub fn cluster() -> Self {
        Self::new(Backend::Cluster)
    }

    /// A config for the deterministic simulator.
    pub fn sim() -> Self {
        Self::new(Backend::Sim)
    }

    /// Sets the number of servers started with the deployment.
    #[must_use]
    pub fn servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Sets the resident worker-pool size (ignored by the simulator).
    #[must_use]
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads);
        self
    }

    /// Installs a contextclass constraint graph.
    #[must_use]
    pub fn class_graph(mut self, classes: ClassGraph) -> Self {
        self.class_graph = Some(classes);
        self
    }

    /// Selects the cluster message transport (ignored by the runtime and
    /// the simulator).
    #[must_use]
    pub fn transport(mut self, transport: ClusterTransport) -> Self {
        self.transport = transport;
        self
    }
}

/// Builds the deployment selected by `config` and returns it behind the
/// backend-agnostic trait.
///
/// # Errors
///
/// * [`AeonError::Config`] when `servers` is zero or a knob is invalid.
/// * [`AeonError::ClassCycleDetected`] when the class graph's ownership
///   constraints are cyclic.
/// * [`AeonError::AnalysisRejected`] when the static analysis reports an
///   error diagnostic on the class graph.
///
/// # Examples
///
/// ```
/// use aeon::prelude::*;
/// use aeon::DeployConfig;
///
/// # fn main() -> aeon::Result<()> {
/// let deployment = aeon::deploy(DeployConfig::runtime().servers(2))?;
/// let counter = deployment.create_context(
///     Box::new(KvContext::new("Counter")),
///     Placement::Auto,
/// )?;
/// let session = deployment.session();
/// session.call(counter, "incr", args!["hits", 1])?;
/// assert_eq!(
///     session.call_readonly(counter, "get", args!["hits"])?,
///     Value::from(1i64)
/// );
/// deployment.shutdown();
/// # Ok(())
/// # }
/// ```
pub fn deploy(config: DeployConfig) -> Result<Box<dyn Deployment>> {
    match config.backend {
        Backend::Runtime => {
            let mut builder = AeonRuntime::builder().servers(config.servers);
            if let Some(threads) = config.worker_threads {
                builder = builder.worker_threads(threads);
            }
            if let Some(classes) = config.class_graph {
                builder = builder.class_graph(classes);
            }
            Ok(Box::new(builder.build()?))
        }
        Backend::Cluster => {
            let mut builder = Cluster::builder()
                .servers(config.servers)
                .transport(config.transport);
            if let Some(threads) = config.worker_threads {
                builder = builder.worker_threads(threads);
            }
            if let Some(classes) = config.class_graph {
                builder = builder.class_graph(classes);
            }
            Ok(Box::new(builder.build()?))
        }
        Backend::Sim => {
            let mut builder = SimDeployment::builder().servers(config.servers);
            if let Some(classes) = config.class_graph {
                builder = builder.class_graph(classes);
            }
            Ok(Box::new(builder.build()?))
        }
    }
}

/// Like [`deploy`], but returns the deployment behind an `Arc` — the shape
/// shared services such as the elasticity manager hold.
///
/// # Errors
///
/// Same conditions as [`deploy`].
pub fn deploy_shared(config: DeployConfig) -> Result<Arc<dyn Deployment>> {
    deploy(config).map(Arc::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::{KvContext, Placement};
    use aeon_types::{args, Value};

    #[test]
    fn every_backend_deploys_from_config() {
        for backend in Backend::ALL {
            let deployment = deploy(DeployConfig::new(backend).servers(2)).unwrap();
            assert_eq!(deployment.backend_name(), backend.to_string());
            assert_eq!(deployment.servers().len(), 2);
            let ctx = deployment
                .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                .unwrap();
            let session = deployment.session();
            session.call(ctx, "incr", args!["n", 2]).unwrap();
            assert_eq!(
                session.call_readonly(ctx, "get", args!["n"]).unwrap(),
                Value::from(2i64),
                "backend {backend}"
            );
            // The control-plane metrics surface is present everywhere.
            let metrics = deployment.server_metrics();
            assert_eq!(metrics.len(), 2, "backend {backend}");
            assert_eq!(
                metrics.iter().map(|m| m.context_count).sum::<usize>(),
                1,
                "backend {backend}"
            );
            deployment.shutdown();
        }
    }

    #[test]
    fn backend_names_parse_and_display() {
        for backend in Backend::ALL {
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
        assert_eq!("in-process".parse::<Backend>().unwrap(), Backend::Runtime);
        assert_eq!("distributed".parse::<Backend>().unwrap(), Backend::Cluster);
        assert_eq!("simulator".parse::<Backend>().unwrap(), Backend::Sim);
        assert!(matches!(
            "orleans".parse::<Backend>(),
            Err(AeonError::Config(_))
        ));
    }

    #[test]
    fn zero_servers_is_rejected_on_every_backend() {
        for backend in Backend::ALL {
            assert!(matches!(
                deploy(DeployConfig::new(backend).servers(0)),
                Err(AeonError::Config(_))
            ));
        }
    }

    #[test]
    fn cluster_deploys_over_tcp_loopback() {
        let deployment = deploy(
            DeployConfig::cluster()
                .servers(2)
                .transport(ClusterTransport::TcpLoopback),
        )
        .unwrap();
        let ctx = deployment
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = deployment.session();
        session.call(ctx, "incr", args!["n", 3]).unwrap();
        assert_eq!(
            session.call_readonly(ctx, "get", args!["n"]).unwrap(),
            Value::from(3i64)
        );
        deployment.shutdown();
    }

    #[test]
    fn enforce_mode_refuses_unsound_graphs_on_every_backend() {
        use aeon_ownership::{ClassGraph, MethodRef};

        // Account calling back up into Branch is not covered by ownership:
        // AEON002, an error-severity diagnostic.
        fn unsound() -> ClassGraph {
            let mut classes = ClassGraph::new();
            classes.add_constraint("Branch", "Account");
            classes.declare_method("Branch", "transfer", false);
            classes.declare_calls("Account", "evil", [MethodRef::new("Branch", "transfer")]);
            classes
        }

        for backend in Backend::ALL {
            match deploy(DeployConfig::new(backend).class_graph(unsound())) {
                Err(AeonError::AnalysisRejected { errors, report }) => {
                    assert!(errors >= 1, "backend {backend}");
                    assert!(report.contains("AEON002"), "backend {backend}: {report}");
                }
                Err(other) => panic!("backend {backend}: unexpected {other:?}"),
                Ok(_) => panic!("backend {backend}: unsound graph deployed"),
            }
        }
    }

    #[test]
    fn pool_knobs_reach_the_runtime() {
        let deployment = deploy(DeployConfig::runtime().servers(1).worker_threads(2)).unwrap();
        assert_eq!(deployment.backend_name(), "runtime");
        let stats = deployment.executor_stats().expect("runtime has a pool");
        assert_eq!(stats.workers, 2);
        // The runtime has no wire, so no transport counters.
        assert!(deployment.network_stats().is_none());
        deployment.shutdown();
    }

    #[test]
    fn stats_surfaces_match_each_backend() {
        // Runtime: pool yes, wire no.  Cluster: both.  Sim: neither.
        let runtime = deploy(DeployConfig::runtime()).unwrap();
        assert!(runtime.executor_stats().is_some());
        assert!(runtime.network_stats().is_none());
        runtime.shutdown();

        let cluster = deploy(DeployConfig::cluster().servers(2)).unwrap();
        let session = cluster.session();
        let ctx = cluster
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        // Submitted, not called: a blocking call is served on the caller's
        // thread and never reaches a node's pool.
        let handle = session.submit_event(ctx, "incr", args!["n", 1]).unwrap();
        handle.wait().unwrap();
        let stats = cluster.executor_stats().expect("cluster nodes have pools");
        assert!(stats.workers > 0);
        assert!(stats.submitted > 0);
        // The ack is sent from inside the pool task, so `completed` may
        // trail the client's return by an instant.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while cluster.executor_stats().unwrap().completed == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "node pool never recorded the completion"
            );
            std::thread::yield_now();
        }
        assert!(cluster.network_stats().is_some());
        cluster.shutdown();

        let sim = deploy(DeployConfig::sim()).unwrap();
        assert!(sim.executor_stats().is_none());
        assert!(sim.network_stats().is_none());
        sim.shutdown();
    }
}
