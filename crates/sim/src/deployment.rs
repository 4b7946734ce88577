//! The deterministic virtual-time deployment backend.
//!
//! [`SimDeployment`] is an [`AeonRuntime`] that runs every event on the
//! caller's thread, plus a virtual clock.  A session runs each event
//! through [`AeonClient::call_with_mode`]: the event takes its locks in the
//! runtime's own `ServerCore`, executes the *real* contextclass code through
//! the shared interpreter, and starts its sub-events on the same thread, so
//! nothing reaches the runtime's worker pool (the sim builds it with one
//! thread, which stays idle).  A session holds one sim-wide mutex for each
//! whole causal chain, so events run one at a time, whatever the number of
//! callers: every run is serial, and exact for a fixed input — the property
//! the evaluation harness needs.
//!
//! The clock is the runtime's [`EventObserver`]: it keeps the `(context,
//! server)` trace of the contexts each event enters and, when the event
//! finishes, charges it virtual time — network hops between the client and
//! the servers it crosses plus a per-entry service time, serially or
//! through the contention timeline.  Hosting, ids, the ownership network,
//! placement, migration, crash and restore are the runtime's: the sim's
//! `Deployment` impl forwards the two backend hooks (the runtime's control
//! state and hosting step) and the server and shutdown operations, and
//! writes only its name, its sessions and its metrics.

use crate::resources::{CpuTimeline, LockTimeline};
use aeon_ownership::{ClassGraph, ControlPlane};
use aeon_runtime::{
    AeonClient, AeonRuntime, ControlState, Deployment, EventHandle, EventObserver, Hosted, Session,
};
use aeon_types::{
    AccessMode, AeonError, Args, ClientId, ContextId, EventId, LatencyHistogram, Result, ServerId,
    ServerMetrics, SimDuration, SimTime,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Builder for [`SimDeployment`].
#[derive(Debug)]
pub struct SimDeploymentBuilder {
    servers: usize,
    class_graph: Option<ClassGraph>,
    service: SimDuration,
    hop: SimDuration,
    contention_cores: Option<usize>,
    arrival_interval: Option<SimDuration>,
}

impl Default for SimDeploymentBuilder {
    fn default() -> Self {
        Self {
            servers: 1,
            class_graph: None,
            service: SimDuration::from_micros(100),
            hop: SimDuration::from_micros(200),
            contention_cores: None,
            arrival_interval: None,
        }
    }
}

impl SimDeploymentBuilder {
    /// Sets the number of virtual servers.
    #[must_use]
    pub fn servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Installs a contextclass constraint graph: the runtime underneath
    /// validates against it, and [`SimDeploymentBuilder::build`] refuses it
    /// unless it passes `aeon_analyzer::enforce`.
    #[must_use]
    pub fn class_graph(mut self, classes: ClassGraph) -> Self {
        self.class_graph = Some(classes);
        self
    }

    /// Sets the virtual CPU time charged per method execution.
    #[must_use]
    pub fn service_time(mut self, service: SimDuration) -> Self {
        self.service = service;
        self
    }

    /// Sets the virtual one-way network latency between servers.
    #[must_use]
    pub fn network_hop(mut self, hop: SimDuration) -> Self {
        self.hop = hop;
        self
    }

    /// Enables the contention timeline: instead of charging every event the
    /// serial `hop + cost + hop`, virtual time flows through contended
    /// resources: one lock per context and FIFO CPU cores per server.
    /// Each event is sequenced at its target's dominator (shared for
    /// read-only events), every context it touches takes its per-context
    /// lock, and CPU service queues on `cores` FIFO cores per server — so
    /// offered load beyond capacity shows up as queueing latency and
    /// throughput saturation, with the *real* contextclass code executing.
    #[must_use]
    pub fn contention(mut self, cores: usize) -> Self {
        self.contention_cores = Some(cores.max(1));
        self
    }

    /// Sets the open-loop inter-arrival gap between submitted events in
    /// contention mode (default: the service time, i.e. offered load equal
    /// to one core's capacity).  Ignored without
    /// [`SimDeploymentBuilder::contention`].
    #[must_use]
    pub fn arrival_interval(mut self, interval: SimDuration) -> Self {
        self.arrival_interval = Some(interval);
        self
    }

    /// Builds the deployment: a runtime of `servers` servers with one pool
    /// thread, observed by the virtual clock.
    ///
    /// # Errors
    ///
    /// Those of `RuntimeBuilder::build`: [`AeonError::Config`]
    /// when `servers` is zero, and those of `aeon_analyzer::enforce` on the
    /// class graph.
    pub fn build(self) -> Result<SimDeployment> {
        let clock = Arc::new(VirtualClock {
            service: self.service,
            hop: self.hop,
            contention: self
                .contention_cores
                .map(|cores| (cores, self.arrival_interval.unwrap_or(self.service))),
            chain: Mutex::new(()),
            state: Mutex::default(),
        });
        let mut runtime = AeonRuntime::builder()
            .servers(self.servers)
            .worker_threads(1)
            .observer(Arc::clone(&clock) as Arc<dyn EventObserver>);
        if let Some(classes) = self.class_graph {
            runtime = runtime.class_graph(classes);
        }
        Ok(SimDeployment {
            runtime: runtime.build()?,
            clock,
        })
    }
}

/// The virtual clock: the runtime's event observer, and the mutex that
/// keeps the sim one causal chain at a time.
#[derive(Debug)]
struct VirtualClock {
    service: SimDuration,
    hop: SimDuration,
    /// Cores per server and arrival gap of the contention timeline (`None`:
    /// serial accounting).
    contention: Option<(usize, SimDuration)>,
    /// Held by a session for a whole causal chain.
    chain: Mutex<()>,
    state: Mutex<Clock>,
}

/// Everything charged since the last reset.
#[derive(Debug, Default)]
struct Clock {
    now: SimTime,
    completed: u64,
    failed: u64,
    /// Distribution of per-event virtual latencies (same buckets as the
    /// live backends, so metric reports are comparable across engines).
    latency: LatencyHistogram,
    /// The same latencies, each under the server hosting its event's target.
    server_latency: HashMap<ServerId, LatencyHistogram>,
    /// The contexts the running event entered, in order, with their
    /// servers.
    trace: Vec<(ContextId, ServerId)>,
    /// The first event that finished in the running chain: its root.
    root: Option<EventId>,
    /// The contention timeline's open-loop arrival cursor.
    next_arrival: SimTime,
    /// The timeline's locks: per context, and under `GLOBAL_ROOT` the
    /// sequencer of events whose dominator is the unnamed global root
    /// (footnote 1, §3).
    locks: HashMap<ContextId, LockTimeline>,
    /// The timeline's FIFO multi-core CPU per server.
    cpus: HashMap<ServerId, CpuTimeline>,
}

impl VirtualClock {
    /// Charges the running event's virtual time through the contended
    /// resources: client hop, `sequencer` (shared for read-only events),
    /// then per context entered a server hop when crossing servers, the
    /// per-context lock, and FIFO CPU service — driven by the trace of the
    /// *real* execution.  The clock is the makespan.  Returns the latency.
    fn charge_timeline(
        &self,
        clock: &mut Clock,
        (cores, interval): (usize, SimDuration),
        sequencer: ContextId,
        readonly: bool,
    ) -> SimDuration {
        let start = |lock: &LockTimeline, now| {
            if readonly {
                lock.next_shared_start(now)
            } else {
                lock.next_exclusive_start(now)
            }
        };
        let hold = |lock: &mut LockTimeline, end| {
            if readonly {
                lock.hold_shared_until(end);
            } else {
                lock.hold_exclusive_until(end);
            }
        };
        let arrival = clock.next_arrival;
        clock.next_arrival = arrival + interval;
        let mut now = start(
            clock.locks.entry(sequencer).or_default(),
            arrival + self.hop,
        );
        let mut at = clock.trace.first().map(|&(_, server)| server);
        for &(context, server) in &clock.trace {
            if Some(server) != at {
                now += self.hop;
                at = Some(server);
            }
            let begin = start(clock.locks.entry(context).or_default(), now);
            now = clock
                .cpus
                .entry(server)
                .or_insert_with(|| CpuTimeline::new(cores))
                .run(begin, self.service);
            hold(clock.locks.entry(context).or_default(), now);
        }
        // The sequencer was held for the whole execution.
        hold(clock.locks.entry(sequencer).or_default(), now);
        now += self.hop;
        clock.now = clock.now.max(now);
        now - arrival
    }
}

impl EventObserver for VirtualClock {
    fn entered(&self, plane: &ControlPlane, _event: EventId, context: ContextId) {
        let server = plane.placement_of(context).unwrap_or(ServerId::new(0));
        self.state.lock().trace.push((context, server));
    }

    /// Serial accounting charges `hop + Σ service + hop`, a hop more per
    /// server crossing, and the clock is the sum over events; the timeline
    /// charges at the event's sequencer as of its end.
    fn finished(
        &self,
        plane: &ControlPlane,
        event: EventId,
        target: ContextId,
        mode: AccessMode,
        ok: bool,
    ) {
        let mut clock = self.state.lock();
        let latency = match self.contention {
            Some(contention) => {
                let sequencer = plane
                    .sequencer_of(target)
                    .map_or(target, |sequencer| sequencer.lock(target));
                self.charge_timeline(&mut clock, contention, sequencer, mode.is_read_only())
            }
            None => {
                let trace = &clock.trace;
                let hops = 2 + trace.windows(2).filter(|w| w[0].1 != w[1].1).count() as u64;
                let latency = SimDuration::from_micros(
                    hops * self.hop.as_micros() + trace.len() as u64 * self.service.as_micros(),
                );
                clock.now += latency;
                latency
            }
        };
        clock.trace.clear();
        clock.latency.record(latency.as_micros());
        if let Ok(server) = plane.placement_of(target) {
            let histogram = clock.server_latency.entry(server).or_default();
            histogram.record(latency.as_micros());
        }
        if ok {
            clock.completed += 1;
        } else {
            clock.failed += 1;
        }
        clock.root.get_or_insert(event);
    }
}

/// The deterministic virtual-time deployment: the third execution backend
/// of the unified API, next to `AeonRuntime` and `Cluster`.
///
/// Cloning the handle is cheap and all clones drive the same deployment.
///
/// # Examples
///
/// ```
/// use aeon_api::{Deployment, Session};
/// use aeon_runtime::KvContext;
/// use aeon_sim::SimDeployment;
/// use aeon_types::{args, Value};
///
/// # fn main() -> aeon_types::Result<()> {
/// let sim = SimDeployment::builder().servers(4).build()?;
/// let item = sim.create_context(Box::new(KvContext::new("Item")), aeon_api::Placement::Auto)?;
/// let session = sim.session();
/// session.call(item, "incr", args!["gold", 3])?;
/// assert_eq!(session.call_readonly(item, "get", args!["gold"])?, Value::from(3i64));
/// assert!(sim.virtual_now() > aeon_types::SimTime::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimDeployment {
    runtime: AeonRuntime,
    clock: Arc<VirtualClock>,
}

impl SimDeployment {
    /// Starts building a deterministic deployment.
    pub fn builder() -> SimDeploymentBuilder {
        SimDeploymentBuilder::default()
    }

    /// Opens a session (concrete type; the trait method boxes it).
    pub fn client(&self) -> SimSession {
        SimSession {
            client: self.runtime.client(),
            clock: Arc::clone(&self.clock),
        }
    }

    /// The current virtual time.  In the default serial accounting events
    /// run back to back, so it is the sum of the virtual latencies of every
    /// event (a migration is one) so far; in contention mode events overlap and
    /// it is the makespan, the latest completion time.
    pub fn virtual_now(&self) -> SimTime {
        self.clock.state.lock().now
    }

    /// Number of events that completed successfully.
    pub fn events_completed(&self) -> u64 {
        self.clock.state.lock().completed
    }

    /// Number of events that failed.
    pub fn events_failed(&self) -> u64 {
        self.clock.state.lock().failed
    }

    /// Mean virtual latency per event, or zero before the first event.
    pub fn mean_virtual_latency(&self) -> SimDuration {
        SimDuration::from_micros(self.clock.state.lock().latency.mean_micros())
    }

    /// Virtual throughput: completed events over the virtual makespan
    /// ([`SimDeployment::virtual_now`]), in events per virtual second.
    pub fn virtual_throughput(&self) -> f64 {
        let clock = self.clock.state.lock();
        let horizon = clock.now.as_secs_f64();
        if horizon == 0.0 {
            return 0.0;
        }
        clock.completed as f64 / horizon
    }

    /// Rewinds virtual time to zero: clears the clock, event counters,
    /// latency accounting, and (in contention mode) every lock and CPU
    /// timeline plus the arrival cursor.  Drivers call this between the
    /// deployment phase and the measured stream so setup traffic does not
    /// contend with the workload.  Context state and history sinks are
    /// untouched.
    pub fn reset_virtual_time(&self) {
        let _chain = self.clock.chain.lock();
        *self.clock.state.lock() = Clock::default();
    }
}

/// A client session on a [`SimDeployment`]; events execute at submission,
/// on the submitting thread, one causal chain at a time.
#[derive(Debug, Clone)]
pub struct SimSession {
    client: AeonClient,
    clock: Arc<VirtualClock>,
}

impl Session for SimSession {
    fn client_id(&self) -> ClientId {
        self.client.client_id()
    }

    fn submit_with_mode(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<EventHandle> {
        let _chain = self.clock.chain.lock();
        self.clock.state.lock().root = None;
        let result = self.client.call_with_mode(target, method, args, mode);
        match self.clock.state.lock().root.take() {
            Some(event) => Ok(EventHandle::ready(event, result)),
            // Refused before it became an event: shutdown, unknown target.
            None => Err(result
                .err()
                .unwrap_or_else(|| AeonError::internal("an event ran without finishing"))),
        }
    }
}

/// The runtime's control state, hosting, servers and shutdown, with the
/// sim's sessions and virtual-time metrics; every other control method is
/// the trait's own, over these.
impl Deployment for SimDeployment {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn control(&self) -> &ControlState {
        self.runtime.control()
    }

    fn host(&self, server: ServerId, context: ContextId, hosted: Hosted<'_>) -> Result<()> {
        self.runtime.host(server, context, hosted)
    }

    fn session(&self) -> Box<dyn Session> {
        Box::new(self.client())
    }

    fn add_server(&self) -> Result<ServerId> {
        self.runtime.add_server()
    }

    fn remove_server(&self, server: ServerId) -> Result<()> {
        self.runtime.remove_server(server)
    }

    /// Virtual-time metrics: a server's latency is the virtual latency
    /// charged so far to the events whose target it hosts, and the queue
    /// depth is zero because events run at submission.
    fn server_metrics(&self) -> Vec<ServerMetrics> {
        let latency = self.clock.state.lock().server_latency.clone();
        let plane = self.control().plane().read();
        let total_contexts = plane.context_count();
        plane
            .online_servers()
            .into_iter()
            .map(|server| {
                ServerMetrics::from_load(
                    server,
                    plane.hosted_on(server),
                    total_contexts,
                    0,
                    latency.get(&server).copied().unwrap_or_default(),
                )
            })
            .collect()
    }

    fn crash_server(&self, server: ServerId) -> Result<()> {
        self.runtime.crash_server(server)
    }

    fn shutdown(&self) {
        self.runtime.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::{ContextObject, KvContext, Placement};
    use aeon_types::{args, Value};

    #[test]
    fn events_execute_inline_and_charge_virtual_time() {
        let sim = SimDeployment::builder().servers(2).build().unwrap();
        let item = sim
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = sim.client();
        assert_eq!(
            session.call(item, "incr", args!["n", 5]).unwrap(),
            Value::from(5i64)
        );
        assert_eq!(sim.events_completed(), 1);
        let after_one = sim.virtual_now();
        assert!(after_one > SimTime::ZERO);
        session.call(item, "incr", args!["n", 1]).unwrap();
        assert!(sim.virtual_now() > after_one);
        assert!(sim.mean_virtual_latency() > SimDuration::ZERO);
    }

    #[test]
    fn readonly_and_unknown_method_semantics_match_the_runtime() {
        let sim = SimDeployment::builder().build().unwrap();
        let item = sim
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = sim.client();
        assert!(matches!(
            session.call_readonly(item, "incr", args!["n", 1]),
            Err(AeonError::ReadOnlyViolation { .. })
        ));
        assert!(matches!(
            session.call(item, "bogus", args![]),
            Err(AeonError::UnknownMethod { .. })
        ));
        assert_eq!(sim.events_failed(), 2);
    }

    #[test]
    fn migration_and_placement_are_tracked() {
        let sim = SimDeployment::builder().servers(3).build().unwrap();
        sim.register_class_factory(
            "Item",
            Arc::new(|state: &Value| {
                let mut item = KvContext::new("Item");
                ContextObject::restore(&mut item, state);
                Box::new(item) as Box<dyn ContextObject>
            }),
        );
        let item = sim
            .create_context(
                Box::new(KvContext::new("Item")),
                Placement::Server(ServerId::new(0)),
            )
            .unwrap();
        let session = sim.client();
        session.call(item, "set", args!["gold", 7]).unwrap();
        let moved = sim.migrate_context(item, ServerId::new(2)).unwrap();
        assert!(moved > 0);
        assert_eq!(sim.placement_of(item).unwrap(), ServerId::new(2));
        assert_eq!(
            session.call_readonly(item, "get", args!["gold"]).unwrap(),
            Value::from(7i64)
        );
    }

    #[test]
    fn contention_mode_saturates_a_single_sequencer() {
        // All events arrive at t=0 against one context on a one-core
        // server: the k-th event queues behind k predecessors, exactly the
        // fig5b saturation shape — but executing real contextclass code.
        let service = SimDuration::from_micros(100);
        let sim = SimDeployment::builder()
            .servers(1)
            .contention(1)
            .arrival_interval(SimDuration::ZERO)
            .service_time(service)
            .network_hop(SimDuration::ZERO)
            .build()
            .unwrap();
        let item = sim
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = sim.client();
        let events = 10u64;
        for _ in 0..events {
            session.call(item, "incr", args!["n", 1]).unwrap();
        }
        assert_eq!(sim.events_completed(), events);
        // Makespan: a serialized FIFO chain of `events` service times.
        let micros = |n: u64| SimTime::from_micros(service.as_micros() * n);
        assert_eq!(sim.virtual_now(), micros(events));
        // Mean latency of the chain: (1 + 2 + ... + 10)/10 = 5.5 services.
        assert_eq!(
            sim.mean_virtual_latency().as_micros(),
            service.as_micros() * (events + 1) / 2
        );
        assert!((sim.virtual_throughput() - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn readonly_events_overlap_on_shared_locks_and_spare_cores() {
        let service = SimDuration::from_micros(100);
        let build = |readonly: bool| {
            let sim = SimDeployment::builder()
                .servers(1)
                .contention(4)
                .arrival_interval(SimDuration::ZERO)
                .service_time(service)
                .network_hop(SimDuration::ZERO)
                .build()
                .unwrap();
            let item = sim
                .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                .unwrap();
            let session = sim.client();
            for _ in 0..4 {
                if readonly {
                    session.call_readonly(item, "get", args!["n"]).unwrap();
                } else {
                    session.call(item, "incr", args!["n", 1]).unwrap();
                }
            }
            sim.virtual_now()
        };
        // Four concurrent reads share the sequencer and spread over the
        // four cores; four writes serialize on the exclusive lock.
        assert_eq!(build(true), SimTime::ZERO + service);
        assert_eq!(build(false), SimTime::from_micros(service.as_micros() * 4));
    }

    #[test]
    fn contention_mode_scales_out_across_servers() {
        let service = SimDuration::from_micros(100);
        let makespan = |servers: usize| {
            let sim = SimDeployment::builder()
                .servers(servers)
                .contention(1)
                .arrival_interval(SimDuration::ZERO)
                .service_time(service)
                .network_hop(SimDuration::ZERO)
                .build()
                .unwrap();
            let contexts: Vec<ContextId> = (0..2)
                .map(|_| {
                    sim.create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                        .unwrap()
                })
                .collect();
            let session = sim.client();
            for i in 0..20 {
                session
                    .call(contexts[i % contexts.len()], "incr", args!["n", 1])
                    .unwrap();
            }
            sim.virtual_now()
        };
        // Independent sequencers on independent servers run in parallel:
        // doubling the servers halves the makespan (the fig5a shape).
        assert_eq!(makespan(2), SimTime::from_micros(service.as_micros() * 10));
        assert_eq!(makespan(1), SimTime::from_micros(service.as_micros() * 20));
    }

    #[test]
    fn reset_virtual_time_clears_the_timeline_between_phases() {
        let sim = SimDeployment::builder()
            .servers(1)
            .contention(1)
            .arrival_interval(SimDuration::ZERO)
            .network_hop(SimDuration::ZERO)
            .build()
            .unwrap();
        let item = sim
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = sim.client();
        for _ in 0..5 {
            session.call(item, "incr", args!["n", 1]).unwrap();
        }
        assert!(sim.virtual_now() > SimTime::ZERO);
        sim.reset_virtual_time();
        assert_eq!(sim.virtual_now(), SimTime::ZERO);
        assert_eq!(sim.events_completed(), 0);
        // State survives the reset; only virtual time rewinds.
        session.call(item, "incr", args!["n", 1]).unwrap();
        assert_eq!(
            session.call_readonly(item, "get", args!["n"]).unwrap(),
            Value::from(6i64)
        );
    }

    /// Dispatches a `bump` event to the context it names.
    struct Fan;

    impl ContextObject for Fan {
        fn class_name(&self) -> &str {
            "Fan"
        }

        fn handle(
            &mut self,
            _method: &str,
            args: &Args,
            inv: &mut aeon_runtime::Invocation<'_>,
        ) -> Result<Value> {
            inv.dispatch_event(args.get_context(0)?, "incr", args!["n", 1])?;
            Ok(Value::Null)
        }
    }

    #[test]
    fn a_stream_with_sub_events_and_a_migration_hands_nothing_to_the_pool() {
        let sim = SimDeployment::builder().servers(2).build().unwrap();
        sim.register_class_factory(
            "Item",
            Arc::new(|state: &Value| {
                let mut item = KvContext::new("Item");
                ContextObject::restore(&mut item, state);
                Box::new(item) as Box<dyn ContextObject>
            }),
        );
        let fan = sim.create_context(Box::new(Fan), Placement::Auto).unwrap();
        let item = sim
            .create_owned_context(Box::new(KvContext::new("Item")), &[fan])
            .unwrap();
        let session = sim.client();
        for _ in 0..10 {
            session.call(fan, "fan", args![item]).unwrap();
        }
        sim.migrate_context(item, ServerId::new(1)).unwrap();
        session.call(fan, "fan", args![item]).unwrap();
        assert_eq!(
            session.call_readonly(item, "get", args!["n"]).unwrap(),
            Value::from(11i64)
        );
        // 11 fans, 11 sub-events, the migration and the read.
        assert_eq!(sim.events_completed(), 24);
        let pool = sim.runtime.executor_stats();
        assert_eq!((pool.submitted, pool.completed), (0, 0));
        assert_eq!((pool.workers, pool.spill_spawned), (1, 0));
        // Dropping the last handles drops the runtime, whose pool joins its
        // thread: nothing the runtime holds keeps the clock alive.
        let clock = Arc::clone(&sim.clock);
        drop((sim, session));
        assert_eq!(Arc::strong_count(&clock), 1);
    }

    #[test]
    fn crash_and_restore_round_trip() {
        let sim = SimDeployment::builder().servers(2).build().unwrap();
        sim.register_class_factory(
            "Item",
            Arc::new(|state: &Value| {
                let mut item = KvContext::new("Item");
                ContextObject::restore(&mut item, state);
                Box::new(item) as Box<dyn ContextObject>
            }),
        );
        let item = sim
            .create_context(
                Box::new(KvContext::new("Item")),
                Placement::Server(ServerId::new(1)),
            )
            .unwrap();
        let session = sim.client();
        session.call(item, "set", args!["gold", 3]).unwrap();
        let snapshot = sim.snapshot_context(item).unwrap();
        sim.crash_server(ServerId::new(1)).unwrap();
        assert!(session.call_readonly(item, "get", args!["gold"]).is_err());
        let state = &snapshot.get(item).unwrap().state;
        sim.restore_context(item, state, ServerId::new(0)).unwrap();
        assert_eq!(
            session.call_readonly(item, "get", args!["gold"]).unwrap(),
            Value::from(3i64)
        );
    }
}
