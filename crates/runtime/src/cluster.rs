//! The event-driven cluster: control plane + data plane on the simulated
//! data center.
//!
//! [`Cluster::run`] executes a [`Job`] under a [`RuntimeConfig`] on a
//! [`Topology`], pricing every control message, future resolution, data
//! transfer, spill, cold start, and re-execution, and returns
//! [`JobStats`].
//!
//! ## Execution model
//!
//! Tasks move through `Blocked -> Ready -> Dispatched -> Running ->
//! Finished`. The centralized scheduler (initially resident on the first
//! server, like Ray's head node) learns of readiness via control
//! messages, places tasks with the configured policy, and dispatches
//! them to the target node's raylet. At the raylet, each input edge is resolved with
//! the configured protocol (pull or push, routed per Gen-1 or Gen-2);
//! the task starts when its inputs have arrived and an execution slot is
//! free, and finishes after its backend-specific compute time. Outputs
//! land in the caching layer (or durable storage, per deployment), which
//! may trigger spills to disaggregated memory.
//!
//! ## Failure handling
//!
//! Injected node failures abort resident tasks and drop the node's
//! cached objects. Losses are detected lazily when a consumer tries to
//! resolve a missing input (plus eagerly for job outputs), and repaired
//! per the configured [`FtMode`]: lineage re-execution, replication
//! (loss masked by surviving copies), or erasure coding (loss masked
//! while at least `k` shards survive).
//!
//! The control plane itself is re-electable: when the scheduler's node
//! dies, readiness notifications park until a surviving server wins a
//! deterministic election (after `RuntimeConfig::election_delay`) and
//! reconstructs placement, gang, autoscaler, and ownership state by
//! querying every surviving raylet — each query a priced round trip, so
//! failover cost shows up in traces and stats. Control messages always
//! follow the *currently elected* scheduler. When capacity is lost
//! permanently (no recovery scheduled, nothing procurable), affected
//! tasks surface clean `TaskAbandoned`/`Stalled` errors instead of
//! hanging or panicking.

use std::collections::{HashMap, HashSet};

use skadi_dcsim::engine::EventQueue;
use skadi_dcsim::network::{LinkParams, Network};
use skadi_dcsim::resources::NodeResources;
use skadi_dcsim::rng::DetRng;
use skadi_dcsim::span::{Category, SpanId, Tracer};
use skadi_dcsim::time::{SimDuration, SimTime};
use skadi_dcsim::topology::{AccelKind, NodeClass, NodeId, NodeKind, Topology};
use skadi_dcsim::trace::Metrics;
use skadi_ir::Backend;
use skadi_ownership::resolve::{resolve_traced, ResolveScenario, ResolveSpanCtx};
use skadi_ownership::table::{DeviceHandle, DeviceSlot, OwnershipTable};
use skadi_store::ec::EcConfig;
use skadi_store::object::{ObjectId, ObjectIdGen};
use skadi_store::placement::{CachingLayer, SpillEvent};
use skadi_store::policy::EvictionPolicy;
use skadi_store::spill::{SpillPolicy, SpillTarget};

use crate::config::{Deployment, FtMode, RuntimeConfig};
use crate::error::RuntimeError;
use crate::executor::{ReadyTask, TaskExecutor};
use crate::failure::FailurePlan;
use crate::job::{Job, JobStats};
use crate::lineage::LineageLog;
use crate::placement::{NodeFacts, PlacementPolicy, Placer};
use crate::scheduler::{Autoscaler, GangTracker, ScaleDecision};
use crate::task::{ActorId, TaskId, TaskRecord, TaskState};

/// Simulation events. Task events carry the task's epoch so events from
/// a superseded attempt are dropped on delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The scheduler learned the task is ready.
    Ready(TaskId, u32),
    /// The dispatch reached the target raylet.
    Arrive(TaskId, u32),
    /// Inputs are local; try to claim a slot and start.
    TryStart(TaskId, u32),
    /// The task's compute completed.
    Finish(TaskId, u32),
    /// A node dies.
    Fail(NodeId),
    /// A node rejoins (empty).
    Recover(NodeId),
    /// Autoscaler tick.
    Autoscale,
    /// Scheduler election fires (the failover delay elapsed).
    Elect,
}

/// Work-stealing bound: how many times one task attempt may be pulled
/// to a different node before it simply waits for a slot.
const MAX_STEALS_PER_ATTEMPT: u32 = 3;

/// Serialized size of one state row in a failover re-report.
const ROW_REPORT_BYTES: u64 = 48;

/// Rows per message in a batched failover re-report.
const ROWS_PER_REPORT_MSG: u64 = 128;

/// Per-object erasure-coding placement.
#[derive(Debug, Clone)]
struct EcPlacement {
    shard_nodes: Vec<NodeId>,
    size: u64,
    config: EcConfig,
}

/// Completion statistics for one job of a multi-job run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerJobStats {
    /// The job's name.
    pub name: String,
    /// When the job was submitted.
    pub arrival: SimTime,
    /// Submission-to-last-task-finish time.
    pub completion: SimDuration,
}

/// Inputs staged for one dispatched task: the producing task and its
/// shared (refcounted, never copied) payload bytes.
type StagedInputs = Vec<(TaskId, std::rc::Rc<Vec<u8>>)>;

/// The simulated cluster.
pub struct Cluster {
    topo: Topology,
    cfg: RuntimeConfig,
    net: Network,
    res: NodeResources,
    cache: CachingLayer,
    own: OwnershipTable,
    idgen: ObjectIdGen,
    _rng: DetRng,

    tasks: HashMap<TaskId, TaskRecord>,
    consumers: HashMap<TaskId, Vec<TaskId>>,
    epochs: HashMap<TaskId, u32>,
    object_of: HashMap<TaskId, ObjectId>,
    value_ready: HashMap<TaskId, SimTime>,
    durable_ready: HashMap<TaskId, SimTime>,
    ec_placements: HashMap<TaskId, EcPlacement>,

    placer: Placer,
    gangs: GangTracker,
    lineage: LineageLog,
    metrics: Metrics,
    tracer: Tracer,
    job_root: SpanId,
    task_span: HashMap<TaskId, SpanId>,
    input_ready_at: HashMap<TaskId, SimTime>,
    failed_nodes: HashSet<NodeId>,
    node_load: HashMap<NodeId, u32>,
    /// Tasks not yet terminal (`Finished`/`Failed`). `job_done()` runs
    /// after every event, so at 10k nodes it must be an O(1) counter
    /// check, not a scan of the task table. Cross-checked against the
    /// table by `check_invariants`.
    unfinished: usize,
    /// Alive nodes indexed by backend class, kept sorted. Placement at
    /// scale reads these instead of filtering the full node set per
    /// decision; maintained on failure and recovery.
    alive_servers: Vec<NodeId>,
    alive_gpus: Vec<NodeId>,
    alive_fpgas: Vec<NodeId>,
    /// Steal count per task attempt (work-stealing policy); bounded so
    /// a dispatch cannot ping-pong between loaded nodes, cleared when
    /// the attempt resets.
    steals: HashMap<TaskId, u32>,
    scheduler_node: NodeId,
    /// False between the scheduler node's death and the election of a
    /// successor; readiness notifications park while the control plane
    /// is down.
    scheduler_alive: bool,
    system_pools: HashMap<String, Vec<NodeId>>,

    autoscaler: Option<Autoscaler>,
    device_available_at: HashMap<NodeId, SimTime>,

    /// The failure schedule of the run in progress (straggler windows are
    /// consulted at every task start).
    active_plan: FailurePlan,
    /// A fatal condition raised inside an event handler (e.g. a task
    /// exhausting its retry budget); surfaced as the run's error.
    fatal: Option<RuntimeError>,

    /// The installed data-plane executor, if any. `None` keeps the
    /// classic estimate-only behavior.
    executor: Option<Box<dyn TaskExecutor>>,
    /// Real payload bytes of finished tasks, keyed by task ID (the
    /// modeled object-store contents; see [`PayloadStore`]). Entries are
    /// dropped when lineage resets the producer, so a re-execution
    /// recomputes — deterministically — rather than reading stale bytes.
    payloads: skadi_store::payload::PayloadStore,
    /// Inputs staged (shared, not copied) for a dispatched task when its
    /// availability check passed; consumed when the task finishes.
    staged_inputs: HashMap<TaskId, StagedInputs>,
    /// Results computed ahead of their `Finish` delivery by a batched
    /// `execute_ready` call (every task completing at one simulated
    /// instant executes together). Consumed when each task's own finish
    /// commits; invalidated if the task resets first.
    exec_results: HashMap<TaskId, Result<Vec<u8>, String>>,
    /// Measured output sizes (real encoded bytes) per executed task.
    measured_bytes: std::collections::BTreeMap<TaskId, u64>,

    /// Where each actor lives (pinned at first placement).
    actor_node: HashMap<ActorId, NodeId>,
    /// Until when each actor is busy executing a method.
    actor_busy_until: HashMap<ActorId, SimTime>,

    busy_us_by_node: HashMap<NodeId, f64>,
    durable_trips: u64,
    retries: u64,
    abandoned: u64,
    finished: u64,
    stall_total: SimDuration,
    compute_total: SimDuration,
    serverless_task_cost: f64,
}

impl Cluster {
    /// Builds a cluster over `topo` with the given configuration and
    /// default link parameters.
    pub fn new(topo: &Topology, cfg: RuntimeConfig) -> Self {
        Cluster::with_links(topo, cfg, LinkParams::default())
    }

    /// Builds a cluster with explicit link parameters.
    pub fn with_links(topo: &Topology, cfg: RuntimeConfig, links: LinkParams) -> Self {
        let spill_policy = SpillPolicy {
            // Gen-2 extends the caching layer to disaggregated memory;
            // Gen-1 and the baselines spill straight to durable storage.
            use_disagg_memory: matches!(cfg.generation, crate::config::Generation::Gen2)
                && cfg.deployment == Deployment::DistributedRuntime,
            allow_drop_for_lineage: false,
        };
        let scheduler_node = topo
            .servers()
            .first()
            .copied()
            .unwrap_or(skadi_dcsim::topology::NodeId(0));
        let seed = cfg.seed;
        let placement = cfg.placement;
        let autoscaler = cfg.autoscale.map(Autoscaler::new);
        let mut alive_servers = topo.servers();
        alive_servers.sort();
        let mut alive_gpus = topo.accel_devices(Some(AccelKind::Gpu));
        alive_gpus.sort();
        let mut alive_fpgas = topo.accel_devices(Some(AccelKind::Fpga));
        alive_fpgas.sort();
        Cluster {
            net: Network::new(topo, links),
            res: NodeResources::new(topo),
            cache: CachingLayer::new(topo, EvictionPolicy::Lru, spill_policy),
            own: OwnershipTable::new(),
            idgen: ObjectIdGen::new(),
            _rng: DetRng::seed(seed),
            tasks: HashMap::new(),
            consumers: HashMap::new(),
            epochs: HashMap::new(),
            object_of: HashMap::new(),
            value_ready: HashMap::new(),
            durable_ready: HashMap::new(),
            ec_placements: HashMap::new(),
            placer: Placer::new(placement),
            gangs: GangTracker::new(),
            lineage: LineageLog::new(),
            metrics: Metrics::new(),
            tracer: Tracer::new(cfg.tracing),
            job_root: SpanId::NONE,
            task_span: HashMap::new(),
            input_ready_at: HashMap::new(),
            failed_nodes: HashSet::new(),
            node_load: HashMap::new(),
            unfinished: 0,
            alive_servers,
            alive_gpus,
            alive_fpgas,
            steals: HashMap::new(),
            scheduler_node,
            scheduler_alive: true,
            system_pools: HashMap::new(),
            autoscaler,
            device_available_at: HashMap::new(),
            active_plan: FailurePlan::none(),
            fatal: None,
            executor: None,
            payloads: skadi_store::payload::PayloadStore::new(),
            staged_inputs: HashMap::new(),
            exec_results: HashMap::new(),
            measured_bytes: std::collections::BTreeMap::new(),
            actor_node: HashMap::new(),
            actor_busy_until: HashMap::new(),
            busy_us_by_node: HashMap::new(),
            durable_trips: 0,
            retries: 0,
            abandoned: 0,
            finished: 0,
            stall_total: SimDuration::ZERO,
            compute_total: SimDuration::ZERO,
            serverless_task_cost: 0.0,
            topo: topo.clone(),
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Installs a data-plane executor: every subsequent task completion
    /// also runs the task's real computation on its producers' stored
    /// payload bytes, and measured output sizes replace the specs'
    /// estimates in storage, transfer, and inlining decisions.
    pub fn set_executor(&mut self, exec: Box<dyn TaskExecutor>) {
        self.executor = Some(exec);
    }

    /// A finished task's stored payload bytes from the last run (only
    /// present when an executor was installed).
    pub fn task_payload(&self, t: TaskId) -> Option<&[u8]> {
        self.payloads.bytes(t.0)
    }

    /// A task's measured output size from the last run, if it executed
    /// through the data plane.
    pub fn measured_output_bytes(&self, t: TaskId) -> Option<u64> {
        self.measured_bytes.get(&t).copied()
    }

    /// When a task started executing in the last run (experiment hook,
    /// e.g. for measuring gang start skew).
    pub fn task_started_at(&self, t: TaskId) -> Option<SimTime> {
        self.tasks.get(&t).and_then(|r| r.started_at)
    }

    /// When a task finished in the last run.
    pub fn task_finished_at(&self, t: TaskId) -> Option<SimTime> {
        self.tasks.get(&t).and_then(|r| r.finished_at)
    }

    /// Runs a job to completion (no failures).
    pub fn run(&mut self, job: &Job) -> Result<JobStats, RuntimeError> {
        self.run_with_failures(job, &FailurePlan::none())
    }

    /// Runs several jobs sharing this cluster, each submitted at its own
    /// arrival time — the consolidation scenario the paper's utilization
    /// argument is about. Returns per-job completion times plus combined
    /// stats.
    pub fn run_jobs(
        &mut self,
        jobs: &[(Job, SimTime)],
        failures: &FailurePlan,
    ) -> Result<(Vec<PerJobStats>, JobStats), RuntimeError> {
        // Renumber every job into one combined ID space, remembering each
        // job's arrival and member tasks.
        let mut combined: Vec<crate::task::TaskSpec> = Vec::new();
        let mut membership: Vec<(String, SimTime, Vec<TaskId>)> = Vec::new();
        let mut releases: HashMap<TaskId, SimTime> = HashMap::new();
        let mut offset = 0u64;
        for (job, arrival) in jobs {
            let mut members = Vec::new();
            for spec in job.tasks.values() {
                let mut s = spec.clone();
                s.id = TaskId(s.id.0 + offset);
                s.inputs = s
                    .inputs
                    .iter()
                    .map(|(t, b)| (TaskId(t.0 + offset), *b))
                    .collect();
                if s.inputs.is_empty() {
                    releases.insert(s.id, *arrival);
                }
                members.push(s.id);
                combined.push(s);
            }
            membership.push((job.name.clone(), *arrival, members));
            offset += job.tasks.keys().map(|t| t.0 + 1).max().unwrap_or(0);
        }
        let combined = Job::new("combined", combined)?;
        let mut stats = self.run_released(&combined, failures, &releases)?;
        let per_job: Vec<PerJobStats> = membership
            .into_iter()
            .map(|(name, arrival, members)| {
                let done = members
                    .iter()
                    .filter_map(|t| self.tasks.get(t).and_then(|r| r.finished_at))
                    .max()
                    .unwrap_or(arrival);
                PerJobStats {
                    name,
                    arrival,
                    completion: done.saturating_since(arrival),
                }
            })
            .collect();
        // Each job's submission-to-completion latency feeds the run's
        // `query_latency` histogram, so consolidation and chaos scenarios
        // record a latency *distribution* (p50/p99), not just a makespan.
        for j in &per_job {
            stats.metrics.observe("query_latency", j.completion);
        }
        Ok((per_job, stats))
    }

    /// Runs a job under a failure schedule. The job's makespan is
    /// recorded into the `query_latency` histogram of the returned stats.
    pub fn run_with_failures(
        &mut self,
        job: &Job,
        failures: &FailurePlan,
    ) -> Result<JobStats, RuntimeError> {
        let mut stats = self.run_released(job, failures, &HashMap::new())?;
        stats.metrics.observe("query_latency", stats.makespan);
        Ok(stats)
    }

    fn run_released(
        &mut self,
        job: &Job,
        failures: &FailurePlan,
        releases: &HashMap<TaskId, SimTime>,
    ) -> Result<JobStats, RuntimeError> {
        let mut queue: EventQueue<Event> = EventQueue::new();
        self.init_job(job, &mut queue, releases)?;
        self.active_plan = failures.clone();
        for f in failures.failures() {
            queue.schedule_at(f.at, Event::Fail(f.node));
            if let Some(r) = f.recovers_at {
                queue.schedule_at(r, Event::Recover(f.node));
            }
        }
        if let Some(a) = &self.autoscaler {
            queue.schedule_after(a.interval(), Event::Autoscale);
        }

        let budget: u64 = 1_000_000 + job.len() as u64 * 10_000;
        let mut processed: u64 = 0;
        while let Some((now, ev)) = queue.pop() {
            processed += 1;
            if processed > budget {
                return Err(RuntimeError::Livelock { events: processed });
            }
            self.handle(now, ev, &mut queue);
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
            // A drained queue with unfinished tasks (e.g. permanent loss
            // of every server leaves the cluster headless) surfaces as a
            // clean `Stalled` below; break before the invariant checker
            // reports the same condition as a violation.
            if queue.is_empty() && !self.job_done() {
                break;
            }
            if self.cfg.debug_invariants {
                if let Err(msg) = self.check_invariants(&queue) {
                    return Err(RuntimeError::InvariantViolation(format!(
                        "after {ev:?} at {now}: {msg}"
                    )));
                }
            }
            // Once the job is done, whatever is left in the queue is
            // failure/autoscale timers: stop pumping them.
            if self.job_done() {
                break;
            }
        }
        // The queue drained (or only timers remained): every task must be
        // terminal, otherwise the run would silently report partial
        // results while tasks sit stranded.
        if !self.job_done() {
            let finished = self
                .tasks
                .values()
                .filter(|t| t.state == TaskState::Finished)
                .count() as u64;
            let stuck = self.tasks.len() as u64
                - finished
                - self
                    .tasks
                    .values()
                    .filter(|t| t.state == TaskState::Failed)
                    .count() as u64;
            return Err(RuntimeError::Stalled { finished, stuck });
        }

        let makespan = self
            .tasks
            .values()
            .filter_map(|t| t.finished_at)
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO);

        self.finished = self
            .tasks
            .values()
            .filter(|t| t.state == TaskState::Finished)
            .count() as u64;
        // Utilization: busy slot-time over available slot-time.
        let total_slots: f64 = self
            .topo
            .nodes()
            .iter()
            .map(|n| self.res.total_slots(n.id) as f64)
            .sum();
        let busy_us: f64 = self.busy_us_by_node.values().sum();
        let utilization = if makespan.is_zero() || total_slots == 0.0 {
            0.0
        } else {
            (busy_us / (total_slots * makespan.as_micros_f64())).clamp(0.0, 1.0)
        };
        // Fold the caching layer's tier counters into the job's sink and
        // seal the trace: the job root covers every recorded span.
        self.metrics.merge(&self.cache.take_metrics());
        self.tracer.close(self.job_root, self.tracer.latest_end());
        self.job_root = SpanId::NONE;
        let trace = std::mem::replace(&mut self.tracer, Tracer::new(self.cfg.tracing)).finish();
        Ok(JobStats {
            makespan,
            finished: self.finished,
            retries: self.retries,
            abandoned: self.abandoned,
            net: *self.net.stats(),
            durable_trips: self.durable_trips,
            stall_total: self.stall_total,
            compute_total: self.compute_total,
            cost_units: self.cost_units(makespan),
            utilization,
            spills: self.cache.spill_stats().0,
            spill_bytes: self.cache.spill_stats().1,
            metrics: std::mem::take(&mut self.metrics),
            trace,
            measured_output_bytes: self.measured_bytes.clone(),
        })
    }

    fn init_job(
        &mut self,
        job: &Job,
        queue: &mut EventQueue<Event>,
        releases: &HashMap<TaskId, SimTime>,
    ) -> Result<(), RuntimeError> {
        self.tasks.clear();
        self.consumers.clear();
        self.epochs.clear();
        self.task_span.clear();
        self.input_ready_at.clear();
        // Output bookkeeping and scheduling latches are per-run state; a
        // second run on the same cluster must not see the previous job's
        // objects, gang progress, or actor pins.
        self.object_of.clear();
        self.value_ready.clear();
        self.durable_ready.clear();
        self.ec_placements.clear();
        self.payloads.clear();
        self.staged_inputs.clear();
        self.exec_results.clear();
        self.measured_bytes.clear();
        self.gangs = GangTracker::new();
        self.actor_node.clear();
        self.actor_busy_until.clear();
        self.fatal = None;
        self.active_plan = FailurePlan::none();
        // If the previous run left the elected scheduler on a node that
        // is still down, re-seat it on a surviving server before any
        // control message is priced against a corpse.
        self.scheduler_alive = true;
        if self.failed_nodes.contains(&self.scheduler_node) {
            match self
                .topo
                .servers()
                .into_iter()
                .find(|n| !self.failed_nodes.contains(n))
            {
                Some(w) => self.scheduler_node = w,
                None => self.scheduler_alive = false,
            }
        }
        self.tracer = Tracer::new(self.cfg.tracing);
        self.job_root = self
            .tracer
            .open("job", "job", Category::Job, None, SimTime::ZERO);
        self.tracer.attr(self.job_root, "name", &job.name);
        self.build_system_pools(job);
        for spec in job.tasks.values() {
            self.lineage.record(spec.clone());
            for dep in spec.inputs.keys() {
                self.consumers.entry(*dep).or_default().push(spec.id);
            }
            if let Some(g) = spec.gang {
                if self.cfg.gang_scheduling {
                    self.gangs.declare(g, 1);
                }
            }
            self.epochs.insert(spec.id, 0);
            self.tasks.insert(spec.id, TaskRecord::new(spec.clone()));
        }
        // Every task starts non-terminal (Ready or Blocked).
        self.unfinished = self.tasks.len();
        self.steals.clear();
        for c in self.consumers.values_mut() {
            c.sort();
        }
        // Kick off source tasks: the driver tells the scheduler.
        let mut ready: Vec<TaskId> = self
            .tasks
            .values()
            .filter(|t| t.state == TaskState::Ready)
            .map(|t| t.spec.id)
            .collect();
        // HashMap iteration order is nondeterministic; root-task order
        // decides event FIFO ties, so sort.
        ready.sort();
        if ready.is_empty() && !job.is_empty() {
            return Err(RuntimeError::Internal("no root tasks".to_string()));
        }
        for t in ready {
            let at = releases.get(&t).copied().unwrap_or(SimTime::ZERO);
            queue.schedule_at(at, Event::Ready(t, 0));
        }
        Ok(())
    }

    /// Serverful deployments split nodes into per-system silos.
    fn build_system_pools(&mut self, job: &Job) {
        self.system_pools.clear();
        if self.cfg.deployment != Deployment::Serverful {
            return;
        }
        let mut systems: Vec<String> = job
            .tasks
            .values()
            .map(|t| t.system.clone())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        systems.sort();
        if systems.is_empty() {
            return;
        }
        let servers = self.topo.servers();
        let devices = self.topo.accel_devices(None);
        for (i, node) in servers.iter().chain(devices.iter()).enumerate() {
            let sys = &systems[i % systems.len()];
            self.system_pools
                .entry(sys.clone())
                .or_default()
                .push(*node);
        }
    }

    fn job_done(&self) -> bool {
        self.unfinished == 0
    }

    /// Adjusts the `unfinished` counter for a task state transition.
    /// Every site that writes `TaskRecord::state` must route the change
    /// through here (checked by `check_invariants`).
    fn note_transition(&mut self, from: TaskState, to: TaskState) {
        let terminal = |s: TaskState| matches!(s, TaskState::Finished | TaskState::Failed);
        match (terminal(from), terminal(to)) {
            (false, true) => self.unfinished -= 1,
            (true, false) => self.unfinished += 1,
            _ => {}
        }
    }

    /// Maintains the sorted alive-by-class indexes on node failure and
    /// recovery. Blades and durable storage are never placement targets,
    /// so only servers and accelerators are indexed.
    fn index_node_alive(&mut self, node: NodeId, alive: bool) {
        let list = match self.topo.node(node).kind {
            NodeKind::Server(_) => &mut self.alive_servers,
            NodeKind::AccelDevice(AccelKind::Gpu, _) => &mut self.alive_gpus,
            NodeKind::AccelDevice(AccelKind::Fpga, _) => &mut self.alive_fpgas,
            _ => return,
        };
        match (list.binary_search(&node), alive) {
            (Err(i), true) => list.insert(i, node),
            (Ok(i), false) => {
                list.remove(i);
            }
            _ => {}
        }
    }

    fn epoch(&self, t: TaskId) -> u32 {
        self.epochs.get(&t).copied().unwrap_or(0)
    }

    // ---- tracing ---------------------------------------------------------

    /// The task's umbrella span, opened on first use. Carries the `task`
    /// and `deps` attributes the critical-path walker keys on.
    fn ensure_task_span(&mut self, now: SimTime, t: TaskId) -> SpanId {
        if !self.tracer.enabled() {
            return SpanId::NONE;
        }
        if let Some(&s) = self.task_span.get(&t) {
            return s;
        }
        let spec = &self.tasks[&t].spec;
        let name = spec.op.clone();
        let task = format!("t{}", t.0);
        let deps: Vec<String> = spec.inputs.keys().map(|p| format!("t{}", p.0)).collect();
        let deps = deps.join(",");
        let backend = format!("{:?}", spec.backend);
        let attempt = self.epoch(t).to_string();
        let s = self.tracer.span(
            &name,
            "tasks",
            Category::Task,
            Some(self.job_root),
            now,
            now,
            &[
                ("task", &task),
                ("deps", &deps),
                ("backend", &backend),
                ("attempt", &attempt),
            ],
        );
        self.task_span.insert(t, s);
        s
    }

    /// Device-pool utilization sample: busy accel devices over all accel
    /// devices, recorded into a 1 ms-bucketed gauge at task start/finish
    /// edges (the only instants it can change).
    fn record_device_gauge(&mut self, now: SimTime) {
        let devices = self.topo.accel_devices(None);
        if devices.is_empty() {
            return;
        }
        let busy = devices
            .iter()
            .filter(|d| self.node_load.get(d).copied().unwrap_or(0) > 0)
            .count();
        self.metrics.gauge_record(
            "device.util",
            SimDuration::from_millis(1),
            now,
            busy as f64 / devices.len() as f64,
        );
    }

    fn handle(&mut self, now: SimTime, ev: Event, queue: &mut EventQueue<Event>) {
        match ev {
            Event::Ready(t, e) if e == self.epoch(t) => self.on_ready(now, t, queue),
            Event::Arrive(t, e) if e == self.epoch(t) => self.on_arrive(now, t, queue),
            Event::TryStart(t, e) if e == self.epoch(t) => self.on_try_start(now, t, queue),
            Event::Finish(t, e) if e == self.epoch(t) => self.on_finish(now, t, queue),
            Event::Fail(n) => self.on_fail(now, n, queue),
            Event::Recover(n) => {
                self.failed_nodes.remove(&n);
                self.index_node_alive(n, true);
            }
            Event::Autoscale => self.on_autoscale(now, queue),
            Event::Elect => self.on_elect(now, queue),
            // Stale task event from a superseded attempt.
            _ => {}
        }
    }

    // ---- scheduling -----------------------------------------------------

    fn eligible_nodes(&self, t: TaskId) -> (Vec<NodeId>, bool) {
        let spec = &self.tasks[&t].spec;
        // An already-placed actor's methods must run on its node.
        if let Some(actor) = spec.actor {
            if let Some(node) = self.actor_node.get(&actor) {
                if !self.failed_nodes.contains(node) {
                    return (vec![*node], false);
                }
            }
        }
        let alive = |n: &NodeId| !self.failed_nodes.contains(n);
        let warm = |n: &NodeId| match self.device_available_at.get(n) {
            Some(_) => true, // Provision time is respected at dispatch.
            None => self.autoscaler.is_none(),
        };
        let primary: Vec<NodeId> = if self.cfg.deployment == Deployment::Serverful {
            // Serverful silos are small, fixed pools; filter in place.
            let pool = self
                .system_pools
                .get(&spec.system)
                .cloned()
                .unwrap_or_default();
            let mut p: Vec<NodeId> = pool
                .iter()
                .copied()
                .filter(alive)
                .filter(|n| match (spec.backend, self.topo.node(*n).kind) {
                    (Backend::Cpu, NodeKind::Server(_)) => true,
                    (Backend::Gpu, NodeKind::AccelDevice(AccelKind::Gpu, _)) => warm(n),
                    (Backend::Fpga, NodeKind::AccelDevice(AccelKind::Fpga, _)) => warm(n),
                    _ => false,
                })
                .collect();
            p.sort();
            p
        } else {
            // At scale, read the maintained alive-by-class index instead
            // of filtering every node in the topology per decision. The
            // lists are already sorted.
            match spec.backend {
                Backend::Cpu => self.alive_servers.clone(),
                Backend::Gpu => self.alive_gpus.iter().copied().filter(warm).collect(),
                Backend::Fpga => self.alive_fpgas.iter().copied().filter(warm).collect(),
            }
        };
        if !primary.is_empty() {
            return (primary, false);
        }
        // With an autoscaler, cold devices are procurable: accel tasks
        // wait for the pool to warm instead of degrading to CPU.
        if spec.backend != Backend::Cpu && self.autoscaler.is_some() {
            let procurable = match spec.backend {
                Backend::Gpu => !self.topo.accel_devices(Some(AccelKind::Gpu)).is_empty(),
                Backend::Fpga => !self.topo.accel_devices(Some(AccelKind::Fpga)).is_empty(),
                Backend::Cpu => false,
            };
            if procurable {
                return (Vec::new(), false);
            }
        }
        // CPU fallback: accel task orchestrated from a plain server.
        if spec.backend != Backend::Cpu && self.cfg.cpu_fallback_slowdown.is_some() {
            if self.cfg.deployment == Deployment::Serverful {
                let pool = self
                    .system_pools
                    .get(&spec.system)
                    .cloned()
                    .unwrap_or_default();
                let mut servers: Vec<NodeId> = pool
                    .iter()
                    .copied()
                    .filter(alive)
                    .filter(|n| self.topo.node(*n).kind.class() == NodeClass::Server)
                    .collect();
                servers.sort();
                return (servers, true);
            }
            return (self.alive_servers.clone(), true);
        }
        (Vec::new(), false)
    }

    fn on_ready(&mut self, now: SimTime, t: TaskId, queue: &mut EventQueue<Event>) {
        {
            let rec = self.tasks.get_mut(&t).expect("known task");
            if rec.state != TaskState::Ready && rec.state != TaskState::Blocked {
                return;
            }
            rec.state = TaskState::Ready;
            rec.ready_at = Some(now);
        }
        self.ensure_task_span(now, t);
        // Control plane down: the notification is parked (the task stays
        // `Ready`) and re-driven once a new scheduler is elected and has
        // reconstructed its state.
        if !self.scheduler_alive {
            return;
        }
        // Gang gating: hold members until the whole gang is ready.
        let gang = self.tasks[&t].spec.gang;
        if self.cfg.gang_scheduling {
            if let Some(g) = gang {
                match self.gangs.member_ready(g, t) {
                    Ok(Some(members)) => {
                        for m in members {
                            self.place(now, m, queue);
                        }
                        return;
                    }
                    Ok(None) => return,
                    Err(undeclared) => {
                        if self.fatal.is_none() {
                            self.fatal = Some(RuntimeError::UndeclaredGang(undeclared.0));
                        }
                        return;
                    }
                }
            }
        }
        self.place(now, t, queue);
    }

    fn place(&mut self, now: SimTime, t: TaskId, queue: &mut EventQueue<Event>) {
        let (eligible, fallback) = self.eligible_nodes(t);
        if eligible.is_empty() {
            self.no_eligible_node(now, t, queue);
            return;
        }
        // Gather placement facts. The locality map is inverted once per
        // decision — O(inputs x replicas) — so the facts closure is an
        // O(1) lookup per candidate instead of re-walking every input's
        // location list for every node the policy inspects.
        let inputs: Vec<(TaskId, u64)> = self.tasks[&t]
            .spec
            .inputs
            .iter()
            .map(|(p, b)| (*p, *b))
            .collect();
        let mut local_bytes: HashMap<NodeId, u64> = HashMap::new();
        for (p, b) in &inputs {
            if let Some(o) = self.object_of.get(p) {
                for n in self.cache.locations(*o) {
                    *local_bytes.entry(*n).or_insert(0) += *b;
                }
            }
        }
        let node_load = &self.node_load;
        let res = &self.res;
        let placed = self.placer.place(&eligible, |n| NodeFacts {
            local_input_bytes: local_bytes.get(&n).copied().unwrap_or(0),
            load: node_load.get(&n).copied().unwrap_or(0),
            free_slots: res.free_slots(n),
        });
        let Some(node) = placed else {
            // Unreachable with a non-empty eligible set today, but a
            // placement policy declining to choose must degrade like an
            // empty set — never panic mid-simulation.
            self.no_eligible_node(now, t, queue);
            return;
        };

        {
            let rec = self.tasks.get_mut(&t).expect("known");
            rec.state = TaskState::Dispatched;
            rec.node = Some(node);
        }
        if let Some(actor) = self.tasks[&t].spec.actor {
            self.actor_node.entry(actor).or_insert(node);
        }
        *self.node_load.entry(node).or_insert(0) += 1;
        if fallback {
            self.metrics.bump("cpu_fallback");
        }
        // Dispatch: scheduler raylet -> target raylet control message.
        let route = self.cfg.generation.route_policy();
        let depart = now + route.endpoint_overhead(&self.net, self.scheduler_node);
        let arrive = self.net.control(depart, self.scheduler_node, node)
            + route.endpoint_overhead(&self.net, node);
        // Respect autoscaler provision delays.
        let arrive = match self.device_available_at.get(&node) {
            Some(at) => arrive.max(*at),
            None => arrive,
        };
        if self.tracer.enabled() {
            let parent = self.ensure_task_span(now, t);
            let chosen = format!("node{}", node.0);
            let candidates = eligible.len().to_string();
            let considered: Vec<String> = eligible
                .iter()
                .take(8)
                .map(|n| format!("node{}", n.0))
                .collect();
            let considered = considered.join(",");
            let policy = format!("{:?}", self.cfg.placement);
            self.tracer.span(
                "place",
                "scheduler",
                Category::Placement,
                Some(parent),
                now,
                now,
                &[
                    ("chosen", &chosen),
                    ("candidates", &candidates),
                    ("considered", &considered),
                    ("policy", &policy),
                    ("fallback", if fallback { "true" } else { "false" }),
                ],
            );
            self.tracer.span(
                "dispatch",
                "net",
                Category::Dispatch,
                Some(parent),
                now,
                arrive,
                &[("to", &chosen)],
            );
            self.tracer.cover(parent, arrive);
        }
        let e = self.epoch(t);
        queue.schedule_at(arrive, Event::Arrive(t, e));
    }

    /// No node can currently run `t`. Park it when capacity is due back
    /// (an autoscaler can warm a device, or a candidate node is scheduled
    /// to recover); otherwise the loss is permanent and the task fails
    /// cleanly — under a recovery-capable FT mode that is fatal for the
    /// run, never a silent partial result (and never a panic).
    fn no_eligible_node(&mut self, now: SimTime, t: TaskId, queue: &mut EventQueue<Event>) {
        let spec = &self.tasks[&t].spec;
        let mut candidates: Vec<NodeId> = match spec.backend {
            Backend::Cpu => self.topo.servers(),
            Backend::Gpu => self.topo.accel_devices(Some(AccelKind::Gpu)),
            Backend::Fpga => self.topo.accel_devices(Some(AccelKind::Fpga)),
        };
        let any_alive = candidates.iter().any(|n| !self.failed_nodes.contains(n));
        if any_alive {
            if let Some(scaler) = &self.autoscaler {
                // Wait for the autoscaler to warm a device.
                let interval = scaler.interval();
                let e = self.epoch(t);
                queue.schedule_at(now + interval, Event::Ready(t, e));
                return;
            }
        }
        // Accel tasks with CPU fallback also come back when a server does.
        if spec.backend != Backend::Cpu && self.cfg.cpu_fallback_slowdown.is_some() {
            candidates.extend(self.topo.servers());
        }
        if let Some(at) = self.active_plan.next_recovery_of(&candidates, now) {
            // Every candidate is down but one is scheduled to rejoin:
            // retry right after it does (same-instant FIFO delivers the
            // earlier-scheduled `Recover` before this `Ready`).
            self.metrics.bump("placement_waits");
            let e = self.epoch(t);
            queue.schedule_at(at, Event::Ready(t, e));
            return;
        }
        // Permanent loss of every candidate.
        self.abandoned += 1;
        let prev = {
            let rec = self.tasks.get_mut(&t).expect("known");
            std::mem::replace(&mut rec.state, TaskState::Failed)
        };
        self.note_transition(prev, TaskState::Failed);
        if self.cfg.ft == FtMode::None {
            self.abandon_consumers(t);
            return;
        }
        if self.fatal.is_none() {
            self.fatal = Some(RuntimeError::TaskAbandoned(t));
        }
    }

    // ---- input resolution ------------------------------------------------

    /// True if the producer's output must bounce through durable storage
    /// on its way to this consumer.
    fn via_durable(&self, producer: TaskId, consumer: TaskId) -> bool {
        match self.cfg.deployment {
            Deployment::StatelessServerless => true,
            Deployment::Serverful => {
                self.tasks[&producer].spec.system != self.tasks[&consumer].spec.system
            }
            Deployment::DistributedRuntime => false,
        }
    }

    /// True if the producer's output is still obtainable.
    fn input_available(&self, producer: TaskId, consumer: TaskId) -> bool {
        if self.via_durable(producer, consumer) {
            return self.durable_ready.contains_key(&producer);
        }
        if let Some(p) = self.ec_placements.get(&producer) {
            return p.shard_nodes.len() >= p.config.data;
        }
        self.object_of
            .get(&producer)
            .map(|o| self.cache.contains(*o))
            .unwrap_or(false)
    }

    fn on_arrive(&mut self, now: SimTime, t: TaskId, queue: &mut EventQueue<Event>) {
        let rec = &self.tasks[&t];
        if rec.state != TaskState::Dispatched {
            return;
        }
        let node = rec.node.expect("dispatched task has a node");
        // Input sizes: the producer's measured payload when the data
        // plane executed it, the spec's estimate otherwise.
        let inputs: Vec<(TaskId, u64)> = rec
            .spec
            .inputs
            .iter()
            .map(|(p, b)| (*p, *b))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|(p, b)| (p, self.payloads.size(p.0).unwrap_or(b)))
            .collect();

        // Detect lost inputs before fetching.
        let missing: Vec<TaskId> = inputs
            .iter()
            .map(|(p, _)| *p)
            .filter(|p| !self.input_available(*p, t))
            .collect();
        if !missing.is_empty() {
            self.recover_missing(now, t, &missing, queue);
            return;
        }

        // Stage the real input payloads now, while availability is
        // guaranteed: a producer reset between arrival and start must not
        // leave the running task without bytes. Staging shares buffers.
        if self.executor.is_some() {
            let staged: Vec<(TaskId, std::rc::Rc<Vec<u8>>)> = inputs
                .iter()
                .filter_map(|(p, _)| self.payloads.get(p.0).map(|rc| (*p, rc)))
                .collect();
            if staged.len() != inputs.len() && self.fatal.is_none() {
                self.fatal = Some(RuntimeError::Internal(format!(
                    "data plane: task t{} arrived with available inputs but missing payloads",
                    t.0
                )));
                return;
            }
            self.staged_inputs.insert(t, staged);
        }

        let route = self.cfg.generation.route_policy();
        let umbrella = self.task_span.get(&t).copied().unwrap_or(SpanId::NONE);
        let comp = format!("node{}", node.0);
        let mut available = now;
        for (p, bytes) in inputs {
            let input = format!("t{}", p.0);
            let bytes_s = bytes.to_string();
            let t_in = if self.via_durable(p, t) {
                // Durable read: first-byte latency + stream.
                let write_done = self.durable_ready[&p];
                let durable = self
                    .topo
                    .durable_storage()
                    .expect("durable deployments need durable storage");
                let tr = self.net.transfer(now.max(write_done), durable, node, bytes);
                self.durable_trips += 1;
                self.metrics.bump("durable_reads");
                self.tracer.span(
                    "durable.read",
                    "net",
                    Category::Data,
                    Some(umbrella),
                    now.max(write_done),
                    tr.arrival,
                    &[("input", &input), ("bytes", &bytes_s)],
                );
                self.tracer.cover(umbrella, tr.arrival);
                tr.arrival
            } else if bytes <= self.cfg.pass_by_value_max && !self.ec_placements.contains_key(&p) {
                // Pass-by-value: the bytes rode inline in the dispatch
                // message; the input is available the moment the task
                // arrives at the raylet.
                self.metrics.bump("inlined_values");
                now
            } else if let Some(ec) = self.ec_placements.get(&p) {
                // Fetch k shards in parallel from surviving holders.
                let k = ec.config.data;
                let shard_bytes = (ec.size / k as u64).max(1);
                let holders: Vec<NodeId> = ec.shard_nodes.iter().take(k).copied().collect();
                let ready = self.value_ready.get(&p).copied().unwrap_or(now);
                let mut last = now;
                for h in holders {
                    let tr = self.net.transfer(now.max(ready), h, node, shard_bytes);
                    last = last.max(tr.arrival);
                }
                // Decode at ~10 GiB/s.
                let done = last
                    + SimDuration::from_secs_f64(ec.size as f64 / (10.0 * (1u64 << 30) as f64));
                let shards = k.to_string();
                self.tracer.span(
                    "ec.fetch",
                    "net",
                    Category::Data,
                    Some(umbrella),
                    now,
                    done,
                    &[("input", &input), ("bytes", &bytes_s), ("shards", &shards)],
                );
                self.tracer.cover(umbrella, done);
                done
            } else {
                // The caching layer tells us where the best copy is.
                let obj = self.object_of[&p];
                let loc = self
                    .cache
                    .get(obj, node, now)
                    .expect("availability checked above");
                self.tracer.span(
                    "tier.get",
                    "store",
                    Category::TierAccess,
                    Some(umbrella),
                    now,
                    now + loc.tier.access_latency(),
                    &[
                        ("input", &input),
                        ("tier", loc.tier.label()),
                        ("local", if loc.local { "true" } else { "false" }),
                    ],
                );
                self.tracer.cover(umbrella, now + loc.tier.access_latency());
                let producer_node = loc.node;
                // The owner row must exist for any live object; rows the
                // dead scheduler hosted were rehomed to the elected one.
                // Fabricating an owner would silently misprice the
                // resolution, so under `debug_invariants` it is an error.
                let owner = match self.own.owner_of(obj) {
                    Ok(o) => o,
                    Err(_) => {
                        if self.cfg.debug_invariants && self.fatal.is_none() {
                            self.fatal = Some(RuntimeError::InvariantViolation(format!(
                                "object {obj} of input t{} has no owner row",
                                p.0
                            )));
                        }
                        self.scheduler_node
                    }
                };
                let scenario = ResolveScenario {
                    owner,
                    producer: producer_node,
                    consumer: node,
                    bytes,
                    value_ready: self.value_ready.get(&p).copied().unwrap_or(now),
                    consumer_ready: now,
                };
                let ctx = ResolveSpanCtx {
                    parent: umbrella,
                    root: self.job_root,
                    component: &comp,
                    input: &input,
                };
                let out = resolve_traced(
                    self.cfg.resolution,
                    &mut self.net,
                    &scenario,
                    &route,
                    &mut self.tracer,
                    &ctx,
                );
                self.tracer.cover(umbrella, out.input_available);
                self.stall_total += out.stall;
                self.metrics.observe("stall", out.stall);
                // The fetched bytes now also live in the consumer's local
                // store (plasma semantics): later consumers read the
                // nearest copy instead of re-crossing the fabric.
                if !loc.local && self.cfg.cache_fetched_copies {
                    let size = self
                        .payloads
                        .size(p.0)
                        .unwrap_or(self.tasks[&p].spec.output_bytes)
                        .max(1);
                    if let Ok(report) = self.cache.put(obj, size, node, now) {
                        let _ = self.own.add_location(obj, node);
                        // A fetched copy can displace colder objects; those
                        // moves must be priced and the ownership table kept
                        // in step, same as producer-side spills.
                        let spilled = report.spilled;
                        self.sync_spills(now, &spilled);
                    }
                }
                out.input_available
            };
            available = available.max(t_in);
        }

        // Serverless cold start.
        if self.cfg.deployment == Deployment::StatelessServerless {
            let warm = available + self.cfg.cold_start;
            self.tracer.span(
                "coldstart",
                &comp,
                Category::ColdStart,
                Some(umbrella),
                available,
                warm,
                &[],
            );
            self.tracer.cover(umbrella, warm);
            available = warm;
            self.metrics.bump("cold_starts");
        }

        self.input_ready_at.insert(t, available);
        let e = self.epoch(t);
        queue.schedule_at(available, Event::TryStart(t, e));
    }

    fn recover_missing(
        &mut self,
        now: SimTime,
        consumer: TaskId,
        missing: &[TaskId],
        queue: &mut EventQueue<Event>,
    ) {
        if self.cfg.ft == FtMode::None {
            self.abandoned += 1;
            let (node, prev) = {
                let rec = self.tasks.get_mut(&consumer).expect("known");
                let node = rec.node;
                let prev = std::mem::replace(&mut rec.state, TaskState::Failed);
                (node, prev)
            };
            self.note_transition(prev, TaskState::Failed);
            if let Some(node) = node {
                if let Some(l) = self.node_load.get_mut(&node) {
                    *l = l.saturating_sub(1);
                }
            }
            self.abandon_consumers(consumer);
            return;
        }
        self.metrics.bump("lineage_recoveries");
        if self.tracer.enabled() {
            let task = format!("t{}", consumer.0);
            let lost = missing.len().to_string();
            self.tracer.span(
                "recovery",
                "own",
                Category::Recovery,
                Some(self.job_root),
                now,
                now,
                &[("task", &task), ("missing", &lost)],
            );
        }
        let _ = missing; // Re-derived inside reset_task.
                         // Reset the consumer: it re-blocks on the missing producers, and
                         // reset_task re-drives those producers transitively (the same
                         // closure the lineage log's recovery_plan computes).
        self.reset_task(consumer, queue, now);
    }

    /// Resets a task to run again: bumps its epoch, recomputes pending
    /// inputs from current availability, and re-enters the readiness
    /// machinery.
    fn reset_task(&mut self, t: TaskId, queue: &mut EventQueue<Event>, now: SimTime) {
        let e = self.epochs.entry(t).or_insert(0);
        *e += 1;
        let epoch = *e;
        // Seal the aborted attempt's span; the retry opens a fresh one.
        if let Some(s) = self.task_span.remove(&t) {
            self.tracer.attr(s, "aborted", "true");
            self.tracer.close(s, now);
        }
        self.input_ready_at.remove(&t);
        // Drop stale output bookkeeping. The ownership row goes with the
        // cached copies: the re-run registers the object afresh, and a
        // stale row would otherwise keep advertising holders that no
        // longer exist.
        if let Some(obj) = self.object_of.remove(&t) {
            let _ = self.cache.delete(obj);
            self.own.remove(obj);
        }
        self.value_ready.remove(&t);
        self.durable_ready.remove(&t);
        self.ec_placements.remove(&t);
        // The payload goes with the availability bookkeeping: the re-run
        // recomputes it (deterministically) from its own re-fetched
        // inputs instead of reading stale bytes.
        self.payloads.remove(t.0);
        self.measured_bytes.remove(&t);
        self.staged_inputs.remove(&t);
        // A pre-executed result from a same-instant batch is stale once
        // the attempt resets: the retry re-stages inputs and re-executes.
        self.exec_results.remove(&t);
        // The fresh attempt gets a fresh steal budget.
        self.steals.remove(&t);

        let (pending, node, state) = {
            let rec = self.tasks.get_mut(&t).expect("known task");
            let prev_node = rec.node.take();
            let prev_state = rec.state;
            rec.started_at = None;
            rec.finished_at = None;
            rec.attempts += 1;
            (0usize, prev_node, prev_state)
        };
        let _ = pending;
        if state == TaskState::Dispatched || state == TaskState::Running {
            if let Some(n) = node {
                if let Some(l) = self.node_load.get_mut(&n) {
                    *l = l.saturating_sub(1);
                }
                if state == TaskState::Running {
                    let _ = self.res.release_slot(n);
                }
            }
        }
        if let Some(g) = self.tasks[&t].spec.gang {
            if self.cfg.gang_scheduling {
                // Forget only this member's readiness. Wiping the whole
                // gang here would discard peers already gathered — after
                // the gang's first collective launch a lone re-executed
                // member could then never reach the release threshold.
                self.gangs.remove_waiting(g, t);
            }
        }
        // Retry budget: a task that keeps getting reset (e.g. its node
        // dies every attempt) must eventually surface a clean error
        // instead of looping until the event budget trips.
        if self.tasks[&t].attempts > self.cfg.max_attempts {
            let prev = {
                let rec = self.tasks.get_mut(&t).expect("known task");
                std::mem::replace(&mut rec.state, TaskState::Failed)
            };
            self.note_transition(prev, TaskState::Failed);
            self.abandoned += 1;
            if self.fatal.is_none() {
                self.fatal = Some(RuntimeError::TaskAbandoned(t));
            }
            return;
        }
        let missing: Vec<TaskId> = {
            let inputs: Vec<TaskId> = self.tasks[&t].spec.inputs.keys().copied().collect();
            inputs
                .into_iter()
                .filter(|p| !self.input_available(*p, t))
                .collect()
        };
        {
            let to = if missing.is_empty() {
                TaskState::Ready
            } else {
                TaskState::Blocked
            };
            let prev = {
                let rec = self.tasks.get_mut(&t).expect("known task");
                rec.pending_inputs = missing.len();
                std::mem::replace(&mut rec.state, to)
            };
            self.note_transition(prev, to);
            if to == TaskState::Ready {
                queue.schedule_at(now, Event::Ready(t, epoch));
            }
        }
        // Re-create missing inputs: a Blocked task is only woken by its
        // producers finishing, so the producers must be re-driven here
        // (transitively, via their own resets).
        for p in missing {
            let state = self.tasks[&p].state;
            if state == TaskState::Finished || state == TaskState::Failed {
                self.retries += 1;
                self.reset_task(p, queue, now);
            }
        }
    }

    // ---- execution -------------------------------------------------------

    fn on_try_start(&mut self, now: SimTime, t: TaskId, queue: &mut EventQueue<Event>) {
        let rec = &self.tasks[&t];
        if rec.state != TaskState::Dispatched {
            return;
        }
        let node = rec.node.expect("dispatched");
        if self.failed_nodes.contains(&node) {
            // The node died while we were waiting; re-place.
            self.retries += 1;
            self.reset_task(t, queue, now);
            return;
        }
        let slowdown = if rec.spec.backend != Backend::Cpu
            && self.topo.node(node).kind.class() == NodeClass::Server
        {
            self.cfg.cpu_fallback_slowdown.unwrap_or(1.0)
        } else {
            1.0
        };
        // Straggler injection: compute started inside a slowdown window
        // runs the whole task at the degraded rate.
        let straggle = self.active_plan.slowdown_factor(node, now);
        let dur = SimDuration::from_secs_f64(rec.spec.compute_us * slowdown * straggle / 1e6);
        // Actor methods execute one at a time, in readiness order.
        if let Some(actor) = rec.spec.actor {
            let busy_until = self
                .actor_busy_until
                .get(&actor)
                .copied()
                .unwrap_or(SimTime::ZERO);
            if busy_until > now {
                let e = self.epoch(t);
                queue.schedule_at(busy_until, Event::TryStart(t, e));
                return;
            }
        }
        if self.res.try_claim_slot(node, now + dur) {
            let rec = self.tasks.get_mut(&t).expect("known");
            rec.state = TaskState::Running;
            rec.started_at = Some(now);
            if let Some(actor) = rec.spec.actor {
                self.actor_busy_until.insert(actor, now + dur);
            }
            self.compute_total += dur;
            self.metrics.observe("task.run", dur);
            if let Some(r) = rec.ready_at {
                self.metrics.observe("task.wait", now.saturating_since(r));
            }
            if self.tracer.enabled() {
                let umbrella = self.task_span.get(&t).copied().unwrap_or(SpanId::NONE);
                let comp = format!("node{}", node.0);
                let inputs_ready = self.input_ready_at.get(&t).copied().unwrap_or(now).min(now);
                self.tracer.span(
                    "wait",
                    &comp,
                    Category::Wait,
                    Some(umbrella),
                    inputs_ready,
                    now,
                    &[],
                );
                self.tracer.span(
                    "run",
                    &comp,
                    Category::Run,
                    Some(umbrella),
                    now,
                    now + dur,
                    &[],
                );
                self.tracer.cover(umbrella, now + dur);
            }
            self.record_device_gauge(now);
            let e = self.epoch(t);
            queue.schedule_at(now + dur, Event::Finish(t, e));
        } else {
            // Work stealing: instead of parking behind the busy node's
            // queue, an idle eligible peer pulls the dispatch. Actor
            // methods stay pinned, and the steal budget bounds
            // ping-ponging between nodes that fill up concurrently.
            if self.cfg.placement == PlacementPolicy::WorkStealing
                && self.tasks[&t].spec.actor.is_none()
                && self.steals.get(&t).copied().unwrap_or(0) < MAX_STEALS_PER_ATTEMPT
            {
                if let Some(thief) = self.find_thief(t, node) {
                    *self.steals.entry(t).or_insert(0) += 1;
                    self.metrics.bump("task_steals");
                    self.tasks.get_mut(&t).expect("known").node = Some(thief);
                    if let Some(l) = self.node_load.get_mut(&node) {
                        *l = l.saturating_sub(1);
                    }
                    *self.node_load.entry(thief).or_insert(0) += 1;
                    // Inputs staged on the loser are stale; the thief
                    // re-resolves them on arrival (and pays for it).
                    self.staged_inputs.remove(&t);
                    // One control message: the thief pulls the dispatch
                    // record from the loaded raylet, then the normal
                    // arrival path stages inputs on the new node.
                    let arrive = self.net.control(now, node, thief);
                    let arrive = match self.device_available_at.get(&thief) {
                        Some(at) => arrive.max(*at),
                        None => arrive,
                    };
                    if self.tracer.enabled() {
                        let umbrella = self.task_span.get(&t).copied().unwrap_or(SpanId::NONE);
                        let from = format!("node{}", node.0);
                        let to = format!("node{}", thief.0);
                        self.tracer.span(
                            "steal",
                            "scheduler",
                            Category::Dispatch,
                            Some(umbrella),
                            now,
                            arrive,
                            &[("from", &from), ("to", &to)],
                        );
                        self.tracer.cover(umbrella, arrive);
                    }
                    let e = self.epoch(t);
                    queue.schedule_at(arrive, Event::Arrive(t, e));
                    return;
                }
            }
            let retry = self.res.earliest_slot(node, now);
            let e = self.epoch(t);
            // Guard against pathological same-instant retries.
            let retry = retry.max(now + SimDuration::from_nanos(100));
            queue.schedule_at(retry, Event::TryStart(t, e));
        }
    }

    /// An idle eligible peer that can pull `t` off `loser`'s queue: a
    /// free execution slot and nothing queued, lowest ID for
    /// determinism. `None` when the whole eligible set is saturated.
    fn find_thief(&self, t: TaskId, loser: NodeId) -> Option<NodeId> {
        let (eligible, _) = self.eligible_nodes(t);
        eligible.into_iter().filter(|n| *n != loser).find(|n| {
            self.res.free_slots(*n) > 0 && self.node_load.get(n).copied().unwrap_or(0) == 0
        })
    }

    fn on_finish(&mut self, now: SimTime, t: TaskId, queue: &mut EventQueue<Event>) {
        let (node, out_bytes, backend) = {
            let rec = self.tasks.get_mut(&t).expect("known");
            if rec.state != TaskState::Running {
                return;
            }
            rec.state = TaskState::Finished;
            rec.finished_at = Some(now);
            (
                rec.node.expect("running"),
                rec.spec.output_bytes,
                rec.spec.backend,
            )
        };
        self.note_transition(TaskState::Running, TaskState::Finished);
        let _ = self.res.release_slot(node);
        if let Some(l) = self.node_load.get_mut(&node) {
            *l = l.saturating_sub(1);
        }
        if let Some(start) = self.tasks[&t].started_at {
            *self.busy_us_by_node.entry(node).or_insert(0.0) +=
                now.saturating_since(start).as_micros_f64();
        }
        self.metrics.bump("task_completions");
        if self.cfg.deployment == Deployment::StatelessServerless
            || self.cfg.deployment == Deployment::DistributedRuntime
        {
            // Pay-per-use cost accrues per task-second.
            let dur = self.tasks[&t]
                .started_at()
                .map(|s| now.saturating_since(s))
                .unwrap_or(SimDuration::ZERO);
            self.serverless_task_cost += dur.as_secs_f64() * node_rate(&self.topo, node) + 0.0001;
        }

        // Data plane: the simulated completion also runs the shard's real
        // computation on the staged input payloads. The measured encoded
        // size replaces the spec's estimate everywhere downstream —
        // storage, replication/EC sizing, transfer pricing, pass-by-value
        // inlining, and fetched-copy caching.
        let mut out_bytes = out_bytes;
        if self.executor.is_some() {
            // Batched execution: the first finish at a simulated instant
            // also executes every other task finishing at that same
            // instant (their `Finish` events are still pending in the
            // queue), in one `execute_ready` call sorted by task ID. A
            // parallel executor overlaps them on real threads; results
            // for the peers wait in `exec_results` until their own finish
            // commits them — in the exact order the serial path would
            // have, so pricing and every downstream byte are unchanged.
            let result = match self.exec_results.remove(&t) {
                Some(r) => r,
                None => {
                    let mut batch: Vec<TaskId> = vec![t];
                    for ev in queue.pending_at(now) {
                        if let Event::Finish(t2, ep) = *ev {
                            if t2 != t
                                && ep == self.epoch(t2)
                                && self
                                    .tasks
                                    .get(&t2)
                                    .is_some_and(|r| r.state == TaskState::Running)
                                && self.staged_inputs.contains_key(&t2)
                                && !self.exec_results.contains_key(&t2)
                            {
                                batch.push(t2);
                            }
                        }
                    }
                    batch.sort_unstable();
                    batch.dedup();
                    let staged: Vec<(TaskId, StagedInputs)> = batch
                        .iter()
                        .map(|&b| (b, self.staged_inputs.remove(&b).unwrap_or_default()))
                        .collect();
                    let tasks: Vec<ReadyTask<'_>> = staged
                        .iter()
                        .map(|(b, s)| (*b, s.iter().map(|(p, by)| (*p, by.as_slice())).collect()))
                        .collect();
                    let results = match self.executor.as_mut() {
                        Some(exec) => exec.execute_ready(&tasks),
                        None => unreachable!("gated on executor.is_some()"),
                    };
                    let mut own = Err(format!("data plane returned no result for t{}", t.0));
                    for (b, r) in batch.into_iter().zip(results) {
                        if b == t {
                            own = r;
                        } else {
                            self.exec_results.insert(b, r);
                        }
                    }
                    own
                }
            };
            match result {
                Ok(bytes) => {
                    out_bytes = (bytes.len() as u64).max(1);
                    self.measured_bytes.insert(t, bytes.len() as u64);
                    self.payloads.put(t.0, bytes);
                }
                Err(msg) => {
                    if self.fatal.is_none() {
                        self.fatal = Some(RuntimeError::Internal(format!(
                            "data plane: task t{}: {msg}",
                            t.0
                        )));
                    }
                    return;
                }
            }
        }

        self.record_device_gauge(now);
        self.store_output(now, t, node, out_bytes, backend);

        // Notify the scheduler (owner) and wake consumers. With the
        // control plane down the message is lost on the wire; the
        // completion is re-learned during election-time reconstruction,
        // so consumers park at `now` and wait for the new scheduler.
        let notify = if self.scheduler_alive {
            self.net.control(now, node, self.scheduler_node)
        } else {
            now
        };
        if self.tracer.enabled() && self.scheduler_alive {
            let umbrella = self.task_span.get(&t).copied().unwrap_or(SpanId::NONE);
            self.tracer.span(
                "notify",
                "net",
                Category::Control,
                Some(umbrella),
                now,
                notify,
                &[],
            );
            self.tracer.cover(umbrella, notify);
        }
        let consumers: Vec<TaskId> = self.consumers.get(&t).cloned().unwrap_or_default();
        for c in consumers {
            let rec = self.tasks.get_mut(&c).expect("known consumer");
            if rec.state == TaskState::Blocked && rec.pending_inputs > 0 {
                rec.pending_inputs -= 1;
                if rec.pending_inputs == 0 {
                    let e = self.epoch(c);
                    queue.schedule_at(notify, Event::Ready(c, e));
                }
            }
        }
    }

    /// Stores a finished task's output per the deployment and FT mode,
    /// setting `value_ready` (and `durable_ready` when applicable).
    fn store_output(
        &mut self,
        now: SimTime,
        t: TaskId,
        node: NodeId,
        bytes: u64,
        backend: Backend,
    ) {
        // Durable write when any consumer (or the deployment) needs it.
        let needs_durable = match self.cfg.deployment {
            Deployment::StatelessServerless => true,
            Deployment::Serverful => self
                .consumers
                .get(&t)
                .map(|cs| cs.iter().any(|c| self.via_durable(t, *c)))
                .unwrap_or(false),
            Deployment::DistributedRuntime => false,
        };
        if needs_durable {
            let durable = self
                .topo
                .durable_storage()
                .expect("durable deployments need durable storage");
            let tr = self.net.transfer(now, node, durable, bytes);
            self.durable_trips += 1;
            self.metrics.bump("durable_writes");
            if self.tracer.enabled() {
                let task = format!("t{}", t.0);
                let bytes_s = bytes.to_string();
                self.tracer.span(
                    "durable.write",
                    "net",
                    Category::Data,
                    Some(self.job_root),
                    now,
                    tr.arrival,
                    &[("task", &task), ("bytes", &bytes_s)],
                );
            }
            self.durable_ready.insert(t, tr.arrival);
        }
        if self.cfg.deployment == Deployment::StatelessServerless {
            // Stateless functions keep nothing locally.
            self.value_ready.insert(t, now);
            return;
        }

        match self.cfg.ft {
            FtMode::ErasureCoding(config) => {
                // Distribute k+m shards over servers and blades.
                let mut holders: Vec<NodeId> = self
                    .topo
                    .servers()
                    .into_iter()
                    .chain(self.topo.memory_blades())
                    .filter(|n| !self.failed_nodes.contains(n))
                    .collect();
                holders.sort();
                let total = config.total();
                if holders.is_empty() {
                    // Every server and blade is down (e.g. correlated rack
                    // loss): the only write target left is durable storage.
                    // Without the guard the shard loop below would divide
                    // by zero picking holders.
                    if let Some(d) = self.topo.durable_storage() {
                        let tr = self.net.transfer(now, node, d, bytes);
                        self.durable_trips += 1;
                        self.ec_placements.insert(
                            t,
                            EcPlacement {
                                shard_nodes: vec![d; total],
                                size: bytes,
                                config,
                            },
                        );
                        self.value_ready.insert(t, tr.arrival);
                    }
                    // No durable either: leave no placement; consumers
                    // will drive recovery until the retry budget errors.
                    return;
                }
                let shard = (bytes / config.data as u64).max(1);
                let mut nodes = Vec::with_capacity(total);
                let mut last = now;
                for i in 0..total {
                    let h = holders[i % holders.len()];
                    let tr = self.net.transfer(now, node, h, shard);
                    last = last.max(tr.arrival);
                    nodes.push(h);
                }
                self.metrics.add("ec_bytes", shard * total as u64);
                if self.tracer.enabled() {
                    let task = format!("t{}", t.0);
                    let shards = total.to_string();
                    let bytes_s = (shard * total as u64).to_string();
                    self.tracer.span(
                        "ec.write",
                        "store",
                        Category::EcWrite,
                        Some(self.job_root),
                        now,
                        last,
                        &[("task", &task), ("shards", &shards), ("bytes", &bytes_s)],
                    );
                }
                self.ec_placements.insert(
                    t,
                    EcPlacement {
                        shard_nodes: nodes,
                        size: bytes,
                        config,
                    },
                );
                self.value_ready.insert(t, last);
            }
            _ => {
                let obj = self.idgen.next();
                self.object_of.insert(t, obj);
                let _ = self.own.register(obj, self.scheduler_node);
                let device = match self.topo.node(node).kind {
                    NodeKind::AccelDevice(..) => Some(DeviceSlot {
                        device: node,
                        handle: DeviceHandle(node.0),
                    }),
                    _ => None,
                };
                let put = self.cache.put(obj, bytes.max(1), node, now);
                match put {
                    Ok(report) => {
                        let tier = report.tier;
                        let _ = self.own.mark_ready(obj, bytes, node, device);
                        self.sync_spills(now, &report.spilled);
                        self.value_ready.insert(t, now + tier.access_latency());
                    }
                    Err(_) => {
                        // Cannot fit anywhere in memory: durable backstop.
                        if let Some(d) = self.topo.durable_storage() {
                            let tr = self.net.transfer(now, node, d, bytes);
                            // Only record the durable location if the bytes
                            // actually landed — the ownership table must
                            // never advertise holders the stores disown.
                            if let Ok(report) = self.cache.put(obj, bytes.max(1), d, now) {
                                let _ = self.own.mark_ready(obj, bytes, d, None);
                                self.sync_spills(now, &report.spilled);
                            }
                            self.durable_trips += 1;
                            self.value_ready.insert(t, tr.arrival);
                        }
                    }
                }
                // Replication: copy to rack-diverse holders, off the
                // critical path (priced, but value_ready unchanged).
                if let FtMode::Replication(n) = self.cfg.ft {
                    if n > 1 {
                        let candidates: Vec<NodeId> = self
                            .topo
                            .servers()
                            .into_iter()
                            .chain(self.topo.memory_blades())
                            .filter(|x| !self.failed_nodes.contains(x))
                            .collect();
                        if let Ok(rep) =
                            self.cache
                                .replicate(obj, (n - 1) as usize, &candidates, now)
                        {
                            self.sync_spills(now, &rep.spilled);
                            for dest in rep.added {
                                let tr = self.net.transfer(now, node, dest, bytes);
                                let _ = self.own.add_location(obj, dest);
                                self.metrics.add("replica_bytes", bytes);
                                if self.tracer.enabled() {
                                    let task = format!("t{}", t.0);
                                    let to = format!("node{}", dest.0);
                                    let bytes_s = bytes.to_string();
                                    self.tracer.span(
                                        "replicate",
                                        "store",
                                        Category::Replicate,
                                        Some(self.job_root),
                                        now,
                                        tr.arrival,
                                        &[("task", &task), ("to", &to), ("bytes", &bytes_s)],
                                    );
                                }
                            }
                        }
                    }
                }
                let _ = backend;
            }
        }
    }

    // ---- failures ----------------------------------------------------------

    fn on_fail(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<Event>) {
        if self.failed_nodes.contains(&node) {
            return;
        }
        self.failed_nodes.insert(node);
        self.index_node_alive(node, false);
        self.metrics.bump("node_failures");

        // Control-plane death: park scheduling and hold an election once
        // the failover delay elapses. A surviving server wins and
        // reconstructs the dead scheduler's state (see `on_elect`).
        if node == self.scheduler_node && self.scheduler_alive {
            self.scheduler_alive = false;
            self.metrics.bump("scheduler_failures");
            queue.schedule_at(now + self.cfg.election_delay, Event::Elect);
        }

        // A crashed accelerator leaves the warm pool immediately:
        // otherwise the autoscaler keeps counting it as provisioned
        // capacity and never scales up a replacement. On recovery the
        // device is cold again and re-enters through normal provisioning.
        if self.device_available_at.remove(&node).is_some() {
            if let Some(s) = self.autoscaler.as_mut() {
                s.device_lost(now);
            }
            self.metrics.bump("devices_lost");
        }

        // Actors living on the node restart elsewhere (their pin clears;
        // the next method placement re-pins).
        let dead_actors: Vec<ActorId> = self
            .actor_node
            .iter()
            .filter(|(_, n)| **n == node)
            .map(|(a, _)| *a)
            .collect();
        for a in dead_actors {
            self.actor_node.remove(&a);
            self.actor_busy_until.remove(&a);
        }

        // Objects on the node: replicas mask losses inside the cache.
        let lost_objects = self.cache.fail_node(node);
        let (_unavail, _orphans) = self.own.fail_node(node);

        // EC shards on the node.
        for p in self.ec_placements.values_mut() {
            p.shard_nodes.retain(|n| *n != node);
        }

        // Abort resident tasks.
        let mut resident: Vec<TaskId> = self
            .tasks
            .values()
            .filter(|r| {
                r.node == Some(node)
                    && matches!(r.state, TaskState::Dispatched | TaskState::Running)
            })
            .map(|r| r.spec.id)
            .collect();
        resident.sort();
        for t in resident {
            // A recursive reset may already have re-driven this task.
            if !matches!(
                self.tasks[&t].state,
                TaskState::Dispatched | TaskState::Running
            ) {
                continue;
            }
            if self.cfg.ft == FtMode::None {
                self.abandoned += 1;
                let was_running = self.tasks[&t].state == TaskState::Running;
                let prev = {
                    let rec = self.tasks.get_mut(&t).expect("known");
                    std::mem::replace(&mut rec.state, TaskState::Failed)
                };
                self.note_transition(prev, TaskState::Failed);
                if was_running {
                    // The aborted task's compute slot must come back: a
                    // node that later rejoins "empty-handed" would
                    // otherwise still report the dead task's claim.
                    let _ = self.res.release_slot(node);
                }
                if let Some(l) = self.node_load.get_mut(&node) {
                    *l = l.saturating_sub(1);
                }
                self.abandon_consumers(t);
            } else {
                self.retries += 1;
                self.reset_task(t, queue, now);
            }
        }

        // Eagerly re-create lost *job outputs* (no consumers to trigger
        // lazy recovery).
        if self.cfg.ft != FtMode::None {
            let mut lost_tasks: Vec<TaskId> = self
                .object_of
                .iter()
                .filter(|(_, o)| lost_objects.contains(o))
                .map(|(t, _)| *t)
                .collect();
            lost_tasks.sort();
            for t in lost_tasks {
                let no_consumers = self.consumers.get(&t).map(Vec::is_empty).unwrap_or(true);
                if no_consumers && self.tasks[&t].state == TaskState::Finished {
                    self.retries += 1;
                    self.reset_task(t, queue, now);
                }
            }
        }
    }

    /// Holds the scheduler election: the lowest-numbered surviving
    /// server wins, reconstructs control-plane state by querying every
    /// surviving raylet (placement facts, gang membership, task
    /// completions, and the ownership rows the dead node hosted — each
    /// query a priced round trip), then re-drives every parked readiness
    /// notification once reconstruction completes.
    fn on_elect(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        if self.scheduler_alive {
            // Stale: a previous election already installed a leader (or
            // the same node failed and recovered between schedulings).
            return;
        }
        let winner = self
            .topo
            .servers()
            .into_iter()
            .find(|n| !self.failed_nodes.contains(n));
        let Some(winner) = winner else {
            // No server survives. If one is scheduled to rejoin, hold the
            // election then; otherwise the cluster stays headless and the
            // run ends in a clean `Stalled`/`TaskAbandoned`.
            if let Some(at) = self.active_plan.next_recovery_of(&self.topo.servers(), now) {
                queue.schedule_at(at, Event::Elect);
            }
            return;
        };
        let old = self.scheduler_node;
        self.scheduler_node = winner;
        self.scheduler_alive = true;
        self.metrics.bump("elections");

        // Reconstruction cost: one query per surviving peer raylet,
        // answered by a state re-report *sized by what the peer actually
        // holds* — the ownership rows listing it as a holder plus its
        // cached objects and bytes — rather than a flat round trip. An
        // empty node answers with a single message; a node holding
        // gigabytes of shuffle state streams a batched report. The new
        // scheduler is fully up once the last report lands.
        let mut peers: Vec<NodeId> = self
            .topo
            .nodes()
            .iter()
            .map(|n| n.id)
            .filter(|n| *n != winner && !self.failed_nodes.contains(n))
            .collect();
        peers.sort();
        let n_peers = peers.len();
        let mut done = now;
        let mut reconstruct_msgs: u64 = 0;
        for p in peers {
            let query = self.net.control(now, winner, p);
            let store = self.cache.store(p);
            let rows = self.own.rows_located_on(p) as u64 + store.len() as u64;
            // Serialized report: ~48 bytes per row, plus a per-MiB
            // digest of the cached payload bytes.
            let report_bytes = (rows * ROW_REPORT_BYTES + store.used() / (1 << 20)).max(1);
            let response = self.net.transfer(query, p, winner, report_bytes).arrival;
            // One query, then one message per report batch.
            reconstruct_msgs += 1 + 1 + rows / ROWS_PER_REPORT_MSG;
            done = done.max(response);
        }
        self.metrics
            .add("failover_reconstruct_msgs", reconstruct_msgs);

        // Ownership rows the dead node hosted re-register under the
        // winner (their holders re-report them during reconstruction).
        let rehomed = self.own.rehome_owner(old, winner);
        self.metrics
            .add("failover_rehomed_rows", rehomed.len() as u64);

        // Placement state survives the failover: the strategy cursor is
        // tiny scheduler metadata the peers replicate, so the rotation
        // resumes where the dead scheduler stopped instead of re-placing
        // from the start (double-placing under round-robin).
        self.placer.rebuild_for_failover();
        // The autoscaler resumes from what the surviving raylets report
        // as the provisioned pool; the cost ledger carries over.
        let provisioned = self.device_available_at.len() as u32;
        if let Some(s) = self.autoscaler.as_mut() {
            s.resync(provisioned, now);
        }
        // Gang membership: re-declare from the specs; gangs with members
        // already dispatched provably launched, so their release latch is
        // restored and lone re-executions will not wait for peers.
        if self.cfg.gang_scheduling {
            let mut rebuilt = GangTracker::new();
            let mut launched: Vec<crate::task::GangId> = Vec::new();
            for r in self.tasks.values() {
                if let Some(g) = r.spec.gang {
                    rebuilt.declare(g, 1);
                    if matches!(
                        r.state,
                        TaskState::Dispatched | TaskState::Running | TaskState::Finished
                    ) {
                        launched.push(g);
                    }
                }
            }
            launched.sort();
            launched.dedup();
            for g in launched {
                rebuilt.mark_released(g);
            }
            self.gangs = rebuilt;
        }

        if self.tracer.enabled() {
            let w = format!("node{}", winner.0);
            let rows = rehomed.len().to_string();
            let peers_s = n_peers.to_string();
            self.tracer.span(
                "elect",
                "scheduler",
                Category::Election,
                Some(self.job_root),
                now,
                done,
                &[("winner", &w), ("rehomed_rows", &rows), ("peers", &peers_s)],
            );
        }

        // Re-drive every parked readiness notification at reconstruction
        // completion (gang gating dedups members already gathered).
        let mut parked: Vec<TaskId> = self
            .tasks
            .values()
            .filter(|r| r.state == TaskState::Ready)
            .map(|r| r.spec.id)
            .collect();
        parked.sort();
        for t in parked {
            let e = self.epoch(t);
            queue.schedule_at(done, Event::Ready(t, e));
        }
    }

    fn on_autoscale(&mut self, now: SimTime, queue: &mut EventQueue<Event>) {
        if self.autoscaler.is_none() {
            return;
        }
        // The autoscaler is scheduler-resident: ticks elapse without
        // decisions while the control plane is down (the elected
        // scheduler resyncs the pool when it takes over).
        if !self.scheduler_alive {
            let interval = self.autoscaler.as_ref().expect("present").interval();
            if !self.job_done() {
                queue.schedule_at(now + interval, Event::Autoscale);
            }
            return;
        }
        let Some(scaler) = self.autoscaler.as_mut() else {
            return;
        };
        // Queue depth: accel-backend tasks not yet running.
        let queue_depth = self
            .tasks
            .values()
            .filter(|r| {
                r.spec.backend != Backend::Cpu
                    && matches!(r.state, TaskState::Ready | TaskState::Dispatched)
            })
            .count() as u32;
        let busy: u32 = self
            .device_available_at
            .keys()
            .map(|n| self.node_load.get(n).copied().unwrap_or(0))
            .sum();
        let decision = scaler.evaluate(now, queue_depth, busy);
        let delay = scaler.provision_delay();
        match decision {
            ScaleDecision::Up(n) => {
                let mut cold: Vec<NodeId> = self
                    .topo
                    .accel_devices(None)
                    .into_iter()
                    .filter(|d| {
                        // Dead devices cannot be provisioned; they become
                        // candidates again once they recover.
                        !self.device_available_at.contains_key(d) && !self.failed_nodes.contains(d)
                    })
                    .collect();
                cold.sort();
                for d in cold.into_iter().take(n as usize) {
                    self.device_available_at.insert(d, now + delay);
                    self.metrics.bump("devices_provisioned");
                    if self.tracer.enabled() {
                        let dev = format!("node{}", d.0);
                        self.tracer.span(
                            "provision",
                            "autoscaler",
                            Category::Autoscale,
                            Some(self.job_root),
                            now,
                            now + delay,
                            &[("device", &dev)],
                        );
                    }
                }
            }
            ScaleDecision::Down(n) => {
                let mut idle: Vec<NodeId> = self
                    .device_available_at
                    .keys()
                    .copied()
                    .filter(|d| self.node_load.get(d).copied().unwrap_or(0) == 0)
                    .collect();
                idle.sort();
                for d in idle.into_iter().take(n as usize) {
                    self.device_available_at.remove(&d);
                    self.metrics.bump("devices_retired");
                    if self.tracer.enabled() {
                        let dev = format!("node{}", d.0);
                        self.tracer.span(
                            "retire",
                            "autoscaler",
                            Category::Autoscale,
                            Some(self.job_root),
                            now,
                            now,
                            &[("device", &dev)],
                        );
                    }
                }
            }
            ScaleDecision::Hold => {}
        }
        if !self.job_done() {
            let interval = self.autoscaler.as_ref().expect("present").interval();
            queue.schedule_at(now + interval, Event::Autoscale);
        }
    }

    // ---- bookkeeping helpers -----------------------------------------------

    /// Prices, traces, and ownership-syncs the spills induced by a cache
    /// insertion. Every path that puts bytes into the caching layer must
    /// route its report through here, or the ownership table and the
    /// spill trace drift from what the stores actually hold.
    fn sync_spills(&mut self, now: SimTime, spilled: &[SpillEvent]) {
        for s in spilled {
            match s.to {
                SpillTarget::Node(dest) | SpillTarget::Durable(dest) => {
                    let tr = self.net.transfer(now, s.from, dest, s.bytes);
                    if matches!(s.to, SpillTarget::Durable(_)) {
                        self.durable_trips += 1;
                    }
                    // Add before remove: dropping the old location first
                    // could transiently fail the value while the new copy
                    // already exists.
                    let _ = self.own.add_location(s.id, dest);
                    let _ = self.own.remove_location(s.id, s.from);
                    if self.tracer.enabled() {
                        let from = format!("node{}", s.from.0);
                        let to = format!("node{}", dest.0);
                        let bytes_s = s.bytes.to_string();
                        self.tracer.span(
                            "spill",
                            "store",
                            Category::Spill,
                            Some(self.job_root),
                            now,
                            tr.arrival,
                            &[("from", &from), ("to", &to), ("bytes", &bytes_s)],
                        );
                    }
                }
                SpillTarget::Drop => {
                    let _ = self.own.remove_location(s.id, s.from);
                }
            }
        }
    }

    /// `FtMode::None`: a failed task's transitive consumers can never
    /// run; fail them now so the job terminates cleanly instead of
    /// stranding `Blocked` tasks after the event queue drains.
    fn abandon_consumers(&mut self, root: TaskId) {
        let mut stack = vec![root];
        while let Some(t) = stack.pop() {
            let consumers: Vec<TaskId> = self.consumers.get(&t).cloned().unwrap_or_default();
            for c in consumers {
                let abandoned = {
                    let rec = self.tasks.get_mut(&c).expect("known consumer");
                    if rec.state == TaskState::Blocked {
                        rec.state = TaskState::Failed;
                        true
                    } else {
                        false
                    }
                };
                if abandoned {
                    self.note_transition(TaskState::Blocked, TaskState::Failed);
                    self.abandoned += 1;
                    stack.push(c);
                }
            }
        }
    }

    /// Per-task outcome digest of the last run: `(task, finished, output
    /// bytes)`, sorted. Two runs of the same job are output-equivalent
    /// iff their manifests are equal — the chaos harness compares a
    /// failure-injected run against the failure-free baseline with this.
    pub fn output_manifest(&self) -> Vec<(TaskId, bool, u64)> {
        let mut v: Vec<(TaskId, bool, u64)> = self
            .tasks
            .values()
            .map(|r| {
                (
                    r.spec.id,
                    r.state == TaskState::Finished,
                    r.spec.output_bytes,
                )
            })
            .collect();
        v.sort();
        v
    }

    /// The debug invariant checker (`RuntimeConfig::debug_invariants`):
    /// runs after every event and cross-checks the cluster's redundant
    /// bookkeeping. Any `Err` means a recovery-path bug, not a user
    /// error.
    fn check_invariants(&self, queue: &EventQueue<Event>) -> Result<(), String> {
        // No task may sit Dispatched/Running on a failed node, and the
        // per-node load/slot counters must match the task table.
        let mut expect_load: HashMap<NodeId, u32> = HashMap::new();
        let mut expect_running: HashMap<NodeId, u32> = HashMap::new();
        for r in self.tasks.values() {
            let resident = matches!(r.state, TaskState::Dispatched | TaskState::Running);
            if !resident {
                continue;
            }
            let n = match r.node {
                Some(n) => n,
                None => {
                    return Err(format!(
                        "task {} is {:?} without a node",
                        r.spec.id, r.state
                    ))
                }
            };
            if self.failed_nodes.contains(&n) {
                return Err(format!(
                    "task {} is {:?} on failed node {}",
                    r.spec.id, r.state, n.0
                ));
            }
            *expect_load.entry(n).or_insert(0) += 1;
            if r.state == TaskState::Running {
                *expect_running.entry(n).or_insert(0) += 1;
            }
        }
        let mut nodes: Vec<NodeId> = self
            .node_load
            .keys()
            .chain(expect_load.keys())
            .copied()
            .collect();
        nodes.sort();
        nodes.dedup();
        for n in nodes {
            let have = self.node_load.get(&n).copied().unwrap_or(0);
            let want = expect_load.get(&n).copied().unwrap_or(0);
            if have != want {
                return Err(format!(
                    "node {} records load {have} but {want} resident tasks",
                    n.0
                ));
            }
            let claimed = self
                .res
                .total_slots(n)
                .saturating_sub(self.res.free_slots(n));
            let running = expect_running.get(&n).copied().unwrap_or(0);
            if claimed != running {
                return Err(format!(
                    "node {} has {claimed} claimed slots but {running} running tasks",
                    n.0
                ));
            }
        }
        // The ownership table and the caching layer must agree on who
        // holds each live object.
        let mut objs: Vec<(TaskId, ObjectId)> =
            self.object_of.iter().map(|(t, o)| (*t, *o)).collect();
        objs.sort();
        for (t, obj) in objs {
            let mut cached: Vec<NodeId> = self.cache.locations(obj).to_vec();
            cached.sort();
            let mut owned: Vec<NodeId> = self
                .own
                .get(obj)
                .map(|e| e.locations.clone())
                .unwrap_or_default();
            owned.sort();
            if cached != owned {
                return Err(format!(
                    "object {} of task {} held by {cached:?} per cache but {owned:?} per ownership",
                    obj, t
                ));
            }
        }
        // A crashed device must not linger in the provisioned pool.
        for n in &self.failed_nodes {
            if self.device_available_at.contains_key(n) {
                return Err(format!("failed device {} still provisioned", n.0));
            }
        }
        // A live control plane must sit on a live node; ownership rows
        // must be homed on the current scheduler (rows created during an
        // interregnum keep the dead scheduler as owner until the election
        // rehomes them, but `scheduler_node` only advances atomically
        // with that rehoming, so the identity holds at every event).
        if self.scheduler_alive && self.failed_nodes.contains(&self.scheduler_node) {
            return Err(format!(
                "scheduler marked alive on failed node {}",
                self.scheduler_node.0
            ));
        }
        for (t, obj) in self.object_of.iter() {
            if let Ok(e) = self.own.get(*obj) {
                if e.owner != self.scheduler_node {
                    return Err(format!(
                        "object {} of task {} owned by node {} but scheduler is node {}",
                        obj, t, e.owner.0, self.scheduler_node.0
                    ));
                }
            }
        }
        // The O(1) `unfinished` counter must agree with a recount of the
        // task table (every state write routes through note_transition).
        let recount = self
            .tasks
            .values()
            .filter(|r| !matches!(r.state, TaskState::Finished | TaskState::Failed))
            .count();
        if recount != self.unfinished {
            return Err(format!(
                "unfinished counter {} but {recount} non-terminal tasks",
                self.unfinished
            ));
        }
        // The alive-by-class indexes must agree with a rebuild from the
        // topology minus the failed set.
        for (label, have, want) in [
            ("servers", &self.alive_servers, self.topo.servers()),
            (
                "gpus",
                &self.alive_gpus,
                self.topo.accel_devices(Some(AccelKind::Gpu)),
            ),
            (
                "fpgas",
                &self.alive_fpgas,
                self.topo.accel_devices(Some(AccelKind::Fpga)),
            ),
        ] {
            let mut want: Vec<NodeId> = want
                .into_iter()
                .filter(|n| !self.failed_nodes.contains(n))
                .collect();
            want.sort();
            if *have != want {
                return Err(format!(
                    "alive-{label} index {have:?} but topology minus failures gives {want:?}"
                ));
            }
        }
        // Progress: an empty queue with non-terminal tasks is a stall.
        if queue.is_empty() && !self.job_done() {
            return Err("event queue empty while tasks are unfinished".to_string());
        }
        Ok(())
    }

    // ---- cost --------------------------------------------------------------

    fn cost_units(&self, makespan: SimDuration) -> f64 {
        match self.cfg.deployment {
            Deployment::Serverful => {
                // Reservation: every node in every system pool is paid for
                // the whole job.
                let nodes: HashSet<NodeId> =
                    self.system_pools.values().flatten().copied().collect();
                nodes
                    .iter()
                    .map(|n| node_rate(&self.topo, *n) * makespan.as_secs_f64())
                    .sum()
            }
            _ => {
                let mut cost = self.serverless_task_cost;
                cost += self.durable_trips as f64 * 0.0005;
                if let Some(s) = &self.autoscaler {
                    cost += s.warm_device_us() / 1e6 * 3.0;
                }
                cost
            }
        }
    }
}

/// Abstract cost rate of a node, units per second.
fn node_rate(topo: &Topology, node: NodeId) -> f64 {
    match topo.node(node).kind {
        NodeKind::Server(_) => 1.0,
        NodeKind::AccelDevice(AccelKind::Gpu, _) => 3.0,
        NodeKind::AccelDevice(AccelKind::Fpga, _) => 2.0,
        NodeKind::MemoryBlade(_) => 0.3,
        NodeKind::DurableStorage(_) => 0.0,
    }
}

impl TaskRecord {
    fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{GangId, TaskSpec};
    use skadi_dcsim::topology::presets;

    fn chain_job(n: u64, compute_us: f64, bytes: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, compute_us, bytes)];
        for i in 1..n {
            tasks.push(TaskSpec::new(i, compute_us, bytes).after(TaskId(i - 1), bytes));
        }
        Job::new("chain", tasks).unwrap()
    }

    fn fanout_job(width: u64, compute_us: f64, bytes: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, compute_us, bytes)];
        for i in 1..=width {
            tasks.push(TaskSpec::new(i, compute_us, bytes).after(TaskId(0), bytes));
        }
        let mut sink = TaskSpec::new(width + 1, compute_us, bytes);
        for i in 1..=width {
            sink = sink.after(TaskId(i), bytes);
        }
        tasks.push(sink);
        Job::new("fanout", tasks).unwrap()
    }

    #[test]
    fn chain_completes_with_monotone_makespan() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let short = c.run(&chain_job(5, 100.0, 1 << 10)).unwrap();
        assert_eq!(short.finished, 5);
        assert_eq!(short.abandoned, 0);
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let long = c.run(&chain_job(20, 100.0, 1 << 10)).unwrap();
        assert!(long.makespan > short.makespan);
    }

    #[test]
    fn fanout_parallelizes() {
        let topo = presets::small_disagg_cluster();
        // 16 independent 1ms tasks across 8 servers x 16 slots: the
        // makespan should be far below the serial sum.
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&fanout_job(16, 1000.0, 1 << 10)).unwrap();
        assert_eq!(stats.finished, 18);
        let serial_us = 18.0 * 1000.0;
        assert!(
            stats.makespan.as_micros() < (serial_us * 0.5) as u64,
            "makespan {} vs serial {serial_us}us",
            stats.makespan
        );
    }

    #[test]
    fn stateless_pays_durable_trips() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(4, 100.0, 1 << 20);
        let mut skadi = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let s = skadi.run(&job).unwrap();
        let mut stateless = Cluster::new(&topo, RuntimeConfig::stateless_serverless());
        let f = stateless.run(&job).unwrap();
        assert_eq!(s.durable_trips, 0);
        assert!(
            f.durable_trips >= 6,
            "writes + reads, got {}",
            f.durable_trips
        );
        assert!(f.makespan > s.makespan * 2);
    }

    #[test]
    fn serverful_bounces_cross_system_edges_only() {
        let topo = presets::small_disagg_cluster();
        let tasks = vec![
            TaskSpec::new(0, 100.0, 1 << 20).in_system("sql"),
            TaskSpec::new(1, 100.0, 1 << 20)
                .after(TaskId(0), 1 << 20)
                .in_system("sql"),
            TaskSpec::new(2, 100.0, 1 << 20)
                .after(TaskId(1), 1 << 20)
                .in_system("ml"),
        ];
        let job = Job::new("mixed", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::serverful());
        let stats = c.run(&job).unwrap();
        // One cross-system edge: one write + one read.
        assert_eq!(stats.durable_trips, 2);
        assert_eq!(stats.finished, 3);
    }

    #[test]
    fn gpu_tasks_land_on_gpu_devices() {
        let topo = presets::small_disagg_cluster();
        let job = Job::new(
            "gpu",
            vec![
                TaskSpec::new(0, 100.0, 1 << 10),
                TaskSpec::new(1, 100.0, 1 << 10)
                    .after(TaskId(0), 1 << 10)
                    .on(Backend::Gpu),
            ],
        )
        .unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 2);
        assert_eq!(stats.metrics.counter("cpu_fallback"), 0);
    }

    #[test]
    fn gen2_beats_gen1_on_short_device_ops() {
        let topo = presets::device_rack();
        // A chain of short GPU ops: control overhead dominates.
        let mut tasks = vec![TaskSpec::new(0, 10.0, 4 << 10).on(Backend::Gpu)];
        for i in 1..20 {
            tasks.push(
                TaskSpec::new(i, 10.0, 4 << 10)
                    .after(TaskId(i - 1), 4 << 10)
                    .on(Backend::Gpu),
            );
        }
        let job = Job::new("short-ops", tasks).unwrap();
        let mut g1 = Cluster::new(&topo, RuntimeConfig::skadi_gen1());
        let s1 = g1.run(&job).unwrap();
        let mut g2 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let s2 = g2.run(&job).unwrap();
        assert!(
            s2.makespan < s1.makespan,
            "gen2 {} vs gen1 {}",
            s2.makespan,
            s1.makespan
        );
        assert!(s2.stall_total < s1.stall_total);
    }

    #[test]
    fn lineage_recovers_from_node_failure() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 2000.0, 1 << 16);
        // Kill a server mid-job.
        let victim = topo.servers()[0];
        let plan = FailurePlan::none().kill(victim, SimTime::from_millis(3));
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 6, "all tasks should finish eventually");
        assert_eq!(stats.abandoned, 0);
    }

    #[test]
    fn ft_none_abandons_on_failure() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 5000.0, 1 << 16);
        let victim = topo.servers()[0];
        let plan = FailurePlan::none().kill(victim, SimTime::from_millis(6));
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_ft(FtMode::None));
        let stats = c.run_with_failures(&job, &plan).unwrap();
        // The chain ran on the data-local node; killing it aborts the rest.
        assert!(stats.abandoned > 0 || stats.finished == 6);
    }

    #[test]
    fn replication_masks_failures_cheaper_recovery() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(8, 3000.0, 1 << 18);
        let victim = topo.servers()[0];
        let at = SimTime::from_millis(10);

        let mut lineage = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let l = lineage
            .run_with_failures(&job, &FailurePlan::none().kill(victim, at))
            .unwrap();
        let mut repl = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_ft(FtMode::Replication(2)),
        );
        let r = repl
            .run_with_failures(&job, &FailurePlan::none().kill(victim, at))
            .unwrap();
        assert_eq!(l.finished, 8);
        assert_eq!(r.finished, 8);
        // Replication re-runs at most the task that was executing; lineage
        // may recompute ancestors too.
        assert!(
            r.retries <= l.retries,
            "repl {} vs lineage {}",
            r.retries,
            l.retries
        );
    }

    #[test]
    fn erasure_coding_survives_single_failure() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 3000.0, 1 << 18);
        let victim = topo.servers()[1];
        let plan = FailurePlan::none().kill(victim, SimTime::from_millis(8));
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_ft(FtMode::ErasureCoding(EcConfig::RS_4_2)),
        );
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 6);
        assert!(stats.metrics.counter("ec_bytes") > 0);
    }

    #[test]
    fn gang_scheduling_starts_members_together() {
        let topo = presets::small_disagg_cluster();
        let gang = GangId(1);
        // Two gang members, one delayed by a long producer.
        let tasks = vec![
            TaskSpec::new(0, 10_000.0, 1 << 10),
            TaskSpec::new(1, 100.0, 1 << 10).in_gang(gang),
            TaskSpec::new(2, 100.0, 1 << 10)
                .after(TaskId(0), 1 << 10)
                .in_gang(gang),
        ];
        let job = Job::new("gang", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_gang(true));
        let _ = c.run(&job).unwrap();
        let t1 = c.tasks[&TaskId(1)].started_at.unwrap();
        let t2 = c.tasks[&TaskId(2)].started_at.unwrap();
        let skew = t1.max(t2).saturating_since(t1.min(t2));
        assert!(
            skew < SimDuration::from_millis(1),
            "gang members started {skew} apart"
        );
    }

    #[test]
    fn data_centric_moves_less_data_than_round_robin() {
        let topo = presets::small_disagg_cluster();
        // Shuffle-free chain with big intermediates: locality matters.
        let job = chain_job(10, 500.0, 32 << 20);
        let mut dc = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let a = dc.run(&job).unwrap();
        let mut rr = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_placement(crate::PlacementPolicy::RoundRobin),
        );
        let b = rr.run(&job).unwrap();
        assert!(
            a.net.network_bytes() < b.net.network_bytes(),
            "data-centric {} vs round-robin {}",
            a.net.network_bytes(),
            b.net.network_bytes()
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let topo = presets::small_disagg_cluster();
        let job = fanout_job(8, 700.0, 1 << 16);
        let mut c1 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let a = c1.run(&job).unwrap();
        let mut c2 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let b = c2.run(&job).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.net, b.net);
        assert_eq!(a.cost_units, b.cost_units);
    }

    #[test]
    fn serverful_cost_is_reservation_based() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(3, 100.0, 1 << 10);
        let mut sf = Cluster::new(&topo, RuntimeConfig::serverful());
        let s = sf.run(&job).unwrap();
        // Cost scales with makespan x pool size, not with task time.
        assert!(s.cost_units > 0.0);
        let mut sk = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let k = sk.run(&job).unwrap();
        assert!(k.cost_units < s.cost_units);
    }

    #[test]
    fn autoscaler_provisions_devices_under_load() {
        let topo = presets::device_rack();
        let mut tasks = Vec::new();
        for i in 0..24u64 {
            tasks.push(TaskSpec::new(i, 5_000.0, 1 << 10).on(Backend::Gpu));
        }
        let job = Job::new("burst", tasks).unwrap();
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_autoscale(crate::config::AutoscaleConfig {
                min_devices: 0,
                max_devices: 4,
                scale_up_queue: 1.0,
                interval: SimDuration::from_millis(1),
                provision_delay: SimDuration::from_millis(5),
            }),
        );
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 24);
        assert!(stats.metrics.counter("devices_provisioned") > 0);
    }

    /// Regression: aborting a Running task on a failed node (FtMode::None)
    /// must hand its compute slot back. Before the fix the slot stayed
    /// claimed forever, so the invariant checker trips right after the
    /// Fail event.
    #[test]
    fn aborted_task_releases_its_compute_slot() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 5000.0, 1 << 16);
        let victim = topo.servers()[0];
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(6),
            SimTime::from_millis(8),
        );
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2()
                .with_ft(FtMode::None)
                .with_debug_invariants(true),
        );
        let res = c.run_with_failures(&job, &plan);
        assert!(res.is_ok(), "slot accounting broke after abort: {res:?}");
    }

    /// Regression: a crashed accelerator must leave the warm-device pool
    /// (both `device_available_at` and the autoscaler's busy count) so
    /// the autoscaler can provision a replacement. Before the fix the
    /// dead device stayed schedulable and warm.
    #[test]
    fn autoscaler_replaces_crashed_device() {
        let topo = presets::device_rack();
        let mut tasks = Vec::new();
        for i in 0..24u64 {
            tasks.push(TaskSpec::new(i, 5_000.0, 1 << 10).on(Backend::Gpu));
        }
        let job = Job::new("burst", tasks).unwrap();
        let victim = topo.accel_devices(Some(AccelKind::Gpu))[0];
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(8),
            SimTime::from_millis(30),
        );
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2()
                .with_debug_invariants(true)
                .with_autoscale(crate::config::AutoscaleConfig {
                    min_devices: 0,
                    max_devices: 4,
                    scale_up_queue: 1.0,
                    interval: SimDuration::from_millis(1),
                    provision_delay: SimDuration::from_millis(5),
                }),
        );
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 24);
        assert!(stats.metrics.counter("devices_lost") > 0);
    }

    /// Killing and recovering a node mid-job must leave the output
    /// manifest byte-identical to a failure-free run, under every
    /// masking fault-tolerance mode.
    #[test]
    fn kill_and_recover_preserves_outputs_across_ft_modes() {
        let topo = presets::small_disagg_cluster();
        let job = fanout_job(12, 3000.0, 1 << 14);
        let victim = topo.servers()[1];
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(2),
            SimTime::from_millis(5),
        );
        for ft in [
            FtMode::Lineage,
            FtMode::Replication(2),
            FtMode::ErasureCoding(EcConfig::RS_4_2),
        ] {
            let cfg = RuntimeConfig::skadi_gen2()
                .with_ft(ft)
                .with_debug_invariants(true);
            let mut calm = Cluster::new(&topo, cfg.clone());
            calm.run(&job).unwrap();
            let mut stormy = Cluster::new(&topo, cfg);
            stormy
                .run_with_failures(&job, &plan)
                .unwrap_or_else(|e| panic!("{ft:?}: chaos run failed: {e}"));
            assert_eq!(
                calm.output_manifest(),
                stormy.output_manifest(),
                "{ft:?}: outputs diverged after kill+recover"
            );
        }
    }

    /// Killing the node hosting the scheduler mid-job must trigger an
    /// election; once a survivor takes over and reconstructs state, the
    /// run must converge to the failure-free manifest.
    #[test]
    fn scheduler_death_elects_new_leader_and_converges() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(8, 500.0, 1 << 12);
        let head = topo.servers()[0];
        let plan = FailurePlan::none().kill_and_recover(
            head,
            SimTime::from_micros(700),
            SimTime::from_micros(2_500),
        );
        for ft in [
            FtMode::Lineage,
            FtMode::Replication(2),
            FtMode::ErasureCoding(EcConfig::RS_4_2),
        ] {
            let cfg = RuntimeConfig::skadi_gen2()
                .with_ft(ft)
                .with_debug_invariants(true);
            let mut calm = Cluster::new(&topo, cfg.clone());
            calm.run(&job).unwrap();
            let mut stormy = Cluster::new(&topo, cfg);
            let stats = stormy
                .run_with_failures(&job, &plan)
                .unwrap_or_else(|e| panic!("{ft:?}: scheduler-kill run failed: {e}"));
            assert!(
                stats.metrics.counter("elections") >= 1,
                "{ft:?}: no election recorded"
            );
            assert!(
                stats.metrics.counter("failover_reconstruct_msgs") > 0,
                "{ft:?}: reconstruction was free"
            );
            assert_eq!(
                calm.output_manifest(),
                stormy.output_manifest(),
                "{ft:?}: outputs diverged after scheduler failover"
            );
        }
    }

    /// Destroying every server and device forever must end in a clean
    /// `TaskAbandoned`/`Stalled`, not a hang and not a silently-partial
    /// `Ok` (which is what the pre-failover runtime returned).
    #[test]
    fn permanent_total_loss_fails_cleanly() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 500.0, 1 << 12);
        let mut plan = FailurePlan::none();
        let mut victims = topo.servers();
        victims.extend(topo.memory_blades());
        victims.extend(topo.accel_devices(None));
        for (i, v) in victims.into_iter().enumerate() {
            // Stagger kills so no two share an instant (saves nothing
            // semantically, but keeps the trace readable when replayed).
            plan = plan.kill(v, SimTime::from_micros(300 + i as u64));
        }
        let cfg = RuntimeConfig::skadi_gen2()
            .with_ft(FtMode::Lineage)
            .with_debug_invariants(true);
        let mut c = Cluster::new(&topo, cfg);
        let err = c
            .run_with_failures(&job, &plan)
            .expect_err("total permanent loss must not report success");
        assert!(
            matches!(
                err,
                RuntimeError::TaskAbandoned(_) | RuntimeError::Stalled { .. }
            ),
            "expected TaskAbandoned/Stalled, got {err:?}"
        );
    }

    /// When every server is down at election time, the cluster stays
    /// headless until one recovers, then elects it and finishes the job.
    #[test]
    fn election_waits_for_server_recovery() {
        let topo = presets::small_disagg_cluster();
        let job = chain_job(6, 500.0, 1 << 12);
        let servers = topo.servers();
        let mut plan = FailurePlan::none();
        for (i, s) in servers.iter().copied().enumerate() {
            if i == 1 {
                // The sole survivor-to-be: down with the rest, back first.
                plan = plan.kill_and_recover(
                    s,
                    SimTime::from_micros(500),
                    SimTime::from_micros(2_000),
                );
            } else {
                plan = plan.kill_and_recover(
                    s,
                    SimTime::from_micros(500),
                    SimTime::from_micros(6_000),
                );
            }
        }
        let cfg = RuntimeConfig::skadi_gen2()
            .with_ft(FtMode::Lineage)
            .with_debug_invariants(true);
        let mut c = Cluster::new(&topo, cfg);
        let stats = c
            .run_with_failures(&job, &plan)
            .expect("job must finish once a server returns");
        assert_eq!(stats.finished, 6);
        assert!(stats.metrics.counter("elections") >= 1);
    }

    /// A live object losing its owner row is a recovery-path bug; under
    /// `debug_invariants` the consumer's resolution must flag it instead
    /// of silently repricing against the scheduler node.
    #[test]
    fn missing_owner_row_is_an_invariant_violation() {
        let topo = presets::small_disagg_cluster();
        let cfg = RuntimeConfig::skadi_gen2().with_debug_invariants(true);
        let mut c = Cluster::new(&topo, cfg);
        let job = chain_job(3, 500.0, 1 << 12);
        let mut queue: EventQueue<Event> = EventQueue::new();
        c.init_job(&job, &mut queue, &HashMap::new()).unwrap();
        let mut dropped = false;
        let mut steps = 0u32;
        while let Some((now, ev)) = queue.pop() {
            steps += 1;
            assert!(steps < 10_000, "white-box pump did not terminate");
            c.handle(now, ev, &mut queue);
            if !dropped && c.tasks[&TaskId(0)].state == TaskState::Finished {
                let obj = c.object_of[&TaskId(0)];
                c.own.remove(obj).expect("finished task must own a row");
                dropped = true;
            }
            if c.fatal.is_some() {
                break;
            }
        }
        assert!(dropped, "producer never finished");
        match c.fatal {
            Some(RuntimeError::InvariantViolation(ref msg)) => {
                assert!(msg.contains("no owner row"), "unexpected message: {msg}");
            }
            ref other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod actor_tests {
    use super::*;
    use crate::task::{ActorId, TaskSpec};
    use skadi_dcsim::topology::presets;

    /// `n` independent method calls on one actor.
    fn actor_job(n: u64, compute_us: f64) -> Job {
        let actor = ActorId(7);
        let tasks = (0..n)
            .map(|i| TaskSpec::new(i, compute_us, 1 << 10).on_actor(actor))
            .collect();
        Job::new("actor-methods", tasks).unwrap()
    }

    #[test]
    fn actor_methods_share_one_node() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let _ = c.run(&actor_job(8, 500.0)).unwrap();
        let nodes: std::collections::HashSet<_> = c.tasks.values().filter_map(|r| r.node).collect();
        assert_eq!(nodes.len(), 1, "actor methods spread across {nodes:?}");
    }

    #[test]
    fn actor_methods_serialize() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&actor_job(8, 1000.0)).unwrap();
        // 8 x 1 ms methods with no dependencies would parallelize freely
        // as plain tasks; on an actor they serialize to >= 8 ms.
        assert!(
            stats.makespan >= SimDuration::from_millis(8),
            "makespan {}",
            stats.makespan
        );
        // No two method executions overlap.
        let mut spans: Vec<(SimTime, SimTime)> = c
            .tasks
            .values()
            .map(|r| (r.started_at.unwrap(), r.finished_at.unwrap()))
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn plain_tasks_outpace_actor_methods() {
        let topo = presets::small_disagg_cluster();
        let plain = Job::new(
            "plain",
            (0..8).map(|i| TaskSpec::new(i, 1000.0, 1 << 10)).collect(),
        )
        .unwrap();
        let mut c1 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let p = c1.run(&plain).unwrap();
        let mut c2 = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let a = c2.run(&actor_job(8, 1000.0)).unwrap();
        assert!(p.makespan < a.makespan);
    }

    #[test]
    fn actor_restarts_elsewhere_after_node_failure() {
        let topo = presets::small_disagg_cluster();
        // Chain of methods so the failure hits mid-sequence.
        let actor = ActorId(1);
        let mut tasks = vec![TaskSpec::new(0, 3000.0, 1 << 12).on_actor(actor)];
        for i in 1..6 {
            tasks.push(
                TaskSpec::new(i, 3000.0, 1 << 12)
                    .after(TaskId(i - 1), 1 << 12)
                    .on_actor(actor),
            );
        }
        let job = Job::new("actor-chain", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        // Find where the actor gets pinned on a dry run, then kill it.
        let _ = c.run(&job).unwrap();
        let pinned = c.tasks[&TaskId(0)].node.unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let plan = FailurePlan::none().kill(pinned, SimTime::from_millis(7));
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 6);
        assert_eq!(stats.abandoned, 0);
        // Methods re-run after the failure live on a different node.
        let last_node = c.tasks[&TaskId(5)].node.unwrap();
        assert_ne!(last_node, pinned);
    }

    /// Killing the actor's node mid-chain and recovering it must leave
    /// the output manifest identical to a failure-free run, per FT mode.
    #[test]
    fn actor_chain_outputs_survive_kill_and_recover() {
        let topo = presets::small_disagg_cluster();
        let actor = ActorId(1);
        let mut tasks = vec![TaskSpec::new(0, 3000.0, 1 << 12).on_actor(actor)];
        for i in 1..6 {
            tasks.push(
                TaskSpec::new(i, 3000.0, 1 << 12)
                    .after(TaskId(i - 1), 1 << 12)
                    .on_actor(actor),
            );
        }
        let job = Job::new("actor-chain", tasks).unwrap();
        for ft in [
            FtMode::Lineage,
            FtMode::Replication(2),
            FtMode::ErasureCoding(EcConfig::RS_4_2),
        ] {
            let cfg = RuntimeConfig::skadi_gen2()
                .with_ft(ft)
                .with_debug_invariants(true);
            let mut calm = Cluster::new(&topo, cfg.clone());
            calm.run(&job).unwrap();
            let pinned = calm.tasks[&TaskId(0)].node.unwrap();
            let mut stormy = Cluster::new(&topo, cfg);
            let plan = FailurePlan::none().kill_and_recover(
                pinned,
                SimTime::from_millis(7),
                SimTime::from_millis(10),
            );
            stormy
                .run_with_failures(&job, &plan)
                .unwrap_or_else(|e| panic!("{ft:?}: actor chaos run failed: {e}"));
            assert_eq!(
                calm.output_manifest(),
                stormy.output_manifest(),
                "{ft:?}: actor outputs diverged after kill+recover"
            );
        }
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::{
        presets, AccelKind, AccelSpec, DurableSpec, MemoryBladeSpec, ServerSpec, TopologyBuilder,
    };

    /// A topology with tiny HBM so device outputs overflow immediately.
    fn tiny_hbm_topo() -> Topology {
        TopologyBuilder::new()
            .rack(|r| {
                r.servers(2, ServerSpec::default());
                r.accel_device(
                    AccelKind::Gpu,
                    AccelSpec {
                        hbm_bytes: 8 << 20,
                        ..AccelSpec::default()
                    },
                );
                r.memory_blade(MemoryBladeSpec {
                    dram_bytes: 1 << 30,
                    ..MemoryBladeSpec::default()
                });
            })
            .durable_storage(DurableSpec::default())
            .build()
    }

    #[test]
    fn hbm_overflow_spills_to_disagg_memory_mid_job() {
        let topo = tiny_hbm_topo();
        // Four 5 MiB GPU outputs into 8 MiB HBM: spills must happen.
        let tasks: Vec<TaskSpec> = (0..4)
            .map(|i| TaskSpec::new(i, 500.0, 5 << 20).on(Backend::Gpu))
            .collect();
        let job = Job::new("spilly", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 4);
        assert!(stats.spills > 0, "expected HBM spills");
        assert!(stats.spill_bytes >= 5 << 20);
        // Gen-2 spills to the blade, not to durable storage.
        assert_eq!(stats.durable_trips, 0);
    }

    #[test]
    fn oversized_output_falls_back_to_durable() {
        let topo = tiny_hbm_topo();
        // A 16 MiB output cannot fit 8 MiB HBM at all; with a 1 GiB blade
        // the cascade handles it, so shrink the blade out of the picture
        // by filling it: use an output larger than blade + HBM.
        let job = Job::new(
            "huge",
            vec![TaskSpec::new(0, 500.0, 2 << 30).on(Backend::Gpu)],
        )
        .unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 1);
        assert!(
            stats.durable_trips > 0,
            "output larger than all memory tiers must land durable"
        );
    }

    #[test]
    fn recovered_node_is_reusable() {
        let topo = presets::server_cluster(1, 2);
        let victim = topo.servers()[1];
        // Two waves of tasks; the node dies during wave 1 and recovers
        // before wave 2.
        let mut tasks = Vec::new();
        for i in 0..8u64 {
            tasks.push(TaskSpec::new(i, 2_000.0, 1 << 10));
        }
        for i in 8..16u64 {
            tasks.push(TaskSpec::new(i, 2_000.0, 1 << 10).after(TaskId(i - 8), 1 << 10));
        }
        let job = Job::new("waves", tasks).unwrap();
        let plan = FailurePlan::none().kill_and_recover(
            victim,
            SimTime::from_millis(1),
            SimTime::from_millis(3),
        );
        // Round-robin placement guarantees the recovered node re-enters
        // the rotation (data-centric would legitimately keep following
        // the survivor's data).
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_placement(crate::PlacementPolicy::RoundRobin),
        );
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 16);
        assert_eq!(stats.abandoned, 0);
        // Wave-2 tasks land on the recovered node again.
        let used_recovered = c
            .tasks
            .values()
            .any(|r| r.node == Some(victim) && r.finished_at > Some(SimTime::from_millis(3)));
        assert!(used_recovered, "recovered node never reused");
    }

    #[test]
    fn serverful_pools_isolate_systems() {
        let topo = presets::small_disagg_cluster();
        let tasks = vec![
            TaskSpec::new(0, 500.0, 1 << 10).in_system("alpha"),
            TaskSpec::new(1, 500.0, 1 << 10).in_system("beta"),
        ];
        let job = Job::new("silos", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::serverful());
        let _ = c.run(&job).unwrap();
        let n0 = c.tasks[&TaskId(0)].node.unwrap();
        let n1 = c.tasks[&TaskId(1)].node.unwrap();
        assert_ne!(n0, n1, "distinct systems must use distinct silo nodes");
    }

    #[test]
    fn utilization_is_sane() {
        let topo = presets::server_cluster(1, 1);
        // One serial chain on a 16-slot server: utilization ~ 1/16.
        let mut tasks = vec![TaskSpec::new(0, 10_000.0, 1 << 10)];
        for i in 1..4u64 {
            tasks.push(TaskSpec::new(i, 10_000.0, 1 << 10).after(TaskId(i - 1), 1 << 10));
        }
        let job = Job::new("serial", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert!(stats.utilization > 0.0);
        assert!(
            stats.utilization <= 1.0 / 16.0 + 1e-6,
            "{}",
            stats.utilization
        );
    }

    #[test]
    fn mixed_backends_complete_on_device_rack() {
        let topo = presets::device_rack();
        let tasks = vec![
            TaskSpec::new(0, 500.0, 1 << 16),
            TaskSpec::new(1, 500.0, 1 << 16)
                .after(TaskId(0), 1 << 16)
                .on(Backend::Gpu),
            TaskSpec::new(2, 500.0, 1 << 16)
                .after(TaskId(1), 1 << 16)
                .on(Backend::Fpga),
            TaskSpec::new(3, 500.0, 1 << 16).after(TaskId(2), 1 << 16),
        ];
        let job = Job::new("hetero", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.finished, 4);
        // Tasks landed on the matching device classes.
        let gpu_node = c.tasks[&TaskId(1)].node.unwrap();
        let fpga_node = c.tasks[&TaskId(2)].node.unwrap();
        assert!(matches!(
            c.topo.node(gpu_node).kind,
            NodeKind::AccelDevice(AccelKind::Gpu, _)
        ));
        assert!(matches!(
            c.topo.node(fpga_node).kind,
            NodeKind::AccelDevice(AccelKind::Fpga, _)
        ));
    }
}

#[cfg(test)]
mod pass_by_value_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;

    fn tiny_chain(n: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, 20.0, 256)];
        for i in 1..n {
            tasks.push(TaskSpec::new(i, 20.0, 256).after(TaskId(i - 1), 256));
        }
        Job::new("tiny-chain", tasks).unwrap()
    }

    #[test]
    fn inlining_removes_resolution_for_small_values() {
        let topo = presets::small_disagg_cluster();
        let mut by_ref = Cluster::new(&topo, RuntimeConfig::skadi_gen1());
        let r = by_ref.run(&tiny_chain(16)).unwrap();
        let mut cfg = RuntimeConfig::skadi_gen1();
        cfg.pass_by_value_max = 1024;
        let mut by_val = Cluster::new(&topo, cfg);
        let v = by_val.run(&tiny_chain(16)).unwrap();
        assert_eq!(v.metrics.counter("inlined_values"), 15);
        assert_eq!(v.stall_total, SimDuration::ZERO);
        assert!(
            v.makespan < r.makespan,
            "by-value {} vs by-reference {}",
            v.makespan,
            r.makespan
        );
    }

    #[test]
    fn large_values_still_go_by_reference() {
        let topo = presets::small_disagg_cluster();
        let mut cfg = RuntimeConfig::skadi_gen1();
        cfg.pass_by_value_max = 1024;
        let job = Job::new(
            "big-edge",
            vec![
                TaskSpec::new(0, 20.0, 1 << 20),
                TaskSpec::new(1, 20.0, 256).after(TaskId(0), 1 << 20),
            ],
        )
        .unwrap();
        let mut c = Cluster::new(&topo, cfg);
        let stats = c.run(&job).unwrap();
        assert_eq!(stats.metrics.counter("inlined_values"), 0);
    }
}

#[cfg(test)]
mod multi_job_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;

    fn job(name: &str, n: u64, compute_us: f64) -> Job {
        let tasks = (0..n)
            .map(|i| TaskSpec::new(i, compute_us, 1 << 12))
            .collect();
        Job::new(name, tasks).unwrap()
    }

    #[test]
    fn staggered_jobs_respect_arrivals() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let (per_job, stats) = c
            .run_jobs(
                &[
                    (job("a", 8, 1000.0), SimTime::ZERO),
                    (job("b", 8, 1000.0), SimTime::from_millis(5)),
                ],
                &FailurePlan::none(),
            )
            .unwrap();
        assert_eq!(stats.finished, 16);
        assert_eq!(per_job.len(), 2);
        assert_eq!(per_job[1].arrival, SimTime::from_millis(5));
        // Job b's tasks started only after its arrival.
        // (Its completion is measured from arrival, so it is comparable
        // to job a's.)
        assert!(stats.makespan >= SimDuration::from_millis(5));
        assert!(per_job[0].completion > SimDuration::ZERO);
        assert!(per_job[1].completion > SimDuration::ZERO);
    }

    #[test]
    fn sharing_beats_silos_under_asymmetric_load() {
        // The consolidation argument: a burst can borrow the capacity a
        // siloed neighbor would leave idle.
        let topo = presets::small_disagg_cluster();
        let big = job("big", 256, 2000.0);
        let small = job("small", 32, 2000.0);
        // Shared: both jobs on the full cluster; the small one arrives
        // while the big one is draining.
        let mut shared = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let (per_job, _) = shared
            .run_jobs(
                &[
                    (big.clone(), SimTime::ZERO),
                    (small.clone(), SimTime::from_millis(5)),
                ],
                &FailurePlan::none(),
            )
            .unwrap();
        // Siloed: each job owns half the servers (1 rack each).
        let half = presets::server_cluster(1, 4);
        let mut silo_a = Cluster::new(&half, RuntimeConfig::skadi_gen2());
        let sa = silo_a.run(&big).unwrap();
        let mut silo_b = Cluster::new(&half, RuntimeConfig::skadi_gen2());
        let sb = silo_b.run(&small).unwrap();
        let shared_worst = per_job.iter().map(|p| p.completion).max().unwrap();
        let silo_worst = sa.makespan.max(sb.makespan);
        assert!(
            shared_worst < silo_worst,
            "shared {shared_worst} vs silo {silo_worst}"
        );
    }

    #[test]
    fn multi_job_with_failure_recovers_both() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let plan = FailurePlan::none().kill(topo.servers()[1], SimTime::from_millis(2));
        let (per_job, stats) = c
            .run_jobs(
                &[
                    (job("a", 16, 3000.0), SimTime::ZERO),
                    (job("b", 16, 3000.0), SimTime::from_millis(1)),
                ],
                &plan,
            )
            .unwrap();
        assert_eq!(stats.finished, 32);
        assert_eq!(stats.abandoned, 0);
        assert_eq!(per_job.len(), 2);
    }
}

#[cfg(test)]
mod rack_failure_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;

    #[test]
    fn rack_diverse_replication_survives_whole_rack_loss() {
        let topo = presets::small_disagg_cluster();
        let mut tasks = vec![TaskSpec::new(0, 3000.0, 4 << 20)];
        for i in 1..8u64 {
            tasks.push(TaskSpec::new(i, 3000.0, 4 << 20).after(TaskId(i - 1), 4 << 20));
        }
        let job = Job::new("rack-chain", tasks).unwrap();
        let rack = topo.rack_of(topo.servers()[0]);
        let plan = FailurePlan::none().kill_rack(&topo, rack, SimTime::from_millis(8));
        let mut c = Cluster::new(
            &topo,
            RuntimeConfig::skadi_gen2().with_ft(FtMode::Replication(2)),
        );
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 8);
        assert_eq!(stats.abandoned, 0);
        // Replicas are placed rack-diverse, so at most the in-flight task
        // re-runs per loss; lineage would recompute ancestors too.
        let mut lineage = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let l = lineage.run_with_failures(&job, &plan).unwrap();
        assert_eq!(l.finished, 8);
        assert!(stats.retries <= l.retries);
    }

    #[test]
    fn losing_the_durable_rack_is_survivable_for_skadi() {
        // Skadi never touches durable storage, so killing its (synthetic)
        // rack changes nothing.
        let topo = presets::small_disagg_cluster();
        let durable = topo.durable_storage().unwrap();
        let rack = topo.rack_of(durable);
        let job = Job::new(
            "no-durable",
            (0..6).map(|i| TaskSpec::new(i, 1000.0, 1 << 16)).collect(),
        )
        .unwrap();
        let plan = FailurePlan::none().kill_rack(&topo, rack, SimTime::from_micros(10));
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run_with_failures(&job, &plan).unwrap();
        assert_eq!(stats.finished, 6);
        assert_eq!(stats.durable_trips, 0);
    }
}

#[cfg(test)]
mod tracing_tests {
    use super::*;
    use crate::task::TaskSpec;
    use skadi_dcsim::topology::presets;

    fn chain(n: u64, compute_us: f64, bytes: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, compute_us, bytes)];
        for i in 1..n {
            tasks.push(TaskSpec::new(i, compute_us, bytes).after(TaskId(i - 1), bytes));
        }
        Job::new("chain", tasks).unwrap()
    }

    fn short_gpu_ops(n: u64) -> Job {
        let mut tasks = vec![TaskSpec::new(0, 10.0, 4 << 10).on(Backend::Gpu)];
        for i in 1..n {
            tasks.push(
                TaskSpec::new(i, 10.0, 4 << 10)
                    .after(TaskId(i - 1), 4 << 10)
                    .on(Backend::Gpu),
            );
        }
        Job::new("short-ops", tasks).unwrap()
    }

    #[test]
    fn untraced_runs_produce_empty_traces() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2());
        let stats = c.run(&chain(5, 100.0, 1 << 10)).unwrap();
        assert!(stats.trace.is_empty());
    }

    #[test]
    fn traced_chain_is_wellformed_and_covers_the_lifecycle() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
        let stats = c.run(&chain(6, 100.0, 1 << 16)).unwrap();
        let trace = &stats.trace;
        trace.validate().expect("well-formed span tree");
        assert_eq!(trace.count_category(Category::Job), 1);
        assert_eq!(trace.count_category(Category::Task), 6);
        assert_eq!(trace.count_category(Category::Run), 6);
        assert_eq!(trace.count_category(Category::Wait), 6);
        assert_eq!(trace.count_category(Category::Dispatch), 6);
        assert_eq!(trace.count_category(Category::Placement), 6);
        // 5 resolved edges, each a consumer-side round trip.
        assert_eq!(trace.count_category(Category::Resolve), 5);
        assert_eq!(trace.count_category(Category::TierAccess), 5);
        assert!(trace.count_category(Category::Control) > 0);
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        let topo = presets::small_disagg_cluster();
        let job = chain(8, 250.0, 1 << 18);
        let mut plain = Cluster::new(&topo, RuntimeConfig::skadi_gen1());
        let a = plain.run(&job).unwrap();
        let mut traced = Cluster::new(&topo, RuntimeConfig::skadi_gen1().with_tracing(true));
        let b = traced.run(&job).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.stall_total, b.stall_total);
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn same_seed_traces_are_identical() {
        let topo = presets::small_disagg_cluster();
        let job = chain(6, 100.0, 1 << 16);
        let run = || {
            let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
            c.run(&job).unwrap().trace
        };
        let (t1, t2) = (run(), run());
        assert_eq!(t1, t2);
        assert_eq!(t1.to_chrome_json(), t2.to_chrome_json());
    }

    #[test]
    fn gen1_spends_more_control_messages_per_short_op_than_gen2() {
        // The paper's observation: on Gen-1 every short-lived device op
        // pays a multi-message pull round trip through the DPU, while
        // Gen-2's push resolution collapses it to one update.
        let topo = presets::device_rack();
        let job = short_gpu_ops(20);
        let trace_of = |cfg: RuntimeConfig| {
            let mut c = Cluster::new(&topo, cfg.with_tracing(true));
            c.run(&job).unwrap().trace
        };
        let g1 = trace_of(RuntimeConfig::skadi_gen1());
        let g2 = trace_of(RuntimeConfig::skadi_gen2());
        g1.validate().unwrap();
        g2.validate().unwrap();
        let ops = 19.0; // resolved edges
        let g1_per_op = g1.count_category(Category::Control) as f64 / ops;
        let g2_per_op = g2.count_category(Category::Control) as f64 / ops;
        assert!(
            g1_per_op > g2_per_op,
            "gen1 {g1_per_op} control spans/op should exceed gen2 {g2_per_op}"
        );
    }

    #[test]
    fn critical_path_summary_names_the_chain() {
        let topo = presets::small_disagg_cluster();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
        let stats = c.run(&chain(5, 500.0, 1 << 16)).unwrap();
        let path = stats.trace.critical_path();
        assert_eq!(path.len(), 5, "a chain's critical path is every task");
        let summary = stats.trace.critical_path_summary(5);
        assert!(summary.contains("critical path: 5 tasks"));
    }

    #[test]
    fn spills_and_device_utilization_are_recorded() {
        let topo = presets::small_disagg_cluster();
        let gpu_mem = topo
            .accel_devices(None)
            .iter()
            .map(|d| topo.node(*d).kind.memory_bytes())
            .min()
            .unwrap();
        // GPU tasks whose outputs overflow HBM force spills.
        let mut tasks = vec![TaskSpec::new(0, 100.0, gpu_mem / 2).on(Backend::Gpu)];
        for i in 1..4 {
            tasks.push(
                TaskSpec::new(i, 100.0, gpu_mem / 2)
                    .after(TaskId(i - 1), 1 << 10)
                    .on(Backend::Gpu),
            );
        }
        let job = Job::new("hbm-overflow", tasks).unwrap();
        let mut c = Cluster::new(&topo, RuntimeConfig::skadi_gen2().with_tracing(true));
        let stats = c.run(&job).unwrap();
        assert!(stats.spills > 0, "outputs should overflow HBM");
        assert_eq!(
            stats.trace.count_category(Category::Spill) as u64,
            stats.spills
        );
        // Tier counters from the caching layer are folded into the sink.
        assert!(stats.metrics.counter_across_labels("tier.put") > 0);
        assert!(stats.metrics.counter_across_labels("tier.evict") > 0);
        // The device pool saw busy time.
        let util = stats.metrics.gauge("device.util").expect("gauge recorded");
        assert!(util.overall_mean() > 0.0);
    }
}
