//! The Skadi session: one runtime for all declarations.
//!
//! "Skadi enables users to use only one runtime to express all of their
//! programs" (§2.1). A [`Session`] owns the simulated cluster topology,
//! a table catalog, the access-layer configuration (parallelism, backend
//! policy), and the runtime configuration; every declarative submission
//! goes through the same path:
//!
//! 1. frontend parses the declaration onto a logical FlowGraph;
//! 2. the graph optimizer applies predefined rules (fusion, pruning);
//! 3. lowering shards the graph and picks hardware backends;
//! 4. the stateful serverless runtime executes the physical graph.

use std::fmt;

use skadi_dcsim::topology::Topology;
use skadi_flowgraph::logical::FlowGraph;
use skadi_flowgraph::lower::{lower_graph, LowerConfig};
use skadi_flowgraph::optimize::optimize_graph;
use skadi_flowgraph::profile::DEFAULT_SKEW_MULTIPLE;
use skadi_frontends::catalog::Catalog;
use skadi_frontends::graph::VertexProgram;
use skadi_frontends::mapreduce::MapReduceJob;
use skadi_frontends::ml::TrainingPipeline;
use skadi_frontends::shard;
use skadi_frontends::sql;
use skadi_frontends::streaming::StreamJob;
use skadi_ir::BackendPolicy;
use skadi_runtime::{
    job_from_physical, Cluster, FailurePlan, Job, RuntimeConfig, RuntimeError, TaskId,
};

use crate::adaptive::{self, Replan};
use crate::distributed::{DataPlaneStats, GraphExecutor};
use crate::pipeline::PipelineBuilder;
use crate::report::{BackendCounts, JobReport};

/// What a distributed SQL execution produced: the real result batch plus
/// the usual simulated report and the data plane's measurements.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// The collected result — byte-identical to
    /// [`MemDb::query`](skadi_frontends::exec::MemDb::query) on the same
    /// database, at any parallelism.
    pub batch: skadi_arrow::batch::RecordBatch,
    /// Compilation and simulated-execution report.
    pub report: JobReport,
    /// Measured per-shard timings and shuffle row counts.
    pub data_plane: DataPlaneStats,
    /// Adaptive re-planning decisions (empty unless the session was
    /// built with [`SessionBuilder::adaptive`] and the pilot found
    /// sparse shuffle keys).
    pub replans: Vec<Replan>,
}

/// Errors surfaced by the session API.
#[derive(Debug)]
pub enum SkadiError {
    /// The SQL frontend rejected the statement.
    Sql(sql::SqlError),
    /// Graph construction or lowering failed.
    Graph(skadi_flowgraph::GraphError),
    /// Execution failed.
    Runtime(RuntimeError),
}

impl fmt::Display for SkadiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkadiError::Sql(e) => write!(f, "sql: {e}"),
            SkadiError::Graph(e) => write!(f, "graph: {e}"),
            SkadiError::Runtime(e) => write!(f, "runtime: {e}"),
        }
    }
}

impl std::error::Error for SkadiError {}

impl From<sql::SqlError> for SkadiError {
    fn from(e: sql::SqlError) -> Self {
        SkadiError::Sql(e)
    }
}

impl From<skadi_flowgraph::GraphError> for SkadiError {
    fn from(e: skadi_flowgraph::GraphError) -> Self {
        SkadiError::Graph(e)
    }
}

impl From<RuntimeError> for SkadiError {
    fn from(e: RuntimeError) -> Self {
        SkadiError::Runtime(e)
    }
}

/// Builder for [`Session`].
pub struct SessionBuilder {
    topology: Option<Topology>,
    catalog: Catalog,
    runtime: RuntimeConfig,
    parallelism: u32,
    policy: BackendPolicy,
    optimize: bool,
    shuffle_compression: bool,
    threads: Option<usize>,
    adaptive: bool,
}

impl SessionBuilder {
    /// Sets the (simulated) cluster topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Sets the table catalog.
    pub fn catalog(mut self, c: Catalog) -> Self {
        self.catalog = c;
        self
    }

    /// Sets the runtime configuration (defaults to Skadi Gen-2).
    pub fn runtime(mut self, cfg: RuntimeConfig) -> Self {
        self.runtime = cfg;
        self
    }

    /// Sets the default degree of parallelism (defaults to 4).
    pub fn parallelism(mut self, p: u32) -> Self {
        self.parallelism = p.max(1);
        self
    }

    /// Sets the backend-selection policy (defaults to cost-based).
    pub fn backend_policy(mut self, p: BackendPolicy) -> Self {
        self.policy = p;
        self
    }

    /// Disables the graph optimizer (the E10 ablation).
    pub fn without_optimizer(mut self) -> Self {
        self.optimize = false;
        self
    }

    /// Toggles block compression of shuffle/stored payloads in the
    /// distributed data plane (defaults to on). Off, every task stores
    /// its raw IPC frame — useful for measuring what compression saves,
    /// since `measured_output_bytes` feeds all storage/network pricing.
    pub fn shuffle_compression(mut self, on: bool) -> Self {
        self.shuffle_compression = on;
        self
    }

    /// Sets the number of real worker threads the execution pool uses for
    /// morsel-parallel kernels and same-instant shard batches. Defaults
    /// to the host's available parallelism (or `SKADI_THREADS`). The
    /// thread count changes only wall-clock time, never output bytes,
    /// profile row counts, or simulated pricing.
    ///
    /// The pool is process-wide: building a session with `threads(n)`
    /// resizes the shared pool for every session in the process.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Toggles adaptive query execution (defaults to off). When on,
    /// distributed SQL runs a single-sharded pilot pass first and
    /// re-plans keyed consumers whose measured key histograms fill fewer
    /// shuffle buckets than the default parallelism; at runtime, joins
    /// build their hash table on whichever side is observed to be
    /// smaller. Both decisions are pure functions of the data — the
    /// collected result stays byte-identical to the static plan.
    pub fn adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> Session {
        if let Some(n) = self.threads {
            skadi_frontends::exec::pool::set_global_threads(n);
        }
        Session {
            topology: self
                .topology
                .unwrap_or_else(skadi_dcsim::topology::presets::small_disagg_cluster),
            catalog: self.catalog,
            runtime: self.runtime,
            parallelism: self.parallelism,
            policy: self.policy,
            optimize: self.optimize,
            shuffle_compression: self.shuffle_compression,
            adaptive: self.adaptive,
        }
    }
}

/// A Skadi session: the entry point of the public API.
pub struct Session {
    pub(crate) topology: Topology,
    pub(crate) catalog: Catalog,
    pub(crate) runtime: RuntimeConfig,
    pub(crate) parallelism: u32,
    pub(crate) policy: BackendPolicy,
    pub(crate) optimize: bool,
    pub(crate) shuffle_compression: bool,
    pub(crate) adaptive: bool,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            topology: None,
            catalog: Catalog::new(),
            runtime: RuntimeConfig::skadi_gen2(),
            parallelism: 4,
            policy: BackendPolicy::cost_based(),
            optimize: true,
            shuffle_compression: true,
            threads: None,
            adaptive: false,
        }
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The runtime configuration.
    pub fn runtime_config(&self) -> &RuntimeConfig {
        &self.runtime
    }

    /// Runs a SQL statement.
    pub fn sql(&self, statement: &str) -> Result<JobReport, SkadiError> {
        let (g, _sink) = sql::plan_sql(statement, &self.catalog)?;
        self.run_graph("sql", g, "sql")
    }

    /// Runs a SQL statement **with real data**: plans against a catalog
    /// derived from `db`'s registered tables, shards the plan to this
    /// session's parallelism, and executes every shard through the
    /// simulated cluster's data plane — each task decodes its producers'
    /// IPC payloads, runs its operator kernel, and stores real encoded
    /// bytes whose measured sizes feed the simulator's pricing. The
    /// collected result is byte-identical to
    /// [`MemDb::query`](skadi_frontends::exec::MemDb::query).
    pub fn sql_distributed(
        &self,
        db: &skadi_frontends::exec::MemDb,
        statement: &str,
    ) -> Result<DistributedRun, SkadiError> {
        self.sql_distributed_with_failures(db, statement, &FailurePlan::none())
    }

    /// [`Session::sql_distributed`] under a failure schedule. Recovery
    /// re-executes lost shards through the same deterministic kernels, so
    /// the answer is unchanged by faults the runtime can survive.
    pub fn sql_distributed_with_failures(
        &self,
        db: &skadi_frontends::exec::MemDb,
        statement: &str,
        failures: &FailurePlan,
    ) -> Result<DistributedRun, SkadiError> {
        // The data plane threads hidden "__"-prefixed bookkeeping columns
        // through every shard; user tables must not collide with them.
        shard::check_reserved_columns(db.tables())?;
        // `EXPLAIN ANALYZE <query>` runs the query itself; the prefix
        // only marks that the caller wants the profile rendered.
        let statement = sql::strip_explain_analyze(statement).unwrap_or(statement);
        let (mut graph, _sink) = sql::plan_sql(statement, &db.catalog())?;
        let before = graph.len();
        let optimize = if self.optimize {
            optimize_graph(&mut graph)
        } else {
            Default::default()
        };
        let mut cfg = LowerConfig::new(self.parallelism, self.policy.clone());
        let mut replans = Vec::new();
        if self.adaptive {
            // Pilot pass: measure real key histograms, then re-lower the
            // plan once with coalesced shard counts. Shard-count changes
            // never change result bytes (see `tests/parallel_equiv.rs`).
            let pilot = adaptive::plan(&graph, db.tables(), &cfg);
            replans = pilot.replans.clone();
            cfg = pilot.apply(cfg);
        }
        let phys = lower_graph(&graph, &cfg)?;
        let mut counts = BackendCounts::default();
        for v in phys.vertices() {
            counts.add(v.backend);
        }
        let job = job_from_physical("sql", &phys, "sql")?;
        let sink_task = phys
            .vertices()
            .iter()
            .find(|v| v.kind == skadi_flowgraph::physical::PVertexKind::Sink)
            .map(|v| TaskId(v.id.0 as u64))
            .ok_or_else(|| SkadiError::Sql(sql::SqlError::Plan("plan has no sink".into())))?;

        let mut cluster = Cluster::new(&self.topology, self.runtime.clone());
        let executor = GraphExecutor::new(phys.clone(), db.tables().clone())
            .with_compression(self.shuffle_compression)
            .with_adaptive(self.adaptive);
        let measurements = executor.stats();
        cluster.set_executor(Box::new(executor));
        let stats = cluster.run_with_failures(&job, failures)?;
        let payload = cluster.task_payload(sink_task).ok_or_else(|| {
            SkadiError::Runtime(RuntimeError::Internal(
                "data plane: sink stored no payload".into(),
            ))
        })?;
        let batch = skadi_arrow::ipc::decode_payload(bytes::Bytes::from(payload.to_vec()))
            .map_err(|e| SkadiError::Sql(sql::SqlError::Plan(format!("decode result: {e}"))))?;
        let data_plane = measurements.borrow().clone();
        let profile =
            data_plane.query_profile(&phys, statement, self.parallelism, DEFAULT_SKEW_MULTIPLE);
        Ok(DistributedRun {
            batch,
            report: JobReport {
                name: "sql".to_string(),
                logical_vertices_before: before,
                logical_vertices_after: graph.len(),
                optimize,
                physical_vertices: phys.len(),
                physical_edges: phys.edges().len(),
                backends: counts,
                stats,
                profile: Some(profile),
            },
            data_plane,
            replans,
        })
    }

    /// Runs `EXPLAIN ANALYZE <query>` (prefix optional) against real data
    /// through the distributed data plane and renders the annotated plan
    /// tree — per-operator rows/bytes/time with per-shard min/median/max
    /// and `[SKEW]` flags.
    pub fn explain_analyze(
        &self,
        db: &skadi_frontends::exec::MemDb,
        statement: &str,
    ) -> Result<String, SkadiError> {
        let run = self.sql_distributed(db, statement)?;
        let profile = run
            .report
            .profile
            .as_ref()
            .expect("distributed SQL always records a profile");
        Ok(profile.render(true))
    }

    /// Runs a MapReduce job.
    pub fn mapreduce(&self, job: &MapReduceJob) -> Result<JobReport, SkadiError> {
        let (g, _sink) = job.to_flowgraph()?;
        self.run_graph("mapreduce", g, "dp")
    }

    /// Runs an iterative vertex program.
    pub fn vertex_program(&self, prog: &VertexProgram) -> Result<JobReport, SkadiError> {
        let (g, _sink) = prog.to_flowgraph()?;
        self.run_graph("graph", g, "graph")
    }

    /// Runs a training pipeline.
    pub fn train(&self, pipeline: &TrainingPipeline) -> Result<JobReport, SkadiError> {
        let (g, _sink) = pipeline.to_flowgraph()?;
        self.run_graph("train", g, "ml")
    }

    /// Runs a micro-batch streaming job.
    pub fn stream(&self, job: &StreamJob) -> Result<JobReport, SkadiError> {
        let (g, _sink) = job.to_flowgraph()?;
        self.run_graph("stream", g, "streaming")
    }

    /// Starts an integrated multi-system pipeline.
    pub fn pipeline(&self) -> PipelineBuilder<'_> {
        PipelineBuilder::new(self)
    }

    /// Compiles and runs an arbitrary FlowGraph under the given system
    /// label.
    pub fn run_graph(
        &self,
        name: &str,
        graph: FlowGraph,
        system: &str,
    ) -> Result<JobReport, SkadiError> {
        self.run_graph_with_failures(name, graph, system, &FailurePlan::none())
    }

    /// [`Session::run_graph`] under a failure schedule.
    pub fn run_graph_with_failures(
        &self,
        name: &str,
        mut graph: FlowGraph,
        system: &str,
        failures: &FailurePlan,
    ) -> Result<JobReport, SkadiError> {
        let before = graph.len();
        let optimize = if self.optimize {
            optimize_graph(&mut graph)
        } else {
            Default::default()
        };
        let (job, counts, pv, pe) = self.compile(&graph, system)?;
        let mut cluster = Cluster::new(&self.topology, self.runtime.clone());
        let stats = cluster.run_with_failures(&job, failures)?;
        Ok(JobReport {
            name: name.to_string(),
            logical_vertices_before: before,
            logical_vertices_after: graph.len(),
            optimize,
            physical_vertices: pv,
            physical_edges: pe,
            backends: counts,
            stats,
            profile: None,
        })
    }

    /// Lowers a logical graph to a runnable job plus physical summary.
    pub(crate) fn compile(
        &self,
        graph: &FlowGraph,
        system: &str,
    ) -> Result<(Job, BackendCounts, usize, usize), SkadiError> {
        let cfg = LowerConfig::new(self.parallelism, self.policy.clone());
        let phys = lower_graph(graph, &cfg)?;
        let mut counts = BackendCounts::default();
        for v in phys.vertices() {
            counts.add(v.backend);
        }
        let job = job_from_physical(system, &phys, system)?;
        Ok((job, counts, phys.len(), phys.edges().len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_dcsim::topology::presets;
    use skadi_runtime::Deployment;

    fn session() -> Session {
        Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .build()
    }

    #[test]
    fn sql_end_to_end() {
        let r = session()
            .sql("SELECT kind, sum(value) FROM events WHERE value > 0.5 GROUP BY kind")
            .unwrap();
        assert!(r.stats.finished > 0);
        assert_eq!(r.stats.abandoned, 0);
        assert!(r.stats.makespan.as_nanos() > 0);
        assert!(r.physical_vertices >= r.logical_vertices_after);
    }

    #[test]
    fn sql_errors_propagate() {
        let err = session().sql("SELECT FROM nothing").unwrap_err();
        assert!(matches!(err, SkadiError::Sql(_)));
    }

    #[test]
    fn mapreduce_end_to_end() {
        let job = MapReduceJob::new("logs", 1 << 20, 64 << 20, "word");
        let r = session().mapreduce(&job).unwrap();
        assert!(r.stats.finished > 0);
    }

    #[test]
    fn training_uses_gpus() {
        let p = TrainingPipeline::new("mnist", 1 << 14, 8 << 20, 4 << 20).steps(2);
        let r = session().train(&p).unwrap();
        assert!(r.backends.gpu > 0, "matmuls should land on GPUs: {r}");
        assert!(r.stats.finished > 0);
    }

    #[test]
    fn vertex_program_end_to_end() {
        let prog = VertexProgram::pagerank("web", 100_000, 1_000_000, 3);
        let r = session().vertex_program(&prog).unwrap();
        assert!(r.stats.finished > 0);
    }

    #[test]
    fn optimizer_ablation_changes_plan() {
        // filter + project fuse into one kernel when the optimizer runs.
        let q = "SELECT user_id FROM events WHERE value > 0.5";
        let with = session().sql(q).unwrap();
        let without = Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .without_optimizer()
            .build()
            .sql(q)
            .unwrap();
        assert!(with.optimize.fused > 0);
        assert!(with.logical_vertices_after < without.logical_vertices_after);
    }

    #[test]
    fn deployment_config_flows_through() {
        let s = Session::builder()
            .topology(presets::small_disagg_cluster())
            .catalog(Catalog::demo())
            .runtime(RuntimeConfig::stateless_serverless())
            .build();
        assert_eq!(
            s.runtime_config().deployment,
            Deployment::StatelessServerless
        );
        let r = s.sql("SELECT user_id FROM events").unwrap();
        assert!(r.stats.durable_trips > 0);
    }

    #[test]
    fn report_display_is_complete() {
        let r = session().sql("SELECT user_id FROM events").unwrap();
        let text = r.to_string();
        assert!(text.contains("access layer"));
        assert!(text.contains("makespan"));
        assert!(text.contains("durable"));
    }
}
