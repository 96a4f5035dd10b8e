//! The traced run: each statement once more, split into layers by
//! timing calls into each layer's public functions from here. Nothing
//! inside the program is instrumented.
//!
//! Two mirrors exist, one per engine:
//!
//! - the local mirror: `sql::parse`, then `MemDb::query_profiled` (its
//!   per-operator wall times are the `exec` layer), then a replay of the
//!   server's result streaming (`take_indices`, `ipc::encode`,
//!   `compression::maybe_compress`, `codec::write_packet`) and of the
//!   client's reassembly (`read_packet`, `decompress`, `ipc::decode`,
//!   `RecordBatch::concat`): the `wire` layer;
//! - the distributed mirror: the steps of `Session::sql_distributed`
//!   (`plan_sql`, `optimize_graph`, `lower_graph`, `Cluster` with a
//!   timing wrapper around `GraphExecutor`, decode of the sink payload,
//!   `DataPlaneStats::query_profile`), then the same wire replay.
//!
//! The served path of a workload is traced with its engine's mirror;
//! only those layers count toward `trace.coverage`, which sets their
//! sum against the same statement's untraced wire round trip. The other
//! engine's layers are measured off the served path so that every layer
//! has a number on every workload: local workloads trace the fixed
//! virtual-time list through the distributed mirror (it explains
//! `virt_makespan_*`), and `olap-dist` traces its statements through
//! the local mirror. The distributed mirror runs the data plane one task
//! at a time — `TaskExecutor`'s default batch path, which the runtime
//! guarantees yields the same bytes — so kernel and codec time are
//! exclusive slices of one timeline. The traced statements run with the
//! worker pool at one thread, so the served path runs its batches and
//! morsels one at a time too, and mirror and wire do the same work.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::rc::Rc;
use std::time::{Duration, Instant};

use skadi::arrow::batch::RecordBatch;
use skadi::arrow::{compression, compute, ipc};
use skadi::flowgraph::lower::{lower_graph, LowerConfig};
use skadi::flowgraph::optimize::optimize_graph;
use skadi::flowgraph::physical::{PEdgeKind, PVertexId, PVertexKind};
use skadi::flowgraph::ExecOp;
use skadi::frontends::exec::MemDb;
use skadi::frontends::sql;
use skadi::ir::BackendPolicy;
use skadi::runtime::executor::ReadyTask;
use skadi::runtime::{job_from_physical, Cluster, FailurePlan, TaskExecutor, TaskId};
use skadi::wire::codec::{read_packet, write_packet};
use skadi::wire::packet::{Packet, CAP_COMPRESSION, CAP_PROGRESS};
use skadi::wire::DEFAULT_MAX_FRAME;
use skadi::{GraphExecutor, Session};

/// Microseconds in a duration.
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The operator class of a local-engine profile entry (the planner's
/// `rel.*` names); anything else counts as `None`.
fn exec_class(name: &str) -> Option<&'static str> {
    EXEC_CLASSES
        .into_iter()
        .find(|c| name.strip_prefix("rel.") == Some(*c))
}

/// The operator class of a shard kernel. A fused kernel is charged to
/// its first constituent, and a projection to the row-wise `filter`
/// class it normally fuses with.
fn shard_class(op: &ExecOp) -> &'static str {
    match op {
        ExecOp::Scan { .. } => "scan",
        ExecOp::Filter { .. } | ExecOp::Project { .. } => "filter",
        ExecOp::Join { .. } => "join",
        ExecOp::Aggregate { .. } => "aggregate",
        ExecOp::Sort { .. } => "sort",
        ExecOp::Limit { .. } => "limit",
        ExecOp::Collect { .. } => "collect",
        ExecOp::Fused(ops) => ops.first().map(shard_class).unwrap_or("filter"),
    }
}

/// Operator classes of the local engine's profile, as reported.
pub const EXEC_CLASSES: [&str; 7] = [
    "scan",
    "filter",
    "join",
    "aggregate",
    "project",
    "sort",
    "limit",
];

/// Operator classes of the shard kernels, as reported.
pub const SHARD_CLASSES: [&str; 7] = [
    "scan",
    "filter",
    "join",
    "aggregate",
    "sort",
    "limit",
    "collect",
];

/// The wire layer of one result.
#[derive(Debug, Default, Clone)]
pub struct WireTrace {
    pub compressed: bool,
    pub encode_us: f64,
    pub decode_us: f64,
    pub blocks: usize,
    pub payload_bytes: usize,
    pub frame_bytes: usize,
    pub rows: usize,
}

/// Replays the server's streaming of `batch` in `block_rows` chunks
/// under the negotiated `caps`, then the client's reassembly. Returns
/// the reassembled batch and the split.
pub fn wire_replay(
    batch: &RecordBatch,
    block_rows: usize,
    caps: u32,
) -> Result<(RecordBatch, WireTrace), String> {
    let mut tr = WireTrace {
        compressed: caps & CAP_COMPRESSION != 0,
        rows: batch.num_rows(),
        ..WireTrace::default()
    };
    let t = Instant::now();
    let total = batch.num_rows();
    let nchunks = total.div_ceil(block_rows).max(1);
    let mut stream: Vec<u8> = Vec::new();
    let (mut sent_rows, mut sent_bytes) = (0u64, 0u64);
    for c in 0..nchunks {
        let chunk = if nchunks == 1 {
            batch.clone()
        } else {
            let idx: Vec<usize> = (c * block_rows..((c + 1) * block_rows).min(total)).collect();
            compute::take_indices(batch, &idx).map_err(|e| e.to_string())?
        };
        let frame = ipc::encode(&chunk);
        tr.frame_bytes += frame.len();
        let payload = if caps & CAP_COMPRESSION != 0 {
            bytes::Bytes::from(compression::maybe_compress(&frame))
        } else {
            frame
        };
        tr.payload_bytes += payload.len();
        sent_rows += chunk.num_rows() as u64;
        sent_bytes += payload.len() as u64;
        write_packet(
            &mut stream,
            &Packet::Data {
                query_id: 1,
                payload,
            },
        )
        .map_err(|e| e.to_string())?;
        if caps & CAP_PROGRESS != 0 && c + 1 < nchunks {
            let p = Packet::Progress {
                query_id: 1,
                rows: sent_rows,
                bytes: sent_bytes,
            };
            write_packet(&mut stream, &p).map_err(|e| e.to_string())?;
        }
    }
    let eos = Packet::EndOfStream {
        query_id: 1,
        chunks: nchunks as u32,
    };
    write_packet(&mut stream, &eos).map_err(|e| e.to_string())?;
    tr.encode_us = us(t.elapsed());
    tr.blocks = nchunks;

    let t = Instant::now();
    let mut r = Cursor::new(stream);
    let mut blocks = Vec::new();
    loop {
        match read_packet(&mut r, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())? {
            Packet::Data { payload, .. } => {
                let frame = if compression::is_compressed(&payload) {
                    bytes::Bytes::from(
                        compression::decompress(&payload).map_err(|e| e.to_string())?,
                    )
                } else {
                    payload
                };
                blocks.push(ipc::decode(frame).map_err(|e| e.to_string())?);
            }
            Packet::Progress { .. } => {}
            Packet::EndOfStream { .. } => break,
            other => return Err(format!("unexpected {} in replay", other.name())),
        }
    }
    let out = if blocks.len() == 1 {
        blocks.pop().expect("one block")
    } else {
        RecordBatch::concat(&blocks).map_err(|e| e.to_string())?
    };
    tr.decode_us = us(t.elapsed());
    Ok((out, tr))
}

/// One statement through the local mirror.
#[derive(Debug, Clone)]
pub struct LocalTrace {
    /// The answer as the client reassembles it from the replayed stream.
    pub wire_batch: RecordBatch,
    pub parse_us: f64,
    /// Operator wall times from the profile, by class.
    pub ops_us: BTreeMap<&'static str, f64>,
    /// `query_profiled` wall not inside any classified operator (its own
    /// parse and profile assembly).
    pub exec_rest_us: f64,
    /// Rows entering all operators, and rows in the answer.
    pub rows_examined: u64,
    pub rows_out: u64,
    pub wire: WireTrace,
    /// Wall of the whole mirror, first stopwatch to last.
    pub total_us: f64,
}

impl LocalTrace {
    /// Sum of the layer self times.
    pub fn layers_us(&self) -> f64 {
        self.parse_us
            + self.ops_us.values().sum::<f64>()
            + self.exec_rest_us
            + self.wire.encode_us
            + self.wire.decode_us
    }
}

/// Traces one statement through the local engine and the wire replay.
pub fn local_mirror(
    db: &MemDb,
    stmt: &str,
    block_rows: usize,
    caps: u32,
) -> Result<LocalTrace, String> {
    let start = Instant::now();
    let t = Instant::now();
    sql::parse(&sql::tokenize(stmt).map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let parse_us = us(t.elapsed());

    let t = Instant::now();
    let (batch, profile) = db.query_profiled(stmt).map_err(|e| e.to_string())?;
    let qp_us = us(t.elapsed());
    let mut ops_us: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut rows_in = 0u64;
    for op in &profile.ops {
        let wall: u64 = op.shards.iter().map(|s| s.wall_nanos).sum();
        if let Some(class) = exec_class(&op.op) {
            *ops_us.entry(class).or_default() += wall as f64 / 1e3;
        }
        rows_in += op.shards.iter().map(|s| s.rows_in).sum::<u64>();
    }
    let exec_rest_us = qp_us - ops_us.values().sum::<f64>();

    let (wire_batch, wire) = wire_replay(&batch, block_rows, caps)?;
    Ok(LocalTrace {
        rows_examined: rows_in,
        rows_out: batch.num_rows() as u64,
        wire_batch,
        parse_us,
        ops_us,
        exec_rest_us,
        wire,
        total_us: us(start.elapsed()),
    })
}

/// Times every call into the wrapped executor. Only `execute` is
/// forwarded, so a same-instant batch runs one task at a time through
/// the trait's default batch path.
struct TimedExecutor {
    inner: GraphExecutor,
    wall: Rc<Cell<Duration>>,
}

impl TaskExecutor for TimedExecutor {
    fn execute(&mut self, t: TaskId, inputs: &[(TaskId, &[u8])]) -> Result<Vec<u8>, String> {
        let s = Instant::now();
        let out = self.inner.execute(t, inputs);
        self.wall.set(self.wall.get() + s.elapsed());
        out
    }

    fn execute_ready(&mut self, tasks: &[ReadyTask<'_>]) -> Vec<Result<Vec<u8>, String>> {
        tasks
            .iter()
            .map(|(t, inputs)| self.execute(*t, inputs))
            .collect()
    }
}

/// `SessionBuilder::skew_multiple`'s default, which every workload's
/// session keeps: the profile flags a shard as skewed beyond it.
const SESSION_SKEW_MULTIPLE: f64 = 2.0;

/// One statement through the distributed mirror.
#[derive(Debug, Clone)]
pub struct DistTrace {
    /// The answer as the client reassembles it from the replayed stream.
    pub wire_batch: RecordBatch,
    pub parse_us: f64,
    /// `plan_sql` minus its parse, plus deriving the catalog.
    pub plan_us: f64,
    pub optimize_us: f64,
    /// `lower_graph` plus `job_from_physical`.
    pub lower_us: f64,
    pub physical_tasks: usize,
    /// Building the cluster and the executor.
    pub runtime_setup_us: f64,
    /// `run_with_failures` wall outside the executor.
    pub loop_us: f64,
    /// Shard kernel wall, by operator class.
    pub shard_us: BTreeMap<&'static str, f64>,
    /// The slowest shard's wall over the median shard's, within the
    /// operator with the most kernel wall.
    pub skew: f64,
    /// Executor wall outside the shard kernels: decode, partition,
    /// encode, compress.
    pub codec_us: f64,
    /// Decoding the sink's payload into the result and assembling the
    /// run's query profile, as `sql_distributed` does for its report.
    pub collect_us: f64,
    pub shuffle_bytes: u64,
    pub input_bytes: u64,
    pub tasks: u64,
    pub retries: u64,
    pub virt_makespan_us: f64,
    pub virt_stall_us: f64,
    pub virt_compute_us: f64,
    pub net_bytes: u64,
    pub wire: WireTrace,
    pub total_us: f64,
}

impl DistTrace {
    /// Sum of the layer self times.
    pub fn layers_us(&self) -> f64 {
        self.parse_us
            + self.plan_us
            + self.optimize_us
            + self.lower_us
            + self.runtime_setup_us
            + self.loop_us
            + self.shard_us.values().sum::<f64>()
            + self.codec_us
            + self.collect_us
            + self.wire.encode_us
            + self.wire.decode_us
    }
}

/// Traces one statement through the steps of `Session::sql_distributed`
/// (static plan, compressed shuffle, no failures) at `parallelism`, then
/// the wire replay.
pub fn dist_mirror(
    session: &Session,
    parallelism: u32,
    db: &MemDb,
    stmt: &str,
    block_rows: usize,
    caps: u32,
) -> Result<DistTrace, String> {
    let start = Instant::now();
    let t = Instant::now();
    let tokens = sql::tokenize(stmt).map_err(|e| e.to_string())?;
    let query = sql::parse(&tokens).map_err(|e| e.to_string())?;
    let parse_us = us(t.elapsed());

    let t = Instant::now();
    let catalog = db.catalog();
    let (mut graph, _sink) = sql::plan_sql(stmt, &catalog).map_err(|e| e.to_string())?;
    let plan_us = (us(t.elapsed()) - parse_us).max(0.0);

    let t = Instant::now();
    optimize_graph(&mut graph);
    let optimize_us = us(t.elapsed());

    let t = Instant::now();
    let cfg = LowerConfig::new(parallelism, BackendPolicy::cost_based());
    let phys = lower_graph(&graph, &cfg).map_err(|e| e.to_string())?;
    let job = job_from_physical("sql", &phys, "sql").map_err(|e| e.to_string())?;
    let sink = phys
        .vertices()
        .iter()
        .find(|v| v.kind == PVertexKind::Sink)
        .map(|v| TaskId(v.id.0 as u64))
        .ok_or("plan has no sink")?;
    let lower_us = us(t.elapsed());

    let t = Instant::now();
    let mut cluster = Cluster::new(session.topology(), session.runtime_config().clone());
    let inner = GraphExecutor::new(phys.clone(), db.tables().clone()).with_compression(true);
    let measurements = inner.stats();
    let exec_wall = Rc::new(Cell::new(Duration::ZERO));
    cluster.set_executor(Box::new(TimedExecutor {
        inner,
        wall: Rc::clone(&exec_wall),
    }));
    let runtime_setup_us = us(t.elapsed());

    let t = Instant::now();
    let stats = cluster
        .run_with_failures(&job, &FailurePlan::none())
        .map_err(|e| e.to_string())?;
    let run_us = us(t.elapsed());

    let t = Instant::now();
    let payload = cluster.task_payload(sink).ok_or("sink stored no payload")?;
    let frame = if compression::is_compressed(payload) {
        compression::decompress(payload).map_err(|e| e.to_string())?
    } else {
        payload.to_vec()
    };
    let batch = ipc::decode(bytes::Bytes::from(frame)).map_err(|e| e.to_string())?;
    let dp = measurements.borrow().clone();
    dp.query_profile(&phys, stmt, parallelism, SESSION_SKEW_MULTIPLE);
    let collect_us = us(t.elapsed());

    let (wire_batch, wire) = wire_replay(&batch, block_rows, caps)?;
    let total_us = us(start.elapsed());

    // Split the executor's wall into shard kernels and the rest.
    let mut shard_us: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut by_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for tm in &dp.timings {
        let v = phys.vertex(PVertexId(tm.task.0 as u32));
        let class = v.exec.as_ref().map(shard_class).unwrap_or("collect");
        *shard_us.entry(class).or_default() += us(tm.wall);
        by_op.entry(tm.op_id).or_default().push(us(tm.wall));
    }
    let kernel_us: f64 = shard_us.values().sum();
    let skew = by_op
        .values()
        .max_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()))
        .map(|walls| {
            let max = walls.iter().copied().fold(0.0, f64::max);
            max / crate::stats::median(walls).max(1e-3)
        })
        .unwrap_or(1.0);
    let exec_us = us(exec_wall.get());

    // Bytes leaving a task over a shuffle edge, counted once per producer.
    let mut shuffled: Vec<u32> = phys
        .edges()
        .iter()
        .filter(|e| matches!(e.kind, PEdgeKind::Shuffle { .. }))
        .map(|e| e.from.0)
        .collect();
    shuffled.sort_unstable();
    shuffled.dedup();
    let shuffle_bytes = shuffled
        .iter()
        .filter_map(|p| stats.measured_output_bytes.get(&TaskId(*p as u64)))
        .sum();
    let mut input_bytes = db
        .table(&query.from)
        .map(|b| b.byte_size() as u64)
        .unwrap_or(0);
    for j in &query.joins {
        input_bytes += db
            .table(&j.table)
            .map(|b| b.byte_size() as u64)
            .unwrap_or(0);
    }

    Ok(DistTrace {
        wire_batch,
        parse_us,
        plan_us,
        optimize_us,
        lower_us,
        physical_tasks: phys.len(),
        runtime_setup_us,
        loop_us: run_us - exec_us,
        shard_us,
        skew,
        codec_us: exec_us - kernel_us,
        collect_us,
        shuffle_bytes,
        input_bytes,
        tasks: stats.finished,
        retries: stats.retries,
        virt_makespan_us: stats.makespan.as_micros_f64(),
        virt_stall_us: stats.stall_total.as_micros_f64(),
        virt_compute_us: stats.compute_total.as_micros_f64(),
        net_bytes: stats.net.network_bytes(),
        wire,
        total_us,
    })
}
