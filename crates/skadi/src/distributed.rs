//! The distributed SQL data plane.
//!
//! [`GraphExecutor`] bridges the physical graph and the runtime's
//! [`TaskExecutor`] hook: when the simulated cluster finishes a task, the
//! executor runs that shard's [`ExecOp`] descriptor over real
//! `skadi-arrow` batches — decoding its producers' IPC-framed payloads,
//! extracting this consumer's portion of each edge (hash partition for
//! shuffles, contiguous slice for scatters, the whole payload for
//! pipelines/gathers/broadcasts), executing the shard kernel from
//! `skadi_frontends::shard` — the one SQL interpreter, which `MemDb`
//! also runs in-process — and encoding the result. The returned bytes
//! become the task's stored payload, so every downstream size the
//! simulator prices (transfer bytes, pass-by-value inlining, cache
//! copies) is **measured**, not estimated.
//!
//! Determinism: task inputs are produced deterministically (scans slice
//! contiguous row ranges, partitions preserve row order, gathers
//! canonicalize on the hidden row-id column), so re-executing a task
//! under lineage recovery reproduces identical bytes — the property the
//! runtime's replay contract requires, and the one
//! `tests/distributed_sql.rs` pins byte-for-byte against the in-process
//! run of the same plan at parallelism 1.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::{compression, ipc};
use skadi_flowgraph::physical::{PEdgeKind, PVertexId, PhysicalGraph};
use skadi_flowgraph::profile::{QueryProfile, ShardStats};
use skadi_flowgraph::ExecOp;
use skadi_frontends::exec::pool;
use skadi_frontends::shard;
use skadi_runtime::{TaskExecutor, TaskId};

/// One shard's execution, recorded by [`GraphExecutor`].
#[derive(Debug, Clone)]
pub struct ShardTiming {
    /// The runtime task that ran this shard.
    pub task: TaskId,
    /// Stable operator id (shared by all shards of one operator).
    pub op_id: u32,
    /// Wall time of the shard's operator chain, exactly as
    /// [`shard::execute_shard`] measured it (`stats.wall_nanos`).
    pub wall: Duration,
    /// The shard's profile record from [`shard::execute_shard`], with
    /// `output_bytes` set to the stored (encoded, possibly compressed)
    /// payload length.
    pub stats: ShardStats,
}

/// Measurements shared out of the executor (the cluster owns the
/// executor box; callers keep a clone of this handle).
#[derive(Debug, Clone, Default)]
pub struct DataPlaneStats {
    /// Per-task shard timings, in completion order (re-executions under
    /// recovery append again).
    pub timings: Vec<ShardTiming>,
    /// Rows delivered over each shuffle edge, keyed by
    /// `(producer task, consumer task)`. Deterministic across runs and
    /// seeds — the shuffle hash is data-dependent only.
    pub shuffle_rows: BTreeMap<(u64, u64), usize>,
    /// Rows delivered over EVERY physical edge (all kinds), keyed by
    /// `(producer task, consumer task)`. Re-executions overwrite, so the
    /// map holds each edge's final delivery.
    pub edge_rows: BTreeMap<(u64, u64), usize>,
}

impl DataPlaneStats {
    /// Joins that adaptively built on the nominal probe side (summed
    /// over every shard execution, re-executions included). Always zero
    /// when adaptive execution is off.
    pub fn build_swaps(&self) -> u64 {
        self.timings.iter().map(|t| t.stats.build_swaps).sum()
    }

    /// Assembles the per-operator [`QueryProfile`] from the recorded
    /// shard records and the physical graph's structure, through the
    /// same builder the local engine uses ([`QueryProfile::from_graph`]).
    /// When lineage recovery re-executed a task, the LAST recorded timing
    /// wins (it is the execution whose payload survived).
    pub fn query_profile(
        &self,
        graph: &PhysicalGraph,
        query: &str,
        parallelism: u32,
        skew_multiple: f64,
    ) -> QueryProfile {
        let shards: BTreeMap<u32, ShardStats> = self
            .timings
            .iter()
            .map(|t| (t.task.0 as u32, t.stats.clone()))
            .collect();
        QueryProfile::from_graph(graph, query, parallelism, skew_multiple, &shards)
    }
}

/// Executes physical-graph shards over real record batches.
///
/// The graph and base tables live behind `Arc` so shard computation —
/// a pure function of `(descriptor, inputs)` — can run on the shared
/// worker pool when the cluster hands over a same-instant batch via
/// [`TaskExecutor::execute_ready`]. Stats stay single-threaded: input
/// staging and record commits happen on the calling thread, in task-ID
/// order, so measurements are as deterministic as the serial path.
pub struct GraphExecutor {
    graph: Arc<PhysicalGraph>,
    tables: Arc<BTreeMap<String, RecordBatch>>,
    stats: Rc<RefCell<DataPlaneStats>>,
    compress: bool,
    adaptive: bool,
}

impl GraphExecutor {
    /// Builds an executor for `graph` reading base tables from `tables`.
    /// Stored payloads are block-compressed by default (see
    /// [`GraphExecutor::with_compression`]).
    pub fn new(graph: PhysicalGraph, tables: BTreeMap<String, RecordBatch>) -> Self {
        GraphExecutor {
            graph: Arc::new(graph),
            tables: Arc::new(tables),
            stats: Rc::new(RefCell::new(DataPlaneStats::default())),
            compress: true,
            adaptive: false,
        }
    }

    /// Toggles adaptive shard execution: joins whose gathered build
    /// input is observed (at runtime, from real row counts) to dwarf the
    /// probe input build their hash table on the smaller side. Results
    /// are byte-identical either way — the decision only changes which
    /// side pays the hash-table build.
    pub fn with_adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Toggles block compression of stored task payloads. When on, each
    /// shard's IPC frame goes through [`compression::maybe_compress`]
    /// before the cluster stores it, so every byte size the simulator
    /// prices (transfer, inlining, caching) reflects the compressed
    /// frame. Decode auto-detects by magic, so producers and consumers
    /// never need to agree out of band.
    ///
    /// [`compression::maybe_compress`]: skadi_arrow::compression::maybe_compress
    pub fn with_compression(mut self, on: bool) -> Self {
        self.compress = on;
        self
    }

    /// A shared handle onto the executor's measurements; stays readable
    /// after the executor box moves into the cluster.
    pub fn stats(&self) -> Rc<RefCell<DataPlaneStats>> {
        Rc::clone(&self.stats)
    }
}

/// One task's shard, staged and ready to run: the exec descriptor plus
/// this shard's extracted portion of every input edge. Produced serially
/// by [`GraphExecutor::prepare`]; consumed by the pure
/// [`GraphExecutor::run_shard`] (safe to run on any thread).
struct PreparedShard {
    task: TaskId,
    op: ExecOp,
    op_id: u32,
    op_name: String,
    shard: u32,
    shards: u32,
    port0: Vec<RecordBatch>,
    port1: Vec<RecordBatch>,
}

impl GraphExecutor {
    /// Stages task `t`: decodes producer payloads, extracts this shard's
    /// portion of each in-edge, and records edge row counts. Runs on the
    /// calling thread (it touches `stats`).
    fn prepare(&mut self, t: TaskId, inputs: &[(TaskId, &[u8])]) -> Result<PreparedShard, String> {
        let idx = t.0 as usize;
        if idx >= self.graph.len() {
            return Err(format!("task {t} has no physical vertex"));
        }
        let v = self.graph.vertex(PVertexId(t.0 as u32));
        let op = v
            .exec
            .as_ref()
            .ok_or_else(|| format!("vertex {} ({}) has no exec descriptor", v.id, v.op))?;

        // Decode each producer's full stored payload once.
        let mut decoded: BTreeMap<u64, RecordBatch> = BTreeMap::new();
        for (p, buf) in inputs {
            let b = ipc::decode_payload(Bytes::from(buf.to_vec()))
                .map_err(|e| format!("decode payload of {p}: {e}"))?;
            decoded.insert(p.0, b);
        }

        // This shard's view of each in-edge, ordered by (port, producer
        // shard): the order the shard kernels document for their inputs.
        let mut edges = self.graph.in_edges(v.id);
        edges.sort_by_key(|e| (e.port, self.graph.vertex(e.from).shard, e.from.0));
        let mut port0: Vec<RecordBatch> = Vec::new();
        let mut port1: Vec<RecordBatch> = Vec::new();
        for e in edges {
            let full = decoded
                .get(&(e.from.0 as u64))
                .ok_or_else(|| format!("missing payload from {} into {}", e.from, v.id))?;
            let part = match &e.kind {
                PEdgeKind::Shuffle { key, .. } => {
                    let mine = shard::partition_by_key(
                        full,
                        key,
                        v.shard as usize,
                        v.shards as usize,
                        op.starts_with_join(),
                    )
                    .map_err(|err| format!("shuffle into {}: {err}", v.id))?;
                    self.stats
                        .borrow_mut()
                        .shuffle_rows
                        .insert((e.from.0 as u64, t.0), mine.num_rows());
                    mine
                }
                PEdgeKind::Scatter => shard::split_even(full, v.shard as usize, v.shards as usize)
                    .map_err(|err| format!("scatter into {}: {err}", v.id))?,
                PEdgeKind::Pipeline | PEdgeKind::Gather | PEdgeKind::Broadcast => full.clone(),
            };
            self.stats
                .borrow_mut()
                .edge_rows
                .insert((e.from.0 as u64, t.0), part.num_rows());
            if e.port == 1 {
                port1.push(part);
            } else {
                port0.push(part);
            }
        }

        Ok(PreparedShard {
            task: t,
            op: op.clone(),
            op_id: v.op_id,
            op_name: v.op.clone(),
            shard: v.shard,
            shards: v.shards,
            port0,
            port1,
        })
    }

    /// Runs one staged shard: a pure function of the prepared inputs and
    /// the (shared, immutable) base tables — safe on any pool thread.
    /// Returns the stored payload and the shard's profile record, whose
    /// `output_bytes` is that payload's length.
    fn run_shard(
        tables: &BTreeMap<String, RecordBatch>,
        p: &PreparedShard,
        compress: bool,
        adaptive: bool,
    ) -> Result<(Vec<u8>, ShardStats), String> {
        let (out, mut stats) = shard::execute_shard(
            &p.op, tables, p.shard, p.shards, &p.port0, &p.port1, adaptive,
        )
        .map_err(|e| format!("shard {}/{} of {}: {e}", p.shard, p.shards, p.op_name))?;
        let frame = ipc::encode(&out);
        let bytes = if compress {
            compression::maybe_compress(&frame)
        } else {
            frame.to_vec()
        };
        stats.output_bytes = bytes.len() as u64;
        Ok((bytes, stats))
    }

    /// Records a finished run's profile record and releases its payload.
    fn commit(&mut self, p: &PreparedShard, (bytes, stats): (Vec<u8>, ShardStats)) -> Vec<u8> {
        self.stats.borrow_mut().timings.push(ShardTiming {
            task: p.task,
            op_id: p.op_id,
            wall: Duration::from_nanos(stats.wall_nanos),
            stats,
        });
        bytes
    }
}

impl TaskExecutor for GraphExecutor {
    fn execute(&mut self, t: TaskId, inputs: &[(TaskId, &[u8])]) -> Result<Vec<u8>, String> {
        let p = self.prepare(t, inputs)?;
        let run = Self::run_shard(&self.tables, &p, self.compress, self.adaptive)?;
        Ok(self.commit(&p, run))
    }

    /// Same-instant batch: staging and commits stay serial in task-ID
    /// order (the order the cluster hands us), while the shard kernels —
    /// pure functions of their staged inputs — overlap on the shared
    /// worker pool. Output bytes, row counts, and every stat except wall
    /// nanos are identical to running the batch one task at a time.
    fn execute_ready(
        &mut self,
        tasks: &[(TaskId, Vec<(TaskId, &[u8])>)],
    ) -> Vec<Result<Vec<u8>, String>> {
        let prepared: Vec<Result<PreparedShard, String>> = tasks
            .iter()
            .map(|(t, inputs)| self.prepare(*t, inputs))
            .collect();
        let prepared = Arc::new(prepared);
        let prepared2 = Arc::clone(&prepared);
        let tables = Arc::clone(&self.tables);
        let compress = self.compress;
        let adaptive = self.adaptive;
        let runs = pool::global().run_indexed(prepared.len(), move |i| match &prepared2[i] {
            Ok(p) => Some(Self::run_shard(&tables, p, compress, adaptive)),
            Err(_) => None,
        });
        prepared
            .iter()
            .zip(runs)
            .map(|(p, run)| match (p, run) {
                (Ok(p), Some(Ok(run))) => Ok(self.commit(p, run)),
                (Ok(_), Some(Err(e))) => Err(e),
                (Err(e), _) => Err(e.clone()),
                (Ok(_), None) => unreachable!("prepared shard must produce a run"),
            })
            .collect()
    }
}
