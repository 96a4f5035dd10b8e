//! Single-shard execution of physical-graph operators — the one SQL
//! interpreter.
//!
//! SQL planning attaches an [`ExecOp`] descriptor to every FlowGraph
//! vertex. This module interprets those descriptors over real
//! [`RecordBatch`]es with the kernels in [`crate::exec::parallel`] (one
//! per operator: join, group-by, sort, filter). Two callers run it:
//!
//! - the distributed data plane (`skadi::GraphExecutor`) runs one task
//!   per shard of the lowered physical graph, with inputs decoded from
//!   the producers' IPC payloads;
//! - [`run_graph`] runs a planned graph in-process, one shard per
//!   vertex, with no runtime and no IPC. It serves
//!   [`MemDb::query`](crate::exec::MemDb::query) and the adaptive pilot
//!   pass.
//!
//! # Determinism and byte-identity
//!
//! The contract is that collecting a distributed run yields a batch
//! **byte-identical** to the single-shard run at any parallelism. Two
//! hidden columns make that possible:
//!
//! - `__rid` ([`RID`]): a row id threaded from the scans. Shard `i` of an
//!   `n`-row table scans the contiguous row range `[i*n/N, (i+1)*n/N)`,
//!   so a row's id is its position in the full table; a join emits
//!   `left_rid * right_table_rows + right_rid`, which reproduces the
//!   single-shard probe-order output as an ascending sort key.
//! - `__gkey` ([`GKEY`]): the rendered group key of an aggregate output
//!   row. Aggregates order groups by rendered key; sorting shard outputs
//!   by `__gkey` merges hash-partitioned groups back into that order
//!   (with min-`__rid` kept as a deterministic tiebreak).
//!
//! Every shard first puts its gathered input into **canonical order**
//! (stable sort by `__rid`, then by `__gkey` — so the group key is the
//! primary key where present). That makes per-group fold order equal to
//! the single-shard row order bit-for-bit (floating-point sums
//! included), no matter how batches were partitioned or which failed
//! task recomputed them. The sink strips both hidden columns.
//!
//! # Shuffle-hash compatibility
//!
//! [`partition_by_key`] buckets rows by `hash_key_column(col) % parts` —
//! the same FNV-1a-over-key-bytes scheme the physical graph's
//! [`Partitioner::Hash`](skadi_flowgraph::Partitioner) prices, and the
//! same hash the join/aggregate kernels probe with. Edges into a join
//! pass `coerce = true` so mixed `Int64`/`Float64` key pairs co-locate
//! by their `f64` bit pattern.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use skadi_arrow::array::{Array, DictUtf8Array};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::compute;
use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema};
use skadi_flowgraph::profile::ShardStats;
use skadi_flowgraph::{ExecAgg, ExecOp, FlowGraph, VertexId};

use crate::exec::{self, parallel, sort_by, wrap};
use crate::sql::SqlError;

/// Hidden row-id column threaded from scans through joins.
pub const RID: &str = "__rid";
/// Hidden rendered-group-key column emitted by aggregate shards.
pub const GKEY: &str = "__gkey";

/// True if `name` is reserved for the data plane's hidden columns.
pub fn is_hidden(name: &str) -> bool {
    name == RID || name == GKEY
}

/// Rejects tables with a column in the reserved `__` namespace, where
/// the hidden bookkeeping columns live. [`run_graph`] and distributed
/// SQL both check this before running, so they fail with one error.
pub fn check_reserved_columns(tables: &BTreeMap<String, RecordBatch>) -> Result<(), SqlError> {
    for (name, batch) in tables {
        if let Some(f) = batch
            .schema()
            .fields()
            .iter()
            .find(|f| f.name.starts_with("__"))
        {
            return Err(SqlError::Plan(format!(
                "table {name:?}: column {:?} uses the reserved \"__\" prefix",
                f.name
            )));
        }
    }
    Ok(())
}

/// What [`run_graph`] produced.
#[derive(Debug, Clone)]
pub struct GraphRun {
    /// The output of the last vertex in topological order: a SQL plan's
    /// sink, i.e. the query result.
    pub output: RecordBatch,
    /// Every vertex's profile entry, as [`execute_shard`] measured it;
    /// `output_bytes` is the output's in-memory size.
    pub vertices: BTreeMap<VertexId, ShardStats>,
}

/// Runs a planned graph in-process: every vertex once, single-sharded,
/// in topological order, through [`execute_shard`] — no runtime,
/// no IPC. A vertex's port inputs are its producers' outputs, ordered by
/// `(port, producer)` like the data plane's. `observe` sees each output
/// as it is produced; `run_graph` itself keeps an output only until its
/// last consumer has run. Fails on reserved column names
/// ([`check_reserved_columns`]) and on a vertex without an exec
/// descriptor (SQL plans always carry one).
pub fn run_graph(
    g: &FlowGraph,
    tables: &BTreeMap<String, RecordBatch>,
    mut observe: impl FnMut(VertexId, &RecordBatch),
) -> Result<GraphRun, SqlError> {
    check_reserved_columns(tables)?;
    let order = g
        .topo_order()
        .map_err(|e| SqlError::Plan(format!("plan: {e}")))?;
    let mut pending: HashMap<VertexId, usize> = HashMap::new();
    for e in g.edges() {
        *pending.entry(e.from).or_default() += 1;
    }
    let mut outputs: HashMap<VertexId, RecordBatch> = HashMap::new();
    let mut vertices = BTreeMap::new();
    let mut last = None;
    for v in order {
        let exec = g
            .vertex(v)
            .exec
            .as_ref()
            .ok_or_else(|| SqlError::Plan(format!("vertex {v} has no exec descriptor")))?;
        let mut ins: Vec<_> = g.edges().iter().filter(|e| e.to == v).collect();
        ins.sort_by_key(|e| (e.port, e.from.0));
        let mut port0: Vec<RecordBatch> = Vec::new();
        let mut port1: Vec<RecordBatch> = Vec::new();
        for e in ins {
            let left = pending.get_mut(&e.from).expect("every edge counted");
            *left -= 1;
            let b = if *left == 0 {
                outputs.remove(&e.from)
            } else {
                outputs.get(&e.from).cloned()
            }
            .expect("producers run first");
            if e.port == 1 {
                port1.push(b);
            } else {
                port0.push(b);
            }
        }
        let (out, mut stats) = execute_shard(exec, tables, 0, 1, &port0, &port1, false)?;
        observe(v, &out);
        stats.output_bytes = out.byte_size() as u64;
        vertices.insert(v, stats);
        if pending.get(&v).is_some_and(|&n| n > 0) {
            outputs.insert(v, out.clone());
        }
        last = Some(out);
    }
    let output = last.ok_or_else(|| SqlError::Plan("empty plan".into()))?;
    Ok(GraphRun { output, vertices })
}

/// When the nominal build input of an adaptive join holds more than this
/// multiple of the probe input's rows, the join builds on the probe side
/// instead. A pure function of gathered row counts — never of timing.
pub const SWAP_BUILD_MULTIPLE: usize = 2;

/// Executes one shard's operator chain and measures it. `port0` holds
/// the (probe-side) input batches in producer shard order, `port1` the
/// build side of a join; scans ignore both and read `tables` directly.
///
/// The returned [`ShardStats`] is the shard's whole profile record except
/// `output_bytes`, which only the caller knows (in-memory size locally,
/// encoded frame length in the data plane): rows in (`port0` + `port1`)
/// and out, the chain's wall time (the data plane's only stopwatch),
/// the join / group-by hash counters, adaptive build swaps, and the
/// selectivity of the filter steps: the product of every step's
/// out/in, i.e. for a chain of filters the rows leaving the last over
/// the rows entering the first.
///
/// With `adaptive` on, a join whose gathered build side (`port1`)
/// exceeds [`SWAP_BUILD_MULTIPLE`]× the probe side builds its hash table
/// on the smaller side and restores probe order afterwards, so the
/// output stays byte-identical to the static plan (see [`join_shard`]).
pub fn execute_shard(
    op: &ExecOp,
    tables: &BTreeMap<String, RecordBatch>,
    shard: u32,
    shards: u32,
    port0: &[RecordBatch],
    port1: &[RecordBatch],
    adaptive: bool,
) -> Result<(RecordBatch, ShardStats), SqlError> {
    let mut stats = ShardStats {
        shard,
        rows_in: port0.iter().chain(port1).map(|b| b.num_rows() as u64).sum(),
        ..ShardStats::default()
    };
    let started = Instant::now();
    let mut current: Option<RecordBatch> = None;
    for step in op.clone().flatten() {
        let out = match step {
            ExecOp::Scan { table } => {
                let t = tables
                    .get(&table)
                    .ok_or_else(|| SqlError::Plan(format!("unknown table {table:?}")))?;
                scan_shard(t, shard, shards)?
            }
            ExecOp::Join {
                left_key,
                right_key,
                right_rows,
            } => {
                if current.is_some() {
                    return Err(SqlError::Plan("join cannot be mid-chain".into()));
                }
                join_shard(
                    port0, port1, &left_key, &right_key, right_rows, adaptive, &mut stats,
                )?
            }
            other => {
                let input = match current.take() {
                    Some(b) => b,
                    None => gather(port0)?,
                };
                match other {
                    ExecOp::Filter { conjuncts } => {
                        let out = exec::apply_conjuncts(&input, &conjuncts)?;
                        if input.num_rows() > 0 {
                            let step = out.num_rows() as f64 / input.num_rows() as f64;
                            stats.selectivity = Some(stats.selectivity.unwrap_or(1.0) * step);
                        }
                        out
                    }
                    ExecOp::Project { columns } => project_shard(&input, &columns)?,
                    ExecOp::Aggregate { group_by, aggs } => {
                        aggregate_shard(&input, &group_by, &aggs, &mut stats)?
                    }
                    ExecOp::Sort { column, descending } => sort_by(&input, &column, descending)?,
                    ExecOp::Limit { n, order } => {
                        let cur = match order {
                            Some((col, desc)) => sort_by(&input, &col, desc)?,
                            None => input,
                        };
                        truncate(&cur, n as usize)?
                    }
                    ExecOp::Collect { order_by, limit } => {
                        let mut cur = input;
                        if let Some((col, desc)) = order_by {
                            cur = sort_by(&cur, &col, desc)?;
                        }
                        if let Some(n) = limit {
                            cur = truncate(&cur, n as usize)?;
                        }
                        // Output boundary: deliver plain columns, so the
                        // result is the same whichever columns ran
                        // dictionary-encoded.
                        strip_hidden(&cur)?.dict_decoded()
                    }
                    ExecOp::Scan { .. } | ExecOp::Join { .. } | ExecOp::Fused(_) => {
                        unreachable!("handled above / flattened")
                    }
                }
            }
        };
        current = Some(out);
    }
    stats.wall_nanos = started.elapsed().as_nanos() as u64;
    let out = current.ok_or_else(|| SqlError::Plan("empty exec descriptor".into()))?;
    stats.rows_out = out.num_rows() as u64;
    Ok((out, stats))
}

/// Part `part` of `parts` hash partitions of `batch` on `key`: the rows
/// whose `hash_key_column(row) % parts` is `part`, in row order —
/// byte-compatible with the physical graph's FNV-1a `Partitioner::Hash`
/// and with the hash the join and group-by kernels bucket on. `coerce`
/// hashes `Int64` keys through their `f64` bit pattern (used for edges
/// into joins, where a mixed `Int64`/`Float64` key pair must co-locate).
pub fn partition_by_key(
    batch: &RecordBatch,
    key: &str,
    part: usize,
    parts: usize,
    coerce: bool,
) -> Result<RecordBatch, SqlError> {
    let col = batch.column_by_name(key).map_err(wrap)?;
    let parts = parts.max(1) as u64;
    let idx: Vec<usize> = compute::hash_key_column(col, coerce)
        .iter()
        .enumerate()
        .filter(|&(_, &h)| h % parts == part as u64)
        .map(|(r, _)| r)
        .collect();
    compute::take_indices(batch, &idx).map_err(wrap)
}

/// Part `part` of `parts` contiguous even slices of `batch` (scatter
/// edges): rows `[part*n/parts, (part+1)*n/parts)`.
pub fn split_even(batch: &RecordBatch, part: usize, parts: usize) -> Result<RecordBatch, SqlError> {
    let n = batch.num_rows();
    let parts = parts.max(1);
    let idx: Vec<usize> = (part * n / parts..(part + 1) * n / parts).collect();
    compute::take_indices(batch, &idx).map_err(wrap)
}

/// Concatenates input batches (producer shard order) and puts the result
/// into canonical order.
///
/// One part is neither copied nor re-sorted. It comes from one producer
/// shard, which emits either canonical order (scan, filter, project,
/// join and aggregate outputs are canonical by construction) or a stable
/// sort of canonical rows by the query's order key (sort and limit
/// outputs). Every consumer of the latter stably re-sorts by that same
/// key, and a stable sort of canonicalized rows reproduces the
/// producer's order, so canonicalizing first could not change the
/// consumer's output. Its dictionary columns are still re-keyed the way
/// a concatenation re-keys them, so what a shard emits — and the payload
/// bytes the simulator prices — does not depend on the part count.
fn gather(parts: &[RecordBatch]) -> Result<RecordBatch, SqlError> {
    match parts {
        [] => Err(SqlError::Plan("operator shard received no input".into())),
        [one] => {
            let columns = one
                .columns()
                .iter()
                .map(|c| match c {
                    Array::DictUtf8(d) => Array::DictUtf8(DictUtf8Array::concat(&[d])),
                    other => other.clone(),
                })
                .collect();
            RecordBatch::try_new(one.schema().clone(), columns).map_err(wrap)
        }
        _ => canonicalize(&RecordBatch::concat(parts).map_err(wrap)?),
    }
}

/// Canonical order: stable sort by `__rid`, then (stable) by `__gkey`,
/// making the group key primary where both exist. Batches with neither
/// column pass through unchanged.
fn canonicalize(batch: &RecordBatch) -> Result<RecordBatch, SqlError> {
    let mut out = batch.clone();
    if out.schema().index_of(RID).is_ok() {
        out = sort_by(&out, RID, false)?;
    }
    if out.schema().index_of(GKEY).is_ok() {
        out = sort_by(&out, GKEY, false)?;
    }
    Ok(out)
}

/// Drops the hidden columns (the sink does this before delivering).
fn strip_hidden(batch: &RecordBatch) -> Result<RecordBatch, SqlError> {
    let keep: Vec<&str> = batch
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .filter(|n| !is_hidden(n))
        .collect();
    batch.project(&keep).map_err(wrap)
}

fn truncate(batch: &RecordBatch, n: usize) -> Result<RecordBatch, SqlError> {
    let keep: Vec<usize> = (0..n.min(batch.num_rows())).collect();
    compute::take_indices(batch, &keep).map_err(wrap)
}

fn append_column(batch: &RecordBatch, field: Field, col: Array) -> Result<RecordBatch, SqlError> {
    let mut fields = batch.schema().fields().to_vec();
    fields.push(field);
    let mut cols = batch.columns().to_vec();
    cols.push(col);
    RecordBatch::try_new(Schema::new(fields), cols).map_err(wrap)
}

/// Shard `shard` of a base-table scan: the contiguous row range
/// `[shard*n/shards, (shard+1)*n/shards)` plus its `__rid` column. A
/// single shard takes the whole table as an O(1) clone.
///
/// Tables arrive scan-ready: [`MemDb::tables`](crate::exec::MemDb::tables)
/// dictionary-encodes eligible `Utf8` columns once per database, so every
/// shard agrees on the column types, slices share the table-level
/// dictionary, and every downstream shuffle ships keys instead of string
/// bytes. The Collect sink decodes, so results are plain columns.
fn scan_shard(table: &RecordBatch, shard: u32, shards: u32) -> Result<RecordBatch, SqlError> {
    let n = table.num_rows() as u64;
    let shards = shards.max(1) as u64;
    let lo = (shard as u64 * n / shards) as usize;
    let hi = ((shard as u64 + 1) * n / shards) as usize;
    let slice = if lo == 0 && hi == table.num_rows() {
        table.clone()
    } else {
        let idx: Vec<usize> = (lo..hi).collect();
        compute::take_indices(table, &idx).map_err(wrap)?
    };
    let rid = Array::from_i64((lo..hi).map(|r| r as i64).collect());
    append_column(&slice, Field::new(RID, DataType::Int64, true), rid)
}

/// Projection keeps the hidden columns alongside the requested ones.
fn project_shard(input: &RecordBatch, columns: &[String]) -> Result<RecordBatch, SqlError> {
    let mut keep: Vec<&str> = columns.iter().map(String::as_str).collect();
    for h in [RID, GKEY] {
        if input.schema().index_of(h).is_ok() && !keep.contains(&h) {
            keep.push(h);
        }
    }
    input.project(&keep).map_err(wrap)
}

fn rid_values(batch: &RecordBatch) -> Result<Vec<i64>, SqlError> {
    let col = batch.column_by_name(RID).map_err(wrap)?;
    let a = col.as_i64().map_err(wrap)?;
    Ok((0..a.len()).map(|r| a.get(r).unwrap_or(0)).collect())
}

/// One shard of a hash join. Both sides are gathered into canonical
/// (row-id) order so the probe order matches the single-shard join's,
/// restricted to the keys hashed to this shard. The output row id is
/// `left_rid * right_table_rows + right_rid`, which orders join outputs
/// exactly like the single-shard join's probe-order emission.
///
/// # Adaptive build-side swap
///
/// With `adaptive` on and the gathered build side more than
/// [`SWAP_BUILD_MULTIPLE`]× larger than the probe side, the kernel runs
/// with the roles reversed (build on the smaller left side, probe the
/// right) and the match pairs are transposed back. The inner-join pair
/// *set* is symmetric, and the static path's emission order — probe rows
/// ascending, build chains ascending — is exactly ascending row-id order
/// (both inputs are rid-canonical and the rid encoding is lexicographic
/// in `(left_rid, right_rid)`), so a stable sort of the swapped output by
/// row id reproduces the static output byte for byte.
fn join_shard(
    port0: &[RecordBatch],
    port1: &[RecordBatch],
    left_key: &str,
    right_key: &str,
    right_rows: u64,
    adaptive: bool,
    stats: &mut ShardStats,
) -> Result<RecordBatch, SqlError> {
    let left = gather(port0)?;
    let right = gather(port1)?;
    let l_rid = rid_values(&left)?;
    let r_rid = rid_values(&right)?;
    let left_vis = strip_hidden(&left)?;
    let right_vis = strip_hidden(&right)?;
    let swap = adaptive && right_vis.num_rows() > SWAP_BUILD_MULTIPLE * left_vis.num_rows();
    let (lrows, rrows) = if swap {
        stats.build_swaps += 1;
        let (probe, build) =
            parallel::join_rows(&right_vis, &left_vis, right_key, left_key, stats)?;
        (build, probe)
    } else {
        parallel::join_rows(&left_vis, &right_vis, left_key, right_key, stats)?
    };
    let stride = (right_rows as i64).max(1);
    let mut rid: Vec<i64> = lrows
        .iter()
        .zip(&rrows)
        .map(|(&l, &r)| l_rid[l].wrapping_mul(stride).wrapping_add(r_rid[r]))
        .collect();
    let mut out = exec::assemble_join(&left_vis, &right_vis, right_key, lrows, rrows)?;
    if swap {
        let mut order: Vec<usize> = (0..rid.len()).collect();
        order.sort_by_key(|&i| rid[i]);
        out = compute::take_indices(&out, &order).map_err(wrap)?;
        rid = order.iter().map(|&i| rid[i]).collect();
    }
    append_column(
        &out,
        Field::new(RID, DataType::Int64, true),
        Array::from_i64(rid),
    )
}

/// One shard of an aggregation. The gathered input is in row-id order,
/// so per-group folds run in exactly the single-shard row order. Two
/// extra output columns ride along: `min(__rid)` per group (a
/// deterministic tiebreak, and the canonical secondary sort key) and the
/// rendered `__gkey` (the canonical primary sort key — the aggregate's
/// group output order), reusing the keys the kernel rendered to order
/// its groups.
fn aggregate_shard(
    input: &RecordBatch,
    group_by: &[String],
    aggs: &[ExecAgg],
    stats: &mut ShardStats,
) -> Result<RecordBatch, SqlError> {
    let out = parallel::aggregate(group_by, aggs, input, stats)?;
    // Row ids ascend down the input, so a group's first row holds its
    // smallest id. A global aggregate of nothing has none.
    let min_rid = if input.num_rows() == 0 {
        Array::from_opt_i64(vec![None; out.batch.num_rows()])
    } else {
        input
            .column_by_name(RID)
            .map_err(wrap)?
            .take_rows(&out.first_rows)
    };
    let with_rid = append_column(&out.batch, Field::new(RID, DataType::Int64, true), min_rid)?;
    append_column(
        &with_rid,
        Field::new(GKEY, DataType::Utf8, false),
        Array::from_utf8(&out.keys),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use skadi_arrow::array::Value;
    use skadi_flowgraph::{ExecCompare, ExecLiteral, Partitioner};

    fn table() -> RecordBatch {
        RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("v", DataType::Float64, true),
            ]),
            vec![
                Array::from_i64(vec![3, 1, 2, 1, 3, 2, 1, 4]),
                Array::from_opt_f64(vec![
                    Some(1.0),
                    Some(2.0),
                    None,
                    Some(4.0),
                    Some(5.0),
                    Some(6.0),
                    Some(7.0),
                    Some(8.0),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scan_shards_cover_table_contiguously() {
        let t = table();
        let tables = BTreeMap::from([("t".to_string(), t.clone())]);
        let op = ExecOp::Scan { table: "t".into() };
        let mut total = 0;
        let mut next_rid = 0i64;
        for s in 0..3 {
            let out = execute_shard(&op, &tables, s, 3, &[], &[], false)
                .unwrap()
                .0;
            total += out.num_rows();
            let rid = out.column_by_name(RID).unwrap();
            for r in 0..out.num_rows() {
                assert_eq!(rid.value_at(r), Value::I64(next_rid));
                next_rid += 1;
            }
        }
        assert_eq!(total, t.num_rows());
    }

    #[test]
    fn fused_filter_chain_reports_one_shard_record() {
        // filter -> filter -> project in one fused chain, fed two port-0
        // parts: 8 rows in, v > 4.5 keeps 4, k >= 3 keeps 2.
        let tables = BTreeMap::from([("t".to_string(), table())]);
        let (scan, _) = execute_shard(
            &ExecOp::Scan { table: "t".into() },
            &tables,
            0,
            1,
            &[],
            &[],
            false,
        )
        .unwrap();
        let port0: Vec<RecordBatch> = (0..2).map(|p| split_even(&scan, p, 2).unwrap()).collect();
        let filter = |column: &str, op: &str, value: ExecLiteral| ExecOp::Filter {
            conjuncts: vec![ExecCompare {
                column: column.into(),
                op: op.into(),
                value,
            }],
        };
        let op = ExecOp::Fused(vec![
            filter("v", ">", ExecLiteral::Float(4.5)),
            filter("k", ">=", ExecLiteral::Int(3)),
            ExecOp::Project {
                columns: vec!["k".into()],
            },
        ]);
        let (out, stats) = execute_shard(&op, &tables, 0, 1, &port0, &[], false).unwrap();
        assert_eq!(out.column_by_name("k").unwrap().value_at(0), Value::I64(3));
        assert_eq!(out.column_by_name("k").unwrap().value_at(1), Value::I64(4));
        assert_eq!(stats.rows_in, 8);
        assert_eq!(stats.rows_out, 2);
        assert_eq!(stats.selectivity, Some(2.0 / 8.0));
        assert_eq!(stats.build_swaps, 0);
        assert_eq!((stats.hash_slots, stats.groups), (0, 0));
        assert_eq!(stats.output_bytes, 0, "the caller sets the output size");
    }

    #[test]
    fn partition_matches_physical_partitioner_on_int_keys() {
        // The shuffle the physical graph prices (FNV-1a over hash_row key
        // bytes) and the shuffle the data plane performs must agree.
        let t = table();
        let parts = 4;
        let split: Vec<RecordBatch> = (0..parts)
            .map(|part| partition_by_key(&t, "k", part, parts, false).unwrap())
            .collect();
        let p = Partitioner::Hash;
        let keys = t.column(0).as_i64().unwrap();
        let mut want = vec![0usize; parts];
        for r in 0..t.num_rows() {
            // hash_row's Int64 key-byte encoding.
            let key = keys.get(r).unwrap().to_le_bytes();
            want[p.assign(&key, r as u64, parts as u32) as usize] += 1;
        }
        let got: Vec<usize> = split.iter().map(|b| b.num_rows()).collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().sum::<usize>(), t.num_rows());
    }

    #[test]
    fn canonicalize_restores_row_order_after_shuffle() {
        let t = table();
        let tables = BTreeMap::from([("t".to_string(), t.clone())]);
        let op = ExecOp::Scan { table: "t".into() };
        let a = execute_shard(&op, &tables, 0, 2, &[], &[], false)
            .unwrap()
            .0;
        let b = execute_shard(&op, &tables, 1, 2, &[], &[], false)
            .unwrap()
            .0;
        // Re-partition by key, then gather everything back: canonical
        // order equals the original scan order.
        let parts: Vec<RecordBatch> = [&a, &b]
            .iter()
            .flat_map(|scan| {
                (0..2).map(|part| partition_by_key(scan, "k", part, 2, false).unwrap())
            })
            .collect();
        let back = gather(&parts).unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        for r in 0..t.num_rows() {
            assert_eq!(
                back.column_by_name(RID).unwrap().value_at(r),
                Value::I64(r as i64)
            );
            assert_eq!(
                back.column_by_name("k").unwrap().value_at(r),
                t.column(0).value_at(r)
            );
        }
    }

    #[test]
    fn one_part_gather_emits_what_a_merge_would() {
        // Shard 1 of 2 scans "c", "b", "c" against the table-level
        // dictionary [a, b, c]; keeping rows 0 and 2 leaves two entries
        // unused. The gathered part must be re-keyed byte for byte as a
        // concatenation would re-key it.
        let t = RecordBatch::try_new(
            Schema::new(vec![Field::new("s", DataType::Utf8, false)]),
            vec![Array::from_utf8(&["a", "b", "a", "c", "b", "c"])],
        )
        .unwrap()
        .dict_encoded();
        let tables = BTreeMap::from([("t".to_string(), t)]);
        let scan = execute_shard(
            &ExecOp::Scan { table: "t".into() },
            &tables,
            1,
            2,
            &[],
            &[],
            false,
        )
        .unwrap()
        .0;
        let part = compute::take_indices(&scan, &[0, 2]).unwrap();
        let merged =
            canonicalize(&RecordBatch::concat(std::slice::from_ref(&part)).unwrap()).unwrap();
        let gathered = gather(&[part]).unwrap();
        assert_eq!(
            skadi_arrow::ipc::encode(&gathered).as_slice(),
            skadi_arrow::ipc::encode(&merged).as_slice()
        );
    }

    #[test]
    fn adaptive_join_swap_is_byte_identical() {
        // Small probe side, large skewed build side (with null keys):
        // adaptive execution builds on the probe side, yet every shard
        // must emit bytes identical to the static plan.
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("a", DataType::Int64, false),
            ]),
            vec![
                Array::from_opt_i64(vec![Some(1), Some(2), None, Some(3)]),
                Array::from_i64(vec![10, 20, 25, 30]),
            ],
        )
        .unwrap();
        let rkeys: Vec<Option<i64>> = (0..24i64)
            .map(|i| if i % 7 == 0 { None } else { Some(i % 3 + 1) })
            .collect();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("b", DataType::Int64, false),
            ]),
            vec![
                Array::from_opt_i64(rkeys),
                Array::from_i64((0..24i64).map(|i| i * 100).collect()),
            ],
        )
        .unwrap();
        let tables = BTreeMap::from([("l".to_string(), left), ("r".to_string(), right)]);
        let lscan = execute_shard(
            &ExecOp::Scan { table: "l".into() },
            &tables,
            0,
            1,
            &[],
            &[],
            false,
        )
        .unwrap()
        .0;
        let rscan = execute_shard(
            &ExecOp::Scan { table: "r".into() },
            &tables,
            0,
            1,
            &[],
            &[],
            false,
        )
        .unwrap()
        .0;
        let op = ExecOp::Join {
            left_key: "k".into(),
            right_key: "k".into(),
            right_rows: 24,
        };
        let mut swaps = 0;
        let mut matched = 0;
        for shard in 0..2u32 {
            let port0 = vec![partition_by_key(&lscan, "k", shard as usize, 2, true).unwrap()];
            let port1 = vec![partition_by_key(&rscan, "k", shard as usize, 2, true).unwrap()];
            let (fixed, st) = execute_shard(&op, &tables, shard, 2, &port0, &port1, false).unwrap();
            assert_eq!(st.build_swaps, 0);
            let (swapped, ad) =
                execute_shard(&op, &tables, shard, 2, &port0, &port1, true).unwrap();
            assert_eq!(fixed, swapped);
            swaps += ad.build_swaps;
            matched += fixed.num_rows();
        }
        assert!(swaps >= 1, "the skewed shard should have swapped");
        // Null keys never match; every non-null left key matches 7 or 8
        // duplicated right rows.
        assert!(matched > 0);
    }

    #[test]
    fn run_graph_releases_outputs_and_returns_the_sink() {
        let tables = BTreeMap::from([("t".to_string(), table())]);
        let mut g = FlowGraph::new();
        let scan = g.add_source("t", 8, 128);
        g.set_exec(scan, ExecOp::Scan { table: "t".into() });
        let sink = g.add_sink("result");
        g.set_exec(
            sink,
            ExecOp::Collect {
                order_by: Some(("v".into(), true)),
                limit: Some(2),
            },
        );
        g.connect(scan, sink).unwrap();
        let mut seen = Vec::new();
        let run = run_graph(&g, &tables, |v, b| seen.push((v, b.num_rows()))).unwrap();
        assert_eq!(seen, vec![(scan, 8), (sink, 2)]);
        assert_eq!(run.output.column(1).value_at(0), Value::F64(8.0));
        assert_eq!(run.vertices[&sink].rows_in, 8);
        assert_eq!(run.vertices[&scan].rows_out, 8);
        assert!(!is_hidden(&run.output.schema().field(0).name));

        let bad = BTreeMap::from([(
            "t".to_string(),
            RecordBatch::try_new(
                Schema::new(vec![Field::new("__x", DataType::Int64, false)]),
                vec![Array::from_i64(vec![1])],
            )
            .unwrap(),
        )]);
        let err = run_graph(&g, &bad, |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn split_even_is_contiguous_and_total() {
        let t = table();
        let parts: Vec<RecordBatch> = (0..3)
            .map(|part| split_even(&t, part, 3).unwrap())
            .collect();
        assert_eq!(parts.iter().map(|b| b.num_rows()).sum::<usize>(), 8);
        assert_eq!(parts[0].column(0).value_at(0), Value::I64(3));
    }
}
