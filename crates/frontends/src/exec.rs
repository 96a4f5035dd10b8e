//! Local SQL execution: the in-memory database and the vectorized
//! kernels every SQL path runs on.
//!
//! [`MemDb`] computes real answers over in-memory [`RecordBatch`]es. A
//! query is planned, optimized and lowered exactly like a distributed
//! one, at parallelism 1, and then runs in-process through the shard
//! interpreter ([`shard::run_graph`]) — the same operator code the
//! distributed data plane runs per task. Its per-operator profile comes
//! from the same builder too ([`QueryProfile::from_graph`]).
//!
//! Supported: projection, WHERE conjunctions, equi-joins, GROUP BY with
//! `sum`/`count`/`min`/`max`/`avg`, ORDER BY, LIMIT.
//!
//! The kernels are vectorized: WHERE conjuncts fuse into a single
//! boolean mask ([`compute::and`]) applied once; joins and group-bys key
//! on FNV-1a hashes of the raw column bytes with a typed equality check
//! on collision — no per-row `String` rendering anywhere on the join or
//! group-by key path.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use skadi_arrow::array::{Array, Value};
use skadi_arrow::batch::RecordBatch;
use skadi_arrow::compute::{self, CmpOp};
use skadi_arrow::datatype::DataType;
use skadi_arrow::schema::{Field, Schema};
use skadi_flowgraph::lower::{lower_graph, LowerConfig};
use skadi_flowgraph::optimize::optimize_graph;
use skadi_flowgraph::profile::{QueryProfile, ShardStats, DEFAULT_SKEW_MULTIPLE};
use skadi_ir::BackendPolicy;

use skadi_flowgraph::{ExecAgg, ExecCompare, ExecLiteral};

use crate::catalog::{Catalog, TableDef};
use crate::shard;
use crate::sql::ast::Query;
use crate::sql::SqlError;
use skadi_ir::types::ScalarType;

pub mod parallel;
pub mod pool;

/// An in-memory database: named tables of record batches.
#[derive(Debug, Clone, Default)]
pub struct MemDb {
    /// The tables as registered; the catalog and [`MemDb::table`] read
    /// these.
    tables: BTreeMap<String, RecordBatch>,
    /// The same tables, scan-ready: built on first use, shared by clones.
    scan: Arc<OnceLock<BTreeMap<String, RecordBatch>>>,
}

impl MemDb {
    /// An empty database.
    pub fn new() -> Self {
        MemDb::default()
    }

    /// Registers a table.
    pub fn register(mut self, name: &str, batch: RecordBatch) -> Self {
        self.tables.insert(name.to_string(), batch);
        self.scan = Arc::default();
        self
    }

    /// Looks up a table as registered.
    pub fn table(&self, name: &str) -> Result<&RecordBatch, SqlError> {
        self.tables
            .get(name)
            .ok_or_else(|| SqlError::Plan(format!("unknown table {name:?}")))
    }

    /// All registered tables, by name, scan-ready: eligible `Utf8`
    /// columns are dictionary-encoded once per database, on first use,
    /// and clones of the database share the result. Every shard of every
    /// query — local or distributed — scans these. Results decode at the
    /// output boundary, so answers equal those over the plain tables.
    pub fn tables(&self) -> &BTreeMap<String, RecordBatch> {
        self.scan.get_or_init(|| {
            self.tables
                .iter()
                .map(|(name, batch)| (name.clone(), batch.dict_encoded()))
                .collect()
        })
    }

    /// Parses and executes a query, returning the result batch.
    pub fn query(&self, sql: &str) -> Result<RecordBatch, SqlError> {
        self.run(sql).map(|(batch, _)| batch)
    }

    /// Like [`MemDb::query`], but also returns the per-operator
    /// [`QueryProfile`] of the parallelism-1 plan. Accepts the query with
    /// or without an `EXPLAIN ANALYZE` prefix. The profile's
    /// deterministic portion (everything except wall time) is a pure
    /// function of the query and the data.
    pub fn query_profiled(&self, sql: &str) -> Result<(RecordBatch, QueryProfile), SqlError> {
        self.run(crate::sql::strip_explain_analyze(sql).unwrap_or(sql))
    }

    /// Executes `EXPLAIN ANALYZE <query>` (prefix optional) and renders
    /// the annotated plan tree with measured wall times.
    pub fn explain_analyze(&self, sql: &str) -> Result<String, SqlError> {
        let (_, profile) = self.query_profiled(sql)?;
        Ok(profile.render(true))
    }

    /// Plans, optimizes and lowers `sql` at parallelism 1, runs the plan
    /// in-process through the shard interpreter, and profiles the run
    /// against the lowered graph.
    fn run(&self, sql: &str) -> Result<(RecordBatch, QueryProfile), SqlError> {
        let (mut graph, _sink) = crate::sql::plan_sql(sql, &self.catalog())?;
        optimize_graph(&mut graph);
        let phys = lower_graph(&graph, &LowerConfig::new(1, BackendPolicy::cost_based()))
            .map_err(|e| SqlError::Plan(format!("lowering: {e}")))?;
        let run = shard::run_graph(&graph, self.tables(), |_, _| {})?;
        let shards = phys
            .vertices()
            .iter()
            .filter_map(|v| Some((v.id.0, run.vertices.get(&v.logical)?.clone())))
            .collect();
        let profile = QueryProfile::from_graph(&phys, sql, 1, DEFAULT_SKEW_MULTIPLE, &shards);
        Ok((run.output, profile))
    }

    /// Derives a planner [`Catalog`] from the registered tables: schemas
    /// from the batches, cardinalities from their actual row counts and
    /// byte sizes — so the same database drives both real execution and
    /// simulated distributed execution.
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for (name, batch) in &self.tables {
            let columns: Vec<(String, ScalarType)> = batch
                .schema()
                .fields()
                .iter()
                .map(|f| {
                    let t = match f.data_type {
                        DataType::Int64 => ScalarType::I64,
                        DataType::Float64 => ScalarType::F64,
                        DataType::Bool => ScalarType::Bool,
                        DataType::Utf8 | DataType::DictUtf8 => ScalarType::Str,
                    };
                    (f.name.clone(), t)
                })
                .collect();
            c = c.table(
                name,
                TableDef {
                    columns,
                    rows: batch.num_rows() as u64,
                    bytes: batch.byte_size() as u64,
                },
            );
        }
        c
    }
}

pub(crate) fn wrap(e: skadi_arrow::error::ArrowError) -> SqlError {
    SqlError::Plan(format!("execution: {e}"))
}

fn literal_value(lit: &ExecLiteral) -> Value {
    match lit {
        ExecLiteral::Int(v) => Value::I64(*v),
        ExecLiteral::Float(v) => Value::F64(*v),
        ExecLiteral::Str(s) => Value::Str(s.clone()),
    }
}

fn cmp_op(op: &str) -> Result<CmpOp, SqlError> {
    Ok(match op {
        "=" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        other => return Err(SqlError::Plan(format!("unsupported operator {other:?}"))),
    })
}

/// Applies a conjunction of comparisons as ONE filter: the conjuncts
/// fuse into a single boolean mask ([`parallel::conjunct_mask`]) and the
/// batch is gathered once — instead of materializing an intermediate
/// batch per conjunct.
pub(crate) fn apply_conjuncts(
    batch: &RecordBatch,
    conjuncts: &[ExecCompare],
) -> Result<RecordBatch, SqlError> {
    match parallel::conjunct_mask(batch, conjuncts)? {
        Some(m) => {
            let idx = compute::mask_to_indices(&m).map_err(wrap)?;
            parallel::take_batch(batch, idx).map_err(wrap)
        }
        None => Ok(batch.clone()),
    }
}

/// Typed key equality for join collision checks. Floats compare by bit
/// pattern (so NaN keys self-join and `-0.0` stays distinct from `0.0`,
/// matching the old rendered-key semantics); a mixed `Int64`/`Float64`
/// pair compares *exactly* via [`compute::i64_f64_key_eq`] — no lossy
/// `i64 -> f64` cast, so distinct integers above 2^53 never collide.
/// Dictionary and plain string keys compare by resolved value. Null keys
/// never join. Other cross-type pairs are unequal.
fn join_key_eq(l: &Array, li: usize, r: &Array, ri: usize) -> bool {
    match (l, r) {
        (Array::Int64(a), Array::Int64(b)) => {
            matches!((a.get(li), b.get(ri)), (Some(x), Some(y)) if x == y)
        }
        (Array::Float64(a), Array::Float64(b)) => {
            matches!((a.get(li), b.get(ri)), (Some(x), Some(y)) if x.to_bits() == y.to_bits())
        }
        (Array::Int64(a), Array::Float64(b)) => {
            matches!(
                (a.get(li), b.get(ri)),
                (Some(x), Some(y)) if compute::i64_f64_key_eq(x, y)
            )
        }
        (Array::Float64(a), Array::Int64(b)) => {
            matches!(
                (a.get(li), b.get(ri)),
                (Some(x), Some(y)) if compute::i64_f64_key_eq(y, x)
            )
        }
        (Array::Bool(a), Array::Bool(b)) => {
            matches!((a.get(li), b.get(ri)), (Some(x), Some(y)) if x == y)
        }
        (Array::Utf8(a), Array::Utf8(b)) => {
            matches!((a.get(li), b.get(ri)), (Some(x), Some(y)) if x == y)
        }
        (Array::DictUtf8(a), Array::DictUtf8(b)) => {
            matches!((a.get(li), b.get(ri)), (Some(x), Some(y)) if x == y)
        }
        (Array::DictUtf8(a), Array::Utf8(b)) => {
            matches!((a.get(li), b.get(ri)), (Some(x), Some(y)) if x == y)
        }
        (Array::Utf8(a), Array::DictUtf8(b)) => {
            matches!((a.get(li), b.get(ri)), (Some(x), Some(y)) if x == y)
        }
        _ => false,
    }
}

/// Folds the high hash bits down before masking to a table bucket, so
/// power-of-two tables see entropy from the whole 64-bit FNV hash.
#[inline]
fn fold_hash(h: u64) -> u64 {
    h ^ (h >> 32)
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Hash equi-join (inner). Right-side key column is dropped from the
/// output; other right columns are appended. Rows pair up in probe
/// order; null keys match nothing (see [`parallel::join_rows`]).
pub fn hash_join(
    left: &RecordBatch,
    right: &RecordBatch,
    left_key: &str,
    right_key: &str,
) -> Result<RecordBatch, SqlError> {
    let (left_rows, right_rows) =
        parallel::join_rows(left, right, left_key, right_key, &mut ShardStats::default())?;
    assemble_join(left, right, right_key, left_rows, right_rows)
}

/// Gathers matched pairs into the join's output batch: all left columns,
/// then right columns except the key and any name collisions.
pub(crate) fn assemble_join(
    left: &RecordBatch,
    right: &RecordBatch,
    right_key: &str,
    left_rows: Vec<usize>,
    right_rows: Vec<usize>,
) -> Result<RecordBatch, SqlError> {
    let rk = right.schema().index_of(right_key).map_err(wrap)?;
    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    let mut right_cols: Vec<usize> = Vec::new();
    for (i, f) in right.schema().fields().iter().enumerate() {
        if i == rk || fields.iter().any(|lf| lf.name == f.name) {
            continue;
        }
        fields.push(f.clone());
        right_cols.push(i);
    }

    let columns = parallel::gather_join_columns(left, right, &right_cols, left_rows, right_rows);
    RecordBatch::try_new(Schema::new(fields), columns).map_err(wrap)
}

/// Typed equality of two rows across the group-key columns. Floats
/// compare by bit pattern; within a group column, null equals null (SQL
/// GROUP BY puts all nulls in one group).
fn group_key_eq(batch: &RecordBatch, cols: &[usize], a: usize, b: usize) -> bool {
    cols.iter().all(|&c| match batch.column(c) {
        Array::Int64(arr) => arr.get(a) == arr.get(b),
        Array::Float64(arr) => match (arr.get(a), arr.get(b)) {
            (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
            (None, None) => true,
            _ => false,
        },
        Array::Bool(arr) => arr.get(a) == arr.get(b),
        Array::Utf8(arr) => arr.get(a) == arr.get(b),
        Array::DictUtf8(arr) => arr.get(a) == arr.get(b),
    })
}

/// One resolved aggregate: which accumulator runs over which column.
/// Integer sums/mins/maxes stay `Int64`; `count` is `Int64`; everything
/// else (including `avg`) is `Float64`. Non-numeric inputs to
/// `sum`/`min`/`max`/`avg` yield an all-null `Float64` column.
enum AggKind {
    CountStar,
    Count(usize),
    SumI64(usize),
    MinI64(usize),
    MaxI64(usize),
    SumF64(usize),
    MinF64(usize),
    MaxF64(usize),
    Avg(usize),
    NonNumeric,
}

impl AggKind {
    fn data_type(&self) -> DataType {
        match self {
            AggKind::CountStar
            | AggKind::Count(_)
            | AggKind::SumI64(_)
            | AggKind::MinI64(_)
            | AggKind::MaxI64(_) => DataType::Int64,
            _ => DataType::Float64,
        }
    }
}

fn resolve_agg(agg: &ExecAgg, input: &RecordBatch) -> Result<AggKind, SqlError> {
    let (func, column) = (agg.func.as_str(), agg.column.as_str());
    if func == "count" {
        if column == "*" {
            return Ok(AggKind::CountStar);
        }
        return Ok(AggKind::Count(
            input.schema().index_of(column).map_err(wrap)?,
        ));
    }
    let c = input.schema().index_of(column).map_err(wrap)?;
    Ok(match (func, input.column(c).data_type()) {
        ("sum", DataType::Int64) => AggKind::SumI64(c),
        ("min", DataType::Int64) => AggKind::MinI64(c),
        ("max", DataType::Int64) => AggKind::MaxI64(c),
        ("sum", DataType::Float64) => AggKind::SumF64(c),
        ("min", DataType::Float64) => AggKind::MinF64(c),
        ("max", DataType::Float64) => AggKind::MaxF64(c),
        ("avg", DataType::Int64 | DataType::Float64) => AggKind::Avg(c),
        ("sum" | "min" | "max" | "avg", _) => AggKind::NonNumeric,
        (other, _) => return Err(SqlError::Plan(format!("unsupported aggregate {other:?}"))),
    })
}

/// Grouped aggregation of `input` by the query's GROUP BY, computing
/// its SELECT-list aggregates (see [`parallel::aggregate`]).
pub fn aggregate(q: &Query, input: &RecordBatch) -> Result<RecordBatch, SqlError> {
    let aggs = crate::sql::planner::exec_aggs(q);
    Ok(parallel::aggregate(&q.group_by, &aggs, input, &mut ShardStats::default())?.batch)
}

/// An aggregation's output, with per-output-row detail for shard
/// bookkeeping.
pub(crate) struct Aggregated {
    /// Group columns, then one column per aggregate.
    pub(crate) batch: RecordBatch,
    /// The rendered group key each row is ordered by (`""` for a global
    /// aggregate).
    pub(crate) keys: Vec<String>,
    /// The first input row of each row's group (row 0 for a global
    /// aggregate, even over an empty input).
    pub(crate) first_rows: Vec<usize>,
}

/// Stably sorts by one column (via the shared sort keys; NULLs sort
/// lowest). Rows already in order come back as they are: the check is
/// one pass over the keys the sort extracts anyway.
pub(crate) fn sort_by(
    batch: &RecordBatch,
    column: &str,
    descending: bool,
) -> Result<RecordBatch, SqlError> {
    let col = batch.column_by_name(column).map_err(wrap)?;
    let order = if descending {
        compute::SortOrder::Descending
    } else {
        compute::SortOrder::Ascending
    };
    let keys = compute::SortKeys::new(col);
    if keys.is_sorted(order) {
        return Ok(batch.clone());
    }
    let perm = parallel::sort_permutation(keys, order);
    parallel::take_batch(batch, perm).map_err(wrap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> MemDb {
        let events = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("user_id", DataType::Int64, false),
                Field::new("kind", DataType::Utf8, false),
                Field::new("value", DataType::Float64, true),
            ]),
            vec![
                Array::from_i64(vec![1, 1, 2, 2, 3, 3]),
                Array::from_utf8(&["click", "view", "click", "click", "view", "click"]),
                Array::from_opt_f64(vec![
                    Some(1.0),
                    Some(2.0),
                    Some(3.0),
                    None,
                    Some(5.0),
                    Some(6.0),
                ]),
            ],
        )
        .unwrap();
        let users = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("user_id", DataType::Int64, false),
                Field::new("country", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_utf8(&["DE", "US", "DE"]),
            ],
        )
        .unwrap();
        MemDb::new()
            .register("events", events)
            .register("users", users)
    }

    #[test]
    fn filter_and_project() {
        let out = db()
            .query("SELECT user_id FROM events WHERE kind = 'click'")
            .unwrap();
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.num_columns(), 1);
        assert_eq!(out.column(0).value_at(0), Value::I64(1));
    }

    #[test]
    fn conjunction() {
        let out = db()
            .query("SELECT user_id FROM events WHERE kind = 'click' AND value > 2")
            .unwrap();
        // click rows with value > 2: (2, 3.0), (3, 6.0). Null drops.
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn global_aggregate() {
        let out = db().query("SELECT sum(value) FROM events").unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).value_at(0), Value::F64(17.0));
    }

    #[test]
    fn group_by_with_alias() {
        let out = db()
            .query("SELECT kind, sum(value) AS total, count(*) AS n FROM events GROUP BY kind")
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        // Rendered-key order: click before view.
        assert_eq!(
            out.column_by_name("kind").unwrap().value_at(0),
            Value::Str("click".into())
        );
        assert_eq!(
            out.column_by_name("total").unwrap().value_at(0),
            Value::F64(10.0)
        );
        assert_eq!(out.column_by_name("n").unwrap().value_at(0), Value::I64(4));
        assert_eq!(
            out.column_by_name("total").unwrap().value_at(1),
            Value::F64(7.0)
        );
    }

    #[test]
    fn count_skips_nulls_star_does_not() {
        let out = db()
            .query("SELECT count(value) AS vals, count(*) AS rows FROM events")
            .unwrap();
        assert_eq!(
            out.column_by_name("vals").unwrap().value_at(0),
            Value::I64(5)
        );
        assert_eq!(
            out.column_by_name("rows").unwrap().value_at(0),
            Value::I64(6)
        );
    }

    #[test]
    fn min_max_avg() {
        let out = db()
            .query("SELECT min(value) AS lo, max(value) AS hi, avg(value) AS mean FROM events")
            .unwrap();
        assert_eq!(
            out.column_by_name("lo").unwrap().value_at(0),
            Value::F64(1.0)
        );
        assert_eq!(
            out.column_by_name("hi").unwrap().value_at(0),
            Value::F64(6.0)
        );
        assert_eq!(
            out.column_by_name("mean").unwrap().value_at(0),
            Value::F64(3.4)
        );
    }

    #[test]
    fn int_aggregates_stay_int64() {
        let out = db()
            .query("SELECT sum(user_id) AS s, min(user_id) AS lo, max(user_id) AS hi FROM events")
            .unwrap();
        assert_eq!(out.column_by_name("s").unwrap().value_at(0), Value::I64(12));
        assert_eq!(out.column_by_name("lo").unwrap().value_at(0), Value::I64(1));
        assert_eq!(out.column_by_name("hi").unwrap().value_at(0), Value::I64(3));
        // avg over ints still floats.
        let out = db().query("SELECT avg(user_id) AS m FROM events").unwrap();
        assert_eq!(
            out.column_by_name("m").unwrap().value_at(0),
            Value::F64(2.0)
        );
    }

    #[test]
    fn global_aggregate_over_empty_input_is_one_row() {
        let out = db()
            .query("SELECT count(*) AS n, sum(value) AS s FROM events WHERE value > 100")
            .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column_by_name("n").unwrap().value_at(0), Value::I64(0));
        assert_eq!(out.column_by_name("s").unwrap().value_at(0), Value::Null);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        let out = db()
            .query("SELECT kind, count(*) AS n FROM events WHERE value > 100 GROUP BY kind")
            .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn join_enriches_rows() {
        let out = db()
            .query(
                "SELECT country, sum(value) AS total FROM events \
                 JOIN users ON user_id = user_id GROUP BY country",
            )
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        // DE: users 1 and 3 -> 1 + 2 + 5 + 6 = 14; US: user 2 -> 3.
        assert_eq!(
            out.column_by_name("country").unwrap().value_at(0),
            Value::Str("DE".into())
        );
        assert_eq!(
            out.column_by_name("total").unwrap().value_at(0),
            Value::F64(14.0)
        );
        assert_eq!(
            out.column_by_name("total").unwrap().value_at(1),
            Value::F64(3.0)
        );
    }

    #[test]
    fn join_skips_null_keys_and_expands_duplicates() {
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("l", DataType::Utf8, false),
            ]),
            vec![
                Array::from_opt_i64(vec![Some(1), None, Some(2), Some(1)]),
                Array::from_utf8(&["a", "b", "c", "d"]),
            ],
        )
        .unwrap();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, true),
                Field::new("r", DataType::Utf8, false),
            ]),
            vec![
                Array::from_opt_i64(vec![Some(1), Some(1), None]),
                Array::from_utf8(&["x", "y", "z"]),
            ],
        )
        .unwrap();
        let out = hash_join(&left, &right, "k", "k").unwrap();
        // Left rows 0 and 3 (k=1) each match right rows 0 and 1; nulls on
        // either side match nothing.
        assert_eq!(out.num_rows(), 4);
        assert_eq!(
            out.column_by_name("l").unwrap().value_at(0),
            Value::Str("a".into())
        );
        assert_eq!(
            out.column_by_name("r").unwrap().value_at(1),
            Value::Str("y".into())
        );
        assert_eq!(
            out.column_by_name("l").unwrap().value_at(2),
            Value::Str("d".into())
        );
    }

    #[test]
    fn join_mixed_int_float_keys() {
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("l", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_utf8(&["a", "b", "c"]),
            ],
        )
        .unwrap();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("fk", DataType::Float64, false),
                Field::new("r", DataType::Utf8, false),
            ]),
            vec![
                Array::from_f64(vec![2.0, 3.5, 1.0]),
                Array::from_utf8(&["x", "y", "z"]),
            ],
        )
        .unwrap();
        let out = hash_join(&left, &right, "k", "fk").unwrap();
        // 1 <-> 1.0 and 2 <-> 2.0 join; 3 vs 3.5 does not.
        assert_eq!(out.num_rows(), 2);
        assert_eq!(
            out.column_by_name("r").unwrap().value_at(0),
            Value::Str("z".into())
        );
        assert_eq!(
            out.column_by_name("r").unwrap().value_at(1),
            Value::Str("x".into())
        );
    }

    #[test]
    fn join_mixed_keys_exact_above_2_53() {
        // 2^53 is the last f64-exact integer: 2^53 + 1 as f64 rounds back
        // down to 2^53. The old coerced equality joined both left rows to
        // the float key; exact equality joins only the representable one.
        let big = 1i64 << 53;
        let left = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("k", DataType::Int64, false),
                Field::new("l", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64(vec![big, big + 1]),
                Array::from_utf8(&["exact", "offbyone"]),
            ],
        )
        .unwrap();
        let right = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("fk", DataType::Float64, false),
                Field::new("r", DataType::Utf8, false),
            ]),
            vec![Array::from_f64(vec![big as f64]), Array::from_utf8(&["f"])],
        )
        .unwrap();
        let out = hash_join(&left, &right, "k", "fk").unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(
            out.column_by_name("l").unwrap().value_at(0),
            Value::Str("exact".into())
        );
        // Same result with the sides flipped.
        let out = hash_join(&right, &left, "fk", "k").unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn dict_tables_compute_identical_results() {
        let plain = db();
        let mut dict = MemDb::new();
        for (name, batch) in plain.tables() {
            dict = dict.register(name, batch.dict_encoded());
        }
        // The events.kind column actually encoded (2 distinct over 6 rows).
        assert_eq!(
            dict.table("events")
                .unwrap()
                .column_by_name("kind")
                .unwrap()
                .data_type(),
            DataType::DictUtf8
        );
        for sql in [
            "SELECT user_id, kind FROM events WHERE kind = 'click'",
            "SELECT kind, sum(value) AS total, count(*) AS n FROM events GROUP BY kind",
            "SELECT country, sum(value) AS total FROM events \
             JOIN users ON user_id = user_id GROUP BY country",
            "SELECT kind FROM events ORDER BY kind DESC LIMIT 3",
            "SELECT min(kind) AS lo FROM events",
        ] {
            assert_eq!(plain.query(sql).unwrap(), dict.query(sql).unwrap(), "{sql}");
        }
    }

    #[test]
    fn order_and_limit() {
        let out = db()
            .query("SELECT user_id, value FROM events ORDER BY value DESC LIMIT 2")
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(
            out.column_by_name("value").unwrap().value_at(0),
            Value::F64(6.0)
        );
        assert_eq!(
            out.column_by_name("value").unwrap().value_at(1),
            Value::F64(5.0)
        );
    }

    #[test]
    fn order_by_string() {
        let out = db()
            .query("SELECT kind FROM events ORDER BY kind DESC LIMIT 1")
            .unwrap();
        assert_eq!(out.column(0).value_at(0), Value::Str("view".into()));
    }

    #[test]
    fn join_respects_filters() {
        let out = db()
            .query(
                "SELECT country FROM events JOIN users ON user_id = user_id \
                 WHERE kind = 'view'",
            )
            .unwrap();
        // Views: user 1 (DE) and user 3 (DE).
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        assert!(db().query("SELECT a FROM missing").is_err());
    }

    #[test]
    fn select_star_passthrough() {
        let out = db().query("SELECT * FROM users").unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 2);
    }
}

#[cfg(test)]
mod catalog_bridge_tests {
    use super::*;
    use skadi_arrow::array::Array;

    #[test]
    fn catalog_mirrors_registered_tables() {
        let batch = RecordBatch::try_new(
            Schema::new(vec![
                Field::new("id", DataType::Int64, false),
                Field::new("name", DataType::Utf8, false),
            ]),
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_utf8(&["a", "b", "c"]),
            ],
        )
        .unwrap();
        let db = MemDb::new().register("people", batch);
        let catalog = db.catalog();
        let def = catalog.get("people").expect("table derived");
        assert_eq!(def.rows, 3);
        assert!(def.bytes > 0);
        assert!(def.has_column("name"));
        // The derived catalog plans real statements.
        let (g, _) = crate::sql::plan_sql("SELECT id FROM people WHERE id > 1", &catalog).unwrap();
        g.validate().unwrap();
    }
}
