//! SQL planner: AST -> FlowGraph.
//!
//! The planner applies textbook rules — predicate pushdown below joins,
//! keyed (shuffle) edges for joins and aggregations — and annotates
//! vertices with cardinality estimates from the catalog so the physical
//! lowering can cost them.

use skadi_flowgraph::{ExecAgg, ExecCompare, ExecLiteral, ExecOp, FlowGraph, VertexId};

use super::ast::{Comparison, Expr, Literal, Query};
use super::SqlError;
use crate::catalog::Catalog;

/// Assumed selectivity of one predicate conjunct.
const CONJUNCT_SELECTIVITY: f64 = 0.4;
/// Assumed group-count reduction of an aggregation.
const AGG_REDUCTION: f64 = 0.01;

/// Relational operator names, shared between the planner's FlowGraph
/// vertices and the local engine's exec spans so a priced plan and a real
/// execution correlate by name.
pub mod ops {
    /// Base-table scan (planner: the source vertex named after the table).
    pub const SCAN: &str = "rel.scan";
    /// WHERE conjunction.
    pub const FILTER: &str = "rel.filter";
    /// Hash equi-join.
    pub const JOIN: &str = "rel.join";
    /// GROUP BY / global aggregation.
    pub const AGGREGATE: &str = "rel.aggregate";
    /// Column projection.
    pub const PROJECT: &str = "rel.project";
    /// ORDER BY.
    pub const SORT: &str = "rel.sort";
    /// LIMIT.
    pub const LIMIT: &str = "rel.limit";
}

fn exec_literal(l: &Literal) -> ExecLiteral {
    match l {
        Literal::Int(v) => ExecLiteral::Int(*v),
        Literal::Float(v) => ExecLiteral::Float(*v),
        Literal::Str(s) => ExecLiteral::Str(s.clone()),
    }
}

fn exec_conjuncts(cs: &[Comparison]) -> Vec<ExecCompare> {
    cs.iter()
        .map(|c| ExecCompare {
            column: c.column.clone(),
            op: c.op.clone(),
            value: exec_literal(&c.value),
        })
        .collect()
}

/// The aggregate items of the SELECT list as executable descriptors,
/// named `alias` or `func(column)`.
pub(crate) fn exec_aggs(q: &Query) -> Vec<ExecAgg> {
    q.select
        .iter()
        .filter_map(|item| match &item.expr {
            Expr::Agg { func, column } => Some(ExecAgg {
                func: func.clone(),
                column: column.clone(),
                name: item
                    .alias
                    .clone()
                    .unwrap_or_else(|| format!("{func}({column})")),
            }),
            Expr::Column(_) => None,
        })
        .collect()
}

/// Plans a query onto `g`, returning the sink vertex. Every vertex gets
/// an executable shard descriptor ([`ExecOp`]) beside its cost hints, so
/// the lowered physical graph can actually run.
pub fn plan_query(q: &Query, catalog: &Catalog, g: &mut FlowGraph) -> Result<VertexId, SqlError> {
    let base = catalog
        .get(&q.from)
        .ok_or_else(|| SqlError::Plan(format!("unknown table {:?}", q.from)))?;

    // Column sanity for predicates against the base table.
    let all_tables: Vec<&crate::catalog::TableDef> = {
        let mut v = vec![base];
        for j in &q.joins {
            v.push(
                catalog
                    .get(&j.table)
                    .ok_or_else(|| SqlError::Plan(format!("unknown table {:?}", j.table)))?,
            );
        }
        v
    };
    if let Some(p) = &q.predicate {
        for c in &p.conjuncts {
            if !all_tables.iter().any(|t| t.has_column(&c.column)) {
                return Err(SqlError::Plan(format!("unknown column {:?}", c.column)));
            }
        }
    }

    let mut rows = base.rows;
    let mut bytes = base.bytes;
    let mut head = g.add_source(&q.from, rows, bytes);
    g.set_exec(
        head,
        ExecOp::Scan {
            table: q.from.clone(),
        },
    );

    // Predicate pushdown: conjuncts that only touch the base table apply
    // before joins; the rest after.
    let (pushed, kept): (Vec<_>, Vec<_>) = match &q.predicate {
        Some(p) => p
            .conjuncts
            .iter()
            .cloned()
            .partition(|c| base.has_column(&c.column)),
        None => (Vec::new(), Vec::new()),
    };
    if !pushed.is_empty() {
        let sel = CONJUNCT_SELECTIVITY.powi(pushed.len() as i32);
        rows = ((rows as f64) * sel).max(1.0) as u64;
        bytes = ((bytes as f64) * sel).max(1.0) as u64;
        let f = g.add_ir_op(ops::FILTER, rows, bytes);
        g.set_exec(
            f,
            ExecOp::Filter {
                conjuncts: exec_conjuncts(&pushed),
            },
        );
        g.connect(head, f)?;
        head = f;
    }

    // Joins: shuffle both sides on their keys. The probe side arrives on
    // port 0, the build side on port 1, so shard execution can tell them
    // apart.
    for j in &q.joins {
        let right_def = catalog.get(&j.table).expect("validated above");
        let right = g.add_source(&j.table, right_def.rows, right_def.bytes);
        g.set_exec(
            right,
            ExecOp::Scan {
                table: j.table.clone(),
            },
        );
        rows = rows.max(right_def.rows);
        bytes += right_def.bytes / 4;
        let join = g.add_ir_op(ops::JOIN, rows, bytes);
        g.set_exec(
            join,
            ExecOp::Join {
                left_key: j.left_key.clone(),
                right_key: j.right_key.clone(),
                right_rows: right_def.rows,
            },
        );
        g.connect_keyed(head, join, &j.left_key)?;
        g.connect_keyed_port(right, join, &j.right_key, 1)?;
        head = join;
    }

    // Residual predicate after joins.
    if !kept.is_empty() {
        let sel = CONJUNCT_SELECTIVITY.powi(kept.len() as i32);
        rows = ((rows as f64) * sel).max(1.0) as u64;
        bytes = ((bytes as f64) * sel).max(1.0) as u64;
        let f = g.add_ir_op(ops::FILTER, rows, bytes);
        g.set_exec(
            f,
            ExecOp::Filter {
                conjuncts: exec_conjuncts(&kept),
            },
        );
        g.connect(head, f)?;
        head = f;
    }

    // Aggregation (keyed on the first GROUP BY column) or projection.
    if q.is_aggregate() {
        let out_rows = ((rows as f64) * AGG_REDUCTION).max(1.0) as u64;
        let out_bytes = ((bytes as f64) * AGG_REDUCTION).max(64.0) as u64;
        let agg = g.add_ir_op(ops::AGGREGATE, rows, out_bytes);
        g.set_exec(
            agg,
            ExecOp::Aggregate {
                group_by: q.group_by.clone(),
                aggs: exec_aggs(q),
            },
        );
        match q.group_by.first() {
            Some(k) => g.connect_keyed(head, agg, k)?,
            None => g.connect(head, agg)?,
        }
        rows = out_rows;
        bytes = out_bytes;
        head = agg;
    } else {
        let cols = q.projected_columns();
        if !cols.is_empty() && !cols.contains(&"*") {
            let keep_frac =
                (cols.len() as f64 / all_tables[0].columns.len().max(1) as f64).min(1.0);
            bytes = ((bytes as f64) * keep_frac).max(1.0) as u64;
            let p = g.add_ir_op(ops::PROJECT, rows, bytes);
            g.set_exec(
                p,
                ExecOp::Project {
                    columns: cols.iter().map(|c| c.to_string()).collect(),
                },
            );
            g.connect(head, p)?;
            head = p;
        }
    }

    let order = q
        .order_by
        .as_ref()
        .map(|ob| (ob.column.clone(), ob.descending));
    if let Some(ob) = &q.order_by {
        let s = g.add_ir_op(ops::SORT, rows, bytes);
        g.set_exec(
            s,
            ExecOp::Sort {
                column: ob.column.clone(),
                descending: ob.descending,
            },
        );
        g.connect_keyed(head, s, &ob.column)?;
        head = s;
    }
    if let Some(n) = q.limit {
        rows = rows.min(n.max(0) as u64);
        bytes = bytes.min(rows.saturating_mul(64).max(64));
        let l = g.add_ir_op(ops::LIMIT, rows, bytes);
        g.set_exec(
            l,
            ExecOp::Limit {
                n: n.max(0) as u64,
                order: order.clone(),
            },
        );
        g.connect(head, l)?;
        head = l;
    }

    let sink = g.add_sink("result");
    g.set_exec(
        sink,
        ExecOp::Collect {
            order_by: order,
            limit: q.limit.map(|n| n.max(0) as u64),
        },
    );
    g.connect(head, sink)?;
    Ok(sink)
}

#[cfg(test)]
mod tests {
    use super::super::plan_sql;
    use super::*;
    use skadi_flowgraph::EdgeKind;

    fn names(g: &FlowGraph) -> Vec<String> {
        g.vertices()
            .iter()
            .map(|v| v.body.name().to_string())
            .collect()
    }

    #[test]
    fn simple_scan_project() {
        let (g, _sink) = plan_sql("SELECT user_id FROM events", &Catalog::demo()).unwrap();
        let n = names(&g);
        assert_eq!(n, vec!["events", "rel.project", "result"]);
        g.validate().unwrap();
    }

    #[test]
    fn filter_pushed_below_join() {
        let (g, _) = plan_sql(
            "SELECT country FROM events JOIN users ON user_id = user_id WHERE value > 0.5",
            &Catalog::demo(),
        )
        .unwrap();
        let n = names(&g);
        // Filter (on events.value) sits between the events scan and the
        // join.
        let fpos = n.iter().position(|x| x == "rel.filter").unwrap();
        let jpos = n.iter().position(|x| x == "rel.join").unwrap();
        assert!(fpos < jpos, "{n:?}");
        g.validate().unwrap();
    }

    #[test]
    fn join_edges_are_keyed() {
        let (g, _) = plan_sql(
            "SELECT country FROM events JOIN users ON user_id = user_id",
            &Catalog::demo(),
        )
        .unwrap();
        let join = g
            .vertices()
            .iter()
            .find(|v| v.body.name() == "rel.join")
            .unwrap()
            .id;
        for input in g.inputs_of(join) {
            match &g.edge_between(input, join).unwrap().kind {
                EdgeKind::Keyed(k) => assert_eq!(k, "user_id"),
                other => panic!("join edge not keyed: {other:?}"),
            }
        }
    }

    #[test]
    fn aggregate_keyed_on_group_by() {
        let (g, _) = plan_sql(
            "SELECT kind, sum(value) FROM events GROUP BY kind",
            &Catalog::demo(),
        )
        .unwrap();
        let agg = g
            .vertices()
            .iter()
            .find(|v| v.body.name() == "rel.aggregate")
            .unwrap();
        let input = g.inputs_of(agg.id)[0];
        assert_eq!(
            g.edge_between(input, agg.id).unwrap().kind,
            EdgeKind::Keyed("kind".into())
        );
        // Aggregation shrinks output.
        assert!(agg.output_bytes_hint < g.vertex(input).output_bytes_hint);
    }

    #[test]
    fn order_and_limit_appended() {
        let (g, _) = plan_sql(
            "SELECT kind, sum(value) FROM events GROUP BY kind ORDER BY kind DESC LIMIT 5",
            &Catalog::demo(),
        )
        .unwrap();
        let n = names(&g);
        assert!(n.contains(&"rel.sort".to_string()));
        assert!(n.contains(&"rel.limit".to_string()));
        g.validate().unwrap();
    }

    #[test]
    fn unknown_table_and_column_rejected() {
        let c = Catalog::demo();
        assert!(matches!(
            plan_sql("SELECT a FROM missing", &c),
            Err(SqlError::Plan(_))
        ));
        assert!(matches!(
            plan_sql("SELECT user_id FROM events WHERE nope = 1", &c),
            Err(SqlError::Plan(_))
        ));
    }

    #[test]
    fn filter_shrinks_cardinality() {
        let (g, _) = plan_sql(
            "SELECT user_id FROM events WHERE value > 0.5 AND kind = 'x'",
            &Catalog::demo(),
        )
        .unwrap();
        let scan = g
            .vertices()
            .iter()
            .find(|v| v.body.name() == "events")
            .unwrap();
        let filt = g
            .vertices()
            .iter()
            .find(|v| v.body.name() == "rel.filter")
            .unwrap();
        assert!(filt.rows_hint < scan.rows_hint / 5);
    }
}
