//! Workloads: seeded data, seeded statements, and the row-at-a-time
//! oracle every result is checked against.

use skadi::arrow::array::Value;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::compute::CmpOp;
use skadi::dcsim::rng::DetRng;
use skadi_bench::exec_bench::{
    baseline_filter, baseline_group_sum_count, baseline_join, baseline_sort, baseline_topn,
    events_batch, users_batch,
};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, analytic templates, local engine, 200k-row events.
    OlapLocal,
    /// Closed loop, the same templates, distributed data plane at P=16,
    /// 20k-row events.
    OlapDist,
    /// Open loop, Poisson arrivals, mostly wide exports, local engine.
    ServeOpen,
}

impl Workload {
    /// Every workload, in the order the smoke mode runs them.
    pub const ALL: [Workload; 3] = [Workload::OlapLocal, Workload::OlapDist, Workload::ServeOpen];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapLocal => "olap-local",
            Workload::OlapDist => "olap-dist",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Whether the server executes through the distributed data plane.
    pub fn distributed(self) -> bool {
        self == Workload::OlapDist
    }

    /// Rows in `events` (`users` has a tenth as many).
    pub fn event_rows(self) -> usize {
        match self {
            Workload::OlapDist => 20_000,
            Workload::OlapLocal | Workload::ServeOpen => 200_000,
        }
    }

    /// Default parallelism of the workload's session: the distributed
    /// server runs at 16; the local engines keep the session default,
    /// which only the virtual-time list uses.
    pub fn parallelism(self) -> u32 {
        match self {
            Workload::OlapDist => 16,
            Workload::OlapLocal | Workload::ServeOpen => 4,
        }
    }
}

/// The workload's tables, generated from the seed.
pub fn tables(w: Workload, seed: u64) -> (RecordBatch, RecordBatch) {
    let n = w.event_rows();
    (events_batch(n, seed), users_batch(n / 10, seed ^ 0x5eed))
}

/// A statement template; the literals are drawn from the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Template {
    /// Filter + low-cardinality GROUP BY.
    GroupLow { lo: f64, hi: f64 },
    /// Filter + JOIN + GROUP BY + ORDER BY.
    JoinGroup { lo: f64 },
    /// Filter + ORDER BY … LIMIT.
    TopN { kind: &'static str, lo: f64, n: i64 },
    /// High-cardinality GROUP BY + top-N.
    GroupHighTopN { lo: f64, n: i64 },
    /// Wide export: a value band returning 10k–40k rows of 200k.
    Export { lo: f64, hi: f64 },
}

const KINDS: [&str; 4] = ["click", "view", "scroll", "purchase"];

/// A literal with three decimals, as the statement text carries it, so
/// the oracle compares against exactly the value the engine parses.
fn lit(rng: &mut DetRng, lo: f64, hi: f64) -> f64 {
    strat(rng, lo, hi, 0, 1)
}

/// [`lit`] drawn from stratum `k` of `n` equal slices of `[lo, hi)`.
/// Giving each of a template's statements its own stratum spreads every
/// pool evenly over the literal range, so the pool's total cost (and
/// with it throughput and latency) varies little from seed to seed.
fn strat(rng: &mut DetRng, lo: f64, hi: f64, k: usize, n: usize) -> f64 {
    let x = lo + (k as f64 + rng.unit()) / n as f64 * (hi - lo);
    format!("{x:.3}").parse().expect("formatted float")
}

impl Template {
    /// The SQL text.
    pub fn sql(&self) -> String {
        match self {
            Template::GroupLow { lo, hi } => format!(
                "SELECT kind, sum(value) AS s, count(*) AS n FROM events \
                 WHERE value > {lo:.3} AND value < {hi:.3} GROUP BY kind"
            ),
            Template::JoinGroup { lo } => format!(
                "SELECT country, sum(value) AS s, count(*) AS n FROM events \
                 JOIN users ON user_id = user_id WHERE value > {lo:.3} \
                 GROUP BY country ORDER BY s DESC"
            ),
            Template::TopN { kind, lo, n } => format!(
                "SELECT user_id, kind, value FROM events \
                 WHERE kind = '{kind}' AND value > {lo:.3} ORDER BY value DESC LIMIT {n}"
            ),
            Template::GroupHighTopN { lo, n } => format!(
                "SELECT user_id, sum(value) AS s, count(*) AS n FROM events \
                 WHERE value > {lo:.3} GROUP BY user_id ORDER BY s DESC LIMIT {n}"
            ),
            Template::Export { lo, hi } => format!(
                "SELECT user_id, kind, value FROM events WHERE value > {lo:.3} AND value < {hi:.3}"
            ),
        }
    }

    /// Whether the result's row order is part of the answer.
    pub fn ordered(&self) -> bool {
        !matches!(self, Template::GroupLow { .. })
    }

    /// The expected result, computed by the row-at-a-time engine.
    pub fn oracle(&self, events: &RecordBatch, users: &RecordBatch) -> RecordBatch {
        let gt = |x: f64| ("value", CmpOp::Gt, Value::F64(x));
        let lt = |x: f64| ("value", CmpOp::Lt, Value::F64(x));
        match self {
            Template::GroupLow { lo, hi } => {
                let f = baseline_filter(events, &[gt(*lo), lt(*hi)]);
                baseline_group_sum_count(&f, "kind", "value")
            }
            Template::JoinGroup { lo } => {
                let f = baseline_filter(events, &[gt(*lo)]);
                let j = baseline_join(&f, users, "user_id", "user_id");
                let g = baseline_group_sum_count(&j, "country", "value");
                baseline_sort(&g, "s", true)
            }
            Template::TopN { kind, lo, n } => {
                let f = baseline_filter(
                    events,
                    &[("kind", CmpOp::Eq, Value::Str(kind.to_string())), gt(*lo)],
                );
                baseline_topn(&f, "value", *n as usize)
            }
            Template::GroupHighTopN { lo, n } => {
                let f = baseline_filter(events, &[gt(*lo)]);
                let g = baseline_group_sum_count(&f, "user_id", "value");
                baseline_topn(&g, "s", *n as usize)
            }
            Template::Export { lo, hi } => baseline_filter(events, &[gt(*lo), lt(*hi)]),
        }
    }
}

/// Analytic template `i % 4`; its selectivity literal comes from
/// stratum `i / 4` of `n`.
fn olap_template(rng: &mut DetRng, i: usize, n: usize) -> Template {
    let k = i / 4;
    match i % 4 {
        0 => {
            let lo = strat(rng, 0.0, 40.0, k, n);
            Template::GroupLow {
                lo,
                hi: lit(rng, lo + 20.0, lo + 60.0),
            }
        }
        1 => Template::JoinGroup {
            lo: strat(rng, 50.0, 90.0, k, n),
        },
        2 => Template::TopN {
            kind: KINDS[k % KINDS.len()],
            lo: strat(rng, 0.0, 50.0, k, n),
            n: rng.range(10, 51) as i64,
        },
        _ => Template::GroupHighTopN {
            lo: strat(rng, 30.0, 90.0, k, n),
            n: rng.range(10, 51) as i64,
        },
    }
}

/// Distinct statements per workload. Clients draw from this pool, so
/// every result can be checked against the oracle once, after the
/// timed window, and each repeat compared with the checked answer.
pub const POOL: usize = 24;

/// The workload's seeded statement pool.
pub fn pool(w: Workload, seed: u64) -> Vec<Template> {
    let mut rng = DetRng::seed(seed ^ 0x7e3a_11c0_5eed);
    (0..POOL)
        .map(|i| match w {
            Workload::OlapLocal | Workload::OlapDist => olap_template(&mut rng, i, POOL / 4),
            // Three of four statements are wide exports; the rest are
            // short selective queries.
            Workload::ServeOpen => {
                if i % 4 == 3 {
                    // Alternately a group-by and a top-N.
                    olap_template(&mut rng, 2 * (i / 4 % 2) + 4 * (i / 8), POOL / 8)
                } else {
                    // Non-null values are uniform on [0, 100) over 95%
                    // of 200k rows: a band of width w keeps ~1900*w rows.
                    let width = strat(&mut rng, 5.5, 20.5, i - i / 4, POOL * 3 / 4);
                    let lo = lit(&mut rng, 0.0, 75.0);
                    Template::Export {
                        lo,
                        hi: lit(&mut rng, lo + width, lo + width),
                    }
                }
            }
        })
        .collect()
}

/// Relative tolerance for floating-point cells: the engine's partitioned
/// and morsel-parallel sums add in a different order than the oracle's
/// single pass, which moves the last few bits.
pub const FLOAT_REL_TOL: f64 = 1e-9;

fn cell_matches(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => {
            x == y || (x - y).abs() <= FLOAT_REL_TOL * x.abs().max(y.abs()).max(1.0)
        }
        (x, y) => x == y,
    }
}

fn rows_of(b: &RecordBatch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|r| b.row(r)).collect()
}

fn row_key(row: &[Value]) -> String {
    format!("{row:?}")
}

/// Checks `got` against the oracle's `want`: same column names, same
/// row count, and cell-by-cell agreement (floats within
/// [`FLOAT_REL_TOL`]). Unordered results are compared after sorting
/// rows by their group key (the first column, unique per group).
pub fn check(got: &RecordBatch, want: &RecordBatch, ordered: bool) -> Result<(), String> {
    let names = |b: &RecordBatch| -> Vec<String> {
        b.schema().fields().iter().map(|f| f.name.clone()).collect()
    };
    if names(got) != names(want) {
        return Err(format!(
            "columns {:?}, expected {:?}",
            names(got),
            names(want)
        ));
    }
    if got.num_rows() != want.num_rows() {
        return Err(format!(
            "{} rows, expected {}",
            got.num_rows(),
            want.num_rows()
        ));
    }
    let mut g = rows_of(got);
    let mut w = rows_of(want);
    if !ordered {
        g.sort_by_key(|r| row_key(&r[..1]));
        w.sort_by_key(|r| row_key(&r[..1]));
    }
    for (i, (gr, wr)) in g.iter().zip(&w).enumerate() {
        if gr.len() != wr.len() || !gr.iter().zip(wr).all(|(a, b)| cell_matches(a, b)) {
            return Err(format!("row {i}: {gr:?}, expected {wr:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_seeded_and_parse() {
        for w in Workload::ALL {
            let a = pool(w, 7);
            assert_eq!(a, pool(w, 7), "same seed, same statements");
            assert_ne!(a, pool(w, 8), "another seed, other literals");
            for t in &a {
                skadi::frontends::sql::parse(&skadi::frontends::sql::tokenize(&t.sql()).unwrap())
                    .unwrap();
            }
        }
    }

    #[test]
    fn every_template_matches_its_oracle_on_small_data() {
        let (events, users) = (events_batch(4_000, 3), users_batch(400, 4));
        let db = skadi::frontends::exec::MemDb::new()
            .register("events", events.clone())
            .register("users", users.clone());
        for w in Workload::ALL {
            for t in pool(w, 11) {
                let got = db.query(&t.sql()).unwrap();
                check(&got, &t.oracle(&events, &users), t.ordered())
                    .unwrap_or_else(|e| panic!("{}: {e}", t.sql()));
            }
        }
    }

    #[test]
    fn check_reports_mismatches() {
        let (events, users) = (events_batch(2_000, 5), users_batch(200, 6));
        let t = Template::GroupLow { lo: 10.0, hi: 60.0 };
        let want = t.oracle(&events, &users);
        let other = Template::GroupLow { lo: 11.0, hi: 60.0 }.oracle(&events, &users);
        assert!(check(&want, &want, false).is_ok());
        assert!(check(&other, &want, false).is_err());
    }
}
