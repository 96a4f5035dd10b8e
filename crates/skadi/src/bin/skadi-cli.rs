//! `skadi-cli` — run SQL against a generated demo dataset, twice:
//! *actually* (the local execution engine computes real answers) and
//! *at scale* (the simulated cluster prices the same query as a
//! distributed job).
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- "SELECT kind, sum(value) FROM events GROUP BY kind"
//! cargo run -p skadi --bin skadi-cli            # runs a demo query set
//! cargo run -p skadi --bin skadi-cli -- trace   # trace the quickstart pipeline
//! ```
//!
//! `--distributed` executes each query **through the simulated cluster's
//! data plane** instead of the local engine: the plan is sharded
//! (`--parallelism N`, default 4), every task runs its operator kernel on
//! real record batches, and the answer is collected from the sink task's
//! stored payload — byte-identical to the local engine's. Both engines
//! print one measured line per operator from the run's query profile
//! beside the simulated pricing:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- --distributed --parallelism 8 "SELECT ..."
//! ```
//!
//! `--threads N` (accepted by the default exec path, `--distributed`,
//! and `serve`) sizes the process-wide morsel-execution pool. It changes
//! only wall-clock time: answers, profiles, and simulated pricing are
//! identical at every thread count.
//!
//! `--placement POLICY` selects the scheduler's placement policy
//! (`data-centric`, `load-only`, `round-robin`, `load-aware`,
//! `work-stealing`); `--adaptive` turns on adaptive query execution —
//! a pilot pass re-plans sparse shuffle keys and joins build on the
//! observed smaller side. Answers are byte-identical under every
//! combination; only the simulated schedule (and pricing) moves:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- --distributed --placement load-aware --adaptive "SELECT ..."
//! ```
//!
//! The `trace` subcommand runs the Figure-1 integrated pipeline with
//! causal span tracing enabled, writes a Chrome `trace_event` JSON file
//! (open it at <https://ui.perfetto.dev>), and prints the per-job
//! critical-path summary:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- trace my-trace.json
//! ```
//!
//! Prefixing a query with `EXPLAIN ANALYZE` prints the annotated plan
//! tree — per-operator rows/bytes/wall time with per-shard
//! min/median/max and `[SKEW]` flags — instead of the plain timing
//! lines. Works both locally and with `--distributed`:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- --distributed "EXPLAIN ANALYZE SELECT ..."
//! ```
//!
//! The `serve` subcommand opens the native wire-protocol front door: it
//! binds a TCP listener over the demo dataset and serves concurrent
//! client sessions (handshake, streamed result blocks, progress and
//! exception packets, bounded FIFO admission). `client` is the matching
//! native client: it connects, handshakes, runs queries, and prints the
//! reassembled result batches:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- serve --addr 127.0.0.1:4711 [--distributed] [--rows N] [--threads N]
//! cargo run -p skadi --bin skadi-cli -- client --addr 127.0.0.1:4711 "SELECT ..." ...
//! ```
//!
//! The `metrics` subcommand runs the demo query set through the
//! distributed data plane and dumps the merged runtime metrics in
//! Prometheus text exposition format (counters, and histograms as
//! summaries with p50/p99 — including the per-query `query_latency`
//! histogram). `--json` dumps the per-query profile artifacts instead;
//! `--check` validates the exposition's line grammar and exits non-zero
//! on violations (the CI gate):
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- metrics [--json | --check] [--parallelism N]
//! ```
//!
//! The `chaos` subcommand replays one seeded schedule from the chaos
//! fault harness (the same generator `tests/chaos.rs` drives) with
//! tracing on, prints the injected schedule and the verdict, and writes
//! the traced chaos run as Chrome JSON. `--permanent` switches to the
//! unrecoverable-loss generator and `--multi` to the staggered
//! multi-job workload:
//!
//! ```text
//! cargo run -p skadi --bin skadi-cli -- chaos --seed 17 [--ft lineage|repl|ec] [--permanent | --multi] [out.json]
//! ```
//!
//! Every mode reads its flags through one parser: `--help` / `-h` prints
//! the usage text, and an unknown flag or a bad or missing value prints
//! an error and exits with status 2.

use skadi::arrow::array::Array;
use skadi::arrow::batch::RecordBatch;
use skadi::arrow::datatype::DataType;
use skadi::arrow::schema::{Field, Schema};
use skadi::dcsim::rng::DetRng;
use skadi::flowgraph::profile::QueryProfile;
use skadi::frontends::exec::MemDb;
use skadi::prelude::*;

const USAGE: &str = "\
usage:
  skadi-cli [--distributed] [--parallelism N] [--threads N] [--placement POLICY]
            [--adaptive] [SQL ...]
  skadi-cli trace [out.json]
  skadi-cli chaos [--seed N] [--ft lineage|repl|ec] [--permanent | --multi] [out.json]
  skadi-cli metrics [--json | --check] [--parallelism N]
  skadi-cli serve [--addr HOST:PORT] [--rows N] [--distributed] [--parallelism N] [--threads N]
  skadi-cli client [--addr HOST:PORT] [SQL ...]

POLICY is one of data-centric, load-only, round-robin, load-aware, work-stealing.
Prefix a query with EXPLAIN ANALYZE to print its annotated plan tree.";

/// Why a mode stopped early.
enum CliError {
    /// `--help` / `-h`: print the usage text, exit 0.
    Help,
    /// An unknown flag or a bad or missing value: exit 2.
    Usage(String),
    /// The run itself failed (a file or socket error): exit 1.
    Failed(String),
}

/// The command line, read flag by flag. Every mode parses through it, so
/// `--help` works everywhere and a bad value is an error, never a panic.
struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The next argument; `--help` / `-h` stop the mode.
    fn next(&mut self) -> Result<Option<String>, CliError> {
        match self.0.next() {
            Some(a) if a == "--help" || a == "-h" => Err(CliError::Help),
            other => Ok(other),
        }
    }

    /// The value following `flag`, parsed.
    fn value<T>(&mut self, flag: &str) -> Result<T, CliError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let raw = self
            .0
            .next()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        raw.parse()
            .map_err(|e| CliError::Usage(format!("{flag} {raw:?}: {e}")))
    }
}

/// A positional argument, or an error if it looks like a flag no mode
/// knows.
fn positional(a: String) -> Result<String, CliError> {
    if a.starts_with('-') {
        Err(CliError::Usage(format!("unknown flag {a:?}")))
    } else {
        Ok(a)
    }
}

/// Generates the demo `events`/`users` tables (seeded, so every run sees
/// identical data).
fn demo_db(rows: usize) -> MemDb {
    let mut rng = DetRng::seed(2023);
    let kinds = ["click", "view", "purchase", "scroll"];
    let countries = ["DE", "US", "JP", "BR", "IN"];

    let users = 1 + rows / 10;
    let user_ids: Vec<i64> = (0..rows).map(|_| rng.below(users as u64) as i64).collect();
    let kind_col: Vec<&str> = (0..rows).map(|_| *rng.pick(&kinds)).collect();
    let values: Vec<f64> = (0..rows).map(|_| rng.unit() * 10.0).collect();
    let ts: Vec<i64> = (0..rows as i64).collect();

    let events = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("ts", DataType::Int64, false),
            Field::new("kind", DataType::Utf8, false),
            Field::new("value", DataType::Float64, false),
        ]),
        vec![
            Array::from_i64(user_ids),
            Array::from_i64(ts),
            Array::from_utf8(&kind_col),
            Array::from_f64(values),
        ],
    )
    .expect("demo events build");

    let country_col: Vec<&str> = (0..users).map(|_| *rng.pick(&countries)).collect();
    let ages: Vec<i64> = (0..users).map(|_| 18 + rng.below(60) as i64).collect();
    let users_batch = RecordBatch::try_new(
        Schema::new(vec![
            Field::new("user_id", DataType::Int64, false),
            Field::new("country", DataType::Utf8, false),
            Field::new("age", DataType::Int64, false),
        ]),
        vec![
            Array::from_i64((0..users as i64).collect()),
            Array::from_utf8(&country_col),
            Array::from_i64(ages),
        ],
    )
    .expect("demo users build");

    MemDb::new()
        .register("events", events)
        .register("users", users_batch)
}

/// One line per operator from a run's profile: shard count, wall time
/// summed over shards, rows out and output bytes. Both engines print it.
fn print_measured(profile: &QueryProfile) {
    let ops: Vec<String> = profile
        .ops
        .iter()
        .map(|op| {
            let wall: u64 = op.shards.iter().map(|s| s.wall_nanos).sum();
            format!(
                "{} x{} {:.0}us ({} rows, {} B)",
                op.op,
                op.shards.len(),
                wall as f64 / 1e3,
                op.total_rows_out(),
                op.total_output_bytes(),
            )
        })
        .collect();
    println!("-- measured: {} --", ops.join(", "));
}

fn run_query(db: &MemDb, session: &Session, sql: &str) {
    println!("sql> {sql}");
    let (result, profile) = match db.query_profiled(sql) {
        Ok(run) => run,
        Err(e) => {
            println!("!! {e}\n");
            return;
        }
    };
    println!("-- answer ({} rows) --", result.num_rows());
    print!("{result}");
    if skadi::frontends::sql::strip_explain_analyze(sql).is_some() {
        // EXPLAIN ANALYZE: the annotated plan tree replaces the flat
        // measured line and the simulated pricing.
        print!("{}", profile.render(true));
        println!();
        return;
    }
    print_measured(&profile);
    match session.sql(sql) {
        Ok(report) => {
            println!(
                "-- at cluster scale: {} tasks on {} (cpu {}, gpu {}, fpga {}), makespan {}, {} B moved --\n",
                report.physical_vertices,
                session.topology().summary(),
                report.backends.cpu,
                report.backends.gpu,
                report.backends.fpga,
                report.stats.makespan,
                report.stats.net.network_bytes(),
            );
        }
        Err(e) => println!("!! simulation failed: {e}\n"),
    }
}

/// One query through the distributed data plane: real shard execution
/// inside the simulated cluster, the measured profile beside the
/// simulated pricing.
fn run_query_distributed(db: &MemDb, session: &Session, sql: &str) {
    println!("sql> {sql}");
    let run = match session.sql_distributed(db, sql) {
        Ok(run) => run,
        Err(e) => {
            println!("!! {e}\n");
            return;
        }
    };
    println!("-- answer ({} rows, distributed) --", run.batch.num_rows());
    print!("{}", run.batch);
    let explain = skadi::frontends::sql::strip_explain_analyze(sql).is_some();
    if let Some(profile) = &run.report.profile {
        if explain {
            // EXPLAIN ANALYZE: the annotated plan tree with per-shard
            // min/median/max and skew flags.
            print!("{}", profile.render(true));
        } else {
            print_measured(profile);
        }
    }
    if !explain && (!run.replans.is_empty() || run.data_plane.build_swaps() > 0) {
        let plans: Vec<String> = run
            .replans
            .iter()
            .map(|r| {
                format!(
                    "op {} on '{}': {} -> {} shards",
                    r.vertex, r.key, r.from_shards, r.to_shards
                )
            })
            .collect();
        println!(
            "-- adaptive: {} re-plan(s) [{}], {} join build swap(s) --",
            run.replans.len(),
            plans.join("; "),
            run.data_plane.build_swaps(),
        );
    }
    println!(
        "-- at cluster scale: {} tasks, makespan {}, {} retries, {} B measured output --\n",
        run.report.physical_vertices,
        run.report.stats.makespan,
        run.report.stats.retries,
        run.report.stats.measured_output_bytes.values().sum::<u64>(),
    );
}

/// Writes an artifact, turning an I/O error into a clean failure.
fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Failed(format!("write {path}: {e}")))
}

/// `skadi-cli trace [output.json]`: run the quickstart pipeline with
/// tracing on, export Chrome trace_event JSON, print the critical path.
fn run_trace(mut args: Args) -> Result<(), CliError> {
    let mut out_path = "skadi-trace.json".to_string();
    while let Some(a) = args.next()? {
        out_path = positional(a)?;
    }
    let session = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .runtime(RuntimeConfig::skadi_gen2().with_tracing(true))
        .build();
    let report = skadi::pipeline::fig1_pipeline(&session, 1)
        .and_then(|p| p.run())
        .map_err(|e| CliError::Failed(format!("quickstart pipeline: {e}")))?;

    let json = report.chrome_trace();
    let spans = report.stats.trace.len();
    write_file(&out_path, &json)?;
    println!("{report}\n");
    println!("{}", report.critical_path_summary(5));
    println!("\nwrote {spans} spans ({} bytes) to {out_path}", json.len());
    println!("open it at https://ui.perfetto.dev (or chrome://tracing)");
    Ok(())
}

/// `skadi-cli chaos --seed N [--ft MODE] [--permanent | --multi]
/// [out.json]`: replay one chaos schedule with tracing and invariant
/// checks on. `--permanent` replays the unrecoverable-loss generator
/// (clean `TaskAbandoned`/`Stalled` counts as a pass); `--multi` replays
/// the staggered multi-job workload under the survivable generator.
fn run_chaos_replay(mut args: Args) -> Result<(), CliError> {
    use skadi::runtime::chaos::{
        chaos_job, chaos_jobs, chaos_plan, chaos_plan_permanent, chaos_topology,
        run_chaos_multi_with, run_chaos_permanent_with, run_chaos_with,
    };
    use skadi::runtime::config::FtMode;
    use skadi::runtime::error::RuntimeError;

    let mut seed = 0u64;
    let mut ft = FtMode::Lineage;
    let mut permanent = false;
    let mut multi = false;
    let mut out = "skadi-chaos.json".to_string();
    while let Some(a) = args.next()? {
        match a.as_str() {
            "--seed" => seed = args.value("--seed")?,
            "--ft" => {
                ft = match args.value::<String>("--ft")?.as_str() {
                    "lineage" => FtMode::Lineage,
                    "repl" | "replication" => FtMode::Replication(2),
                    "ec" | "rs" => FtMode::ErasureCoding(skadi::store::ec::EcConfig::RS_4_2),
                    other => {
                        return Err(CliError::Usage(format!(
                            "--ft takes lineage|repl|ec, got {other:?}"
                        )))
                    }
                };
            }
            "--permanent" => permanent = true,
            "--multi" => multi = true,
            _ => out = positional(a)?,
        }
    }
    if permanent && multi {
        return Err(CliError::Usage(
            "--permanent and --multi are separate suites".into(),
        ));
    }

    let topo = chaos_topology();
    let plan = if permanent {
        chaos_plan_permanent(&topo, seed)
    } else {
        chaos_plan(&topo, seed)
    };
    if multi {
        let jobs = chaos_jobs(seed);
        let total: usize = jobs.iter().map(|(j, _)| j.len()).sum();
        println!(
            "chaos seed {seed} under {ft:?}: {} jobs, {total} tasks",
            jobs.len()
        );
        for (j, at) in &jobs {
            println!("  job '{}' arrives at {at} ({} tasks)", j.name, j.len());
        }
    } else {
        let job = chaos_job(seed);
        println!(
            "chaos seed {seed} under {ft:?}{}: {} tasks",
            if permanent { " (permanent loss)" } else { "" },
            job.len()
        );
    }
    for f in plan.failures() {
        match f.recovers_at {
            Some(r) => println!("  kill node {} at {} (recovers {r})", f.node.0, f.at),
            None => println!("  kill node {} at {} (permanent)", f.node.0, f.at),
        }
    }
    for s in plan.slowdowns() {
        println!(
            "  slow node {} x{:.1} during [{}, {})",
            s.node.0, s.factor, s.from, s.until
        );
    }

    // Normalize the three suites into one (verdict-line, stats, diff)
    // shape so the reporting below is shared.
    let outcome = if multi {
        run_chaos_multi_with(seed, ft, true).map(|v| {
            let eq = v.equivalent();
            (eq, v.stats, v.baseline, v.chaotic)
        })
    } else if permanent {
        run_chaos_permanent_with(seed, ft, true).map(|v| {
            let eq = v.equivalent();
            (eq, v.stats, v.baseline, v.chaotic)
        })
    } else {
        run_chaos_with(seed, ft, true).map(|v| {
            let eq = v.equivalent();
            (eq, v.stats, v.baseline, v.chaotic)
        })
    };

    match outcome {
        Ok((equivalent, stats, baseline, chaotic)) => {
            println!(
                "verdict: {} ({} finished, {} retries, {} elections, makespan {})",
                if equivalent {
                    "EQUIVALENT to failure-free run"
                } else {
                    "DIVERGED from failure-free run"
                },
                stats.finished,
                stats.retries,
                stats.metrics.counter("elections"),
                stats.makespan,
            );
            if !equivalent {
                for (b, c) in baseline.iter().zip(chaotic.iter()) {
                    if b != c {
                        println!("  {b:?} vs {c:?}");
                    }
                }
            }
            let json = stats.trace.to_chrome_json();
            write_file(&out, &json)?;
            println!(
                "wrote {} spans ({} bytes) to {out}",
                stats.trace.len(),
                json.len()
            );
            println!("open it at https://ui.perfetto.dev (or chrome://tracing)");
            if !equivalent {
                std::process::exit(1);
            }
        }
        Err(e @ (RuntimeError::TaskAbandoned(_) | RuntimeError::Stalled { .. })) if permanent => {
            // Unrecoverable schedules are allowed — required, when they
            // destroy needed capacity — to end in these two errors.
            println!("verdict: CLEAN FAILURE under permanent loss: {e}");
        }
        Err(e) => {
            println!("verdict: RUN FAILED: {e}");
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `skadi-cli metrics [--json | --check] [--parallelism N]`: run the
/// demo query set through the distributed data plane and dump the merged
/// runtime metrics in Prometheus text exposition format. `--json` dumps
/// the per-query profile artifacts instead; `--check` self-validates the
/// exposition's line grammar (CI gate) and exits non-zero on violations.
fn run_metrics(mut args: Args) -> Result<(), CliError> {
    use skadi::dcsim::trace::{validate_prometheus, Metrics};

    let mut json = false;
    let mut check = false;
    let mut parallelism = 4u32;
    while let Some(a) = args.next()? {
        match a.as_str() {
            "--json" => json = true,
            "--check" => check = true,
            "--parallelism" => parallelism = args.value("--parallelism")?,
            _ => return Err(CliError::Usage(format!("metrics: unknown argument {a:?}"))),
        }
    }

    let db = demo_db(10_000);
    let session = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .parallelism(parallelism)
        .runtime(RuntimeConfig::skadi_gen2())
        .build();

    let mut merged = Metrics::default();
    let mut profiles = Vec::new();
    for q in demo_queries() {
        let run = session
            .sql_distributed(&db, &q)
            .map_err(|e| CliError::Failed(format!("demo query {q:?}: {e}")))?;
        merged.merge(&run.report.stats.metrics);
        if let Some(p) = run.report.profile {
            profiles.push(p);
        }
    }

    if json {
        // Machine-readable profile artifacts as one JSON array, one
        // object per query (deterministic for a given seed: wall times
        // are omitted from the artifact).
        println!("[");
        for (i, p) in profiles.iter().enumerate() {
            let sep = if i + 1 == profiles.len() { "" } else { "," };
            println!("{}{sep}", p.to_json().trim_end());
        }
        println!("]");
        return Ok(());
    }
    let text = merged.to_prometheus();
    if check {
        return match validate_prometheus(&text) {
            Ok(n) => {
                println!("prometheus exposition OK: {n} series");
                Ok(())
            }
            Err(e) => Err(CliError::Failed(format!(
                "prometheus exposition INVALID: {e}"
            ))),
        };
    }
    print!("{text}");
    Ok(())
}

/// `skadi-cli serve [--addr HOST:PORT] [--rows N] [--distributed]
/// [--parallelism N] [--threads N]`: serve the demo dataset over the
/// native wire protocol until killed.
fn run_serve(mut args: Args) -> Result<(), CliError> {
    use skadi::server::{Server, ServerConfig};

    let mut addr = "127.0.0.1:4711".to_string();
    let mut rows = 10_000usize;
    let mut distributed = false;
    let mut parallelism = 4u32;
    let mut threads: Option<usize> = None;
    while let Some(a) = args.next()? {
        match a.as_str() {
            "--addr" => addr = args.value("--addr")?,
            "--rows" => rows = args.value("--rows")?,
            "--distributed" => distributed = true,
            "--parallelism" => parallelism = args.value("--parallelism")?,
            "--threads" => threads = Some(args.value("--threads")?),
            _ => return Err(CliError::Usage(format!("serve: unknown argument {a:?}"))),
        }
    }

    let db = demo_db(rows);
    let session = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .parallelism(parallelism)
        .runtime(RuntimeConfig::skadi_gen2())
        .build();
    let cfg = ServerConfig {
        distributed,
        threads,
        ..ServerConfig::default()
    };
    let server = Server::new(session, db, cfg);
    let listener = std::net::TcpListener::bind(&addr)
        .map_err(|e| CliError::Failed(format!("bind {addr}: {e}")))?;
    println!(
        "skadi serving {rows}-row demo dataset on {addr} ({} engine); ctrl-c to stop",
        if distributed { "distributed" } else { "local" }
    );
    server
        .serve_tcp(listener)
        .map_err(|e| CliError::Failed(format!("accept loop: {e}")))
}

/// `skadi-cli client [--addr HOST:PORT] ["SQL" ...]`: connect to a
/// running `serve`, run the queries (default: the demo set), and print
/// each reassembled result.
fn run_client(mut args: Args) -> Result<(), CliError> {
    use skadi::wire::Client;

    let mut addr = "127.0.0.1:4711".to_string();
    let mut queries: Vec<String> = Vec::new();
    while let Some(a) = args.next()? {
        match a.as_str() {
            "--addr" => addr = args.value("--addr")?,
            _ => queries.push(positional(a)?),
        }
    }
    if queries.is_empty() {
        queries = demo_queries();
    }

    let stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| CliError::Failed(format!("connect to {addr}: {e}")))?;
    let mut client = Client::connect(stream, "skadi-cli")
        .map_err(|e| CliError::Failed(format!("handshake with {addr}: {e}")))?;
    println!("connected to {:?} at {addr}", client.server_name);
    for q in queries {
        println!("sql> {q}");
        match client.query(&q) {
            Ok(r) => {
                println!(
                    "-- answer ({} rows in {} block(s), {} B on the wire) --",
                    r.batch.num_rows(),
                    r.chunks,
                    r.payload_bytes,
                );
                print!("{}", r.batch);
                println!();
            }
            Err(e) => println!("!! {e}\n"),
        }
    }
    Ok(())
}

/// The default demo query set (shared by the main loop and `metrics`).
fn demo_queries() -> Vec<String> {
    vec![
        "SELECT kind, sum(value) AS total, count(*) AS n FROM events GROUP BY kind ORDER BY total DESC".to_string(),
        "SELECT country, avg(value) AS mean FROM events JOIN users ON user_id = user_id GROUP BY country ORDER BY mean DESC LIMIT 3".to_string(),
        "SELECT user_id, value FROM events WHERE value > 9.9 AND kind = 'purchase' ORDER BY value DESC LIMIT 5".to_string(),
    ]
}

/// The default mode: SQL against the demo dataset, locally or through
/// the distributed data plane.
fn run_sql(mut args: Args) -> Result<(), CliError> {
    let mut distributed = false;
    let mut adaptive = false;
    let mut placement: Option<PlacementPolicy> = None;
    let mut parallelism = 4u32;
    let mut threads: Option<usize> = None;
    let mut queries: Vec<String> = Vec::new();
    while let Some(a) = args.next()? {
        match a.as_str() {
            "--distributed" => distributed = true,
            "--adaptive" => adaptive = true,
            "--placement" => placement = Some(args.value("--placement")?),
            "--parallelism" => parallelism = args.value("--parallelism")?,
            "--threads" => threads = Some(args.value("--threads")?),
            _ => queries.push(positional(a)?),
        }
    }

    let db = demo_db(10_000);
    let mut runtime = RuntimeConfig::skadi_gen2();
    if let Some(p) = placement {
        runtime = runtime.with_placement(p);
    }
    let mut builder = Session::builder()
        .topology(presets::small_disagg_cluster())
        .catalog(Catalog::demo())
        .parallelism(parallelism)
        .adaptive(adaptive)
        .runtime(runtime);
    if let Some(n) = threads {
        builder = builder.threads(n);
    }
    let session = builder.build();

    if queries.is_empty() {
        queries = demo_queries();
    }

    println!(
        "skadi-cli — demo dataset: 10,000 events / ~1,000 users (seeded){}\n",
        if distributed {
            format!(", distributed data plane x{parallelism}")
        } else {
            String::new()
        }
    );
    for q in queries {
        if distributed {
            run_query_distributed(&db, &session, &q);
        } else {
            run_query(&db, &session, &q);
        }
    }
    Ok(())
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match argv.first().map(String::as_str) {
        Some("trace" | "chaos" | "metrics" | "serve" | "client") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv.into_iter());
    let result = match mode.as_str() {
        "trace" => run_trace(args),
        "chaos" => run_chaos_replay(args),
        "metrics" => run_metrics(args),
        "serve" => run_serve(args),
        "client" => run_client(args),
        _ => run_sql(args),
    };
    match result {
        Ok(()) => {}
        Err(CliError::Help) => println!("{USAGE}"),
        Err(CliError::Usage(msg)) => {
            eprintln!("skadi-cli: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("skadi-cli: {msg}");
            std::process::exit(1);
        }
    }
}
