//! `e2e-bench`: SQL statements timed end to end over the wire protocol.
//!
//! Every statement goes through `skadi::Server` over the in-memory
//! duplex transport and is timed from the client writing its `Query`
//! packet to reading its `EndOfStream`. Wall time (what this process
//! spends) and virtual time (what the simulated cluster would spend)
//! are reported as separate metrics and never added together.
//!
//! ```text
//! e2e-bench --workload <olap-local|olap-dist|serve-open> --seed <n>
//!           --seconds <s> --trace <0|1> [--held-out]
//! e2e-bench --smoke
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! statements once more through mirrors of each layer's public entry
//! points and prints the per-layer split (see `traced.rs`). The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! run's provenance. `--held-out` swaps the seed for one derived from it
//! that no tuning run used. `--smoke` runs every workload briefly in
//! both modes with every check on and exits non-zero if any fails.

mod load;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use skadi::arrow::batch::RecordBatch;
use skadi::arrow::ipc;
use skadi::frontends::exec::pool;

use load::{ClientLog, Rig};
use stats::{percentile, Metrics, Step};
use workload::{Template, Workload};

/// Timed set-up samples per run; `setup_s` is the median sample's mean
/// set-up time.
const SETUP_SAMPLES: usize = 15;

/// Samples set up and discarded first: a process's first set-up pays
/// one-time costs the later ones do not.
const SETUP_WARMUP_SAMPLES: usize = 1;

/// Event rows one sample generates: a sample times as many consecutive
/// set-ups as it takes to generate this many, so each covers tens of
/// milliseconds whatever the workload's table size.
const SETUP_SAMPLE_ROWS: usize = 1_000_000;

/// Open-loop rate ladder, in queries per second. The first rung is the
/// nominal rate at which latency is reported; it gets [`NOMINAL_SHARE`]
/// of the run and the other rungs split the rest.
const LADDER: [f64; 3] = [50.0, 75.0, 100.0];

/// Share of an open-loop run spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.6;

/// Mixed into the seed by `--held-out`.
const HELD_OUT_SALT: u64 = 0x4e1d_0075_eed0_0001;

struct Args {
    workload: Workload,
    seed: u64,
    held_out: bool,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: e2e-bench --workload <olap-local|olap-dist|serve-open> --seed <n> \
     --seconds <s> --trace <0|1> [--held-out]\n       e2e-bench --smoke"
        .to_string()
}

enum Mode {
    Run(Args),
    Smoke,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut held_out = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--smoke" => return Ok(Mode::Smoke),
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--held-out" => held_out = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        held_out,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// The outcome of one run: the result line's fields.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    /// Why `correct` is false, if it is.
    problems: Vec<String>,
}

impl Outcome {
    fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Client connections: one per core, one thread each.
fn connections() -> usize {
    nproc()
}

/// The commit the checkout was built from, read from `.git` in the
/// working directory without running git (unknown outside a checkout).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance_line(a: &Args, seed: u64) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"held_out\": {}, \"data_seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"pool_threads\": {}, \"connections\": {}, \
         \"rustc\": {}, \"git_commit\": {}, \"started_unix_s\": {}}}}}",
        stats::json_string(a.workload.name()),
        a.seed,
        a.held_out,
        seed,
        stats::json_number(a.seconds),
        a.trace as u8,
        nproc(),
        pool::global_threads(),
        connections(),
        stats::json_string(env!("E2E_RUSTC_VERSION")),
        stats::json_string(&git_commit()),
        unix
    )
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Builds the rig over and over, returning the last one and the set-up
/// time in seconds: the median over [`SETUP_SAMPLES`] samples of the
/// mean time of one sample's set-ups, after [`SETUP_WARMUP_SAMPLES`]
/// discarded ones. Shutting a rig down is not timed.
fn set_up(w: Workload, seed: u64) -> (Rig, f64) {
    let per_sample = SETUP_SAMPLE_ROWS.div_ceil(w.event_rows()).max(1);
    let mut samples = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_WARMUP_SAMPLES + SETUP_SAMPLES {
        let mut spent = 0.0;
        for _ in 0..per_sample {
            if let Some(old) = rig.take() {
                Rig::shutdown(old);
            }
            let t = Instant::now();
            rig = Some(Rig::build(w, seed, connections()));
            spent += t.elapsed().as_secs_f64();
        }
        samples.push(spent / per_sample as f64);
    }
    let timed = &samples[SETUP_WARMUP_SAMPLES..];
    (rig.expect("at least one set-up"), stats::median(timed))
}

/// Per-statement verdicts: every statement that was answered is checked
/// once against the oracle (and, when the server is distributed, for
/// byte-identity with the local engine), and every client's first
/// answer must equal every other's. Runs after the timed window.
fn check_statements(
    rig: &Rig,
    pool: &[Template],
    logs: &[&ClientLog],
    problems: &mut Vec<String>,
) -> Vec<bool> {
    let mut firsts: BTreeMap<usize, Vec<&RecordBatch>> = BTreeMap::new();
    for log in logs {
        for (stmt, batch) in &log.first {
            firsts.entry(*stmt).or_default().push(batch);
        }
    }
    let mut ok = vec![true; pool.len()];
    for (stmt, answers) in firsts {
        let t = &pool[stmt];
        let first = answers[0];
        let verdict = if answers.iter().any(|b| *b != first) {
            Err("clients received different answers".to_string())
        } else if rig.workload.distributed() {
            match rig.db.query(&t.sql()) {
                Ok(local) if ipc::encode(&local) != ipc::encode(first) => {
                    Err("distributed answer is not byte-identical to the local engine".into())
                }
                Ok(_) => workload::check(first, &t.oracle(&rig.events, &rig.users), t.ordered()),
                Err(e) => Err(format!("local engine failed: {e}")),
            }
        } else {
            workload::check(first, &t.oracle(&rig.events, &rig.users), t.ordered())
        };
        if let Err(e) = verdict {
            ok[stmt] = false;
            problems.push(format!("{}: {e}", t.sql()));
        }
    }
    ok
}

/// Latencies with failed, refused and wrong queries set to infinity.
struct Scored {
    latencies_ms: Vec<f64>,
    correct: usize,
    failed: usize,
    lag_ms: Vec<f64>,
    last_done_s: f64,
}

fn score(logs: &[&ClientLog], stmt_ok: &[bool]) -> Scored {
    let mut s = Scored {
        latencies_ms: Vec::new(),
        correct: 0,
        failed: 0,
        lag_ms: Vec::new(),
        last_done_s: 0.0,
    };
    for log in logs {
        for (i, smp) in log.samples.iter().enumerate() {
            let good = smp.answered && stmt_ok[smp.stmt] && !log.differed.contains(&i);
            let lat = if good { smp.latency_ms } else { f64::INFINITY };
            s.latencies_ms.push(lat);
            s.lag_ms.push(smp.lag_ms);
            s.last_done_s = s.last_done_s.max(smp.done_s);
            if good {
                s.correct += 1;
            } else {
                s.failed += 1;
            }
        }
    }
    s
}

/// The simulated cluster's completion time for a fixed seeded list of
/// the workload's statements, run through `Session::sql_distributed`
/// with the workload's session configuration. Virtual time: identical
/// for identical seeds.
fn virtual_makespans_us(rig: &Rig, pool: &[Template], problems: &mut Vec<String>) -> Vec<f64> {
    let session = load::session(rig.workload);
    pool.iter()
        .filter_map(|t| match session.sql_distributed(&rig.db, &t.sql()) {
            Ok(run) => Some(run.report.stats.makespan.as_micros_f64()),
            Err(e) => {
                problems.push(format!("virtual list: {}: {e}", t.sql()));
                None
            }
        })
        .collect()
}

/// Runs the open-loop ladder over `seconds`.
fn ladder(rig: &mut Rig, pool: &[Template], seed: u64, seconds: f64) -> Vec<load::StepRun> {
    LADDER
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let share = if i == 0 {
                NOMINAL_SHARE
            } else {
                (1.0 - NOMINAL_SHARE) / (LADDER.len() - 1) as f64
            };
            load::open_loop(
                &mut rig.clients,
                &rig.server,
                pool,
                seed,
                rate,
                seconds * share,
            )
        })
        .collect()
}

fn run_end_to_end(a: &Args, seed: u64) -> Outcome {
    let w = a.workload;
    let (mut rig, setup_s) = set_up(w, seed);
    let pool = workload::pool(w, seed);
    let mut problems = Vec::new();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");

    // The served workload's peak, read before the checks and the
    // virtual-time list allocate their own working sets.
    let peak_rss;
    let (scored, qps, sustained) = match w {
        Workload::OlapLocal | Workload::OlapDist => {
            let (logs, _) =
                load::closed_loop(&mut rig.clients, &rig.server, &pool, seed, a.seconds);
            peak_rss = peak_rss_mb();
            let refs: Vec<&ClientLog> = logs.iter().collect();
            let stmt_ok = check_statements(&rig, &pool, &refs, &mut problems);
            let s = score(&refs, &stmt_ok);
            let qps = s.correct as f64 / s.last_done_s.max(1e-9);
            (s, qps, None)
        }
        Workload::ServeOpen => {
            let steps = ladder(&mut rig, &pool, seed, a.seconds);
            peak_rss = peak_rss_mb();
            let refs: Vec<&ClientLog> = steps.iter().flat_map(|s| s.logs.iter()).collect();
            let stmt_ok = check_statements(&rig, &pool, &refs, &mut problems);
            let mut rungs = Vec::new();
            let mut all = None;
            for (i, st) in steps.iter().enumerate() {
                let step_refs: Vec<&ClientLog> = st.logs.iter().collect();
                let s = score(&step_refs, &stmt_ok);
                let mut p99 = percentile(&s.latencies_ms, 99.0).unwrap_or(f64::INFINITY);
                if st.unsent > 0 {
                    p99 = f64::INFINITY;
                }
                rungs.push(Step {
                    rate: st.rate,
                    achieved: s.correct as f64 / s.last_done_s.max(1e-9),
                    p99_ms: p99,
                    growing: stats::backlog_growing(&st.backlog),
                });
                eprintln!(
                    "rung {:.0}/s: {} answered, p99 {:.2} ms, backlog growing {}, unsent {}",
                    st.rate, s.correct, p99, rungs[i].growing, st.unsent
                );
                if i == 0 {
                    all = Some(s);
                } else if let Some(n) = all.as_mut() {
                    // Every rung's queries count toward attempted and
                    // failed; latency is reported at the nominal rung.
                    n.correct += s.correct;
                    n.failed += s.failed;
                }
            }
            let nominal = all.expect("ladder has a nominal rung");
            let qps = rungs[0].achieved;
            let sustained = stats::sustained_rate(&rungs).unwrap_or(0.0);
            (nominal, qps, Some(sustained))
        }
    };
    let beyond = stats::samples_beyond(&scored.latencies_ms, 99.0);
    if beyond < 10 {
        eprintln!("note: only {beyond} samples beyond p99; lengthen --seconds for a trusted p99");
    }
    m.put("qps", qps, "1/s");
    if let Some(sustained) = sustained {
        m.put("sustained_qps", sustained, "1/s");
    }
    m.put(
        "latency_p50_ms",
        percentile(&scored.latencies_ms, 50.0).unwrap_or(f64::INFINITY),
        "ms",
    );
    m.put(
        "latency_p99_ms",
        percentile(&scored.latencies_ms, 99.0).unwrap_or(f64::INFINITY),
        "ms",
    );

    let virt = virtual_makespans_us(&rig, &pool, &mut problems);
    m.put(
        "virt_makespan_p50_us",
        percentile(&virt, 50.0).unwrap_or(f64::NAN),
        "us",
    );
    // The p99 of the list is its costliest plan's simulated critical
    // path. On olap-dist that is the join plan, whose critical path is
    // priced from the plan's estimates while its network stalls stay off
    // it: 196.103 us for every seed. A value that never moves is logged,
    // not reported as a measurement.
    eprintln!(
        "virtual list: {} statements, makespan p99 {:.3} us",
        virt.len(),
        percentile(&virt, 99.0).unwrap_or(f64::NAN)
    );
    m.put("peak_rss_mb", peak_rss, "MiB");
    rig.shutdown();

    let attempted = scored.correct + scored.failed;
    if scored.failed > 0 {
        problems.push(format!(
            "{} of {attempted} queries failed or were wrong",
            scored.failed
        ));
    }
    Outcome {
        correct: problems.is_empty() && attempted > 0,
        attempted: attempted.max(1),
        failed: scored.failed,
        metrics: m,
        problems,
    }
}

/// The range `trace.coverage` must fall in: the served path's layer
/// self times, summed over the traced statements, against the same
/// statements' untraced wire round trips. Below it, the layers miss part
/// of what the served path does (transport, admission, handler dispatch
/// and scheduling sit outside every layer); above it, the mirror does
/// work the served path does not.
const COVERAGE_RANGE: (f64, f64) = (0.85, 1.15);

/// Rounds over the statement pool a traced run makes however short it
/// is. One statement's wire and mirror times differ by up to a third on
/// a busy host, in either direction; summed over several rounds they
/// agree to within a few percent.
const MIN_TRACED_ROUNDS: usize = 3;

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in v {
        sum += x;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// The traced run: a loaded phase (30% of the run) for the generator
/// and admission metrics, then rounds over the statement pool until the
/// run's time is spent, and at least [`MIN_TRACED_ROUNDS`]. Each round
/// sends every statement alone over the wire (untraced), traces it
/// through the served path's mirror, and times the direct engine call
/// the server makes; all three answers must be byte-identical. Last, the
/// other engine's mirror runs once over the pool, off the served path.
/// The rounds and the off-path mirror run with the worker pool at one
/// thread (see `traced.rs`).
fn traced_run(a: &Args, seed: u64) -> Outcome {
    let w = a.workload;
    let mut rig = Rig::build(w, seed, connections());
    let pool = workload::pool(w, seed);
    let cfg = load::server_config(w);
    let session = load::session(w);
    let mut problems = Vec::new();
    let mut m = Metrics::default();
    let started = Instant::now();

    // Loaded phase: the workload's own traffic for 30% of the run.
    let load_s = a.seconds * 0.3;
    let (logs, queue_max) = match w {
        Workload::OlapLocal | Workload::OlapDist => {
            load::closed_loop(&mut rig.clients, &rig.server, &pool, seed, load_s)
        }
        Workload::ServeOpen => {
            let st = load::open_loop(
                &mut rig.clients,
                &rig.server,
                &pool,
                seed,
                LADDER[0],
                load_s,
            );
            (st.logs, st.queue_max)
        }
    };
    let refs: Vec<&ClientLog> = logs.iter().collect();
    let stmt_ok = check_statements(&rig, &pool, &refs, &mut problems);
    let loaded = score(&refs, &stmt_ok);
    let (mut attempted, mut failed) = (loaded.correct + loaded.failed, loaded.failed);

    // Traced rounds until the run's time is spent. Per statement: the
    // untraced wire round trip, the served path's mirror, and the direct
    // engine call the server makes, back to back.
    let conns = rig.clients.len();
    let mut wire_us = Vec::new();
    let mut local: Vec<traced::LocalTrace> = Vec::new();
    let mut dist: Vec<traced::DistTrace> = Vec::new();
    let mut served_total = Vec::new();
    let mut served_layers = 0.0;
    let mut served_wire_us = 0.0;
    // Per statement: the fastest wire round trip and the fastest direct
    // engine call seen over the rounds; their gap is the front door's cost.
    let mut best_wire = vec![f64::INFINITY; pool.len()];
    let mut best_direct = vec![f64::INFINITY; pool.len()];
    let pool_threads = pool::global_threads();
    pool::set_global_threads(1);
    let mut round = 0;
    while round < MIN_TRACED_ROUNDS || started.elapsed().as_secs_f64() < a.seconds {
        for (i, t) in pool.iter().enumerate() {
            let stmt = t.sql();
            attempted += 1;
            let c = Instant::now();
            let wired = rig.clients[i % conns].query(&stmt);
            let w_us = c.elapsed().as_secs_f64() * 1e6;
            wire_us.push(w_us);

            let caps = load::client_caps(w, i % conns);
            let mirrored = if w.distributed() {
                traced::dist_mirror(
                    &session,
                    w.parallelism(),
                    &rig.db,
                    &stmt,
                    cfg.block_rows,
                    caps,
                )
                .map(|d| {
                    served_total.push(d.total_us);
                    served_layers += d.layers_us();
                    served_wire_us += w_us;
                    let b = d.wire_batch.clone();
                    dist.push(d);
                    b
                })
            } else {
                traced::local_mirror(&rig.db, &stmt, cfg.block_rows, caps).map(|l| {
                    served_total.push(l.total_us);
                    served_layers += l.layers_us();
                    served_wire_us += w_us;
                    let b = l.wire_batch.clone();
                    local.push(l);
                    b
                })
            };

            let c = Instant::now();
            let direct = if w.distributed() {
                session
                    .sql_distributed(&rig.db, &stmt)
                    .map(|r| r.batch)
                    .map_err(|e| e.to_string())
            } else {
                rig.db.query(&stmt).map_err(|e| e.to_string())
            };
            best_wire[i] = best_wire[i].min(w_us);
            best_direct[i] = best_direct[i].min(c.elapsed().as_secs_f64() * 1e6);

            let verdict = match (&wired, &mirrored, &direct) {
                (Ok(wired), Ok(mirrored), Ok(direct)) => {
                    let wired = ipc::encode(&wired.batch);
                    if ipc::encode(mirrored) != wired {
                        Err("the traced mirror's answer differs from the wire's".to_string())
                    } else if ipc::encode(direct) != wired {
                        Err("the direct engine's answer differs from the wire's".to_string())
                    } else {
                        Ok(())
                    }
                }
                (Err(e), _, _) => Err(format!("wire: {e}")),
                (_, Err(e), _) => Err(format!("mirror: {e}")),
                (_, _, Err(e)) => Err(format!("direct engine: {e}")),
            };
            if let Err(e) = verdict {
                failed += 1;
                problems.push(format!("{stmt}: {e}"));
            }
        }
        round += 1;
    }

    // Off the served path: the other engine's layers, on the same data.
    if w.distributed() {
        for t in &pool {
            match traced::local_mirror(&rig.db, &t.sql(), cfg.block_rows, load::client_caps(w, 0)) {
                Ok(l) => local.push(l),
                Err(e) => problems.push(format!("local mirror: {}: {e}", t.sql())),
            }
        }
    } else {
        for t in &pool {
            match traced::dist_mirror(
                &session,
                w.parallelism(),
                &rig.db,
                &t.sql(),
                cfg.block_rows,
                load::client_caps(w, 0),
            ) {
                Ok(d) => dist.push(d),
                Err(e) => problems.push(format!("distributed mirror: {}: {e}", t.sql())),
            }
        }
    }
    pool::set_global_threads(pool_threads);
    rig.shutdown();

    let coverage = served_layers / served_wire_us;
    let (lo, hi) = COVERAGE_RANGE;
    if !(lo..=hi).contains(&coverage) {
        problems.push(format!(
            "trace.coverage {coverage:.3} is outside [{lo}, {hi}]"
        ));
    }
    let served_wire: Vec<&traced::WireTrace> = if w.distributed() {
        dist.iter()
            .take(served_total.len())
            .map(|d| &d.wire)
            .collect()
    } else {
        local
            .iter()
            .take(served_total.len())
            .map(|l| &l.wire)
            .collect()
    };

    m.put(
        "sql.parse_us",
        if w.distributed() {
            mean(dist.iter().map(|d| d.parse_us))
        } else {
            mean(local.iter().map(|l| l.parse_us))
        },
        "us",
    );
    m.put("sql.plan_us", mean(dist.iter().map(|d| d.plan_us)), "us");
    m.put(
        "flowgraph.optimize_us",
        mean(dist.iter().map(|d| d.optimize_us)),
        "us",
    );
    m.put(
        "flowgraph.lower_us",
        mean(dist.iter().map(|d| d.lower_us)),
        "us",
    );
    m.put(
        "flowgraph.physical_tasks",
        mean(dist.iter().map(|d| d.physical_tasks as f64)),
        "count",
    );
    for class in traced::EXEC_CLASSES {
        let v = mean(
            local
                .iter()
                .map(|l| l.ops_us.get(class).copied().unwrap_or(0.0)),
        );
        m.put(&format!("exec.{class}_us"), v, "us");
    }
    m.put(
        "exec.rest_us",
        mean(local.iter().map(|l| l.exec_rest_us)),
        "us",
    );
    m.put(
        "exec.rows_examined_per_row_out",
        local.iter().map(|l| l.rows_examined as f64).sum::<f64>()
            / local
                .iter()
                .map(|l| l.rows_out as f64)
                .sum::<f64>()
                .max(1.0),
        "ratio",
    );
    for class in traced::SHARD_CLASSES {
        let v = mean(
            dist.iter()
                .map(|d| d.shard_us.get(class).copied().unwrap_or(0.0)),
        );
        m.put(&format!("shard.{class}_us"), v, "us");
    }
    m.put(
        "shard.skew",
        stats::median(&dist.iter().map(|d| d.skew).collect::<Vec<_>>()),
        "ratio",
    );
    m.put(
        "dataplane.codec_us",
        mean(dist.iter().map(|d| d.codec_us)),
        "us",
    );
    m.put(
        "dataplane.collect_us",
        mean(dist.iter().map(|d| d.collect_us)),
        "us",
    );
    m.put(
        "dataplane.shuffle_bytes",
        mean(dist.iter().map(|d| d.shuffle_bytes as f64)),
        "B",
    );
    m.put(
        "dataplane.shuffle_bytes_per_input_byte",
        dist.iter().map(|d| d.shuffle_bytes as f64).sum::<f64>()
            / dist
                .iter()
                .map(|d| d.input_bytes as f64)
                .sum::<f64>()
                .max(1.0),
        "ratio",
    );
    m.put(
        "runtime.setup_us",
        mean(dist.iter().map(|d| d.runtime_setup_us)),
        "us",
    );
    m.put(
        "runtime.loop_us",
        mean(dist.iter().map(|d| d.loop_us)),
        "us",
    );
    m.put(
        "runtime.tasks",
        mean(dist.iter().map(|d| d.tasks as f64)),
        "count",
    );
    m.put(
        "runtime.retries",
        mean(dist.iter().map(|d| d.retries as f64)),
        "count",
    );
    m.put(
        "dcsim.virt_makespan_us",
        mean(dist.iter().map(|d| d.virt_makespan_us)),
        "us",
    );
    m.put(
        "dcsim.virt_stall_us",
        mean(dist.iter().map(|d| d.virt_stall_us)),
        "us",
    );
    m.put(
        "dcsim.virt_compute_us",
        mean(dist.iter().map(|d| d.virt_compute_us)),
        "us",
    );
    m.put(
        "dcsim.net_bytes",
        mean(dist.iter().map(|d| d.net_bytes as f64)),
        "B",
    );
    m.put(
        "wire.encode_us",
        mean(served_wire.iter().map(|t| t.encode_us)),
        "us",
    );
    m.put(
        "wire.decode_us",
        mean(served_wire.iter().map(|t| t.decode_us)),
        "us",
    );
    m.put(
        "wire.bytes_per_row",
        served_wire
            .iter()
            .map(|t| t.payload_bytes as f64)
            .sum::<f64>()
            / served_wire
                .iter()
                .map(|t| t.rows as f64)
                .sum::<f64>()
                .max(1.0),
        "B/row",
    );
    let compressed: Vec<&&traced::WireTrace> =
        served_wire.iter().filter(|t| t.compressed).collect();
    m.put(
        "wire.compress_ratio",
        compressed.iter().map(|t| t.frame_bytes as f64).sum::<f64>()
            / compressed
                .iter()
                .map(|t| t.payload_bytes as f64)
                .sum::<f64>()
                .max(1.0),
        "ratio",
    );
    m.put(
        "wire.blocks",
        mean(served_wire.iter().map(|t| t.blocks as f64)),
        "count",
    );
    m.put(
        "server.overhead_us",
        mean(best_wire.iter().zip(&best_direct).map(|(w, d)| w - d)),
        "us",
    );
    m.put("server.queue_max", queue_max as f64, "count");
    m.put(
        "loadgen.lag_p99_ms",
        percentile(&loaded.lag_ms, 99.0).unwrap_or(f64::NAN),
        "ms",
    );
    m.put("trace.coverage", coverage, "ratio");
    m.put(
        "trace.overhead",
        stats::median(&served_total) / stats::median(&wire_us),
        "ratio",
    );
    m.put("trace.statements", served_total.len() as f64, "count");

    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: m,
        problems,
    }
}

fn run(a: &Args) -> ExitCode {
    let seed = if a.held_out {
        a.seed ^ HELD_OUT_SALT
    } else {
        a.seed
    };
    let outcome = if a.trace {
        traced_run(a, seed)
    } else {
        run_end_to_end(a, seed)
    };
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", provenance_line(a, seed));
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

/// Brief runs of every workload in both modes with every check on.
fn smoke() -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = Args {
                workload: w,
                seed: 1,
                held_out: false,
                seconds: 2.0,
                trace,
            };
            let o = if trace {
                traced_run(&a, a.seed)
            } else {
                run_end_to_end(&a, a.seed)
            };
            for p in &o.problems {
                eprintln!("{} trace={}: {p}", w.name(), trace as u8);
            }
            println!("{} trace={}: {}", w.name(), trace as u8, o.result_line());
            ok &= o.correct && o.failed == 0;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Allocates and frees one 16 MiB block before any measurement. glibc
/// raises its mmap threshold to the largest mmapped block freed so far
/// (up to 32 MiB), so a process drifts from mapping every large table
/// buffer afresh to reusing heap memory over its first set-ups and
/// queries, and set-up times fell by half partway through a run. After
/// this one free, every set-up and query runs in the state a long-lived
/// process settles in. Other allocators just free the block.
fn settle_allocator() {
    drop(std::hint::black_box(vec![1u8; 16 << 20]));
}

fn main() -> ExitCode {
    settle_allocator();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Mode::Smoke) => smoke(),
        Ok(Mode::Run(a)) => run(&a),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
