//! The front door under load: a server over the in-memory duplex
//! transport, and closed- and open-loop clients that time each
//! statement from writing its `Query` packet to reading its
//! `EndOfStream`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use skadi::arrow::batch::RecordBatch;
use skadi::dcsim::rng::DetRng;
use skadi::frontends::exec::MemDb;
use skadi::wire::packet::{CAP_COMPRESSION, CAP_PROGRESS};
use skadi::wire::{Client, DuplexStream, DEFAULT_MAX_FRAME};
use skadi::{Server, ServerConfig, Session, SessionEnd};

use crate::workload::{self, Template, Workload};

/// Everything one run measures against: data, the server, and its
/// handshaken client connections.
pub struct Rig {
    pub workload: Workload,
    pub events: RecordBatch,
    pub users: RecordBatch,
    /// The tables as the server sees them.
    pub db: MemDb,
    pub server: Arc<Server>,
    pub clients: Vec<Client<DuplexStream>>,
    handlers: Vec<JoinHandle<SessionEnd>>,
}

/// A session with the workload's configuration.
pub fn session(w: Workload) -> Session {
    Session::builder().parallelism(w.parallelism()).build()
}

/// The server configuration of a workload. The open loop gets a single
/// execution slot, so bursts wait in the front door's FIFO admission
/// queue rather than all running at once.
pub fn server_config(w: Workload) -> ServerConfig {
    let mut cfg = ServerConfig {
        distributed: w.distributed(),
        ..ServerConfig::default()
    };
    if w == Workload::ServeOpen {
        cfg.max_concurrent = 1;
    }
    cfg
}

/// Capabilities client `i` advertises: in the open loop, half the
/// connections take compressed blocks and half do not.
pub fn client_caps(w: Workload, i: usize) -> u32 {
    if w == Workload::ServeOpen && i % 2 == 1 {
        CAP_PROGRESS
    } else {
        CAP_PROGRESS | CAP_COMPRESSION
    }
}

impl Rig {
    /// Generates the data, registers the tables, starts the server and
    /// handshakes `connections` clients: the set-up the benchmark times.
    pub fn build(w: Workload, seed: u64, connections: usize) -> Rig {
        let (events, users) = workload::tables(w, seed);
        let db = MemDb::new()
            .register("events", events.clone())
            .register("users", users.clone());
        let server = Server::new(session(w), db.clone(), server_config(w));
        let mut clients = Vec::new();
        let mut handlers = Vec::new();
        for i in 0..connections {
            let (stream, handler) = server.connect();
            let client = Client::connect_with(
                stream,
                &format!("bench-{i}"),
                client_caps(w, i),
                DEFAULT_MAX_FRAME,
            )
            .expect("handshake over the in-memory transport");
            clients.push(client);
            handlers.push(handler);
        }
        Rig {
            workload: w,
            events,
            users,
            db,
            server,
            clients,
            handlers,
        }
    }

    /// Closes every connection and waits for its server handler.
    pub fn shutdown(self) {
        drop(self.clients);
        for h in self.handlers {
            let end = h.join().expect("server handler panicked");
            assert_eq!(end, SessionEnd::CleanClose, "connection ended badly");
        }
    }
}

/// One statement's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the statement pool.
    pub stmt: usize,
    /// Wall latency in ms; infinite when the server did not answer.
    pub latency_ms: f64,
    /// How late the generator sent it, in ms.
    pub lag_ms: f64,
    /// Completion time, seconds since the window opened.
    pub done_s: f64,
    /// The server answered with data (the answer is checked later).
    pub answered: bool,
}

/// What one client thread brings back.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// The first answer to each statement.
    pub first: HashMap<usize, RecordBatch>,
    /// Later answers not yet compared with the first: (sample index,
    /// answer). Comparing is kept off the timed path; see [`Self::settle`].
    pending: Vec<(usize, RecordBatch)>,
    /// How long the last comparison took.
    compare_cost: Duration,
    /// Sample indices whose answer differed from the first. Complete
    /// once the loops have returned the log.
    pub differed: Vec<usize>,
}

impl ClientLog {
    /// Sends one statement and records it, returning when it finished.
    /// `due` is when the generator meant to send it. Latency counts from
    /// `due` in the open loop and from the send in the closed loop.
    fn run(
        &mut self,
        client: &mut Client<DuplexStream>,
        stmt: usize,
        sql: &str,
        start: Instant,
        due: Instant,
        open: bool,
    ) -> Instant {
        let sent = Instant::now();
        let outcome = client.query(sql);
        let done = Instant::now();
        let answered = outcome.is_ok();
        self.samples.push(Sample {
            stmt,
            latency_ms: if answered {
                (done - if open { due } else { sent }).as_secs_f64() * 1e3
            } else {
                f64::INFINITY
            },
            lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            done_s: (done - start).as_secs_f64(),
            answered,
        });
        if let Ok(res) = outcome {
            match self.first.entry(stmt) {
                Entry::Occupied(_) => self.pending.push((self.samples.len() - 1, res.batch)),
                Entry::Vacant(e) => {
                    e.insert(res.batch);
                }
            }
        }
        done
    }

    /// Compares pending answers with the first answer to their statement.
    /// With `until`, stops while there is still time for one more
    /// comparison before it, so an open-loop client can use its wait for
    /// the next arrival without sending that arrival late; without, it
    /// compares them all.
    fn settle(&mut self, until: Option<Instant>) {
        while !self.pending.is_empty() {
            if until.is_some_and(|u| Instant::now() + self.compare_cost >= u) {
                return;
            }
            let t = Instant::now();
            let (i, batch) = self.pending.pop().expect("pending is not empty");
            if self.first[&self.samples[i].stmt] != batch {
                self.differed.push(i);
            }
            self.compare_cost = t.elapsed();
        }
    }
}

/// Closed loop: each client sends its next statement as soon as the
/// previous one finished, until `seconds` have passed. Statement choice
/// is seeded per client. The lag of a closed-loop query is the client's
/// own time between finishing one statement and sending the next.
/// Also returns the largest sampled `Admission::queued()`.
pub fn closed_loop(
    clients: &mut [Client<DuplexStream>],
    server: &Arc<Server>,
    pool: &[Template],
    seed: u64,
    seconds: f64,
) -> (Vec<ClientLog>, usize) {
    let sqls: Vec<String> = pool.iter().map(Template::sql).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let sqls = &sqls;
                scope.spawn(move || {
                    let mut rng = DetRng::seed(seed ^ (0xc11e_0000 + i as u64));
                    let mut log = ClientLog::default();
                    let mut due = Instant::now();
                    while due < deadline {
                        let stmt = rng.below(sqls.len() as u64) as usize;
                        due = log.run(client, stmt, &sqls[stmt], start, due, false);
                    }
                    log
                })
            })
            .collect();
        let mut queue_max = 0;
        while Instant::now() < deadline {
            queue_max = queue_max.max(server.admission().queued());
            thread::sleep(Duration::from_millis(20));
        }
        // Every client has stopped: the window is closed.
        let logs = threads
            .into_iter()
            .map(|t| {
                let mut log = t.join().expect("client thread panicked");
                log.settle(None);
                log
            })
            .collect();
        (logs, queue_max)
    })
}

/// One open-loop step's raw outcome.
pub struct StepRun {
    pub rate: f64,
    pub logs: Vec<ClientLog>,
    /// Queries due but not yet finished, sampled every 20 ms.
    pub backlog: Vec<f64>,
    /// The largest sampled `Admission::queued()`.
    pub queue_max: usize,
    /// Arrivals the generator never sent because the step ran out of
    /// time (a step far beyond capacity).
    pub unsent: usize,
}

/// Open loop at a fixed rate: seeded Poisson arrivals over `seconds`,
/// dealt round-robin to the clients. Each query is timed from when it
/// was due. Arrivals still unsent two seconds after the step ends are
/// abandoned and reported as `unsent`.
pub fn open_loop(
    clients: &mut [Client<DuplexStream>],
    server: &Arc<Server>,
    pool: &[Template],
    seed: u64,
    rate: f64,
    seconds: f64,
) -> StepRun {
    let n = clients.len();
    let mut rng = DetRng::seed(seed ^ (rate * 1000.0) as u64);
    // A Poisson process conditioned on its count: `rate * seconds`
    // arrival times drawn uniformly over the step, then sorted. The
    // gaps are exponential as in any Poisson stream, and every run of a
    // step offers exactly the same number of queries.
    let count = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let arrivals: Vec<(f64, usize)> = times
        .into_iter()
        .map(|t| (t, rng.below(pool.len() as u64) as usize))
        .collect();
    let due_times: Vec<f64> = arrivals.iter().map(|a| a.0).collect();
    let mut per_client: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n];
    for (k, a) in arrivals.into_iter().enumerate() {
        per_client[k % n].push(a);
    }
    let sqls: Vec<String> = pool.iter().map(Template::sql).collect();
    let completed = AtomicUsize::new(0);
    let unsent = AtomicUsize::new(0);
    let start = Instant::now();
    let give_up = start + Duration::from_secs_f64(seconds + 2.0);
    thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(per_client)
            .map(|(client, arrivals)| {
                let (sqls, completed, unsent) = (&sqls, &completed, &unsent);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for (at, stmt) in arrivals {
                        let due = start + Duration::from_secs_f64(at);
                        let now = Instant::now();
                        if now > give_up {
                            unsent.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        log.settle(Some(due));
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        log.run(client, stmt, &sqls[stmt], start, due, true);
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    log
                })
            })
            .collect();

        // Sample the backlog and the admission queue while the step runs.
        let mut backlog = Vec::new();
        let mut queue_max = 0;
        loop {
            let now = start.elapsed().as_secs_f64();
            if now >= seconds {
                break;
            }
            let due = due_times.partition_point(|&d| d <= now);
            backlog.push(due.saturating_sub(completed.load(Ordering::Relaxed)) as f64);
            queue_max = queue_max.max(server.admission().queued());
            thread::sleep(Duration::from_millis(20));
        }
        let logs = threads
            .into_iter()
            .map(|t| {
                let mut log = t.join().expect("client thread panicked");
                log.settle(None);
                log
            })
            .collect();
        StepRun {
            rate,
            logs,
            backlog,
            queue_max,
            unsent: unsent.load(Ordering::Relaxed),
        }
    })
}
