//! `serve-mixed`: the release `ringmesh serve --listen` on a fresh cache
//! directory with `--threads` = available parallelism, driven by one TCP
//! client in a closed loop that alternates two kinds of batch.
//!
//! * A miss batch carries fresh seeds, derived from the run seed, for
//!   each of the four 16-PM topologies: simulate and cache write.
//! * A hit batch resubmits the miss batch just answered: cache reads and
//!   JSON, no simulation. It must come back byte-identical.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringmesh::figures::crossover_specs;
use ringmesh::{run_points_with, Scale, System, SystemConfig, WorkerPool};
use ringmesh_engine::SimRng;
use ringmesh_serve::json::Json;
use ringmesh_serve::parse_job;

use crate::ledger::Ledger;
use crate::report::{
    median, metric, proc_status_mb, required_percentile, Checks, Metric, Outcome, Pacer,
};

/// Servers started per run; the median start-up is `setup_s` and the
/// last one serves the session.
const STARTS: usize = 7;

/// Rounds (one miss batch, one hit batch) per run at least: enough
/// batches of each kind for a median with ten samples beyond it.
const MIN_ROUNDS: usize = 20;

/// Rounds per traced session: enough batches of each kind for a p90
/// with ten samples beyond it.
const TRACE_ROUNDS: usize = 110;

/// Rounds of the traced session whose miss jobs are replayed in-process.
const REPLAY_ROUNDS: usize = 40;

/// A running `ringmesh serve --listen` process with its own cache.
struct Server {
    child: Child,
    /// The first connection, which the session uses.
    conn: Conn,
    cache_dir: PathBuf,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server and returns it with the host seconds from spawn
    /// until its first connection was accepted and answered.
    fn start(bin: &Path, cache_dir: PathBuf) -> Result<(Server, f64), String> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .arg("--cache")
            .arg(&cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix("ringmesh serve: listening on ") {
                        break a.trim().to_string();
                    }
                    eprintln!("{line}");
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("ringmesh serve exited before listening".into());
                }
            }
        };
        // Keep draining the server's diagnostics so it never blocks.
        let stderr = std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("[serve] {line}");
            }
        });
        let conn = match Conn::open(&addr) {
            Ok(c) => c,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = stderr.join();
                return Err(e);
            }
        };
        let mut server = Server {
            child,
            conn,
            cache_dir,
            stderr: Some(stderr),
        };
        let stats = server.conn.stats()?;
        let setup = t.elapsed().as_secs_f64();
        if stats.get("event").and_then(Json::as_str) != Some("stats") {
            return Err(format!("unexpected first reply {stats:?}"));
        }
        Ok((server, setup))
    }

    /// Peak resident set of the server process so far, in MB.
    fn peak_rss_mb(&self) -> Option<f64> {
        proc_status_mb(Some(self.child.id()), "VmHWM")
    }

    /// Asks the server to wind down, then waits for it (killing it if
    /// it does not exit within ten seconds) and for its stderr drain.
    fn stop(&mut self) {
        // Read the `bye` before closing: a server whose goodbye hits a
        // closed socket ends the session without winding down.
        if self.conn.send("{\"op\":\"shutdown\"}\n").is_ok() {
            let _ = self.conn.line();
        }
        let _ = self.conn.writer.shutdown(std::net::Shutdown::Both);
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// One client connection speaking the line-JSON protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One `accepted` or `result` event.
#[derive(Debug)]
struct Event {
    id: String,
    cached: bool,
    /// The result payload, verbatim; empty for `accepted`.
    payload: String,
    /// Seconds after the batch was sent.
    at: f64,
}

/// What the server answered to one batch, stamped at the client.
#[derive(Debug, Default)]
struct Reply {
    seconds: f64,
    accepted: Vec<Event>,
    results: Vec<Event>,
    fingerprint: String,
    /// `error`, `busy` and `interrupted` outcomes.
    failed: u64,
    /// Size of the batch journal when the first result arrived.
    journal_bytes: u64,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        self.send("{\"op\":\"stats\"}\n")?;
        Json::parse(&self.line()?)
    }

    /// Submits `jobs` (one job line each) plus `run`, and reads events
    /// until the closing `batch` summary. `journal` is the server's
    /// write-ahead log, whose size is read when the first result lands
    /// (the server truncates it once the batch settles).
    fn batch(&mut self, jobs: &str, journal: &Path) -> Result<Reply, String> {
        let mut reply = Reply::default();
        let start = Instant::now();
        self.send(&format!("{jobs}{{\"op\":\"run\"}}\n"))?;
        loop {
            let line = self.line()?;
            let at = start.elapsed().as_secs_f64();
            let event = Json::parse(&line)?;
            let answer = |payload: &str| Event {
                id: event
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                cached: event.get("cached").and_then(Json::as_bool) == Some(true),
                payload: payload.to_string(),
                at,
            };
            match event.get("event").and_then(Json::as_str) {
                Some("accepted") => reply.accepted.push(answer("")),
                Some("result") => {
                    // The payload is spliced in verbatim after "data":.
                    let payload = line
                        .split_once(",\"data\":")
                        .and_then(|(_, rest)| rest.strip_suffix('}'))
                        .ok_or("result event without data")?;
                    if reply.results.is_empty() {
                        reply.journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
                    }
                    reply.results.push(answer(payload));
                }
                Some("window") => {}
                Some("batch") => {
                    let count = |k: &str| event.get(k).and_then(Json::as_u64).unwrap_or(0);
                    reply.failed += count("errors") + count("interrupted");
                    reply.fingerprint = event
                        .get("fingerprint")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string();
                    reply.seconds = at;
                    return Ok(reply);
                }
                _ => {
                    eprintln!("serve-mixed: unexpected event {line}");
                    reply.failed += 1;
                }
            }
        }
    }
}

/// The four 16-PM topologies of the crossover study.
fn topologies() -> Vec<String> {
    crossover_specs(Scale::quick())
        .into_iter()
        .filter_map(|(_, specs)| specs.into_iter().find(|&(p, _)| p == 16).map(|(_, s)| s))
        .collect()
}

/// The job lines of miss batch `round`: one per topology, each with its
/// own seed derived from the run seed (kept below 2^53 so the protocol's
/// JSON numbers carry it exactly).
fn miss_jobs(seed: u64, round: usize, topologies: &[String]) -> Vec<String> {
    let root = SimRng::from_seed(seed);
    topologies
        .iter()
        .enumerate()
        .map(|(k, topo)| {
            let s = root.stream((round * topologies.len() + k) as u64).seed() >> 12;
            format!(
                "{{\"op\":\"job\",\"id\":\"r{round}j{k}\",\"topology\":\"{topo}\",\
                 \"cache_line\":64,\"scale\":\"quick\",\"seed\":{s}}}\n"
            )
        })
        .collect()
}

fn config_of(line: &str) -> Result<SystemConfig, String> {
    let json = Json::parse(line.trim_end())?;
    Ok(parse_job(&json, "job")?.cfg)
}

fn payload_fingerprint(payload: &str) -> Result<u64, String> {
    let json = Json::parse(payload)?;
    let hex = json
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("payload without fingerprint")?;
    u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

/// Checks a miss/hit pair: every job answered once, fresh then cached,
/// and the hit batch byte-identical to the miss batch.
fn check_round(checks: &mut Checks, round: usize, jobs: usize, miss: &Reply, hit: &Reply) {
    let all = |r: &Reply, cached: bool| {
        r.results.len() == jobs
            && r.accepted.len() == jobs
            && r.results.iter().all(|e| e.cached == cached)
            && r.accepted.iter().all(|e| e.cached == cached)
    };
    checks.expect(all(miss, false), || {
        format!("round {round}: miss batch was not {jobs} fresh results")
    });
    checks.expect(all(hit, true), || {
        format!("round {round}: hit batch was not {jobs} cached results")
    });
    checks.expect(
        !miss.fingerprint.is_empty() && miss.fingerprint == hit.fingerprint,
        || {
            format!(
                "round {round}: hit fingerprint {} != miss fingerprint {}",
                hit.fingerprint, miss.fingerprint
            )
        },
    );
    let same = miss
        .results
        .iter()
        .zip(&hit.results)
        .all(|(m, h)| m.id == h.id && m.payload == h.payload);
    checks.expect(same, || format!("round {round}: cached payloads differ"));
}

/// One closed-loop session of miss/hit pairs, one per round `pacer`
/// grants.
struct Session {
    misses: Vec<Reply>,
    hits: Vec<Reply>,
    lines: Vec<String>,
    failed: u64,
}

fn session(
    server: &mut Server,
    seed: u64,
    pacer: &mut Pacer,
    checks: &mut Checks,
) -> Result<Session, String> {
    let journal = server.cache_dir.join("journal.wal");
    let topos = topologies();
    let mut s = Session {
        misses: Vec::new(),
        hits: Vec::new(),
        lines: Vec::new(),
        failed: 0,
    };
    while pacer.more() {
        let round = pacer.rounds() - 1;
        let jobs = miss_jobs(seed, round, &topos);
        let text = jobs.concat();
        let miss = server.conn.batch(&text, &journal)?;
        let hit = server.conn.batch(&text, &journal)?;
        check_round(checks, round, jobs.len(), &miss, &hit);
        s.failed += miss.failed + hit.failed;
        s.misses.push(miss);
        s.hits.push(hit);
        s.lines.extend(jobs);
    }
    Ok(s)
}

/// Checks the server's own counters against what the client sent.
fn check_stats(checks: &mut Checks, stats: &Json, hits: usize, misses: usize) {
    let n = |k: &str| stats.get(k).and_then(Json::as_u64);
    checks.expect(n("cache_hits") == Some(hits as u64), || {
        format!("stats cache_hits {:?}, client sent {hits}", n("cache_hits"))
    });
    checks.expect(n("cache_misses") == Some(misses as u64), || {
        format!(
            "stats cache_misses {:?}, client sent {misses}",
            n("cache_misses")
        )
    });
}

/// A fresh cache directory inside the checkout.
fn cache_dir(work: &Path, i: usize) -> PathBuf {
    work.join(format!("serve-{}-{i}", std::process::id()))
}

/// Starts [`STARTS`] servers; returns the last, still running, with the
/// median start-up time.
fn start_servers(bin: &Path, work: &Path) -> Result<(Server, f64), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..STARTS {
        let (server, setup) = Server::start(bin, cache_dir(work, i))?;
        setups.push(setup);
        last = Some(server);
    }
    Ok((last.expect("at least one start"), median(&setups)))
}

pub fn run(bin: &Path, work: &Path, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut pacer = Pacer::new(seconds, MIN_ROUNDS);
    let mut checks = Checks::default();
    let (mut server, setup) = start_servers(bin, work)?;
    let s = session(&mut server, seed, &mut pacer, &mut checks)?;
    let jobs = s.lines.len();
    check_stats(&mut checks, &server.conn.stats()?, jobs, jobs);

    // One sampled job, chosen by the seed, against an in-process run.
    let pick = SimRng::from_seed(seed).uniform_usize(jobs);
    let sampled = System::new(config_of(&s.lines[pick])?)
        .and_then(System::run)
        .map_err(|e| e.to_string())?;
    let rounds = s.misses.len();
    let per_round = jobs / rounds;
    let payload = &s.misses[pick / per_round].results[pick % per_round].payload;
    checks.same_fingerprint(
        &format!("sampled job {pick} vs in-process run"),
        sampled.fingerprint(),
        payload_fingerprint(payload)?,
    );

    let peak = server
        .peak_rss_mb()
        .ok_or("no /proc status for the server")?;
    drop(server);

    let secs = |v: &[Reply]| v.iter().map(|r| r.seconds).collect::<Vec<_>>();
    let (miss_s, hit_s) = (secs(&s.misses), secs(&s.hits));
    let rounds_s: Vec<f64> = miss_s.iter().zip(&hit_s).map(|(m, h)| m + h).collect();
    let (miss, round) = (median(&miss_s), median(&rounds_s));
    let horizon = Scale::quick().sim.horizon() as f64;
    let metrics = vec![
        metric("setup_s", setup, "s"),
        metric("peak_rss_mb", peak, "MB"),
        metric("wall_s", round, "s"),
        metric("points_per_s", per_round as f64 / miss, "1/s"),
        metric("sim_cycles_per_s", per_round as f64 * horizon / miss, "1/s"),
        metric(
            "hit_batch_p50_ms",
            1e3 * required_percentile("hit batches", &hit_s, 0.5)?,
            "ms",
        ),
        metric(
            "miss_batch_p50_ms",
            1e3 * required_percentile("miss batches", &miss_s, 0.5)?,
            "ms",
        ),
        metric("jobs_per_s", (2 * per_round) as f64 / round, "1/s"),
    ];
    eprintln!(
        "serve-mixed: {rounds} rounds of {per_round} jobs, {} hit and {} miss batches",
        hit_s.len(),
        miss_s.len()
    );
    Ok(Outcome {
        correct: checks.passed() && s.failed == 0,
        attempted: (2 * jobs) as u64,
        failed: s.failed,
        metrics,
    })
}

/// The serve layer's per-layer metrics, in reporting order.
const SERVE_METRICS: [(&str, &str); 10] = [
    ("serve.hit_batch_p90_ms", "ms"),
    ("serve.miss_batch_p90_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.first_result_ms", "ms"),
    ("serve.hit_result_ms", "ms"),
    ("serve.miss_result_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_bytes_per_entry", "B"),
    ("serve.journal_bytes", "B"),
];

fn serve_metrics(values: [f64; 10]) -> Vec<Metric> {
    SERVE_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, v, unit))
        .collect()
}

/// Serve-layer metrics for a workload that never starts a server.
pub fn idle_metrics() -> Vec<Metric> {
    serve_metrics([0.0; 10])
}

pub fn trace(bin: &Path, work: &Path, seed: u64) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let (mut server, _) = Server::start(bin, cache_dir(work, 0))?;
    let s = session(
        &mut server,
        seed,
        &mut Pacer::new(0, TRACE_ROUNDS),
        &mut checks,
    )?;
    let jobs = s.lines.len();
    let stats = server.conn.stats()?;
    check_stats(&mut checks, &stats, jobs, jobs);
    drop(server);
    let journal: Vec<f64> = s.misses.iter().map(|r| r.journal_bytes as f64).collect();

    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let median_ms = |v: Vec<f64>| 1e3 * median(&v);
    let accepts = s
        .misses
        .iter()
        .chain(&s.hits)
        .filter_map(|r| r.accepted.first().map(|e| e.at))
        .collect();
    let first_results = s
        .misses
        .iter()
        .filter_map(|r| r.results.first().map(|e| e.at))
        .collect();
    let each_result = |v: &[Reply]| {
        v.iter()
            .flat_map(|r| r.results.iter().map(|e| e.at))
            .collect()
    };

    // Replay the first rounds' miss jobs in-process: traced, then
    // untraced on one sweep worker and on the default pool.
    let replayed = REPLAY_ROUNDS * jobs / TRACE_ROUNDS;
    let cfgs = s.lines[..replayed]
        .iter()
        .map(|l| config_of(l))
        .collect::<Result<Vec<_>, _>>()?;
    let payloads: Vec<&String> = s
        .misses
        .iter()
        .flat_map(|r| r.results.iter().map(|e| &e.payload))
        .collect();
    let mut ledger = Ledger::default();
    for (cfg, payload) in cfgs.iter().zip(&payloads) {
        let traced = ledger.replay(cfg).map_err(|e| e.to_string())?;
        checks.same_fingerprint(
            &format!("traced {}", cfg.network.label()),
            payload_fingerprint(payload)?,
            traced.fingerprint(),
        );
    }
    let points = || cfgs.iter().map(|c| (0.0, c.clone())).collect::<Vec<_>>();
    let t = Instant::now();
    let serial = run_points_with(&WorkerPool::new(1), "serial", points());
    let serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pooled = run_points_with(&WorkerPool::from_env(), "pooled", points());
    let pooled_s = t.elapsed().as_secs_f64();
    checks.expect(serial.len() == replayed && pooled.len() == replayed, || {
        "sweep replay skipped points".into()
    });

    let mut metrics = ledger.metrics(serial_s);
    metrics.extend([
        metric("engine.sweep_serial_s", serial_s, "s"),
        metric("engine.sweep_speedup", serial_s / pooled_s, "ratio"),
    ]);
    let secs = |v: &[Reply]| v.iter().map(|r| r.seconds).collect::<Vec<_>>();
    metrics.extend(serve_metrics([
        1e3 * required_percentile("hit batches", &secs(&s.hits), 0.9)?,
        1e3 * required_percentile("miss batches", &secs(&s.misses), 0.9)?,
        median_ms(accepts),
        median_ms(first_results),
        median_ms(each_result(&s.hits)),
        median_ms(each_result(&s.misses)),
        n("cache_hits"),
        n("cache_misses"),
        n("cache_bytes") / n("cache_entries").max(1.0),
        median(&journal),
    ]));
    metrics.extend(crate::mesh::idle_metrics());
    Ok(Outcome {
        correct: checks.passed() && s.failed == 0,
        attempted: (2 * jobs) as u64,
        failed: s.failed,
        metrics,
    })
}
