//! The service workload, `serve_mix`: a `moccml serve --workers 2`
//! daemon driven over TCP by two connections in a closed loop (each
//! waits for its reply before sending the next request), over a pool of
//! 64 distinct canonical spec texts, twice the default cache capacity.

use crate::engine_wl::{self, Expect};
use crate::util::{expected_violations, median, metric, ms, Metric, Tracer};
use crate::Outcome;
use moccml_engine::{ExploreOptions, Program, SplitMix64};
use moccml_serve::Json;
use moccml_verify::Prop;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub const PAM: &str = include_str!("../../examples/specs/pam.mcc");
pub const VERIFICATION: &str = include_str!("../../examples/specs/verification.mcc");
pub const TRACE: &str = include_str!("../../examples/specs/verification.trace");
const DRIFT: &str = crate::smc_wl::DRIFT;

/// Known answers for the small-budget `explore` requests.
const EXPECTED: &str = include_str!("../expected/serve_pool.txt");

const CONNECTIONS: usize = 2;
/// Daemon spawns timed for the set-up median.
const SETUPS: usize = 9;
const DAEMON_WORKERS: &str = "2";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    Pam,
    Protocol,
    Drift,
}

pub struct PoolSpec {
    pub text: String,
    pub family: Family,
    /// Expected `violated` per assert, from the spec's own comments.
    pub expected: Vec<bool>,
}

/// `pam.mcc` with spec name `name` and the five place capacities taken
/// from the bits of `caps` (bit set: capacity 2, else 1). Larger
/// capacities only add states: every assert keeps its verdict.
pub fn pam_variant(name: &str, caps: u32) -> String {
    let mut place = 0;
    let mut out = String::with_capacity(PAM.len() + 16);
    for line in PAM.lines() {
        if line.starts_with("spec pam {") {
            out.push_str(&format!("spec {name} {{"));
        } else if line.contains("= Place(") && line.ends_with(", 1);") {
            let cap = if caps >> place & 1 == 1 { 2 } else { 1 };
            place += 1;
            out.push_str(&format!("{}, {cap});", &line[..line.len() - ", 1);".len()]));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The 64 pool specs: the three example specs, 31 renamed capacity
/// variants of `pam.mcc` and 30 renamed copies of `verification.mcc`.
pub fn pool() -> Vec<PoolSpec> {
    let mut pool = Vec::with_capacity(64);
    let mut push = |text: String, family| {
        let expected = expected_violations(&text);
        pool.push(PoolSpec {
            text,
            family,
            expected,
        });
    };
    push(PAM.to_owned(), Family::Pam);
    for caps in 1..32 {
        push(pam_variant(&format!("pam_c{caps}"), caps), Family::Pam);
    }
    push(VERIFICATION.to_owned(), Family::Protocol);
    for i in 1..31 {
        push(
            VERIFICATION.replace("spec protocol {", &format!("spec protocol_{i} {{")),
            Family::Protocol,
        );
    }
    push(DRIFT.to_owned(), Family::Drift);
    pool
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Req {
    Check,
    Conformance,
    Lint,
    Simulate(usize),
    Explore(usize),
}

impl Req {
    fn method(self) -> &'static str {
        match self {
            Req::Check => "check",
            Req::Conformance => "conformance",
            Req::Lint => "lint",
            Req::Simulate(_) => "simulate",
            Req::Explore(_) => "explore",
        }
    }
}

/// The next request of a connection's seeded sequence.
///
/// The traffic is an assumption, not a recording: no record of real
/// workbench traffic exists to derive it from. A request picks a pool
/// spec uniformly, then a method by the spec's family, in percent:
///
/// | family   | check | conformance | lint | simulate | explore |
/// |----------|-------|-------------|------|----------|---------|
/// | pam      | 40    | —           | 20   | 20       | 20      |
/// | protocol | 30    | 30          | 15   | 15       | 10      |
/// | drift    | —     | —           | 40   | 30       | 30      |
///
/// `simulate` asks for 10–30 steps and `explore` for a budget of 8–24
/// states, uniformly. The record line carries each method's own median
/// and count, so a run can be re-weighted to another mix.
fn next_request(rng: &mut SplitMix64, pool: &[PoolSpec]) -> (usize, Req) {
    let spec = rng.next_below(pool.len());
    let roll = rng.next_below(100);
    let steps = 10 + rng.next_below(21);
    let budget = 8 + rng.next_below(17);
    let req = match pool[spec].family {
        Family::Pam => match roll {
            0..=39 => Req::Check,
            40..=59 => Req::Lint,
            60..=79 => Req::Simulate(steps),
            _ => Req::Explore(budget),
        },
        Family::Protocol => match roll {
            0..=29 => Req::Check,
            30..=59 => Req::Conformance,
            60..=74 => Req::Lint,
            75..=89 => Req::Simulate(steps),
            _ => Req::Explore(budget),
        },
        Family::Drift => match roll {
            0..=39 => Req::Lint,
            40..=69 => Req::Simulate(steps),
            _ => Req::Explore(budget),
        },
    };
    (spec, req)
}

pub fn request_line(id: &str, text: &str, req: Req) -> String {
    let mut members = vec![
        ("id", Json::str(id)),
        ("method", Json::str(req.method())),
        ("spec", Json::str(text)),
    ];
    match req {
        Req::Conformance => members.push(("trace", Json::str(TRACE))),
        Req::Simulate(n) => members.push(("steps", Json::int(n))),
        Req::Explore(n) => members.push(("max_states", Json::int(n))),
        Req::Check | Req::Lint => {}
    }
    members.push(("workers", Json::int(1)));
    Json::obj(members).to_line()
}

/// Checks one terminal line against the known answer.
fn gate(line: &str, spec: &PoolSpec, req: Req) -> Result<(), String> {
    let event = Json::parse(line).map_err(|e| format!("bad reply: {e}"))?;
    if event.get("event").and_then(Json::as_str) != Some("result") {
        return Err(format!("{} answered {line}", req.method()));
    }
    let p = event.get("result").ok_or("result without payload")?;
    let int = |k: &str| {
        p.get(k)
            .and_then(Json::as_i64)
            .and_then(|v| usize::try_from(v).ok())
    };
    let flag = |k: &str| p.get(k).and_then(Json::as_bool);
    let pinned = engine_wl::pinned(EXPECTED);
    let ok = match req {
        Req::Check => {
            let props = p.get("properties").and_then(Json::as_arr).unwrap_or(&[]);
            props.len() == spec.expected.len()
                && props.iter().zip(&spec.expected).all(|(prop, violated)| {
                    let status = prop.get("status").and_then(Json::as_str);
                    if *violated {
                        status == Some("violated") && prop.get("minimized").is_some()
                    } else {
                        status == Some("holds")
                    }
                })
                && flag("violated") == Some(spec.expected.contains(&true))
        }
        Req::Conformance => {
            p.get("verdict").and_then(Json::as_str) == Some("conforms")
                && int("steps") == Some(TRACE.lines().count())
        }
        Req::Lint => {
            int("errors") == Some(0) && int("warnings") == Some(0) && flag("failed") == Some(false)
        }
        Req::Simulate(n) => int("steps_taken") == Some(n) && flag("deadlocked") == Some(false),
        Req::Explore(n) => match spec.family {
            Family::Protocol => {
                int("states") == pinned.get("protocol_states").copied()
                    && int("transitions") == pinned.get("protocol_transitions").copied()
                    && flag("truncated") == Some(false)
            }
            // every budget is below the smallest pam and drift space
            Family::Pam | Family::Drift => {
                n < pinned["pam_min_states"]
                    && int("states") == Some(n)
                    && flag("truncated") == Some(true)
            }
        },
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "wrong answer to {} of spec #{:?}: {line}",
            req.method(),
            spec.family
        ))
    }
}

/// A running daemon: this binary re-executed as `moccml serve`.
pub struct Daemon {
    child: Child,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    pub fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut child = Command::new(exe)
            .args([
                "daemon",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                DAEMON_WORKERS,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        out.read_line(&mut banner)
            .map_err(|e| format!("no banner: {e}"))?;
        let Some(addr) = banner
            .trim()
            .strip_prefix("moccml-serve listening on ")
            .map(str::to_owned)
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected banner `{}`", banner.trim()));
        };
        // keep draining stdout so the daemon never blocks on a full pipe
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut out, &mut sink);
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits for the process to end.
    pub fn stop(mut self) -> Result<(), String> {
        let sent =
            Conn::open(&self.addr).and_then(|mut c| c.call(r#"{"id":"bye","method":"shutdown"}"#));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        sent.map(drop)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Timestamps of one request: sent, accepted, terminal.
pub struct Timed {
    pub sent: Instant,
    pub accepted: Instant,
    pub done: Instant,
    pub line: String,
}

fn event_of(line: &str) -> &str {
    line.strip_prefix("{\"event\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let writer =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request line and reads until its terminal event.
    pub fn timed(&mut self, line: &str) -> Result<Timed, String> {
        let sent = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut accepted = None;
        loop {
            let mut reply = String::new();
            let n = self
                .reader
                .read_line(&mut reply)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("the daemon hung up".into());
            }
            match event_of(&reply) {
                "accepted" => accepted = Some(Instant::now()),
                "progress" | "smc_progress" => {}
                _ => {
                    let done = Instant::now();
                    return Ok(Timed {
                        sent,
                        accepted: accepted.unwrap_or(done),
                        done,
                        line: reply.trim_end().to_owned(),
                    });
                }
            }
        }
    }

    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.timed(line).map(|t| t.line)
    }
}

/// A completed request of the closed loop.
struct Sample {
    spec: usize,
    req: Req,
    timed: Timed,
}

/// Runs one connection's closed loop until `deadline`. With `t`
/// enabled, each request is recorded as a span (with its `accept` and
/// `run` parts) as soon as its terminal event arrives.
fn client(
    addr: &str,
    seed: u64,
    conn: usize,
    pool: &[PoolSpec],
    deadline: Instant,
    t: &mut Tracer,
) -> Result<Vec<Sample>, String> {
    let mut rng = SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn as u64),
    );
    let mut c = Conn::open(addr)?;
    let mut samples = Vec::new();
    while Instant::now() < deadline {
        let (spec, req) = next_request(&mut rng, pool);
        let line = request_line(&format!("c{conn}-{}", samples.len()), &pool[spec].text, req);
        let timed = c.timed(&line)?;
        let op = (conn * 1_000_000 + samples.len()) as u64;
        let parent = t.record("request", op, None, timed.sent, timed.done);
        t.record("serve.accept", op, Some(parent), timed.sent, timed.accepted);
        t.record("serve.run", op, Some(parent), timed.accepted, timed.done);
        samples.push(Sample { spec, req, timed });
    }
    Ok(samples)
}

/// Drives the mix for `duration`, each connection tracing into a fork
/// of `tracer`; returns the samples and the wall time.
fn mix(
    addr: &str,
    seed: u64,
    pool: &[PoolSpec],
    duration: Duration,
    tracer: &mut Tracer,
) -> Result<(Vec<Sample>, Duration), String> {
    let start = Instant::now();
    let deadline = start + duration;
    let forks: Vec<Tracer> = (0..CONNECTIONS).map(|_| tracer.fork()).collect();
    let results: Vec<Result<(Vec<Sample>, Tracer), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(conn, mut t)| {
                s.spawn(move || client(addr, seed, conn, pool, deadline, &mut t).map(|v| (v, t)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let mut all = Vec::new();
    for r in results {
        let (samples, t) = r?;
        all.extend(samples);
        tracer.absorb(t);
    }
    Ok((all, wall))
}

fn status_json(addr: &str) -> Result<Json, String> {
    let line = Conn::open(addr)?.call(r#"{"id":"st","method":"status"}"#)?;
    let event = Json::parse(&line).map_err(|e| format!("bad status reply: {e}"))?;
    event
        .get("result")
        .cloned()
        .ok_or_else(|| format!("status failed: {line}"))
}

/// Gates every sample; keeps the correctly answered ones, so that no
/// time of a wrong answer is reported. Returns them and the number of
/// wrong answers.
fn gate_all(samples: Vec<Sample>, pool: &[PoolSpec]) -> (Vec<Sample>, usize) {
    let total = samples.len();
    let correct: Vec<Sample> = samples
        .into_iter()
        .filter(|s| match gate(&s.timed.line, &pool[s.spec], s.req) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("perfbench: {e}");
                false
            }
        })
        .collect();
    let failed = total - correct.len();
    (correct, failed)
}

/// Median verdict time and count of each method, so that a run can be
/// re-weighted to another traffic mix.
fn by_method(samples: &[Sample]) -> Json {
    let methods = ["check", "conformance", "lint", "simulate", "explore"];
    Json::obj(methods.map(|m| {
        let times: Vec<f64> = samples
            .iter()
            .filter(|s| s.req.method() == m)
            .map(verdict_ms)
            .collect();
        (
            m,
            Json::obj([
                ("verdict_p50_ms", Json::Float(median(&times))),
                ("count", Json::int(times.len())),
            ]),
        )
    }))
}

fn verdict_ms(s: &Sample) -> f64 {
    ms(s.timed.done - s.timed.sent)
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let pool = pool();
    // set-up: daemon spawn until the first answered `status`
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let d = Daemon::spawn()?;
        status_json(&d.addr)?;
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("the last daemon is kept");
    let setup_s = median(&setups);
    let budget = Duration::from_secs(seconds);
    // warm-up: fill the cache and settle the daemon's allocator
    let mut tracer = Tracer::new(false);
    let (warm, _) = mix(
        &daemon.addr,
        seed ^ 0xC0FFEE,
        &pool,
        Duration::from_millis(500),
        &mut tracer,
    )?;
    let mut attempted = warm.len();
    let mut failed = gate_all(warm, &pool).1;
    if !trace {
        let (samples, wall) = mix(&daemon.addr, seed, &pool, budget, &mut tracer)?;
        attempted += samples.len();
        let (samples, wrong) = gate_all(samples, &pool);
        failed += wrong;
        let times: Vec<f64> = samples.iter().map(verdict_ms).collect();
        let rss = crate::util::peak_rss_mb(&daemon.pid()).unwrap_or(0.0);
        daemon.stop()?;
        // closed loop: correctly answered requests per second of wall time
        let metrics = crate::end_to_end(
            setup_s,
            &times,
            samples.len() as f64 / wall.as_secs_f64(),
            rss,
        );
        let mut record = crate::verdict_record("requests_per_s", &times);
        record.extend([
            ("closed_loop_connections", Json::int(CONNECTIONS)),
            ("daemon_workers", Json::str(DAEMON_WORKERS)),
            ("pool_specs", Json::int(pool.len())),
            ("by_method", by_method(&samples)),
        ]);
        return Ok(Outcome {
            attempted,
            failed,
            metrics,
            record,
            ledger: Vec::new(),
            tracer,
        });
    }
    // the same request sequence twice: untraced, then traced
    let (plain, _) = mix(&daemon.addr, seed, &pool, budget / 2, &mut tracer)?;
    tracer.set_enabled(true);
    let (traced, _) = mix(&daemon.addr, seed, &pool, budget / 2, &mut tracer)?;
    attempted += plain.len() + traced.len();
    let (plain, wrong_plain) = gate_all(plain, &pool);
    let (traced, wrong_traced) = gate_all(traced, &pool);
    failed += wrong_plain + wrong_traced;
    let by = |req: fn(Req) -> bool| -> Vec<f64> {
        traced
            .iter()
            .filter(|s| req(s.req))
            .map(verdict_ms)
            .collect()
    };
    let accept: Vec<f64> = traced
        .iter()
        .map(|s| ms(s.timed.accepted - s.timed.sent))
        .collect();
    let run: Vec<f64> = traced
        .iter()
        .map(|s| ms(s.timed.done - s.timed.accepted))
        .collect();
    let cache = status_json(&daemon.addr)?;
    let cache = cache.get("cache").ok_or("status without cache")?;
    let count = |k: &str| cache.get(k).and_then(Json::as_i64).unwrap_or(0) as f64;
    let hit_ratio = count("hits") / (count("hits") + count("misses")).max(1.0);
    // cold and warm checks: a spec never sent before, then the same again
    let (mut cold, mut warm_checks) = (Vec::new(), Vec::new());
    let mut conn = Conn::open(&daemon.addr)?;
    for i in 0..20 {
        let text = pam_variant(&format!("pam_fresh_{seed}_{i}"), 0);
        let fresh = PoolSpec {
            expected: expected_violations(&text),
            text,
            family: Family::Pam,
        };
        for into in [&mut cold, &mut warm_checks] {
            let t = conn.timed(&request_line(&format!("cw{i}"), &fresh.text, Req::Check))?;
            attempted += 1;
            match gate(&t.line, &fresh, Req::Check) {
                Ok(()) => into.push(ms(t.done - t.sent)),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    failed += 1;
                }
            }
        }
    }
    drop(conn);
    daemon.stop()?;
    let (layers, ledger_rows, f) = in_process(&pool, &mut tracer);
    failed += f;
    let mut metrics = layers;
    metrics.extend([
        metric("serve.accept_ms", "ms", median(&accept)),
        metric("serve.run_ms", "ms", median(&run)),
        metric("serve.cache_hit_ratio", "ratio", hit_ratio),
        metric("serve.check_warm_p50_ms", "ms", median(&warm_checks)),
        metric("serve.check_cold_p50_ms", "ms", median(&cold)),
        metric("serve.lint_p50_ms", "ms", median(&by(|r| r == Req::Lint))),
        metric(
            "serve.conformance_p50_ms",
            "ms",
            median(&by(|r| r == Req::Conformance)),
        ),
        metric(
            "obs.trace_overhead_ratio",
            "ratio",
            median(&traced.iter().map(verdict_ms).collect::<Vec<_>>())
                / median(&plain.iter().map(verdict_ms).collect::<Vec<_>>()),
        ),
    ]);
    let n = traced.len().max(1) as f64;
    let mut ledger = vec![
        (
            "request (mean over the traced mix)".to_owned(),
            traced.iter().map(verdict_ms).sum::<f64>() / n,
        ),
        (
            "  serve.accept (send to accepted)".to_owned(),
            accept.iter().sum::<f64>() / n,
        ),
        (
            "  serve.run (accepted to terminal)".to_owned(),
            run.iter().sum::<f64>() / n,
        ),
    ];
    ledger.extend(ledger_rows);
    Ok(Outcome {
        attempted,
        failed,
        metrics: crate::complete_layers(metrics),
        record: Vec::new(),
        ledger,
        tracer,
    })
}

/// The layers under the daemon, timed in-process on the same inputs:
/// the frontend and the analyzer on every pool spec, and the engine
/// ledger of one `pam.mcc` check.
fn in_process(pool: &[PoolSpec], t: &mut Tracer) -> (Vec<Metric>, Vec<(String, f64)>, usize) {
    let reps = 3;
    let (mut parse, mut compile, mut program, mut lint) = (0.0, 0.0, 0.0, 0.0);
    for (i, spec) in pool.iter().enumerate() {
        for _ in 0..reps {
            let id = 2_000_000 + i as u64;
            let t0 = Instant::now();
            let ast = t.time("lang.parse", id, |_| {
                moccml_lang::parse_spec(&spec.text).expect("pool spec parses")
            });
            let t1 = Instant::now();
            let compiled = t.time("lang.compile", id, |_| {
                moccml_lang::compile(&ast).expect("pool spec compiles")
            });
            let t2 = Instant::now();
            let p = t.time("engine.program_compile", id, |_| {
                Program::compile(compiled.program.specification())
            });
            let t3 = Instant::now();
            let diags = t.time("analyze.lint", id, |_| {
                moccml_analyze::analyze_str(&spec.text).expect("pool spec lints")
            });
            let t4 = Instant::now();
            std::hint::black_box((p, diags));
            parse += (t1 - t0).as_secs_f64();
            compile += (t2 - t1).as_secs_f64();
            program += (t3 - t2).as_secs_f64();
            lint += (t4 - t3).as_secs_f64();
        }
    }
    let per = (pool.len() * reps) as f64;
    let compiled = moccml_lang::compile_str(PAM).expect("pam.mcc compiles");
    let props: Vec<Prop> = compiled.props.clone();
    let expected = expected_violations(PAM);
    let holding: Vec<Prop> = props
        .iter()
        .zip(&expected)
        .filter(|(_, v)| !**v)
        .map(|(p, _)| p.clone())
        .collect();
    let violated = props.last().cloned().expect("pam.mcc asserts");
    let pinned = engine_wl::pinned(EXPECTED);
    let setup = engine_wl::Setup {
        spec: compiled.program.specification().clone(),
        holding,
        violated,
        one_pass: false,
        options: ExploreOptions::default().with_workers(1),
        expect: Expect {
            states: pinned["pam_states"],
            transitions: pinned["pam_transitions"],
            deadlocks: 0,
            witness_steps: pinned["pam_detect_witness_steps"],
        },
    };
    let (mut metrics, rows, failed) = engine_wl::ledger(&setup, t);
    metrics.extend([
        metric("lang.parse_us", "us", parse * 1e6 / per),
        metric("lang.compile_us", "us", compile * 1e6 / per),
        metric("engine.program_compile_us", "us", program * 1e6 / per),
        metric("analyze.lint_ms", "ms", lint * 1e3 / per),
    ]);
    let rows = rows
        .into_iter()
        .map(|(label, v)| {
            if label.starts_with("verdict") {
                ("in-process check of pam.mcc (serial)".to_owned(), v)
            } else {
                (label, v)
            }
        })
        .collect();
    (metrics, rows, failed)
}
