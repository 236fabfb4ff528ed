//! `servebench` — the serving-stack benchmark.
//!
//! Runs one named workload against an in-process `service::Server`
//! with the default configuration and real runtime-dispatched crypto,
//! from closed-loop blocking clients, and prints every end-to-end metric
//! by name with its unit. `--trace 1` instead prints the per-layer
//! ledger: an untraced and a traced pass of the same workload (spans
//! around every Transport call), then the layer probes of `ledger.rs`.
//!
//! ```text
//! servebench --workload <small_ops|bulk_pipelined|rekey_churn>
//!            --seed <u64> --seconds <s> --trace <0|1>
//! servebench --compare <result.json> <result.json>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every reply is
//! checked against a reference computed before timing starts, and the
//! server's own request and error counters are audited against what the
//! clients sent and saw; any mismatch makes the run exit non-zero.

mod ledger;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::BufWriter;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use rijndael::dispatch::{self, FORCE_ENV};
use service::{Server, ServiceConfig, ServiceHandle};
use telemetry::{Snapshot, Value};

use crate::stats::{interquartile_mean, median, relative_spread};
use crate::trace::{self_times, Tracer};
use crate::workload::{
    cluster_kek, connect_all, drive, plan, Conn, Pass, Script, Workload, WINDOW,
};

/// Fresh processes whose set-up is timed for `setup_s`, besides the
/// benchmark process itself; each pays the dispatch race once.
const SETUP_PROBES: usize = 10;

/// Where result records and span dumps go (ignored by git).
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Untimed traffic after set-up and before the first timed pass, so lazy
/// per-session work (pool worker threads, first-touch pages) is done.
const WARMUP_S: f64 = 0.5;

/// Share of a traced run given to each workload pass (untraced, then
/// traced), capped so the in-memory spans stay small; the ledger gets
/// the rest.
const TRACE_PASS_SHARE: f64 = 0.15;
const TRACE_PASS_MAX_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn usage() -> String {
    "usage: servebench --workload <small_ops|bulk_pipelined|rekey_churn> --seed <u64> \
     --seconds <s> --trace <0|1>\n       servebench --compare <a.json> <b.json>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_probe,
    })
}

/// What the result depends on besides the code: refuse to compare
/// results whose stamps differ.
struct Stamp {
    nproc: usize,
    backend: &'static str,
    block: &'static str,
    forced_env: String,
}

impl Stamp {
    fn take() -> Stamp {
        let sel = dispatch::selection();
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            backend: sel.bulk.token(),
            block: sel.block.token(),
            forced_env: std::env::var(FORCE_ENV).unwrap_or_else(|_| "none".into()),
        }
    }
}

/// A running server with the workload's clients connected and keyed.
struct Rig {
    handle: ServiceHandle,
    conns: Vec<Conn>,
    setup: Duration,
}

/// Set-up as a user pays it: dispatch decision, server spawn, client
/// connects, key loads and `open_session`.
fn set_up(scripts: &[Script], seed: u64) -> Rig {
    let start = Instant::now();
    dispatch::selection();
    let handle = Server::new(ServiceConfig::default())
        .spawn("127.0.0.1:0")
        .expect("bind a loopback port");
    let conns = connect_all(scripts, handle.local_addr(), &cluster_kek(seed))
        .expect("connect and key every client");
    Rig {
        handle,
        conns,
        setup: start.elapsed(),
    }
}

fn tear_down(rig: Rig) {
    drop(rig.conns);
    rig.handle.shutdown();
}

/// Set-up time of one fresh process (this binary with `--setup-probe`).
fn probe_setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("setup probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "setup probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("setup probe printed no time: {text}"))
}

/// Checks the server's counters against what the clients sent and saw:
/// `service.op.<op>.requests` deltas against the generator's tally, and
/// `service.error.<code>` deltas against the typed errors received.
fn audit(pass: &Pass, delta: &Snapshot) -> Vec<String> {
    let mut server_ops: BTreeMap<String, u64> = BTreeMap::new();
    let mut server_errors: BTreeMap<String, u64> = BTreeMap::new();
    for e in delta.entries() {
        let Value::Counter(n) = e.value else { continue };
        if let Some(op) = e
            .name
            .strip_prefix("service.op.")
            .and_then(|r| r.strip_suffix(".requests"))
        {
            server_ops.insert(op.to_string(), n);
        } else if let Some(code) = e.name.strip_prefix("service.error.") {
            server_errors.insert(code.to_string(), n);
        }
    }
    let mut problems = Vec::new();
    let mut check = |what: &str, server: &BTreeMap<String, u64>, client: &BTreeMap<&str, u64>| {
        let names: std::collections::BTreeSet<&str> = server
            .keys()
            .map(String::as_str)
            .chain(client.keys().copied())
            .collect();
        for name in names {
            let s = server.get(name).copied().unwrap_or(0);
            let c = client.get(name).copied().unwrap_or(0);
            if s != c {
                problems.push(format!("{what} {name}: server counted {s}, clients {c}"));
            }
        }
    };
    let (ops, errors) = pass.merged();
    check("requests", &server_ops, &ops);
    check("errors", &server_errors, &errors);
    problems
}

fn vm_hwm_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// A per-window rate, as the interquartile mean over the pass's full
/// windows.
fn window_rate(pass: &Pass, f: impl Fn(&workload::Window) -> u64) -> f64 {
    let per_sec: Vec<f64> = pass
        .per_window(f)
        .into_iter()
        .map(|n| n as f64 / WINDOW.as_secs_f64())
        .collect();
    interquartile_mean(&per_sec).expect("a pass has at least one window")
}

/// The `p` latency percentile (µs) of each of the pass's windows,
/// combined by interquartile mean; every window must hold enough
/// samples to report it.
fn window_percentile(pass: &Pass, p: f64) -> Result<f64, String> {
    pass.window_percentiles(p)
        .and_then(|v| interquartile_mean(&v))
        .ok_or_else(|| {
            format!(
                "a window has too few replies for a p{} with ten beyond it",
                p * 100.0
            )
        })
}

/// The end-to-end metrics of one untraced pass.
fn end_to_end(pass: &Pass, setup_s: f64) -> Result<Metrics, String> {
    // Read before the percentile work, which allocates.
    let rss = vm_hwm_mib();
    Ok(vec![
        ("ops_per_s", window_rate(pass, |w| w.ok), "1/s"),
        (
            "goodput_mib_s",
            window_rate(pass, |w| w.goodput) / (1024.0 * 1024.0),
            "MiB/s",
        ),
        ("latency_p50_us", window_percentile(pass, 0.50)?, "us"),
        ("setup_s", setup_s, "s"),
        ("rss_peak_mib", rss, "MiB"),
    ])
}

/// Server-side counters over a whole traced run (both passes and the
/// ledger, whose bulk wire probes reach the server's pool on every
/// workload), from the registry snapshot delta. Histogram times are
/// means (sum over count): the fixed-bucket p50 is only a bucket bound.
fn server_counters(delta: &Snapshot) -> Metrics {
    let c = |name: &str| delta.counter(name).unwrap_or(0) as f64;
    let mean = |name: &str| {
        delta
            .histogram(name)
            .map_or(0.0, telemetry::HistogramSnapshot::mean)
    };
    vec![
        (
            "server.engine.pool.job_us.mean",
            mean("engine.pool.job_us"),
            "us",
        ),
        (
            "server.engine.pool.steals",
            c("engine.pool.steals"),
            "count",
        ),
        (
            "server.engine.submit.busy",
            c("engine.submit.busy"),
            "count",
        ),
        (
            "server.engine.submit.accepted",
            c("engine.submit.accepted"),
            "count",
        ),
        (
            "server.service.loop.dispatch_micros.mean",
            mean("service.loop.dispatch_micros"),
            "us",
        ),
        (
            "server.service.loop.events_per_poll.mean",
            mean("service.loop.events_per_poll"),
            "count",
        ),
    ]
}

/// Aggregates over the traced pass's spans.
fn trace_metrics(tracers: &[Tracer]) -> Metrics {
    let (mut calls, mut call_ns) = (0u64, 0u64);
    let (mut msgs, mut msg_self_ns) = (0u64, 0u64);
    for t in tracers {
        let spans = t.spans();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if s.name.starts_with("call.") {
                calls += 1;
                call_ns += s.end - s.start;
            } else if s.name == "msg" {
                msgs += 1;
                msg_self_ns += own;
            }
        }
    }
    let mean_us = |ns: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1000.0
        }
    };
    vec![
        ("trace.transport.us_per_call", mean_us(call_ns, calls), "us"),
        (
            "trace.client.self_us_per_msg",
            mean_us(msg_self_ns, msgs),
            "us",
        ),
    ]
}

/// One pass of the workload plus the server accounting audit.
struct Audited {
    pass: Pass,
    problems: Vec<String>,
}

fn audited_pass(rig: &mut Rig, scripts: &[Script], seconds: f64, traced: bool) -> Audited {
    let before = rig.handle.registry().snapshot();
    let pass = drive(&mut rig.conns, scripts, seconds, traced);
    let delta = rig.handle.registry().snapshot().delta(&before);
    let mut problems = audit(&pass, &delta);
    let mismatches = pass.total(|c| c.mismatches);
    if mismatches > 0 {
        problems.push(format!("{mismatches} replies differ from the reference"));
    }
    let transport = pass.total(|c| c.transport);
    if transport > 0 {
        problems.push(format!("{transport} transport failures"));
    }
    Audited { pass, problems }
}

fn write_spans(workload: Workload, tracers: &[Tracer]) -> std::io::Result<()> {
    fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/spans-{}.tsv", workload.name());
    let mut out = BufWriter::new(fs::File::create(path)?);
    let threads: Vec<_> = tracers.iter().map(Tracer::spans).collect();
    trace::write_tsv(&mut out, &threads)?;
    std::io::Write::flush(&mut out)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// The result record: one `"key": value` per line, so `--compare` can
/// read it back without a JSON parser.
fn write_record(
    args: &Args,
    stamp: &Stamp,
    correct: bool,
    metrics: &Metrics,
) -> std::io::Result<()> {
    fs::create_dir_all(OUT_DIR)?;
    let mut lines = vec![
        format!("\"workload\": \"{}\"", args.workload.name()),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"stamp.nproc\": {}", stamp.nproc),
        format!("\"stamp.backend\": \"{}\"", stamp.backend),
        format!("\"stamp.block\": \"{}\"", stamp.block),
        format!("\"stamp.forced_env\": \"{}\"", stamp.forced_env),
        format!("\"correct\": {correct}"),
    ];
    for (name, value, unit) in metrics {
        lines.push(format!("\"metric.{name}\": {value}"));
        lines.push(format!("\"unit.{name}\": \"{unit}\""));
    }
    let path = format!(
        "{OUT_DIR}/result-{}-trace{}.json",
        args.workload.name(),
        u8::from(args.trace)
    );
    fs::write(path, format!("{{\n{}\n}}\n", lines.join(",\n")))
}

fn read_record(path: &str) -> Result<BTreeMap<String, String>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let (k, v) = l.trim().trim_end_matches(',').split_once("\": ")?;
            Some((
                k.trim_start_matches('"').to_string(),
                v.trim_matches('"').to_string(),
            ))
        })
        .collect())
}

/// Prints `b / a` for every metric both records carry, after refusing
/// records from different workloads, backends or CPU counts.
fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let a = read_record(a_path)?;
    let b = read_record(b_path)?;
    for key in [
        "workload",
        "trace",
        "stamp.nproc",
        "stamp.backend",
        "stamp.forced_env",
    ] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                a.get(key),
                b.get(key)
            ));
        }
    }
    for (key, av) in &a {
        let Some(name) = key.strip_prefix("metric.") else {
            continue;
        };
        let (Ok(x), Some(Ok(y))) = (av.parse::<f64>(), b.get(key).map(|v| v.parse::<f64>())) else {
            continue;
        };
        let unit = a.get(&format!("unit.{name}")).map_or("", String::as_str);
        println!("{name:<44} {x:>14.4} {y:>14.4} {unit:<6} b/a {:.4}", y / x);
    }
    Ok(())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scripts = plan(args.workload, args.seed);
    if args.setup_probe {
        let rig = set_up(&scripts, args.seed);
        println!("setup_s {}", rig.setup.as_secs_f64());
        tear_down(rig);
        return Ok(ExitCode::SUCCESS);
    }
    let mut setup_samples = Vec::new();
    if !args.trace {
        for _ in 0..SETUP_PROBES {
            setup_samples.push(probe_setup_in_child(args)?);
        }
    }
    let mut rig = set_up(&scripts, args.seed);
    setup_samples.push(rig.setup.as_secs_f64());
    let stamp = Stamp::take();
    println!(
        "# servebench workload={} seed={} seconds={} trace={} nproc={} backend={} block={} {FORCE_ENV}={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stamp.nproc,
        stamp.backend,
        stamp.block,
        stamp.forced_env
    );

    let mut problems = audited_pass(&mut rig, &scripts, WARMUP_S, false).problems;
    let (attempted, failed, metrics) = if args.trace {
        let pass_s = (args.seconds * TRACE_PASS_SHARE).min(TRACE_PASS_MAX_S);
        let before = rig.handle.registry().snapshot();
        let ledger_s = args.seconds - 2.0 * pass_s;
        let plain = audited_pass(&mut rig, &scripts, pass_s, false);
        let traced = audited_pass(&mut rig, &scripts, pass_s, true);
        let mut ledger_tracer = Tracer::new(Instant::now());
        let mut metrics = ledger::run(
            rig.handle.local_addr(),
            args.seed,
            Duration::from_secs_f64(ledger_s),
            rig.handle.registry(),
            &mut ledger_tracer,
        );
        metrics.extend(server_counters(
            &rig.handle.registry().snapshot().delta(&before),
        ));
        // The p99 repeats too loosely across runs to gate on, so it is
        // reported here rather than among the end-to-end metrics.
        let p99 = window_percentile(&plain.pass, 0.99)?;
        metrics.push(("latency_p99_us", p99, "us"));
        let plain_ops = window_rate(&plain.pass, |w| w.ok);
        let traced_ops = window_rate(&traced.pass, |w| w.ok);
        let mut tracers = traced.pass.tracers;
        tracers.push(ledger_tracer);
        let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
        metrics.extend(trace_metrics(&tracers));
        metrics.push(("trace.ops_per_s", traced_ops, "1/s"));
        metrics.push(("trace.overhead_x", plain_ops / traced_ops, "x"));
        metrics.push(("trace.spans", spans as f64, "count"));
        write_spans(args.workload, &tracers).map_err(|e| format!("writing spans: {e}"))?;
        problems.extend(plain.problems);
        problems.extend(traced.problems);
        let both = [&plain.pass.clients, &traced.pass.clients];
        let sum =
            |f: fn(&workload::Tally) -> u64| both.iter().flat_map(|c| c.iter()).map(f).sum::<u64>();
        (sum(|c| c.attempted), sum(workload::Tally::failed), metrics)
    } else {
        let run = audited_pass(&mut rig, &scripts, args.seconds, false);
        let setup_s = median(&setup_samples).expect("at least one set-up sample");
        println!(
            "# windows={} latency samples={}; setup samples_s={setup_samples:?} spread={:?}",
            run.pass.windows,
            run.pass.sample_count(),
            relative_spread(&setup_samples),
        );
        let metrics = end_to_end(&run.pass, setup_s)?;
        problems.extend(run.problems);
        (
            run.pass.total(|c| c.attempted),
            run.pass.total(workload::Tally::failed),
            metrics,
        )
    };
    tear_down(rig);

    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    for p in &problems {
        eprintln!("servebench: FAIL {p}");
    }
    let correct = problems.is_empty();
    for (name, value, unit) in &metrics {
        println!("# {name:<44} {value:>14.4} {unit}");
    }
    write_record(args, &stamp, correct, &metrics).map_err(|e| format!("writing result: {e}"))?;
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        return match args.as_slice() {
            [_, a, b] => match compare(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("servebench: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
