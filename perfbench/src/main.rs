//! End-to-end and per-layer benchmark of the DIO pipeline.
//!
//! ```text
//! dio-perfbench --workload <ycsb_a|storm|live_diag> --seed <n> --seconds <s> --trace <0|1>
//!               [--spans <file>] [--work-dir <dir>]
//! ```
//!
//! A run discards one warm-up session, then makes as many measured
//! sessions as fit `--seconds` at the workload's nominal session length
//! (at least three; the count depends only on `--seconds`), checks every
//! session's outputs, and prints the medians over sessions. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1` (the traced run records the
//! benchmark's own spans and then runs the ledger passes).

mod ledger;
mod live;
mod measure;
mod spans;
mod storm;
mod ycsb;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub use measure::Metrics;
use measure::{median, peak_rss_mb, quantile_sorted, secs};

/// Measured sessions per run, at least.
const MIN_SESSIONS: usize = 3;
/// Rounds of the fixed query mix per session (see `measure::mix_ms`).
pub const QUERY_ROUNDS: usize = 3;
/// Runs of the untraced twin per session when it lasts milliseconds.
pub const UNTRACED_REPEATS: usize = 15;

/// The traced application's side of one session.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Wall time of the traced app phase.
    pub app_s: f64,
    /// Wall time of the same inputs on a kernel with no probe attached.
    pub untraced_s: f64,
    /// Traced ÷ untraced app time, same inputs, same session: wall time
    /// for `ycsb_a` (Table II), the app thread's CPU time for the
    /// single-thread apps of `storm` and `live_diag`.
    pub overhead_x: f64,
    /// Latency of every app operation in the traced phase (ns, sorted).
    pub latencies: Vec<u64>,
}

/// Everything one measured session yields.
#[derive(Debug, Clone)]
pub struct Session {
    pub setup_s: f64,
    pub app: AppRun,
    pub events: u64,
    pub events_per_s: f64,
    pub cpu_ns_per_event: f64,
    pub queryable_s: f64,
    pub query_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (empty when the session is correct).
    pub problems: Vec<String>,
    /// Extra counters for the human-readable log line.
    pub note: String,
}

/// A workload: measured sessions plus the per-layer ledger.
pub trait Workload {
    /// Typical wall time of one session, which sets how many sessions a
    /// run of `--seconds` makes: every run of a workload does the same
    /// number of sessions.
    fn nominal_session_s(&self) -> f64;
    /// One line describing the generated inputs.
    fn describe(&self) -> String;
    fn session(&mut self, idx: u64) -> Session;
    /// Per-layer metrics, computed after the traced run's sessions.
    fn ledger(&mut self, sessions: &[Session], e2e: &Metrics) -> Metrics;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--spans" => args.spans = Some(PathBuf::from(value)),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn end_to_end(sessions: &[Session]) -> Metrics {
    let m = |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let mut out = Metrics::default();
    out.set("setup_s", m(&|s| s.setup_s), "s");
    out.set("overhead_x", m(&|s| s.app.overhead_x), "x");
    out.set("op_p50_us", m(&|s| quantile_sorted(&s.app.latencies, 0.50) as f64 / 1e3), "us");
    out.set("events_per_s", m(&|s| s.events_per_s), "ev/s");
    out.set("cpu_ns_per_event", m(&|s| s.cpu_ns_per_event), "ns");
    out.set("queryable_s", m(&|s| s.queryable_s), "s");
    out.set("query_ms", m(&|s| s.query_ms), "ms");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dio-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        spans::enable();
    }
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "ycsb_a" => Box::new(ycsb::Ycsb::new(args.seed, args.work_dir.clone())),
        "storm" => Box::new(storm::Storm::new(args.seed, args.work_dir.clone())),
        "live_diag" => Box::new(live::LiveDiag::new(args.seed, args.work_dir.clone())),
        other => {
            eprintln!("dio-perfbench: unknown workload {other:?} (ycsb_a, storm, live_diag)");
            return ExitCode::from(2);
        }
    };

    println!("inputs: {}", workload.describe());
    let mut problems = Vec::new();
    let warmup = workload.session(0);
    println!("warm-up: {:.3}s app, {} events, {}", warmup.app.app_s, warmup.events, warmup.note);
    problems.extend(warmup.problems.iter().map(|p| format!("warm-up: {p}")));

    let count = ((args.seconds / workload.nominal_session_s()).round() as usize).max(MIN_SESSIONS);
    let start = Instant::now();
    let mut sessions = Vec::new();
    while sessions.len() < count {
        measure::trim_heap();
        let s = workload.session(sessions.len() as u64 + 1);
        println!(
            "session {}: setup {:.3}s app {:.3}s (untraced {:.3}s) {} events {:.0} ev/s \
             {:.0} ns/ev queryable {:.3}s query {:.3}ms overhead {:.3}x p99 {:.1}us \
             hwm {:.1}MiB {}",
            sessions.len() + 1,
            s.setup_s,
            s.app.app_s,
            s.app.untraced_s,
            s.events,
            s.events_per_s,
            s.cpu_ns_per_event,
            s.queryable_s,
            s.query_ms,
            s.app.overhead_x,
            quantile_sorted(&s.app.latencies, 0.99) as f64 / 1e3,
            peak_rss_mb(),
            s.note
        );
        problems.extend(s.problems.iter().map(|p| format!("session {}: {p}", sessions.len() + 1)));
        sessions.push(s);
    }
    println!("{count} sessions in {:.1}s", secs(start));
    let e2e = end_to_end(&sessions);
    let metrics = if args.trace {
        println!("traced run end-to-end (spans on): {}", e2e.to_json());
        let layers = workload.ledger(&sessions, &e2e);
        if let Some(path) = &args.spans {
            if let Err(e) = spans::write_json(path) {
                eprintln!("dio-perfbench: writing spans to {}: {e}", path.display());
            }
        }
        layers
    } else {
        e2e
    };
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let attempted: u64 = sessions.iter().map(|s| s.attempted).sum();
    let failed: u64 = sessions.iter().map(|s| s.failed).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        problems.is_empty(),
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
