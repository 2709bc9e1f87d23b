//! `live_diag`: the Fig. 2 diagnosis at scale. Many `dio-fluentbit` tail
//! plugins (half `V1_4_0`, half `V2_0_5`) follow a seeded rotation
//! schedule with inode reuse, in a closed loop, while a session with live
//! diagnosis, the shipped rules and DFG profiling writes a persistent
//! store and `dio-serve` is scraped at `/metrics` over one connection.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dio_backend::{Aggregation, DocStore, Query, SearchRequest};
use dio_correlate::correlate_paths;
use dio_diagnose::{AlertKind, DiagnoseConfig};
use dio_ebpf::FilterSpec;
use dio_fluentbit::{FluentBitVersion, LogClient, TailPlugin};
use dio_kernel::{DiskProfile, Kernel};
use dio_profile::ProfileConfig;
use dio_serve::{lint_openmetrics, serve, ServeState};
use dio_tracer::{Tracer, TracerConfig};

use crate::ledger;
use crate::measure::{cpu_ns, mix_ms, secs, thread_cpu_ns, Metrics, Placement, SplitMix, Twin};
use crate::spans::span;
use crate::{AppRun, Session};

/// Tail plugins (every fourth one `V1_4_0`, the rest `V2_0_5`), each
/// following its own log file.
pub const PLUGINS: usize = 96;
/// Schedule steps between two `/metrics` scrapes.
pub const SCRAPE_EVERY: usize = 500;
/// Generations each plugin's client writes. The same for every seed, so
/// every seed loses the same number of generations: the alerts they
/// raise set most of the time to stop a session.
pub const GENERATIONS: u64 = 8;

/// One step of the schedule for one plugin.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// The client writes the first generation (`len` bytes).
    Create(u64),
    /// The plugin polls its file.
    Poll,
    /// The client deletes the file, the plugin notices (closing its
    /// descriptor frees the inode), and the client writes the next
    /// generation, which reuses the inode.
    Rotate(u64),
}

/// The generated schedule plus the losses the `V1_4_0` stale-offset bug
/// must cause, computed from the schedule alone.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub steps: Vec<(usize, Action)>,
    /// Bytes written per plugin.
    pub written: Vec<u64>,
    /// Per plugin, every lost generation as (stale offset, alert kind).
    pub lost: Vec<Vec<(u64, AlertKind)>>,
    /// Bytes each plugin must fail to read.
    pub lost_bytes: Vec<u64>,
}

impl Schedule {
    pub fn lost_generations(&self) -> u64 {
        self.lost.iter().map(|l| l.len() as u64).sum()
    }
}

pub fn version(plugin: usize) -> FluentBitVersion {
    if plugin.is_multiple_of(4) {
        FluentBitVersion::V1_4_0
    } else {
        FluentBitVersion::V2_0_5
    }
}

/// Builds the schedule for `seed`: each plugin writes `GENERATIONS` generations
/// of 8..160 bytes and polls each 2..16 times; plugins interleave at
/// random.
///
/// The loss model: a `V1_4_0` reader keeps the position of a deleted
/// generation, and the next generation reuses the inode, so it resumes at
/// `R = max(len of every earlier generation)` and reads only the bytes
/// past `R`. A resume with nothing past `R` is silent data loss; one with
/// bytes past `R` is a stale-offset resume. `V2_0_5` resets to 0.
pub fn schedule(seed: u64) -> Schedule {
    let mut rng = SplitMix::new(seed ^ 0x6c69_7665);
    let mut per_plugin: Vec<Vec<Action>> = Vec::new();
    let mut written = vec![0; PLUGINS];
    let mut lost = vec![Vec::new(); PLUGINS];
    let mut lost_bytes = vec![0; PLUGINS];
    for p in 0..PLUGINS {
        let mut actions = Vec::new();
        let mut resume = 0u64;
        for g in 0..GENERATIONS {
            let len = rng.range(8, 160);
            actions.push(if g == 0 { Action::Create(len) } else { Action::Rotate(len) });
            for _ in 0..rng.range(2, 16) {
                actions.push(Action::Poll);
            }
            written[p] += len;
            if version(p) == FluentBitVersion::V1_4_0 && g > 0 {
                let kind =
                    if len <= resume { AlertKind::DataLoss } else { AlertKind::StaleOffsetResume };
                lost[p].push((resume, kind));
                lost_bytes[p] += len.min(resume);
            }
            resume = resume.max(len);
        }
        per_plugin.push(actions);
    }
    let mut next = vec![0usize; PLUGINS];
    let mut steps = Vec::new();
    let mut remaining: usize = per_plugin.iter().map(Vec::len).sum();
    while remaining > 0 {
        let p = rng.range(0, PLUGINS as u64 - 1) as usize;
        if next[p] < per_plugin[p].len() {
            steps.push((p, per_plugin[p][next[p]]));
            next[p] += 1;
            remaining -= 1;
        }
    }
    Schedule { steps, written, lost, lost_bytes }
}

fn log_path(p: usize) -> String {
    format!("/var/log/app-{p}.log")
}

fn line(len: u64, gen_seed: u64) -> Vec<u8> {
    (0..len).map(|i| b'a' + ((i + gen_seed) % 26) as u8).collect()
}

/// The plugins and clients of one schedule run on `kernel`.
pub struct Fleet {
    plugins: Vec<TailPlugin>,
    clients: Vec<LogClient>,
    pub plugin_pids: Vec<u64>,
}

impl Fleet {
    pub fn new(kernel: &Kernel) -> Self {
        let setup = kernel.spawn_process("logrotate").spawn_thread("logrotate");
        let _ = setup.mkdir("/var", 0o755);
        let _ = setup.mkdir("/var/log", 0o755);
        let mut plugins = Vec::new();
        let mut clients = Vec::new();
        let mut plugin_pids = Vec::new();
        for p in 0..PLUGINS {
            let v = version(p);
            let proc = kernel.spawn_process(v.thread_name());
            plugin_pids.push(u64::from(proc.pid().0));
            plugins.push(TailPlugin::new(proc.spawn_thread(v.thread_name()), v, log_path(p)));
            clients.push(LogClient::new(kernel.spawn_process("app").spawn_thread("app")));
        }
        Fleet { plugins, clients, plugin_pids }
    }

    /// Executes one step; returns the number of failed calls.
    pub fn step(&mut self, p: usize, action: Action, step_no: usize) -> u64 {
        let path = log_path(p);
        let ok = match action {
            Action::Create(len) => {
                self.clients[p].write_log(&path, &line(len, step_no as u64)).is_ok()
            }
            Action::Poll => self.plugins[p].poll().is_ok(),
            Action::Rotate(len) => {
                self.clients[p].remove(&path).is_ok()
                    && self.plugins[p].poll().is_ok()
                    && self.clients[p].write_log(&path, &line(len, step_no as u64)).is_ok()
            }
        };
        u64::from(!ok)
    }

    pub fn bytes_consumed(&self, p: usize) -> u64 {
        self.plugins[p].bytes_consumed()
    }
}

fn kernel() -> Kernel {
    Kernel::builder().num_cpus(2).root_disk(DiskProfile::instant()).build()
}

/// `GET /metrics` over one connection; returns the body.
pub fn scrape(addr: SocketAddr) -> Result<String, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw).map_err(|e| format!("read: {e}"))?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("no header terminator")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("status line {:?}", head.lines().next()));
    }
    Ok(body.to_string())
}

/// The untraced app: the same schedule on fresh kernels with no tracer;
/// the medians of `UNTRACED_REPEATS` runs (it lasts milliseconds).
fn untraced(schedule: &Schedule) -> Twin {
    let mut twin = Twin::default();
    for _ in 0..crate::UNTRACED_REPEATS {
        let k = kernel();
        let mut fleet = Fleet::new(&k);
        let (t, cpu) = (Instant::now(), thread_cpu_ns());
        twin.errors +=
            schedule.steps.iter().enumerate().map(|(i, &(p, a))| fleet.step(p, a, i)).sum::<u64>();
        twin.record(secs(t), thread_cpu_ns() - cpu);
    }
    twin
}

/// Alerts of the data-loss family as (plugin pid, stale offset, kind),
/// read from each alert's triggering read event.
fn loss_alerts(
    alerts: &[dio_diagnose::Alert],
    detector: &str,
) -> BTreeMap<(u64, u64, &'static str), u64> {
    let mut out = BTreeMap::new();
    for a in alerts.iter().filter(|a| a.detector == detector) {
        if !matches!(a.kind, AlertKind::DataLoss | AlertKind::StaleOffsetResume) {
            continue;
        }
        let read = a.evidence.iter().rev().find(|d| d["syscall"] == "read");
        let (pid, offset) = read
            .map(|d| (d["pid"].as_u64().unwrap_or(0), d["offset"].as_u64().unwrap_or(0)))
            .unwrap_or_default();
        *out.entry((pid, offset, a.kind.as_str())).or_insert(0) += 1;
    }
    out
}

/// The fixed query mix: per-kind counts against a terms aggregation,
/// then the alert documents of the telemetry index. Returns the latencies
/// (ms), the alert-document count and a problem when the counts disagree.
fn query_mix(store: &DocStore, name: &str, stored: u64) -> (Vec<f64>, u64, Option<String>) {
    let index = store.index(&format!("dio-{name}"));
    let mut lat = Vec::new();
    let mut timed = |f: &mut dyn FnMut()| {
        let _s = span("backend.query");
        let t = Instant::now();
        f();
        lat.push(secs(t) * 1e3);
    };
    let mut by_count = BTreeMap::new();
    for kind in ["stat", "openat", "read", "lseek", "close", "write", "unlink"] {
        timed(&mut || {
            by_count.insert(kind.to_string(), index.count(&Query::term("syscall", kind)));
        });
    }
    let mut by_agg = BTreeMap::new();
    timed(&mut || {
        let r = index.search(
            &SearchRequest::match_all().size(0).agg("k", Aggregation::terms("syscall", 64)),
        );
        by_agg = r.aggs["k"]
            .buckets()
            .iter()
            .map(|b| (b.key.as_str().unwrap_or("").to_string(), b.doc_count))
            .collect::<BTreeMap<String, u64>>();
    });
    let mut alert_docs = 0;
    timed(&mut || {
        alert_docs =
            store.index(&format!("dio-telemetry-{name}")).count(&Query::term("kind", "alert"));
    });
    let problem = (by_agg != by_count || by_agg.values().sum::<u64>() != stored)
        .then(|| format!("terms(syscall) {by_agg:?} vs counts {by_count:?}"));
    (lat, alert_docs, problem)
}

pub struct LiveDiag {
    schedule: Schedule,
    work_dir: PathBuf,
}

impl LiveDiag {
    pub fn new(seed: u64, work_dir: PathBuf) -> Self {
        LiveDiag { schedule: schedule(seed), work_dir }
    }

    pub fn tracer_config(name: &str) -> TracerConfig {
        TracerConfig::new(name)
            .diagnose(DiagnoseConfig::default())
            .shipped_rules()
            .profile(ProfileConfig::default())
    }
}

impl crate::Workload for LiveDiag {
    fn describe(&self) -> String {
        let s = &self.schedule;
        let rotations = s.steps.iter().filter(|(_, a)| matches!(a, Action::Rotate(_))).count();
        let polls = s.steps.iter().filter(|(_, a)| matches!(a, Action::Poll)).count();
        format!(
            "{PLUGINS} tailers ({} V1_4_0), {} steps: {rotations} rotations, {polls} polls; \
             {} lost generations, {} lost bytes; a scrape every {SCRAPE_EVERY} steps",
            (0..PLUGINS).filter(|&p| version(p) == FluentBitVersion::V1_4_0).count(),
            s.steps.len(),
            s.lost_generations(),
            s.lost_bytes.iter().sum::<u64>()
        )
    }

    fn nominal_session_s(&self) -> f64 {
        4.4
    }

    fn session(&mut self, idx: u64) -> Session {
        let schedule = &self.schedule;
        let place = Placement::new();
        place.app();
        let setup = Instant::now();
        let dir = self.work_dir.join(format!("live-{idx}"));
        let _ = std::fs::remove_dir_all(&dir);
        let k = kernel();
        let mut fleet = Fleet::new(&k);
        place.pipeline();
        let store = DocStore::open(&dir).expect("open the persistent store");
        let name = format!("live-{idx}");
        let tracer = {
            let _s = span("tracer.attach");
            Tracer::attach(Self::tracer_config(&name), &k, store.clone())
        };
        let server = serve(
            "127.0.0.1:0",
            ServeState {
                session: name.clone(),
                registry: Arc::clone(tracer.registry()),
                backend: Arc::new(store.clone()),
                index_name: tracer.index_name().to_string(),
                telemetry_index: format!("dio-telemetry-{name}"),
                engine: tracer.diagnosis(),
                profiler: tracer.profiler(),
            },
        )
        .expect("bind the introspection server on localhost");
        let addr = server.addr();
        place.app();
        let setup_s = secs(setup);
        // Right before the app, as in `storm`.
        let twin = untraced(schedule);

        let mut problems = Vec::new();
        let mut latencies = Vec::with_capacity(schedule.steps.len());
        let mut errors = 0;
        let mut scrape_s = 0.0;
        let mut scrape_cpu_ns = 0;
        let mut scrapes = 0;
        let cpu0 = cpu_ns();
        let app_cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        {
            let _s = span("app");
            for (i, &(p, action)) in schedule.steps.iter().enumerate() {
                let t = Instant::now();
                errors += fleet.step(p, action, i);
                latencies.push(t.elapsed().as_nanos() as u64);
                if (i + 1) % SCRAPE_EVERY == 0 {
                    // The scrape and its lint are the benchmark's, not the
                    // app's: their time is left out of the app's.
                    let (t, cpu) = (Instant::now(), thread_cpu_ns());
                    let body = {
                        let _s = span("serve.scrape");
                        scrape(addr)
                    };
                    scrapes += 1;
                    match body {
                        Ok(text) => {
                            let lint = lint_openmetrics(&text);
                            if !lint.is_empty() {
                                problems.push(format!("scrape {scrapes} fails lint: {lint:?}"));
                            }
                        }
                        Err(e) => problems.push(format!("scrape {scrapes}: {e}")),
                    }
                    scrape_s += secs(t);
                    scrape_cpu_ns += thread_cpu_ns() - cpu;
                }
            }
        }
        let app_s = secs(t0) - scrape_s;
        let app_cpu_ns = thread_cpu_ns() - app_cpu0 - scrape_cpu_ns;
        let app_end = Instant::now();
        let summary = {
            let _s = span("tracer.stop");
            tracer.stop()
        };
        drop(server);
        let index = store.index(&summary.index_name);
        let correlation = {
            let _s = span("correlate.paths");
            correlate_paths(&index)
        };
        let stopped_s = secs(t0);
        let cpu = cpu_ns() - cpu0;
        let first = {
            let _s = span("backend.query");
            index.count(&Query::MatchAll)
        };
        let queryable_s = secs(app_end);

        let mut rounds = Vec::new();
        let mut alert_docs = 0;
        for _ in 0..crate::QUERY_ROUNDS {
            let (lat, docs, problem) = query_mix(&store, &name, first);
            rounds.push(lat);
            alert_docs = docs;
            problems.extend(problem);
        }

        // Checks against the schedule's loss model.
        let mut want: BTreeMap<(u64, u64, &'static str), u64> = BTreeMap::new();
        for (p, lost) in schedule.lost.iter().enumerate() {
            for &(offset, kind) in lost {
                *want.entry((fleet.plugin_pids[p], offset, kind.as_str())).or_insert(0) += 1;
            }
        }
        let mut failed = 0;
        for detector in ["data_loss", "rules"] {
            let got = loss_alerts(&summary.alerts, detector);
            let missing: u64 =
                want.iter().map(|(k, n)| n.saturating_sub(got.get(k).copied().unwrap_or(0))).sum();
            let extra: u64 =
                got.iter().map(|(k, n)| n.saturating_sub(want.get(k).copied().unwrap_or(0))).sum();
            failed = failed.max(missing);
            if missing + extra > 0 {
                problems.push(format!(
                    "{detector}: {missing} lost generation(s) without their alert, {extra} \
                     alert(s) naming no lost generation"
                ));
            }
        }
        for p in 0..PLUGINS {
            let lost = schedule.written[p] - fleet.bytes_consumed(p);
            if lost != schedule.lost_bytes[p] {
                problems.push(format!(
                    "plugin {p} ({:?}) lost {lost} bytes, the model predicts {}",
                    version(p),
                    schedule.lost_bytes[p]
                ));
            }
        }
        if errors > 0 {
            problems.push(format!("{errors} schedule step(s) failed"));
        }
        if correlation.events_unresolved != 0 {
            problems.push(format!("{} event(s) unresolved", correlation.events_unresolved));
        }
        drop(index);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        if twin.errors > 0 {
            problems.push(format!("{} schedule step(s) failed untraced", twin.errors));
        }
        place.release();
        latencies.sort_unstable();
        let stats = summary.diagnosis.unwrap_or_default();
        Session {
            setup_s,
            app: AppRun {
                app_s,
                untraced_s: twin.wall_s(),
                overhead_x: app_cpu_ns as f64 / twin.cpu_ns(),
                latencies,
            },
            events: summary.events_stored,
            events_per_s: summary.events_stored as f64 / stopped_s,
            cpu_ns_per_event: cpu as f64 / summary.events_stored.max(1) as f64,
            queryable_s,
            query_ms: mix_ms(&rounds),
            attempted: schedule.lost_generations(),
            failed,
            problems,
            note: format!(
                "app_cpu={:.3}s alerts={} alert_docs={alert_docs} degraded_batches={} sampled_out={} \
                 scrapes={scrapes} dropped={}",
                app_cpu_ns as f64 / 1e9,
                summary.alerts.len(),
                stats.degraded_batches,
                stats.sampled_out,
                summary.events_dropped
            ),
        }
    }

    fn ledger(&mut self, sessions: &[Session], e2e: &Metrics) -> Metrics {
        let schedule = &self.schedule;
        let app = |k: &Kernel, attach: &dyn Fn(&Kernel)| {
            let mut fleet = Fleet::new(k);
            attach(k);
            let before = k.syscalls_executed();
            let t = Instant::now();
            let errors: u64 =
                schedule.steps.iter().enumerate().map(|(i, &(p, a))| fleet.step(p, a, i)).sum();
            let timed = secs(t);
            assert_eq!(errors, 0, "the schedule replays cleanly on a fresh kernel");
            (timed, k.syscalls_executed() - before)
        };
        let mut m = ledger::passes(&ledger::Spec {
            filter: FilterSpec::new(),
            kernel: &kernel,
            app: &app,
            slots: schedule.steps.len() * 16,
            work_dir: &self.work_dir,
        });
        let unattributed = ledger::live_unattributed(&m, sessions, e2e);
        m.set("ledger.unattributed_ns", unattributed, "ns");
        m
    }
}
