//! `storm`: one thread issuing a seeded, deterministic data + metadata
//! syscall mix on an instant disk, traced with every syscall enabled, the
//! paper-default ring and the in-memory backend (taps off). After the app
//! ends the session stops, paths are correlated, and a fixed query and
//! dashboard mix runs over the session index.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use dio_backend::{Aggregation, Index, Query, SearchRequest};
use dio_core::{correlate_paths, dashboards, Dio, DiskProfile, Kernel, OpenFlags, TracerConfig};
use dio_ebpf::FilterSpec;
use dio_kernel::ThreadCtx;

use crate::ledger;
use crate::measure::{cpu_ns, mix_ms, secs, thread_cpu_ns, Metrics, Placement, SplitMix, Twin};
use crate::spans::span;
use crate::{AppRun, Session};

/// Concurrently open file generations.
const SLOTS: usize = 16;
/// File generations per session (each one is a distinct file tag).
const GENERATIONS: usize = 100;

/// Syscalls that name their file by descriptor (the correlation targets).
pub const FD_KINDS: [&str; 5] = ["write", "pwrite64", "pread64", "fsync", "close"];

/// One generated syscall; `usize` is the file generation it acts on.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Creat(usize),
    OpenRw(usize),
    OpenRo(usize),
    Write(usize, usize),
    Pwrite(usize, u64, usize),
    Pread(usize, u64, usize),
    Fsync(usize),
    Stat(usize),
    Close(usize),
    Rename(usize),
    Unlink(usize),
}

impl Op {
    fn kind(self) -> &'static str {
        match self {
            Op::Creat(_) => "creat",
            Op::OpenRw(_) | Op::OpenRo(_) => "openat",
            Op::Write(..) => "write",
            Op::Pwrite(..) => "pwrite64",
            Op::Pread(..) => "pread64",
            Op::Fsync(_) => "fsync",
            Op::Stat(_) => "stat",
            Op::Close(_) => "close",
            Op::Rename(_) => "rename",
            Op::Unlink(_) => "unlink",
        }
    }

    fn generation(self) -> usize {
        match self {
            Op::Creat(g)
            | Op::OpenRw(g)
            | Op::OpenRo(g)
            | Op::Write(g, _)
            | Op::Pwrite(g, ..)
            | Op::Pread(g, ..)
            | Op::Fsync(g)
            | Op::Stat(g)
            | Op::Close(g)
            | Op::Rename(g)
            | Op::Unlink(g) => g,
        }
    }
}

/// The generated input of one run plus the tallies the checks compare
/// against, all computed by the generator itself.
#[derive(Debug, Clone)]
pub struct Plan {
    pub ops: Vec<Op>,
    /// Open path of each generation.
    pub paths: Vec<String>,
    /// Syscalls per kind.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Descriptor-based syscalls per generation (hence per open path).
    pub fd_events: Vec<u64>,
}

/// The script of one file generation: open, data calls, stat, close,
/// reopen read-only, positional reads, close, rename, unlink. Unlink frees
/// the inode, and the lowest-free-inode policy hands it to the next
/// generation that opens a file.
fn generation_script(g: usize, rng: &mut SplitMix) -> Vec<Op> {
    // creat(2) opens write-only, so only read-write opens read back early.
    let readable = rng.chance(50);
    let mut ops = vec![if readable { Op::OpenRw(g) } else { Op::Creat(g) }];
    let mut size = 0u64;
    for _ in 0..rng.range(100, 500) {
        let roll = rng.range(0, 99);
        if size == 0 || roll < 45 {
            let len = rng.range(64, 2048) as usize;
            size += len as u64;
            ops.push(Op::Write(g, len));
        } else if roll < 65 {
            let off = rng.range(0, size - 1);
            let len = rng.range(64, 1024) as usize;
            size = size.max(off + len as u64);
            ops.push(Op::Pwrite(g, off, len));
        } else if roll < 90 && readable {
            ops.push(Op::Pread(g, rng.range(0, size - 1), rng.range(64, 1024) as usize));
        } else {
            ops.push(Op::Fsync(g));
        }
    }
    ops.push(Op::Stat(g));
    ops.push(Op::Close(g));
    ops.push(Op::OpenRo(g));
    for _ in 0..rng.range(40, 160) {
        ops.push(Op::Pread(g, rng.range(0, size - 1), rng.range(64, 1024) as usize));
    }
    ops.push(Op::Close(g));
    ops.push(Op::Rename(g));
    ops.push(Op::Unlink(g));
    ops
}

/// Interleaves `SLOTS` generation scripts at random until `GENERATIONS`
/// generations have run.
pub fn plan(seed: u64) -> Plan {
    let mut rng = SplitMix::new(seed);
    let mut scripts: Vec<(Vec<Op>, usize)> = Vec::new();
    let mut paths = Vec::new();
    for slot in 0..SLOTS {
        paths.push(format!("/f{slot}.0"));
        scripts.push((generation_script(slot, &mut rng), 0));
    }
    let mut ops = Vec::new();
    let mut live = SLOTS;
    while live > 0 {
        let slot = rng.range(0, SLOTS as u64 - 1) as usize;
        let (script, next) = &mut scripts[slot];
        if *next == script.len() {
            continue;
        }
        ops.push(script[*next]);
        *next += 1;
        if *next == script.len() {
            if paths.len() < GENERATIONS {
                let g = paths.len();
                paths.push(format!("/f{slot}.{g}"));
                *script = generation_script(g, &mut rng);
                *next = 0;
            } else {
                live -= 1;
            }
        }
    }
    let mut kinds = BTreeMap::new();
    let mut fd_events = vec![0u64; paths.len()];
    for op in &ops {
        *kinds.entry(op.kind()).or_insert(0) += 1;
        if FD_KINDS.contains(&op.kind()) {
            fd_events[op.generation()] += 1;
        }
    }
    Plan { ops, paths, kinds, fd_events }
}

/// Issues the plan's syscalls from `thread`, returning each call's latency
/// (ns) and the number of calls that failed.
pub fn execute(plan: &Plan, thread: &ThreadCtx) -> (Vec<u64>, u64) {
    let payload = vec![0x5au8; 2048];
    let mut buf = vec![0u8; 1024];
    let mut fds = vec![-1i32; plan.paths.len()];
    let mut latencies = Vec::with_capacity(plan.ops.len());
    let mut errors = 0u64;
    for &op in &plan.ops {
        let g = op.generation();
        let path = &plan.paths[g];
        let t = Instant::now();
        let ok = match op {
            Op::Creat(_) => thread.creat(path, 0o644).map(|fd| fds[g] = fd).is_ok(),
            Op::OpenRw(_) => thread
                .openat(path, OpenFlags::CREAT | OpenFlags::RDWR, 0o644)
                .map(|fd| fds[g] = fd)
                .is_ok(),
            Op::OpenRo(_) => {
                thread.openat(path, OpenFlags::RDONLY, 0).map(|fd| fds[g] = fd).is_ok()
            }
            Op::Write(_, len) => thread.write(fds[g], &payload[..len]).is_ok(),
            Op::Pwrite(_, off, len) => thread.pwrite64(fds[g], &payload[..len], off).is_ok(),
            Op::Pread(_, off, len) => thread.pread64(fds[g], &mut buf[..len], off).is_ok(),
            Op::Fsync(_) => thread.fsync(fds[g]).is_ok(),
            Op::Stat(_) => thread.stat(path).is_ok(),
            Op::Close(_) => thread.close(fds[g]).is_ok(),
            Op::Rename(_) => thread.rename(path, &format!("{path}.old")).is_ok(),
            Op::Unlink(_) => thread.unlink(&format!("{path}.old")).is_ok(),
        };
        latencies.push(t.elapsed().as_nanos() as u64);
        errors += u64::from(!ok);
    }
    (latencies, errors)
}

fn kernel() -> Kernel {
    Kernel::builder().num_cpus(2).root_disk(DiskProfile::instant()).build()
}

/// The untraced app: the same plan on fresh kernels with no probe; the
/// medians of `UNTRACED_REPEATS` runs (it lasts tens of milliseconds).
fn untraced(plan: &Plan) -> Twin {
    let mut twin = Twin::default();
    for _ in 0..crate::UNTRACED_REPEATS {
        let k = kernel();
        let thread = k.spawn_process("storm").spawn_thread("storm");
        let (t, cpu) = (Instant::now(), thread_cpu_ns());
        twin.errors += execute(plan, &thread).1;
        twin.record(secs(t), thread_cpu_ns() - cpu);
    }
    twin
}

/// Runs the fixed query mix, checking each answer against the plan's
/// tallies. Returns every query's latency (ms) and the problems found.
pub fn query_mix(index: &Index, plan: &Plan, seed: u64) -> (Vec<f64>, Vec<String>) {
    let mut lat = Vec::new();
    let mut problems = Vec::new();
    let mut timed = |f: &mut dyn FnMut()| {
        let _s = span("backend.query");
        let t = Instant::now();
        f();
        lat.push(t.elapsed().as_secs_f64() * 1e3);
    };
    let fd_kinds = || Query::terms("syscall", FD_KINDS);
    for (kind, want) in &plan.kinds {
        let mut got = 0;
        timed(&mut || got = index.count(&Query::term("syscall", *kind)));
        if got != *want {
            problems.push(format!("count(syscall={kind}) = {got}, generator issued {want}"));
        }
    }
    let mut by_kind = BTreeMap::new();
    timed(&mut || {
        let r = index.search(
            &SearchRequest::match_all().size(0).agg("k", Aggregation::terms("syscall", 64)),
        );
        by_kind = r.aggs["k"]
            .buckets()
            .iter()
            .map(|b| (b.key.as_str().unwrap_or("").to_string(), b.doc_count))
            .collect();
    });
    let want_kinds: BTreeMap<String, u64> =
        plan.kinds.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    if by_kind != want_kinds {
        problems.push(format!("terms(syscall) {by_kind:?} != generator tally {want_kinds:?}"));
    }
    let mut by_path = BTreeMap::new();
    timed(&mut || {
        let r = index.search(
            &SearchRequest::new(fd_kinds())
                .size(0)
                .agg("p", Aggregation::terms("file_path", plan.paths.len() + 16)),
        );
        by_path = r.aggs["p"]
            .buckets()
            .iter()
            .map(|b| (b.key.as_str().unwrap_or("").to_string(), b.doc_count))
            .collect();
    });
    let want_paths: BTreeMap<String, u64> =
        plan.paths.iter().cloned().zip(plan.fd_events.iter().copied()).collect();
    if by_path != want_paths {
        let wrong = want_paths.iter().filter(|(p, n)| by_path.get(*p) != Some(n)).count();
        problems.push(format!("{wrong} generation(s) with fd events not labelled by open path"));
    }
    let mut rng = SplitMix::new(seed ^ 0x5175_6572);
    for _ in 0..8 {
        let g = rng.range(0, plan.paths.len() as u64 - 1) as usize;
        let mut got = 0;
        timed(&mut || {
            got = index.count(
                &Query::bool_query()
                    .must(Query::term("file_path", plan.paths[g].clone()))
                    .must(fd_kinds())
                    .build(),
            )
        });
        if got != plan.fd_events[g] {
            problems.push(format!(
                "count(fd events of {}) = {got}, want {}",
                plan.paths[g], plan.fd_events[g]
            ));
        }
    }
    let mut unresolved = 0;
    timed(&mut || {
        unresolved = index.count(
            &Query::bool_query()
                .must(Query::exists("file_tag"))
                .must_not(Query::exists("file_path"))
                .build(),
        )
    });
    if unresolved != 0 {
        problems.push(format!("{unresolved} tagged event(s) without a path after correlation"));
    }
    (lat, problems)
}

/// One measured session, with its untraced twin.
pub fn session(plan: &Plan, seed: u64, idx: u64) -> Session {
    let place = Placement::new();
    place.app();
    let setup = Instant::now();
    let dio = Dio::with_kernel(kernel());
    let name = format!("storm-{idx}");
    place.pipeline();
    let session = {
        let _s = span("tracer.attach");
        dio.trace(TracerConfig::new(name.clone())).manual_correlation()
    };
    place.app();
    let thread = dio.kernel().spawn_process("storm").spawn_thread("storm");
    let setup_s = secs(setup);
    // The twin runs right before the app, so both see the host in the
    // same state: the host's CPU speed drifts within seconds.
    let twin = untraced(plan);

    let cpu0 = cpu_ns();
    let app_cpu0 = thread_cpu_ns();
    let t0 = Instant::now();
    let (mut latencies, errors) = {
        let _s = span("app");
        execute(plan, &thread)
    };
    let app_s = secs(t0);
    let app_cpu_ns = thread_cpu_ns() - app_cpu0;
    let app_end = Instant::now();
    let report = {
        let _s = span("tracer.stop");
        session.stop()
    };
    let stop_s = secs(app_end);
    let index = dio.session_index(&name).expect("session index exists after stop");
    let correlation = {
        let _s = span("correlate.paths");
        correlate_paths(&index)
    };
    let correlate_s = secs(app_end) - stop_s;
    let stopped_s = secs(t0);
    let cpu = cpu_ns() - cpu0;
    let first = {
        let _s = span("backend.query");
        index.count(&Query::MatchAll)
    };
    let queryable_s = secs(app_end);
    let (lat, mut problems) = query_mix(&index, plan, seed);
    let mut rounds = vec![lat];
    for _ in 1..crate::QUERY_ROUNDS {
        rounds.push(query_mix(&index, plan, seed).0);
    }
    let rendered = {
        let _s = span("viz.render");
        dashboards::syscall_table(Query::term("file_path", plan.paths[0].clone())).render(&index)
    };
    if !rendered.contains("creat") && !rendered.contains("openat") {
        problems.push("syscall table of the first generation lists no open".to_string());
    }

    let trace = &report.trace;
    let issued = plan.ops.len() as u64;
    if first != issued {
        problems.push(format!("index holds {first} docs, {issued} syscalls issued"));
    }
    if correlation.events_unresolved != 0 {
        problems.push(format!("{} event(s) unresolved", correlation.events_unresolved));
    }
    if errors != 0 {
        problems.push(format!("{errors} generated syscall(s) failed"));
    }
    if twin.errors != 0 {
        problems.push(format!("{} syscall(s) failed untraced", twin.errors));
    }
    place.release();
    latencies.sort_unstable();
    Session {
        setup_s,
        app: AppRun {
            app_s,
            untraced_s: twin.wall_s(),
            overhead_x: app_cpu_ns as f64 / twin.cpu_ns(),
            latencies,
        },
        events: trace.events_stored,
        events_per_s: trace.events_stored as f64 / stopped_s,
        cpu_ns_per_event: cpu as f64 / trace.events_stored.max(1) as f64,
        queryable_s,
        query_ms: mix_ms(&rounds),
        attempted: issued,
        failed: issued.saturating_sub(trace.events_stored) + errors,
        problems,
        note: format!(
            "app_cpu={:.3}s stop={stop_s:.3}s correlate={correlate_s:.3}s dropped={} join_overflow={} tags={} \
             unresolved={}",
            app_cpu_ns as f64 / 1e9,
            trace.events_dropped,
            trace.health.counter("ebpf.join.overflow"),
            correlation.tags_resolved,
            correlation.events_unresolved
        ),
    }
}

/// The `storm` workload of one run: its plan is generated once from the
/// seed and replayed by every session.
pub struct Storm {
    seed: u64,
    plan: Plan,
    work_dir: PathBuf,
}

impl Storm {
    pub fn new(seed: u64, work_dir: PathBuf) -> Self {
        Storm { seed, plan: plan(seed), work_dir }
    }
}

impl crate::Workload for Storm {
    fn describe(&self) -> String {
        format!(
            "{} syscalls over {} file generations ({SLOTS} open at a time): {:?}",
            self.plan.ops.len(),
            self.plan.paths.len(),
            self.plan.kinds
        )
    }

    fn nominal_session_s(&self) -> f64 {
        2.7
    }

    fn session(&mut self, idx: u64) -> Session {
        session(&self.plan, self.seed, idx)
    }

    fn ledger(&mut self, sessions: &[Session], e2e: &Metrics) -> Metrics {
        let plan = &self.plan;
        let app = |k: &Kernel, attach: &dyn Fn(&Kernel)| {
            let thread = k.spawn_process("storm").spawn_thread("storm");
            attach(k);
            let before = k.syscalls_executed();
            let t = Instant::now();
            let (_, errors) = execute(plan, &thread);
            let timed = secs(t);
            assert_eq!(errors, 0, "the plan replays cleanly on a fresh kernel");
            (timed, k.syscalls_executed() - before)
        };
        let mut m = ledger::passes(&ledger::Spec {
            filter: FilterSpec::new(),
            kernel: &kernel,
            app: &app,
            slots: plan.ops.len() + 64,
            work_dir: &self.work_dir,
        });
        let unattributed = ledger::storm_unattributed(&m, sessions, e2e);
        m.set("ledger.unattributed_ns", unattributed, "ns");
        m
    }
}
