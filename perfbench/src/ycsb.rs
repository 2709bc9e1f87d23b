//! `ycsb_a`: the Table II workload. lsmkv under a YCSB-A (Zipfian 0.99)
//! closed loop of two clients on the contended disk, traced with the
//! §III-C data-path filter and the calibrated `DIO_COST_*` defaults. Each
//! session times an untraced and a traced measured phase on the same
//! inputs, alternating which runs first.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dio_backend::{Aggregation, DocStore, Index, Query, SearchRequest};
use dio_bench::rocksdb_run::{contended_disk, costs, data_path_syscalls};
use dio_correlate::correlate_paths;
use dio_dbbench::{KeyDistribution, KeyGenerator, Operation, ValueGenerator, YcsbWorkload};
use dio_ebpf::{FilterSpec, RingConfig};
use dio_kernel::{
    DiskProfile, EnterEvent, ExitEvent, Kernel, KernelInspect, Process, SyscallProbe,
};
use dio_lsmkv::{Db, LsmOptions};
use dio_syscall::SyscallSet;
use dio_tracer::{Tracer, TracerConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::ledger;
use crate::measure::{cpu_ns, mix_ms, secs, Metrics};
use crate::spans::span;
use crate::{AppRun, Session};

/// Records loaded before each measured phase.
pub const RECORDS: u64 = 20_000;
/// Measured operations per client.
pub const OPS_PER_CLIENT: u64 = 12_000;
/// Closed-loop clients (one on the calling thread, one spawned).
pub const CLIENTS: u64 = 2;
/// Background compaction threads of the store (plus its flush thread).
pub const COMPACTION_THREADS: usize = 2;
const VALUE_SIZE: usize = 400;
/// Dataset and client ops of the ledger's single-client pass.
const LEDGER_RECORDS: u64 = 5_000;
const LEDGER_OPS: u64 = 6_000;

pub fn options() -> LsmOptions {
    LsmOptions { compaction_threads: COMPACTION_THREADS, ..LsmOptions::benchmark_profile("/db") }
}

/// The tracer configuration of Table II's DIO column: data-path syscalls
/// only, 16 MiB/CPU of ring, the calibrated in-kernel costs.
pub fn tracer_config(name: &str) -> TracerConfig {
    TracerConfig::new(name)
        .syscalls(data_path_syscalls())
        .ring(RingConfig::with_bytes_per_cpu(16 * 1024 * 1024))
        .kernel_costs(costs::dio_enter_ns(), costs::dio_exit_ns())
}

/// Loads `records` keys with two loaders (this thread and one spawned),
/// mirroring `dio_dbbench::load_phase`'s per-loader value seeds, then
/// shuts the store down so the measured phase reopens every file.
pub fn load(process: &Process, records: u64, seed: u64) -> Db {
    let db = Arc::new(Db::open(process, options()).expect("open store for load"));
    let per = records.div_ceil(2);
    let load_range = |t: u64| {
        let ctx = process.spawn_thread("db_bench_load");
        let db = Arc::clone(&db);
        move || {
            let mut values = ValueGenerator::new(VALUE_SIZE, seed + t);
            for i in per * t..(per * (t + 1)).min(records) {
                db.put(&ctx, &KeyGenerator::key_for(i), &values.next_value()).expect("load put");
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(load_range(1));
        load_range(0)();
    });
    let loader = process.spawn_thread("db_bench_load");
    db.shutdown(&loader).expect("settle after load");
    Arc::into_inner(db).expect("loaders joined")
}

/// One closed-loop client: the op mix and key/value streams of client `t`
/// in `dio_dbbench::run`, recording each operation's latency exactly.
fn client(
    db: &Db,
    process: &Process,
    t: u64,
    ops: u64,
    records: u64,
    seed: u64,
) -> (Vec<u64>, u64) {
    let ctx = process.spawn_thread("db_bench");
    let mut keys =
        KeyGenerator::new(records, KeyDistribution::Zipfian { theta: 0.99 }, seed + 100 + t);
    let mut values = ValueGenerator::new(VALUE_SIZE, seed + 200 + t);
    let mut op_rng = SmallRng::seed_from_u64(seed + 300 + t);
    let mut latencies = Vec::with_capacity(ops as usize);
    let mut errors = 0;
    for _ in 0..ops {
        let op = YcsbWorkload::A.next_op(&mut op_rng);
        let start = Instant::now();
        let ok = match op {
            Operation::Read => db.get(&ctx, &keys.next_key()).is_ok(),
            Operation::Update => db.put(&ctx, &keys.next_key(), &values.next_value()).is_ok(),
            other => unreachable!("YCSB-A issues only reads and updates, got {other:?}"),
        };
        latencies.push(start.elapsed().as_nanos() as u64);
        errors += u64::from(!ok);
    }
    (latencies, errors)
}

/// Runs every client to completion; returns (wall s, sorted latencies,
/// ops, errors).
pub fn clients(
    db: &Db,
    process: &Process,
    ops: u64,
    records: u64,
    seed: u64,
) -> (f64, Vec<u64>, u64, u64) {
    let start = Instant::now();
    let (mut lat, errors) = std::thread::scope(|s| {
        let other = s.spawn(|| client(db, process, 1, ops, records, seed));
        let (mut lat, errors) = client(db, process, 0, ops, records, seed);
        let (lat1, errors1) = other.join().expect("client thread panicked");
        lat.extend(lat1);
        (lat, errors + errors1)
    });
    let wall = secs(start);
    lat.sort_unstable();
    let n = lat.len() as u64;
    (wall, lat, n, errors)
}

fn kernel() -> Kernel {
    Kernel::builder().num_cpus(4).root_disk(contended_disk()).build()
}

/// Counts every exit of the selected kinds, apart from the tracer.
pub struct CountingProbe {
    kinds: SyscallSet,
    pub seen: AtomicU64,
}

impl CountingProbe {
    pub fn new() -> Arc<Self> {
        Arc::new(CountingProbe {
            kinds: data_path_syscalls().into_iter().collect(),
            seen: AtomicU64::new(0),
        })
    }
}

impl SyscallProbe for CountingProbe {
    fn kinds(&self) -> SyscallSet {
        self.kinds
    }

    fn on_enter(&self, _view: &dyn KernelInspect, _event: &EnterEvent<'_>) {}

    fn on_exit(&self, _view: &dyn KernelInspect, _event: &ExitEvent) {
        self.seen.fetch_add(1, Ordering::Relaxed);
    }
}

struct Phase {
    setup_s: f64,
    app_s: f64,
    latencies: Vec<u64>,
    ops: u64,
    errors: u64,
    traced: Option<TracedPhase>,
}

struct TracedPhase {
    events: u64,
    events_per_s: f64,
    cpu_ns_per_event: f64,
    queryable_s: f64,
    query_ms: f64,
    problems: Vec<String>,
    note: String,
}

/// The fixed query mix over the correlated index: a count per selected
/// kind and a terms aggregation, checked against each other and the
/// stored count. Returns the latencies (ms) and problems.
fn query_mix(index: &Index, stored: u64) -> (Vec<f64>, Vec<String>) {
    let mut lat = Vec::new();
    let mut problems = Vec::new();
    let kinds: Vec<&str> = data_path_syscalls().into_iter().map(|k| k.name()).collect();
    let mut by_count = 0;
    for kind in &kinds {
        let _s = span("backend.query");
        let t = Instant::now();
        by_count += index.count(&Query::term("syscall", *kind));
        lat.push(secs(t) * 1e3);
    }
    let t = Instant::now();
    let r = {
        let _s = span("backend.query");
        index
            .search(&SearchRequest::match_all().size(0).agg("k", Aggregation::terms("syscall", 64)))
    };
    lat.push(secs(t) * 1e3);
    let mut by_agg = 0;
    for b in r.aggs["k"].buckets() {
        let name = b.key.as_str().unwrap_or("");
        if !kinds.contains(&name) {
            problems.push(format!("{} event(s) of unselected kind {name}", b.doc_count));
        }
        by_agg += b.doc_count;
    }
    if by_count != stored || by_agg != stored {
        problems.push(format!("per-kind counts {by_count} / terms {by_agg} != stored {stored}"));
    }
    (lat, problems)
}

fn phase(seed: u64, traced: bool, idx: u64) -> Phase {
    let setup = Instant::now();
    let kernel = kernel();
    let process = kernel.spawn_process("db_bench");
    drop(load(&process, RECORDS, seed));
    let backend = DocStore::new();
    let name = format!("ycsb-{idx}");
    let tracer = traced.then(|| {
        let _s = span("tracer.attach");
        Tracer::attach(tracer_config(&name), &kernel, backend.clone())
    });
    let counter = CountingProbe::new();
    let counter_id =
        traced.then(|| kernel.tracepoints().attach(Arc::clone(&counter) as Arc<dyn SyscallProbe>));
    let db = Db::open(&process, options()).expect("reopen store for the measured phase");
    let setup_s = secs(setup);

    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    let (app_s, latencies, ops, errors) = {
        let _s = span("app");
        clients(&db, &process, OPS_PER_CLIENT, RECORDS, seed)
    };
    db.shutdown(&process.spawn_thread("closer")).expect("shutdown store");
    let app_end = Instant::now();
    let Some(tracer) = tracer else {
        return Phase { setup_s, app_s, latencies, ops, errors, traced: None };
    };
    if let Some(id) = counter_id {
        kernel.tracepoints().detach(id);
    }
    let summary = {
        let _s = span("tracer.stop");
        tracer.stop()
    };
    let index = backend.index(&format!("dio-{name}"));
    let stop = Instant::now();
    let correlation = {
        let _s = span("correlate.paths");
        correlate_paths(&index)
    };
    let correlate_s = secs(stop);
    let stopped_s = secs(t0);
    let cpu = cpu_ns() - cpu0;
    let first = {
        let _s = span("backend.query");
        index.count(&Query::MatchAll)
    };
    let queryable_s = secs(app_end);
    let (lat, mut problems) = query_mix(&index, summary.events_stored);
    let mut rounds = vec![lat];
    for _ in 1..crate::QUERY_ROUNDS {
        rounds.push(query_mix(&index, summary.events_stored).0);
    }

    let stored = summary.events_stored;
    let join_overflow = summary.health.counter("ebpf.join.overflow");
    if first != stored || index.len() as u64 != stored {
        problems.push(format!("index holds {first} docs, tracer stored {stored}"));
    }
    let seen = counter.seen.load(Ordering::Relaxed);
    if seen != stored + summary.events_dropped + join_overflow {
        problems.push(format!(
            "counting probe saw {seen} events, tracer stored {stored} + dropped {} + \
             join overflow {join_overflow}",
            summary.events_dropped
        ));
    }
    if correlation.events_unresolved != 0 {
        problems.push(format!("{} event(s) unresolved", correlation.events_unresolved));
    }
    Phase {
        setup_s,
        app_s,
        latencies,
        ops,
        errors,
        traced: Some(TracedPhase {
            events: stored,
            events_per_s: stored as f64 / stopped_s,
            cpu_ns_per_event: cpu as f64 / stored.max(1) as f64,
            queryable_s,
            query_ms: mix_ms(&rounds),
            problems,
            note: format!(
                "syscalls_seen={seen} dropped={} correlate={correlate_s:.3}s",
                summary.events_dropped
            ),
        }),
    }
}

/// The `ycsb_a` workload of one run.
pub struct Ycsb {
    seed: u64,
    work_dir: PathBuf,
}

impl Ycsb {
    pub fn new(seed: u64, work_dir: PathBuf) -> Self {
        Ycsb { seed, work_dir }
    }
}

impl crate::Workload for Ycsb {
    fn describe(&self) -> String {
        format!(
            "YCSB-A (50% read, 50% update, Zipfian 0.99) over {RECORDS} records of \
             {VALUE_SIZE} B, {CLIENTS} clients x {OPS_PER_CLIENT} ops, \
             {COMPACTION_THREADS} compaction threads, seed {}",
            self.seed
        )
    }

    fn nominal_session_s(&self) -> f64 {
        4.5
    }

    fn session(&mut self, idx: u64) -> Session {
        let (untraced, traced) = if idx.is_multiple_of(2) {
            let u = phase(self.seed, false, idx);
            (u, phase(self.seed, true, idx))
        } else {
            let t = phase(self.seed, true, idx);
            (phase(self.seed, false, idx), t)
        };
        let mut problems = Vec::new();
        for (label, p) in [("untraced", &untraced), ("traced", &traced)] {
            if p.ops != CLIENTS * OPS_PER_CLIENT || p.errors != 0 {
                problems.push(format!(
                    "{label} phase: {} ops with {} errors, want {} ops and 0 errors",
                    p.ops,
                    p.errors,
                    CLIENTS * OPS_PER_CLIENT
                ));
            }
        }
        let tp = traced.traced.expect("traced phase carries session outputs");
        problems.extend(tp.problems);
        Session {
            setup_s: traced.setup_s,
            app: AppRun {
                app_s: traced.app_s,
                untraced_s: untraced.app_s,
                overhead_x: traced.app_s / untraced.app_s,
                latencies: traced.latencies,
            },
            events: tp.events,
            events_per_s: tp.events_per_s,
            cpu_ns_per_event: tp.cpu_ns_per_event,
            queryable_s: tp.queryable_s,
            query_ms: tp.query_ms,
            attempted: 2 * CLIENTS * OPS_PER_CLIENT,
            failed: untraced.errors + traced.errors,
            problems,
            note: tp.note,
        }
    }

    /// The ledger's app is one client of the same op mix on a smaller
    /// dataset and an instant disk, so the passes time CPU, not the disk.
    fn ledger(&mut self, sessions: &[Session], _e2e: &Metrics) -> Metrics {
        let seed = self.seed;
        let app = |k: &Kernel, attach: &dyn Fn(&Kernel)| {
            let process = k.spawn_process("db_bench");
            drop(load(&process, LEDGER_RECORDS, seed));
            attach(k);
            let db = Db::open(&process, options()).expect("reopen store for the ledger pass");
            let before = k.syscalls_executed();
            let t = Instant::now();
            let (_, errors) = client(&db, &process, 0, LEDGER_OPS, LEDGER_RECORDS, seed);
            let timed = (secs(t), k.syscalls_executed() - before);
            assert_eq!(errors, 0, "ledger client ops succeed");
            db.shutdown(&process.spawn_thread("closer")).expect("shutdown store");
            timed
        };
        let ledger_kernel =
            || Kernel::builder().num_cpus(4).root_disk(DiskProfile::instant()).build();
        let mut m = ledger::passes(&ledger::Spec {
            filter: FilterSpec::new().syscalls(data_path_syscalls()),
            kernel: &ledger_kernel,
            app: &app,
            slots: 1 << 16,
            work_dir: &self.work_dir,
        });
        let unattributed = ledger::ycsb_unattributed(&m, sessions, CLIENTS as f64);
        m.set("ledger.unattributed_ns", unattributed, "ns");
        m
    }
}
