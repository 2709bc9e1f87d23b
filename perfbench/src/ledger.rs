//! The per-layer cost ledger of a traced run.
//!
//! Calls the benchmark makes itself (attach, stop, correlation, queries,
//! render, scrapes) are read from its spans. Stages that run on DIO's own
//! threads are measured by ledger passes that call the same public
//! functions, one layer at a time, over the workload's own event stream:
//! the workload's app is re-run on a fresh kernel without a probe and with
//! a `TracerProgram` attached alone, and the events that program emits
//! are drained, parsed, shipped through a channel, indexed, persisted and
//! fed to the diagnosis, rules and profiling taps. Per-event figures are
//! medians over `PASSES` repeated passes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dio_backend::{DocStore, Query};
use dio_diagnose::{DiagnoseConfig, DiagnosisEngine, DynDetector};
use dio_ebpf::{FilterSpec, ProgramConfig, RawEvent, RingBuffer, TracerProgram};
use dio_kernel::{Kernel, SyscallProbe};
use dio_profile::{DfgMiner, ProfileConfig};
use dio_serve::{serve, ServeState};
use dio_telemetry::MetricsRegistry;
use serde_json::{json, Value};

use crate::measure::{median, secs, Metrics};
use crate::{spans, Session};

const PASSES: usize = 3;
/// The tracer's bulk batch and its ship channel's capacity (64 batches).
const BATCH: usize = 1_000;
const CHANNEL_CAPACITY: usize = BATCH * 64;
/// Tags the `update_by_query` pass rewrites (each call walks the index).
const UBQ_CALLS: usize = 32;
const SCRAPES: usize = 20;

/// Runs the workload's app on `kernel`: untimed preparation, then the
/// `attach` hook, then the timed part. Returns the timed seconds and the
/// syscalls the timed part executed.
pub type AppPass<'a> = &'a dyn Fn(&Kernel, &dyn Fn(&Kernel)) -> (f64, u64);

/// What a workload hands the ledger.
pub struct Spec<'a> {
    pub filter: FilterSpec,
    pub kernel: &'a dyn Fn() -> Kernel,
    pub app: AppPass<'a>,
    /// Ring slots per CPU for the probe pass (must hold every event).
    pub slots: usize,
    pub work_dir: &'a Path,
}

fn per_event_ns(t: Instant, events: usize) -> f64 {
    secs(t) * 1e9 / events.max(1) as f64
}

/// Median self time (ms) of the benchmark's spans named `name`.
fn span_ms(name: &str) -> f64 {
    spans::median_self_ns(name) / 1e6
}

/// The layer passes. Returns the per-layer metrics (without the
/// workload-specific `ledger.unattributed_ns`).
pub fn passes(spec: &Spec<'_>) -> Metrics {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut add = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);
    let mut scrape_ms = Vec::new();
    let mut render_ms = Vec::new();
    for pass in 0..PASSES {
        // kernel: the app with no probe attached.
        let k = (spec.kernel)();
        let (t_none, n_none) = (spec.app)(&k, &|_| {});
        drop(k);
        add("kernel.syscall_ns", t_none * 1e9 / n_none.max(1) as f64);

        // ebpf: the same app with the tracer's program attached alone, no
        // injected DIO_COST_* spin.
        let k = (spec.kernel)();
        let ring = Arc::new(RingBuffer::<RawEvent>::with_slots(k.num_cpus(), spec.slots));
        let program = TracerProgram::new(
            ProgramConfig {
                filter: spec.filter.clone(),
                enrich: true,
                capture_paths: true,
                enter_cost_ns: 0,
                exit_cost_ns: 0,
                join_capacity: 65_536,
            },
            Arc::clone(&ring),
        )
        .expect("the workload's filter verifies");
        let (t_probe, _) = (spec.app)(&k, &|k: &Kernel| {
            k.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);
        });
        let emitted = program.stats().emitted as usize;
        assert_eq!(ring.stats().dropped, 0, "ledger ring must hold the whole pass");
        add("ebpf.probe_ns", (t_probe - t_none) * 1e9 / emitted.max(1) as f64);

        let t = Instant::now();
        let mut raws = Vec::with_capacity(emitted);
        loop {
            let batch = ring.drain_all_stamped(4_096);
            if batch.is_empty() {
                break;
            }
            raws.extend(batch);
        }
        add("ebpf.drain_ns", per_event_ns(t, raws.len()));
        let events = raws.len();

        let t = Instant::now();
        let docs: Vec<Value> =
            raws.into_iter().map(|r| r.into_event("ledger").to_document()).collect();
        add("tracer.parse_ns", per_event_ns(t, events));

        let t = Instant::now();
        let (tx, rx) = crossbeam::channel::bounded::<Value>(CHANNEL_CAPACITY);
        let docs: Vec<Value> = std::thread::scope(|s| {
            s.spawn(move || {
                for d in docs {
                    tx.send(d).expect("receiver outlives the sender");
                }
            });
            let mut out = Vec::with_capacity(events);
            while let Ok(d) = rx.recv() {
                out.push(d);
            }
            out
        });
        add("tracer.channel_ns", per_event_ns(t, events));

        let registry = MetricsRegistry::new();
        let store = DocStore::new();
        let mut bulk_ns = 0.0;
        for chunk in docs.chunks(BATCH) {
            let batch = chunk.to_vec();
            let t = Instant::now();
            store.bulk("dio-ledger", batch);
            bulk_ns += secs(t) * 1e9;
        }
        add("backend.bulk_ns", bulk_ns / events.max(1) as f64);
        let index = store.index("dio-ledger");
        let t = Instant::now();
        index.refresh();
        add("backend.refresh_ns", secs(t) * 1e9);

        // Path correlation's inner call: one update_by_query per tag.
        let mut opens: BTreeMap<String, String> = BTreeMap::new();
        for d in &docs {
            if matches!(d["syscall"].as_str(), Some("open" | "openat" | "creat")) {
                if let (Some(tag), Some(path)) = (d["file_tag"].as_str(), d["file_path"].as_str()) {
                    opens.insert(tag.to_string(), path.to_string());
                }
            }
        }
        let t = Instant::now();
        let calls = opens.len().min(UBQ_CALLS);
        for (tag, path) in opens.iter().take(calls) {
            let q = Query::bool_query()
                .must(Query::term("file_tag", tag.clone()))
                .must_not(Query::exists("file_path"))
                .build();
            let path = json!(path);
            index.update_by_query(&q, |d| d["file_path"] = path.clone());
        }
        add("backend.update_by_query_us", secs(t) * 1e6 / calls.max(1) as f64);

        let t = Instant::now();
        let table =
            dio_viz::dashboards::syscall_table(Query::term("syscall", "close")).render(&index);
        render_ms.push(secs(t) * 1e3);
        std::hint::black_box(table);

        let dir = spec.work_dir.join(format!("ledger-store-{pass}"));
        let _ = std::fs::remove_dir_all(&dir);
        let persistent = DocStore::open(&dir).expect("open the ledger's persistent store");
        let mut persist_ns = 0.0;
        for chunk in docs.chunks(BATCH) {
            let batch = chunk.to_vec();
            let t = Instant::now();
            persistent.bulk("dio-ledger", batch);
            persist_ns += secs(t) * 1e9;
        }
        add("backend.persist_bulk_ns", persist_ns / events.max(1) as f64);
        let t = Instant::now();
        persistent.flush().expect("flush the ledger's persistent store");
        add("backend.flush_ms", secs(t) * 1e3);
        drop(persistent);
        let _ = std::fs::remove_dir_all(&dir);

        let engine = DiagnosisEngine::new(DiagnoseConfig::default());
        engine.bind_telemetry(&registry);
        let t = Instant::now();
        for chunk in docs.chunks(BATCH) {
            engine.observe_batch(chunk);
        }
        add("diagnose.observe_ns", per_event_ns(t, events));

        let t = Instant::now();
        let mut sets: Vec<_> = dio_rules::shipped::ALL
            .iter()
            .map(|(_, src)| dio_rules::compile(src).expect("shipped rules compile"))
            .collect();
        add("rules.compile_ms", secs(t) * 1e3);
        let mut alerts = Vec::new();
        let t = Instant::now();
        for chunk in docs.chunks(BATCH) {
            for doc in chunk {
                for set in sets.iter_mut() {
                    set.observe(doc, &mut alerts);
                }
            }
            for set in sets.iter_mut() {
                set.evaluate_ready(&mut alerts);
            }
        }
        add("rules.observe_ns", per_event_ns(t, events));

        let miner = DfgMiner::new(ProfileConfig::default());
        miner.bind_telemetry(&registry);
        let t = Instant::now();
        for chunk in docs.chunks(BATCH) {
            miner.observe_batch(chunk);
        }
        add("profile.observe_ns", per_event_ns(t, events));

        if pass == PASSES - 1 {
            store.bind_telemetry(&registry);
            let server = serve(
                "127.0.0.1:0",
                ServeState {
                    session: "ledger".into(),
                    registry: Arc::new(registry),
                    backend: Arc::new(store.clone()),
                    index_name: "dio-ledger".into(),
                    telemetry_index: "dio-telemetry-ledger".into(),
                    engine: Some(engine),
                    profiler: Some(miner),
                },
            )
            .expect("bind the ledger's introspection server on localhost");
            for _ in 0..SCRAPES {
                let t = Instant::now();
                crate::live::scrape(server.addr()).expect("ledger scrape answers");
                scrape_ms.push(secs(t) * 1e3);
            }
        }
    }
    let mut m = Metrics::default();
    let med = |name: &str| median(samples.get(name).map(Vec::as_slice).unwrap_or(&[]));
    for (name, unit) in [
        ("kernel.syscall_ns", "ns"),
        ("ebpf.probe_ns", "ns"),
        ("ebpf.drain_ns", "ns"),
        ("tracer.parse_ns", "ns"),
        ("tracer.channel_ns", "ns"),
        ("backend.bulk_ns", "ns"),
        ("backend.refresh_ns", "ns"),
        ("backend.update_by_query_us", "us"),
        ("backend.persist_bulk_ns", "ns"),
        ("backend.flush_ms", "ms"),
        ("diagnose.observe_ns", "ns"),
        ("rules.observe_ns", "ns"),
        ("rules.compile_ms", "ms"),
        ("profile.observe_ns", "ns"),
    ] {
        m.set(name, med(name), unit);
    }
    // Calls the workload made itself come from its spans; the ledger's own
    // figures stand in where the workload never makes the call.
    let from_spans = |name: &str, fallback: f64| {
        let v = span_ms(name);
        if v > 0.0 {
            v
        } else {
            fallback
        }
    };
    m.set("tracer.attach_ms", span_ms("tracer.attach"), "ms");
    m.set("tracer.stop_ms", span_ms("tracer.stop"), "ms");
    m.set("correlate.paths_ms", span_ms("correlate.paths"), "ms");
    m.set("backend.query_ms", span_ms("backend.query"), "ms");
    m.set("viz.render_ms", from_spans("viz.render", median(&render_ms)), "ms");
    m.set("serve.scrape_ms", from_spans("serve.scrape", median(&scrape_ms)), "ms");
    m
}

/// Median events stored per session.
fn events(sessions: &[Session]) -> f64 {
    median(&sessions.iter().map(|s| s.events as f64).collect::<Vec<_>>())
}

/// Prints the ledger: each term, its share, and what is left over.
fn print_ledger(title: &str, total: f64, terms: &[(&str, f64)]) -> f64 {
    let sum: f64 = terms.iter().map(|(_, v)| v).sum();
    println!("ledger {title}: {total:.0} ns/event");
    for (name, v) in terms {
        println!("  {name:<28} {v:>10.0} ns  {:>5.1}%", 100.0 * v / total);
    }
    println!(
        "  {:<28} {:>10.0} ns  {:>5.1}%",
        "unattributed",
        total - sum,
        100.0 * (total - sum) / total
    );
    total - sum
}

/// `storm`'s ledger: its CPU per stored event against the write-path
/// layers plus its correlation pass, per event.
pub fn storm_unattributed(m: &Metrics, sessions: &[Session], e2e: &Metrics) -> f64 {
    let correlate = m.get("correlate.paths_ms") * 1e6 / events(sessions);
    print_ledger(
        "cpu_ns_per_event",
        e2e.get("cpu_ns_per_event"),
        &[
            ("kernel.syscall_ns", m.get("kernel.syscall_ns")),
            ("ebpf.probe_ns", m.get("ebpf.probe_ns")),
            ("ebpf.drain_ns", m.get("ebpf.drain_ns")),
            ("tracer.parse_ns", m.get("tracer.parse_ns")),
            ("tracer.channel_ns", m.get("tracer.channel_ns")),
            ("backend.bulk_ns", m.get("backend.bulk_ns")),
            ("correlate.paths (per event)", correlate),
        ],
    )
}

/// `live_diag`'s ledger: the same, with the taps and the persistent
/// store in place of the in-memory bulk.
pub fn live_unattributed(m: &Metrics, sessions: &[Session], e2e: &Metrics) -> f64 {
    let per_event = |ms: f64| ms * 1e6 / events(sessions);
    print_ledger(
        "cpu_ns_per_event",
        e2e.get("cpu_ns_per_event"),
        &[
            ("kernel.syscall_ns", m.get("kernel.syscall_ns")),
            ("ebpf.probe_ns", m.get("ebpf.probe_ns")),
            ("ebpf.drain_ns", m.get("ebpf.drain_ns")),
            ("tracer.parse_ns", m.get("tracer.parse_ns")),
            ("tracer.channel_ns", m.get("tracer.channel_ns")),
            ("backend.persist_bulk_ns", m.get("backend.persist_bulk_ns")),
            ("diagnose.observe_ns", m.get("diagnose.observe_ns")),
            ("rules.observe_ns", m.get("rules.observe_ns")),
            ("profile.observe_ns", m.get("profile.observe_ns")),
            ("backend.flush (per event)", per_event(m.get("backend.flush_ms"))),
            ("correlate.paths (per event)", per_event(m.get("correlate.paths_ms"))),
        ],
    )
}

/// `ycsb_a`'s ledger: the overhead each traced event costs the clients
/// against the probe and the calibrated injected costs, which are
/// reported apart. The clients run in parallel and each pays for its own
/// events, so the per-event overhead is the traced-minus-untraced wall
/// time times the client count over the events stored.
pub fn ycsb_unattributed(m: &Metrics, sessions: &[Session], clients: f64) -> f64 {
    let overhead = median(
        &sessions
            .iter()
            .map(|s| (s.app.app_s - s.app.untraced_s) * clients * 1e9 / s.events.max(1) as f64)
            .collect::<Vec<_>>(),
    );
    let enter = dio_bench::rocksdb_run::costs::dio_enter_ns() as f64;
    let exit = dio_bench::rocksdb_run::costs::dio_exit_ns() as f64;
    print_ledger(
        "client overhead per traced event",
        overhead,
        &[
            ("ebpf.probe_ns", m.get("ebpf.probe_ns")),
            ("DIO_COST_ENTER_NS (injected)", enter),
            ("DIO_COST_EXIT_NS (injected)", exit),
        ],
    )
}
