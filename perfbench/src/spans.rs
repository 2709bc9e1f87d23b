//! The benchmark's own span recorder (traced runs only).
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public function: name, start, end and the enclosing span on the same
//! thread. Spans stay in memory and are written out once, at the end of
//! the run. With recording off (the end-to-end runs) a span costs one
//! relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, u64)>,
}

/// Opens a span named `name`, parented to the innermost open span of this
/// thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard { open: Some((id, parent, name, now_ns())) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            SPANS.lock().expect("span store poisoned by a panicking thread").push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Every recorded span, in completion order.
pub fn all() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned by a panicking thread").clone()
}

/// Self time of every span named `name`: its duration minus the time its
/// child spans cover (children on one thread nest, so they never overlap).
pub fn self_times_ns(name: &str) -> Vec<u64> {
    let spans = all();
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns().saturating_sub(child_time.get(&s.id).copied().unwrap_or(0)))
        .collect()
}

/// Median self time of the spans named `name`, in ns (0 when none).
pub fn median_self_ns(name: &str) -> f64 {
    let v: Vec<f64> = self_times_ns(name).into_iter().map(|n| n as f64).collect();
    crate::measure::median(&v)
}

/// Writes every span as a JSON array (`id`, `parent`, `name`, `start_ns`,
/// `end_ns`).
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    let rows: Vec<String> = all()
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        enable();
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let spans = all();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let own = self_times_ns("test.outer")[0];
        assert_eq!(own, outer.duration_ns() - inner.duration_ns());
    }
}
