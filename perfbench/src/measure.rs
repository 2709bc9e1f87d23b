//! Measurement helpers: process CPU time, peak RSS, order statistics and
//! the seeded generator every workload draws its inputs from.

use std::collections::BTreeMap;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the heap's free pages to the OS (glibc `malloc_trim`).
pub fn trim_heap() {
    // SAFETY: malloc_trim only releases memory the allocator holds free.
    unsafe { malloc_trim(0) };
}

/// CPU mask words passed to the affinity calls (1024 CPUs).
const MASK_WORDS: usize = 16;

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// User + system CPU time of the whole process (every thread), in ns.
pub fn cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread; the call writes only into `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).collect()
}

/// Restricts the calling thread (and the threads it spawns from now on)
/// to `cpus`. Best effort: a refused call leaves the affinity unchanged.
pub fn pin_current_thread(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread; the call only reads `mask`.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Where a session's threads run: the app on one CPU, DIO's own threads
/// (consumer, shipper, exporter, storage, server) on another, so the
/// traced app pays the in-thread tracing cost but shares no core with
/// the pipeline — the layout of the paper's many-core testbed, on two.
#[derive(Debug, Clone)]
pub struct Placement {
    all: Vec<usize>,
}

impl Placement {
    pub fn new() -> Self {
        Placement { all: allowed_cpus() }
    }

    /// Call before starting DIO's threads (they inherit the affinity).
    pub fn pipeline(&self) {
        if self.all.len() >= 2 {
            pin_current_thread(&self.all[1..2]);
        }
    }

    /// Call before running the app.
    pub fn app(&self) {
        if self.all.len() >= 2 {
            pin_current_thread(&self.all[0..1]);
        }
    }

    /// Back to every allowed CPU.
    pub fn release(&self) {
        if !self.all.is_empty() {
            pin_current_thread(&self.all);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The median (mean of the two middle values for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A query mix's latency: the mean latency per query of each round of the
/// mix, then the fastest round. (The mix holds cheap and costly queries,
/// so the median of single queries would jump between them; and a round
/// lasts tens of milliseconds, so a slow round is mostly the host taking
/// the CPU away.)
pub fn mix_ms(rounds: &[Vec<f64>]) -> f64 {
    rounds
        .iter()
        .map(|r| r.iter().sum::<f64>() / r.len().max(1) as f64)
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

/// An untraced twin: the app's wall and thread CPU time over repeated
/// runs, and the operations that failed in any of them.
#[derive(Debug, Default, Clone)]
pub struct Twin {
    wall_s: Vec<f64>,
    cpu_ns: Vec<f64>,
    pub errors: u64,
}

impl Twin {
    pub fn record(&mut self, wall_s: f64, cpu_ns: u64) {
        self.wall_s.push(wall_s);
        self.cpu_ns.push(cpu_ns as f64);
    }

    /// Median wall time of a run, in s.
    pub fn wall_s(&self) -> f64 {
        median(&self.wall_s)
    }

    /// Median CPU time of a run, in ns.
    pub fn cpu_ns(&self) -> f64 {
        median(&self.cpu_ns)
    }
}

/// The `p`-quantile (0..=1) of sorted samples by nearest rank.
pub fn quantile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// splitmix64: the benchmark's own input generator, independent of the
/// program's RNGs, so the same seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// Named metric values of one run, printed in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map(|(v, _)| *v).unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!((0..1000).map(|_| a.range(3, 5)).all(|v| (3..=5).contains(&v)));
    }

    #[test]
    fn cpu_time_advances() {
        let a = cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns() > a);
    }
}
