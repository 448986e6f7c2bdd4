//! What the harness reads from the host: CPU time and peak memory of this
//! process, and a spin kernel that tells a loaded host from a quiet one.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> Rusage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout 64-bit
    // Linux defines; getrusage only writes inside it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

fn cpu_ns(ru: &Rusage) -> u64 {
    let us = (ru.utime.sec + ru.stime.sec) * 1_000_000 + ru.utime.usec + ru.stime.usec;
    us as u64 * 1_000
}

/// User + system CPU time of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(&rusage(RUSAGE_SELF))
}

/// User + system CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(&rusage(RUSAGE_THREAD))
}

/// Peak resident set of this program so far, in MB: `VmHWM` of
/// `/proc/self/status`. Not `ru_maxrss`, which survives `exec` and so
/// reports the larger of this program and whatever launched it (a Python
/// driver's 12 MB, for the workloads that need less).
pub fn peak_rss_mb() -> f64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    hwm_kb.unwrap_or_else(|| rusage(RUSAGE_SELF).maxrss_kb as f64) / 1024.0
}

/// CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (and every thread it spawns from now on)
/// to `cpus`. Returns false, changing nothing, when the host refuses.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a readable cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    !cpus.is_empty() && unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } == 0
}

/// The split of the host's CPUs between the load side and the system
/// under test: the first allowed CPU belongs to the harness thread alone,
/// the rest to every thread the product spawns. An external traffic
/// generator does not share cores with the switch it loads either; and a
/// generator that the system's own threads can push off its core measures
/// the scheduler more than the system.
pub struct CpuSplit {
    harness: Vec<usize>,
    system: Vec<usize>,
}

impl CpuSplit {
    /// `None` on a host with a single allowed CPU: nothing to split.
    pub fn detect() -> Option<CpuSplit> {
        let cpus = allowed_cpus();
        (cpus.len() >= 2).then(|| CpuSplit {
            harness: cpus[..1].to_vec(),
            system: cpus[1..].to_vec(),
        })
    }

    fn get() -> &'static Option<CpuSplit> {
        static SPLIT: std::sync::OnceLock<Option<CpuSplit>> = std::sync::OnceLock::new();
        SPLIT.get_or_init(CpuSplit::detect)
    }

    /// CPUs the system under test runs on (0 = the host's CPUs are not split).
    pub fn system_cpus() -> usize {
        CpuSplit::get().as_ref().map_or(0, |s| s.system.len())
    }
}

/// Runs `build` with the calling thread confined to the system's CPUs, so
/// the threads it spawns inherit them, then moves the calling thread to
/// the harness CPU.
pub fn build_system<T>(build: impl FnOnce() -> T) -> T {
    let Some(split) = CpuSplit::get() else {
        return build();
    };
    let confined = pin_current_thread(&split.system);
    let built = build();
    if confined {
        pin_current_thread(&split.harness);
    }
    built
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One pass of the fixed spin kernel (about a millisecond): xorshift
/// steps per microsecond.
fn spin_once() -> f64 {
    const STEPS: u64 = 500_000;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let start = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    STEPS as f64 / (start.elapsed().as_nanos() as f64 / 1e3)
}

/// The host gauge: how fast the spin kernel runs on the slowest allowed
/// CPU, sampled between instances. A core that something else is using (a
/// neighbour on the sibling hyperthread, a hypervisor stealing time) reads
/// low for seconds at a stretch; the reference is the gauge's own median,
/// not its best, because the best is a turbo spike no run sustains.
#[derive(Default)]
pub struct HostGauge {
    samples: Vec<f64>,
}

impl HostGauge {
    /// Runs the kernel on every allowed CPU in turn (best of three passes,
    /// so one preemption does not count) and records the slowest CPU's
    /// score. Call only while the system under test is stopped: the calling
    /// thread visits the system's CPUs, and ends free to run on any.
    pub fn sample(&mut self) {
        let cpus = allowed_cpus();
        let mut slowest = f64::INFINITY;
        for cpu in &cpus {
            pin_current_thread(&[*cpu]);
            slowest = slowest.min((0..3).map(|_| spin_once()).fold(0.0, f64::max));
        }
        if cpus.is_empty() {
            slowest = (0..3).map(|_| spin_once()).fold(0.0, f64::max);
        }
        pin_current_thread(&cpus);
        self.samples.push(slowest);
    }

    /// The median sample: xorshift steps per microsecond.
    pub fn score(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// The lowest sample as a share of the median.
    pub fn lowest_ratio(&self) -> f64 {
        let lowest = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        if self.samples.is_empty() {
            1.0
        } else {
            lowest / self.score()
        }
    }
}
