//! Lcores: the workers that run the data plane's polling loops.
//!
//! DPDK runs each polling loop on an lcore, a thread that owns a CPU, and
//! its service cores run several components on one lcore, one call each
//! per turn. Here every component that polls (a vSwitch PMD, a guest's
//! vCPU) is a [`Stepper`]: one call moves at most a burst per port and
//! returns. [`place`] hands a stepper to a worker, and the worker steps
//! every stepper it holds round-robin, each turn run to completion.
//!
//! Placement:
//! - A worker belongs to the CPU set of the thread that placed its first
//!   stepper: it is spawned by that thread, so it inherits the thread's
//!   affinity, and it only ever receives steppers placed from threads
//!   allowed exactly the same CPUs.
//! - A set of N CPUs has at most N workers. A stepper goes to the
//!   least-loaded worker of its set (the one holding the fewest
//!   steppers), counting the workers not yet spawned as empty. With a CPU
//!   per component this is a thread per component; with one CPU, every
//!   stepper shares one worker.
//!
//! Idle policy, the one for every stepper: after a round in which no
//! stepper moved a packet the worker yields its CPU, and a worker with no
//! steppers parks until one is placed.
//!
//! A stepper leaves its worker when [`Stepper::retired`] reads true, or
//! when its turn panics: the worker catches the panic, drops the stepper
//! and goes on stepping the others, as a crashed vCPU takes down its VM
//! and nothing else. Either way [`Placement::join`] returns once
//! the stepper has been dropped.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A component a worker polls.
pub trait Stepper: Send {
    /// One turn: at most one burst per port, run to completion, never
    /// blocking (every other stepper on the worker waits for it). True if
    /// a packet moved.
    fn step(&mut self) -> bool;

    /// True once the stepper should be dropped; read before every turn.
    fn retired(&self) -> bool;
}

/// Places `stepper` on a worker of the calling thread's CPU set.
pub fn place(name: impl Into<String>, stepper: Box<dyn Stepper>) -> Placement {
    place_in(&allowed_cpus(), name.into(), stepper)
}

/// A snapshot of every worker in the process.
pub fn workers() -> Vec<WorkerInfo> {
    lock(&WORKERS)
        .iter()
        .map(|w| {
            let state = lock(&w.state);
            WorkerInfo {
                id: w.id,
                cpus: w.cpus.clone(),
                steppers: state.names.iter().map(|(_, name)| name.clone()).collect(),
                rounds: w.rounds.load(Ordering::Relaxed),
                parked: state.parked,
            }
        })
        .collect()
}

/// The CPUs the calling thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    }
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable cpu_set_t of the size passed, and
    // pid 0 names the calling thread; the call writes only inside `set`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return every_cpu();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// The CPUs the calling thread may run on, ascending.
#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    every_cpu()
}

/// The host's CPUs, when no affinity mask can be read.
fn every_cpu() -> Vec<usize> {
    (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
}

/// What [`workers`] reports of one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerInfo {
    /// The worker's index in the process.
    pub id: usize,
    /// The CPU set it was spawned in and serves.
    pub cpus: Vec<usize>,
    /// Names of the steppers placed on it and not yet dropped.
    pub steppers: Vec<String>,
    /// Rounds stepped so far.
    pub rounds: u64,
    /// True while it waits, with no stepper, for one to be placed.
    pub parked: bool,
}

/// A placed stepper, as `thread::spawn`'s `JoinHandle` is a thread.
pub struct Placement {
    worker: usize,
    /// Disconnected when the worker drops the stepper.
    dropped: Receiver<()>,
}

impl Placement {
    /// The index of the worker the stepper was placed on.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Blocks until the worker has dropped the stepper: once it reads
    /// [`Stepper::retired`] true, or at once if its turn panicked. Never
    /// call it from a stepper of the same worker.
    pub fn join(self) {
        // Nothing is ever sent: `recv` returns when the sender is dropped.
        let _ = self.dropped.recv();
    }
}

/// A stepper as its worker holds it.
struct Slot {
    stepper: Box<dyn Stepper>,
    /// The stepper's key in `State::names`.
    id: u64,
    /// Dropped after the stepper, which ends its placer's `join`.
    _dropped: Sender<()>,
}

impl Slot {
    /// One turn: `Some(moved)`, or `None` once the stepper retired or its
    /// turn panicked.
    fn turn(&mut self) -> Option<bool> {
        if self.stepper.retired() {
            return None;
        }
        let stepper = &mut self.stepper;
        panic::catch_unwind(AssertUnwindSafe(|| stepper.step())).ok()
    }
}

/// Every worker of the process, of every CPU set. Workers live as long
/// as the process: an idle one parks, none exits.
static WORKERS: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

/// What a worker shares with the threads that place on it.
struct Worker {
    id: usize,
    cpus: Vec<usize>,
    state: Mutex<State>,
    /// Signalled when a stepper is placed.
    placed: Condvar,
    /// True while `state.inbox` is non-empty: one load a round tells the
    /// worker whether to take the lock. A hint; the state lock orders the
    /// handover itself.
    pending: AtomicBool,
    rounds: AtomicU64,
}

#[derive(Default)]
struct State {
    /// Placed and not yet taken up by the worker.
    inbox: Vec<Slot>,
    /// Every stepper placed and not yet dropped, by id: the worker's load.
    names: Vec<(u64, String)>,
    next_id: u64,
    parked: bool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("lcore locks are never held across a panic")
}

/// Places `stepper` on the least-loaded worker of the CPU set `cpus`,
/// spawning one from the calling thread while the set has fewer workers
/// than CPUs and every existing one is busy.
fn place_in(cpus: &[usize], name: String, stepper: Box<dyn Stepper>) -> Placement {
    let mut workers = lock(&WORKERS);
    let load = |w: &Worker| lock(&w.state).names.len();
    let set: Vec<&Arc<Worker>> = workers.iter().filter(|w| w.cpus == cpus).collect();
    let least = set.iter().min_by_key(|w| load(w));
    let worker = match least {
        Some(w) if load(w) == 0 || set.len() >= cpus.len().max(1) => Arc::clone(w),
        _ => {
            let w = Worker::spawn(workers.len(), cpus.to_vec());
            workers.push(Arc::clone(&w));
            w
        }
    };
    let (sender, dropped) = mpsc::channel();
    let mut state = lock(&worker.state);
    let id = state.next_id;
    state.next_id += 1;
    state.names.push((id, name));
    state.inbox.push(Slot {
        stepper,
        id,
        _dropped: sender,
    });
    worker.pending.store(true, Ordering::Relaxed);
    worker.placed.notify_one();
    Placement {
        worker: worker.id,
        dropped,
    }
}

impl Worker {
    /// Spawns worker `id` from the calling thread, whose CPU set (`cpus`)
    /// the new thread inherits. It is never joined: it outlives every
    /// placement.
    fn spawn(id: usize, cpus: Vec<usize>) -> Arc<Worker> {
        let worker = Arc::new(Worker {
            id,
            cpus,
            state: Mutex::new(State::default()),
            placed: Condvar::new(),
            pending: AtomicBool::new(false),
            rounds: AtomicU64::new(0),
        });
        let run = Arc::clone(&worker);
        std::thread::Builder::new()
            .name(format!("lcore-{id}"))
            .spawn(move || run.run())
            .expect("spawn lcore worker");
        worker
    }

    /// The worker's loop: take up placed steppers, step each once, and
    /// yield after a round that moved nothing.
    fn run(&self) {
        let mut slots: Vec<Slot> = Vec::new();
        let mut rounds = 0u64;
        loop {
            if slots.is_empty() || self.pending.load(Ordering::Relaxed) {
                self.take_up(&mut slots);
            }
            let mut moved = false;
            let mut i = 0;
            while i < slots.len() {
                match slots[i].turn() {
                    Some(m) => {
                        moved |= m;
                        i += 1;
                    }
                    None => self.retire(slots.remove(i)),
                }
            }
            rounds += 1;
            self.rounds.store(rounds, Ordering::Relaxed);
            if !moved {
                std::thread::yield_now();
            }
        }
    }

    /// Moves the inbox into `slots`, parking while both are empty.
    fn take_up(&self, slots: &mut Vec<Slot>) {
        let mut state = lock(&self.state);
        loop {
            slots.append(&mut state.inbox);
            self.pending.store(false, Ordering::Relaxed);
            if !slots.is_empty() {
                return;
            }
            state.parked = true;
            state = self
                .placed
                .wait(state)
                .expect("lcore locks are never held across a panic");
            state.parked = false;
        }
    }

    /// Drops a stepper, then tells its placer.
    fn retire(&self, slot: Slot) {
        let Slot {
            stepper,
            id,
            _dropped: signal,
        } = slot;
        // A stepper whose turn panicked may panic again in its drop; the
        // worker outlives both.
        let _ = panic::catch_unwind(AssertUnwindSafe(move || drop(stepper)));
        lock(&self.state).names.retain(|(n, _)| *n != id);
        drop(signal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Counts its turns; moves a "packet" on each; retires when told.
    struct Counter {
        turns: Arc<AtomicUsize>,
        stop: Arc<AtomicBool>,
        panic_at: Option<usize>,
    }

    impl Stepper for Counter {
        fn step(&mut self) -> bool {
            let n = self.turns.fetch_add(1, Ordering::Relaxed) + 1;
            if self.panic_at == Some(n) {
                panic!("stepper fault injected at turn {n}");
            }
            true
        }
        fn retired(&self) -> bool {
            self.stop.load(Ordering::Acquire)
        }
    }

    struct Handle {
        turns: Arc<AtomicUsize>,
        stop: Arc<AtomicBool>,
        placement: Placement,
    }

    impl Handle {
        fn stop(self) {
            self.stop.store(true, Ordering::Release);
            self.placement.join();
        }
    }

    /// Places a counter on a fake CPU set: each test uses its own set, so
    /// tests running in parallel never share a worker.
    fn place_counter(cpus: &[usize], name: &str, panic_at: Option<usize>) -> Handle {
        let turns = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let stepper = Counter {
            turns: Arc::clone(&turns),
            stop: Arc::clone(&stop),
            panic_at,
        };
        let placement = place_in(cpus, name.into(), Box::new(stepper));
        Handle {
            turns,
            stop,
            placement,
        }
    }

    fn workers_of(cpus: &[usize]) -> Vec<WorkerInfo> {
        workers().into_iter().filter(|w| w.cpus == cpus).collect()
    }

    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn placement_goes_to_the_least_loaded_worker() {
        let cpus = [1000, 1001];
        let a = place_counter(&cpus, "a", None);
        let b = place_counter(&cpus, "b", None);
        assert_ne!(a.placement.worker(), b.placement.worker());
        // Two CPUs, two workers, one stepper each: a tie, which goes to
        // the first.
        let c = place_counter(&cpus, "c", None);
        assert_eq!(c.placement.worker(), a.placement.worker());
        let b_worker = b.placement.worker();
        b.stop();
        // b's worker is now empty against a's two.
        let d = place_counter(&cpus, "d", None);
        assert_eq!(d.placement.worker(), b_worker);
        assert_eq!(workers_of(&cpus).len(), 2, "never more workers than CPUs");
        for h in [a, c, d] {
            h.stop();
        }
    }

    #[test]
    fn enough_cpus_give_each_stepper_its_own_worker() {
        let cpus = [1010, 1011, 1012, 1013];
        let handles: Vec<Handle> = (0..4)
            .map(|i| place_counter(&cpus, &format!("s{i}"), None))
            .collect();
        let mut workers: Vec<usize> = handles.iter().map(|h| h.placement.worker()).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers.len(), 4, "one worker per stepper");
        for h in &handles {
            wait_for("every stepper to turn", || {
                h.turns.load(Ordering::Relaxed) > 0
            });
        }
        // Another CPU set never shares a worker with this one.
        let other = place_counter(&[1014], "other", None);
        assert!(!workers.contains(&other.placement.worker()));
        other.stop();
        for h in handles {
            h.stop();
        }
    }

    #[test]
    fn one_cpu_shares_one_worker_round_robin() {
        let handles: Vec<Handle> = (0..3)
            .map(|i| place_counter(&[1020], &format!("s{i}"), None))
            .collect();
        let first = handles[0].placement.worker();
        assert!(handles.iter().all(|h| h.placement.worker() == first));
        for h in &handles {
            wait_for("every stepper to turn", || {
                h.turns.load(Ordering::Relaxed) > 100
            });
        }
        for h in handles {
            h.stop();
        }
        assert_eq!(workers_of(&[1020]).len(), 1);
    }

    #[test]
    fn a_worker_with_no_steppers_parks() {
        let cpus = [1030];
        let h = place_counter(&cpus, "s", None);
        wait_for("a turn", || h.turns.load(Ordering::Relaxed) > 0);
        h.stop();
        wait_for("the worker to park", || workers_of(&cpus)[0].parked);
        let before = workers_of(&cpus)[0].rounds;
        std::thread::sleep(Duration::from_millis(50));
        let after = &workers_of(&cpus)[0];
        assert!(after.parked && after.steppers.is_empty());
        assert_eq!(after.rounds, before, "a parked worker burns no rounds");
        // And wakes for the next placement.
        let h = place_counter(&cpus, "again", None);
        wait_for("a turn after the park", || {
            h.turns.load(Ordering::Relaxed) > 0
        });
        h.stop();
    }

    #[test]
    fn a_panicking_stepper_is_retired_and_the_others_keep_turning() {
        let healthy = place_counter(&[1040], "healthy", None);
        let faulty = place_counter(&[1040], "faulty", Some(3));
        assert_eq!(healthy.placement.worker(), faulty.placement.worker());
        // The faulty stepper is dropped without being stopped.
        faulty.placement.join();
        let seen = healthy.turns.load(Ordering::Relaxed);
        wait_for("the healthy stepper to keep turning", || {
            healthy.turns.load(Ordering::Relaxed) > seen + 100
        });
        assert_eq!(workers_of(&[1040])[0].steppers, vec!["healthy".to_string()]);
        healthy.stop();
    }
}
