//! Persistent gather lanes: the host-side counterpart of the EB-Streamer's
//! many reads in flight.
//!
//! On a CPU host a table gather is bound by the misses one core keeps
//! outstanding, not by bytes. A second core gathering another part of the
//! same wave doubles the misses in flight. The lanes are threads spawned
//! once and kept for the streamer's life: the caller reduces the first range
//! of a wave itself, every helper one other range, and the caller returns
//! only after every helper has reported. A `std::thread::scope` spawn per
//! wave costs 45–50 µs, a third of the gather it would split.
//!
//! The hand-off is one preallocated slot, so a wave allocates nothing: the
//! caller publishes a borrowed job in it, bumps the wave number and wakes
//! the helpers; each helper runs `job(lane)` and counts itself out. Both
//! sides spin on the atomics for [`SPIN_BEFORE_PARK`] before they park.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Fewest lookups a wave needs before it is split over the lanes.
///
/// Set from a sweep of one against two lanes on the reference host (2
/// vCPUs; DLRM(3) and DLRM(1) on their 128 MB of tables under Zipf-0.99
/// indices; 64 batches in rotation, medians of 512 waves per side and
/// point). While the helper still spins from the wave before (waves 40 µs
/// apart) two lanes lost at 400–800 lookups per wave and won from 1.6 k on:
/// 1.44× at 1.6 k, 1.45× at 4 k, 1.87× at 25.6 k. Once it has parked (waves
/// 400 µs apart) its wake-up costs 10–20 µs: two lanes read 0.88–0.90× at
/// 3.2 k, 0.95–1.13× between 3.6 k and 4.8 k, 1.2–1.4× at 6.4 k and
/// 1.3–1.7× at 25.6 k. So a wave splits where it wins either way. Batch-1
/// serving (100 lookups) and DLRM(6) (160 per wave of 16) stay on one lane;
/// DLRM(1) waves of 64 (6.4 k) and DLRM(3) waves of 11 samples or more
/// split.
pub const SPLIT_MIN_LOOKUPS: usize = 4096;

/// Most lanes one wave is cut into, the caller's included. It sizes the
/// per-wave slots the streamer keeps on its stack; past 8 lanes a wave of
/// 64 samples leaves each lane fewer than 8 samples.
pub const MAX_LANES: usize = 8;

/// How long either side of the hand-off spins before it parks: a helper
/// waiting for the next wave, the caller waiting for the helpers. Long
/// enough to span the dense complex's part of a closed-loop call, so
/// back-to-back waves never pay a wake-up.
const SPIN_BEFORE_PARK: Duration = Duration::from_micros(200);

/// Lanes a streamer may run when `cpus` CPUs are available to its caller
/// and `replicas` runtime replicas share them: `cpus / replicas`, at least
/// one and at most [`MAX_LANES`].
pub fn lane_budget(cpus: usize, replicas: usize) -> usize {
    (cpus / replicas.max(1)).clamp(1, MAX_LANES)
}

/// CPUs the process may use: [`thread::available_parallelism`], which
/// follows cgroup quotas as well as affinity, read once per process. It
/// reads cgroup files (30–120 µs on the reference host), so
/// [`GatherLanes::new`] reads it at construction and no serving worker's
/// first wave pays for it: on the 2-vCPU host, paying it there raised the
/// 1 ms-hedge test's flake rate from 1 in 8 runs of its file to 4 in 8.
fn process_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// CPUs the calling thread may use now: its affinity mask's, at most the
/// process's. One system call.
#[cfg(target_os = "linux")]
fn caller_cpus() -> usize {
    extern "C" {
        fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    }
    // Room for 1024 CPUs, the kernel's default mask size; a larger host
    // fails the call and falls back to the process's count.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable and `size_of_val(&mask)` bytes long, the
    // size passed; pid 0 is the calling thread; the kernel writes at most
    // that many bytes into it and touches no other memory.
    let known =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    let allowed: u32 = mask.iter().map(|word| word.count_ones()).sum();
    if known && allowed > 0 {
        (allowed as usize).min(process_cpus())
    } else {
        process_cpus()
    }
}

/// CPUs the calling thread may use now: the process's, where there is no
/// per-thread mask to read.
#[cfg(not(target_os = "linux"))]
fn caller_cpus() -> usize {
    process_cpus()
}

/// A wave's job: `job(lane)` reduces lane `lane`'s range.
type Job = &'static (dyn Fn(usize) + Sync);

/// What the caller and its helpers share.
struct Shared {
    /// Bumped once per wave, after the job is published.
    wave: AtomicUsize,
    /// Helpers that have not finished the current wave.
    pending: AtomicUsize,
    /// Set once, when the lanes are dropped.
    shutdown: AtomicBool,
    /// The current wave's job and the thread to wake when the last helper
    /// is done. Holds a job only while [`GatherLanes::run`] is on the stack.
    slot: Mutex<Option<(Job, Thread)>>,
    /// The first panic a helper caught in the current wave.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Locks `mutex`, ignoring poison: no lock here is held across a job.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spins for [`SPIN_BEFORE_PARK`], then parks on every call after.
struct Backoff {
    spins: u32,
    since: Option<Instant>,
}

impl Backoff {
    fn new() -> Self {
        Backoff {
            spins: 0,
            since: None,
        }
    }

    fn wait(&mut self) {
        self.spins = self.spins.wrapping_add(1);
        // The clock is read every 64 spins only.
        if self.spins.is_multiple_of(64) {
            let since = *self.since.get_or_insert_with(Instant::now);
            if since.elapsed() >= SPIN_BEFORE_PARK {
                thread::park();
                return;
            }
        }
        std::hint::spin_loop();
    }
}

/// A helper's life: wait for a wave, run its lane, count itself out.
fn helper(shared: Arc<Shared>, lane: usize) {
    let mut seen = 0;
    loop {
        let mut backoff = Backoff::new();
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let wave = shared.wave.load(Ordering::Acquire);
            if wave != seen {
                seen = wave;
                break;
            }
            backoff.wait();
        }
        let (job, caller) = lock(&shared.slot)
            .clone()
            .expect("a published wave has a job");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(lane))) {
            lock(&shared.panic).get_or_insert(payload);
        }
        // The job is not touched past this point: once `pending` reads 0
        // the caller may return and its borrow end.
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// Spawned helpers and what they share with the caller.
struct Crew {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Crew {
    fn spawn(helpers: usize) -> Self {
        let shared = Arc::new(Shared {
            wave: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            slot: Mutex::new(None),
            panic: Mutex::new(None),
        });
        let helpers = (1..=helpers)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("gather-lane-{lane}"))
                    .spawn(move || helper(shared, lane))
                    .expect("spawning a gather lane")
            })
            .collect();
        Crew { shared, helpers }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for handle in self.helpers.drain(..) {
            handle.thread().unpark();
            // A helper catches its jobs' panics and nothing else in it can
            // fail, so there is no result to check (and no panicking in a
            // drop).
            let _ = handle.join();
        }
    }
}

/// Waits until every helper has finished the current wave, then clears the
/// slot. Runs on drop, so it holds when the caller's own range panics too.
struct WaitForHelpers<'a>(&'a Shared);

impl Drop for WaitForHelpers<'_> {
    fn drop(&mut self) {
        let mut backoff = Backoff::new();
        while self.0.pending.load(Ordering::Acquire) != 0 {
            backoff.wait();
        }
        *lock(&self.0.slot) = None;
    }
}

/// A streamer's gather lanes: none until the first wave of at least
/// [`SPLIT_MIN_LOOKUPS`] lookups, then the caller plus the helpers the
/// caller's CPUs allow. A clone has its own lanes, not yet spawned; drop
/// stops and joins the helpers.
pub struct GatherLanes {
    /// CPUs the lanes may use; `None` reads the caller's at the first
    /// large wave.
    cpus: Option<usize>,
    /// Runtime replicas sharing those CPUs.
    replicas: usize,
    /// Fewest lookups a wave splits at.
    min_lookups: usize,
    crew: Option<Crew>,
}

impl GatherLanes {
    /// Lanes for one of `replicas` runtimes sharing the caller's CPUs.
    pub fn new(replicas: usize) -> Self {
        process_cpus();
        GatherLanes {
            cpus: None,
            replicas,
            min_lookups: SPLIT_MIN_LOOKUPS,
            crew: None,
        }
    }

    /// Exactly `lanes` lanes, splitting every wave whatever its size.
    #[cfg(test)]
    pub fn forced(lanes: usize) -> Self {
        GatherLanes {
            cpus: Some(lanes),
            replicas: 1,
            min_lookups: 0,
            crew: None,
        }
    }

    /// Shares the CPUs with `replicas` runtimes from now on; lanes already
    /// spawned stay.
    pub fn share_with(&mut self, replicas: usize) {
        self.replicas = replicas;
    }

    /// The lanes a wave of `lookups` lookups runs on: one below the split
    /// threshold; otherwise the caller plus its helpers, spawned at the
    /// first such wave from the CPUs the calling thread may use then.
    pub fn lanes_for(&mut self, lookups: usize) -> usize {
        if lookups < self.min_lookups {
            return 1;
        }
        let (cpus, replicas) = (self.cpus, self.replicas);
        let crew = self.crew.get_or_insert_with(|| {
            let cpus = cpus.unwrap_or_else(caller_cpus);
            Crew::spawn(lane_budget(cpus, replicas) - 1)
        });
        crew.helpers.len() + 1
    }

    /// Lanes spawned so far, the caller's included: 1 before the first
    /// large wave, and on a caller with no second CPU to use.
    pub fn spawned(&self) -> usize {
        self.crew.as_ref().map_or(1, |crew| crew.helpers.len() + 1)
    }

    /// The helper threads, in lane order.
    #[cfg(test)]
    pub fn helper_threads(&self) -> Vec<thread::ThreadId> {
        self.crew.as_ref().map_or(Vec::new(), |crew| {
            crew.helpers.iter().map(|h| h.thread().id()).collect()
        })
    }

    /// Runs `job(0)` on the caller and `job(lane)` on every helper, and
    /// returns once all of them have. A helper's panic is resumed here.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let Some(crew) = self.crew.as_ref().filter(|crew| !crew.helpers.is_empty()) else {
            job(0);
            return;
        };
        let shared = &*crew.shared;
        // A helper's panic from a wave whose caller panicked as well.
        lock(&shared.panic).take();
        // SAFETY: only the lifetime is erased; the pointer and its vtable
        // are unchanged. The erased reference lives in `shared.slot`, which
        // `WaitForHelpers` clears before this function returns or unwinds,
        // and only after every helper has counted itself out of the wave
        // (`pending` = 0) — a helper calls the job before that and never
        // after. So no call through it outlives `job`'s borrow: the same
        // invariant `std::thread::scope` keeps.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job) };
        *lock(&shared.slot) = Some((erased, thread::current()));
        // `Relaxed` is enough for `pending`: the `Release` bump of `wave`
        // publishes it, and the slot, to each helper's `Acquire` load of
        // `wave`. A helper's `AcqRel` decrement publishes its rows to the
        // caller's `Acquire` load in `WaitForHelpers`.
        shared.pending.store(crew.helpers.len(), Ordering::Relaxed);
        shared.wave.fetch_add(1, Ordering::Release);
        for handle in &crew.helpers {
            handle.thread().unpark();
        }
        {
            let _wait = WaitForHelpers(shared);
            job(0);
        }
        if let Some(payload) = lock(&shared.panic).take() {
            panic::resume_unwind(payload);
        }
    }
}

impl Clone for GatherLanes {
    fn clone(&self) -> Self {
        GatherLanes {
            cpus: self.cpus,
            replicas: self.replicas,
            min_lookups: self.min_lookups,
            crew: None,
        }
    }
}

impl fmt::Debug for GatherLanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GatherLanes")
            .field("replicas", &self.replicas)
            .field("min_lookups", &self.min_lookups)
            .field("spawned", &self.spawned())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn the_budget_divides_the_callers_cpus_among_the_replicas() {
        assert_eq!(lane_budget(1, 1), 1);
        assert_eq!(lane_budget(2, 1), 2);
        assert_eq!(lane_budget(2, 2), 1);
        assert_eq!(lane_budget(8, 3), 2);
        assert_eq!(lane_budget(1, 4), 1);
        assert_eq!(lane_budget(64, 1), MAX_LANES);
    }

    #[test]
    fn small_waves_never_spawn() {
        let mut lanes = GatherLanes::new(1);
        assert_eq!(lanes.lanes_for(SPLIT_MIN_LOOKUPS - 1), 1);
        assert_eq!(lanes.spawned(), 1);
        assert!(lanes.helper_threads().is_empty());
    }

    #[test]
    fn every_lane_runs_once_per_wave() {
        for count in 1..=4 {
            let mut lanes = GatherLanes::forced(count);
            assert_eq!(lanes.lanes_for(0), count);
            let hits: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
            for _ in 0..50 {
                lanes.run(&|lane| {
                    hits[lane].fetch_add(1, Ordering::Relaxed);
                });
            }
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 50));
        }
    }

    #[test]
    fn helpers_write_through_the_borrowed_job() {
        let mut lanes = GatherLanes::forced(3);
        lanes.lanes_for(0);
        let slots: Vec<Mutex<Vec<usize>>> = (0..3).map(|_| Mutex::new(Vec::new())).collect();
        for wave in 0..20 {
            lanes.run(&|lane| lock(&slots[lane]).push(wave * 10 + lane));
        }
        for (lane, slot) in slots.iter().enumerate() {
            let want: Vec<usize> = (0..20).map(|wave| wave * 10 + lane).collect();
            assert_eq!(*lock(slot), want);
        }
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller_and_the_lanes_survive() {
        let mut lanes = GatherLanes::forced(2);
        lanes.lanes_for(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            lanes.run(&|lane| assert!(lane != 1, "lane {lane} fails"));
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert!(payload
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("lane 1 fails")));
        let ran = AtomicU64::new(0);
        lanes.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn the_caller_waits_for_the_helpers_when_its_own_range_panics() {
        let mut lanes = GatherLanes::forced(2);
        lanes.lanes_for(0);
        let done = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            lanes.run(&|lane| {
                if lane == 0 {
                    panic!("lane zero fails");
                }
                thread::sleep(Duration::from_millis(20));
                done.store(true, Ordering::Release);
            });
        }));
        assert!(caught.is_err());
        // The helper finished before the caller unwound out of `run`.
        assert!(done.load(Ordering::Acquire));
    }

    #[test]
    fn a_clone_has_its_own_unspawned_lanes_and_drop_joins() {
        let mut lanes = GatherLanes::forced(2);
        lanes.lanes_for(0);
        let mut clone = lanes.clone();
        assert_eq!(clone.spawned(), 1);
        assert_eq!(clone.lanes_for(0), 2);
        assert_ne!(clone.helper_threads(), lanes.helper_threads());
        // Parked helpers wake up to stop.
        thread::sleep(SPIN_BEFORE_PARK * 2);
        drop(lanes);
        drop(clone);
    }
}
