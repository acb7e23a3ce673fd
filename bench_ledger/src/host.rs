//! What the run ran on: the environment record every output carries, the
//! guard that keeps the program on its defaults, this process's memory
//! high-water mark, and two ceilings the kernel rates are judged against.

use crate::report::json_string;
use std::hint::black_box;
use std::time::Instant;

/// The first environment variable that would move the program off its
/// defaults. Every knob of the program starts with this prefix, so the
/// benchmark refuses them by prefix and needs no list of its own.
pub fn program_knob_set() -> Option<String> {
    std::env::vars_os()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .find(|key| key.starts_with("CENTAUR_"))
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The bracketed choice in the transparent-huge-page mode file.
fn thp_mode() -> String {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .ok()
        .and_then(|text| {
            let chosen = text.split('[').nth(1)?.split(']').next()?;
            Some(chosen.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory; the driver's checkout is
/// not a repository, and then this reads `unknown`.
fn git_commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    read(".git/HEAD")
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")),
            None => Some(head),
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment record as one JSON object.
pub fn environment_json(seed: u64, seconds: f64, driven_threads: usize) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"thp\": {}, \"kernel_backend\": {}, \
         \"sparse_backend\": {}, \"driven_threads\": {}, \"git_commit\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}}}",
        nproc(),
        json_string(&cpu_model()),
        json_string(&thp_mode()),
        json_string(centaur_dlrm::kernel::global_backend().label()),
        json_string(centaur_dlrm::kernel::global_sparse_backend().label()),
        driven_threads,
        json_string(&git_commit()),
    )
}

/// Peak resident set of this process (`VmHWM`), in MB, since the process
/// started or since the last [`restart_peak_rss`] that took effect.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|line| line.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1e3)
        })
        .expect("/proc/self/status reports VmHWM")
}

/// Lowers the high-water mark behind [`peak_rss_mb`] to what is resident now,
/// so that the next reading is the peak of what ran in between. Where the
/// kernel refuses, nothing happens and the mark stays the process's.
pub fn restart_peak_rss() {
    // "5" is the kernel's code for "reset the peak resident set size".
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Words of a CPU affinity mask: room for 1024 CPUs, the kernel's default.
const AFFINITY_WORDS: usize = 16;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Runs `work` with the calling thread, and every thread it spawns meanwhile,
/// held on the CPU the caller is on now; the caller's affinity is restored
/// afterwards. A clock reading the caller takes inside `work` is then a
/// reading of the core those threads run on. Where the kernel refuses, `work`
/// runs unpinned.
pub fn on_one_cpu<R>(work: impl FnOnce() -> R) -> R {
    let bytes = AFFINITY_WORDS * 8;
    let mut before = [0u64; AFFINITY_WORDS];
    // SAFETY: `before` is `bytes` long and writable; pid 0 is the calling
    // thread; the call writes at most `bytes` bytes into the mask.
    let known = unsafe { sched_getaffinity(0, bytes, before.as_mut_ptr()) } == 0;
    // SAFETY: no arguments, no memory touched; returns -1 when unsupported.
    let cpu = unsafe { sched_getcpu() };
    let mut pinned = false;
    if known && (0..(bytes * 8) as i32).contains(&cpu) {
        let mut one = [0u64; AFFINITY_WORDS];
        one[cpu as usize / 64] = 1 << (cpu as usize % 64);
        // SAFETY: `one` is `bytes` long and only read; pid 0 is the calling
        // thread.
        pinned = unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0;
    }
    let result = work();
    if pinned {
        // SAFETY: `before` is `bytes` long, only read, and holds the mask the
        // kernel reported for this thread above.
        unsafe { sched_setaffinity(0, bytes, before.as_ptr()) };
    }
    result
}

/// Independent multiply-then-add chains held in registers.
const CHAINS: usize = 12;
/// Lanes per chain: one 256-bit vector of `f32`.
const LANES: usize = 8;

/// `iterations` rounds of one multiply and one add on every lane of every
/// chain, nothing touching memory. The multiplier and addend keep each lane
/// at a fixed point near 1, so nothing overflows or goes denormal.
#[inline(always)]
fn multiply_add_chains(iterations: u64) -> f32 {
    let mut chains = [[1.0f32; LANES]; CHAINS];
    for (index, chain) in chains.iter_mut().enumerate() {
        chain.fill(1.0 + index as f32 * 1e-3);
    }
    let (multiplier, addend) = (black_box(0.999_f32), black_box(0.001_f32));
    for _ in 0..iterations {
        for chain in &mut chains {
            for lane in chain.iter_mut() {
                *lane = *lane * multiplier + addend;
            }
        }
    }
    chains.iter().flatten().sum()
}

/// [`multiply_add_chains`] compiled for AVX2, the widest unit the GEMM
/// microkernels dispatch to. Rust never fuses `a * b + c` on its own, so this
/// is the multiply-and-add rate those kernels can reach, not the FMA rate.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: unsafe solely because of `#[target_feature(enable = "avx2")]`: the
// body is safe Rust over local arrays. Sole precondition: the running CPU
// supports AVX2, which the one caller (`peak_gflops`) checks first.
unsafe fn multiply_add_chains_avx2(iterations: u64) -> f32 {
    multiply_add_chains(iterations)
}

/// Seconds `iterations` rounds of the widest multiply-add loop take.
fn multiply_add_seconds(iterations: u64) -> f64 {
    let start = Instant::now();
    #[cfg(target_arch = "x86_64")]
    let sum = if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by the runtime AVX2 check on this line's `if`.
        unsafe { multiply_add_chains_avx2(black_box(iterations)) }
    } else {
        multiply_add_chains(black_box(iterations))
    };
    #[cfg(not(target_arch = "x86_64"))]
    let sum = multiply_add_chains(black_box(iterations));
    black_box(sum);
    start.elapsed().as_secs_f64()
}

/// Single-core floating-point ceiling without FMA, in GFLOP/s: the best of a
/// few short repetitions of a register-resident multiply-add loop.
pub fn peak_gflops() -> f64 {
    const ITERATIONS: u64 = 2_000_000;
    let flops = (ITERATIONS * 2 * (CHAINS * LANES) as u64) as f64;
    (0..5)
        .map(|_| flops / multiply_add_seconds(ITERATIONS) / 1e9)
        .fold(0.0, f64::max)
}

/// Rounds of the multiply-add loop in one clock reading.
const CLOCK_ITERATIONS: u64 = 60_000;

/// What [`CLOCK_ITERATIONS`] rounds take on the reference host at its base
/// clock. Only a scale: it makes a normalised figure read like the raw one.
pub const CLOCK_REFERENCE_S: f64 = 2.04e-3;

/// One reading of the core's clock: how fast this core runs the
/// register-resident loop right now, as a share of the reference speed
/// (above 1 under turbo, below 1 when throttled or sharing its core). About
/// 2 ms. A timed window is divided by the readings around it, so that the
/// figure does not follow the host's clock.
pub fn clock_speed() -> f64 {
    let start = Instant::now();
    black_box(multiply_add_chains(black_box(CLOCK_ITERATIONS)));
    CLOCK_REFERENCE_S / start.elapsed().as_secs_f64()
}

/// Single-core streaming-read ceiling, in GB/s: the best of a few sequential
/// sums over 64 MB, far more than any cache here holds.
pub fn stream_read_gbs() -> f64 {
    const WORDS: usize = 8 << 20;
    let data: Vec<u64> = (0..WORDS as u64).collect();
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let sum = black_box(&data)
                .iter()
                .fold(0u64, |sum, &word| sum.wrapping_add(word));
            black_box(sum);
            (WORDS * 8) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_record_is_one_json_object_naming_the_defaults() {
        let json = environment_json(7, 1.5, 2);
        assert!(json.starts_with('{') && json.ends_with('}') && !json.contains('\n'));
        for key in [
            "nproc",
            "cpu_model",
            "thp",
            "kernel_backend",
            "sparse_backend",
            "driven_threads",
            "git_commit",
            "seed",
            "seconds",
        ] {
            assert!(json.contains(&format!("\"{key}\": ")), "{key} in {json}");
        }
        assert!(
            json.contains("\"kernel_backend\": \"blocked-prepacked\""),
            "{json}"
        );
        assert!(json.contains("\"seed\": 7, \"seconds\": 1.5"), "{json}");
    }

    #[test]
    fn the_memory_high_water_mark_follows_what_ran_since_it_was_restarted() {
        let before = peak_rss_mb();
        assert!(before > 1.0);
        restart_peak_rss();
        let block = vec![1u8; 64 << 20];
        assert!(black_box(&block).iter().all(|&byte| byte == 1));
        let with_block = peak_rss_mb();
        assert!(with_block > 64.0, "{with_block}");
        drop(block);
        restart_peak_rss();
        let after = peak_rss_mb();
        // Where the kernel refuses the restart the mark only ever rises.
        assert!(after <= with_block, "{after} > {with_block}");
    }

    #[test]
    fn one_cpu_holds_spawned_threads_and_is_given_back() {
        let wide = nproc();
        let (inside, spawned) = on_one_cpu(|| (nproc(), std::thread::spawn(nproc).join().unwrap()));
        assert_eq!((inside, spawned), (1, 1));
        assert_eq!(nproc(), wide, "the caller's affinity is restored");
    }

    #[test]
    fn multiply_add_chains_stay_finite() {
        let sum = multiply_add_chains(10_000);
        assert!(sum.is_finite() && sum > 0.0, "{sum}");
    }
}
