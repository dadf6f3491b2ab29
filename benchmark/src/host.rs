//! Takes the host's scheduling noise out of the measurement.
//!
//! The box is a shared guest with two virtual CPUs, and two things it does
//! swung every wire-bound median by a factor of two between identical
//! launches:
//!
//! * **Cross-CPU wake-ups.** A closed loop at depth 1 is a chain of thread
//!   hand-offs (client → reactor → dispatch → reactor → client). A hand-off
//!   to a thread on the other virtual CPU is an inter-processor interrupt,
//!   which in a guest is a trip through the hypervisor; one on the same CPU
//!   is a context switch. Where the kernel happened to place the threads
//!   decided a run's mode: `no2d_wire` point p50 was 26 µs in some runs and
//!   48–56 µs in others. Confined to one CPU it is 18.0–18.5 µs, every run.
//!   The second virtual CPU bought nothing to lose: `flights_mono` point
//!   p50 is 343 µs on one CPU and 388 µs on two, set-up 4.9 s against 5.0 s.
//! * **Halting.** A CPU with nothing to run halts, and waking it is another
//!   trip through the hypervisor (a loopback echo between two threads: 6 µs
//!   on busy CPUs, 10–50 µs, changing by the minute, on idle ones). A
//!   `SCHED_IDLE` spinner keeps the CPU awake: the kernel runs such a thread
//!   only when the CPU would otherwise halt and preempts it the moment
//!   anything else is runnable (23 µs → 18 µs on `no2d_wire`).
//!
//! So [`confine_to_one_cpu`] pins the benchmark process — and with it every
//! server it starts — to one CPU, and [`KeepAwake`] spins on it. Servers
//! still size their `par` pool for the whole machine (`ENTROPYDB_THREADS`,
//! set by `main`), so the pool hand-off stays on the measured path. Both
//! sides of a comparison run under the same confinement; what it cannot
//! show is a parallel speed-up, which this box does not have to give.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
mod sched {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }

    const SCHED_IDLE: i32 = 5;
    /// Words of the kernel's CPU mask this process can name: 1 024 CPUs.
    const MASK_WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
    }

    /// Narrows the calling thread's CPU set to its lowest allowed CPU.
    pub fn confine() -> bool {
        let mut mask = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `sched_getaffinity(2)` writes at most `bytes` bytes into
        // `mask`, which is that large and lives across the call.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return false;
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return false;
        };
        let lowest = mask[word] & mask[word].wrapping_neg();
        let mut one = [0u64; MASK_WORDS];
        one[word] = lowest;
        // SAFETY: `sched_setaffinity(2)` reads `bytes` bytes from `one`,
        // which is that large and lives across the call.
        unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
    }

    /// Moves the calling thread to `SCHED_IDLE`; false if the kernel refuses.
    pub fn make_idle() -> bool {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param`
        // (a single C int on Linux) through the pointer, which is valid for
        // the whole call; pid 0 names the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sched {
    pub fn make_idle() -> bool {
        false
    }

    pub fn confine() -> bool {
        false
    }
}

/// Pins the calling thread to the lowest CPU it is allowed on. Called first
/// thing in `main`, so every thread and child process inherits it. False if
/// the kernel refuses (the run is then flagged noisy).
pub fn confine_to_one_cpu() -> bool {
    sched::confine()
}

/// The spinners; they stop and are joined on drop.
#[derive(Debug)]
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<bool>>,
}

impl KeepAwake {
    /// One spinner per CPU this process may run on. A spinner that cannot lower itself to
    /// `SCHED_IDLE` exits at once rather than compete for the CPU.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !sched::make_idle() {
                        return false;
                    }
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    true
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }

    /// Stops the spinners; true when every one of them ran at idle
    /// priority (false means the host's wake-up noise was not suppressed).
    pub fn finish(mut self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        // Join every spinner before judging any of them.
        let ran: Vec<bool> = self
            .spinners
            .drain(..)
            .map(|s| s.join().unwrap_or(false))
            .collect();
        ran.into_iter().all(|ran| ran)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_at_idle_priority_and_stop() {
        assert!(KeepAwake::start().finish());
    }

    #[test]
    fn confinement_leaves_one_cpu() {
        // On a thread of its own: affinity is per thread, and the other
        // tests keep theirs.
        let cpus = std::thread::spawn(|| {
            assert!(confine_to_one_cpu());
            std::thread::available_parallelism().map_or(0, |n| n.get())
        })
        .join()
        .unwrap();
        assert_eq!(cpus, 1);
    }
}
