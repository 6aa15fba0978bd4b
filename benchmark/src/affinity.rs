//! Pin the benchmark to one CPU.
//!
//! Three of the four workloads run eight rank threads that wake each other
//! through channels thousands of times a second. On the shared 2-vCPU
//! sandbox the cost of a wake-up that crosses vCPUs depends on where the
//! host scheduled them, and drifted over minutes: the same repetition took
//! 2.4 s to 4.1 s unpinned, 1.9 s to 2.3 s on one CPU (measured when the
//! benchmark was defined). So the harness confines itself — and every
//! thread the simulator later spawns, which inherit the mask — to a single
//! CPU. Host numbers are therefore single-core numbers; with two cores no
//! claim about parallel speed-up could be made from them anyway.

/// glibc's `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the process was allowed before pinning, and the one it now runs on.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    pub allowed_cpus: usize,
    pub cpu: usize,
}

/// Confine the calling thread to the highest-numbered CPU it may run on
/// (CPU 0 takes most interrupts). Call before any thread is spawned.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let allowed_cpus = allowed.iter().map(|w| w.count_ones() as usize).sum();
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity returned an empty CPU set")?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the byte length passed,
    // and names a CPU the kernel just reported as allowed.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), only.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Pinned { allowed_cpus, cpu })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_exactly_one_cpu_and_threads_inherit_it() {
        // On a thread of its own: the mask is per thread, and the other
        // tests must keep theirs.
        std::thread::spawn(|| {
            let pinned = pin_to_one_cpu().unwrap();
            assert!(pinned.allowed_cpus >= 1);
            let child = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
            assert_eq!(child.join().unwrap(), 1);
            let again = pin_to_one_cpu().unwrap();
            assert_eq!((again.allowed_cpus, again.cpu), (1, pinned.cpu));
        })
        .join()
        .unwrap();
    }
}
