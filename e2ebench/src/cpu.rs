//! Confines the benchmark — generator threads and the server child
//! process alike — to one CPU.
//!
//! On a host with two vCPUs the benchmark's threads outnumber the CPUs,
//! and where the scheduler happens to place them decides every figure: a
//! request round trip between two threads on one CPU is a context switch,
//! across CPUs an inter-processor wake-up that costs several times more
//! under a hypervisor. Runs of the same code then fall into different
//! modes. On one CPU every round trip is a context switch and throughput is
//! the inverse of the CPU time spent per event, which is what a change to
//! the program moves.
//!
//! The only unsafe code of the benchmark: direct `extern "C"` declarations
//! of `sched_getaffinity(2)` / `sched_setaffinity(2)` against the libc
//! every Rust binary already links.

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread — and so every thread and process it
/// starts afterwards — to the highest-numbered CPU it may run on (CPU 0
/// takes most device interrupts). Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable `cpu_set_t`-sized buffer and
    // its size is passed alongside; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if rc < 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("the affinity mask allows no CPU")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the kernel only reads `one`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
