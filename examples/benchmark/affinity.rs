//! Confining serve-hot to one CPU.
//!
//! serve-hot is a ping-pong between its client thread and the daemon's
//! reactor thread with a few microseconds of work per turn. Left to the
//! scheduler, the two share a CPU in some runs and sit on two in others,
//! and a wake-up across CPUs costs about as much as the request itself:
//! on a two-CPU virtual machine one client's 10th-percentile latency was
//! 32–36 µs across CPUs against 14–16 µs on one, and with two clients
//! it spread by 38–55 % of its median between runs of the same code on
//! another host. On one CPU every run measures the same hand-off.

/// While alive, the calling thread, and every thread it starts, runs on
/// one CPU only; dropping it gives the calling thread back the CPUs it
/// had, so processes it starts later see the host's parallelism.
pub struct OneCpu {
    pub cpu: usize,
    #[cfg(target_os = "linux")]
    before: linux::CpuSet,
}

/// Confines the calling thread to the first CPU it may run on, or
/// returns `None` where the kernel has no affinity call or refuses it.
#[cfg(target_os = "linux")]
pub fn pin() -> Option<OneCpu> {
    let before = linux::get()?;
    let cpu = (0..before.len() * 64).find(|&i| before[i / 64] >> (i % 64) & 1 == 1)?;
    let mut one: linux::CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    linux::set(&one).then_some(OneCpu { cpu, before })
}

#[cfg(not(target_os = "linux"))]
pub fn pin() -> Option<OneCpu> {
    None
}

#[cfg(target_os = "linux")]
impl Drop for OneCpu {
    fn drop(&mut self) {
        linux::set(&self.before);
    }
}

#[cfg(target_os = "linux")]
mod linux {
    /// A `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    const SIZE: usize = std::mem::size_of::<CpuSet>();

    /// The calling thread's CPU mask.
    pub fn get() -> Option<CpuSet> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; the call writes at most
        // `SIZE` bytes, the size of `mask`.
        (unsafe { sched_getaffinity(0, SIZE, &mut mask) } == 0).then_some(mask)
    }

    /// Sets the calling thread's CPU mask; returns whether it took.
    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: as in `get`; the call only reads `mask`.
        unsafe { sched_setaffinity(0, SIZE, mask) == 0 }
    }
}
