//! The few Linux syscalls the load generator and the traced run need and
//! `std` does not wrap: nanosecond `ppoll`, CPU pinning, rusage and
//! timer slack.  Declared directly against libc's ABI (64-bit
//! Linux layouts), like the supervisor's own epoll loop, so the benchmark
//! adds no crates.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals then fourteen `long` counters.
#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, tmo: *const Timespec, sigmask: *const u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RawRusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const PR_SET_TIMERSLACK: i32 = 29;
const SCHED_IDLE: i32 = 5;

/// Wait until one of `fds` is ready or `timeout` passes; returns how many
/// are ready (0 on timeout).  Retries EINTR.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    loop {
        // SAFETY: `fds` is valid for `len` entries and `ts` outlives the
        // call; a null sigmask leaves the signal mask unchanged.
        let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Pin the calling thread to one CPU.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu out of range",
        ));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid 1024-bit cpu set for the whole call; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Give the calling thread the `SCHED_IDLE` policy: it runs only when
/// nothing else on its CPU wants to, and any waking task preempts it.
pub fn sched_idle_current_thread() -> io::Result<()> {
    let priority = 0i32;
    // SAFETY: `priority` is a valid `struct sched_param` for the call; pid
    // 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Ask the kernel to wake this thread's timed waits within 1 ns of their
/// deadline (the default 50 µs slack would read as generator lateness).
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches no
    // caller memory.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

impl RawRusage {
    fn zeroed() -> RawRusage {
        let tv = || Timeval {
            tv_sec: 0,
            tv_usec: 0,
        };
        RawRusage {
            utime: tv(),
            stime: tv(),
            longs: [0; 14],
        }
    }

    fn cpu_ns(&self) -> u64 {
        let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
        (us(&self.utime) + us(&self.stime)) * 1_000
    }
}

/// CPU time (user + system) this process has used so far, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ru = RawRusage::zeroed();
    // SAFETY: `ru` has the kernel's 64-bit `struct rusage` layout and
    // outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed: {}", io::Error::last_os_error());
    ru.cpu_ns()
}

/// How a reaped child ended and what it used.
pub struct Reaped {
    /// Exit code, or 128 + signal number.
    pub code: i32,
    pub cpu_ns: u64,
    /// Peak resident set, KiB (`ru_maxrss`).  Linux counts the parent's
    /// resident set at fork time too, which is why this small process,
    /// not the benchmark's Python script, spawns what it measures.
    pub maxrss_kib: u64,
}

/// Wait for child `pid` and collect its rusage.  The caller must not reap
/// it any other way.
pub fn reap(pid: u32) -> io::Result<Reaped> {
    let mut status = 0;
    let mut ru = RawRusage::zeroed();
    loop {
        // SAFETY: `status` and `ru` are valid for writes for the call, and
        // `ru` has the kernel's 64-bit `struct rusage` layout.
        let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
        if rc >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Reaped {
        code,
        cpu_ns: ru.cpu_ns(),
        // ru_maxrss is the first long after the timevals.
        maxrss_kib: ru.longs[0] as u64,
    })
}
