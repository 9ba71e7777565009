//! Wall and CPU clocks and peak memory.

use std::time::Instant;

// `Timespec` below mirrors the 64-bit Linux `struct timespec`, and peak
// memory comes from Linux `/proc`.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench supports 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) the whole process has used, in seconds, at
/// nanosecond resolution. Preemption and waiting do not advance it.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // clock_gettime writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds one piece of work took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Host wall time.
    pub wall: f64,
    /// Process CPU time.
    pub cpu: f64,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(mut self, o: Cost) -> Cost {
        self += o;
        self
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, o: Cost) {
        self.wall += o.wall;
        self.cpu += o.cpu;
    }
}

/// What one round of whole repetitions costs at its fastest: the sum,
/// over the operations of a round, of each operation's fastest
/// repetition. `rounds[r][k]` is what operation `k` cost in round `r`;
/// every round runs the same operations in the same order.
///
/// The program is deterministic and single-threaded here, so every
/// repetition of an operation does the same work. What differs between
/// repetitions is interference from other tenants of the host's cores,
/// which only adds time: on the reference host it slowed the same code by
/// up to 1.8× in bursts of seconds and in episodes of minutes, with no
/// preemption or page faults (so it inflates CPU time as much as wall
/// time). The fastest repetition is the estimate of the program's own
/// cost that such interference moves least.
pub fn fastest(rounds: &[Vec<Cost>]) -> Cost {
    let ops = rounds.first().map_or(0, Vec::len);
    assert!(ops > 0, "no operation was timed");
    assert!(
        rounds.iter().all(|r| r.len() == ops),
        "rounds time different operations"
    );
    let mut total = Cost::default();
    for k in 0..ops {
        let min = |f: fn(&Cost) -> f64| {
            rounds
                .iter()
                .map(|r| f(&r[k]))
                .fold(f64::INFINITY, f64::min)
        };
        total += Cost {
            wall: min(|c| c.wall),
            cpu: min(|c| c.cpu),
        };
    }
    total
}

/// Runs `f`, returning its result and what it cost.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - c0;
    (r, Cost { wall, cpu })
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
