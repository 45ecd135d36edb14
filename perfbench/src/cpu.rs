//! CPU-time clocks, and the calibration pass that scales CPU times to
//! the reference machine's speed.

use std::ffi::{c_int, c_long};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock(clock: c_int) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock
    // ids are constants the kernel always accepts.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of this process, every thread included, exited ones too.
/// Under paravirtual steal-time accounting the time the hypervisor
/// gives the vCPU to other guests is not counted.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Thread CPU seconds one calibration pass takes on the reference
/// machine (a 2-vCPU Xeon guest) when its host is quiet.
pub const REFERENCE_PASS_S: f64 = 0.022;
/// Words in the calibration table: 4 MiB, larger than a core's L2.
const TABLE_WORDS: usize = 1 << 19;
/// Table updates per pass.
const TABLE_STEPS: usize = 1 << 20;
/// Register-only mixing steps per pass.
const ALU_STEPS: u64 = 6 << 20;
/// 512-byte writes, then reads, of a scratch file per pass.
const FILE_OPS: usize = 2000;

/// One calibration pass; returns the thread CPU seconds it took.
///
/// The pass does a fixed amount of the kinds of work the daemon does:
/// page faults and cache and TLB misses over a fresh 4 MiB table,
/// integer work in registers, and small `write` and `read` system calls
/// on a file in `dir`. It calls no code of the repository, so no change
/// to the repository changes it. The machine's speed is what moves it:
/// on a shared host, the turbo clock and the contention for caches and
/// memory shift CPU times by up to half within minutes, and CPU time
/// cannot leave that out as it leaves out steal.
pub fn calibration_pass(dir: &Path) -> Result<f64, String> {
    let start = thread_cpu();
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0u64;
    for _ in 0..TABLE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & (TABLE_WORDS - 1)];
        *slot = slot.rotate_left(5) ^ x;
        acc = acc.wrapping_add(*slot);
    }
    for i in 0..ALU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    let path = dir.join("calibration.bin");
    file_ops(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((thread_cpu() - start).as_secs_f64())
}

fn file_ops(path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .truncate(true)
        .read(true)
        .write(true)
        .open(path)?;
    let mut buf = [7u8; 512];
    for _ in 0..FILE_OPS {
        f.write_all(&buf)?;
    }
    f.seek(SeekFrom::Start(0))?;
    for _ in 0..FILE_OPS {
        f.read_exact(&mut buf)?;
    }
    drop(f);
    std::fs::remove_file(path)
}
