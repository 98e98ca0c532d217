//! What the harness reads about the host and about its own process, and
//! which CPU it gives a load thread.

use std::path::Path;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which of the CPUs this process may run on.
#[derive(Clone, Copy)]
pub enum Cpu {
    First,
    Last,
}

/// glibc's `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Run `f` with the calling thread confined to one of the CPUs it may use,
/// then give it its CPUs back (threads it spawns later inherit them). Two
/// load threads on two cores otherwise change places during a run, with
/// each other and with the kernel's work for the disk: a reader that shares
/// its core with the block device's interrupts has another tail than one
/// that does not, and two clients that meet on one core halve each other.
/// With fewer than two CPUs, or where the mask cannot be read, `f` runs
/// unconfined.
#[cfg(target_os = "linux")]
pub fn on_cpu<T>(which: Cpu, f: impl FnOnce() -> T) -> T {
    let size = std::mem::size_of::<CpuSet>();
    let mut all: CpuSet = [0; 16];
    // SAFETY: `all` is a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, size, &mut all) } != 0 {
        return f();
    }
    let cpus: Vec<usize> = (0..size * 8)
        .filter(|c| all[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.len() < 2 {
        return f();
    }
    let cpu = match which {
        Cpu::First => cpus[0],
        Cpu::Last => cpus[cpus.len() - 1],
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: both masks are live buffers of the size passed. A refused
    // call leaves the thread where the scheduler puts it: noisier, not wrong.
    unsafe { sched_setaffinity(0, size, &one) };
    let result = f();
    unsafe { sched_setaffinity(0, size, &all) };
    result
}

#[cfg(not(target_os = "linux"))]
pub fn on_cpu<T>(_: Cpu, f: impl FnOnce() -> T) -> T {
    f()
}

/// One field of `/proc/self/status`, in kB.
fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .sum()
    })
}

pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Fixed calibration kernel: tokenize and CRC a fixed 1 MiB JSON buffer.
/// It shares no code with the program under test, so its time changes
/// with the host and never with the repository; later issues divide by
/// it to quote ratios across hosts. Returns the median of 9 passes, ms.
pub fn calib_ms() -> f64 {
    let mut buf = Vec::with_capacity(1 << 20);
    let mut i = 0u32;
    while buf.len() < (1 << 20) - 64 {
        buf.extend_from_slice(
            format!(
                "{{\"_id\":\"mp-{i}\",\"e\":[{},-{}.5],\"ok\":true}},",
                i % 97,
                i % 13
            )
            .as_bytes(),
        );
        i += 1;
    }
    let mut table = [0u32; 256];
    for (n, slot) in table.iter_mut().enumerate() {
        let mut c = n as u32;
        for _ in 0..8 {
            c = if c & 1 == 1 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut times = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        let (mut crc, mut depth, mut tokens, mut in_str) = (!0u32, 0i64, 0u64, false);
        for &b in &buf {
            crc = table[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
            match b {
                b'"' => {
                    in_str = !in_str;
                    tokens += u64::from(in_str);
                }
                b'{' | b'[' if !in_str => depth += 1,
                b'}' | b']' if !in_str => depth -= 1,
                b',' | b':' if !in_str => tokens += 1,
                _ => {}
            }
        }
        std::hint::black_box((crc, depth, tokens));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(times)
}
