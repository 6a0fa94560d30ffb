//! What the harness reads from the host: scheduler and CPU accounting
//! from `/proc`, and the compiler version for `result.json`.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. 100 on
/// every Linux configuration this runs on; not readable without libc.
const CLK_TCK: f64 = 100.0;

/// Nanoseconds the calling thread has waited on a run queue
/// (`/proc/thread-self/schedstat`, second field). `None` off Linux.
pub fn sched_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// CPU nanoseconds (user + system) the whole process has used, ended
/// threads included, at clock-tick resolution. `None` off Linux.
pub fn process_cpu_ns() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields are counted
    // from the parenthesis that closes it. utime and stime are fields
    // 14 and 15 of the line, 12 and 13 after the name.
    let after_name = &text[text.rfind(')')? + 1..];
    let mut fields = after_name.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1e9 / CLK_TCK)
}

pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_readers_parse_this_process() {
        assert!(sched_wait_ns().is_some());
        let before = process_cpu_ns().expect("/proc/self/stat parses");
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = process_cpu_ns().expect("/proc/self/stat parses");
        assert!(after >= before);
        assert!(after - before <= 1e9);
    }
}
