//! Host facts: the thread budget, peak RSS, and the provenance block every
//! results file carries.

use genbase_util::Json;
use std::process::Command;

/// Hardware threads the host reports.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Kernel thread budget of every workload: `min(nproc, 4)`.
pub fn host_threads() -> usize {
    nproc().min(4)
}

/// Keep glibc's allocator to one arena for this process. With the default
/// per-thread arenas `serve_mix`'s `VmHWM` is 69–93 MB from run to run,
/// depending on which of the server's connection threads lands in which
/// arena; with one arena it is 33–40 MB (45–47 MB when two heavy requests
/// coincide). The cell workloads read the same either way.
/// Costs `serve_mix` about 5 % of `req_per_s` in `malloc` lock waits.
pub fn single_malloc_arena() -> Result<(), String> {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets an allocator tunable; called first
        // thing in `main`, before another thread exists.
        if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
            return Err("mallopt(M_ARENA_MAX, 1) was refused".to_string());
        }
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// First line a command prints, or `"unknown"` when it cannot run (the
/// driver's checkout is not a git repository, for one).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken.
pub fn provenance() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut out = Json::obj();
    out.set("nproc", Json::from(nproc()));
    out.set("host_threads", Json::from(host_threads()));
    out.set("cpu_model", Json::from(cpu));
    out.set("rustc", Json::from(first_line("rustc", &["--version"])));
    out.set(
        "git_commit",
        Json::from(first_line("git", &["rev-parse", "HEAD"])),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(rss_peak_mb().unwrap() > 0.0);
    }
}
