//! Running the `meraligner` CLI as a child process and measuring it from
//! outside: wall time from spawn to exit, and peak resident memory.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one CLI run cost.
#[derive(Clone, Copy, Debug)]
pub struct RunSample {
    pub wall_s: f64,
    /// Peak resident set (`VmHWM`) in kB, as last seen before exit.
    pub peak_rss_kb: u64,
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in kB. `None` when the
/// line is missing (a zombie has no memory lines) or malformed.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// The fixed command line every workload drives the CLI with: two
/// simulated nodes of four ranks, all other knobs at the CLI's defaults.
pub const CLI_RANKS: usize = 8;
pub const CLI_PPN: usize = 4;

/// Run the CLI once on `contigs` / `reads`, writing `sam`. The parent
/// only sleeps and polls while the child runs: its exit is checked every
/// millisecond, `/proc/<pid>/status` every fourth. A non-zero exit is an
/// error carrying the CLI's stderr.
pub fn run_cli(
    bin: &Path,
    contigs: &Path,
    reads: &Path,
    sam: &Path,
    k: usize,
) -> io::Result<RunSample> {
    let stderr_path = sam.with_extension("stderr");
    let started = Instant::now();
    let mut child = Command::new(bin)
        .arg("--contigs")
        .arg(contigs)
        .arg("--reads")
        .arg(reads)
        .arg("--out")
        .arg(sam)
        .args(["--k", &k.to_string()])
        .args(["--ranks", &CLI_RANKS.to_string()])
        .args(["--ppn", &CLI_PPN.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(&stderr_path)?)
        .spawn()?;
    let status_path = format!("/proc/{}/status", child.id());
    let mut peak_rss_kb = 0u64;
    let mut tick = 0u32;
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if tick.is_multiple_of(4) {
            if let Some(kb) = std::fs::read_to_string(&status_path)
                .ok()
                .as_deref()
                .and_then(parse_vm_hwm_kb)
            {
                peak_rss_kb = peak_rss_kb.max(kb);
            }
        }
        tick = tick.wrapping_add(1);
        std::thread::sleep(Duration::from_millis(1));
    };
    let wall_s = started.elapsed().as_secs_f64();
    if !status.success() {
        let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        return Err(io::Error::other(format!(
            "meraligner exited with {status}: {}",
            stderr.trim()
        )));
    }
    Ok(RunSample {
        wall_s,
        peak_rss_kb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_from_a_status_text() {
        let status =
            "Name:\tmeraligner\nVmPeak:\t  903312 kB\nVmHWM:\t  706512 kB\nVmRSS:\t  650000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(706_512));
    }

    #[test]
    fn missing_or_malformed_lines_are_none() {
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_vm_hwm_kb(&me).unwrap() > 0);
    }
}
