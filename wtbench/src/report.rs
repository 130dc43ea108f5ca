//! Output: one human-readable line per metric (median, quartiles and
//! sample count), a provenance line, and the closing JSON result line.

use std::fmt::Write as _;
use std::path::Path;

use crate::stats::{mean, quietest, Summary};

/// An end-to-end timing is the median of the samples from windows no more
/// stolen than the least stolen quarter of all samples.
pub const QUIET_SHARE: f64 = 0.25;

/// One reported metric. `detail` carries the spread behind the value.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub detail: String,
}

impl Metric {
    pub fn plain(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            detail: String::new(),
        }
    }

    /// The 99th percentile of `s`, with its sample count and how many
    /// samples lie beyond it.
    pub fn tail(name: &str, unit: &'static str, s: Summary) -> Self {
        Metric {
            detail: format!("n={} beyond={}", s.n, s.beyond_p99()),
            ..Metric::plain(name, unit, s.p99)
        }
    }

    /// The median of the `samples` [`quietest`] keeps at `QUIET_SHARE`
    /// (`steal` gives each sample's window's steal share).
    /// The detail gives the kept samples' quartiles and mean steal share,
    /// and the median and mean steal share of all samples.
    pub fn quiet(name: &str, unit: &'static str, samples: &[f64], steal: &[f64]) -> Self {
        let kept = Summary::of(quietest(samples, steal, QUIET_SHARE));
        let kept_steal = quietest(steal, steal, QUIET_SHARE);
        let all = Summary::of(samples.to_vec());
        Metric {
            detail: format!(
                "p25 {:.4} p75 {:.4} n={} steal {:.3}; all: p50 {:.4} n={} steal {:.3}",
                kept.p25,
                kept.p75,
                kept.n,
                mean(&kept_steal),
                all.p50,
                all.n,
                mean(steal)
            ),
            ..Metric::plain(name, unit, kept.p50)
        }
    }

    /// The median of `s`, with its quartiles and sample count.
    pub fn median(name: &str, unit: &'static str, s: Summary) -> Self {
        Metric {
            detail: format!("p25 {:.4} p75 {:.4} n={}", s.p25, s.p75, s.n),
            ..Metric::plain(name, unit, s.p50)
        }
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<34} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, m.detail
        );
    }
}

/// The closing line: the only line a harness needs to parse.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// FNV-1a over every file under `dirs` (relative to the working
/// directory), in path order: identifies the measured source even where
/// the checkout carries no version-control metadata.
pub fn source_fingerprint(dirs: &[&str]) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The version-control commit, when the working directory itself holds
/// the repository (no search through parent directories).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// Steal and total ticks of the host's CPUs so far, from `/proc/stat`
/// (Linux only): steal is time a virtual CPU was ready but the hypervisor
/// ran something else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// CPU time the process has used so far, in seconds: every thread's,
/// including threads that have ended. On Linux with paravirtual steal
/// accounting, time the hypervisor gave to another guest is not in it, and
/// neither is time a thread spent waiting for a CPU. NaN where unsupported.
pub fn process_cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a live, writable timespec with the C layout of a
        // 64-bit Linux target, and the clock id is a constant the kernel
        // knows.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.sec as f64 + ts.nsec as f64 * 1e-9;
        }
    }
    f64::NAN
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Last-level cache size in bytes from CPUID's deterministic cache
/// parameters (leaf 4 on Intel, 0x8000001D on AMD); 0 if unknown.
pub fn llc_bytes() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let vendor = __cpuid_count(0, 0);
        let leaf = if vendor.ebx == 0x6874_7541 {
            0x8000_001D
        } else {
            4
        };
        let mut best = 0u64;
        for sub in 0..16 {
            let r = __cpuid_count(leaf, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let ways = u64::from((r.ebx >> 22) + 1);
            let parts = u64::from(((r.ebx >> 12) & 0x3ff) + 1);
            let line = u64::from((r.ebx & 0xfff) + 1);
            let sets = u64::from(r.ecx) + 1;
            best = best.max(ways * parts * line * sets);
        }
        best
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let m = [
            Metric::plain("qps", "ops/s", 1234.5),
            Metric::plain("bad", "x", f64::NAN),
        ];
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 1234.5, \"unit\": \"ops/s\"}, \"bad\": {\"value\": 0, \"unit\": \"x\"}}}"
        );
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
