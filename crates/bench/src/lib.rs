//! # wt-bench — harness regenerating the paper's tables and figures
//!
//! The paper's evaluation is analytical; each report binary turns one of
//! its claims into a measured table (see EXPERIMENTS.md for the mapping):
//!
//! | binary | experiment | claim |
//! |---|---|---|
//! | `table1_time` | E1–E3 | Table 1 operation costs and their scaling |
//! | `table1_space` | E4 | Table 1 space columns vs `LB = LT + nH0` |
//! | `bitvec_report` | E5–E6 | §4.1/§4.2 bitvector costs, O(1) `Init` |
//! | `range_report` | E7 | §5 range algorithms vs naive scans |
//! | `balance_report` | E8 | §6 height bound `(α+2)·log|Σ|`, hashed-tree op costs |
//! | `alphabet_report` | E9 | dynamic alphabet vs rebuild/two-copy baselines, `RankPrefix` |
//! | `dynamic_report` | E11 | §4.2 hot-path throughput → `BENCH_dynamic.json` |
//! | `static_report` | E12 | §2/§3 static-stack throughput → `BENCH_static.json` |
//! | `store_report` | E13 | tiered store: freeze vs rebuild, query overhead → `BENCH_store.json` |
//! | `throughput_report` | E14 | batched queries, parallel build, read scaling → `BENCH_throughput.json` |
//! | `persist_report` | E15 | cold load vs rebuild, recovery → `BENCH_persist.json` |
//! | `server_report` | E17 | sharded serving, clean vs degraded → `BENCH_server.json` |
//! | `figures` | Fig. 1–3 | structural reproduction, ASCII-rendered |
//!
//! Every timing is a [`Summary`] of repeated samples: a median with
//! quartiles and the sample count, never a best-of. The `BENCH_*.json`
//! binaries take `--quick` and `--out PATH` and nothing else, and write
//! through one [`Report`], which records the commit and host beside the
//! rows.

use std::fmt::Write as _;
use std::time::Instant;

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::BitString;
use wt_workloads::xorshift;

/// Each string's `NinthBitCoder` codeword.
pub fn encode_all(strings: &[String]) -> Vec<BitString> {
    strings
        .iter()
        .map(|s| NinthBitCoder.encode(s.as_bytes()))
        .collect()
}

/// `n` random integers below `2^value_bits` as `width`-bit MSB-first
/// strings: near-distinct, so every level of a descent misses the cache.
pub fn random_ints(n: usize, width: usize, value_bits: u32, seed: u64) -> Vec<BitString> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|_| {
            let v = next() & ((1u64 << value_bits) - 1);
            BitString::from_bits((0..width).rev().map(move |k| (v >> k) & 1 != 0))
        })
        .collect()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two nearest ranks (the "type 7" estimator).
/// Returns 0 for an empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let h = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// Median, quartiles and 99th percentile of a sample, with its size.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(mut xs: Vec<f64>) -> Self {
        xs.sort_by(f64::total_cmp);
        Summary {
            n: xs.len(),
            p25: quantile(&xs, 0.25),
            p50: quantile(&xs, 0.50),
            p75: quantile(&xs, 0.75),
            p99: quantile(&xs, 0.99),
        }
    }

    /// Calls `f` `samples` times and summarizes what it returns.
    pub fn sample(samples: usize, mut f: impl FnMut() -> f64) -> Self {
        Summary::of((0..samples).map(|_| f()).collect())
    }
}

/// Wall time per call of `op` in nanoseconds, over one run of `iters`
/// calls.
pub fn per_op_ns(iters: usize, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Wall time per call of `op` in nanoseconds, over `samples` runs of
/// `iters` calls each.
pub fn time_per_op_ns(iters: usize, samples: usize, mut op: impl FnMut()) -> Summary {
    Summary::sample(samples, || per_op_ns(iters, &mut op))
}

/// The median of [`time_per_op_ns`], for the printed tables.
pub fn median_ns_per_op(iters: usize, samples: usize, op: impl FnMut()) -> f64 {
    time_per_op_ns(iters, samples, op).p50
}

/// Wall time of one call, in milliseconds.
pub fn time_once_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Wall time of each of `samples` calls of `f`, in milliseconds; what `f`
/// returns is dropped outside the timing.
pub fn time_ms<T>(samples: usize, mut f: impl FnMut() -> T) -> Summary {
    Summary::sample(samples, || time_once_ms(&mut f).1)
}

/// Right-aligned fixed-width table printing.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table and prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        assert_eq!(headers.len(), widths.len());
        let t = Table {
            widths: widths.to_vec(),
        };
        t.row(headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        t
    }

    /// Prints one row.
    pub fn row(&self, cells: &[&str]) {
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            let _ = write!(line, "{c:>w$}  ", w = *w);
        }
        println!("{}", line.trim_end());
    }
}

/// Formats a bit count as bits-per-element with 1 decimal.
pub fn bits_per(total_bits: usize, n: usize) -> String {
    if n == 0 {
        "-".into()
    } else {
        format!("{:.1}", total_bits as f64 / n as f64)
    }
}

/// Formats a nanosecond figure adaptively (ns / µs / ms).
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{:.2}ms", ns / 1e6)
    }
}

/// A value a report row can hold, written as JSON.
pub trait Json {
    fn json(&self) -> String;
}

impl Json for str {
    fn json(&self) -> String {
        json_str(self)
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn json(&self) -> String {
        (**self).json()
    }
}

impl Json for usize {
    fn json(&self) -> String {
        self.to_string()
    }
}

impl Json for f64 {
    fn json(&self) -> String {
        json_num(*self)
    }
}

/// The median, quartiles and sample count.
impl Json for Summary {
    fn json(&self) -> String {
        format!(
            "{{\"p50\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}}}",
            json_num(self.p50),
            json_num(self.p25),
            json_num(self.p75),
            self.n
        )
    }
}

/// A `"key": value` member of a JSON object.
fn member(key: &str, value: impl Json) -> String {
    format!("{}: {}", json_str(key), value.json())
}

/// A `BENCH_*.json` report: its flags, its rows, and the provenance of the
/// run (commit, CPUs, last-level cache, and the share of CPU time the
/// hypervisor stole while it ran).
pub struct Report {
    bench: &'static str,
    /// `--quick`: smaller inputs and fewer samples.
    pub quick: bool,
    out: String,
    ticks_at_start: Option<(u64, u64)>,
    fields: Vec<String>,
    sections: Vec<(&'static str, Vec<Vec<String>>)>,
}

impl Report {
    /// Starts the report `bench` from the command line, which may hold
    /// `--quick` and `--out PATH` and nothing else. The default path is
    /// `BENCH_<bench without "_report">.json`.
    pub fn from_args(bench: &'static str) -> Report {
        let default_out = format!("BENCH_{}.json", bench.trim_end_matches("_report"));
        match parse_flags(std::env::args().skip(1), default_out) {
            Ok((quick, out)) => Report::new(bench, quick, out),
            Err(e) => {
                eprintln!("{bench}: {e}\nusage: {bench} [--quick] [--out PATH]");
                std::process::exit(2)
            }
        }
    }

    /// Starts the report `bench`, to be written to `out`.
    fn new(bench: &'static str, quick: bool, out: String) -> Report {
        Report {
            bench,
            quick,
            out,
            ticks_at_start: cpu_ticks(),
            fields: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Sets a report-level field, written after the provenance.
    pub fn set(&mut self, key: &str, value: impl Json) {
        self.fields.push(member(key, value));
    }

    /// Starts the array `name`: the rows pushed from now on go into it.
    /// Rows pushed before any section go into `results`.
    pub fn section(&mut self, name: &'static str) {
        self.sections.push((name, Vec::new()));
    }

    /// Starts a row in the current section.
    pub fn row(&mut self) -> Row<'_> {
        if self.sections.is_empty() {
            self.section("results");
        }
        let rows = &mut self.sections.last_mut().expect("a section").1;
        rows.push(Vec::new());
        Row(rows.last_mut().expect("the row just pushed"))
    }

    /// Adds the row the store, persist and server reports share: `value`
    /// in `unit` for `op` on `structure` under `workload` at size `n`, with
    /// its `ratio` to a comparison row where there is one.
    pub fn value_row(
        &mut self,
        (structure, workload, op): (&str, &str, &str),
        n: usize,
        value: impl Json,
        unit: &str,
        ratio: Option<f64>,
    ) {
        let row = self
            .row()
            .set("structure", structure)
            .set("workload", workload)
            .set("op", op)
            .set("n", n)
            .set("value", value)
            .set("unit", unit);
        if let Some(r) = ratio {
            row.set("ratio", r);
        }
    }

    /// Writes the report to its path as JSON: name, mode, provenance,
    /// fields, then one array per section with one object per row.
    pub fn finish(self) {
        let steal = steal_share(self.ticks_at_start, cpu_ticks()).unwrap_or(f64::NAN);
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut members = vec![
            member("bench", self.bench),
            member("mode", if self.quick { "quick" } else { "full" }),
            member("commit", commit().as_str()),
            member("nproc", nproc),
            member("llc_bytes", llc_bytes()),
            member("steal_share", steal),
        ];
        members.extend(self.fields);
        for (name, rows) in &self.sections {
            let rows: Vec<String> = rows
                .iter()
                .map(|r| format!("    {{{}}}", r.join(", ")))
                .collect();
            members.push(format!("{}: [\n{}\n  ]", json_str(name), rows.join(",\n")));
        }
        let json = format!("{{\n  {}\n}}\n", members.join(",\n  "));
        std::fs::write(&self.out, json).unwrap_or_else(|e| panic!("write {}: {e}", self.out));
        let rows: usize = self.sections.iter().map(|(_, r)| r.len()).sum();
        println!("wrote {} ({rows} rows)", self.out);
    }
}

/// A row being filled in; see [`Report::row`].
pub struct Row<'a>(&'a mut Vec<String>);

impl Row<'_> {
    /// Adds a field to the row.
    pub fn set(self, key: &str, value: impl Json) -> Self {
        self.0.push(member(key, value));
        self
    }
}

/// `--quick` and `--out PATH`, the only flags a report takes.
fn parse_flags(
    args: impl IntoIterator<Item = String>,
    default_out: String,
) -> Result<(bool, String), String> {
    let (mut quick, mut out) = (false, default_out);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().ok_or("--out needs a path")?,
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok((quick, out))
}

/// Escapes a string for a JSON literal.
fn json_str(s: &str) -> String {
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

/// A JSON number with at most three decimals; non-finite values, which
/// JSON cannot hold, become `null`.
fn json_num(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let s = format!("{x:.3}");
    match s.trim_end_matches('0').trim_end_matches('.') {
        "-0" => "0".to_string(),
        t => t.to_string(),
    }
}

/// The version-control commit, when the working directory itself holds
/// the repository (no search through parent directories).
fn commit() -> String {
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
fn cpu_ticks() -> Option<(u64, u64)> {
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

/// Share of CPU time stolen by the hypervisor between two readings.
fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Last-level cache size in bytes from CPUID's deterministic cache
/// parameters (leaf 4 on Intel, 0x8000001D on AMD); 0 if unknown.
fn llc_bytes() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        let vendor = __cpuid_count(0, 0);
        let leaf = if vendor.ebx == 0x6874_7541 {
            0x8000_001D
        } else {
            4
        };
        let mut best = 0usize;
        for sub in 0..16 {
            let r = __cpuid_count(leaf, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let ways = (r.ebx >> 22) as usize + 1;
            let parts = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
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
    fn summary_quantiles_of_known_samples() {
        assert_eq!(Summary::of(Vec::new()), Summary::default());
        let one = Summary::of(vec![7.0]);
        assert_eq!(
            (one.n, one.p25, one.p50, one.p75, one.p99),
            (1, 7.0, 7.0, 7.0, 7.0)
        );
        let two = Summary::of(vec![4.0, 2.0]);
        assert_eq!((two.n, two.p25, two.p50, two.p75), (2, 2.5, 3.0, 3.5));
        let s = Summary::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.p25, s.p50, s.p75), (1.75, 2.5, 3.25));
        // 1..=1000: p99 sits between ranks 990 and 991.
        let s = Summary::of((1..=1000).map(f64::from).collect());
        assert!((s.p99 - 990.01).abs() < 1e-9, "{}", s.p99);
    }

    #[test]
    fn helpers_do_not_panic() {
        let ns = time_per_op_ns(10, 3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(ns.n == 3 && ns.p25 >= 0.0 && ns.p25 <= ns.p50 && ns.p50 <= ns.p75);
        let (v, ms) = time_once_ms(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert_eq!(time_ms(4, || 1).n, 4);
        assert_eq!(bits_per(100, 10), "10.0");
        assert_eq!(bits_per(1, 0), "-");
        assert!(fmt_ns(500.0).ends_with("ns"));
        assert!(fmt_ns(5_000.0).ends_with("µs"));
        assert!(fmt_ns(5_000_000.0).ends_with("ms"));
        let t = Table::new(&["a", "b"], &[5, 5]);
        t.row(&["1", "2"]);
    }

    #[test]
    fn json_strings_are_escaped_and_numbers_rounded() {
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
        assert_eq!(json_str("µs"), "\"µs\"");
        assert_eq!(json_num(47.25), "47.25");
        assert_eq!(json_num(100.0), "100");
        assert_eq!(json_num(1.0 / 3.0), "0.333");
        assert_eq!(json_num(-0.0001), "0");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn only_quick_and_out_are_flags() {
        let parse = |a: &[&str]| parse_flags(a.iter().map(|s| s.to_string()), "d".to_string());
        assert_eq!(parse(&[]), Ok((false, "d".into())));
        assert_eq!(parse(&["--out", "y", "--quick"]), Ok((true, "y".into())));
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--seed", "7"]).is_err());
    }

    #[test]
    fn written_report_holds_provenance_and_every_row() {
        let path = std::env::temp_dir().join(format!("wt-bench-{}.json", std::process::id()));
        let mut report = Report::new("unit_report", true, path.to_string_lossy().into_owned());
        report.set("shards", 4usize);
        let ns = Summary::of(vec![1.0, 2.0, 3.0]);
        report
            .row()
            .set("op", "rank")
            .set("n", 10usize)
            .set("ns", ns);
        report.section("build_results");
        report.row().set("op", "build").set("ratio", 1.5);
        report.value_row(("S", "w", "load"), 5, 2.0, "ms", Some(3.0));
        report.value_row(("S", "w", "size"), 5, 7usize, "bytes", None);
        report.row().set("op", "build").set("ratio", f64::NAN);
        report.finish();
        let json = std::fs::read_to_string(&path).expect("report written");
        std::fs::remove_file(&path).ok();
        for key in "bench mode commit nproc llc_bytes steal_share shards".split(' ') {
            assert!(json.contains(&format!("\n  \"{key}\": ")), "{key}:\n{json}");
        }
        assert!(json.contains("\"mode\": \"quick\""));
        assert!(json.contains(
            "\"results\": [\n    {\"op\": \"rank\", \"n\": 10, \
             \"ns\": {\"p50\": 2, \"p25\": 1.5, \"p75\": 2.5, \"n\": 3}}\n  ],"
        ));
        assert_eq!(json.matches("{\"op\": ").count(), 3);
        assert!(json.contains(
            "{\"structure\": \"S\", \"workload\": \"w\", \"op\": \"load\", \"n\": 5, \
             \"value\": 2, \"unit\": \"ms\", \"ratio\": 3},\n"
        ));
        assert!(json.contains("\"op\": \"size\", \"n\": 5, \"value\": 7, \"unit\": \"bytes\"},\n"));
        assert!(json.ends_with("\"ratio\": null}\n  ]\n}\n"), "{json}");
    }
}
