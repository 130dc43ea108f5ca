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

use std::time::Instant;

/// Seeded xorshift64 closure — the dependency-free PRNG every report binary
/// uses for reproducible workloads and probe sequences.
pub fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Best-of-samples wall time per operation, in nanoseconds.
///
/// Runs `op` in batches (`iters` calls per sample) and reports the best of
/// `samples` batches — the standard way to de-noise short operations
/// without a full statistics engine.
pub fn time_per_op_ns<F: FnMut()>(iters: usize, samples: usize, mut op: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Wall time of one call, in milliseconds.
pub fn time_once_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
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
            line.push_str(&format!("{c:>w$}  ", w = *w));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_do_not_panic() {
        let ns = time_per_op_ns(10, 3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(ns >= 0.0);
        let (v, ms) = time_once_ms(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert_eq!(bits_per(100, 10), "10.0");
        assert_eq!(bits_per(1, 0), "-");
        assert!(fmt_ns(500.0).ends_with("ns"));
        assert!(fmt_ns(5_000.0).ends_with("µs"));
        assert!(fmt_ns(5_000_000.0).ends_with("ms"));
        let t = Table::new(&["a", "b"], &[5, 5]);
        t.row(&["1", "2"]);
    }
}
