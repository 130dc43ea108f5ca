//! §1's social-graph motivation: *"Edges can change over time, so we can
//! report what changed in the adjacency list of a given vertex in a given
//! time frame, allowing us to produce snapshots on the fly."*
//!
//! Each edge event is stored as the string `"<src>→<dst>"` in time order;
//! `RankPrefix` on `"<src>→"` counts a vertex's edge events in any time
//! window, `SelectPrefix` + sequential access reconstruct adjacency
//! snapshots and diffs without scanning the log.
//!
//! Run with `cargo run --release --example social_graph`.

use wavelet_trie::AppendLog;
use wt_workloads::{rng, RngExt};

fn edge(src: u32, dst: u32) -> String {
    // Fixed-width ids keep "u7→" a clean prefix boundary.
    format!("u{src:03}>u{dst:03}")
}

fn main() {
    let mut rng = rng(2012);
    let mut log = AppendLog::new();

    // 30k timestamped follow events among 200 users, preferential-ish.
    let n = 30_000;
    for _ in 0..n {
        let src = (rng.random_range(0..200u32) * rng.random_range(1..4u32)) % 200;
        let dst = (rng.random_range(0..200u32) * rng.random_range(1..4u32)) % 200;
        log.append(edge(src, dst));
    }
    println!("{n} follow events, {} distinct edges", log.distinct_len());

    let vertex = 42u32;
    let p = format!("u{vertex:03}>");

    // Activity of u042 per era (time windows = position ranges).
    println!("\nout-edge events of u{vertex:03} per era:");
    for (name, l, r) in [
        ("early", 0, n / 3),
        ("middle", n / 3, 2 * n / 3),
        ("late", 2 * n / 3, n),
    ] {
        println!("  {name:>6}: {}", log.range_count_prefix(&p, l, r));
    }

    // Adjacency snapshot "as of" event 10'000: the distinct neighbours among
    // the first 10k events (distinct-values-in-range restricted to prefix).
    let snapshot = log.distinct_in_range_with_prefix(&p, 0, 10_000);
    println!(
        "\nadjacency of u{vertex:03} as of t=10000: {} neighbours",
        snapshot.len()
    );
    for (e, c) in snapshot.iter().take(5) {
        println!("  {e} ({c} events)");
    }

    // What changed during "winter vacation" [12k, 18k)? New neighbours =
    // distinct edges in the window not seen before it.
    let window = log.distinct_in_range_with_prefix(&p, 12_000, 18_000);
    let new: Vec<&(String, usize)> = window
        .iter()
        .filter(|(e, _)| log.rank(e, 12_000) == 0)
        .collect();
    println!(
        "\nin [12000, 18000): {} edge events touched u{vertex:03}'s out-list, {} brand-new neighbours",
        log.range_count_prefix(&p, 12_000, 18_000),
        new.len()
    );

    // Jump straight to the k-th event of this vertex (SelectPrefix) and
    // replay the next few events around it.
    if let Some(pos) = log.select_prefix(&p, 9) {
        println!("\n10th out-event of u{vertex:03} is log position {pos}:");
        for (i, e) in log.iter_range(pos, (pos + 3).min(n)).enumerate() {
            println!("  t={} {e}", pos + i);
        }
    }
}
