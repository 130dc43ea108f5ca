//! E17: end-to-end sharded serving — latency/throughput, clean vs degraded.
//!
//! An open-loop Zipf load generator drives the `wt-server` front-end: 4
//! hash-partitioned `TieredStore` shards behind a `ShardRouter`, mixed
//! read/append traffic (70% Count / 20% Access / 10% CountPrefix per
//! batch, plus ~10% of iterations appending), arrivals scheduled at a
//! fixed `RATE` by one scheduler thread and run by a pool of client
//! threads. Latency is measured from the *scheduled* arrival, so a
//! router that falls behind pays the queueing delay it caused (no
//! coordinated omission), and one slow batch does not delay the
//! arrivals after it.
//!
//! Two runs: clean, and degraded — shard 0 wrapped in a `FaultyShard`
//! scripted with periodic stalls past the deadline and injected failures,
//! so the run crosses Healthy → Degraded → Quarantined → probe → Healthy
//! while the load is in flight. `BENCH_server.json` reports p50/p99/qps,
//! the completeness rate, the scatter threads spawned and how late the
//! scheduler ran for both.
//!
//! Usage: `server_report [--quick] [--out PATH]`

use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wt_bench::Table;
use wt_bits::RetryPolicy;
use wt_server::{
    Answer, DocId, FaultScript, FaultyShard, HealthConfig, Query, RouterConfig, Shard, ShardRouter,
    StoreShard,
};
use wt_store::maintain::Maintenance;
use wt_store::TieredStore;
use wt_trie::BitString;
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::zipf::Zipf;
use wt_workloads::{rng, RngExt};

const SHARDS: usize = 4;
const BATCH: usize = 64;
const DEADLINE: Duration = Duration::from_millis(25);
/// Arrivals per second, the same for every router under test, so two
/// builds are offered the same load and the degraded run the same
/// schedule as the clean one.
const RATE: f64 = 800.0;
/// Client threads running the scheduled arrivals. The router answers a
/// batch within about one `DEADLINE` (20 arrivals at `RATE`); 32 clients
/// absorb 40 ms of arrivals before one has to wait for a free client.
const CLIENTS: usize = 32;

/// One measured series (same shape as the other `*_report` bins).
struct Measurement {
    structure: &'static str,
    workload: &'static str,
    op: &'static str,
    n: usize,
    value: f64,
    unit: &'static str,
}

struct RunStats {
    p50_us: f64,
    p99_us: f64,
    qps: f64,
    batches: usize,
    complete: usize,
    shed: u64,
    spawns: u64,
    /// The latest the scheduler handed an arrival to the clients, past
    /// its scheduled instant.
    late_max_us: f64,
}

fn build_router(corpus: &[BitString], degraded: bool) -> (ShardRouter, Option<Arc<FaultyShard>>) {
    let config = RouterConfig {
        deadline: DEADLINE,
        retry: RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_micros(200),
            max_elapsed: None,
            jitter: Some(0xE17),
        },
        max_in_flight: 256,
        health: HealthConfig {
            window: 16,
            degrade_errors: 2,
            quarantine_errors: 4,
            probe_cooldown: Duration::from_millis(100),
            latency_budget: None,
        },
    };
    let mut members: Vec<Arc<dyn Shard>> = Vec::new();
    let mut stores: Vec<Arc<StoreShard>> = Vec::new();
    let mut handle = None;
    for i in 0..SHARDS {
        let shard = Arc::new(StoreShard::new(TieredStore::new()));
        stores.push(Arc::clone(&shard));
        if degraded && i == 0 {
            // Transparent for now; the measured run installs the fault
            // script after setup (see `degrade`).
            let faulty = Arc::new(FaultyShard::new(shard, FaultScript::new()));
            handle = Some(Arc::clone(&faulty));
            members.push(faulty as Arc<dyn Shard>);
        } else {
            members.push(shard as Arc<dyn Shard>);
        }
    }
    let router = ShardRouter::new(members, config);
    for s in corpus {
        router.append(s.as_bitstr()).expect("clean setup appends");
    }
    // Compact the setup appends into sealed segments so the measured load
    // runs against the static batch kernels instead of an n-string hot
    // tail — the steady state a long-lived shard would actually serve from.
    for shard in &stores {
        shard.maintain_with(&Maintenance::default());
    }
    (router, handle)
}

/// Install the degraded-mode schedule: recurring *bursts* of faults (four
/// stalls past the deadline, then two hard failures, consecutively), keyed
/// relative to the ops already consumed by setup — the exact same schedule
/// every run. Bursts are clustered so the error window actually fills:
/// the shard trips to Quarantined, the burst passes, and the next
/// half-open probe heals it — the full state-machine journey under load.
fn degrade(faulty: &FaultyShard) {
    let base = faulty.ops_seen();
    let mut script = FaultScript::new();
    let mut burst = 10u64;
    while burst < 100_000 {
        for k in 0..4 {
            script = script.delay(base + burst + k, DEADLINE * 2);
        }
        script = script.fail(base + burst + 4).fail(base + burst + 5);
        burst += 120;
    }
    faulty.set_script(script);
}

/// Deterministic mixed batch: 70% Count, 20% Access, 10% CountPrefix.
fn make_batch(
    corpus: &[BitString],
    prefixes: &[BitString],
    docs: &[DocId],
    zipf: &Zipf,
    rng: &mut impl RngExt,
) -> Vec<Query> {
    (0..BATCH)
        .map(|_| {
            let pick: f64 = rng.random();
            if pick < 0.7 {
                Query::Count(corpus[zipf.sample(rng)].clone())
            } else if pick < 0.9 {
                Query::Access(docs[zipf.sample(rng) % docs.len()])
            } else {
                Query::CountPrefix(prefixes[zipf.sample(rng) % prefixes.len()].clone())
            }
        })
        .collect()
}

/// One scheduled arrival, sent from the scheduler to a client thread.
enum Arrival {
    Append(BitString),
    Query(Vec<Query>),
}

/// Offers `batches` arrivals at `rate_per_s`: this thread sleeps to each
/// scheduled instant and hands the arrival to a pool of `CLIENTS` client
/// threads, which run it and time it from that instant. A slow batch
/// holds one client, not the schedule.
fn run_load(
    router: &ShardRouter,
    corpus: &[BitString],
    prefixes: &[BitString],
    docs: &[DocId],
    batches: usize,
    rate_per_s: f64,
    seed: u64,
) -> RunStats {
    let zipf = Zipf::new(corpus.len(), 1.0);
    let mut rng = rng(seed);
    let interarrival = Duration::from_secs_f64(1.0 / rate_per_s);
    let (tx, rx) = mpsc::channel::<(Instant, Arrival)>();
    let rx = Mutex::new(rx);
    let mut late = Duration::ZERO;
    let start = Instant::now();
    let (mut latencies_us, complete) = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut latencies_us = Vec::new();
                    let mut complete = 0usize;
                    loop {
                        let next = rx.lock().expect("no client panics holding it").recv();
                        let Ok((scheduled, arrival)) = next else {
                            return (latencies_us, complete);
                        };
                        let done = match arrival {
                            Arrival::Append(s) => {
                                let _ = router.append(s.as_bitstr());
                                true
                            }
                            Arrival::Query(batch) => {
                                let result = router.query(&batch);
                                // Keep the optimizer honest about the answers.
                                std::hint::black_box(result.answers.iter().flatten().fold(
                                    0usize,
                                    |acc, a| {
                                        acc + match a {
                                            Answer::Count(c) | Answer::CountPrefix(c) => *c,
                                            Answer::Access(s) => s.as_ref().map_or(0, |b| b.len()),
                                        }
                                    },
                                ));
                                result.is_complete()
                            }
                        };
                        latencies_us.push(scheduled.elapsed().as_secs_f64() * 1e6);
                        complete += done as usize;
                    }
                })
            })
            .collect();
        for i in 0..batches {
            // ~10% of iterations are writes (appends of existing strings —
            // always admissible under the prefix-free invariant).
            let arrival = if rng.random::<f64>() < 0.1 {
                Arrival::Append(corpus[zipf.sample(&mut rng)].clone())
            } else {
                Arrival::Query(make_batch(corpus, prefixes, docs, &zipf, &mut rng))
            };
            let scheduled = start + interarrival * (i as u32);
            let now = Instant::now();
            if now < scheduled {
                std::thread::sleep(scheduled - now);
            }
            late = late.max(scheduled.elapsed());
            tx.send((scheduled, arrival))
                .expect("clients outlive the schedule");
        }
        drop(tx);
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .fold((Vec::with_capacity(batches), 0), |(mut all, n), (l, c)| {
                all.extend(l);
                (all, n + c)
            })
    });
    let wall = start.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |p: f64| {
        latencies_us[((latencies_us.len() as f64 * p) as usize).min(latencies_us.len() - 1)]
    };
    RunStats {
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        qps: (batches * BATCH) as f64 / wall,
        batches,
        complete,
        shed: router.shed_count(),
        spawns: router.spawn_count(),
        late_max_us: late.as_secs_f64() * 1e6,
    }
}

fn prefix_pool(raw: &[String]) -> Vec<BitString> {
    let coder = NinthBitCoder;
    let mut out: Vec<BitString> = Vec::new();
    for s in raw.iter().step_by(raw.len() / 16 + 1) {
        // Host prefix: up to the first '/' after the scheme.
        let cut = s
            .find("://")
            .map(|i| s[i + 3..].find('/').map_or(s.len(), |j| i + 3 + j))
            .unwrap_or(s.len());
        out.push(coder.encode_prefix(&s.as_bytes()[..cut]));
    }
    out
}

fn write_json(path: &str, mode: &str, results: &[Measurement]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"server_report\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"shards\": {SHARDS},\n"));
    s.push_str(&format!("  \"batch\": {BATCH},\n"));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"structure\": \"{}\", \"workload\": \"{}\", \"op\": \"{}\", \"n\": {}, \
             \"value\": {:.2}, \"unit\": \"{}\"}}{}\n",
            m.structure,
            m.workload,
            m.op,
            m.n,
            m.value,
            m.unit,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH_server.json");
    println!("wrote {path} ({} series)", results.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_server.json".to_string());
    let (n, batches): (usize, usize) = if quick {
        (20_000, 300)
    } else {
        (100_000, 2_000)
    };
    let mode = if quick { "quick" } else { "full" };

    let raw = url_log(n, UrlLogConfig::default(), 5);
    let coder = NinthBitCoder;
    let corpus: Vec<BitString> = raw.iter().map(|s| coder.encode(s.as_bytes())).collect();
    let prefixes = prefix_pool(&raw);

    println!("== sharded serving: open-loop Zipf load, clean vs degraded ==\n");
    let t = Table::new(
        &[
            "mode", "batches", "p50", "p99", "qps", "complete", "shed", "spawns", "late max",
        ],
        &[10, 9, 10, 11, 11, 10, 6, 7, 10],
    );
    let mut results: Vec<Measurement> = Vec::new();

    for (label, degraded) in [("clean", false), ("degraded", true)] {
        let (router, handle) = build_router(&corpus, degraded);
        // DocIds for Access traffic: sample local positions per shard.
        let docs: Vec<DocId> = (0..router.num_shards() as u32)
            .flat_map(|shard| {
                let len = router.shard_len(shard).unwrap_or(0);
                (0..len.min(64)).map(move |pos| DocId {
                    shard,
                    pos: pos as u64,
                })
            })
            .collect();
        if let Some(f) = &handle {
            degrade(f);
        }
        let stats = run_load(&router, &corpus, &prefixes, &docs, batches, RATE, 42);
        let health = router.health_report();
        t.row(&[
            label,
            &format!("{}", stats.batches),
            &format!("{:.0}us", stats.p50_us),
            &format!("{:.0}us", stats.p99_us),
            &format!("{:.0}", stats.qps),
            &format!(
                "{:.1}%",
                100.0 * stats.complete as f64 / stats.batches as f64
            ),
            &format!("{}", stats.shed),
            &format!("{}", stats.spawns),
            &format!("{:.0}us", stats.late_max_us),
        ]);
        if degraded {
            let h0 = &health[0];
            println!(
                "    shard 0 journey: trips {}, probes {}, recoveries {}, final {}",
                h0.trips, h0.probes, h0.recoveries, h0.state
            );
            if let Some(f) = &handle {
                println!("    faulted ops seen: {}", f.ops_seen());
            }
        }
        for (op, value, unit) in [
            ("p50", stats.p50_us, "us"),
            ("p99", stats.p99_us, "us"),
            ("qps", stats.qps, "ops/s"),
            (
                "complete_rate",
                stats.complete as f64 / stats.batches as f64,
                "fraction",
            ),
            ("spawns", stats.spawns as f64, "threads"),
            ("sched_late_max", stats.late_max_us, "us"),
        ] {
            results.push(Measurement {
                structure: "ShardRouter",
                workload: label,
                op,
                n,
                value,
                unit,
            });
        }
    }
    println!();
    write_json(&out_path, mode, &results);
}
