//! End-to-end benchmark of the sharded Wavelet Trie service.
//!
//! Drives `wt-server` → `wt-store` → `wavelet-trie` → `wt-bits` through
//! their public APIs only, checks every answer against an independent
//! oracle outside the timed intervals, and prints the metrics by name and
//! unit. `--trace 1` runs the same workload with spans recorded around
//! each layer's calls and prints the per-layer breakdown instead.
//!
//! Usage, from the repository root: `cargo run --release --manifest-path
//! wtbench/Cargo.toml -- --workload <url_serve|ints_scan|url_ingest>
//! --seed <n> --seconds <s> --trace <0|1>`. The last stdout line is the
//! JSON result; the lines before it give each metric's spread and sample
//! count, the provenance and the diagnostics.

mod layers;
mod oracle;
mod report;
mod stats;
mod trace;
mod workload;

use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use wt_server::{
    Answer, DocId, MissCause, Query, RouterConfig, Shard, ShardMiss, ShardRouter, StoreShard,
};
use wt_store::{Maintenance, MaintenanceReport, StoreConfig, TieredStore};
use wt_trie::BitString;
use wt_workloads::{rng, RngExt};

use layers::{Kernels, KINDS};
use oracle::Oracle;
use report::Metric;
use stats::{mean, Summary};
use trace::{Phases, TracedShard, Tracer, Window};
use workload::{Fresh, Inputs, Op, Spec, MAINTAIN_EVERY, PRIMING_PASSES, SHARDS};

const USAGE: &str =
    "usage: wtbench --workload <url_serve|ints_scan|url_ingest> --seed <n> --seconds <s> --trace <0|1>";

/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Sub-batches kept for the per-layer replay in a traced run.
const RECORD_BUDGET: usize = 400;
/// Set-ups in a run, at most: `setup_s` is their median. Set-up is
/// repeated only while the set-ups so far took less than `SETUP_BUDGET_S`
/// in all, so a workload that takes long to set up is set up once.
const SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 6.0;
/// Alternating open- and closed-loop rounds in a run.
const ROUNDS: usize = 10;
/// Throughput and the host's steal share are measured per window of this
/// length, and each latency sample is tagged with its window's steal share.
const WINDOW: Duration = Duration::from_millis(200);

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let spec = Spec::named(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Yields until `t` instead of sleeping. A send is then late by
/// microseconds rather than by a timer tick, and the generator's CPU never
/// idles: on a virtual machine, waking idle virtual CPUs for each batch
/// added about half to the batch latency and made it swing from run to
/// run. Yielding leaves the CPU to any other runnable thread.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// Everything a run has built: the inputs, the shards, the router and the
/// oracle's view of what the shards hold.
struct Service {
    inputs: Inputs,
    shards: Vec<Arc<StoreShard>>,
    router: ShardRouter,
    oracle: Oracle,
    /// Every acknowledged document, in append order.
    docs: Vec<DocId>,
    /// Appends per shard since its last maintenance pass.
    since_maint: [usize; SHARDS],
    tracer: Arc<Tracer>,
    trace: bool,
}

struct Setup {
    service: Service,
    gen_s: f64,
    shard_s: Vec<f64>,
}

/// One maintenance pass, under the tracer's step probe in a traced run.
fn maintain(shard: &StoreShard, tracer: &Tracer, trace: bool) -> MaintenanceReport {
    if trace {
        tracer.maintain(shard)
    } else {
        shard.maintain_with(&Maintenance::default())
    }
}

/// Set-up: make the corpus, partition it with `shard_for`, append each
/// part to its own `TieredStore`, wrap it in a `StoreShard` and maintain
/// it until sealed. Shards are built one after another, so each build is
/// a clean sample.
fn set_up(spec: Spec, seed: u64, trace: bool) -> Setup {
    let t = Instant::now();
    let inputs = Inputs::generate(spec, seed);
    let gen_s = t.elapsed().as_secs_f64();
    let tracer = Tracer::new(RECORD_BUDGET);
    let mut shards = Vec::new();
    let mut shard_s = Vec::new();
    for k in 0..SHARDS as u32 {
        let t = Instant::now();
        let mut store = TieredStore::with_config(StoreConfig {
            seal_at: usize::MAX,
            max_sealed: 4,
        });
        let mine: Vec<&BitString> = inputs
            .enc
            .iter()
            .zip(&inputs.placed)
            .filter(|(_, &p)| p == k)
            .map(|(e, _)| e)
            .collect();
        // On the write path the last strings arrive as the live service
        // would take them, a maintenance pass every `MAINTAIN_EVERY`
        // appends, so the run starts with the segment count it keeps.
        let primed = if spec.ingest {
            PRIMING_PASSES * MAINTAIN_EVERY
        } else {
            0
        };
        let (head, tail) = mine.split_at(mine.len().saturating_sub(primed));
        for e in head {
            store
                .append(e.as_bitstr())
                .expect("encoded corpus is prefix-free");
        }
        let shard = Arc::new(StoreShard::new(store));
        let report = maintain(&shard, &tracer, trace);
        assert!(report.is_clean(), "set-up maintenance failed: {report}");
        for part in tail.chunks(MAINTAIN_EVERY) {
            for e in part {
                shard
                    .append(e.as_bitstr())
                    .expect("encoded corpus is prefix-free");
            }
            let report = maintain(&shard, &tracer, trace);
            assert!(report.is_clean(), "set-up maintenance failed: {report}");
        }
        let snap = shard.snapshot();
        assert_eq!(
            snap.sealed_segments() + 1,
            snap.num_segments(),
            "set-up leaves every string sealed"
        );
        shard_s.push(t.elapsed().as_secs_f64());
        shards.push(shard);
    }
    let members: Vec<Arc<dyn Shard>> = shards
        .iter()
        .map(|s| {
            if trace {
                Arc::new(TracedShard {
                    inner: Arc::clone(s),
                    tracer: Arc::clone(&tracer),
                }) as Arc<dyn Shard>
            } else {
                Arc::clone(s) as Arc<dyn Shard>
            }
        })
        .collect();
    let router = ShardRouter::new(
        members,
        RouterConfig {
            // Generous: a miss should mean a broken service, not a slow host.
            deadline: Duration::from_secs(2),
            ..RouterConfig::default()
        },
    );
    let oracle = Oracle::load(inputs.raw.clone(), &inputs.placed, SHARDS);
    let docs = inputs.setup_docs();
    Setup {
        service: Service {
            inputs,
            shards,
            router,
            oracle,
            docs,
            since_maint: [0; SHARDS],
            tracer,
            trace,
        },
        gen_s,
        shard_s,
    }
}

enum Event {
    Batch(Vec<Op>, Vec<Option<Answer>>),
    Append(Fresh, Result<DocId, ShardMiss>),
}

#[derive(Default)]
struct OpenLoop {
    events: Vec<Event>,
    /// µs from the scheduled send, for untraced and traced batches.
    batch_us: Vec<f64>,
    /// For each `batch_us` sample, the host's steal share over the
    /// `WINDOW` of the schedule it was sent in.
    batch_steal: Vec<f64>,
    traced_us: Vec<f64>,
    append_us: Vec<f64>,
    append_steal: Vec<f64>,
    lag_us: Vec<f64>,
    windows: Vec<Window>,
    misses: Vec<ShardMiss>,
}

impl OpenLoop {
    /// Checks `part`'s events against the oracle and adds its samples.
    fn absorb(&mut self, part: OpenLoop, svc: &mut Service, tally: &mut Tally) {
        svc.check_events(part.events, tally);
        self.batch_us.extend(part.batch_us);
        self.batch_steal.extend(part.batch_steal);
        self.traced_us.extend(part.traced_us);
        self.append_us.extend(part.append_us);
        self.append_steal.extend(part.append_steal);
        self.lag_us.extend(part.lag_us);
        self.windows.extend(part.windows);
        self.misses.extend(part.misses);
    }
}

/// Closed-loop throughput, one value per `WINDOW`.
#[derive(Default)]
struct ClosedLoop {
    /// Queries answered per second.
    wall: Vec<f64>,
    /// Queries answered per CPU-second of the whole process. A CPU the
    /// hypervisor lends to another guest, or a thread waiting for a CPU,
    /// adds no CPU time, so on a shared host this moves far less than the
    /// per-second figure while it still counts every instruction the
    /// router, the shards and the kernels spend.
    per_cpu: Vec<f64>,
    /// The host's steal share over each window.
    steal: Vec<f64>,
}

impl ClosedLoop {
    fn absorb(&mut self, part: ClosedLoop) {
        self.wall.extend(part.wall);
        self.per_cpu.extend(part.per_cpu);
        self.steal.extend(part.steal);
    }
}

/// Tally of checked operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    missed: u64,
    wrong: u64,
}

/// Tallies `answers` against `expected`: `None` is a miss, a different
/// answer is wrong. Returns the number answered correctly.
fn tally_answers(answers: &[Option<Answer>], expected: &[Answer], tally: &mut Tally) -> usize {
    tally.attempted += expected.len() as u64;
    let mut ok = 0;
    for (got, want) in answers.iter().zip(expected) {
        match got {
            None => tally.missed += 1,
            Some(a) if a != want => tally.wrong += 1,
            Some(_) => ok += 1,
        }
    }
    ok
}

impl Service {
    fn expected(&self, op: Op) -> Answer {
        let inputs = &self.inputs;
        match op {
            Op::Count(i) => Answer::Count(self.oracle.count(&inputs.raw[i])),
            Op::Prefix(j) => Answer::CountPrefix(self.oracle.count_prefix(&inputs.prefix_raw[j])),
            Op::Access(doc) => Answer::Access(
                self.oracle
                    .doc(doc)
                    .map(|i| inputs.spec.codec().encode(self.oracle.raw(i))),
            ),
        }
    }

    fn check(&self, ops: &[Op], answers: &[Option<Answer>], tally: &mut Tally) {
        let expected: Vec<Answer> = ops.iter().map(|&op| self.expected(op)).collect();
        tally_answers(answers, &expected, tally);
    }

    /// Open loop from one generator thread: arrivals at `rate` per second
    /// for `secs`, each an append with probability `append_share`, else a
    /// query batch. Latency runs from the scheduled send. In a traced run
    /// every other arrival is traced. A maintenance thread runs
    /// `maintain_with` on a shard after every `MAINTAIN_EVERY` of its
    /// appends, as a live service would.
    fn open_loop(&mut self, rate: f64, secs: f64, append_share: f64, seed: u64) -> OpenLoop {
        let mut out = OpenLoop::default();
        let mut r = rng(seed);
        let interval = Duration::from_secs_f64(1.0 / rate);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<usize>();
            let (shards, tracer, trace) = (&self.shards, &self.tracer, self.trace);
            let worker = scope.spawn(move || {
                for k in rx {
                    maintain(&shards[k], tracer, trace);
                }
            });
            let start = Instant::now() + Duration::from_millis(1);
            let end = start + Duration::from_secs_f64(secs);
            let (mut window_end, mut ticks) = (start + WINDOW, report::cpu_ticks());
            // Tags the batches and appends sent since the last window
            // closed with the steal share of that window.
            let mut close_window = |out: &mut OpenLoop| {
                let now = report::cpu_ticks();
                let steal = report::steal_share(ticks, now).unwrap_or(0.0);
                out.batch_steal.resize(out.batch_us.len(), steal);
                out.append_steal.resize(out.append_us.len(), steal);
                ticks = now;
            };
            for i in 0u32.. {
                let scheduled = start + interval * i;
                if scheduled >= end {
                    break;
                }
                if scheduled >= window_end {
                    close_window(&mut out);
                    while scheduled >= window_end {
                        window_end += WINDOW;
                    }
                }
                let traced = self.trace && i % 2 == 0;
                if r.random::<f64>() < append_share {
                    let fresh = self.inputs.fresh(&mut r, i as usize);
                    wait_until(scheduled);
                    let sent = Instant::now();
                    self.tracer.set(traced);
                    let result = self.router.append(fresh.enc.as_bitstr());
                    let done = Instant::now();
                    self.tracer.set(false);
                    out.lag_us.push(us(sent - scheduled));
                    out.append_us.push(us(done - scheduled));
                    if let Ok(doc) = result {
                        self.docs.push(doc);
                        let k = doc.shard as usize;
                        self.since_maint[k] += 1;
                        if self.since_maint[k] == MAINTAIN_EVERY {
                            self.since_maint[k] = 0;
                            tx.send(k).expect("maintenance thread outlives the loop");
                        }
                    }
                    out.events.push(Event::Append(fresh, result));
                } else {
                    let ops = self.inputs.batch(&mut r, &self.docs);
                    let queries: Vec<Query> = ops.iter().map(|&op| self.inputs.query(op)).collect();
                    wait_until(scheduled);
                    let entry = Instant::now();
                    self.tracer.set(traced);
                    let result = self.router.query(&queries);
                    let exit = Instant::now();
                    self.tracer.set(false);
                    out.lag_us.push(us(entry - scheduled));
                    if traced {
                        out.traced_us.push(us(exit - scheduled));
                        out.windows.push(Window {
                            scheduled,
                            entry,
                            exit,
                        });
                    } else {
                        out.batch_us.push(us(exit - scheduled));
                    }
                    out.misses.extend(result.missing);
                    out.events.push(Event::Batch(ops, result.answers));
                }
            }
            close_window(&mut out);
            drop(tx);
            worker.join().expect("maintenance thread does not panic");
        });
        out
    }

    /// Replays the loop's events against the oracle in send order: batches
    /// are checked against the state their appends had reached.
    fn check_events(&mut self, events: Vec<Event>, tally: &mut Tally) {
        for ev in events {
            match ev {
                Event::Batch(ops, answers) => self.check(&ops, &answers, tally),
                Event::Append(fresh, result) => {
                    tally.attempted += 1;
                    match result {
                        Ok(doc) => self.oracle.append(fresh.raw, doc),
                        Err(_) => tally.missed += 1,
                    }
                }
            }
        }
    }

    /// Closed loop: `CLIENTS` threads each cycling through a pool of
    /// pre-made batches for `secs`. Returns the queries answered in each
    /// `WINDOW` of the run, per second and per CPU-second the process
    /// used, so one stall moves one window only.
    fn closed_loop(&self, secs: f64, seed: u64, tally: &mut Tally) -> ClosedLoop {
        let pool_len = (16_384 / self.inputs.spec.batch).max(16);
        let pools: Vec<Vec<(Vec<Op>, Vec<Query>)>> = (0..CLIENTS)
            .map(|c| {
                let mut r = rng(seed ^ (c as u64 + 1) << 32);
                (0..pool_len)
                    .map(|_| {
                        let ops = self.inputs.batch(&mut r, &self.docs);
                        let q = ops.iter().map(|&op| self.inputs.query(op)).collect();
                        (ops, q)
                    })
                    .collect()
            })
            .collect();
        let barrier = Barrier::new(CLIENTS + 1);
        let windows = (secs / WINDOW.as_secs_f64()).floor().max(1.0) as usize;
        let (start, cpu_s, ticks, results) = std::thread::scope(|scope| {
            let clients: Vec<_> = pools
                .iter()
                .map(|pool| {
                    let (router, barrier) = (&self.router, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let end = Instant::now() + Duration::from_secs_f64(secs);
                        let mut results = Vec::new();
                        for (p, (_, queries)) in pool.iter().enumerate().cycle() {
                            let sent = Instant::now();
                            if sent >= end {
                                break;
                            }
                            let answers = router.query(queries).answers;
                            results.push((sent, Instant::now(), p, answers));
                        }
                        results
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            // The process's CPU time and the host's ticks at each window
            // boundary.
            let mut cpu_s = vec![report::process_cpu_s()];
            let mut ticks = vec![report::cpu_ticks()];
            for w in 1..=windows {
                let boundary = start + WINDOW * w as u32;
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                cpu_s.push(report::process_cpu_s());
                ticks.push(report::cpu_ticks());
            }
            let results: Vec<_> = clients
                .into_iter()
                .map(|c| c.join().expect("client thread does not panic"))
                .collect();
            (start, cpu_s, ticks, results)
        });
        let window = WINDOW.as_secs_f64();
        let mut answered = vec![0.0f64; windows];
        for (pool, results) in pools.iter().zip(results) {
            let expected: Vec<Vec<Answer>> = pool
                .iter()
                .map(|(ops, _)| ops.iter().map(|&op| self.expected(op)).collect())
                .collect();
            for (sent, done, p, answers) in results {
                let ok = tally_answers(&answers, &expected[p], tally);
                // Spread the batch's answers evenly over the time it was in
                // flight, so a window is not credited a whole batch at once.
                let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64() / window;
                let (a, b) = (at(sent), at(done).max(at(sent) + 1e-9));
                for (w, slot) in answered.iter_mut().enumerate() {
                    let overlap = (b.min(w as f64 + 1.0) - a.max(w as f64)).max(0.0);
                    *slot += ok as f64 * overlap / (b - a);
                }
            }
        }
        ClosedLoop {
            wall: answered.iter().map(|a| a / window).collect(),
            per_cpu: answered
                .iter()
                .zip(cpu_s.windows(2))
                .map(|(a, c)| a / (c[1] - c[0]))
                .collect(),
            steal: ticks
                .windows(2)
                .map(|t| report::steal_share(t[0], t[1]).unwrap_or(0.0))
                .collect(),
        }
    }

    /// Reads back every document appended after set-up, by the `DocId`
    /// its append returned, and counts each appended string.
    fn check_appended(&self, first: usize, tally: &mut Tally) {
        let ops: Vec<Op> = self.docs[first..].iter().map(|&d| Op::Access(d)).collect();
        for chunk in ops.chunks(256) {
            let queries: Vec<Query> = chunk.iter().map(|&op| self.inputs.query(op)).collect();
            let answers = self.router.query(&queries).answers;
            self.check(chunk, &answers, tally);
            let counts: Vec<(Query, Answer)> = chunk
                .iter()
                .filter_map(|op| match op {
                    Op::Access(d) => self.oracle.doc(*d),
                    _ => None,
                })
                .map(|i| {
                    let raw = self.oracle.raw(i);
                    let enc = self.inputs.spec.codec().encode(raw);
                    (Query::Count(enc), Answer::Count(self.oracle.count(raw)))
                })
                .collect();
            let (queries, expected): (Vec<Query>, Vec<Answer>) = counts.into_iter().unzip();
            tally_answers(&self.router.query(&queries).answers, &expected, tally);
        }
    }

    fn strings(&self) -> usize {
        self.shards.iter().map(|s| s.snapshot().len()).sum()
    }

    fn bits_per_str(&self) -> f64 {
        use wt_bits::SpaceUsage;
        let bits: usize = self.shards.iter().map(|s| s.snapshot().size_bits()).sum();
        bits as f64 / self.strings() as f64
    }
}

/// Warm caches and lazy set-up before anything is timed.
fn warm_up(svc: &Service, seed: u64) {
    let mut r = rng(seed);
    let end = Instant::now() + Duration::from_millis(300);
    while Instant::now() < end {
        let ops = svc.inputs.batch(&mut r, &svc.docs);
        let queries: Vec<Query> = ops.iter().map(|&op| svc.inputs.query(op)).collect();
        std::hint::black_box(svc.router.query(&queries));
    }
}

fn e2e_metrics(setup: Summary, cl: &ClosedLoop, ol: &OpenLoop, bits_per_str: f64) -> Vec<Metric> {
    vec![
        Metric::median("setup_s", "s", setup),
        Metric::quiet("qps_per_cpu", "ops/cpu-s", &cl.per_cpu, &cl.steal),
        Metric::quiet("batch_p50_us", "us", &ol.batch_us, &ol.batch_steal),
        Metric::plain("bits_per_str", "bits", bits_per_str),
    ]
}

/// Checks that the critical-path phase medians add up to the median time
/// the router took (entry to return).
fn phase_check(phases: &[Phases]) -> String {
    let p50 = |f: fn(&Phases) -> f64| Summary::of(phases.iter().map(f).collect()).p50;
    let sum = p50(|p| p.dispatch_us) + p50(|p| p.execute_us) + p50(|p| p.gather_us);
    let router = p50(|p| p.router_us);
    format!(
        "# critical path: dispatch + execute + gather medians {sum:.1} us, router median \
         {router:.1} us, ratio {:.4} (n={})",
        sum / router,
        phases.len()
    )
}

/// Open-loop figures too unsteady from run to run on a shared 2-vCPU host
/// to gate on: the 99th percentiles and the append median. They are
/// diagnostics, printed in every run.
fn diagnostic_metrics(ol: &OpenLoop) -> Vec<Metric> {
    let mut m = vec![Metric::quiet(
        "append_p50_us",
        "us",
        &ol.append_us,
        &ol.append_steal,
    )];
    m.extend(
        [
            ("batch_p99_us", &ol.batch_us),
            ("append_p99_us", &ol.append_us),
            ("gen_lag_us_p99", &ol.lag_us),
        ]
        .into_iter()
        .map(|(name, samples)| Metric::tail(name, "us", Summary::of(samples.clone()))),
    );
    m
}

fn layer_metrics(
    svc: &Service,
    ol: &OpenLoop,
    phases: &[Phases],
    kernels: &Kernels,
    hot_tail: &[f64],
    segments: &[f64],
    seed: u64,
) -> Vec<Metric> {
    let misses = &ol.misses;
    let col = |f: fn(&Phases) -> f64| Summary::of(phases.iter().map(f).collect());
    let (queue, dispatch, execute, gather) = (
        col(|p| p.queue_us),
        col(|p| p.dispatch_us),
        col(|p| p.execute_us),
        col(|p| p.gather_us),
    );
    let traced = Summary::of(ol.traced_us.clone());
    let untraced = Summary::of(ol.batch_us.clone());
    let cause = |f: fn(&MissCause) -> bool| misses.iter().filter(|m| f(&m.cause)).count() as f64;
    let mut m = vec![
        Metric::median("server.queue_us", "us", queue),
        Metric::median("server.dispatch_us", "us", dispatch),
        Metric::median("server.execute_us", "us", execute),
        Metric::median("server.gather_us", "us", gather),
        Metric::median(
            "server.router_self_frac",
            "fraction",
            col(|p| p.router_self_frac),
        ),
        Metric::plain(
            "server.fanout_mean",
            "count",
            mean(&phases.iter().map(|p| p.fanout as f64).collect::<Vec<_>>()),
        ),
        Metric::plain(
            "server.ops_per_execute_mean",
            "count",
            phases.iter().map(|p| p.ops).sum::<usize>() as f64
                / phases.iter().map(|p| p.fanout).sum::<usize>().max(1) as f64,
        ),
        Metric::plain("server.shed", "count", svc.router.shed_count() as f64),
        Metric::plain(
            "server.misses.deadline",
            "count",
            cause(|c| *c == MissCause::DeadlineExpired),
        ),
        Metric::plain(
            "server.misses.quarantined",
            "count",
            cause(|c| *c == MissCause::Quarantined),
        ),
        Metric::plain(
            "server.misses.failed",
            "count",
            cause(|c| matches!(c, MissCause::Failed(_) | MissCause::Panicked(_))),
        ),
        Metric::plain(
            "server.breaker_trips",
            "count",
            svc.router
                .health_report()
                .iter()
                .map(|h| h.trips)
                .sum::<u64>() as f64,
        ),
        Metric::median(
            "server.append_us",
            "us",
            Summary::of(svc.tracer.append_us()),
        ),
        Metric::plain("store.hot_tail_len_mean", "count", mean(hot_tail)),
        Metric::plain("store.segments_mean", "count", mean(segments)),
    ];
    for (k, kind) in KINDS.iter().enumerate() {
        m.push(Metric::median(
            &format!("store.kernel_ns_per_op.{kind}"),
            "ns",
            Summary::of(kernels.store_ns[k].clone()),
        ));
    }
    for (k, kind) in KINDS.iter().enumerate() {
        m.push(Metric::median(
            &format!("store.merge_overhead_x.{kind}"),
            "ratio",
            Summary::of(kernels.merge_x[k].clone()),
        ));
    }
    let maint = svc.tracer.maint();
    let flat = |f: fn(&trace::MaintSample) -> &Vec<f64>| {
        Summary::of(maint.iter().flat_map(|s| f(s).iter().copied()).collect())
    };
    m.push(Metric::median(
        "store.maint_ms",
        "ms",
        Summary::of(maint.iter().map(|s| s.total_ms).collect()),
    ));
    m.push(Metric::median(
        "store.freeze_ms",
        "ms",
        flat(|s| &s.freeze_ms),
    ));
    m.push(Metric::median(
        "store.merge_ms",
        "ms",
        flat(|s| &s.merge_ms),
    ));
    m.push(Metric::plain(
        "store.sealed",
        "count",
        maint.iter().map(|s| s.sealed).sum::<usize>() as f64,
    ));
    m.push(Metric::plain(
        "store.merged",
        "count",
        maint.iter().map(|s| s.merged).sum::<usize>() as f64,
    ));
    let trie_ns: Vec<Summary> = (0..3)
        .map(|k| Summary::of(kernels.trie_ns[k].clone()))
        .collect();
    for (k, kind) in KINDS.iter().enumerate() {
        m.push(Metric::median(
            &format!("trie.ns_per_op.{kind}"),
            "ns",
            trie_ns[k],
        ));
    }
    // h̃ over every segment of every shard: node-bitvector bits per string.
    let (mut bv_bits, mut strings) = (0usize, 0usize);
    for shard in &svc.shards {
        let snap = shard.snapshot();
        for i in 0..snap.num_segments() {
            bv_bits += snap.segment(i).total_bitvector_bits();
            strings += snap.segment(i).seq_len();
        }
    }
    let avg_height = bv_bits as f64 / strings.max(1) as f64;
    m.push(Metric::plain("trie.avg_height", "levels", avg_height));
    let distinct: Vec<(BitString, usize)> = svc
        .oracle
        .distinct()
        .into_iter()
        .map(|(raw, c)| (svc.inputs.spec.codec().encode(raw), c))
        .collect();
    let density = layers::trie_density(&distinct);
    drop(distinct);
    let rank = layers::rank_chain(bv_bits, density, seed, 200_000, 7);
    m.push(Metric {
        detail: format!(
            "p25 {:.4} p75 {:.4} n={} ({} bits at density {:.3})",
            rank.p25, rank.p75, rank.n, bv_bits, density
        ),
        ..Metric::plain("bits.rank_ns", "ns", rank.p50)
    });
    m.push(Metric::plain(
        "bits.rank_share",
        "fraction",
        rank.p50 * avg_height / trie_ns[0].p50,
    ));
    m.push(Metric {
        detail: format!(
            "traced p50 {:.1} us n={}, untraced p50 {:.1} us n={}",
            traced.p50, traced.n, untraced.p50, untraced.n
        ),
        ..Metric::plain(
            "trace_overhead_frac",
            "fraction",
            traced.p50 / untraced.p50 - 1.0,
        )
    });
    m
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wtbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let spec = args.spec;
    let secs = args.seconds;
    println!(
        "# wtbench workload={} seed={} seconds={} trace={}",
        spec.name, args.seed, secs, args.trace as u8
    );

    // Set up again, each time anew, while that is cheap; the run serves
    // from the last set-up.
    let mut setups = Vec::new();
    let mut svc = loop {
        let Setup {
            service,
            gen_s,
            shard_s,
        } = set_up(spec, args.seed, args.trace);
        let shard_list: Vec<String> = shard_s.iter().map(|s| format!("{s:.3}")).collect();
        println!(
            "# set-up {}: corpus {gen_s:.3} s, shard builds [{}] s",
            setups.len() + 1,
            shard_list.join(", ")
        );
        setups.push(gen_s + shard_s.iter().sum::<f64>());
        if setups.len() == SETUPS || setups.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break service;
        }
    };
    let setup_s = Summary::of(setups);
    let n0 = svc.docs.len();
    warm_up(&svc, args.seed ^ 0x5741);

    let cpu_at_start = report::cpu_ticks();
    let mut tally = Tally::default();
    // Shares of --seconds: open loop, closed loop, closing append phase.
    // The open and closed loops alternate over `ROUNDS` rounds, so a slow
    // spell of the host falls on part of each rather than all of one.
    let (open_s, closed_s, append_s) = if spec.ingest {
        (0.7 * secs, 0.3 * secs, 0.0)
    } else {
        (0.55 * secs, 0.35 * secs, 0.1 * secs)
    };
    let share = if spec.ingest { 0.5 } else { 0.0 };
    let mut ol = OpenLoop::default();
    let mut cl = ClosedLoop::default();
    for round in 0..ROUNDS as u64 {
        let seed = args.seed ^ round << 40;
        let part = svc.open_loop(spec.rate, open_s / ROUNDS as f64, share, seed ^ 0x0BE7);
        ol.absorb(part, &mut svc, &mut tally);
        if !args.trace {
            let part = svc.closed_loop(closed_s / ROUNDS as f64, seed ^ 0xC105, &mut tally);
            cl.absorb(part);
        }
    }
    if !spec.ingest {
        let ap = svc.open_loop(spec.append_rate, append_s, 1.0, args.seed ^ 0xA99D);
        ol.absorb(ap, &mut svc, &mut tally);
    }

    let spans = svc.tracer.take_spans();
    let recorded = svc.tracer.take_recorded();
    let phases: Vec<Phases> = trace::attribute(&ol.windows, &spans)
        .into_iter()
        .flatten()
        .collect();
    let kernels = layers::replay(&recorded, 3);
    tally.wrong += kernels.mismatches as u64;
    let tails: Vec<f64> = recorded
        .iter()
        .map(|r| {
            let s = &r.snapshot;
            s.segment(s.num_segments() - 1).seq_len() as f64
        })
        .collect();
    let segments: Vec<f64> = recorded
        .iter()
        .map(|r| r.snapshot.num_segments() as f64)
        .collect();
    drop(recorded);

    svc.check_appended(n0, &mut tally);

    let mut metrics = if args.trace {
        layer_metrics(&svc, &ol, &phases, &kernels, &tails, &segments, args.seed)
    } else {
        e2e_metrics(setup_s, &cl, &ol, svc.bits_per_str())
    };
    // A healthy run answers everything, so the miss fraction is 0 and is
    // no end-to-end metric; the result line carries it as failed/attempted.
    let miss_frac = tally.missed as f64 / tally.attempted.max(1) as f64;
    let mut diagnostics = diagnostic_metrics(&ol);
    if args.trace {
        println!("{}", phase_check(&phases));
        metrics.push(Metric::plain("server.miss_frac", "fraction", miss_frac));
        metrics.extend(diagnostics);
    } else {
        // Queries per wall-clock second is what a client sees, but on a
        // shared host it follows the neighbours' load more than the
        // program: a diagnostic beside `qps_per_cpu`.
        diagnostics.push(Metric::quiet("qps", "ops/s", &cl.wall, &cl.steal));
        report::print_metrics(&diagnostics);
    }
    let steal = report::steal_share(cpu_at_start, report::cpu_ticks());

    println!(
        "# provenance {{\"commit\": {}, \"source_fnv\": {}, \"nproc\": {}, \"llc_bytes\": {}, \
         \"seed\": {}, \"workload\": {}, \"shards\": {}, \"strings_setup\": {}, \"strings_end\": {}, \
         \"batch\": {}, \"rate_per_s\": {}, \"append_rate_per_s\": {}, \"seconds\": {}, \
         \"host_steal_frac\": {}}}",
        report::json_str(&report::commit()),
        report::json_str(&report::source_fingerprint(&["crates", "wtbench/src"])),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report::llc_bytes(),
        args.seed,
        report::json_str(spec.name),
        SHARDS,
        n0,
        svc.strings(),
        spec.batch,
        spec.rate,
        spec.append_rate,
        secs,
        report::json_num(steal.unwrap_or(-1.0)),
    );
    println!(
        "# wrong_answers {}, missed {}, attempted {}, miss_frac {} fraction",
        tally.wrong, tally.missed, tally.attempted, miss_frac
    );
    report::print_metrics(&metrics);
    let correct = tally.wrong == 0;
    println!(
        "{}",
        report::result_line(correct, tally.attempted, tally.missed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
