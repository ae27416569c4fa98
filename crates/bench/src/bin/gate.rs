//! `gate` — the wall-clock regression gate.
//!
//! Everything deterministic that CuLi's performance record asserts (zero
//! warm interpreter clones, the modeled GPU transfer and multi-device
//! ratios, the reply-tier hit rate, byte-identical sharded counters) is an
//! ordinary `cargo test`. This binary keeps only what a wall clock has to
//! measure: each metric below is timed by one interleaved loop that
//! alternates its arms sample by sample (so host drift hits every arm
//! alike), reduced to the median per-sample ratio of its two arms (or a
//! lone arm's median sample), and checked by one rule against the committed
//! `BENCH_pr*.json` record it was first measured in.
//!
//! | metric | record | bound |
//! |---|---|---|
//! | `pipelined_speedup_vs_rendezvous` | `BENCH_pr3.json` | ≥ 2.0 |
//! | `effects_speedup_vs_syntactic` | `BENCH_pr4.json` | ≥ max(base / 1.6, 2.0) |
//! | `computed_count_speedup_vs_syntactic` | `BENCH_pr4.json` | ≥ max(base / 1.6, 2.0) |
//! | `sched_overhead_ns` | `BENCH_pr5.json` | ≤ base × 1.6 |
//! | `fuel_overhead_pct` | `BENCH_pr6.json` | ≤ 2.0 |
//! | `hung_recovery_ms` | `BENCH_pr6.json` | ≤ max(base × 1.6, 500), every sample < 5000 |
//! | `multi_tenant_speedup` | `BENCH_pr7.json` | ≥ max(base / 1.6, 2.0) |
//! | `noisy_p99_ratio` | `BENCH_pr7.json` | ≤ max(base × 1.6, 3.0) |
//! | `zipf_speedup` | `BENCH_pr8.json` | ≥ max(base / 1.6, 5.0) |
//! | `miss_overhead` | `BENCH_pr8.json` | ≤ max(base × 1.6, 1.5) |
//!
//! Byte identity rides along: the multi-tenant arms check sampled
//! tenants against isolated sessions, and every cached-stream sample is
//! compared reply by reply with the uncached reference.
//!
//! ```text
//! cargo run --release -p culi-bench --bin gate -- out.json
//! ```
//!
//! Writes every fresh value with its baseline and bound to `out.json` and
//! exits non-zero if any bound is broken.

use culi_bench::jsonout::{Json, JsonValue};
use culi_bench::workload::{zipf_stream, CACHE_PRELUDE, FIB_DEFUN};
use culi_core::cost::FUEL_UNLIMITED;
use culi_core::fault::{FaultKind, FaultPlan, FaultSite};
use culi_core::{Interp, InterpConfig};
use culi_runtime::scheduler::{BatchScheduler, ExecQueue, Verdict};
use culi_runtime::{
    CacheConfig, CommandCache, CpuMode, CpuRepl, CpuReplConfig, Reply, ServerConfig, Session,
    SessionServer, TenantSessionConfig,
};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Regression band on committed baselines: a metric may drift by this
/// factor in its worse direction before the gate fails.
const BAND: f64 = 1.6;

/// Samples per arm for micro-measurements (each sample ≥ ~1 ms).
const SAMPLES: usize = 101;

/// Samples per arm for whole-workload runs (each sample tens to
/// hundreds of ms).
const RUNS: usize = 9;

const RECORDS: [(&str, &str); 6] = [
    ("BENCH_pr3.json", include_str!("../../../../BENCH_pr3.json")),
    ("BENCH_pr4.json", include_str!("../../../../BENCH_pr4.json")),
    ("BENCH_pr5.json", include_str!("../../../../BENCH_pr5.json")),
    ("BENCH_pr6.json", include_str!("../../../../BENCH_pr6.json")),
    ("BENCH_pr7.json", include_str!("../../../../BENCH_pr7.json")),
    ("BENCH_pr8.json", include_str!("../../../../BENCH_pr8.json")),
];

/// Runs every arm once per sample, alternating (the order flips each
/// sample), and returns each arm's samples. An arm reports its own sample
/// cost, so arms that time only part of their work, or report a
/// percentile, share the loop with plain timers (see [`per_call`]).
fn interleaved<const N: usize>(
    samples: usize,
    arms: [&mut dyn FnMut() -> f64; N],
) -> [Vec<f64>; N] {
    let mut values: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(samples));
    for s in 0..samples {
        for k in 0..N {
            let k = if s % 2 == 0 { k } else { N - 1 - k };
            values[k].push(arms[k]());
        }
    }
    values
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// `a ÷ b` for two interleaved arms: the median of the per-sample ratios,
/// so load that slows both arms of a sample cancels out.
fn ratio([a, b]: [Vec<f64>; 2]) -> f64 {
    median(a.iter().zip(&b).map(|(a, b)| a / b).collect())
}

/// A lone arm's cost: its median sample. With no partner arm, host load
/// is not cancelled, only its outliers are dropped.
fn lone([a]: [Vec<f64>; 1]) -> f64 {
    median(a)
}

/// An arm reporting nanoseconds per call of `f`, over a batch of calls
/// sized on first use to take about a millisecond.
fn per_call<O>(mut f: impl FnMut() -> O) -> impl FnMut() -> f64 {
    let mut batch = 0u64;
    move || {
        if batch == 0 {
            batch = 1;
            loop {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 22 {
                    break;
                }
                batch *= 2;
            }
        }
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        t.elapsed().as_nanos() as f64 / batch as f64
    }
}

/// The direction in which a metric improves.
#[derive(Clone, Copy, PartialEq)]
enum Better {
    Higher,
    Lower,
}

/// Where a metric's bound comes from.
#[derive(Clone, Copy)]
enum Bound {
    /// An absolute bound.
    Floor(f64),
    /// The committed baseline moved by [`BAND`] in the worse direction,
    /// but never past this absolute floor.
    Band(f64),
}

/// One gated metric.
struct Check {
    record: &'static str,
    key: &'static str,
    better: Better,
    fresh: f64,
    base: Option<f64>,
    bound: f64,
}

impl Check {
    /// The one gate rule: resolves `bound` against the committed record.
    fn new(
        record: &'static str,
        key: &'static str,
        better: Better,
        bound: Bound,
        fresh: f64,
    ) -> Self {
        let (base, bound) = match bound {
            Bound::Floor(floor) => (None, floor),
            Bound::Band(floor) => {
                let text = RECORDS.iter().find(|(r, _)| *r == record).expect(record).1;
                let base = JsonValue::parse(text)
                    .ok()
                    .and_then(|doc| doc.get(key).and_then(JsonValue::as_f64))
                    .unwrap_or_else(|| panic!("{record} has no {key}"));
                let moved = match better {
                    Better::Higher => (base / BAND).max(floor),
                    Better::Lower => (base * BAND).max(floor),
                };
                (Some(base), moved)
            }
        };
        Self {
            record,
            key,
            better,
            fresh,
            base,
            bound,
        }
    }

    fn ok(&self) -> bool {
        match self.better {
            Better::Higher => self.fresh >= self.bound,
            Better::Lower => self.fresh <= self.bound,
        }
    }

    fn relation(&self) -> &'static str {
        match self.better {
            Better::Higher => ">=",
            Better::Lower => "<=",
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("key", Json::Str(self.key.into())),
            ("record", Json::Str(self.record.into())),
            ("fresh", Json::Num(self.fresh)),
            (
                "baseline",
                self.base.map_or(Json::Str("none".into()), Json::Num),
            ),
            (
                "required",
                Json::Str(format!("{} {}", self.relation(), self.bound)),
            ),
            ("ok", Json::Bool(self.ok())),
        ])
    }
}

fn threaded(threads: usize, cache: Option<CommandCache>, prelude: &[&str]) -> CpuRepl {
    let mut repl = CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 17,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads },
            cache,
            ..Default::default()
        },
    );
    for line in prelude {
        assert!(repl.submit(line).unwrap().ok, "{line}");
    }
    repl
}

/// Per-command speedup of `submit_batch` over a `submit` loop on 8 warm
/// workers, for 32 copies of `section`.
fn batch_speedup(section: &str) -> f64 {
    let prelude = [FIB_DEFUN, "(setq c 3)", "(defun sq (x) (* x x))"];
    let batch = vec![section; 32];
    let mut looped = threaded(8, None, &prelude);
    let mut batched = threaded(8, None, &prelude);
    looped.submit(section).unwrap();
    batched.submit_batch(&batch).unwrap();
    let samples = interleaved(
        SAMPLES,
        [
            &mut per_call(|| {
                for s in &batch {
                    black_box(looped.submit(s).unwrap());
                }
            }),
            &mut per_call(|| batched.submit_batch(&batch).unwrap()),
        ],
    );
    ratio(samples)
}

/// A queue whose operations are pure bookkeeping: measures the batch
/// scheduler's own state machine.
struct NullQueue;

impl<'i> ExecQueue<'i> for NullQueue {
    type Staged = usize;
    type Barrier = ();
    type Run = Vec<usize>;

    fn max_run_len(&self) -> usize {
        16
    }

    fn pipeline_depth(&self) -> usize {
        2
    }

    fn classify_and_stage(
        &mut self,
        input: &'i str,
        slot: usize,
    ) -> culi_runtime::Result<Verdict<usize, ()>> {
        Ok(if input.starts_with('b') {
            Verdict::Barrier(())
        } else {
            Verdict::Stage(slot)
        })
    }

    fn dispatch(&mut self, run: Vec<usize>) -> culi_runtime::Result<Vec<usize>> {
        Ok(run)
    }

    fn collect(
        &mut self,
        run: Vec<usize>,
        replies: &mut [Option<Reply>],
    ) -> culi_runtime::Result<()> {
        for slot in run {
            replies[slot] = Some(Reply::default());
        }
        Ok(())
    }

    fn run_sequential(
        &mut self,
        _: &'i str,
        _: usize,
        _: &mut [Option<Reply>],
    ) -> culi_runtime::Result<()> {
        unreachable!("NullQueue never degrades")
    }

    fn run_barrier(
        &mut self,
        _: (),
        slot: usize,
        replies: &mut [Option<Reply>],
    ) -> culi_runtime::Result<()> {
        replies[slot] = Some(Reply::default());
        Ok(())
    }
}

/// Scheduler cost per command over 256 commands, one barrier in eight.
fn sched_overhead_ns() -> f64 {
    let sources: Vec<String> = (0..256)
        .map(|k| format!("{}{k}", if k % 8 == 7 { 'b' } else { 's' }))
        .collect();
    let inputs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let ns = lone(interleaved(
        SAMPLES,
        [&mut per_call(|| {
            BatchScheduler::submit_batch(&mut NullQueue, &inputs).unwrap()
        })],
    ));
    ns / inputs.len() as f64
}

/// Overhead of a finite fuel budget on `(fib 15)`, in percent. Both arms
/// drive the same interpreter, switching only its budget, so they run
/// identical work on an identical heap.
fn fuel_overhead_pct() -> f64 {
    let interp = RefCell::new(Interp::new(InterpConfig {
        arena_capacity: 1 << 17,
        ..Default::default()
    }));
    interp.borrow_mut().eval_str(FIB_DEFUN).unwrap();
    let fib15 = |fuel_budget: u64| {
        let interp = &interp;
        per_call(move || {
            let mut i = interp.borrow_mut();
            i.config.fuel_budget = fuel_budget;
            let out = i.eval_str("(fib 15)").unwrap();
            culi_core::gc::collect(&mut i, &[]);
            out
        })
    };
    let fueled = ratio(interleaved(
        SAMPLES,
        [&mut fib15(1_000_000), &mut fib15(FUEL_UNLIMITED)],
    ));
    (fueled - 1.0) * 100.0
}

/// Wall-clock ms of the command during which a scripted worker hang
/// fires: watchdog write-off at a 50 ms deadline, seat respawn and the
/// sequential re-run, ending in the correct successful reply.
fn hung_recovery_ms() -> f64 {
    let plan = FaultPlan::single(FaultSite::WorkerSection, FaultKind::Hang, 2);
    let mut repl = CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            mode: CpuMode::Threaded { threads: 2 },
            reply_deadline: Duration::from_millis(50),
            fault_plan: plan.clone(),
            ..Default::default()
        },
    );
    assert!(repl.submit(FIB_DEFUN).unwrap().ok);
    let mut recovery = None;
    // The hang fires at a fixed accept-event index; run sections until it
    // has, wherever sync messages land.
    for _ in 0..8 {
        let fired_before = plan.injected_count() > 0;
        let t = Instant::now();
        let reply = repl.submit("(||| 2 fib (10 11))").unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(reply.output, "(55 89)", "degraded submit must succeed");
        if !fired_before && plan.injected_count() > 0 {
            recovery = Some(ms);
        }
    }
    assert_eq!(plan.injected_count(), 1, "exactly one scripted injection");
    let ms = recovery.expect("the scripted hang never fired");
    assert!(
        ms < 5000.0,
        "hung-worker recovery must be prompt, took {ms:.0} ms"
    );
    ms
}

/// The per-tenant command stream: a definition, an env mutation, one
/// `|||` section (which forks a pool in the naive arm), scalar reads.
fn tenant_stream(t: usize) -> Vec<String> {
    vec![
        "(defun sq (x) (* x x))".to_string(),
        format!("(setq v {})", t % 50),
        "(||| 2 sq (2 3))".to_string(),
        "(+ v 9)".to_string(),
        "(list v v)".to_string(),
        "(* v 3)".to_string(),
    ]
}

fn tenant_cfg() -> TenantSessionConfig {
    TenantSessionConfig {
        arena_capacity: 1 << 13,
        ..Default::default()
    }
}

/// Naive serving: one full session (own interpreter and pool) per
/// tenant, served round-robin. Returns the serving wall time in ns;
/// session boot is untimed, the per-session pool fork is the cost.
fn serve_naive(sessions: usize) -> f64 {
    let spec = culi_gpu_sim::device::intel_e5_2620();
    let streams: Vec<Vec<String>> = (0..sessions).map(tenant_stream).collect();
    let mut pool: Vec<Session> = (0..sessions)
        .map(|_| Session::tenant(spec, &tenant_cfg()))
        .collect();
    let t0 = Instant::now();
    for k in 0..streams[0].len() {
        for (stream, session) in streams.iter().zip(pool.iter_mut()) {
            let reply = session.submit(&stream[k]).unwrap();
            assert!(reply.ok, "{}", reply.output);
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    for mut s in pool {
        s.shutdown();
    }
    ns
}

/// Served by one [`SessionServer`] in fair-share rounds. Returns the
/// serving wall time and the healthy tenants' p99 completion time, both
/// in ns. `noisy` admits one more tenant whose every command is a
/// runaway under a tight fuel budget. Three sampled tenants' replies are
/// checked against isolated sessions, untimed.
fn serve_server(sessions: usize, noisy: bool) -> (f64, f64) {
    let spec = culi_gpu_sim::device::intel_e5_2620();
    let streams: Vec<Vec<String>> = (0..sessions).map(tenant_stream).collect();
    let len = streams[0].len();
    let mut srv = SessionServer::new(
        spec,
        ServerConfig {
            queue_capacity: len,
            global_queue_capacity: (sessions + 1) * len,
            // A small quantum spreads each stream over several rounds, so
            // completion times have real percentile structure.
            quantum: 2,
            ..Default::default()
        },
    );
    let ids: Vec<_> = (0..sessions).map(|_| srv.admit(tenant_cfg())).collect();
    let noisy = noisy.then(|| {
        srv.admit(TenantSessionConfig {
            fuel_budget: 2_000,
            ..tenant_cfg()
        })
    });
    let sampled = [0, sessions / 2, sessions - 1];
    let mut sampled_replies: [Vec<Reply>; 3] = Default::default();
    let mut completions = Vec::with_capacity(sessions * len);
    let t0 = Instant::now();
    for k in 0..len {
        for (stream, id) in streams.iter().zip(&ids) {
            assert!(srv.enqueue(*id, &stream[k]).is_none(), "refused");
        }
        if let Some(noisy) = noisy {
            assert!(srv
                .enqueue(noisy, "(dotimes (j 1000000000) (* j j))")
                .is_none());
        }
    }
    loop {
        let round = srv.pump_round();
        if round.is_empty() {
            break;
        }
        let now = t0.elapsed().as_nanos() as f64;
        for (id, reply) in round {
            if Some(id) == noisy {
                assert!(!reply.ok, "runaways must abort");
                continue;
            }
            assert!(reply.ok, "{}", reply.output);
            completions.push(now);
            if let Some(s) = sampled.iter().position(|&t| ids[t] == id) {
                sampled_replies[s].push(reply);
            }
        }
    }
    let total = t0.elapsed().as_nanos() as f64;
    srv.shutdown();
    assert_eq!(completions.len(), sessions * len);
    for (replies, &t) in sampled_replies.iter().zip(&sampled) {
        let mut isolated = Session::tenant(spec, &tenant_cfg());
        assert_eq!(replies.len(), len);
        for (got, src) in replies.iter().zip(&streams[t]) {
            let want = isolated.submit(src).unwrap();
            assert_identical(&want, got, src);
        }
        isolated.shutdown();
    }
    completions.sort_by(f64::total_cmp);
    let p99 = completions[((completions.len() - 1) as f64 * 0.99).round() as usize];
    (total, p99)
}

/// Everything the paper model observes must match; only wall-clock and
/// modeled phase timings may differ.
fn assert_identical(want: &Reply, got: &Reply, context: &str) {
    assert_eq!(want.output, got.output, "{context}");
    assert_eq!(want.ok, got.ok, "{context}");
    assert_eq!(want.code, got.code, "{context}");
    assert_eq!(want.counters, got.counters, "{context}");
}

/// Uncached ÷ cached wall time of `stream` through 4-thread batch
/// sessions in 64-command chunks. Every sample's replies, on both arms,
/// must match the first uncached sample's reply by reply.
fn cache_speedup(stream: &[String]) -> f64 {
    let stream: Vec<&str> = stream.iter().map(String::as_str).collect();
    let reference: RefCell<Option<Vec<Reply>>> = RefCell::new(None);
    let arm = |cached: bool| {
        let stream = &stream;
        let reference = &reference;
        move || {
            let cache = cached.then(|| CommandCache::new(CacheConfig::default()));
            let mut repl = threaded(4, cache.clone(), CACHE_PRELUDE);
            let mut replies = Vec::with_capacity(stream.len());
            let t0 = Instant::now();
            for chunk in stream.chunks(64) {
                replies.extend(repl.submit_batch(chunk).unwrap());
            }
            let ns = t0.elapsed().as_nanos() as f64;
            match &*reference.borrow() {
                Some(want) => {
                    for (k, (w, g)) in want.iter().zip(&replies).enumerate() {
                        assert_identical(w, g, &format!("cached={cached} cmd {k}"));
                    }
                }
                None => {
                    assert!(!cached, "the uncached arm runs first");
                    for (k, reply) in replies.iter().enumerate() {
                        assert!(reply.ok, "cmd {k}: {}", reply.output);
                    }
                }
            }
            reference.borrow_mut().get_or_insert(replies);
            if let Some(cache) = cache {
                let config = CacheConfig::default();
                let budget = config.shared_byte_budget + config.reply_byte_budget;
                assert!(
                    cache.retained_bytes() <= budget,
                    "cache over its byte budget"
                );
            }
            ns
        }
    };
    ratio(interleaved(RUNS, [&mut arm(false), &mut arm(true)]))
}

fn main() {
    use Better::{Higher, Lower};
    use Bound::{Band, Floor};
    let Some(out_path) = std::env::args().nth(1) else {
        eprintln!("usage: gate OUT.json");
        std::process::exit(2);
    };

    let plain = batch_speedup("(||| 8 + (1 2 3 4 5 6 7 8) (1 2 3 4 5 6 7 8))");
    let list = batch_speedup("(||| 8 + (1 2 3 4 5 6 7 8) (list c c c c c c c c))");
    let count = batch_speedup("(||| (+ 4 4) sq (1 2 3 4 5 6 7 8))");
    let recovery = lone(interleaved(RUNS, [&mut hung_recovery_ms]));
    let tenants = ratio(interleaved(
        RUNS,
        [&mut || serve_naive(256), &mut || serve_server(256, false).0],
    ));
    let noisy = ratio(interleaved(
        RUNS,
        [&mut || serve_server(64, true).1, &mut || {
            serve_server(64, false).1
        }],
    ));
    // The 1024-command streams the cache has always been gated on.
    let zipf = cache_speedup(&zipf_stream(128, 1024));
    let distinct: Vec<String> = (0..1024)
        .map(|k| format!("(||| 2 plus ({k} {}) ({} 4))", k + 1, k % 9))
        .collect();
    let miss = 1.0 / cache_speedup(&distinct);
    let (sched, fuel) = (sched_overhead_ns(), fuel_overhead_pct());

    let checks = [
        (
            "BENCH_pr3.json",
            "pipelined_speedup_vs_rendezvous",
            Higher,
            Floor(2.0),
            plain,
        ),
        (
            "BENCH_pr4.json",
            "effects_speedup_vs_syntactic",
            Higher,
            Band(2.0),
            list,
        ),
        (
            "BENCH_pr4.json",
            "computed_count_speedup_vs_syntactic",
            Higher,
            Band(2.0),
            count,
        ),
        (
            "BENCH_pr5.json",
            "sched_overhead_ns",
            Lower,
            Band(0.0),
            sched,
        ),
        (
            "BENCH_pr6.json",
            "fuel_overhead_pct",
            Lower,
            Floor(2.0),
            fuel,
        ),
        (
            "BENCH_pr6.json",
            "hung_recovery_ms",
            Lower,
            Band(500.0),
            recovery,
        ),
        (
            "BENCH_pr7.json",
            "multi_tenant_speedup",
            Higher,
            Band(2.0),
            tenants,
        ),
        ("BENCH_pr7.json", "noisy_p99_ratio", Lower, Band(3.0), noisy),
        ("BENCH_pr8.json", "zipf_speedup", Higher, Band(5.0), zipf),
        ("BENCH_pr8.json", "miss_overhead", Lower, Band(1.5), miss),
    ]
    .map(|(record, key, better, bound, fresh)| Check::new(record, key, better, bound, fresh));

    for c in &checks {
        println!(
            "  {} {:<36} {:>10.3} {} {:<9.3} ({}{})",
            if c.ok() { "ok  " } else { "FAIL" },
            c.key,
            c.fresh,
            c.relation(),
            c.bound,
            c.record,
            c.base.map(|b| format!(": {b:.3}")).unwrap_or_default(),
        );
    }
    let failed = checks.iter().filter(|c| !c.ok()).count();
    let doc = Json::Obj(vec![
        ("band", Json::Num(BAND)),
        ("failed", Json::UInt(failed as u64)),
        (
            "metrics",
            Json::Arr(checks.iter().map(Check::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.pretty() + "\n").expect("write gate json");
    println!("wrote {out_path}");
    if failed > 0 {
        eprintln!("bench gate FAILED: {failed} metric(s) out of bounds");
        std::process::exit(1);
    }
}
