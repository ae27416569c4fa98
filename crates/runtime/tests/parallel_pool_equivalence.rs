//! Value-equivalence of the persistent pooled `|||` backend against the
//! sequential reference across randomized multi-section programs: definitions and `setq`s
//! between sections, worker errors, short-list errors, and nested `|||`
//! inside workers. Every statement's printed output — including error
//! text and failing-worker indices — must agree on both backends.
//!
//! Also home of the PR acceptance check: a warm pool runs 64 sections of
//! 8 jobs with **zero** whole-interpreter clones.

use culi_core::{Interp, InterpConfig};
use culi_runtime::{CpuMode, CpuRepl, CpuReplConfig};
use proptest::prelude::*;

const PRELUDE: &[&str] = &[
    "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
    "(defun plus (a b) (+ a b))",
    "(defun addg (x) (+ x g))",
    "(defun fibj (x) (fib (mod x 8)))",
    "(defun boom (x) (/ 100 x))",
    "(defun nest (x) (||| 2 plus (list x g) (3 4)))",
    "(setq g 1)",
];

/// One statement of a generated program.
#[derive(Debug, Clone)]
enum Stmt {
    /// `(setq g V)` between sections — must reach warm workers.
    SetG(i64),
    /// Redefine `addg` between sections — replayed defuns must win.
    Redef(bool),
    /// A `|||` section over one of the prelude functions.
    Section { func: u8, n: u8, args: Vec<i64> },
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (-100i64..100).prop_map(Stmt::SetG),
        any::<bool>().prop_map(Stmt::Redef),
        (0u8..5, 1u8..6, prop::collection::vec(-8i64..8, 0..8))
            .prop_map(|(func, n, args)| Stmt::Section { func, n, args }),
    ]
}

fn render(s: &Stmt) -> String {
    match s {
        Stmt::SetG(v) => format!("(setq g {v})"),
        Stmt::Redef(add) => {
            let op = if *add { "+" } else { "-" };
            format!("(defun addg (x) ({op} x g))")
        }
        Stmt::Section { func, n, args } => {
            let list: Vec<String> = args.iter().map(i64::to_string).collect();
            let list = list.join(" ");
            match func {
                // Two argument lists (the second long enough on purpose:
                // short-list coverage comes from the first).
                0 => {
                    let second: Vec<String> = (0..*n).map(|i| i.to_string()).collect();
                    format!("(||| {n} plus ({list}) ({}))", second.join(" "))
                }
                1 => format!("(||| {n} addg ({list}))"),
                2 => format!("(||| {n} fibj ({list}))"),
                // boom divides by its argument: zeros → worker errors.
                3 => format!("(||| {n} boom ({list}))"),
                // nested ||| inside each worker, reading the global g.
                _ => format!("(||| {n} nest ({list}))"),
            }
        }
    }
}

fn small_interp() -> Interp {
    Interp::new(InterpConfig {
        arena_capacity: 1 << 16,
        ..Default::default()
    })
}

fn threaded_repl(threads: usize) -> CpuRepl {
    CpuRepl::launch(
        culi_gpu_sim::device::intel_e5_2620(),
        CpuReplConfig {
            interp: InterpConfig {
                arena_capacity: 1 << 16,
                ..Default::default()
            },
            mode: CpuMode::Threaded { threads },
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pooled backend is value-identical (outputs *and* error text) to
    /// the sequential reference over whole randomized programs.
    #[test]
    fn pooled_threaded_matches_sequential(stmts in prop::collection::vec(stmt(), 1..10)) {
        let mut reference = small_interp();
        let mut pooled = threaded_repl(3);

        for line in PRELUDE {
            reference.eval_str(line).unwrap();
            pooled.submit(line).unwrap();
        }
        for (k, s) in stmts.iter().enumerate() {
            let src = render(s);
            let seq = match reference.eval_str(&src) {
                Ok(out) => out,
                Err(e) => format!("error: {e}"),
            };
            let pool = pooled.submit(&src).unwrap().output;
            prop_assert_eq!(&seq, &pool, "stmt {}: {} (pooled)", k, src);
        }
    }
}

/// PR acceptance: after warm-up, a 64-section × 8-worker workload clones
/// the interpreter exactly zero times — workers are persistent and jobs
/// travel through recycled flat buffers.
#[test]
fn warm_pool_runs_64_sections_with_zero_clones() {
    let mut repl = threaded_repl(8);
    repl.submit(PRELUDE[0]).unwrap();
    let section = "(||| 8 fib (1 2 3 4 5 6 7 8))";
    let first = repl.submit(section).unwrap();
    assert_eq!(first.output, "(1 1 2 3 5 8 13 21)");
    let clones_after_warmup = repl.interp_mut().clone_count();
    assert!(
        clones_after_warmup >= 8,
        "warm-up forks one interp per seat"
    );
    for _ in 0..64 {
        let reply = repl.submit(section).unwrap();
        assert_eq!(reply.output, "(1 1 2 3 5 8 13 21)");
    }
    assert_eq!(
        repl.interp_mut().clone_count(),
        clones_after_warmup,
        "64 warm sections × 8 workers must perform zero whole-interpreter clones"
    );
}

/// Defines and setqs between sections are replayed incrementally into the
/// warm workers — the observable half of the epoch-sync protocol.
#[test]
fn definitions_between_sections_sync_to_warm_workers() {
    let mut repl = threaded_repl(4);
    for line in PRELUDE {
        repl.submit(line).unwrap();
    }
    assert_eq!(
        repl.submit("(||| 4 addg (1 2 3 4))").unwrap().output,
        "(2 3 4 5)"
    );
    repl.submit("(setq g 50)").unwrap();
    assert_eq!(
        repl.submit("(||| 4 addg (1 2 3 4))").unwrap().output,
        "(51 52 53 54)"
    );
    repl.submit("(defun addg (x) (- x g))").unwrap();
    assert_eq!(
        repl.submit("(||| 4 addg (1 2 3 4))").unwrap().output,
        "(-49 -48 -47 -46)"
    );
    // Nested sections see the synced global too.
    assert_eq!(
        repl.submit("(||| 2 nest (10 20))").unwrap().output,
        "((13 54) (23 54))"
    );
}
