//! Hostile values must not abort the process: structural walks over
//! runtime values run on explicit stacks, so a deep value is just data on
//! every backend, and deep input is refused at the parser's depth limit.
//! Also pins that loops rebind their variable in place instead of growing
//! the loop environment per iteration.

use culi::core::ErrorCode;
use culi::prelude::*;
use culi::runtime::{CacheConfig, CommandCache};
use culi::sim::device;
use proptest::prelude::*;

/// Binds `name` to a `depth`-deep singleton nesting `((((nil))))`.
fn build_deep(session: &mut Session, name: &str, depth: usize) {
    let reply = session
        .submit(&format!(
            "(progn (setq {name} nil) (dotimes (i {depth}) (setq {name} (list {name}))) 1)"
        ))
        .unwrap();
    assert!(reply.ok, "{}", reply.output);
}

#[test]
fn equal_on_deep_values_answers_on_every_backend() {
    for (name, mut session) in every_backend() {
        // Two independent 100,000-deep lists: `equal` has to walk both
        // all the way down.
        build_deep(&mut session, "x", 100_000);
        build_deep(&mut session, "y", 100_000);
        let reply = session.submit("(equal x y)").unwrap();
        assert!(reply.ok, "{name}: {}", reply.output);
        assert_eq!(reply.output, "T", "{name}");
        build_deep(&mut session, "z", 99_999);
        assert_eq!(
            session.submit("(equal x z)").unwrap().output,
            "nil",
            "{name}"
        );
        session.shutdown();
    }
}

/// One session per backend: modeled CPU, threaded CPU and GPU.
fn every_backend() -> [(&'static str, Session); 3] {
    [
        ("modeled cpu", Session::for_device(device::intel_e5_2620())),
        (
            "threaded cpu",
            Session::cpu_threaded(device::intel_e5_2620(), 2),
        ),
        ("gpu", Session::for_device(device::gtx1080())),
    ]
}

#[test]
fn printing_a_deep_value_answers_on_every_backend() {
    for (name, mut session) in every_backend() {
        // 32,000 levels print as 64,003 bytes: inside the 64 KiB output
        // buffer, far past what a recursive printer survives on a
        // default 2 MiB thread stack.
        build_deep(&mut session, "x", 32_000);
        let reply = session.submit("x").unwrap();
        assert!(reply.ok, "{name}: {}", reply.output);
        assert_eq!(reply.output.len(), 64_003, "{name}");
        assert!(reply.output.starts_with("((("), "{name}");
        assert!(reply.output.contains("(nil)"), "{name}");
        assert_eq!(reply.counters.print.output_bytes, 64_003, "{name}");
        session.shutdown();
    }
}

#[test]
fn quasiquoting_a_deep_template_is_a_recursion_limit() {
    for (name, mut session) in every_backend() {
        build_deep(&mut session, "x", 100_000);
        let reply = session
            .submit("(progn (setq y (eval (list 'quasiquote x))) 1)")
            .unwrap();
        assert!(!reply.ok, "{name}");
        assert_eq!(reply.code, ErrorCode::Limit, "{name}");
        assert!(
            reply.output.contains("recursion depth limit"),
            "{name}: {}",
            reply.output
        );
        // The session survives, and a shallow template still expands.
        let reply = session.submit("`(1 ,(+ 1 1))").unwrap();
        assert_eq!(reply.output, "(1 2)", "{name}");
        session.shutdown();
    }
}

#[test]
fn parallel_section_over_a_deep_value_matches_the_modeled_session() {
    let mut modeled = Session::for_device(device::intel_e5_2620());
    let mut threaded = Session::cpu_threaded(device::intel_e5_2620(), 2);
    for session in [&mut modeled, &mut threaded] {
        build_deep(session, "x", 20_000);
        assert!(session.submit("(defun len-x (k) (length x))").unwrap().ok);
    }
    // `len-x` reads the deep global, which reaches the workers through
    // the sync packet: a successful reply, charged exactly alike.
    let want = modeled.submit("(||| 2 len-x (1 2))").unwrap();
    let got = threaded.submit("(||| 2 len-x (1 2))").unwrap();
    assert_eq!(want.output, "(1 1)");
    assert_eq!(got.output, want.output);
    assert_eq!(got.counters, want.counters);
    // Here the deep value also travels inside every job. Each job then
    // evaluates it as an expression, which both backends refuse with the
    // same structured recursion-limit error; like the differential
    // harness, error replies compare everything but eval counters.
    let want = modeled.submit("(||| 2 length (x x))").unwrap();
    let got = threaded.submit("(||| 2 length (x x))").unwrap();
    assert!(!want.ok);
    assert_eq!(got.output, want.output);
    assert_eq!(got.ok, want.ok);
    assert_eq!(got.code, want.code);
    assert_eq!(got.counters.parse, want.counters.parse);
    assert_eq!(got.counters.print, want.counters.print);
    threaded.shutdown();
}

/// A recursion limit hit inside a `|||` job keeps its class: the reply
/// code is `Limit` on every backend and route, as it is for the same
/// limit on the master, and the text still names the worker.
#[test]
fn a_limit_inside_a_job_is_reported_as_a_limit() {
    for (name, mut session) in every_backend() {
        build_deep(&mut session, "x", 100_000);
        let deep = session.submit("(eval x)").unwrap();
        assert_eq!(deep.code, ErrorCode::Limit, "{name}: {}", deep.output);
        let want = "error: worker 0 failed: recursion depth limit 512 exceeded";
        for route in ["submit", "submit_batch"] {
            let reply = match route {
                "submit" => session.submit("(||| 2 length (x y))").unwrap(),
                _ => session.submit_batch(&["(||| 2 length (x y))"]).unwrap()[0].clone(),
            };
            assert!(!reply.ok, "{name} {route}");
            assert_eq!(reply.code, ErrorCode::Limit, "{name} {route}");
            assert_eq!(reply.output, want, "{name} {route}");
        }
        session.shutdown();
    }
}

#[test]
fn loop_lookups_cost_linear_env_probes() {
    let probes = |n: usize| {
        let mut session = Session::for_device(device::intel_e5_2620());
        let reply = session
            .submit(&format!("(dotimes (i {n}) (+ i i))"))
            .unwrap();
        assert!(reply.ok, "{}", reply.output);
        reply.counters.eval_master.env_probes
    };
    let (p1, p2) = (probes(1_000), probes(2_000));
    assert!(
        p2 as f64 <= 2.1 * p1 as f64,
        "doubling the iterations must at most double the env probes: {p1} -> {p2}"
    );
}

#[test]
fn deep_reader_macros_are_a_recursion_limit() {
    // 60,000 leading quotes: 60 KB of input, inside the GPU's 64 KiB
    // command buffer. Each quote is one parse level, so the parser stops
    // at its depth limit instead of recursing once per quote.
    let input = format!("{}x", "'".repeat(60_000));
    for (name, mut session) in every_backend() {
        let reply = session.submit(&input).unwrap();
        assert!(!reply.ok, "{name}");
        assert_eq!(reply.code, ErrorCode::Limit, "{name}");
        assert!(
            reply.output.contains("recursion depth limit"),
            "{name}: {}",
            reply.output
        );
        // The session survives, and a shallow quote still reads.
        assert_eq!(session.submit("(+ 1 2)").unwrap().output, "3", "{name}");
        assert_eq!(session.submit("''x").unwrap().output, "(quote x)", "{name}");
        session.shutdown();
    }
}

/// One nesting level of a generated hostile value.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `(x)`
    List,
    /// `(quote x)`: a quote-wrapped value.
    Quote,
    /// `(x i)`: the deep value in the head of a pair. CuLi lists are
    /// proper, so this is the closest a value gets to a dotted pair.
    Pair,
}

impl Step {
    fn wrap(self, name: &str) -> String {
        match self {
            Step::List => format!("(setq {name} (list {name}))"),
            Step::Quote => format!("(setq {name} (list 'quote {name}))"),
            Step::Pair => format!("(setq {name} (cons {name} (list i)))"),
        }
    }
}

/// A `dotimes` program binding `name` to `rounds` repetitions of the
/// `shape` steps around `nil`.
fn deep_program(name: &str, shape: &[Step], rounds: usize) -> String {
    let body: Vec<String> = shape.iter().map(|s| s.wrap(name)).collect();
    format!(
        "(progn (setq {name} nil) (dotimes (i {rounds}) {}) 1)",
        body.join(" ")
    )
}

/// A reply that answered: a value, or an error with a structured code.
fn answered(reply: &Reply) -> bool {
    reply.ok == (reply.code == ErrorCode::Ok)
}

fn shape() -> impl Strategy<Value = (Vec<Step>, usize)> {
    let step = prop_oneof![Just(Step::List), Just(Step::Quote), Just(Step::Pair)];
    (prop::collection::vec(step, 1..4), 1usize..20_001).prop_map(|(shape, depth)| {
        let rounds = (depth / shape.len()).max(1);
        (shape, rounds)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any nesting shape up to 20,000 levels survives print, `equal`, a
    /// `|||` encode/decode round trip through the worker pool, a dotted
    /// `cons` and a cache-on batch: each answers with a value or a
    /// structured error, and none aborts the process.
    #[test]
    fn hostile_values_answer_every_operation(case in shape()) {
        let (shape, rounds) = case;
        let mut session = Session::Cpu(CpuRepl::launch(
            device::intel_e5_2620(),
            CpuReplConfig {
                mode: CpuMode::Threaded { threads: 2 },
                cache: Some(CommandCache::new(CacheConfig::default())),
                ..Default::default()
            },
        ));
        for name in ["x", "y"] {
            let reply = session.submit(&deep_program(name, &shape, rounds)).unwrap();
            prop_assert!(reply.ok, "{}", reply.output);
        }
        prop_assert!(session.submit("(defun id-x (k) x)").unwrap().ok);

        let printed = session.submit("x").unwrap();
        prop_assert!(answered(&printed), "{:?}", printed.output);
        let printed_y = session.submit("y").unwrap();
        prop_assert_eq!(&printed_y.output, &printed.output);

        let equal = session.submit("(equal x y)").unwrap();
        prop_assert_eq!(equal.output.as_str(), "T");
        let unequal = session.submit("(equal x (list x))").unwrap();
        prop_assert_eq!(unequal.output.as_str(), "nil");

        let roundtrip = session.submit("(equal x (car (||| 2 id-x (1 2))))").unwrap();
        prop_assert_eq!(roundtrip.output.as_str(), "T");

        let dotted = session.submit("(cons x 1)").unwrap();
        prop_assert!(!dotted.ok && answered(&dotted), "{:?}", dotted.output);

        let batch = session
            .submit_batch(&["x", "(equal x y)", "x", "(||| 2 id-x (1 2))"])
            .unwrap();
        for reply in &batch {
            prop_assert!(answered(reply), "{:?}", reply.output);
        }
        prop_assert_eq!(&batch[0].output, &printed.output);
        prop_assert_eq!(&batch[2].output, &printed.output);
        prop_assert_eq!(batch[1].output.as_str(), "T");
        // The session still answers.
        prop_assert_eq!(session.submit("(+ 1 2)").unwrap().output.as_str(), "3");
        session.shutdown();
    }
}
