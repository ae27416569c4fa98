//! Hostile values must not abort the process: structural walks over
//! runtime values run on explicit stacks, so a deep value is just data on
//! every backend. Also pins that loops rebind their variable in place
//! instead of growing the loop environment per iteration.

use culi::core::ErrorCode;
use culi::prelude::*;
use culi::sim::device;

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
