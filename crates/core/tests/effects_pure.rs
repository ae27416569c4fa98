//! Soundness of the effect classifier (`culi_core::effects`): any
//! expression it marks **pure** must evaluate
//!
//! 1. with **zero sync-log growth** — no persistent-environment define or
//!    mutation ever reaches the worker synchronization log — and
//! 2. with **bit-identical meter counters and results** whether it runs
//!    on the master interpreter or on a forked worker seat (the staging
//!    dispatchers rely on both: a pure operand may be evaluated ahead of
//!    in-flight sections without changing any backend's observable state
//!    or charges).
//!
//! The generator mixes pure constructs (arithmetic, list builders,
//! conditionals, loops, quoting) with impure ones (`setq`, user-form
//! calls, `eval`) at every nesting level; classified-impure cases are
//! skipped (conservatism is allowed, unsoundness is not), and directed
//! tests pin the constructs that must never classify pure.
//!
//! The isolation check (`effects::exprs_are_isolated`) gets the same
//! treatment: generated, mutually calling user forms applied to
//! generated arguments must leave the sync log and epoch untouched
//! whenever the check admits them, and directed cases pin the closure
//! rule's refusals (data-dependent effects, a callee head bound to a
//! caller's parameter, macros, `|||`, `eval`, host I/O, job arguments
//! that carry code) and admissions (pure builtins, recursion, mutual
//! recursion).

use culi_core::cost::Counters;
use culi_core::eval::{eval, SequentialHook};
use culi_core::{effects, Interp, InterpConfig};
use proptest::prelude::*;

/// A generated expression tree, rendered to CuLi source.
#[derive(Debug, Clone)]
enum Expr {
    Int(i64),
    Str(u8),
    G,
    Xs,
    Unbound,
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    List(Vec<Expr>),
    Car(Box<Expr>),
    Cons(Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Progn(Vec<Expr>),
    Length(Box<Expr>),
    NumToStr(Box<Expr>),
    Dotimes(u8, Box<Expr>),
    Quote(Box<Expr>),
    /// `(quasiquote <rendered>)`: the payload is a *template* — even a
    /// rendered impure construct inside is never evaluated, so the whole
    /// form must classify pure and expand effect-free on master and seat
    /// alike. (A rendered hole-carrying variant nested inside lands under
    /// an extra backquote level, where its holes stay literal — the
    /// level-tracked classifier and the expander must agree on that.)
    Quasi(Box<Expr>),
    /// `` `(a ,<e>) ``: a level-1 hole that *fires* — the template is
    /// pure iff `<e>` is.
    QuasiHole(Box<Expr>),
    /// `` `(h ,@(list <e>)) ``: a firing splice hole — pure iff `<e>` is.
    QuasiSplice(Box<Expr>),
    /// `` `(a `(b ,,<e>)) ``: a double-comma hole under a nested
    /// backquote; the inner comma fires at this expansion, so purity
    /// again follows `<e>`.
    QuasiNested(Box<Expr>),
    /// `(mapcar 1+ <e>)`: pure-builtin callable — pure iff `<e>` is.
    MapcarBuiltin(Box<Expr>),
    /// `(mapcar (lambda (w) (+ w <a>)) <b>)`: literal lambda with a
    /// generated body — pure iff both payloads are.
    MapcarLambda(Box<Expr>, Box<Expr>),
    /// `(funcall + <a> <b>)`: pure-builtin callable via funcall.
    FuncallAdd(Box<Expr>, Box<Expr>),
    // Impure constructs — must classify impure wherever they appear.
    SetG(Box<Expr>),
    CallF(Box<Expr>),
    Eval(Box<Expr>),
    /// `(mapcar f <e>)`: user-form callable — impure wherever it appears.
    MapcarF(Box<Expr>),
}

fn render(e: &Expr, out: &mut String) {
    match e {
        Expr::Int(v) => out.push_str(&v.to_string()),
        Expr::Str(n) => out.push_str(&format!("\"s{n}\"")),
        Expr::G => out.push('g'),
        Expr::Xs => out.push_str("xs"),
        Expr::Unbound => out.push_str("loose"),
        Expr::Add(a, b) => render2(out, "+", a, b),
        Expr::Mul(a, b) => render2(out, "*", a, b),
        Expr::List(items) => {
            out.push_str("(list");
            for item in items {
                out.push(' ');
                render(item, out);
            }
            out.push(')');
        }
        Expr::Car(a) => render1(out, "car", a),
        Expr::Cons(a, b) => render2(out, "cons", a, b),
        Expr::If(c, t, f) => {
            out.push_str("(if ");
            render(c, out);
            out.push(' ');
            render(t, out);
            out.push(' ');
            render(f, out);
            out.push(')');
        }
        Expr::Progn(items) => {
            out.push_str("(progn");
            for item in items {
                out.push(' ');
                render(item, out);
            }
            out.push(')');
        }
        Expr::Length(a) => render1(out, "length", a),
        Expr::NumToStr(a) => render1(out, "number-to-string", a),
        Expr::Dotimes(n, body) => {
            out.push_str(&format!("(dotimes (k {}) ", n % 4));
            render(body, out);
            out.push(')');
        }
        Expr::Quote(a) => render1(out, "quote", a),
        Expr::Quasi(a) => render1(out, "quasiquote", a),
        Expr::QuasiHole(a) => {
            out.push_str("(quasiquote (a (unquote ");
            render(a, out);
            out.push_str(")))");
        }
        Expr::QuasiSplice(a) => {
            out.push_str("(quasiquote (h (unquote-splicing (list ");
            render(a, out);
            out.push_str("))))");
        }
        Expr::QuasiNested(a) => {
            out.push_str("(quasiquote (a (quasiquote (b (unquote (unquote ");
            render(a, out);
            out.push_str("))))))");
        }
        Expr::MapcarBuiltin(a) => render1(out, "mapcar 1+", a),
        Expr::MapcarLambda(a, b) => {
            out.push_str("(mapcar (lambda (w) (+ w ");
            render(a, out);
            out.push_str(")) ");
            render(b, out);
            out.push(')');
        }
        Expr::FuncallAdd(a, b) => render2(out, "funcall +", a, b),
        Expr::SetG(a) => render1(out, "setq g", a),
        Expr::CallF(a) => render1(out, "f", a),
        Expr::Eval(a) => render1(out, "eval", a),
        Expr::MapcarF(a) => render1(out, "mapcar f", a),
    }
}

fn render1(out: &mut String, op: &str, a: &Expr) {
    out.push('(');
    out.push_str(op);
    out.push(' ');
    render(a, out);
    out.push(')');
}

fn render2(out: &mut String, op: &str, a: &Expr, b: &Expr) {
    out.push('(');
    out.push_str(op);
    out.push(' ');
    render(a, out);
    out.push(' ');
    render(b, out);
    out.push(')');
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(Expr::Int),
        any::<u8>().prop_map(Expr::Str),
        Just(Expr::G),
        Just(Expr::Xs),
        Just(Expr::Unbound),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Expr::List),
            inner.clone().prop_map(|a| Expr::Car(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Cons(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Expr::If(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Expr::Progn),
            inner.clone().prop_map(|a| Expr::Length(Box::new(a))),
            inner.clone().prop_map(|a| Expr::NumToStr(Box::new(a))),
            (any::<u8>(), inner.clone()).prop_map(|(n, b)| Expr::Dotimes(n, Box::new(b))),
            inner.clone().prop_map(|a| Expr::Quote(Box::new(a))),
            inner.clone().prop_map(|a| Expr::Quasi(Box::new(a))),
            inner.clone().prop_map(|a| Expr::QuasiHole(Box::new(a))),
            inner.clone().prop_map(|a| Expr::QuasiSplice(Box::new(a))),
            inner.clone().prop_map(|a| Expr::QuasiNested(Box::new(a))),
            inner.clone().prop_map(|a| Expr::MapcarBuiltin(Box::new(a))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::MapcarLambda(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::FuncallAdd(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Expr::SetG(Box::new(a))),
            inner.clone().prop_map(|a| Expr::CallF(Box::new(a))),
            inner.clone().prop_map(|a| Expr::Eval(Box::new(a))),
            inner.clone().prop_map(|a| Expr::MapcarF(Box::new(a))),
        ]
    })
}

fn booted() -> Interp {
    let mut i = Interp::new(InterpConfig {
        arena_capacity: 1 << 18,
        ..Default::default()
    });
    for line in [
        "(setq g 7)",
        "(setq xs (list 1 2 3))",
        "(defun f (x) (progn (setq g (+ g x)) g))",
    ] {
        i.eval_str(line).unwrap();
    }
    i
}

/// Evaluates `form` in a fresh child environment of the global (the shape
/// of a worker seat's job environment), returning the printed result or
/// error text, the meter delta and the sync-log growth.
fn run_once(interp: &mut Interp, form: culi_core::NodeId) -> (String, Counters, usize) {
    let env = interp.envs.push(Some(interp.global));
    let log_before = interp.envs.sync_log_len();
    let m0 = interp.meter.snapshot();
    let outcome = eval(interp, &mut SequentialHook, form, env, 0);
    let delta = interp.meter.snapshot().delta_since(&m0);
    let log_growth = interp.envs.sync_log_len() - log_before;
    let printed = match outcome {
        Ok(node) => match culi_core::printer::print_to_string(interp, node) {
            Ok(s) => s,
            Err(e) => format!("print error: {e}"),
        },
        Err(e) => format!("error: {e}"),
    };
    (printed, delta, log_growth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Classified-pure expressions evaluate without touching the sync log
    /// and with bit-identical charges and results on the master and on a
    /// forked worker seat.
    #[test]
    fn pure_verdicts_are_effect_free_and_seat_independent(e in expr()) {
        let mut src = String::new();
        render(&e, &mut src);
        let mut master = booted();
        let forms = culi_core::parser::parse(&mut master, src.as_bytes()).unwrap();
        prop_assert_eq!(forms.len(), 1);
        let form = forms[0];
        if !effects::expr_is_pure(&master, master.global, form) {
            return Ok(()); // conservative rejection is always allowed
        }
        // Fork the seat *before* the master evaluates, like a pool worker.
        let mut seat = master.clone();
        let (out_m, d_m, log_m) = run_once(&mut master, form);
        let (out_s, d_s, log_s) = run_once(&mut seat, form);
        prop_assert_eq!(log_m, 0, "pure expr grew the master sync log: {}", src);
        prop_assert_eq!(log_s, 0, "pure expr grew the seat sync log: {}", src);
        prop_assert_eq!(&out_m, &out_s, "result diverged: {}", src);
        prop_assert_eq!(d_m, d_s, "meter charges diverged: {}", src);
    }
}

#[test]
fn impure_constructs_never_classify_pure() {
    let mut i = booted();
    for src in [
        "(setq g 1)",
        "(f 3)",
        "(eval (quote (setq g 1)))",
        "(progn 1 (setq g 2))",
        "(list (f 1))",
        "(if g (setq g 0) 1)",
        "(dotimes (k 3) (f k))",
        "(mapcar f xs)",
        "(funcall f 1)",
        "(mapcar (lambda (w) (f w)) xs)",
        "(mapcar (lambda (w) (w 1)) xs)",
    ] {
        let forms = culi_core::parser::parse(&mut i, src.as_bytes()).unwrap();
        assert!(
            !effects::expr_is_pure(&i, i.global, forms[0]),
            "classified pure: {src}"
        );
    }
}

/// The flip side of conservatism, pinned so the classifier keeps real
/// breadth: representative computed operands must classify pure.
#[test]
fn representative_computed_operands_classify_pure() {
    let mut i = booted();
    for src in [
        "(list g g)",
        "(+ 1 (* 2 g))",
        "(if (< g 0) (list 1 2) (list 3 4))",
        "(dotimes (k 3) (+ k g))",
        "(number-to-string (length xs))",
        "(quote (setq g 1))",
        // PR 5 (ROADMAP "classifier breadth, next ring"): quasiquote
        // templates with no unquote/splice holes expand by pure copying.
        "`(a b (c d))",
        "(quasiquote (1 (2 (3))))",
        "(quasiquote (setq g 1))",
        "(list `(a b) g)",
        // PR 6 (ROADMAP "classifier next ring"): mapcar/funcall over
        // visibly-pure callables run no unclassified code.
        "(mapcar 1+ xs)",
        "(mapcar (lambda (w) (* w w)) xs)",
        "(funcall + g 1)",
        "(list (mapcar abs xs) g)",
    ] {
        let forms = culi_core::parser::parse(&mut i, src.as_bytes()).unwrap();
        assert!(
            effects::expr_is_pure(&i, i.global, forms[0]),
            "classified impure: {src}"
        );
    }
}

/// Quasiquote hole classification is level-tracked (PR 7, ROADMAP
/// "classifier next ring"): a hole that fires at level 1 follows its
/// expression's purity; a hole protected by a nested backquote stays
/// literal at this expansion and must not poison the template.
#[test]
fn quasiquote_hole_level_tracking_pins() {
    let mut i = booted();
    // Pure firing holes — and protected impure holes — classify pure.
    for src in [
        "`(a ,g)",
        "`(1 ,@xs)",
        "`(a ,(+ g (length xs)))",
        "`(a `(b ,(setq g 1)))", // protected: stays literal here
        "(progn `(a) `(b ,(car xs)))",
        "`(a `(b ,,g))", // double comma: the inner one fires, purely
    ] {
        let forms = culi_core::parser::parse(&mut i, src.as_bytes()).unwrap();
        assert!(
            effects::expr_is_pure(&i, i.global, forms[0]),
            "classified impure: {src}"
        );
    }
    // Impure or malformed firing holes barrier the whole template.
    for src in [
        "`(a ,(f 1))",
        "`(a ,(setq g 1))",
        "`(1 ,@(f 1))",
        "`(a `(b ,,(f 1)))", // double comma firing user code
        "(progn `(a) `(b ,(f 1)))",
        "`(a (unquote))",
        "`,@xs",
    ] {
        let forms = culi_core::parser::parse(&mut i, src.as_bytes()).unwrap();
        assert!(
            !effects::expr_is_pure(&i, i.global, forms[0]),
            "classified pure: {src}"
        );
    }
}

// --------------------------------------------------------------------
// Isolation (`effects::exprs_are_isolated`): the closure rule that lets
// a session run a `|||` section's jobs on the master.

/// A generated body for the user forms of the isolation property: the
/// purity generator's constructs plus calls between the forms (mutual
/// recursion included), a call of the pure global form `plus`, and uses
/// of the parameter `w` as a value and as a callee.
#[derive(Debug, Clone)]
enum Body {
    Expr(Expr),
    W,
    CallW,
    PlusW,
    H1(Box<Body>),
    H2(Box<Body>),
    Plus(Box<Body>, Box<Body>),
    If(Box<Body>, Box<Body>, Box<Body>),
}

fn render_body(b: &Body, out: &mut String) {
    match b {
        Body::Expr(e) => render(e, out),
        Body::W => out.push('w'),
        Body::CallW => out.push_str("(w 1)"),
        Body::PlusW => out.push_str("(plus w 1)"),
        Body::H1(a) | Body::H2(a) => {
            out.push_str(if matches!(b, Body::H1(_)) {
                "(h1 "
            } else {
                "(h2 "
            });
            render_body(a, out);
            out.push(')');
        }
        Body::Plus(a, c) => {
            out.push_str("(plus ");
            render_body(a, out);
            out.push(' ');
            render_body(c, out);
            out.push(')');
        }
        Body::If(c, t, f) => {
            out.push_str("(if (< ");
            render_body(c, out);
            out.push_str(" 3) ");
            render_body(t, out);
            out.push(' ');
            render_body(f, out);
            out.push(')');
        }
    }
}

fn body() -> impl Strategy<Value = Body> {
    let leaf = prop_oneof![
        expr().prop_map(Body::Expr),
        expr().prop_map(Body::Expr),
        Just(Body::W),
        Just(Body::CallW),
        Just(Body::PlusW),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| Body::H1(Box::new(a))),
            inner.clone().prop_map(|a| Body::H2(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, c)| Body::Plus(Box::new(a), Box::new(c))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| Body::If(
                Box::new(c),
                Box::new(t),
                Box::new(f)
            )),
        ]
    })
}

/// [`booted`] plus the pure global form `plus`, under a fuel budget so
/// generated mutual recursion ends in a fuel error instead of running
/// for ever.
fn booted_forms() -> Interp {
    let mut i = Interp::new(InterpConfig {
        arena_capacity: 1 << 18,
        fuel_budget: 20_000,
        ..Default::default()
    });
    for line in [
        "(setq g 7)",
        "(setq xs (list 1 2 3))",
        "(defun f (x) (progn (setq g (+ g x)) g))",
        "(defun plus (a b) (+ a b))",
        "(defun f2 (a b) (setq g (+ a b)))",
    ] {
        i.eval_str(line).unwrap();
    }
    i
}

fn isolated(i: &mut Interp, src: &str) -> bool {
    let forms = culi_core::parser::parse(i, src.as_bytes()).unwrap();
    effects::exprs_are_isolated(i, i.global, &forms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Applying any callable the isolation check admits leaves the
    /// persistent environment untouched: no sync-log growth and no epoch
    /// bump, whatever the arguments and however the forms call each
    /// other. `h3` rebinds `plus` for its callees, so an `h1` body
    /// calling `(plus …)` under `(h3 f2)` would apply the mutating `f2`.
    #[test]
    fn isolated_applications_leave_persistent_state_alone(
        b1 in body(),
        b2 in body(),
        arg in expr(),
        job in 0u8..4,
    ) {
        let mut i = booted_forms();
        let (mut s1, mut s2) = (String::new(), String::new());
        render_body(&b1, &mut s1);
        render_body(&b2, &mut s2);
        for line in [
            format!("(defun h1 (w) {s1})"),
            format!("(defun h2 (w) {s2})"),
            "(defun h3 (plus) (progn (h1 1) (h2 1)))".to_string(),
        ] {
            i.eval_str(&line).unwrap();
        }
        let mut a = String::new();
        render(&arg, &mut a);
        let src = match job {
            0 => format!("(h1 {a})"),
            1 => format!("(h2 {a})"),
            2 => "(h3 f2)".to_string(),
            _ => "(h3 plus)".to_string(),
        };
        let forms = culi_core::parser::parse(&mut i, src.as_bytes()).unwrap();
        if !effects::exprs_are_isolated(&i, i.global, &forms) {
            return Ok(()); // conservative refusal is always allowed
        }
        let epoch = i.envs.sync_epoch();
        i.meter.arm_fuel(20_000);
        let (_, _, log_growth) = run_once(&mut i, forms[0]);
        prop_assert_eq!(log_growth, 0, "admitted job grew the sync log: {} / {} / {}", src, s1, s2);
        prop_assert_eq!(i.envs.sync_epoch(), epoch, "admitted job moved the epoch: {}", src);
    }
}

#[test]
fn isolation_refuses_what_the_master_could_not_contain() {
    let mut i = booted_forms();
    for line in [
        // Data-dependent effect: (dd 3) would not setq, but the check
        // cannot know the argument.
        "(defun dd (x) (if (> x 5) (setq g x) x))",
        // Dynamic scoping: inside `a`, `b`'s `(plus …)` resolves to a's
        // parameter, whatever the caller passes.
        "(defun a (plus) (b 1))",
        "(defun b (x) (plus x 1))",
        "(defmacro m (x) x)",
        "(defun usem (x) (m x))",
        "(defun par (x) (||| 2 + (1 2) (3 4)))",
        "(defun ev (x) (eval x))",
        "(defun rf (x) (read-file \"data.txt\"))",
    ] {
        i.eval_str(line).unwrap();
    }
    for src in [
        "(dd 3)",
        "(a 1)",
        "(a f)",
        "(m 1)",
        "(usem 1)",
        "(par 1)",
        "(ev 1)",
        "(rf 1)",
        "(f 1)",
        "((lambda (x) (setq g x)) 1)",
    ] {
        assert!(!isolated(&mut i, src), "admitted: {src}");
    }
    // Called directly, `b`'s `plus` is the global pure form.
    assert!(isolated(&mut i, "(b 1)"));
}

#[test]
fn isolation_admits_pure_builtins_and_recursive_forms() {
    let mut i = booted_forms();
    for line in [
        "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
        "(defun fibj (x) (fib (+ 5 (mod x 4))))",
        "(defun ev? (n) (if (= n 0) T (od? (- n 1))))",
        "(defun od? (n) (if (= n 0) nil (ev? (- n 1))))",
    ] {
        i.eval_str(line).unwrap();
    }
    for src in [
        "(+ 1 2)",
        "(plus 1 2)",
        "(fibj 7)",
        "(fib 10)",
        "(ev? 10)",
        "(plus (fib 3) (od? 4))",
    ] {
        assert!(isolated(&mut i, src), "refused: {src}");
    }
}

/// The jobs a section builds re-evaluate their argument values, so the
/// check runs on the built jobs: a pure operand can still deliver code.
#[test]
fn isolation_checks_built_jobs_including_their_argument_values() {
    use culi_core::builtins::prepare_section;
    let mut i = booted_forms();
    i.eval_str("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
        .unwrap();
    let jobs_of = |i: &mut Interp, src: &str| {
        let form = culi_core::parser::parse(i, src.as_bytes()).unwrap()[0];
        let args: Vec<_> = i.arena.iter_list(form).skip(1).collect();
        let global = i.global;
        prepare_section(i, &mut SequentialHook, &args, global, 0).unwrap()
    };
    let jobs = jobs_of(&mut i, "(||| 2 fib (5 6))");
    assert!(effects::exprs_are_isolated(&i, i.global, &jobs));
    let jobs = jobs_of(&mut i, "(||| 2 plus (1 2) (list g g))");
    assert!(effects::exprs_are_isolated(&i, i.global, &jobs));
    // `(list (quote (setq g 5)))` is a pure operand whose value is code:
    // the job `(+ (setq g 5))` would run it.
    let jobs = jobs_of(&mut i, "(||| 1 + (list (quote (setq g 5))))");
    assert!(!effects::exprs_are_isolated(&i, i.global, &jobs));
    // A user form's value in a job argument's head position is applied.
    let jobs = jobs_of(&mut i, "(||| 1 + (list (list f 1)))");
    assert!(!effects::exprs_are_isolated(&i, i.global, &jobs));
    let jobs = jobs_of(&mut i, "(||| 1 + (list (list fib 3)))");
    assert!(effects::exprs_are_isolated(&i, i.global, &jobs));
}

#[test]
fn section_callee_names_only_symbol_callables() {
    let mut i = booted_forms();
    let callee = |i: &mut Interp, src: &str| {
        let form = culi_core::parser::parse(i, src.as_bytes()).unwrap()[0];
        effects::section_callee(i, i.global, form)
    };
    let plus = i.lookup_global(b"plus");
    assert_eq!(callee(&mut i, "(||| 2 plus (1 2) (3 4))"), plus);
    assert!(callee(&mut i, "(||| 2 + (1 2) (3 4))").is_some());
    assert_eq!(callee(&mut i, "(||| 2 (lambda (x) x) (1 2))"), None);
    assert_eq!(callee(&mut i, "(||| 2 g (1 2))"), None);
    assert_eq!(callee(&mut i, "(||| 2 nosuch (1 2))"), None);
}
