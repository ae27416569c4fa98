//! Conservative side-effect analysis over parsed expressions.
//!
//! The pipelined REPL dispatchers (`culi-runtime`) may evaluate a
//! command's `|||` operands *ahead of time* — while earlier sections are
//! still in flight — and ship whole runs of sections as one rendezvous.
//! That reordering is only invisible when evaluating the operands can
//! neither change persistent interpreter state nor observe state that an
//! in-flight command could still change. This module answers exactly that
//! question: [`expr_is_pure`] classifies an expression as **pure** when
//! its evaluation provably has no effect beyond allocating nodes and
//! producing a value, and [`stageable_parallel_section`] applies the rule
//! to a whole top-level `(||| …)` command. [`exprs_are_isolated`] widens
//! it to user forms (the closure rule below), for sessions deciding
//! whether a section's jobs may run on the master.
//!
//! # Classification rules
//!
//! * **Atoms** (numbers, strings, `nil`, `T`, already-built values)
//!   self-evaluate — pure.
//! * **Symbols** evaluate to an environment lookup (or to themselves when
//!   unbound) — a read-only probe, pure.
//! * **Lists** dispatch on their head:
//!   * head symbol resolving to a **known-pure builtin** (arithmetic,
//!     comparisons, list constructors and accessors, predicates, logic,
//!     control flow, string operations — see [`builtin_effect`]): pure iff
//!     every operand is pure. `quote` and `lambda` never evaluate their
//!     operands, so they are pure regardless of operand content.
//!     `cond`, `dotimes` and `dolist` carry structured operands (clause
//!     lists, `(var source)` headers) and are analyzed structurally.
//!   * head symbol resolving to the **`quasiquote`** builtin: the
//!     template is walked with the same quotation-level tracking the
//!     expander uses (`builtins::quasi::expand`). Template structure
//!     copies purely; an `unquote`/`unquote-splicing` hole that *fires*
//!     (reaches level 1) evaluates its expression for real, so the
//!     expression must itself be pure; a hole protected by a nested
//!     backquote stays literal at this expansion and only its own
//!     re-expansion depth is checked. Marker symbols in data positions
//!     (non-head) are inert. Malformed holes (wrong marker arity) and a
//!     top-level `,@` are barriers.
//!   * head symbol resolving to anything that **defines or mutates**
//!     (`setq`, `defun`, `let`, …), performs **host I/O** (`read-file`,
//!     …), evaluates arbitrary structure (`eval`, a quasiquote template
//!     with unquote holes), invokes user code (`mapcar`, `apply`,
//!     `funcall`, any macro, any user form outside the closure rule
//!     below) or opens a nested parallel section (`|||`): **impure**.
//!   * head symbol resolving to a plain value, or unbound, or a non-symbol
//!     atom head: the list evaluates element-wise — pure iff every element
//!     is pure.
//!   * a computed head (the head is itself a list): impure. Its value
//!     cannot be known without evaluating it, and it might be callable.
//!
//! # Why conservative
//!
//! The classifier must never call an expression pure that is not; the
//! reverse (calling a pure expression impure) merely costs a pipeline
//! drain. Two deliberate sources of imprecision:
//!
//! * **Rebindable heads.** A head symbol is resolved against the
//!   environment *at classification time*. That resolution is stable for
//!   everything the dispatchers stage — staged commands are themselves
//!   pure, and defining commands act as barriers that drain the pipeline
//!   first — with one exception: the pure looping builtins bind their loop
//!   variable at runtime, possibly to a callable value the static lookup
//!   cannot see (`(dolist (f (list some-form)) (f 1))`). The analysis
//!   therefore tracks loop-shadowed symbols and refuses any application
//!   whose head is one of them.
//! * **Value-dependent behaviour.** Anything whose effect depends on a
//!   computed value (computed heads, `eval`, higher-order builtins
//!   applying a function argument) is rejected wholesale instead of
//!   approximated.
//!
//! Errors are *not* effects: a pure expression may still fail (division by
//! zero, type errors, recursion limits). Staging such an expression early
//! produces the identical error at the identical meter charge, which is
//! all the dispatchers need. An expression nested deeper than the walk
//! bound is refused rather than walked on the native stack.
//!
//! # Isolation: the closure rule
//!
//! A worker seat isolates a `|||` job's `setq`; the master would not. A
//! section may therefore run its jobs on the master only when
//! [`exprs_are_isolated`] proves them free of effects. That check is
//! [`expr_is_pure`] plus user forms, admitted under the **closure rule**:
//!
//! 1. **Collect the closure first.** Starting from the job expressions,
//!    follow every head position — head symbols through the environment,
//!    function values that sit in head position themselves — into the
//!    bodies of the user forms they reach, and on through those bodies.
//!    A visited set ends recursion and mutual recursion. A macro in any
//!    head position, or a walk past a fixed node budget, refuses.
//! 2. **Then check every body with every binder shadowed.** CuLi is
//!    dynamically scoped: at runtime a callee's head symbol can resolve
//!    to a *caller's* parameter (`(defun a (plus) (b 1))` with `b`
//!    calling `(plus …)`). So each body is checked with all parameter
//!    names, lambda parameters and loop variables of the whole closure
//!    shadowed. A per-form memo would not be sound: the same body is safe
//!    under one caller and not under another. The job expressions
//!    themselves evaluate outside every such binder.
//!
//! A job's arguments are values that the job evaluates again (a form
//! evaluates its arguments; a builtin evaluates its operands), so they
//! are checked as expressions too. Literal lambdas and computed callables
//! stay refused in callable position, exactly as for [`expr_is_pure`].
//!
//! # Charge-exactness contract
//!
//! Classification is bookkeeping, not interpreter work: it charges
//! **nothing** to the session meter (environment probes go through a
//! scratch [`Meter`]), allocates no nodes, and leaves the interpreter
//! untouched. The dispatchers that act on a verdict reproduce the
//! evaluator's charges separately (see
//! [`crate::eval::charge_symbol_head_dispatch`] and
//! [`crate::builtins::prepare_section`]); the cross-backend differential
//! harness asserts the resulting per-command counters stay bit-identical
//! to the recursive evaluator's.

use crate::cost::Meter;
use crate::interp::Interp;
use crate::node::{NodeType, Payload};
use crate::types::{EnvId, NodeId, StrId};

/// How evaluating one builtin behaves for the purposes of staging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinEffect {
    /// A function of its evaluated operands: the application is pure iff
    /// every operand is pure.
    Pure,
    /// Never evaluates its operands (`quote`, `lambda`): always pure.
    PureUnevaluated,
    /// Defines, mutates, performs host I/O, runs arbitrary code or opens
    /// a parallel section: never stageable.
    Impure,
}

/// The known-pure builtins table. Unknown names default to
/// [`BuiltinEffect::Impure`] so future builtins are conservative until
/// someone classifies them deliberately.
pub fn builtin_effect(name: &str) -> BuiltinEffect {
    match name {
        // Arithmetic & extended math.
        "+" | "-" | "*" | "/" | "mod" | "abs" | "min" | "max" | "1+" | "1-" | "sqrt" | "expt"
        | "floor" | "ceiling" | "truncate" | "float" => BuiltinEffect::Pure,
        // Comparisons & predicates.
        "=" | "/=" | "<" | ">" | "<=" | ">=" | "eq" | "equal" | "atom" | "null" | "listp"
        | "consp" | "numberp" | "symbolp" | "stringp" | "zerop" | "integerp" | "floatp"
        | "evenp" | "oddp" => BuiltinEffect::Pure,
        // List construction and traversal (no user code runs).
        "car" | "cdr" | "cons" | "list" | "append" | "length" | "reverse" | "nth" | "assoc"
        | "member" | "last" | "butlast" => BuiltinEffect::Pure,
        // Control flow and logic over already-classified operands.
        // `cond`/`dotimes`/`dolist` are structurally re-checked in
        // `application_is_pure` (clause lists, loop-variable shadowing).
        "if" | "cond" | "progn" | "when" | "unless" | "while" | "and" | "or" | "not"
        | "dotimes" | "dolist" => BuiltinEffect::Pure,
        // String operations (interning is not an observable effect).
        "concat" | "string-length" | "substring" | "string=" | "number-to-string"
        | "string-to-number" => BuiltinEffect::Pure,
        // Operands are never evaluated; the produced value is inert until
        // somebody *applies* it, which classification rejects separately.
        "quote" | "lambda" => BuiltinEffect::PureUnevaluated,
        // Everything that defines/mutates (`setq`, `defun`, `defmacro`,
        // `let`, `let*`), performs host I/O, evaluates arbitrary structure
        // (`eval`; `quasiquote` stays impure *here* but templates whose
        // firing holes are all pure are re-admitted level-tracked in
        // `application_is_pure`), applies function values (`mapcar`,
        // `apply`, `funcall`) or opens a section (`|||`) — plus any name
        // this table has never heard of.
        _ => BuiltinEffect::Impure,
    }
}

/// `true` when evaluating `expr` in `env` provably has no effect on
/// persistent interpreter state (no defines, no mutation, no host I/O, no
/// user code, no nested `|||`). Charges nothing to the session meter.
pub fn expr_is_pure(interp: &Interp, env: EnvId, expr: NodeId) -> bool {
    pure_rec(interp, env, expr, &mut Scope::default())
}

/// `true` when evaluating each of `exprs` in a fresh child environment of
/// `env` provably cannot mutate persistent state, perform host I/O or
/// open a nested `|||` — [`expr_is_pure`] widened to admit applications
/// of user forms under the closure rule (see the module docs). The
/// expressions may be built values rather than parsed code: a function
/// or form value in head position is applied as itself, exactly as the
/// evaluator applies it.
///
/// This is the test a session uses before running a `|||` section's
/// jobs on the master instead of on isolated worker replicas. Charges
/// nothing to the session meter.
pub fn exprs_are_isolated(interp: &Interp, env: EnvId, exprs: &[NodeId]) -> bool {
    let Some(closure) = Closure::collect(interp, env, exprs) else {
        return false;
    };
    let mut scope = Scope {
        shadowed: closure.binders,
        depth: 0,
        closure: closure.bodies,
    };
    for k in 0..scope.closure.len() {
        if !pure_rec(interp, env, scope.closure[k], &mut scope) {
            return false;
        }
    }
    // The expressions themselves evaluate outside every binder of the
    // closure: their heads resolve in `env`.
    scope.shadowed.clear();
    exprs.iter().all(|&e| pure_rec(interp, env, e, &mut scope))
}

/// The function operand of a top-level `(||| n f …)` command when `f` is
/// a symbol that resolves, in `env`, to a builtin or a user form: the
/// value every job of the section applies. Literal lambdas and computed
/// callables have no stable identity and return `None`.
pub fn section_callee(interp: &Interp, env: EnvId, form: NodeId) -> Option<NodeId> {
    let list = *interp.arena.get(form);
    let Payload::List {
        first: Some(head), ..
    } = list.payload
    else {
        return None;
    };
    let count = interp.arena.get(head).next?;
    let f = interp.arena.get(count).next?;
    let Payload::Text(sid) = interp.arena.get(f).payload else {
        return None;
    };
    if interp.arena.get(f).ty != NodeType::Symbol {
        return None;
    }
    let v = lookup_quiet(interp, env, sid)?;
    match interp.arena.get(v).ty {
        NodeType::Function | NodeType::Form => Some(v),
        _ => None,
    }
}

/// How deep [`pure_rec`] recurses before refusing. Parsed commands nest
/// at most `InterpConfig::max_depth` (512 by default) levels; built
/// values can nest arbitrarily deep and are refused here rather than
/// walked on the native stack.
const MAX_WALK_DEPTH: usize = 1024;

/// Nodes [`Closure::collect`] visits before refusing: the isolation
/// check costs a bounded walk, not one proportional to the heap.
const MAX_CLOSURE_NODES: usize = 4096;

/// The walk state of one classification.
#[derive(Debug, Default)]
struct Scope {
    /// Symbols rebound at runtime (loop variables, parameters): an
    /// application through one of them is refused.
    shadowed: Vec<StrId>,
    /// Current [`pure_rec`] nesting.
    depth: usize,
    /// Bodies of the user forms an application may enter: empty for
    /// [`expr_is_pure`], the collected closure for
    /// [`exprs_are_isolated`].
    closure: Vec<NodeId>,
}

/// Every user form reachable from a set of expressions through head
/// positions, plus every name any of them binds at runtime.
#[derive(Debug, Default)]
struct Closure {
    /// Form bodies, each once.
    bodies: Vec<NodeId>,
    /// Parameter names of the forms and of literal lambdas, and loop
    /// variables of `dotimes`/`dolist`, anywhere in the closure.
    binders: Vec<StrId>,
}

impl Closure {
    /// Walks `roots` and every body reached from them on an explicit
    /// stack. Head symbols resolve in `env`, as [`pure_rec`] resolves
    /// them; a macro anywhere in head position, or a walk past
    /// [`MAX_CLOSURE_NODES`], refuses the whole set (`None`).
    fn collect(interp: &Interp, env: EnvId, roots: &[NodeId]) -> Option<Self> {
        let mut closure = Self::default();
        let mut stack = roots.to_vec();
        let mut budget = MAX_CLOSURE_NODES;
        while let Some(id) = stack.pop() {
            budget = budget.checked_sub(1)?;
            let n = *interp.arena.get(id);
            let first = match (n.ty, n.payload) {
                (
                    NodeType::List | NodeType::Expression,
                    Payload::List {
                        first: Some(first), ..
                    },
                ) => first,
                _ => continue,
            };
            let mut cur = Some(first);
            while let Some(kid) = cur {
                stack.push(kid);
                cur = interp.arena.get(kid).next;
            }
            let h = *interp.arena.get(first);
            let callee = match (h.ty, h.payload) {
                (NodeType::Symbol, Payload::Text(sid)) => lookup_quiet(interp, env, sid),
                (NodeType::Function | NodeType::Form | NodeType::Macro, _) => Some(first),
                _ => None,
            };
            let Some(callee) = callee else {
                continue;
            };
            let v = *interp.arena.get(callee);
            match (v.ty, v.payload) {
                (NodeType::Macro, _) => return None,
                (NodeType::Form, Payload::Form { params, body })
                    if !closure.bodies.contains(&body) =>
                {
                    closure.bodies.push(body);
                    closure.bind_symbols(interp, Some(params));
                    stack.push(body);
                }
                // (dotimes (var …) …), (dolist (var …) …), (lambda (params…) …)
                (NodeType::Function, Payload::Builtin(b))
                    if matches!(interp.builtins.name(b), "dotimes" | "dolist" | "lambda") =>
                {
                    closure.bind_symbols(interp, h.next);
                }
                _ => {}
            }
        }
        Some(closure)
    }

    /// Records the symbols directly inside the list `list` as binders
    /// (a parameter list, or a loop header whose first element is the
    /// variable; the header's other elements are harmless extras).
    fn bind_symbols(&mut self, interp: &Interp, list: Option<NodeId>) {
        let Some(list) = list else {
            return;
        };
        for kid in interp.arena.iter_list(list) {
            let k = interp.arena.get(kid);
            if let (NodeType::Symbol, Payload::Text(s)) = (k.ty, k.payload) {
                self.binders.push(s);
            }
        }
    }
}

/// `true` when `form` is a top-level `(sym …)` command whose head symbol
/// resolves to the `|||` builtin in `env` and whose operands — worker
/// count, function and every argument list — are all [`expr_is_pure`].
/// Such a command's master-side preparation can run ahead of in-flight
/// sections and its section can be staged into a pipelined run.
pub fn stageable_parallel_section(interp: &Interp, env: EnvId, form: NodeId) -> bool {
    let n = *interp.arena.get(form);
    let first = match (n.ty, n.payload) {
        (
            NodeType::List | NodeType::Expression,
            Payload::List {
                first: Some(first), ..
            },
        ) => first,
        _ => return false,
    };
    let head = *interp.arena.get(first);
    let sid = match (head.ty, head.payload) {
        (NodeType::Symbol, Payload::Text(s)) => s,
        _ => return false,
    };
    let Some(resolved) = lookup_quiet(interp, env, sid) else {
        return false;
    };
    let r = interp.arena.get(resolved);
    match (r.ty, r.payload) {
        (NodeType::Function, Payload::Builtin(b)) if interp.builtins.name(b) == "|||" => {}
        _ => return false,
    }
    siblings_pure(
        interp,
        env,
        interp.arena.get(first).next,
        &mut Scope::default(),
    )
}

/// Environment lookup against a scratch meter: classification must not
/// charge interpreter work.
fn lookup_quiet(interp: &Interp, env: EnvId, sid: StrId) -> Option<NodeId> {
    let mut scratch = Meter::new();
    interp.envs.lookup(env, sid, &interp.strings, &mut scratch)
}

/// Walks a sibling chain, requiring every element pure.
fn siblings_pure(interp: &Interp, env: EnvId, mut cur: Option<NodeId>, scope: &mut Scope) -> bool {
    while let Some(id) = cur {
        if !pure_rec(interp, env, id, scope) {
            return false;
        }
        cur = interp.arena.get(id).next;
    }
    true
}

fn pure_rec(interp: &Interp, env: EnvId, expr: NodeId, scope: &mut Scope) -> bool {
    if scope.depth >= MAX_WALK_DEPTH {
        return false;
    }
    scope.depth += 1;
    let ok = node_is_pure(interp, env, expr, scope);
    scope.depth -= 1;
    ok
}

fn node_is_pure(interp: &Interp, env: EnvId, expr: NodeId, scope: &mut Scope) -> bool {
    let n = *interp.arena.get(expr);
    let first = match n.ty {
        // A bare symbol is a read-only lookup (or self-evaluation).
        NodeType::Symbol => return true,
        NodeType::List | NodeType::Expression => match n.payload {
            Payload::List { first, .. } => first,
            _ => return false,
        },
        // Every other node type self-evaluates.
        _ => return true,
    };
    let Some(first) = first else {
        return true; // () evaluates to itself
    };
    let rest = interp.arena.get(first).next;
    let head = *interp.arena.get(first);
    let callee = match (head.ty, head.payload) {
        (NodeType::Symbol, Payload::Text(sid)) => {
            if scope.shadowed.contains(&sid) {
                // A runtime binder (an enclosing pure loop, a parameter)
                // rebinds this symbol; the static lookup below cannot see
                // what it will hold, so an application through it is not
                // classifiable.
                return false;
            }
            match lookup_quiet(interp, env, sid) {
                Some(v) => v,
                // Unbound head evaluates to itself: element-wise list.
                None => return siblings_pure(interp, env, rest, scope),
            }
        }
        // A computed head could evaluate to anything callable.
        (NodeType::List | NodeType::Expression, _) => return false,
        // A function value already in head position (a built job, or a
        // value spliced into code) self-evaluates and is applied as is.
        (NodeType::Function | NodeType::Form | NodeType::Macro, _) => first,
        // Non-symbol atom head: element-wise list evaluation.
        _ => return siblings_pure(interp, env, rest, scope),
    };
    let vn = *interp.arena.get(callee);
    match (vn.ty, vn.payload) {
        (NodeType::Function, Payload::Builtin(b)) => {
            let name = interp.builtins.name(b);
            application_is_pure(interp, env, name, rest, scope)
        }
        // A user form runs arbitrary code unless it belongs to the
        // closure being checked; its arguments evaluate first.
        (NodeType::Form, Payload::Form { body, .. }) if scope.closure.contains(&body) => {
            siblings_pure(interp, env, rest, scope)
        }
        // A Function without a builtin id is corrupt; other forms and
        // macros run arbitrary user code.
        (NodeType::Function | NodeType::Form | NodeType::Macro, _) => false,
        // Head bound to a plain value: element-wise list evaluation (the
        // head's own lookup is pure).
        _ => siblings_pure(interp, env, rest, scope),
    }
}

/// Purity of one builtin application, given the operand chain starting at
/// `args`. Structured builtins (`cond`, `dotimes`, `dolist`) are analyzed
/// against their actual evaluation shape; everything else defers to the
/// [`builtin_effect`] table plus operand recursion.
fn application_is_pure(
    interp: &Interp,
    env: EnvId,
    name: &str,
    args: Option<NodeId>,
    scope: &mut Scope,
) -> bool {
    match name {
        // (cond (test body…) …): each clause is a list whose elements
        // evaluate individually — the clause list itself never does.
        "cond" => {
            let mut cur = args;
            while let Some(clause) = cur {
                let c = *interp.arena.get(clause);
                let kids = match (c.ty, c.payload) {
                    (NodeType::List, Payload::List { first, .. }) => first,
                    _ => return false, // malformed clause: barrier
                };
                if !siblings_pure(interp, env, kids, scope) {
                    return false;
                }
                cur = c.next;
            }
            true
        }
        // (dotimes (var count) body…) / (dolist (var list) body…): the
        // source expression and every body form must be pure, and the
        // loop variable is runtime-bound — poison it for the body so an
        // application through it is refused (it may hold a callable).
        "dotimes" | "dolist" => {
            let Some(header) = args else {
                return false; // malformed loop: barrier
            };
            let h = *interp.arena.get(header);
            let kids = match (h.ty, h.payload) {
                (NodeType::List, Payload::List { first, .. }) => first,
                _ => return false,
            };
            let Some(var_node) = kids else {
                return false;
            };
            let v = *interp.arena.get(var_node);
            let (var, source) = match (v.ty, v.payload, v.next) {
                (NodeType::Symbol, Payload::Text(s), Some(src)) => (s, src),
                _ => return false,
            };
            if interp.arena.get(source).next.is_some() {
                return false; // more than (var source): barrier
            }
            if !pure_rec(interp, env, source, scope) {
                return false;
            }
            scope.shadowed.push(var);
            let ok = siblings_pure(interp, env, h.next, scope);
            scope.shadowed.pop();
            ok
        }
        // (mapcar fn list…) / (funcall fn arg…): the higher-order builtins
        // stay impure in the table (they apply an arbitrary function
        // value), but an application whose function operand is *visibly*
        // pure — a symbol resolving to a known-pure builtin, or a literal
        // `(lambda …)` with a pure body — runs no unclassified code, so it
        // is re-admitted structurally when every other operand is pure.
        // `apply` stays impure: its trailing spread list makes the
        // callable's arity/shape value-dependent.
        "mapcar" | "funcall" => {
            let Some(fn_operand) = args else {
                return false; // malformed: no function operand
            };
            if !callable_operand_is_pure(interp, env, fn_operand, scope) {
                return false;
            }
            siblings_pure(interp, env, interp.arena.get(fn_operand).next, scope)
        }
        // (quasiquote template): template structure expands by pure node
        // copying (exactly like `quote` plus allocation); only the holes
        // that *fire* — reach quotation level 1 — evaluate anything. The
        // walk below tracks levels exactly as `builtins::quasi::expand`
        // does, so `` `(a ,g) `` stages when `g`'s lookup is pure while
        // `` `(a ,(f 1)) `` barriers on the user call, and a hole under a
        // nested backquote is checked at the level its own re-expansion
        // would fire at.
        "quasiquote" => {
            let Some(template) = args else {
                return false; // malformed (quasiquote): barrier
            };
            if interp.arena.get(template).next.is_some() {
                return false; // more than one template: barrier
            }
            // A top-level `,@` errors after evaluating its expression
            // ("no top-level ,@"); barrier it like the malformed shapes.
            if template_head_name(interp, template) == Some(b"unquote-splicing".as_slice()) {
                return false;
            }
            template_is_pure(interp, env, template, 1, scope)
        }
        _ => match builtin_effect(name) {
            BuiltinEffect::Pure => siblings_pure(interp, env, args, scope),
            BuiltinEffect::PureUnevaluated => true,
            BuiltinEffect::Impure => false,
        },
    }
}

/// `true` when the function operand of a higher-order builtin
/// (`mapcar`/`funcall`) is provably a pure callable: a non-shadowed
/// symbol resolving to a [`BuiltinEffect::Pure`] builtin, or a literal
/// `(lambda (params…) body…)` whose body is pure with the parameters
/// shadowed (they are runtime-bound, so applications *through* them are
/// refused exactly like loop variables). Anything else — user forms,
/// macros, unbound symbols, computed callables — is rejected.
fn callable_operand_is_pure(interp: &Interp, env: EnvId, f: NodeId, scope: &mut Scope) -> bool {
    let n = *interp.arena.get(f);
    let first = match (n.ty, n.payload) {
        (NodeType::Symbol, Payload::Text(sid)) => {
            if scope.shadowed.contains(&sid) {
                return false; // runtime-rebound: could hold anything
            }
            let Some(v) = lookup_quiet(interp, env, sid) else {
                return false; // unbound: nothing known about the callable
            };
            let vn = *interp.arena.get(v);
            return matches!(
                (vn.ty, vn.payload),
                (NodeType::Function, Payload::Builtin(b))
                    if builtin_effect(interp.builtins.name(b)) == BuiltinEffect::Pure
            );
        }
        (
            NodeType::List | NodeType::Expression,
            Payload::List {
                first: Some(first), ..
            },
        ) => first,
        _ => return false,
    };
    // Literal (lambda (params…) body…): the head must resolve to the
    // `lambda` builtin itself.
    let h = *interp.arena.get(first);
    match (h.ty, h.payload) {
        (NodeType::Symbol, Payload::Text(sid)) if !scope.shadowed.contains(&sid) => {
            let Some(v) = lookup_quiet(interp, env, sid) else {
                return false;
            };
            let vn = *interp.arena.get(v);
            match (vn.ty, vn.payload) {
                (NodeType::Function, Payload::Builtin(b))
                    if interp.builtins.name(b) == "lambda" => {}
                _ => return false,
            }
        }
        _ => return false,
    }
    let Some(params) = h.next else {
        return false; // malformed lambda: no parameter list
    };
    let p = *interp.arena.get(params);
    let mut cur = match (p.ty, p.payload) {
        (NodeType::List, Payload::List { first, .. }) => first,
        _ => return false,
    };
    let mut pushed = 0usize;
    let mut params_ok = true;
    while let Some(k) = cur {
        let kn = *interp.arena.get(k);
        match (kn.ty, kn.payload) {
            (NodeType::Symbol, Payload::Text(s)) => {
                scope.shadowed.push(s);
                pushed += 1;
            }
            _ => {
                params_ok = false;
                break;
            }
        }
        cur = kn.next;
    }
    let ok = params_ok && siblings_pure(interp, env, p.next, scope);
    scope.shadowed.truncate(scope.shadowed.len() - pushed);
    ok
}

/// The head-position symbol name of a list node, if it has one — the
/// shape `builtins::quasi::head_symbol_is` keys expansion on. Non-lists
/// and lists with a non-symbol head return `None`.
fn template_head_name(interp: &Interp, id: NodeId) -> Option<&[u8]> {
    let n = *interp.arena.get(id);
    let first = match (n.ty, n.payload) {
        (NodeType::List | NodeType::Expression, Payload::List { first, .. }) => first?,
        _ => return None,
    };
    let h = *interp.arena.get(first);
    match (h.ty, h.payload) {
        (NodeType::Symbol, Payload::Text(s)) => Some(interp.strings.get(s)),
        _ => None,
    }
}

/// `true` when expanding the subtree under `id` at quotation `level`
/// provably has no effect. Mirrors `builtins::quasi::expand` exactly:
///
/// * non-lists (marker symbols in data positions included) copy inertly;
/// * an `(unquote e)` / `(unquote-splicing e)` head at level 1 **fires**
///   — `e` is evaluated for real, so it must pass [`pure_rec`] under the
///   current shadow set; at a deeper level the form is kept as data and
///   its hole re-checked one level shallower;
/// * a nested `(quasiquote …)` head deepens the level for its children;
/// * any other list recurses element-wise at the same level.
///
/// A marker form with the wrong arity errors at expansion time before
/// any copying; it is rejected here (a barrier) rather than reasoned
/// about.
fn template_is_pure(
    interp: &Interp,
    env: EnvId,
    id: NodeId,
    level: u32,
    scope: &mut Scope,
) -> bool {
    let n = *interp.arena.get(id);
    let first = match (n.ty, n.payload) {
        (NodeType::List | NodeType::Expression, Payload::List { first, .. }) => first,
        (NodeType::List | NodeType::Expression, _) => return false, // corrupt list: barrier
        _ => return true,                                           // atoms copy as data
    };
    let Some(first) = first else {
        return true; // () copies as data
    };
    let h = *interp.arena.get(first);
    match template_head_name(interp, id) {
        Some(b"unquote") | Some(b"unquote-splicing") => {
            // Exactly (marker expr); any other arity errors at expansion.
            let Some(expr) = h.next else {
                return false;
            };
            if interp.arena.get(expr).next.is_some() {
                return false;
            }
            if level == 1 {
                // The hole fires: its expression evaluates for real.
                pure_rec(interp, env, expr, scope)
            } else {
                // Protected: kept as data, the hole re-expands one level
                // shallower (the marker symbol itself is inert).
                template_is_pure(interp, env, expr, level - 1, scope)
            }
        }
        // Nested backquote: children rebuild one level deeper (the
        // `quasiquote` marker symbol is inert; expansion applies no
        // arity check at nested positions, so none is applied here).
        Some(b"quasiquote") => template_kids_pure(interp, env, h.next, level + 1, scope),
        _ => template_kids_pure(interp, env, Some(first), level, scope),
    }
}

/// Walks a template sibling chain, requiring every element
/// [`template_is_pure`] at `level`.
fn template_kids_pure(
    interp: &Interp,
    env: EnvId,
    mut cur: Option<NodeId>,
    level: u32,
    scope: &mut Scope,
) -> bool {
    while let Some(id) = cur {
        if !template_is_pure(interp, env, id, level, scope) {
            return false;
        }
        cur = interp.arena.get(id).next;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::all_builtins;
    use crate::parser::parse;

    fn interp_with_prelude() -> Interp {
        let mut i = Interp::default();
        for line in [
            "(setq g 7)",
            "(setq xs (list 1 2 3))",
            "(defun f (x) (setq g (+ g x)))",
            "(defmacro m (x) x)",
        ] {
            i.eval_str(line).unwrap();
        }
        i
    }

    fn classify(i: &mut Interp, src: &str) -> bool {
        let forms = parse(i, src.as_bytes()).unwrap();
        assert_eq!(forms.len(), 1, "{src}");
        expr_is_pure(i, i.global, forms[0])
    }

    fn stageable(i: &mut Interp, src: &str) -> bool {
        let forms = parse(i, src.as_bytes()).unwrap();
        assert_eq!(forms.len(), 1, "{src}");
        stageable_parallel_section(i, i.global, forms[0])
    }

    #[test]
    fn every_builtin_has_a_deliberate_classification() {
        // The table covers the whole registry; the definers, I/O, code
        // runners and ||| itself must be impure.
        for def in all_builtins() {
            let effect = builtin_effect(def.name);
            let must_be_impure = matches!(
                def.name,
                "setq"
                    | "defun"
                    | "defmacro"
                    | "let"
                    | "let*"
                    | "eval"
                    | "quasiquote"
                    | "unquote"
                    | "unquote-splicing"
                    | "mapcar"
                    | "apply"
                    | "funcall"
                    | "read-file"
                    | "write-file"
                    | "file-exists"
                    | "|||"
            );
            if must_be_impure {
                assert_eq!(effect, BuiltinEffect::Impure, "{}", def.name);
            } else {
                assert_ne!(effect, BuiltinEffect::Impure, "{}", def.name);
            }
        }
        assert_eq!(builtin_effect("no-such-builtin"), BuiltinEffect::Impure);
    }

    #[test]
    fn atoms_and_symbols_are_pure() {
        let mut i = interp_with_prelude();
        for src in ["5", "1.25", "\"s\"", "nil", "T", "g", "unbound", "()"] {
            assert!(classify(&mut i, src), "{src}");
        }
    }

    #[test]
    fn pure_builtin_trees_are_pure() {
        let mut i = interp_with_prelude();
        for src in [
            "(+ 1 (* 2 3))",
            "(list g g (car xs))",
            "(cons (length xs) (reverse xs))",
            "(if (< g 0) (list 1 2) (list 3 4))",
            "(cond ((< g 0) 1) (T (append xs xs)))",
            "(concat \"a\" (number-to-string g))",
            "(dotimes (k (length xs)) (+ k 1))",
            "(dolist (x xs) (* x x))",
            "(quote (setq g 1))",
            "(lambda (x) (setq g x))",
            "(progn (and T (not nil)) (nth 1 xs))",
            // Unquote-free quasiquote templates expand by pure copying.
            "`(a b (c d))",
            "`(1 (2 (3)) \"s\")",
            "(quasiquote (setq g 1))", // a *template*, never evaluated
            "`(a `(b c))",             // nested backquote, still no holes
        ] {
            assert!(classify(&mut i, src), "{src}");
        }
    }

    #[test]
    fn quasiquote_holes_are_level_tracked() {
        let mut i = interp_with_prelude();
        // Firing holes with pure expressions: the whole template is pure.
        for src in [
            "`(a ,g)",                   // hole is a read-only lookup
            "`(1 ,(+ g 1) 3)",           // hole is a pure application
            "`(1 ,@xs 5)",               // splice of a pure list value
            "`(,@(append xs xs))",       // splice of a pure application
            "`(a ,(car `(b ,g)))",       // pure hole inside a pure hole
            "`(a `(b ,(+ 1 2)))",        // protected hole, pure when it fires
            "`(a `(b ,,g))",             // double comma: inner fires now
            "`(a (b unquote-splicing))", // marker in data position: inert
            "(quasiquote (unquote g))",  // `,g` spelled out
            "`(a ,(if (< g 0) xs nil))", // conditional hole
        ] {
            assert!(classify(&mut i, src), "{src}");
        }
        // Impure firing holes, malformed markers, top-level splices:
        // barrier.
        for src in [
            "`(a ,(f 1))",                  // hole runs user code
            "`(a ,(setq g 2))",             // hole mutates
            "`(a `(b ,,(f 1)))",            // inner comma fires user code now
            "`(a ,(eval (quote g)))",       // arbitrary evaluation in a hole
            "`(1 ,@(f 1) 5)",               // impure splice
            "(quasiquote (unquote (f 1)))", // `,(f 1)` spelled out
            "`(a (unquote))",               // malformed hole: wrong arity
            "`(a (unquote g extra))",       // malformed hole: wrong arity
            "`,@xs",                        // top-level splice errors
            "(quasiquote)",                 // malformed: no template
            "(quasiquote 1 2)",             // malformed: two templates
        ] {
            assert!(!classify(&mut i, src), "{src}");
        }
        // And as section operands: templates whose firing holes are pure
        // stage; user-code holes barrier.
        assert!(stageable(&mut i, "(||| 2 + (1 2) `(3 4))"));
        assert!(stageable(&mut i, "(||| 2 + (1 2) `(,g 4))"));
        assert!(stageable(&mut i, "(||| 2 + (1 2) `(,(+ g 1) ,@xs))"));
        assert!(!stageable(&mut i, "(||| 2 + (1 2) `(,(f 1) 4))"));
    }

    #[test]
    fn quasiquote_classification_agrees_with_expansion() {
        // Every template the classifier calls pure must actually expand
        // without touching persistent state: snapshot `g`, evaluate,
        // re-check.
        let mut i = interp_with_prelude();
        for src in ["`(a ,g)", "`(1 ,@xs 5)", "`(a `(b ,,g))", "`(a ,(car xs))"] {
            assert!(classify(&mut i, src), "{src}");
            let out = i.eval_str(src).unwrap();
            assert!(!out.is_empty());
            assert_eq!(i.eval_str("g").unwrap(), "7", "{src} mutated g");
        }
        // Shadowed loop variables poison holes exactly like other
        // expression positions: `x` may hold a callable at runtime.
        assert!(!classify(&mut i, "(dolist (x xs) `(a ,(x 1)))"));
        assert!(classify(&mut i, "(dolist (x xs) `(a ,x))"));
    }

    #[test]
    fn effects_are_rejected() {
        let mut i = interp_with_prelude();
        for src in [
            "(setq g 1)",
            "(defun h (x) x)",
            "(let y 5)",
            "(let* ((y 5)) y)",
            "(f 1)",                     // user form mutates g
            "(m (setq g 1))",            // macro expansion
            "(+ 1 (f 2))",               // impurity below a pure head
            "(list (f 1))",              // … and inside a constructor
            "(eval (quote (setq g 1)))", // arbitrary evaluation
            "(mapcar f xs)",             // applies a function value
            "(funcall f 1)",
            "(read-file \"x\")",     // host I/O
            "(||| 2 + (1 2) (3 4))", // nested section
            "((lambda (x) x) 5)",    // computed head
            "((f 1) 2)",             // computed head
            "(quasiquote (unquote (f 1)))",
        ] {
            assert!(!classify(&mut i, src), "{src}");
        }
    }

    #[test]
    fn mapcar_funcall_over_pure_callables_are_pure() {
        let mut i = interp_with_prelude();
        // The table keeps mapcar/funcall impure; these are the structural
        // re-admissions: visibly-pure callable + pure operands.
        for src in [
            "(mapcar 1+ xs)",
            "(mapcar abs (list -1 g))",
            "(mapcar (lambda (x) (* x x)) xs)",
            "(funcall + 1 2)",
            "(funcall (lambda (a b) (+ a b)) 1 g)",
            "(mapcar (lambda (x) (mapcar 1+ x)) (list xs xs))",
        ] {
            assert!(classify(&mut i, src), "{src}");
        }
        for src in [
            "(mapcar f xs)", // user form mutates g
            "(funcall f 1)",
            "(mapcar (lambda (x) (f x)) xs)", // impure lambda body
            "(mapcar (lambda (x) (x 1)) xs)", // application through a param
            "(mapcar nosuchfn xs)",           // unbound callable
            "(funcall (f 1) 2)",              // computed callable
            "(mapcar 1+ (f 1))",              // impure list operand
            "(funcall quote 1)",              // PureUnevaluated is not Pure
            "(apply + xs)",                   // apply stays unclassified
            "(mapcar)",                       // malformed: no operands
            "(mapcar (lambda) xs)",           // malformed lambda
            "(dolist (h (list f)) (funcall h 1))", // shadowed callable
        ] {
            assert!(!classify(&mut i, src), "{src}");
        }
        // As section operands: the pure shapes stage, the rest barrier.
        assert!(stageable(&mut i, "(||| 2 + (mapcar 1+ xs) (3 4))"));
        assert!(stageable(
            &mut i,
            "(||| 2 + (funcall (lambda (a) (list a a)) g) (3 4))"
        ));
        assert!(!stageable(&mut i, "(||| 2 + (mapcar f xs) (3 4))"));
    }

    #[test]
    fn loop_variables_poison_head_positions() {
        let mut i = interp_with_prelude();
        // x may be rebound to a callable at runtime: reject applications
        // through it, keep plain value uses.
        assert!(!classify(&mut i, "(dolist (x (list f)) (x 1))"));
        assert!(classify(&mut i, "(dolist (x xs) (+ x 1))"));
        // Nested loops restore the outer shadow set.
        assert!(!classify(
            &mut i,
            "(progn (dotimes (k 2) k) (dolist (x (list f)) (x 1)))"
        ));
        assert!(!classify(&mut i, "(progn (dotimes (k 2) (k)) 1)"));
    }

    #[test]
    fn redefined_pure_names_are_respected() {
        // Once `+` resolves to a user form, applications of it stop being
        // pure — resolution goes through the live environment, not the
        // name.
        let mut i = interp_with_prelude();
        assert!(classify(&mut i, "(+ 1 2)"));
        i.eval_str("(defun + (a b) (f a))").unwrap();
        assert!(!classify(&mut i, "(+ 1 2)"));
    }

    #[test]
    fn stageable_sections() {
        let mut i = interp_with_prelude();
        // Previously-barriered shapes: computed worker counts, list
        // constructors, conditionals, global reads.
        for src in [
            "(||| 2 + (1 2) (3 4))",
            "(||| (+ 1 1) + (1 2) (3 4))",
            "(||| 2 + (1 2) (list g g))",
            "(||| 2 f (1 2))", // impure *jobs* run isolated on workers
            "(||| 2 + (if (< g 0) (list 1 2) (list 3 4)) (5 6))",
            "(||| 2 (lambda (x) (* x x)) (1 2))",
        ] {
            assert!(stageable(&mut i, src), "{src}");
        }
        // Operand impurity, non-section commands, shadowed heads: barrier.
        for src in [
            "(setq g 1)",
            "(+ 1 2)",
            "(||| 2 + ((f 1) 2) (3 4))",
            "(||| (f 1) + (1 2) (3 4))",
            "(||| 2 + (mapcar f xs) (3 4))",
        ] {
            assert!(!stageable(&mut i, src), "{src}");
        }
    }

    #[test]
    fn classification_charges_nothing() {
        let mut i = interp_with_prelude();
        let forms = parse(&mut i, b"(||| (+ 1 1) + (list g g) (3 4))").unwrap();
        let before = i.meter.snapshot();
        assert!(stageable_parallel_section(&i, i.global, forms[0]));
        // As a nested *expression* the section itself is impure; both
        // verdicts must come back charge-free.
        assert!(!expr_is_pure(&i, i.global, forms[0]));
        let delta = i.meter.snapshot().delta_since(&before);
        assert_eq!(delta, Default::default(), "classifier charged the meter");
    }
}
