//! The evaluator — recursive traversal of the parse tree (paper §III-B c).
//!
//! The dispatch follows the paper to the letter:
//!
//! * `N_SYMBOL` — look the symbol up through the environment chain; the
//!   first occurrence replaces it ("late binding"). **If there is no
//!   matching symbol, the symbol is not replaced** — unbound symbols
//!   evaluate to themselves, a deliberate CuLi quirk we preserve.
//! * `N_LIST` — evaluate the first element to decide whether the list is an
//!   expression (head is a built-in `N_FUNCTION`) or a form application
//!   (head is an `N_FORM`); otherwise evaluate all elements and return the
//!   resulting list.
//! * Expression: children are handed to the built-in **unevaluated**
//!   ("built-in functions might use them without evaluation, e.g. `setq`").
//! * Form: arguments are evaluated, a fresh environment binds the
//!   parameters, and the stored body is evaluated there. The new
//!   environment's parent is the *caller's* environment — CuLi is
//!   dynamically scoped, which is what lets the paper say "functions can
//!   behave differently to the same parameters in different environments".
//! * Anything else is a primitive and evaluates to itself.
//!
//! # Hot-path discipline
//!
//! The recursive walk is heap-allocation-free in steady state: list
//! children are gathered by following the sibling chain into pooled
//! scratch buffers ([`Interp::take_node_buf`]), form application reuses
//! pooled buffers for argument values and parameter symbols, and symbol
//! resolution goes through the indexed environment (see [`crate::env`]).
//! Only arena nodes — the paper's one real allocation — are created per
//! step, and their allocator is O(1) (see [`crate::arena`]).

use crate::error::{CuliError, Result};
use crate::interp::Interp;
use crate::node::{Node, NodeType, Payload};
use crate::types::{EnvId, NodeId};

/// Backend for `|||` parallel sections.
///
/// The core evaluator is backend-agnostic: when it reaches a `|||`
/// expression it builds one expression per worker (paper §III-D a) and asks
/// the hook to evaluate them. `culi-runtime` provides the GPU postbox
/// implementation and a real-thread CPU implementation; the default
/// [`SequentialHook`] evaluates jobs in order, which is semantically
/// identical (CuLi workers are side-effect-isolated).
pub trait ParallelHook {
    /// Evaluates each job expression in its own child environment of
    /// `parent_env`, appending results to `results` in job order.
    ///
    /// `results` is a caller-provided (pooled) buffer: `|||` hands every
    /// backend the same recycled scratch so a warm section performs no
    /// per-section heap allocation for result collection. Implementations
    /// must push exactly one value per job on success; on error the buffer
    /// contents are unspecified (the caller discards them).
    fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: EnvId,
        results: &mut Vec<NodeId>,
    ) -> Result<()>;

    /// The number of workers this backend can serve, if bounded. The GPU
    /// backend's grid has a fixed worker count; `|||` rejects requests
    /// beyond it with [`CuliError::TooManyWorkers`].
    fn max_workers(&self) -> Option<usize> {
        None
    }
}

/// Evaluates jobs one after another on the calling thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct SequentialHook;

impl ParallelHook for SequentialHook {
    fn execute(
        &mut self,
        interp: &mut Interp,
        jobs: &[NodeId],
        parent_env: EnvId,
        results: &mut Vec<NodeId>,
    ) -> Result<()> {
        for (w, &job) in jobs.iter().enumerate() {
            // Paper §III-D b: each worker's subtree is rooted in an
            // environment whose parent is the |||-expression's environment.
            let env = interp.envs.push(Some(parent_env));
            let value = eval(interp, self, job, env, 0).map_err(|e| CuliError::in_worker(w, &e))?;
            results.push(value);
        }
        Ok(())
    }
}

/// Evaluates `node` in `env`. `depth` is the current recursion depth.
pub fn eval(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    node: NodeId,
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    if depth > interp.config.max_depth {
        return Err(CuliError::RecursionLimit {
            limit: interp.config.max_depth,
        });
    }
    interp.meter.eval_step();
    // Fuel is checked *after* charging, at the one point every unbounded
    // loop must pass through (any runaway program re-enters `eval`), so
    // counters stay identical to an un-limited run up to the abort.
    if interp.meter.fuel_exhausted() {
        return Err(CuliError::FuelExhausted {
            budget: interp.meter.fuel_budget(),
        });
    }
    let n = *interp.arena.read(node, &mut interp.meter);
    match n.ty {
        NodeType::Symbol => {
            let sid = match n.payload {
                Payload::Text(s) => s,
                _ => return Err(CuliError::Internal("symbol without text")),
            };
            match interp
                .envs
                .lookup(env, sid, &interp.strings, &mut interp.meter)
            {
                Some(bound) => Ok(bound),
                None => Ok(node), // unbound symbols evaluate to themselves
            }
        }
        NodeType::List | NodeType::Expression => {
            let head = match n.payload {
                Payload::List {
                    first: Some(first), ..
                } => first,
                Payload::List { first: None, .. } => {
                    return Ok(node); // () evaluates to itself (nil-valued)
                }
                _ => return Err(CuliError::Internal("list without list payload")),
            };
            // Collect the argument ids by walking the sibling chain into a
            // pooled buffer: no per-eval Vec, and builtins still see a
            // contiguous `&[NodeId]`.
            let mut args = interp.take_node_buf();
            let mut cur = interp.arena.get(head).next;
            while let Some(id) = cur {
                args.push(id);
                cur = interp.arena.get(id).next;
            }
            let head_val = match eval_head(interp, hook, head, env, depth) {
                Ok(v) => v,
                Err(e) => {
                    interp.put_node_buf(args);
                    return Err(e);
                }
            };
            let head_node = *interp.arena.read(head_val, &mut interp.meter);
            let result = match head_node.ty {
                NodeType::Function => match head_node.payload {
                    Payload::Builtin(b) => {
                        interp.meter.builtin_call();
                        let f = interp.builtins.func(b);
                        f(interp, hook, &args, env, depth)
                    }
                    _ => Err(CuliError::Internal("function without builtin id")),
                },
                NodeType::Form => apply_form(interp, hook, head_val, &args, env, depth),
                NodeType::Macro => apply_macro(interp, hook, head_val, &args, env, depth),
                _ => eval_plain_list(interp, hook, head_val, &args, env, depth),
            };
            interp.put_node_buf(args);
            result
        }
        // Primitives (and already-built functions/forms) are returned
        // unchanged.
        _ => Ok(node),
    }
}

/// Charges the meter exactly as [`eval`] does when dispatching a
/// `(sym …)` expression whose head resolves to a value — one eval step
/// and node read for the expression, the inlined symbol-head step, read
/// and environment lookup, the resolved head's read, and (for a builtin
/// head) the call charge — while collecting the operand ids into `args`.
/// Returns the resolved head value (or the head node itself when the
/// symbol is unbound, mirroring self-evaluation).
///
/// This exists for dispatchers that need to *take over* after the
/// evaluator's dispatch point without re-entering [`eval`] — the
/// pipelined `|||` REPL path in `culi-runtime` stages a section's jobs
/// through it so its meter charges stay bit-identical to the recursive
/// path (the cross-backend differential harness asserts this).
pub fn charge_symbol_head_dispatch(
    interp: &mut Interp,
    form: NodeId,
    env: EnvId,
    args: &mut Vec<NodeId>,
) -> Result<NodeId> {
    interp.meter.eval_step();
    let n = *interp.arena.read(form, &mut interp.meter);
    let first = match n.payload {
        Payload::List {
            first: Some(first), ..
        } => first,
        _ => return Err(CuliError::Internal("symbol-head dispatch on a non-list")),
    };
    let mut cur = interp.arena.get(first).next;
    while let Some(id) = cur {
        args.push(id);
        cur = interp.arena.get(id).next;
    }
    interp.meter.eval_step();
    let h = *interp.arena.read(first, &mut interp.meter);
    let sid = match h.payload {
        Payload::Text(s) if h.ty == NodeType::Symbol => s,
        _ => {
            return Err(CuliError::Internal(
                "symbol-head dispatch on a non-symbol head",
            ))
        }
    };
    let head_val = interp
        .envs
        .lookup(env, sid, &interp.strings, &mut interp.meter)
        .unwrap_or(first);
    let head_node = *interp.arena.read(head_val, &mut interp.meter);
    if head_node.ty == NodeType::Function {
        interp.meter.builtin_call();
    }
    Ok(head_val)
}

/// Evaluates the head position of a list. Symbol heads — the common case:
/// every `(f …)` call — resolve inline instead of re-entering [`eval`],
/// with metering identical to the recursive path (one eval step, one node
/// read, the lookup's charges, and the same recursion-limit check).
#[inline]
fn eval_head(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    head: NodeId,
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    if interp.arena.get(head).ty == NodeType::Symbol {
        if depth + 1 > interp.config.max_depth {
            return Err(CuliError::RecursionLimit {
                limit: interp.config.max_depth,
            });
        }
        interp.meter.eval_step();
        let n = *interp.arena.read(head, &mut interp.meter);
        let sid = match n.payload {
            Payload::Text(s) => s,
            _ => return Err(CuliError::Internal("symbol without text")),
        };
        return Ok(
            match interp
                .envs
                .lookup(env, sid, &interp.strings, &mut interp.meter)
            {
                Some(bound) => bound,
                None => head, // unbound symbols evaluate to themselves
            },
        );
    }
    eval(interp, hook, head, env, depth + 1)
}

/// "Not an expression or form": evaluate all elements and return the
/// resulting list. `head_val` is the already-evaluated first element.
fn eval_plain_list(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    head_val: NodeId,
    rest: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    let result = interp.alloc(Node::empty_list())?;
    let first = interp.copy_for_list(head_val)?;
    interp.arena.list_append(result, first);
    for &kid in rest {
        let v = eval(interp, hook, kid, env, depth + 1)?;
        let v = interp.copy_for_list(v)?;
        interp.arena.list_append(result, v);
    }
    Ok(result)
}

/// Applies a user-defined form: evaluate arguments, bind parameters in a
/// fresh environment chained to the caller's, evaluate the stored body.
/// Argument values and parameter symbols live in pooled scratch buffers,
/// so steady-state application is heap-allocation-free.
pub fn apply_form(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    form: NodeId,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    let (params, body) = match interp.arena.get(form).payload {
        Payload::Form { params, body } => (params, body),
        _ => return Err(CuliError::Internal("apply_form on non-form")),
    };
    let mut param_syms = interp.take_sym_buf();
    if let Err(e) = param_symbols_into(interp, params, &mut param_syms) {
        interp.put_sym_buf(param_syms);
        return Err(e);
    }
    if param_syms.len() != args.len() {
        let expected = arity_name(param_syms.len());
        interp.put_sym_buf(param_syms);
        return Err(CuliError::Arity {
            builtin: "form application",
            expected,
            got: args.len(),
        });
    }
    // Evaluate arguments in the caller's environment first …
    let mut values = interp.take_node_buf();
    for &a in args {
        match eval(interp, hook, a, env, depth + 1) {
            Ok(v) => values.push(v),
            Err(e) => {
                interp.put_sym_buf(param_syms);
                interp.put_node_buf(values);
                return Err(e);
            }
        }
    }
    // … then bind them in a fresh environment and evaluate the body there.
    interp.meter.form_apply();
    let call_env = interp.envs.push(Some(env));
    for (&sym, &value) in param_syms.iter().zip(values.iter()) {
        interp.envs.define(call_env, sym, value, &interp.strings);
    }
    interp.put_sym_buf(param_syms);
    interp.put_node_buf(values);
    eval(interp, hook, body, call_env, depth + 1)
}

/// Applies a macro: bind the *unevaluated* argument nodes, evaluate the body
/// to obtain the expansion, then evaluate the expansion in the caller's
/// environment.
fn apply_macro(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    mac: NodeId,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    let (params, body) = match interp.arena.get(mac).payload {
        Payload::Form { params, body } => (params, body),
        _ => return Err(CuliError::Internal("apply_macro on non-macro")),
    };
    let mut param_syms = interp.take_sym_buf();
    if let Err(e) = param_symbols_into(interp, params, &mut param_syms) {
        interp.put_sym_buf(param_syms);
        return Err(e);
    }
    if param_syms.len() != args.len() {
        let expected = arity_name(param_syms.len());
        interp.put_sym_buf(param_syms);
        return Err(CuliError::Arity {
            builtin: "macro application",
            expected,
            got: args.len(),
        });
    }
    interp.meter.form_apply();
    let expand_env = interp.envs.push(Some(env));
    for (&sym, &arg) in param_syms.iter().zip(args) {
        interp.envs.define(expand_env, sym, arg, &interp.strings);
    }
    interp.put_sym_buf(param_syms);
    let expansion = eval(interp, hook, body, expand_env, depth + 1)?;
    eval(interp, hook, expansion, env, depth + 1)
}

/// Collects the parameter symbols of a form's parameter list into a
/// caller-provided (pooled) buffer, walking the sibling chain directly.
fn param_symbols_into(
    interp: &Interp,
    params: NodeId,
    out: &mut Vec<crate::types::StrId>,
) -> Result<()> {
    for kid in interp.arena.iter_list(params) {
        match interp.arena.get(kid).payload {
            Payload::Text(s) if interp.arena.get(kid).ty == NodeType::Symbol => out.push(s),
            _ => {
                return Err(CuliError::Type {
                    builtin: "form application",
                    expected: "parameter list of symbols",
                })
            }
        }
    }
    Ok(())
}

fn arity_name(n: usize) -> &'static str {
    // Only used in error messages; avoids allocating in the common path.
    match n {
        0 => "exactly 0",
        1 => "exactly 1",
        2 => "exactly 2",
        3 => "exactly 3",
        4 => "exactly 4",
        _ => "the declared parameter count",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::InterpConfig;

    fn run(src: &str) -> String {
        Interp::default().eval_str(src).unwrap()
    }

    fn run_err(src: &str) -> CuliError {
        Interp::default().eval_str(src).unwrap_err()
    }

    #[test]
    fn paper_headline_example() {
        // Paper §III-A: (* 2 (+ 4 3) 6) = 84
        assert_eq!(run("(* 2 (+ 4 3) 6)"), "84");
    }

    #[test]
    fn primitives_self_evaluate() {
        assert_eq!(run("5"), "5");
        assert_eq!(run("1.25"), "1.25");
        assert_eq!(run("nil"), "nil");
        assert_eq!(run("T"), "T");
        assert_eq!(run("\"s\""), "\"s\"");
    }

    #[test]
    fn unbound_symbols_evaluate_to_themselves() {
        // Paper: "If there is no matching symbol, the symbol is not
        // replaced."
        assert_eq!(run("frobnicate"), "frobnicate");
    }

    #[test]
    fn non_function_list_evaluates_elements() {
        assert_eq!(run("(1 2 3)"), "(1 2 3)");
        assert_eq!(run("(1 (+ 1 1) 3)"), "(1 2 3)");
    }

    #[test]
    fn empty_list_evaluates_to_itself() {
        assert_eq!(run("()"), "()");
    }

    #[test]
    fn defun_and_recursion() {
        let mut i = Interp::default();
        i.eval_str("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
            .unwrap();
        assert_eq!(i.eval_str("(fib 5)").unwrap(), "5");
        assert_eq!(i.eval_str("(fib 10)").unwrap(), "55");
    }

    #[test]
    fn recursion_limit_enforced() {
        let mut i = Interp::new(InterpConfig {
            max_depth: 64,
            ..Default::default()
        });
        i.eval_str("(defun inf (n) (inf (+ n 1)))").unwrap();
        assert!(matches!(
            i.eval_str("(inf 0)").unwrap_err(),
            CuliError::RecursionLimit { limit: 64 }
        ));
    }

    #[test]
    fn form_arity_checked() {
        let mut i = Interp::default();
        i.eval_str("(defun two (a b) (+ a b))").unwrap();
        assert!(matches!(
            i.eval_str("(two 1)").unwrap_err(),
            CuliError::Arity { got: 1, .. }
        ));
    }

    #[test]
    fn dynamic_scoping_visible_through_call_chain() {
        // Callee sees the caller's let-binding: CuLi environments chain to
        // the caller, not the definition site.
        let mut i = Interp::default();
        i.eval_str("(defun get-x () x)").unwrap();
        i.eval_str("(defun with-x () (progn (let x 99) (get-x)))")
            .unwrap();
        assert_eq!(i.eval_str("(with-x)").unwrap(), "99");
    }

    #[test]
    fn lambda_applies_inline() {
        assert_eq!(run("((lambda (x y) (* x y)) 6 7)"), "42");
    }

    #[test]
    fn worker_failure_reports_index() {
        let err = run_err("(||| 2 / (1 2) (1 0))");
        match err {
            CuliError::WorkerFailed { worker, message } => {
                assert_eq!(worker, 1);
                assert!(message.contains("zero"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eval_steps_counted() {
        let mut i = Interp::default();
        let before = i.meter.snapshot();
        i.eval_str("(+ 1 2)").unwrap();
        let d = i.meter.snapshot().delta_since(&before);
        assert!(d.eval_steps >= 4, "eval steps {}", d.eval_steps);
        assert_eq!(d.builtin_calls, 1);
    }
}
