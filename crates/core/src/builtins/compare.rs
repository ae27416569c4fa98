//! Comparison built-ins: numeric ordering chains, `eq`, `equal`.

use super::util::{as_num, bool_node, eval_args, eval_args_scratch, expect_exact, expect_min};
use crate::error::Result;
use crate::eval::ParallelHook;
use crate::interp::Interp;
use crate::node::{NodeType, Payload};
use crate::types::{EnvId, NodeId};

fn chain(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
    name: &'static str,
    pred: fn(f64, f64) -> bool,
) -> Result<NodeId> {
    expect_min(name, args, 2)?;
    let values = eval_args_scratch(interp, hook, args, env, depth)?;
    let result = chain_values(interp, &values, name, pred);
    interp.put_node_buf(values);
    result
}

fn chain_values(
    interp: &mut Interp,
    values: &[NodeId],
    name: &'static str,
    pred: fn(f64, f64) -> bool,
) -> Result<NodeId> {
    let mut prev = as_num(interp, values[0], name)?.as_f64();
    for &v in &values[1..] {
        let cur = as_num(interp, v, name)?.as_f64();
        interp.meter.arith_op();
        if !pred(prev, cur) {
            return bool_node(interp, false);
        }
        prev = cur;
    }
    bool_node(interp, true)
}

/// `(= a b …)` — numeric equality chain.
pub fn num_eq(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    chain(interp, hook, args, env, depth, "=", |a, b| a == b)
}

/// `(/= a b …)` — true when **no two** of the numbers are equal (pairwise,
/// like Common Lisp).
pub fn num_ne(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    expect_min("/=", args, 2)?;
    let values = eval_args(interp, hook, args, env, depth)?;
    let mut nums = Vec::with_capacity(values.len());
    for v in &values {
        nums.push(as_num(interp, *v, "/=")?.as_f64());
    }
    for i in 0..nums.len() {
        for j in i + 1..nums.len() {
            interp.meter.arith_op();
            if nums[i] == nums[j] {
                return bool_node(interp, false);
            }
        }
    }
    bool_node(interp, true)
}

/// `(< a b …)`.
pub fn lt(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    chain(interp, hook, args, env, depth, "<", |a, b| a < b)
}

/// `(> a b …)`.
pub fn gt(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    chain(interp, hook, args, env, depth, ">", |a, b| a > b)
}

/// `(<= a b …)`.
pub fn le(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    chain(interp, hook, args, env, depth, "<=", |a, b| a <= b)
}

/// `(>= a b …)`.
pub fn ge(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    chain(interp, hook, args, env, depth, ">=", |a, b| a >= b)
}

/// `(eq a b)` — identity-style equality: same node, or same primitive
/// value. Interned strings/symbols with identical text compare equal (the
/// table dedups them).
pub fn eq_identity(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    expect_exact("eq", args, 2)?;
    let values = eval_args(interp, hook, args, env, depth)?;
    interp.meter.arith_op();
    if values[0] == values[1] {
        return bool_node(interp, true);
    }
    let a = interp.arena.get(values[0]);
    let b = interp.arena.get(values[1]);
    let same = a.ty == b.ty
        && match (a.payload, b.payload) {
            (Payload::Empty, Payload::Empty) => true,
            (Payload::Int(x), Payload::Int(y)) => x == y,
            (Payload::Float(x), Payload::Float(y)) => x == y,
            (Payload::Text(x), Payload::Text(y)) => x == y,
            (Payload::Builtin(x), Payload::Builtin(y)) => x == y,
            _ => false,
        };
    bool_node(interp, same)
}

/// `(equal a b)` — deep structural equality.
pub fn equal_deep(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    expect_exact("equal", args, 2)?;
    let values = eval_args(interp, hook, args, env, depth)?;
    let eq = deep_eq(interp, values[0], values[1]);
    bool_node(interp, eq)
}

/// Structural equality over node trees (public for tests and the runtime's
/// result validation).
///
/// An explicit-stack preorder walk, so no value depth can overflow the
/// thread stack: node pairs are visited (and charged one `arith_op` each)
/// in the same order, with the same short-circuits, as the recursive
/// definition — compare a pair, then its children left to right. The
/// pending pairs live in one pooled node buffer, two ids per pair, so the
/// walk allocates nothing per level.
pub fn deep_eq(interp: &mut Interp, a: NodeId, b: NodeId) -> bool {
    let mut pending = interp.take_node_buf();
    pending.extend([b, a]);
    let mut equal = true;
    while let (Some(a), Some(b)) = (pending.pop(), pending.pop()) {
        if !pair_eq(interp, a, b, &mut pending) {
            equal = false;
            break;
        }
    }
    interp.put_node_buf(pending);
    equal
}

/// Compares one pair shallowly. For two lists of equal length, pushes
/// their child pairs so that the first pair pops next.
fn pair_eq(interp: &mut Interp, a: NodeId, b: NodeId, pending: &mut Vec<NodeId>) -> bool {
    interp.meter.arith_op();
    if a == b {
        return true;
    }
    let na = *interp.arena.get(a);
    let nb = *interp.arena.get(b);
    let lists = |t: NodeType| matches!(t, NodeType::List | NodeType::Expression);
    if lists(na.ty) && lists(nb.ty) {
        if interp.arena.list_len(a) != interp.arena.list_len(b) {
            return false;
        }
        let start = pending.len();
        for (x, y) in interp.arena.iter_list(a).zip(interp.arena.iter_list(b)) {
            pending.extend([x, y]);
        }
        // Pairs were pushed first-to-last as (a-child, b-child); reversing
        // the range makes the first pair pop first, b-child below a-child.
        pending[start..].reverse();
        return true;
    }
    if na.ty != nb.ty {
        return false;
    }
    match (na.payload, nb.payload) {
        (Payload::Empty, Payload::Empty) => true,
        (Payload::Int(x), Payload::Int(y)) => x == y,
        (Payload::Float(x), Payload::Float(y)) => x == y,
        (Payload::Text(x), Payload::Text(y)) => x == y,
        (Payload::Builtin(x), Payload::Builtin(y)) => x == y,
        (
            Payload::Form {
                params: pa,
                body: ba,
            },
            Payload::Form {
                params: pb,
                body: bb,
            },
        ) => pa == pb && ba == bb,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use crate::cost::Counters;
    use crate::error::CuliError;
    use crate::interp::Interp;

    fn run(src: &str) -> String {
        Interp::default().eval_str(src).unwrap()
    }

    #[test]
    fn ordering_chains() {
        assert_eq!(run("(< 1 2 3)"), "T");
        assert_eq!(run("(< 1 3 2)"), "nil");
        assert_eq!(run("(> 3 2 1)"), "T");
        assert_eq!(run("(<= 1 1 2)"), "T");
        assert_eq!(run("(>= 2 2 1)"), "T");
        assert_eq!(run("(< 1 1)"), "nil");
    }

    #[test]
    fn numeric_equality_mixed_types() {
        assert_eq!(run("(= 1 1)"), "T");
        assert_eq!(run("(= 1 1.0)"), "T", "int and float compare numerically");
        assert_eq!(run("(= 1 2)"), "nil");
        assert_eq!(run("(= 2 2 2)"), "T");
    }

    #[test]
    fn pairwise_inequality() {
        assert_eq!(run("(/= 1 2 3)"), "T");
        assert_eq!(run("(/= 1 2 1)"), "nil", "first and third equal");
    }

    #[test]
    fn eq_on_primitives_and_symbols() {
        assert_eq!(run("(eq 1 1)"), "T");
        assert_eq!(run("(eq 'a 'a)"), "T");
        assert_eq!(run("(eq 'a 'b)"), "nil");
        assert_eq!(run("(eq nil nil)"), "T");
        assert_eq!(run("(eq \"x\" \"x\")"), "T", "interned strings share ids");
        assert_eq!(
            run("(eq (list 1 2) (list 1 2))"),
            "nil",
            "distinct list nodes"
        );
    }

    #[test]
    fn equal_is_structural() {
        assert_eq!(run("(equal (list 1 2) (list 1 2))"), "T");
        assert_eq!(run("(equal (list 1 (list 2 3)) (list 1 (list 2 3)))"), "T");
        assert_eq!(run("(equal (list 1 2) (list 1 3))"), "nil");
        assert_eq!(run("(equal (list 1 2) (list 1 2 3))"), "nil");
        assert_eq!(run("(equal 5 5)"), "T");
        assert_eq!(run("(equal 5 5.0)"), "nil", "equal is type-strict");
    }

    #[test]
    fn equal_charges_are_pinned() {
        // Whole-session counters after one shallow `equal`, as charged by
        // the recursive walk the explicit-stack one replaced: same pairs,
        // same order, same short-circuit.
        let pinned =
            |src: &str, out: &str, arith_ops: u64, chars_scanned: u64, output_bytes: u64| {
                let mut i = Interp::default();
                assert_eq!(i.eval_str(src).unwrap(), out);
                let want = Counters {
                    chars_scanned,
                    nodes_alloc: 116,
                    node_reads: 23,
                    eval_steps: 18,
                    env_probes: 324,
                    symbol_cmp_bytes: 1597,
                    arith_ops,
                    builtin_calls: 5,
                    output_bytes,
                    ..Counters::default()
                };
                assert_eq!(i.meter.snapshot(), want, "{src}");
            };
        pinned(
            "(equal (list 1 (list 2 3) \"a\") (list 1 (list 2 3) \"a\"))",
            "T",
            6,
            55,
            1,
        );
        pinned(
            "(equal (list 1 (list 2 3) 4) (list 1 (list 2 5) 4))",
            "nil",
            5,
            51,
            3,
        );
    }

    #[test]
    fn comparisons_need_numbers() {
        let e = Interp::default().eval_str("(< 'a 1)").unwrap_err();
        assert!(matches!(e, CuliError::Type { .. }));
    }

    #[test]
    fn arity_enforced() {
        let e = Interp::default().eval_str("(< 1)").unwrap_err();
        assert!(matches!(e, CuliError::Arity { .. }));
    }
}
