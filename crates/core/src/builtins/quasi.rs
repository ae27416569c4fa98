//! Quasiquotation: `` `template `` with `,expr` and `,@list-expr` holes.
//!
//! An extension over the paper's grammar (which only lists "macros" as a
//! feature); without quasiquote, non-trivial `defmacro`s are miserable to
//! write. Semantics follow Common Lisp:
//!
//! * `` `x `` copies the template;
//! * `,e` evaluates `e` and inserts the value;
//! * `,@e` evaluates `e` (which must yield a list) and splices its
//!   elements into the surrounding list;
//! * nested backquotes increase the quotation level; commas only fire at
//!   level 1.
//!
//! The template walk recurses once per nesting level, so it is bounded
//! like the parser: a template nested deeper than
//! [`crate::interp::InterpConfig::max_depth`] (only reachable by building
//! one at run time) fails with [`CuliError::RecursionLimit`]. The bound
//! counts template levels, not the evaluation `depth` handed to holes.

use super::util::{expect_exact, nil};
use crate::error::{CuliError, Result};
use crate::eval::{eval, ParallelHook};
use crate::interp::Interp;
use crate::node::{Node, NodeType, Payload};
use crate::types::{EnvId, NodeId};

/// One expanded template element: a plain value or a splice-me list.
enum Expanded {
    Value(NodeId),
    Splice(Vec<NodeId>),
}

fn head_symbol_is(interp: &Interp, list: NodeId, name: &[u8]) -> bool {
    let kids = interp.arena.list_children(list);
    match kids.first() {
        Some(&head) => {
            let n = interp.arena.get(head);
            matches!((n.ty, n.payload), (NodeType::Symbol, Payload::Text(s))
                if interp.strings.get(s) == name)
        }
        None => false,
    }
}

fn expand(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    node: NodeId,
    env: EnvId,
    depth: usize,
    level: u32,
    nest: usize,
) -> Result<Expanded> {
    let ty = interp.arena.get(node).ty;
    if !matches!(ty, NodeType::List | NodeType::Expression) {
        return Ok(Expanded::Value(node));
    }
    if nest >= interp.config.max_depth {
        return Err(CuliError::RecursionLimit {
            limit: interp.config.max_depth,
        });
    }
    // (unquote e)
    if head_symbol_is(interp, node, b"unquote") {
        let kids = interp.arena.list_children(node);
        if kids.len() != 2 {
            return Err(CuliError::Type {
                builtin: "quasiquote",
                expected: "(unquote expr)",
            });
        }
        if level == 1 {
            let v = eval(interp, hook, kids[1], env, depth + 1)?;
            return Ok(Expanded::Value(v));
        }
        // Deeper level: keep the form, expand inside with one level less.
        return rebuild(interp, hook, node, env, depth, level - 1, nest);
    }
    // (unquote-splicing e)
    if head_symbol_is(interp, node, b"unquote-splicing") {
        let kids = interp.arena.list_children(node);
        if kids.len() != 2 {
            return Err(CuliError::Type {
                builtin: "quasiquote",
                expected: "(unquote-splicing expr)",
            });
        }
        if level == 1 {
            let v = eval(interp, hook, kids[1], env, depth + 1)?;
            let items = match interp.arena.get(v).ty {
                NodeType::List | NodeType::Expression => interp.arena.list_children(v),
                NodeType::Nil => Vec::new(),
                _ => {
                    return Err(CuliError::Type {
                        builtin: "quasiquote",
                        expected: "a list to splice",
                    })
                }
            };
            return Ok(Expanded::Splice(items));
        }
        return rebuild(interp, hook, node, env, depth, level - 1, nest);
    }
    // (quasiquote t) nested: one level deeper.
    if head_symbol_is(interp, node, b"quasiquote") {
        return rebuild(interp, hook, node, env, depth, level + 1, nest);
    }
    rebuild(interp, hook, node, env, depth, level, nest)
}

/// Rebuilds a list template, expanding each child and inlining splices.
fn rebuild(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    node: NodeId,
    env: EnvId,
    depth: usize,
    level: u32,
    nest: usize,
) -> Result<Expanded> {
    let kids = interp.arena.list_children(node);
    let out = interp.alloc(Node::empty_list())?;
    for kid in kids {
        match expand(interp, hook, kid, env, depth, level, nest + 1)? {
            Expanded::Value(v) => {
                let copy = interp.copy_for_list(v)?;
                interp.arena.list_append(out, copy);
            }
            Expanded::Splice(items) => {
                for item in items {
                    let copy = interp.copy_for_list(item)?;
                    interp.arena.list_append(out, copy);
                }
            }
        }
    }
    Ok(Expanded::Value(out))
}

/// `(quasiquote template)` — see the module docs.
pub fn quasiquote(
    interp: &mut Interp,
    hook: &mut dyn ParallelHook,
    args: &[NodeId],
    env: EnvId,
    depth: usize,
) -> Result<NodeId> {
    expect_exact("quasiquote", args, 1)?;
    match expand(interp, hook, args[0], env, depth, 1, 0)? {
        Expanded::Value(v) => Ok(v),
        Expanded::Splice(_) => Err(CuliError::Type {
            builtin: "quasiquote",
            expected: "no top-level ,@",
        }),
    }
}

/// Bare `(unquote …)` outside a backquote is an error.
pub fn unquote_outside(
    interp: &mut Interp,
    _hook: &mut dyn ParallelHook,
    _args: &[NodeId],
    _env: EnvId,
    _depth: usize,
) -> Result<NodeId> {
    let _ = nil(interp); // keep the signature's side effects uniform
    Err(CuliError::Type {
        builtin: "unquote",
        expected: "use inside a quasiquote template",
    })
}

#[cfg(test)]
mod tests {
    use crate::interp::Interp;

    fn run(src: &str) -> String {
        Interp::default().eval_str(src).unwrap()
    }

    #[test]
    fn plain_backquote_acts_like_quote() {
        assert_eq!(run("`(1 2 3)"), "(1 2 3)");
        assert_eq!(run("`x"), "x");
        assert_eq!(run("`(a (b c))"), "(a (b c))");
    }

    #[test]
    fn unquote_inserts_values() {
        assert_eq!(run("`(1 ,(+ 1 1) 3)"), "(1 2 3)");
        let mut i = Interp::default();
        i.eval_str("(setq x 42)").unwrap();
        assert_eq!(
            i.eval_str("`(the answer is ,x)").unwrap(),
            "(the answer is 42)"
        );
    }

    #[test]
    fn splicing_inlines_lists() {
        let mut i = Interp::default();
        i.eval_str("(setq xs (list 2 3 4))").unwrap();
        assert_eq!(i.eval_str("`(1 ,@xs 5)").unwrap(), "(1 2 3 4 5)");
        assert_eq!(i.eval_str("`(,@xs)").unwrap(), "(2 3 4)");
        assert_eq!(i.eval_str("`(,@nil end)").unwrap(), "(end)");
    }

    #[test]
    fn nested_templates_expand_inner_levels_lazily() {
        // The inner backquote protects its commas by one level.
        let mut i = Interp::default();
        i.eval_str("(setq x 9)").unwrap();
        assert_eq!(
            i.eval_str("`(a `(b ,(c)))").unwrap(),
            "(a (quasiquote (b (unquote (c)))))"
        );
        assert_eq!(i.eval_str("`(out ,x)").unwrap(), "(out 9)");
    }

    #[test]
    fn macros_with_quasiquote() {
        let mut i = Interp::default();
        i.eval_str("(defmacro swap-args (f a b) `(,f ,b ,a))")
            .unwrap();
        assert_eq!(i.eval_str("(swap-args - 2 10)").unwrap(), "8");
        i.eval_str("(defmacro unless2 (c body) `(if ,c nil ,body))")
            .unwrap();
        assert_eq!(i.eval_str("(unless2 nil 7)").unwrap(), "7");
        assert_eq!(
            i.eval_str("(unless2 T (/ 1 0))").unwrap(),
            "nil",
            "lazy branch"
        );
    }

    #[test]
    fn bare_unquote_is_an_error() {
        assert!(Interp::default().eval_str(",x").is_err());
        assert!(Interp::default().eval_str("(unquote 5)").is_err());
    }

    #[test]
    fn splice_of_non_list_is_an_error() {
        assert!(Interp::default().eval_str("`(1 ,@5)").is_err());
    }

    #[test]
    fn template_walk_is_bounded_by_max_depth() {
        use crate::error::CuliError;
        use crate::interp::InterpConfig;
        let mut i = Interp::new(InterpConfig {
            max_depth: 8,
            ..Default::default()
        });
        // The deepest template the parser accepts (the backquote is one
        // level) still expands, and so does one at the walk's own limit...
        let template = format!("{}x{}", "(".repeat(7), ")".repeat(7));
        assert_eq!(
            i.eval_str(&format!("`{template}")).unwrap(),
            template.as_str()
        );
        i.eval_str("(setq x nil)").unwrap();
        i.eval_str("(dotimes (k 8) (setq x (list x)))").unwrap();
        assert!(i.eval_str("(eval (list 'quasiquote x))").is_ok());
        // ...while a deeper one built at run time is refused.
        i.eval_str("(setq x (list x))").unwrap();
        assert!(i.eval_str("`((((((((x))))))))").is_err(), "unparsable");
        assert_eq!(
            i.eval_str("(eval (list 'quasiquote x))"),
            Err(CuliError::RecursionLimit { limit: 8 })
        );
    }
}
