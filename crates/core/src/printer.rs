//! The printer — result tree to output string (paper §III-B d).
//!
//! *"The tree's nodes are passed in postfix order to the printer that
//! generates the output string. For each node it appends the corresponding
//! string representation to the output string."* The output buffer has a
//! fixed capacity (it is the device half of the command buffer), so
//! overflow is a real error.

use crate::error::{CuliError, Result};
use crate::interp::Interp;
use crate::node::{NodeType, Payload};
use crate::types::NodeId;
use culi_strlib::StrBuf;

/// Prints `node` through a pooled buffer of the interpreter's configured
/// output capacity and returns the bytes. The working buffer comes from
/// [`Interp::take_print_buf`], so repeated printing reuses its capacity —
/// only the returned copy is a fresh allocation (callers that can consume
/// the bytes in place should use [`print_into`] with their own pooled
/// buffer instead).
pub fn print(interp: &mut Interp, node: NodeId) -> Result<Vec<u8>> {
    let mut buf = interp.take_print_buf();
    let result = print_into(interp, node, &mut buf);
    let out = result.map(|_| buf.as_bytes().to_vec());
    interp.put_print_buf(buf);
    out
}

/// Prints `node` to the end of `buf`.
pub fn print_into(interp: &mut Interp, node: NodeId, buf: &mut StrBuf) -> Result<()> {
    let cap = buf.capacity();
    let before = buf.len();
    let result = walk(interp, node, buf);
    let written = (buf.len() - before) as u64;
    interp.meter.output_bytes(written);
    result.map_err(|_| CuliError::OutputFull { capacity: cap })
}

/// Convenience: print to a `String` (UTF-8-lossy; CuLi text is ASCII).
/// Like [`print()`], the working buffer is pooled on the interpreter; only
/// the returned `String` itself is allocated.
pub fn print_to_string(interp: &mut Interp, node: NodeId) -> Result<String> {
    let mut buf = interp.take_print_buf();
    let result = print_into(interp, node, &mut buf);
    let out = result.map(|_| String::from_utf8_lossy(buf.as_bytes()).into_owned());
    interp.put_print_buf(buf);
    out
}

type BufResult = core::result::Result<(), culi_strlib::buf::BufFull>;

/// One step of the printer's explicit-stack walk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// Print this node.
    Node(NodeId),
    /// This list element is printed: continue with its next sibling, or
    /// close the list.
    After(NodeId),
}

/// Postfix printing over an explicit stack (pooled on the interpreter),
/// so a value of any depth prints without recursion.
fn walk(interp: &mut Interp, root: NodeId, buf: &mut StrBuf) -> BufResult {
    let mut stack = std::mem::take(&mut interp.scratch.print_steps);
    stack.clear();
    stack.push(Step::Node(root));
    let result = walk_steps(interp, &mut stack, buf);
    interp.scratch.print_steps = stack;
    result
}

fn walk_steps(interp: &mut Interp, stack: &mut Vec<Step>, buf: &mut StrBuf) -> BufResult {
    while let Some(step) = stack.pop() {
        let node = match step {
            Step::Node(node) => node,
            Step::After(kid) => {
                // Follow the sibling chain directly — no per-list child
                // vector.
                match interp.arena.get(kid).next {
                    Some(next) => {
                        buf.push(b' ')?;
                        stack.push(Step::After(next));
                        stack.push(Step::Node(next));
                    }
                    None => buf.push(b')')?,
                }
                continue;
            }
        };
        let n = *interp.arena.get(node);
        match n.ty {
            NodeType::Nil => buf.push_bytes(b"nil")?,
            NodeType::True => buf.push_bytes(b"T")?,
            NodeType::Int => match n.payload {
                Payload::Int(v) => {
                    interp.meter.number_format();
                    buf.push_i64(v)?
                }
                _ => unreachable!("int node without int payload"),
            },
            NodeType::Float => match n.payload {
                Payload::Float(v) => {
                    interp.meter.number_format();
                    buf.push_f64(v)?
                }
                _ => unreachable!("float node without float payload"),
            },
            NodeType::Str => match n.payload {
                Payload::Text(s) => {
                    buf.push(b'"')?;
                    buf.push_bytes(interp.strings.get(s))?;
                    buf.push(b'"')?
                }
                _ => unreachable!("string node without text payload"),
            },
            NodeType::Symbol => match n.payload {
                Payload::Text(s) => buf.push_bytes(interp.strings.get(s))?,
                _ => unreachable!("symbol node without text payload"),
            },
            NodeType::Function => match n.payload {
                Payload::Builtin(b_id) => {
                    buf.push_bytes(b"#<builtin ")?;
                    let name = interp.builtins.name(b_id);
                    buf.push_bytes(name.as_bytes())?;
                    buf.push(b'>')?
                }
                _ => unreachable!("function node without builtin payload"),
            },
            NodeType::Form => buf.push_bytes(b"#<form>")?,
            NodeType::Macro => buf.push_bytes(b"#<macro>")?,
            NodeType::List | NodeType::Expression => {
                buf.push(b'(')?;
                match n.payload {
                    Payload::List {
                        first: Some(first), ..
                    } => {
                        stack.push(Step::After(first));
                        stack.push(Step::Node(first));
                    }
                    _ => buf.push(b')')?,
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, InterpConfig};
    use crate::parser::parse;

    fn roundtrip(src: &str) -> String {
        let mut i = Interp::new(InterpConfig::default());
        let forms = parse(&mut i, src.as_bytes()).unwrap();
        print_to_string(&mut i, forms[0]).unwrap()
    }

    #[test]
    fn primitives_print() {
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("1.5"), "1.5");
        assert_eq!(roundtrip("nil"), "nil");
        assert_eq!(roundtrip("T"), "T");
        assert_eq!(roundtrip("foo"), "foo");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn lists_print_parenthesized() {
        assert_eq!(roundtrip("(1 2 3)"), "(1 2 3)");
        assert_eq!(roundtrip("()"), "()");
        assert_eq!(roundtrip("(a (b c) d)"), "(a (b c) d)");
    }

    #[test]
    fn print_normalizes_whitespace() {
        assert_eq!(roundtrip("(  1    2\n3 )"), "(1 2 3)");
    }

    #[test]
    fn output_overflow_is_an_error() {
        let mut i = Interp::new(InterpConfig {
            output_capacity: 4,
            ..Default::default()
        });
        let forms = parse(&mut i, b"(1 2 3 4 5)").unwrap();
        assert_eq!(
            print(&mut i, forms[0]),
            Err(CuliError::OutputFull { capacity: 4 })
        );
    }

    #[test]
    fn printing_charges_output_bytes() {
        let mut i = Interp::new(InterpConfig::default());
        let forms = parse(&mut i, b"(1 2 3)").unwrap();
        let before = i.meter.snapshot();
        print(&mut i, forms[0]).unwrap();
        let d = i.meter.snapshot().delta_since(&before);
        assert_eq!(d.output_bytes, 7); // "(1 2 3)"
        assert_eq!(d.number_formats, 3);
    }

    #[test]
    fn pooled_print_buffer_is_cleared_between_prints() {
        let mut i = Interp::new(InterpConfig::default());
        let forms = parse(&mut i, b"(1 2 3) (4 5)").unwrap();
        assert_eq!(print_to_string(&mut i, forms[0]).unwrap(), "(1 2 3)");
        assert_eq!(print_to_string(&mut i, forms[1]).unwrap(), "(4 5)");
        assert_eq!(print_to_string(&mut i, forms[0]).unwrap(), "(1 2 3)");
    }

    #[test]
    fn overflow_recycles_the_buffer() {
        let mut i = Interp::new(InterpConfig {
            output_capacity: 4,
            ..Default::default()
        });
        let forms = parse(&mut i, b"(1 2 3 4 5) 7").unwrap();
        assert!(print(&mut i, forms[0]).is_err());
        assert_eq!(print_to_string(&mut i, forms[1]).unwrap(), "7");
    }

    #[test]
    fn builtin_node_prints_with_name() {
        let mut i = Interp::new(InterpConfig::default());
        // `+` resolves to its function node during eval; print one directly.
        let plus = i.lookup_global(b"+").expect("+ registered");
        let s = print_to_string(&mut i, plus).unwrap();
        assert_eq!(s, "#<builtin +>");
    }
}
