//! The parser — input string to parse tree (paper §III-B b).
//!
//! *"An opening parenthesis builds a new list ... This new list will be the
//! current list until the parser reaches a matching closing parenthesis. All
//! nodes generated within these two are added to the new list."* Token
//! classification follows the paper exactly: quoted ⇒ `N_STRING`, `nil`/`T`
//! ⇒ `N_NIL`/`N_TRUE`, number-looking ⇒ `N_INT`/`N_FLOAT` (dot ⇒ float),
//! everything else ⇒ `N_SYMBOL`.
//!
//! One extension: the reader shorthand `'x` expands to `(quote x)`.

use crate::error::{CuliError, Result};
use crate::interp::Interp;
use crate::node::Node;
use crate::types::NodeId;
use culi_strlib::ascii;
use culi_strlib::parse_num::{classify_number, NumParse};
use culi_strlib::scan::{next_token, Scan, Token, TokenKind};

/// Parses a complete input string into a sequence of top-level nodes.
///
/// The paper states every correct input "consists of at least one list";
/// we additionally accept bare atoms at top level (`5` evaluates to `5`),
/// which the reference REPL also tolerates in practice.
pub fn parse(interp: &mut Interp, input: &[u8]) -> Result<Vec<NodeId>> {
    let max_depth = interp.config.max_depth;
    let mut parser = Parser {
        interp,
        input,
        pos: 0,
        chars: 0,
        depth: 0,
        max_depth,
    };
    let forms = parser.parse_all()?;
    let scanned = parser.chars;
    interp.meter.chars_scanned(scanned);
    Ok(forms)
}

struct Parser<'a> {
    interp: &'a mut Interp,
    input: &'a [u8],
    pos: usize,
    chars: u64,
    depth: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn parse_all(&mut self) -> Result<Vec<NodeId>> {
        let mut forms = Vec::new();
        while let Some(tok) = self.next()? {
            let node = self.parse_node(tok)?;
            forms.push(node);
        }
        Ok(forms)
    }

    fn next(&mut self) -> Result<Option<Token>> {
        match next_token(self.input, self.pos, &mut self.chars) {
            Scan::Tok { tok, next } => {
                self.pos = next;
                Ok(Some(tok))
            }
            Scan::End => Ok(None),
            Scan::UnterminatedString { at } => Err(CuliError::UnterminatedString { at }),
        }
    }

    /// Parses one node starting from an already-fetched token.
    fn parse_node(&mut self, tok: Token) -> Result<NodeId> {
        match tok.kind {
            TokenKind::LParen => self.parse_list(),
            TokenKind::RParen => Err(CuliError::UnbalancedClose { at: tok.start }),
            TokenKind::Str => {
                let sid = self.interp.strings.intern(tok.text(self.input));
                self.interp.alloc(Node::string(sid))
            }
            TokenKind::Atom => self.classify_atom(tok),
            TokenKind::Quote => self.reader_macro(b"quote"),
            TokenKind::Backquote => self.reader_macro(b"quasiquote"),
            TokenKind::Unquote => self.reader_macro(b"unquote"),
            TokenKind::UnquoteSplice => self.reader_macro(b"unquote-splicing"),
        }
    }

    /// Expands `'x`, `` `x ``, `,x`, `,@x` into `(<name> x)`. Each one is
    /// one level against `max_depth`, like the list it expands to, so a
    /// run of leading quotes cannot recurse past the limit.
    fn reader_macro(&mut self, name: &[u8]) -> Result<NodeId> {
        self.nested(|p| {
            let inner_tok = p.next()?.ok_or(CuliError::UnbalancedOpen { depth: 1 })?;
            let inner = p.parse_node(inner_tok)?;
            let list = p.interp.alloc(Node::empty_list())?;
            let sym = p.interp.symbol(name)?;
            p.interp.arena.list_append(list, sym);
            p.interp.arena.list_append(list, inner);
            Ok(list)
        })
    }

    /// Parses the remainder of a list whose `(` has been consumed.
    fn parse_list(&mut self) -> Result<NodeId> {
        self.nested(Self::parse_list_inner)
    }

    /// Runs `f` one nesting level deeper, refusing past `max_depth`.
    fn nested(&mut self, f: impl FnOnce(&mut Self) -> Result<NodeId>) -> Result<NodeId> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(CuliError::RecursionLimit {
                limit: self.max_depth,
            });
        }
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn parse_list_inner(&mut self) -> Result<NodeId> {
        let list = self.interp.alloc(Node::empty_list())?;
        loop {
            let tok = match self.next()? {
                Some(t) => t,
                None => return Err(CuliError::UnbalancedOpen { depth: 1 }),
            };
            if tok.kind == TokenKind::RParen {
                return Ok(list);
            }
            let child = self.parse_node(tok)?;
            self.interp.arena.list_append(list, child);
        }
    }

    /// Applies the paper's atom-classification rules.
    fn classify_atom(&mut self, tok: Token) -> Result<NodeId> {
        let text = tok.text(self.input);
        // nil / T literals (case-insensitive, as classic Lisp readers are).
        if ascii::eq_ignore_case(text, b"nil") {
            return self.interp.alloc(Node::nil());
        }
        if ascii::eq_ignore_case(text, b"t") {
            return self.interp.alloc(Node::truth());
        }
        if ascii::is_number_start(text[0]) {
            match classify_number(text) {
                NumParse::Int(v) => return self.interp.alloc(Node::int(v)),
                NumParse::Float(v) => return self.interp.alloc(Node::float(v)),
                NumParse::NotANumber => {} // fall through to symbol (e.g. `+`)
            }
        }
        let sid = self.interp.strings.intern(text);
        self.interp.alloc(Node::symbol(sid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, InterpConfig};
    use crate::node::{NodeType, Payload};

    fn interp() -> Interp {
        Interp::new(InterpConfig::default())
    }

    fn parse_one(i: &mut Interp, src: &str) -> NodeId {
        let forms = parse(i, src.as_bytes()).unwrap();
        assert_eq!(forms.len(), 1, "expected one top-level form in {src:?}");
        forms[0]
    }

    #[test]
    fn atom_classification_matches_paper() {
        let mut i = interp();
        let cases = [
            ("42", NodeType::Int),
            ("-17", NodeType::Int),
            ("3.5", NodeType::Float),
            ("nil", NodeType::Nil),
            ("NIL", NodeType::Nil),
            ("T", NodeType::True),
            ("foo", NodeType::Symbol),
            ("+", NodeType::Symbol),
            ("\"hi\"", NodeType::Str),
        ];
        for (src, want) in cases {
            let id = parse_one(&mut i, src);
            assert_eq!(i.arena.get(id).ty, want, "{src}");
        }
    }

    #[test]
    fn nested_lists_build_a_tree() {
        let mut i = interp();
        // Paper Fig. 4: (+ (* 5 6) 1 2)
        let root = parse_one(&mut i, "(+ (* 5 6) 1 2)");
        let kids = i.arena.list_children(root);
        assert_eq!(kids.len(), 4);
        assert_eq!(i.arena.get(kids[0]).ty, NodeType::Symbol);
        assert_eq!(i.arena.get(kids[1]).ty, NodeType::List);
        let inner = i.arena.list_children(kids[1]);
        assert_eq!(inner.len(), 3);
        match i.arena.get(inner[1]).payload {
            Payload::Int(5) => {}
            other => panic!("expected 5, got {other:?}"),
        }
    }

    #[test]
    fn empty_list_parses() {
        let mut i = interp();
        let root = parse_one(&mut i, "()");
        assert_eq!(i.arena.list_len(root), 0);
    }

    #[test]
    fn multiple_top_level_forms() {
        let mut i = interp();
        let forms = parse(&mut i, b"(+ 1 2) (+ 3 4) 7").unwrap();
        assert_eq!(forms.len(), 3);
    }

    #[test]
    fn unbalanced_close_is_an_error() {
        let mut i = interp();
        assert_eq!(
            parse(&mut i, b"(+ 1 2))"),
            Err(CuliError::UnbalancedClose { at: 7 })
        );
    }

    #[test]
    fn unbalanced_open_is_an_error() {
        let mut i = interp();
        assert!(matches!(
            parse(&mut i, b"((+ 1 2)"),
            Err(CuliError::UnbalancedOpen { .. })
        ));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let mut i = interp();
        assert_eq!(
            parse(&mut i, b"(\"never closed)"),
            Err(CuliError::UnterminatedString { at: 1 })
        );
    }

    #[test]
    fn string_value_excludes_quotes() {
        let mut i = interp();
        let root = parse_one(&mut i, "\"hi there\"");
        match i.arena.get(root).payload {
            Payload::Text(sid) => assert_eq!(i.strings.get(sid), b"hi there"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quote_shorthand_expands() {
        let mut i = interp();
        let root = parse_one(&mut i, "'x");
        let kids = i.arena.list_children(root);
        assert_eq!(kids.len(), 2);
        match i.arena.get(kids[0]).payload {
            Payload::Text(sid) => assert_eq!(i.strings.get(sid), b"quote"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quote_shorthand_on_list() {
        let mut i = interp();
        let root = parse_one(&mut i, "'(1 2 3)");
        let kids = i.arena.list_children(root);
        assert_eq!(kids.len(), 2);
        assert_eq!(i.arena.list_len(kids[1]), 3);
    }

    #[test]
    fn parse_charges_chars_scanned() {
        let mut i = interp();
        let before = i.meter.snapshot();
        parse(&mut i, b"(+ 1 2)").unwrap();
        let d = i.meter.snapshot().delta_since(&before);
        assert!(d.chars_scanned >= 7, "scanned {} chars", d.chars_scanned);
        assert!(d.nodes_alloc >= 4, "allocated {} nodes", d.nodes_alloc);
    }

    #[test]
    fn arena_exhaustion_surfaces_from_parse() {
        // Capacity covers the builtin function nodes plus a couple of slots,
        // so a moderately sized input must trip ArenaFull mid-parse.
        let builtin_count = crate::builtins::all_builtins().len();
        let mut i = Interp::new(InterpConfig {
            arena_capacity: builtin_count + 2,
            ..Default::default()
        });
        let err = parse(&mut i, b"(+ 1 2 3 4 5 6)").unwrap_err();
        assert!(matches!(err, CuliError::ArenaFull { .. }), "{err:?}");
    }

    #[test]
    fn deeply_nested_input_parses() {
        let mut i = interp();
        let depth = 200;
        let src = format!("{}{}{}", "(".repeat(depth), "1", ")".repeat(depth));
        let forms = parse(&mut i, src.as_bytes()).unwrap();
        assert_eq!(forms.len(), 1);
    }

    #[test]
    fn reader_macros_count_against_the_depth_limit() {
        let mut i = interp();
        let limit = i.config.max_depth;
        let at_limit = format!("{}x", "'".repeat(limit));
        assert_eq!(parse(&mut i, at_limit.as_bytes()).unwrap().len(), 1);
        for prefix in ["'", "`", ",", ",@"] {
            let past = format!("{}x", prefix.repeat(limit + 1));
            let err = parse(&mut i, past.as_bytes()).unwrap_err();
            assert!(matches!(err, CuliError::RecursionLimit { .. }), "{err:?}");
        }
    }
}
