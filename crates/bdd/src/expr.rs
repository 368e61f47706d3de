//! A small Boolean expression parser for building BDDs in tests, examples
//! and netlist descriptions.
//!
//! Grammar (loosest binding first):
//!
//! ```text
//! expr   := iff
//! iff    := imp ( ("<->" | "<=>") imp )*
//! imp    := or ( ("->" | "=>") or )*          (right associative)
//! or     := xor ( ("|" | "+") xor )*
//! xor    := and ( "^" and )*
//! and    := unary ( ("&" | "*") unary )*
//! unary  := ("!" | "~") unary | atom
//! atom   := "0" | "1" | ident | "(" expr ")"
//! ```
//!
//! Runs of negations and chains of implications are parsed with loops,
//! so their length never costs stack. Parentheses recurse, and nest at
//! most [`MAX_EXPR_DEPTH`] deep; deeper input is an error at the
//! offending `(`. Operators are applied with the checked kernel ops, so
//! an operand too deep for the kernel's recursion guard (a conjunction
//! of more than [`MAX_REC_DEPTH`](crate::MAX_REC_DEPTH) variables, say)
//! is an error at the operator's byte rather than a panic.

use std::fmt;

use crate::edge::Edge;
use crate::manager::Bdd;

/// Deepest parenthesis nesting [`Bdd::from_expr`] accepts. Each level
/// costs one pass through the grammar's recursion, so the cap bounds
/// the parser's stack use on hostile input.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Error produced by [`Bdd::from_expr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseExprError {
    message: String,
    position: usize,
}

impl ParseExprError {
    fn new(message: impl Into<String>, position: usize) -> Self {
        ParseExprError {
            message: message.into(),
            position,
        }
    }

    /// Byte offset of the error in the input.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for ParseExprError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Token {
    Ident(String),
    Const(bool),
    Not,
    And,
    Or,
    Xor,
    Implies,
    Iff,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> Result<Vec<(Token, usize)>, ParseExprError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '!' | '~' => {
                tokens.push((Token::Not, start));
                i += 1;
            }
            '&' | '*' => {
                tokens.push((Token::And, start));
                i += 1;
            }
            '|' | '+' => {
                tokens.push((Token::Or, start));
                i += 1;
            }
            '^' => {
                tokens.push((Token::Xor, start));
                i += 1;
            }
            '(' => {
                tokens.push((Token::LParen, start));
                i += 1;
            }
            ')' => {
                tokens.push((Token::RParen, start));
                i += 1;
            }
            '0' => {
                tokens.push((Token::Const(false), start));
                i += 1;
            }
            '1' => {
                tokens.push((Token::Const(true), start));
                i += 1;
            }
            '-' | '=' if i + 1 < bytes.len() && bytes[i + 1] as char == '>' => {
                tokens.push((Token::Implies, start));
                i += 2;
            }
            '<' => {
                let rest = &input[i..];
                if rest.starts_with("<->") || rest.starts_with("<=>") {
                    tokens.push((Token::Iff, start));
                    i += 3;
                } else {
                    return Err(ParseExprError::new("unexpected '<'", start));
                }
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() {
                    let cj = bytes[j] as char;
                    if cj.is_ascii_alphanumeric()
                        || cj == '_'
                        || cj == '.'
                        || cj == '['
                        || cj == ']'
                    {
                        j += 1;
                    } else {
                        break;
                    }
                }
                tokens.push((Token::Ident(input[i..j].to_owned()), start));
                i = j;
            }
            _ => return Err(ParseExprError::new(format!("unexpected '{c}'"), start)),
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    bdd: &'a mut Bdd,
    input_len: usize,
    /// Parentheses currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map_or(self.input_len, |&(_, p)| p)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expr(&mut self) -> Result<Edge, ParseExprError> {
        self.iff()
    }

    /// Combines two operands as `ite(f, g, h)` through the checked
    /// kernel op: an operand too deep for the kernel's recursion guard
    /// (or an armed budget) is an error at the operator's byte `pos`
    /// instead of a panic.
    fn apply(&mut self, pos: usize, f: Edge, g: Edge, h: Edge) -> Result<Edge, ParseExprError> {
        self.bdd
            .try_ite(f, g, h)
            .map_err(|e| ParseExprError::new(format!("cannot apply operator: {e}"), pos))
    }

    fn iff(&mut self) -> Result<Edge, ParseExprError> {
        let mut lhs = self.imp()?;
        while self.peek() == Some(&Token::Iff) {
            let pos = self.here();
            self.bump();
            let rhs = self.imp()?;
            lhs = self.apply(pos, lhs, rhs, rhs.complement())?;
        }
        Ok(lhs)
    }

    fn imp(&mut self) -> Result<Edge, ParseExprError> {
        let mut operands = vec![self.or()?];
        // The byte of each `->`: arrow j joins operands j and j + 1.
        let mut arrows = Vec::new();
        while self.peek() == Some(&Token::Implies) {
            arrows.push(self.here());
            self.bump();
            operands.push(self.or()?);
        }
        // Right associative: fold from the last operand back.
        let mut rhs = operands.pop().expect("at least one operand");
        while let (Some(lhs), Some(pos)) = (operands.pop(), arrows.pop()) {
            rhs = self.apply(pos, lhs, rhs, Edge::ONE)?;
        }
        Ok(rhs)
    }

    fn or(&mut self) -> Result<Edge, ParseExprError> {
        let mut lhs = self.xor()?;
        while self.peek() == Some(&Token::Or) {
            let pos = self.here();
            self.bump();
            let rhs = self.xor()?;
            lhs = self.apply(pos, lhs, Edge::ONE, rhs)?;
        }
        Ok(lhs)
    }

    fn xor(&mut self) -> Result<Edge, ParseExprError> {
        let mut lhs = self.and()?;
        while self.peek() == Some(&Token::Xor) {
            let pos = self.here();
            self.bump();
            let rhs = self.and()?;
            lhs = self.apply(pos, lhs, rhs.complement(), rhs)?;
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Edge, ParseExprError> {
        let mut lhs = self.unary()?;
        while self.peek() == Some(&Token::And) {
            let pos = self.here();
            self.bump();
            let rhs = self.unary()?;
            lhs = self.apply(pos, lhs, rhs, Edge::ZERO)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Edge, ParseExprError> {
        let mut negate = false;
        while self.peek() == Some(&Token::Not) {
            self.bump();
            negate = !negate;
        }
        Ok(self.atom()?.complement_if(negate))
    }

    fn atom(&mut self) -> Result<Edge, ParseExprError> {
        let pos = self.here();
        match self.bump() {
            Some(Token::Const(b)) => Ok(self.bdd.constant(b)),
            Some(Token::Ident(name)) => {
                let var = self.bdd.var_by_name(&name).ok_or_else(|| {
                    ParseExprError::new(format!("unknown variable '{name}'"), pos)
                })?;
                Ok(self.bdd.var(var))
            }
            Some(Token::LParen) => {
                if self.depth == MAX_EXPR_DEPTH {
                    return Err(ParseExprError::new(
                        format!("parentheses nested deeper than {MAX_EXPR_DEPTH}"),
                        pos,
                    ));
                }
                self.depth += 1;
                let inner = self.expr()?;
                self.depth -= 1;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(ParseExprError::new("expected ')'", pos)),
                }
            }
            other => Err(ParseExprError::new(
                format!("expected atom, found {other:?}"),
                pos,
            )),
        }
    }
}

impl Bdd {
    /// Parses a Boolean expression over the manager's named variables.
    ///
    /// Supports `! ~` (not), `& *` (and), `^` (xor), `| +` (or),
    /// `-> =>` (implies, right-assoc), `<-> <=>` (iff), constants `0`/`1`
    /// and parentheses nested at most [`MAX_EXPR_DEPTH`] deep.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] on syntax errors, unknown variable
    /// names, parentheses nested too deep, or an operator whose operands
    /// are too deep for the kernel (or an armed budget) to combine.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::Bdd;
    /// # fn main() -> Result<(), bddmin_bdd::ParseExprError> {
    /// let mut bdd = Bdd::with_names(&["a", "b"]);
    /// let f = bdd.from_expr("a -> b")?;
    /// let g = bdd.from_expr("!a | b")?;
    /// assert_eq!(f, g);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_expr(&mut self, input: &str) -> Result<Edge, ParseExprError> {
        let tokens = tokenize(input)?;
        let input_len = input.len();
        let mut parser = Parser {
            tokens,
            pos: 0,
            bdd: self,
            input_len,
            depth: 0,
        };
        let e = parser.expr()?;
        if parser.pos != parser.tokens.len() {
            return Err(ParseExprError::new("trailing input", parser.here()));
        }
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Var;

    fn bdd3() -> Bdd {
        Bdd::with_names(&["a", "b", "c"])
    }

    #[test]
    fn precedence() {
        let mut bdd = bdd3();
        let f = bdd.from_expr("a | b & c").unwrap();
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let a = bdd.var(Var(0));
        let bc = bdd.and(b, c);
        assert_eq!(f, bdd.or(a, bc));
        let g = bdd.from_expr("a ^ b | c").unwrap();
        let ab = bdd.xor(a, b);
        assert_eq!(g, bdd.or(ab, c));
    }

    #[test]
    fn alternative_operators() {
        let mut bdd = bdd3();
        let f1 = bdd.from_expr("a & b | !c").unwrap();
        let f2 = bdd.from_expr("a * b + ~c").unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn implication_right_assoc() {
        let mut bdd = bdd3();
        let f = bdd.from_expr("a -> b -> c").unwrap();
        let g = bdd.from_expr("a -> (b -> c)").unwrap();
        assert_eq!(f, g);
        let h = bdd.from_expr("(a -> b) -> c").unwrap();
        assert_ne!(f, h);
    }

    #[test]
    fn iff_chain() {
        let mut bdd = bdd3();
        let f = bdd.from_expr("a <-> b <=> c").unwrap();
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let ab = bdd.xnor(a, b);
        assert_eq!(f, bdd.xnor(ab, c));
    }

    #[test]
    fn constants_and_double_negation() {
        let mut bdd = bdd3();
        assert!(bdd.from_expr("1").unwrap().is_one());
        assert!(bdd.from_expr("0").unwrap().is_zero());
        let a = bdd.var(Var(0));
        assert_eq!(bdd.from_expr("!!a").unwrap(), a);
        assert!(bdd.from_expr("a | !a").unwrap().is_one());
    }

    #[test]
    fn error_unknown_variable() {
        let mut bdd = bdd3();
        let err = bdd.from_expr("a & zz").unwrap_err();
        assert!(err.to_string().contains("unknown variable 'zz'"));
        assert_eq!(err.position(), 4);
    }

    #[test]
    fn error_syntax() {
        let mut bdd = bdd3();
        assert!(bdd.from_expr("a &").is_err());
        assert!(bdd.from_expr("(a").is_err());
        assert!(bdd.from_expr("a b").is_err());
        assert!(bdd.from_expr("a @ b").is_err());
        assert!(bdd.from_expr("a < b").is_err());
        assert!(bdd.from_expr("a - b").is_err());
    }

    #[test]
    fn identifiers_with_dots_and_brackets() {
        let mut bdd = Bdd::with_names(&["s.q[0]", "s.q[1]"]);
        let f = bdd.from_expr("s.q[0] & !s.q[1]").unwrap();
        let q0 = bdd.var(Var(0));
        let nq1 = bdd.literal(Var(1), false);
        assert_eq!(f, bdd.and(q0, nq1));
    }

    #[test]
    fn whitespace_insensitive() {
        let mut bdd = bdd3();
        let f1 = bdd.from_expr("a&b|c").unwrap();
        let f2 = bdd.from_expr("  a  &\n\tb |  c ").unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn deep_parentheses_are_an_error_not_an_overflow() {
        let mut bdd = bdd3();
        let nested = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(
            bdd.from_expr(&nested(MAX_EXPR_DEPTH)).unwrap(),
            bdd.var(Var(0))
        );
        let err = bdd.from_expr(&nested(30_000)).unwrap_err();
        assert!(err.to_string().contains("nested deeper than"), "{err}");
        // The first `(` past the cap, one byte per parenthesis.
        assert_eq!(err.position(), MAX_EXPR_DEPTH);
    }

    #[test]
    fn long_negation_runs_parse() {
        let mut bdd = bdd3();
        let a = bdd.var(Var(0));
        let run = |n: usize| format!("{}a", "!".repeat(n));
        assert_eq!(bdd.from_expr(&run(100_000)).unwrap(), a);
        assert_eq!(bdd.from_expr(&run(100_001)).unwrap(), a.complement());
    }

    #[test]
    fn long_implication_chains_parse() {
        let mut bdd = bdd3();
        // b -> b -> … -> b -> a: every prefix `b ->` is absorbed into
        // `!b | …`, so the chain is `!b | a`.
        let chain = format!("{}a", "b -> ".repeat(99_999));
        let f = bdd.from_expr(&chain).unwrap();
        assert_eq!(f, bdd.from_expr("!b | a").unwrap());
    }
}
