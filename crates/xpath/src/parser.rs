//! Recursive-descent XPath 1.0 parser.
//!
//! Two modes:
//! - **standard**: the XPath 1.0 grammar (the subset in `ast.rs`);
//! - **lenient**: additionally accepts the paper's informal notation from
//!   Table 2 row b — a bare axis name without `::node()`
//!   (`ancestor-or-self/preceding-sibling//text()`) and one-argument
//!   `contains("…")` (resolved against the context node at evaluation).

use crate::ast::{Axis, BinaryOp, Expr, LocationPath, NodeTest, Step};
use crate::lexer::{lex_spanned, LexError, Tok};
use std::fmt;

/// Parse failure: lexical or syntactic. Both variants carry the byte
/// offset into the input where the failure was detected, so diagnostics
/// can point into the offending expression text.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    Lex(LexError),
    Syntax { offset: usize, message: String },
}

impl ParseError {
    /// Byte offset into the parsed input where the error was detected.
    pub fn offset(&self) -> usize {
        match self {
            ParseError::Lex(e) => e.offset,
            ParseError::Syntax { offset, .. } => *offset,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Syntax { offset, message } => {
                write!(f, "XPath syntax error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Deepest expression [`parse`] accepts, counted in AST levels: every
/// operator, negation, function call, filter and location path holding
/// predicates adds one, as does each parenthesis on the way down. The
/// later passes over an expression (compile, fuse, lint, evaluation,
/// printing) all recurse once per level, so this bound is what keeps a
/// hostile rule from overflowing a worker thread's stack. Real mapping
/// rules nest a handful of levels.
pub const MAX_DEPTH: usize = 64;

/// Parse a standard XPath 1.0 expression.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    parse_with(input, false)
}

/// Parse with the paper's lenient extensions enabled.
pub fn parse_lenient(input: &str) -> Result<Expr, ParseError> {
    parse_with(input, true)
}

fn parse_with(input: &str, lenient: bool) -> Result<Expr, ParseError> {
    let spanned = lex_spanned(input)?;
    let mut toks = Vec::with_capacity(spanned.len());
    let mut offsets = Vec::with_capacity(spanned.len());
    for (t, o) in spanned {
        toks.push(t);
        offsets.push(o);
    }
    let mut p = Parser { toks, offsets, end: input.len(), pos: 0, lenient, nesting: 0 };
    let (expr, _) = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(expr)
}

/// Parse an expression that must be a plain location path.
pub fn parse_path(input: &str) -> Result<LocationPath, ParseError> {
    match parse(input)? {
        Expr::Path(p) => Ok(p),
        _ => Err(ParseError::Syntax {
            offset: 0,
            message: "expression is not a location path".into(),
        }),
    }
}

const NODE_TYPES: &[&str] = &["comment", "text", "node", "processing-instruction"];

/// Binary operator precedence levels, loosest first: `or`, `and`,
/// equality, relational, additive, multiplicative.
const BINARY_LEVELS: usize = 6;

/// A parsed expression and its depth in AST levels (see [`MAX_DEPTH`]).
type Parsed<T = Expr> = (T, usize);

struct Parser {
    toks: Vec<Tok>,
    /// Byte offset of each token in the input; `end` covers "at EOF".
    offsets: Vec<usize>,
    end: usize,
    pos: usize,
    lenient: bool,
    /// Nested [`expr`](Parser::expr) calls in progress: bounds the
    /// descent itself, which parentheses deepen without adding nodes.
    nesting: usize,
}

impl Parser {
    fn err(&self, msg: &str) -> ParseError {
        let offset = self.offsets.get(self.pos).copied().unwrap_or(self.end);
        ParseError::Syntax { offset, message: msg.to_string() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{t}'")))
        }
    }

    fn too_deep(&self) -> ParseError {
        self.err(&format!("expression nests deeper than {MAX_DEPTH} levels"))
    }

    /// The depth of a node whose deepest child is `depth` levels deep.
    fn wrap(&self, depth: usize) -> Result<usize, ParseError> {
        if depth >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(depth + 1)
    }

    // ---- expression grammar --------------------------------------------

    /// A full expression: the entry point for the whole input and for
    /// every parenthesised expression, predicate and function argument.
    fn expr(&mut self) -> Result<Parsed, ParseError> {
        if self.nesting >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let parsed = self.binary(0);
        self.nesting -= 1;
        parsed
    }

    /// The operator at the cursor, if it binds at precedence `level`.
    fn binary_op(&self, level: usize) -> Option<BinaryOp> {
        let name_is = |name: &str| matches!(self.peek(), Some(Tok::Name(n)) if n == name);
        Some(match (level, self.peek()?) {
            (0, _) if name_is("or") => BinaryOp::Or,
            (1, _) if name_is("and") => BinaryOp::And,
            (2, Tok::Eq) => BinaryOp::Eq,
            (2, Tok::Ne) => BinaryOp::Ne,
            (3, Tok::Lt) => BinaryOp::Lt,
            (3, Tok::Le) => BinaryOp::Le,
            (3, Tok::Gt) => BinaryOp::Gt,
            (3, Tok::Ge) => BinaryOp::Ge,
            (4, Tok::Plus) => BinaryOp::Add,
            (4, Tok::Minus) => BinaryOp::Sub,
            (5, Tok::Star) => BinaryOp::Mul,
            (5, _) if name_is("div") => BinaryOp::Div,
            (5, _) if name_is("mod") => BinaryOp::Mod,
            _ => return None,
        })
    }

    /// Left-associative binary operators from precedence `level` down.
    fn binary(&mut self, level: usize) -> Result<Parsed, ParseError> {
        if level == BINARY_LEVELS {
            return self.unary_expr();
        }
        let (mut left, mut depth) = self.binary(level + 1)?;
        while let Some(op) = self.binary_op(level) {
            self.pos += 1;
            let (right, right_depth) = self.binary(level + 1)?;
            depth = self.wrap(depth.max(right_depth))?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn unary_expr(&mut self) -> Result<Parsed, ParseError> {
        let mut negations = 0usize;
        while self.eat(&Tok::Minus) {
            negations += 1;
        }
        let (mut expr, mut depth) = self.union_expr()?;
        for _ in 0..negations {
            depth = self.wrap(depth)?;
            expr = Expr::Negate(Box::new(expr));
        }
        Ok((expr, depth))
    }

    fn union_expr(&mut self) -> Result<Parsed, ParseError> {
        let (mut left, mut depth) = self.path_expr()?;
        while self.eat(&Tok::Pipe) {
            let (right, right_depth) = self.path_expr()?;
            depth = self.wrap(depth.max(right_depth))?;
            left = Expr::Union(Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn path_expr(&mut self) -> Result<Parsed, ParseError> {
        let is_filter = match self.peek() {
            Some(Tok::Name(name)) => {
                self.peek2() == Some(&Tok::LParen) && !NODE_TYPES.contains(&name.as_str())
            }
            Some(Tok::LParen) | Some(Tok::Literal(_)) | Some(Tok::Number(_)) => true,
            Some(Tok::Slash)
            | Some(Tok::DoubleSlash)
            | Some(Tok::Dot)
            | Some(Tok::DotDot)
            | Some(Tok::At)
            | Some(Tok::Star) => false,
            _ => return Err(self.err("expected expression")),
        };
        if is_filter {
            return self.filter_expr();
        }
        let (path, depth) = self.location_path()?;
        Ok((Expr::Path(path), self.wrap(depth)?))
    }

    fn filter_expr(&mut self) -> Result<Parsed, ParseError> {
        let (primary, mut depth) = self.primary_expr()?;
        let mut predicates = Vec::new();
        while self.peek() == Some(&Tok::LBracket) {
            let (predicate, predicate_depth) = self.predicate()?;
            predicates.push(predicate);
            depth = depth.max(predicate_depth);
        }
        let path = match self.peek() {
            Some(Tok::Slash) => {
                self.pos += 1;
                Some(self.relative_location_path()?)
            }
            Some(Tok::DoubleSlash) => {
                self.pos += 1;
                let (mut rest, rest_depth) = self.relative_location_path()?;
                rest.steps.insert(0, Step::new(Axis::DescendantOrSelf, NodeTest::Node));
                Some((rest, rest_depth))
            }
            _ => None,
        };
        if predicates.is_empty() && path.is_none() {
            return Ok((primary, depth));
        }
        let path = path.map(|(path, path_depth)| {
            depth = depth.max(path_depth);
            path
        });
        Ok((Expr::Filter { primary: Box::new(primary), predicates, path }, self.wrap(depth)?))
    }

    fn primary_expr(&mut self) -> Result<Parsed, ParseError> {
        match self.bump() {
            Some(Tok::LParen) => {
                let inner = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(inner)
            }
            Some(Tok::Literal(s)) => Ok((Expr::Literal(s), 1)),
            Some(Tok::Number(n)) => Ok((Expr::Number(n), 1)),
            Some(Tok::Name(name)) => {
                self.expect(&Tok::LParen)?;
                let mut args = Vec::new();
                let mut depth = 0;
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        let (arg, arg_depth) = self.expr()?;
                        args.push(arg);
                        depth = depth.max(arg_depth);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok((Expr::Call(name, args), self.wrap(depth)?))
            }
            _ => Err(self.err("expected primary expression")),
        }
    }

    fn predicate(&mut self) -> Result<Parsed, ParseError> {
        self.expect(&Tok::LBracket)?;
        let e = self.expr()?;
        self.expect(&Tok::RBracket)?;
        Ok(e)
    }

    // ---- location paths --------------------------------------------------

    /// A location path, with the depth of its deepest predicate (0 for
    /// none).
    fn location_path(&mut self) -> Result<Parsed<LocationPath>, ParseError> {
        match self.peek() {
            Some(Tok::Slash) => {
                self.pos += 1;
                if self.starts_step() {
                    let (rel, depth) = self.relative_location_path()?;
                    Ok((LocationPath::absolute(rel.steps), depth))
                } else {
                    Ok((LocationPath::absolute(vec![]), 0))
                }
            }
            Some(Tok::DoubleSlash) => {
                self.pos += 1;
                let (rel, depth) = self.relative_location_path()?;
                let mut steps = vec![Step::new(Axis::DescendantOrSelf, NodeTest::Node)];
                steps.extend(rel.steps);
                Ok((LocationPath::absolute(steps), depth))
            }
            _ => self.relative_location_path(),
        }
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Name(_))
                | Some(Tok::Star)
                | Some(Tok::At)
                | Some(Tok::Dot)
                | Some(Tok::DotDot)
        )
    }

    fn relative_location_path(&mut self) -> Result<Parsed<LocationPath>, ParseError> {
        let (first, mut depth) = self.step()?;
        let mut steps = vec![first];
        loop {
            match self.peek() {
                Some(Tok::Slash) => self.pos += 1,
                Some(Tok::DoubleSlash) => {
                    self.pos += 1;
                    steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
                }
                _ => break,
            }
            let (step, step_depth) = self.step()?;
            steps.push(step);
            depth = depth.max(step_depth);
        }
        Ok((LocationPath::relative(steps), depth))
    }

    /// One step, with the depth of its deepest predicate (0 for none).
    fn step(&mut self) -> Result<Parsed<Step>, ParseError> {
        match self.peek() {
            Some(Tok::Dot) => {
                self.pos += 1;
                return Ok((Step::new(Axis::SelfAxis, NodeTest::Node), 0));
            }
            Some(Tok::DotDot) => {
                self.pos += 1;
                return Ok((Step::new(Axis::Parent, NodeTest::Node), 0));
            }
            _ => {}
        }
        // Axis specifier.
        let axis = if self.eat(&Tok::At) {
            Axis::Attribute
        } else if let Some(Tok::Name(name)) = self.peek() {
            let name = name.clone();
            if self.peek2() == Some(&Tok::ColonColon) {
                let axis = Axis::from_name(&name)
                    .ok_or_else(|| self.err(&format!("unknown axis '{name}'")))?;
                self.pos += 2;
                axis
            } else if self.lenient
                && Axis::from_name(&name).is_some()
                && !self.lenient_name_is_test()
            {
                // Paper notation: a bare axis name stands for
                // `axis::node()` (Table 2 row b).
                self.pos += 1;
                return Ok((Step::new(Axis::from_name(&name).unwrap(), NodeTest::Node), 0));
            } else {
                Axis::Child
            }
        } else {
            Axis::Child
        };
        // Node test.
        let test = match self.bump() {
            Some(Tok::Star) => NodeTest::Wildcard,
            Some(Tok::Name(name)) => {
                if self.peek() == Some(&Tok::LParen) && NODE_TYPES.contains(&name.as_str()) {
                    self.pos += 1;
                    self.expect(&Tok::RParen)?;
                    match name.as_str() {
                        "text" => NodeTest::Text,
                        "comment" => NodeTest::Comment,
                        "node" => NodeTest::Node,
                        other => {
                            return Err(self.err(&format!("unsupported node type '{other}()'")))
                        }
                    }
                } else {
                    NodeTest::Name(name)
                }
            }
            _ => return Err(self.err("expected node test")),
        };
        let mut step = Step::new(axis, test);
        let mut depth = 0;
        while self.peek() == Some(&Tok::LBracket) {
            let (predicate, predicate_depth) = self.predicate()?;
            step.predicates.push(predicate);
            depth = depth.max(predicate_depth);
        }
        Ok((step, depth))
    }

    /// In lenient mode an axis-name token could still be a genuine element
    /// name test (e.g. an element literally named `self`). Treat it as a
    /// name test when it is followed by `(` (function) or `[` (predicate
    /// directly on the element).
    fn lenient_name_is_test(&self) -> bool {
        matches!(self.peek2(), Some(Tok::LParen) | Some(Tok::LBracket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(s: &str) {
        let e = parse(s).unwrap();
        let shown = e.to_string();
        let e2 = parse(&shown).unwrap();
        assert_eq!(e, e2, "display/parse fixpoint failed for {s} -> {shown}");
    }

    #[test]
    fn parses_paper_rule_location() {
        // The mapping rule from §2.3.
        let e =
            parse("BODY[1]/DIV[2]/TABLE[3]/TR[1]/TD[3]/TABLE[1]/TR[6]/TD[1]/text()[1]").unwrap();
        match &e {
            Expr::Path(p) => {
                assert!(!p.absolute);
                assert_eq!(p.steps.len(), 9);
                assert_eq!(p.steps[8].test, NodeTest::Text);
                assert_eq!(p.steps[2].position_predicate(), Some(3.0));
            }
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn parses_table2_rows() {
        // Rows a, c, d, e, f of Table 2 are standard XPath.
        for s in [
            "BODY//TR[6]/TD[1]/text()[1]",
            "BODY//TABLE[1]/TR[1]",
            "BODY//TABLE[1]/TR[position()>=1]",
            "BODY//TABLE[1]/TR[2]/TD[2]/text()",
            "BODY//TABLE[1]/TR[17]/TD[2]/text()",
        ] {
            parse(s).unwrap_or_else(|e| panic!("failed on {s}: {e}"));
            round_trip(s);
        }
    }

    #[test]
    fn parses_table2_row_b_lenient() {
        // Row b uses the paper's shorthand: bare axis names and
        // single-argument contains().
        let s = "BODY//TR[6]/TD[1]/text()[ancestor-or-self/preceding-sibling//text()[contains(\"Runtime:\")]]";
        assert!(parse(s).is_err() || parse(s).is_ok()); // standard mode may reject or mis-read it…
        let e = parse_lenient(s).unwrap(); // …lenient mode must accept it.
        let shown = e.to_string();
        assert!(shown.contains("ancestor-or-self::node()"));
    }

    #[test]
    fn double_slash_expands() {
        let e = parse("//TR").unwrap();
        match e {
            Expr::Path(p) => {
                assert!(p.absolute);
                assert_eq!(p.steps.len(), 2);
                assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
                assert_eq!(p.steps[0].test, NodeTest::Node);
                assert_eq!(p.steps[1].test, NodeTest::Name("TR".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn abbreviations() {
        round_trip(".");
        round_trip("..");
        round_trip("@href");
        round_trip("*");
        round_trip("./TR");
        round_trip("../TD");
    }

    #[test]
    fn operator_names_vs_name_tests() {
        // `div` as element name test vs as operator.
        let e = parse("div").unwrap();
        assert!(matches!(e, Expr::Path(_)));
        let e = parse("2 div 2").unwrap();
        assert!(matches!(e, Expr::Binary(BinaryOp::Div, _, _)));
        let e = parse("and/or").unwrap(); // both are name tests here
        assert!(matches!(e, Expr::Path(p) if p.steps.len() == 2));
    }

    #[test]
    fn union_of_paths() {
        let e = parse("TR[1]/TD | TR[2]/TD").unwrap();
        assert_eq!(e.union_alternatives().len(), 2);
        round_trip("TR[1]/TD | TR[2]/TD");
    }

    #[test]
    fn function_calls() {
        round_trip("contains(., \"Runtime:\")");
        round_trip("normalize-space(.)");
        round_trip("count(//TR) > 3");
        round_trip("substring-before(text(), \" min\")");
    }

    #[test]
    fn filter_expr_with_path() {
        let e = parse("(//TABLE)[1]/TR").unwrap();
        match e {
            Expr::Filter { predicates, path, .. } => {
                assert_eq!(predicates.len(), 1);
                assert!(path.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_predicates() {
        round_trip("BODY//text()[preceding::text()[normalize-space(.) != \"\"][1][contains(., \"Runtime:\")]]");
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("/[1]").is_err());
        assert!(parse("foo(").is_err());
        assert!(parse("a b").is_err());
        assert!(parse("..::x").is_err());
        assert!(parse("wrongaxis::x").is_err());
    }

    #[test]
    fn syntax_errors_carry_byte_offsets() {
        // `[` of the predicate with no node test before it.
        let err = parse("/[1]").unwrap_err();
        assert_eq!(err.offset(), 1);
        // Error at EOF points one past the end of the input.
        let err = parse("TR[").unwrap_err();
        assert_eq!(err.offset(), 3);
        // Offsets are bytes: the two-byte `é` inside the literal shifts
        // the reported position accordingly.
        let err = parse("contains(\"é\"").unwrap_err();
        assert_eq!(err.offset(), "contains(\"é\"".len());
        assert!(err.to_string().contains("byte"));
    }

    /// `k` levels of one nesting shape around a leaf: `k + 1` levels
    /// of AST, of parser descent, or of both.
    fn nested(shape: &str, k: usize) -> String {
        match shape {
            "parens" => format!("{}1{}", "(".repeat(k), ")".repeat(k)),
            "negations" => format!("{}1", "-".repeat(k)),
            "sums" => format!("1{}", "+1".repeat(k)),
            "unions" => format!("a{}", "|a".repeat(k)),
            "predicates" => format!("{}a{}", "a[".repeat(k), "]".repeat(k)),
            "calls" => format!("{}true(){}", "not(".repeat(k), ")".repeat(k)),
            "left-nested sums" => format!("{}1{}", "(".repeat(k), "+1)".repeat(k)),
            other => panic!("unknown shape {other}"),
        }
    }

    /// Every shape parses and runs every later pass at `MAX_DEPTH`
    /// levels on a worker's 2 MiB stack, and is a syntax error with an
    /// offset one level deeper — and 1,000 or 100,000 levels deeper (a
    /// 2 KB or a 200 KB request body), never a stack overflow.
    #[test]
    fn nesting_is_bounded_on_a_worker_stack() {
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        let run = worker.spawn(|| {
            let doc = retroweb_html::parse("<html><body><a><a>x</a></a></body></html>");
            let shapes = [
                "parens",
                "negations",
                "sums",
                "unions",
                "predicates",
                "calls",
                "left-nested sums",
            ];
            for shape in shapes {
                let text = nested(shape, MAX_DEPTH - 1);
                let expr = parse(&text).unwrap_or_else(|e| panic!("{shape}: {e}"));
                assert_eq!(parse(&expr.to_string()).as_ref(), Ok(&expr), "{shape}");
                let compiled = std::sync::Arc::new(crate::CompiledXPath::compile(&expr));
                let fused = crate::FusedPlan::build(std::slice::from_ref(&compiled));
                crate::analyze(&expr);
                crate::analyze::analyze_compiled(&compiled);
                let exec = crate::Executor::new(&doc);
                let _ = exec.eval(&compiled, doc.root());
                let _ = fused.execute(&exec);
                let _ = crate::Engine::new(&doc).eval(&expr, doc.root());
                for k in [MAX_DEPTH, 1_000, 100_000] {
                    let text = nested(shape, k);
                    match parse(&text) {
                        Err(ParseError::Syntax { offset, message }) => {
                            assert!(offset <= text.len(), "{shape}: offset {offset}");
                            assert!(message.contains("nests deeper"), "{shape}: {message}");
                        }
                        other => panic!("{shape} at {k} levels: {other:?}"),
                    }
                }
            }
        });
        run.expect("spawn a worker-sized thread").join().expect("nesting checks");
    }

    #[test]
    fn root_path() {
        let e = parse("/").unwrap();
        assert!(matches!(e, Expr::Path(p) if p.absolute && p.steps.is_empty()));
    }

    #[test]
    fn numbers_and_arithmetic() {
        round_trip("position() mod 2 = 1");
        round_trip("last() - 1");
        round_trip("-3");
        round_trip("2 + 3 * 4");
    }
}
