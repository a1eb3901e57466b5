//! Compilation of XPath expressions to a flat, immutable IR.
//!
//! The tree-walking [`Engine`](crate::Engine) re-traverses the AST on
//! every call, cloning node tests and literals along the hot path. A
//! mapping rule, however, is compiled **once** per cluster and then
//! applied to thousands of pages, so this module lowers the parsed
//! [`Expr`] into a step program designed for repeated execution:
//!
//! - **flat arenas** — steps, predicates, sub-expressions and argument
//!   lists live in contiguous tables inside [`CompiledXPath`], addressed
//!   by `u32` ids; execution never clones AST nodes;
//! - **interned name tests** — element/attribute names are stored once
//!   (lowercased) and referenced by id;
//! - **resolved functions** — function names are resolved to an
//!   internal `FnOp` at compile time instead of string-matched per
//!   call;
//! - **positional step specialisation** — the `TAG[n]` steps emitted by
//!   the precise-path builder walk the axis only as far as the `n`-th
//!   match instead of materialising and filtering every candidate;
//! - **indexed label step** — the §3.4 contextual step
//!   `preceding::text()[normalize-space(.) != ""][1]` (or its
//!   `following::` twin) is answered by one lookup in a per-page index of
//!   nearest non-blank text nodes instead of an axis walk;
//! - **borrowing string kernels** — `normalize-space`, `contains`,
//!   `starts-with` and `ends-with` read text nodes and literals in place
//!   (a `.` argument is the context node's text, not a node-set), and
//!   `normalize-space` allocates only to collapse an inner whitespace
//!   run, so comparing its result with a literal compares borrowed
//!   slices;
//! - **reusable evaluation state** — an [`Executor`] is bound to one
//!   document and carries lazily built per-page tables (the
//!   document-order rank for O(1) node comparisons, the label index) plus
//!   a scratch buffer pool shared across rule applications.
//!
//! Compilation is **total**: any parseable expression compiles, and
//! errors the interpreter raises at evaluation time (unknown functions,
//! arity mismatches, type errors) are raised at execution time here too,
//! so `CompiledXPath` is a drop-in, behaviour-identical replacement. The
//! interpreter remains the executable reference semantics; the
//! differential suites in this module and `tests/proptests.rs` hold the
//! two implementations equal on every expression they generate.

use crate::ast::{Axis, BinaryOp, Expr, LocationPath, NodeTest, Step};
use crate::eval::EvalError;
use crate::functions::{normalize_space, xpath_substring};
use crate::value::{
    cmp_numbers, format_number, order, str_to_number, string_value_cow, NodeRef, Value,
};
use retroweb_html::{Document, NodeData, NodeId};
use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::fmt;

pub(crate) type ExprId = u32;

/// `(start, len)` window into one of the arenas.
pub(crate) type Span = (u32, u32);

/// Node test with the name interned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CTest {
    /// Index into [`CompiledXPath::names`].
    Name(u32),
    Wildcard,
    Text,
    Comment,
    Node,
}

/// Execution strategy for a step, decided at compile time from the
/// shape of its predicate chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum StepPlan {
    /// Materialise all axis candidates, then filter predicate by
    /// predicate (the reference algorithm).
    Generic,
    /// Single bare positional predicate `TAG[n]`: walk the axis only to
    /// the n-th matching node (the precise-path hot case).
    Nth(f64),
    /// `preceding::text()[normalize-space(.) != ""][1]…` or the
    /// `following::` twin — the label step of the paper's Figure 4
    /// contextual refinement: the nearest non-blank text node is one
    /// lookup in the executor's per-page label index; predicates after
    /// the `[1]` run on it as usual.
    NearestText,
}

/// One lowered location step.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CStep {
    pub(crate) axis: Axis,
    pub(crate) test: CTest,
    /// Window into [`CompiledXPath::preds`].
    pub(crate) preds: Span,
    pub(crate) plan: StepPlan,
}

/// A lowered predicate.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CPred {
    /// Bare numeric predicate — `[3]` — specialised to a positional
    /// selection (the precise-path hot case).
    Position(f64),
    /// Anything else, evaluated with position()/last() context.
    Expr(ExprId),
}

/// A lowered location path: window into the step table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CPath {
    pub(crate) absolute: bool,
    pub(crate) steps: Span,
}

/// Core-library function, resolved at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FnOp {
    Position,
    Last,
    Count,
    NameOf,
    LocalName,
    Sum,
    StringFn,
    Concat,
    Contains,
    StartsWith,
    EndsWith,
    SubstringBefore,
    SubstringAfter,
    Substring,
    StringLength,
    NormalizeSpace,
    Translate,
    BooleanFn,
    Not,
    TrueFn,
    FalseFn,
    NumberFn,
    Floor,
    Ceiling,
    Round,
}

impl FnOp {
    fn resolve(name: &str) -> Option<FnOp> {
        Some(match name {
            "position" => FnOp::Position,
            "last" => FnOp::Last,
            "count" => FnOp::Count,
            "name" => FnOp::NameOf,
            "local-name" => FnOp::LocalName,
            "sum" => FnOp::Sum,
            "string" => FnOp::StringFn,
            "concat" => FnOp::Concat,
            "contains" => FnOp::Contains,
            "starts-with" => FnOp::StartsWith,
            "ends-with" => FnOp::EndsWith,
            "substring-before" => FnOp::SubstringBefore,
            "substring-after" => FnOp::SubstringAfter,
            "substring" => FnOp::Substring,
            "string-length" => FnOp::StringLength,
            "normalize-space" => FnOp::NormalizeSpace,
            "translate" => FnOp::Translate,
            "boolean" => FnOp::BooleanFn,
            "not" => FnOp::Not,
            "true" => FnOp::TrueFn,
            "false" => FnOp::FalseFn,
            "number" => FnOp::NumberFn,
            "floor" => FnOp::Floor,
            "ceiling" => FnOp::Ceiling,
            "round" => FnOp::Round,
            _ => return None,
        })
    }

    /// Accepted argument counts, mirroring the interpreter's checks
    /// (the string kernels run only in-arity calls; arity errors still
    /// surface at execution time, never at compile time).
    fn arity(self) -> (usize, usize) {
        match self {
            FnOp::Position | FnOp::Last | FnOp::TrueFn | FnOp::FalseFn => (0, 0),
            FnOp::Count
            | FnOp::Sum
            | FnOp::BooleanFn
            | FnOp::Not
            | FnOp::Floor
            | FnOp::Ceiling
            | FnOp::Round => (1, 1),
            FnOp::NameOf
            | FnOp::LocalName
            | FnOp::StringFn
            | FnOp::StringLength
            | FnOp::NormalizeSpace
            | FnOp::NumberFn => (0, 1),
            FnOp::Contains => (1, 2),
            FnOp::StartsWith | FnOp::EndsWith | FnOp::SubstringBefore | FnOp::SubstringAfter => {
                (2, 2)
            }
            FnOp::Substring => (2, 3),
            FnOp::Translate => (3, 3),
            FnOp::Concat => (2, usize::MAX),
        }
    }

    fn name(self) -> &'static str {
        match self {
            FnOp::Position => "position",
            FnOp::Last => "last",
            FnOp::Count => "count",
            FnOp::NameOf => "name",
            FnOp::LocalName => "local-name",
            FnOp::Sum => "sum",
            FnOp::StringFn => "string",
            FnOp::Concat => "concat",
            FnOp::Contains => "contains",
            FnOp::StartsWith => "starts-with",
            FnOp::EndsWith => "ends-with",
            FnOp::SubstringBefore => "substring-before",
            FnOp::SubstringAfter => "substring-after",
            FnOp::Substring => "substring",
            FnOp::StringLength => "string-length",
            FnOp::NormalizeSpace => "normalize-space",
            FnOp::Translate => "translate",
            FnOp::BooleanFn => "boolean",
            FnOp::Not => "not",
            FnOp::TrueFn => "true",
            FnOp::FalseFn => "false",
            FnOp::NumberFn => "number",
            FnOp::Floor => "floor",
            FnOp::Ceiling => "ceiling",
            FnOp::Round => "round",
        }
    }
}

/// A lowered expression node.
#[derive(Clone, Debug)]
pub(crate) enum CExpr {
    Num(f64),
    Str(Box<str>),
    Binary(BinaryOp, ExprId, ExprId),
    Negate(ExprId),
    /// Flattened union alternatives: window into `expr_lists`.
    Union(Span),
    Path(u32),
    Filter {
        primary: ExprId,
        preds: Span,
        rest: Option<u32>,
    },
    /// Resolved call; args are a window into `expr_lists`.
    Call(FnOp, Span),
    /// Unknown function — kept so the error surfaces at execution time,
    /// exactly like the interpreter (compilation is total).
    CallUnknown(Box<str>, Span),
}

/// An XPath expression lowered to the flat IR, ready for repeated
/// execution. Immutable, cheap to share (`Send + Sync`), and completely
/// independent of any document.
pub struct CompiledXPath {
    src: String,
    pub(crate) exprs: Vec<CExpr>,
    pub(crate) expr_lists: Vec<ExprId>,
    pub(crate) paths: Vec<CPath>,
    pub(crate) steps: Vec<CStep>,
    pub(crate) preds: Vec<CPred>,
    pub(crate) names: Vec<Box<str>>,
    pub(crate) root: ExprId,
}

impl fmt::Debug for CompiledXPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledXPath")
            .field("src", &self.src)
            .field("steps", &self.steps.len())
            .field("exprs", &self.exprs.len())
            .finish()
    }
}

impl CompiledXPath {
    /// Lower a parsed expression. Never fails — evaluation-time errors
    /// stay evaluation-time (now execution-time) errors.
    pub fn compile(expr: &Expr) -> CompiledXPath {
        let mut b = Lowerer::default();
        let root = b.lower_expr(expr);
        CompiledXPath {
            src: expr.to_string(),
            exprs: b.exprs,
            expr_lists: b.expr_lists,
            paths: b.paths,
            steps: b.steps,
            preds: b.preds,
            names: b.names,
            root,
        }
    }

    /// Parse (standard grammar) and compile in one call.
    pub fn parse(text: &str) -> Result<CompiledXPath, crate::parser::ParseError> {
        Ok(CompiledXPath::compile(&crate::parser::parse(text)?))
    }

    /// The display form of the compiled expression.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// One-shot evaluation (builds a throwaway [`Executor`]). Prefer
    /// keeping an `Executor` per document when applying several rules.
    pub fn eval(&self, doc: &Document, ctx: NodeId) -> Result<Value, EvalError> {
        Executor::new(doc).eval(self, ctx)
    }

    /// One-shot node-set selection; attribute results are dropped.
    pub fn select(&self, doc: &Document, ctx: NodeId) -> Result<Vec<NodeId>, EvalError> {
        Executor::new(doc).select(self, ctx)
    }
}

impl From<&Expr> for CompiledXPath {
    fn from(expr: &Expr) -> CompiledXPath {
        CompiledXPath::compile(expr)
    }
}

/// AST → IR lowering state.
#[derive(Default)]
struct Lowerer {
    exprs: Vec<CExpr>,
    expr_lists: Vec<ExprId>,
    paths: Vec<CPath>,
    steps: Vec<CStep>,
    preds: Vec<CPred>,
    names: Vec<Box<str>>,
    name_ids: HashMap<String, u32>,
}

impl Lowerer {
    fn push_expr(&mut self, e: CExpr) -> ExprId {
        self.exprs.push(e);
        (self.exprs.len() - 1) as ExprId
    }

    fn intern(&mut self, name: &str) -> u32 {
        let key = name.to_ascii_lowercase();
        if let Some(&id) = self.name_ids.get(&key) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(key.clone().into_boxed_str());
        self.name_ids.insert(key, id);
        id
    }

    fn lower_expr(&mut self, e: &Expr) -> ExprId {
        match e {
            Expr::Number(n) => self.push_expr(CExpr::Num(*n)),
            Expr::Literal(s) => self.push_expr(CExpr::Str(s.clone().into_boxed_str())),
            Expr::Negate(inner) => {
                let i = self.lower_expr(inner);
                self.push_expr(CExpr::Negate(i))
            }
            Expr::Binary(op, a, b) => {
                let ia = self.lower_expr(a);
                let ib = self.lower_expr(b);
                self.push_expr(CExpr::Binary(*op, ia, ib))
            }
            Expr::Union(..) => {
                // Flatten the whole left-assoc union into one alternative
                // list — executes without intermediate merges.
                let alts: Vec<ExprId> =
                    e.union_alternatives().iter().map(|alt| self.lower_expr(alt)).collect();
                let span = self.push_list(&alts);
                self.push_expr(CExpr::Union(span))
            }
            Expr::Path(p) => {
                let pid = self.lower_path(p);
                self.push_expr(CExpr::Path(pid))
            }
            Expr::Filter { primary, predicates, path } => {
                let ip = self.lower_expr(primary);
                let preds = self.lower_preds(predicates);
                let rest = path.as_ref().map(|p| self.lower_path(p));
                self.push_expr(CExpr::Filter { primary: ip, preds, rest })
            }
            Expr::Call(name, args) => {
                let ids: Vec<ExprId> = args.iter().map(|a| self.lower_expr(a)).collect();
                let span = self.push_list(&ids);
                match FnOp::resolve(name) {
                    Some(op) => self.push_expr(CExpr::Call(op, span)),
                    None => self.push_expr(CExpr::CallUnknown(name.clone().into_boxed_str(), span)),
                }
            }
        }
    }

    fn push_list(&mut self, ids: &[ExprId]) -> Span {
        let start = self.expr_lists.len() as u32;
        self.expr_lists.extend_from_slice(ids);
        (start, ids.len() as u32)
    }

    fn lower_preds(&mut self, predicates: &[Expr]) -> Span {
        // Lower children first (recursion appends to the arenas), then
        // commit this level's predicates as one contiguous window.
        let lowered: Vec<CPred> = predicates
            .iter()
            .filter(|p| !is_always_true(p))
            .map(|p| match p {
                Expr::Number(n) => CPred::Position(*n),
                other => CPred::Expr(self.lower_expr(other)),
            })
            .collect();
        let start = self.preds.len() as u32;
        self.preds.extend_from_slice(&lowered);
        (start, lowered.len() as u32)
    }

    fn lower_path(&mut self, path: &LocationPath) -> u32 {
        let lowered: Vec<CStep> = path.steps.iter().map(|s| self.lower_step(s)).collect();
        let start = self.steps.len() as u32;
        self.steps.extend_from_slice(&lowered);
        self.paths.push(CPath { absolute: path.absolute, steps: (start, lowered.len() as u32) });
        (self.paths.len() - 1) as u32
    }

    fn lower_step(&mut self, step: &Step) -> CStep {
        let test = match &step.test {
            NodeTest::Name(n) => CTest::Name(self.intern(n)),
            NodeTest::Wildcard => CTest::Wildcard,
            NodeTest::Text => CTest::Text,
            NodeTest::Comment => CTest::Comment,
            NodeTest::Node => CTest::Node,
        };
        let preds = self.lower_preds(&step.predicates);
        let plan = self.plan_step(step.axis, test, preds);
        CStep { axis: step.axis, test, preds, plan }
    }

    /// Pick the execution strategy from the step's shape.
    fn plan_step(&self, axis: Axis, test: CTest, preds: Span) -> StepPlan {
        let (p0, plen) = preds;
        let window = &self.preds[p0 as usize..(p0 + plen) as usize];
        if let [CPred::Position(n)] = window {
            return StepPlan::Nth(*n);
        }
        if matches!(axis, Axis::Preceding | Axis::Following) && test == CTest::Text {
            if let [CPred::Expr(filter), CPred::Position(n), ..] = window {
                if *n == 1.0 && self.is_nonblank_test(*filter) {
                    return StepPlan::NearestText;
                }
            }
        }
        StepPlan::Generic
    }

    /// Is `id` exactly `normalize-space(.) != ""` — true iff the context
    /// node's string-value holds a non-whitespace character?
    fn is_nonblank_test(&self, id: ExprId) -> bool {
        let CExpr::Binary(BinaryOp::Ne, lhs, rhs) = self.exprs[id as usize] else {
            return false;
        };
        let CExpr::Call(FnOp::NormalizeSpace, args) = self.exprs[lhs as usize] else {
            return false;
        };
        let of_context = match *self.list(args) {
            [] => true,
            [arg] => matches!(
                self.exprs[arg as usize],
                CExpr::Path(pid) if is_dot(self.paths[pid as usize], &self.steps)
            ),
            _ => false,
        };
        of_context && matches!(&self.exprs[rhs as usize], CExpr::Str(s) if s.is_empty())
    }

    fn list(&self, span: Span) -> &[ExprId] {
        &self.expr_lists[span.0 as usize..(span.0 + span.1) as usize]
    }
}

/// Is `pred` `position() >= n` with `n <= 1` — true for every candidate,
/// since positions start at 1? `generalize::broaden_step` emits
/// `position() >= 1` for a multivalued rule's repetitive step. A
/// predicate that keeps every node leaves the positions the next one
/// sees unchanged, so it compiles to nothing.
fn is_always_true(pred: &Expr) -> bool {
    matches!(pred, Expr::Binary(BinaryOp::Ge, lhs, rhs)
        if matches!(lhs.as_ref(), Expr::Call(name, args) if name == "position" && args.is_empty())
            && matches!(rhs.as_ref(), Expr::Number(n) if *n <= 1.0))
}

/// `normalize-space` that borrows: the trimmed slice of a borrowed
/// string whose inner whitespace is already single spaces; a copy only
/// when a run must collapse.
fn normalize_space_cow(s: Cow<'_, str>) -> Cow<'_, str> {
    let mut after_space = false;
    let normal = s.trim_matches(char::is_whitespace).chars().all(|c| {
        let ok = !c.is_whitespace() || (c == ' ' && !after_space);
        after_space = c.is_whitespace();
        ok
    });
    match s {
        Cow::Borrowed(b) if normal => Cow::Borrowed(b.trim_matches(char::is_whitespace)),
        _ => Cow::Owned(normalize_space(&s)),
    }
}

/// Is `path` exactly `.` (`self::node()`, no predicates) — the context
/// node itself?
fn is_dot(path: CPath, steps: &[CStep]) -> bool {
    let (s0, slen) = path.steps;
    !path.absolute
        && slen == 1
        && matches!(
            steps[s0 as usize],
            CStep { axis: Axis::SelfAxis, test: CTest::Node, preds: (_, 0), .. }
        )
}

// ---- execution --------------------------------------------------------------

/// Evaluation context for one candidate node.
#[derive(Clone, Copy)]
pub(crate) struct Ctx {
    pub(crate) node: NodeRef,
    pub(crate) pos: usize,
    pub(crate) size: usize,
}

/// Internal value representation: like [`Value`] but strings borrow from
/// the compiled program (literals) or the document (text-node string
/// values), so hot predicates evaluate without allocating.
pub(crate) enum V<'a> {
    Nodes(Vec<NodeRef>),
    Bool(bool),
    Num(f64),
    Str(Cow<'a, str>),
}

impl<'a> V<'a> {
    fn kind(&self) -> &'static str {
        match self {
            V::Nodes(_) => "a node-set",
            V::Bool(_) => "a boolean",
            V::Num(_) => "a number",
            V::Str(_) => "a string",
        }
    }

    fn into_value(self) -> Value {
        match self {
            V::Nodes(ns) => Value::Nodes(ns),
            V::Bool(b) => Value::Bool(b),
            V::Num(n) => Value::Num(n),
            V::Str(s) => Value::Str(s.into_owned()),
        }
    }
}

pub(crate) fn truthy(v: &V<'_>) -> bool {
    match v {
        V::Nodes(ns) => !ns.is_empty(),
        V::Bool(b) => *b,
        V::Num(n) => *n != 0.0 && !n.is_nan(),
        V::Str(s) => !s.is_empty(),
    }
}

/// Detachable executor scratch state: the node-buffer pool. An
/// [`Executor`] is lifetime-bound to one document, but its warmed buffers
/// are not — a worker applying a rule set page after page hands the pool
/// from one executor to the next ([`Executor::with_pool`] /
/// [`Executor::into_pool`]) instead of re-growing buffers per page.
#[derive(Debug, Default)]
pub struct ScratchPool {
    bufs: Vec<Vec<NodeRef>>,
}

/// "No node" in the label index.
const NO_NODE: u32 = u32::MAX;

/// Executor bound to one document: carries the lazily built per-page
/// tables (document-order rank, label index) and a scratch-buffer pool,
/// all shared by every rule applied to the page. Cheap to construct; not
/// `Sync` (make one per worker thread — see retrozilla's
/// `extract_cluster_parallel_compiled_to`).
pub struct Executor<'d> {
    doc: &'d Document,
    order: OnceCell<Vec<u32>>,
    /// Label index for [`StepPlan::NearestText`] on `preceding::`: per
    /// node, the nearest non-blank text node before it in document order.
    text_before: OnceCell<Vec<u32>>,
    /// The `following::` twin: per node, the first non-blank text node
    /// after its subtree.
    text_after: OnceCell<Vec<u32>>,
    bufs: RefCell<Vec<Vec<NodeRef>>>,
}

impl<'d> Executor<'d> {
    pub fn new(doc: &'d Document) -> Executor<'d> {
        Executor::with_pool(doc, ScratchPool::default())
    }

    /// Bind an executor to `doc`, adopting a pool recycled from a
    /// previous page's executor.
    pub fn with_pool(doc: &'d Document, pool: ScratchPool) -> Executor<'d> {
        Executor {
            doc,
            order: OnceCell::new(),
            text_before: OnceCell::new(),
            text_after: OnceCell::new(),
            bufs: RefCell::new(pool.bufs),
        }
    }

    /// Detach the scratch pool for reuse by the next page's executor.
    pub fn into_pool(self) -> ScratchPool {
        ScratchPool { bufs: self.bufs.into_inner() }
    }

    pub fn document(&self) -> &'d Document {
        self.doc
    }

    /// Evaluate with `ctx` as the context node.
    pub fn eval(&self, cx: &CompiledXPath, ctx: NodeId) -> Result<Value, EvalError> {
        let c = Ctx { node: NodeRef::node(ctx), pos: 1, size: 1 };
        Ok(self.eval_expr(cx, cx.root, &c)?.into_value())
    }

    /// Evaluate and require a node-set; attribute refs are kept.
    pub fn select_refs(&self, cx: &CompiledXPath, ctx: NodeId) -> Result<Vec<NodeRef>, EvalError> {
        let c = Ctx { node: NodeRef::node(ctx), pos: 1, size: 1 };
        match self.eval_expr(cx, cx.root, &c)? {
            V::Nodes(ns) => Ok(ns),
            other => Err(EvalError::new(format!(
                "expression yields {} rather than a node-set",
                other.kind()
            ))),
        }
    }

    /// Evaluate and require a node-set of tree nodes (attributes dropped,
    /// as mapping rules locate elements and text nodes only).
    pub fn select(&self, cx: &CompiledXPath, ctx: NodeId) -> Result<Vec<NodeId>, EvalError> {
        Ok(self.select_refs(cx, ctx)?.into_iter().filter(|r| !r.is_attr()).map(|r| r.id).collect())
    }

    /// The string-value of the first selected node, if any.
    pub fn select_first_string(
        &self,
        cx: &CompiledXPath,
        ctx: NodeId,
    ) -> Result<Option<String>, EvalError> {
        let refs = self.select_refs(cx, ctx)?;
        Ok(refs.first().map(|&r| string_value_cow(self.doc, r).into_owned()))
    }

    // ---- document order ---------------------------------------------------

    /// Rank of every attached node in document order; detached arena
    /// slots rank last (they cannot appear in rule evaluation).
    fn rank(&self) -> &[u32] {
        self.order.get_or_init(|| {
            let doc = self.doc;
            let mut rank = vec![u32::MAX; doc.len()];
            rank[doc.root().index()] = 0;
            for (i, n) in doc.descendants(doc.root()).enumerate() {
                rank[n.index()] = (i + 1) as u32;
            }
            rank
        })
    }

    /// A label candidate: a text node with a non-whitespace character,
    /// i.e. one `normalize-space(.) != ""` keeps.
    fn is_label(&self, id: NodeId) -> bool {
        self.doc.text(id).is_some_and(|t| t.chars().any(|c| !c.is_whitespace()))
    }

    /// The node `[1]` selects from `preceding::text()[normalize-space(.)
    /// != ""]` (or the `following::` twin) at `node`. Text nodes are
    /// leaves, so no ancestor is ever a candidate and `preceding::` is
    /// simply "before in document order"; `following::` starts after the
    /// node's subtree. An attribute context has neither axis.
    fn nearest_text(&self, node: NodeRef, axis: Axis) -> Option<NodeRef> {
        if node.is_attr() {
            return None;
        }
        let index = match axis {
            Axis::Preceding => self.text_before.get_or_init(|| self.index_text_before()),
            _ => self.text_after.get_or_init(|| self.index_text_after()),
        };
        match index[node.id.index()] {
            NO_NODE => None,
            t => Some(NodeRef::node(NodeId(t))),
        }
    }

    /// One pre-order pass: each node records the last label seen so far.
    fn index_text_before(&self) -> Vec<u32> {
        let doc = self.doc;
        let mut index = vec![NO_NODE; doc.len()];
        let mut last = NO_NODE;
        for n in doc.descendants(doc.root()) {
            index[n.index()] = last;
            if self.is_label(n) {
                last = n.0;
            }
        }
        index
    }

    /// One pre-order pass keeping the open ancestor chain: a node whose
    /// subtree has closed waits in `closed` until the next label.
    fn index_text_after(&self) -> Vec<u32> {
        let doc = self.doc;
        let mut index = vec![NO_NODE; doc.len()];
        let mut open = vec![doc.root()];
        let mut closed = Vec::new();
        for n in doc.descendants(doc.root()) {
            let parent = doc.parent(n);
            while open.last().copied() != parent {
                closed.extend(open.pop());
            }
            if self.is_label(n) {
                for c in closed.drain(..) {
                    index[c.index()] = n.0;
                }
            }
            open.push(n);
        }
        index
    }

    pub(crate) fn sort_dedup(&self, refs: &mut Vec<NodeRef>) {
        if refs.len() <= 1 {
            return;
        }
        let rank = self.rank();
        refs.sort_by_key(|r| (rank[r.id.index()], r.attr.map_or(0, |i| i + 1)));
        refs.dedup();
    }

    // ---- scratch buffers --------------------------------------------------

    pub(crate) fn take_buf(&self) -> Vec<NodeRef> {
        self.bufs.borrow_mut().pop().unwrap_or_default()
    }

    pub(crate) fn give_buf(&self, mut buf: Vec<NodeRef>) {
        buf.clear();
        let mut bufs = self.bufs.borrow_mut();
        if bufs.len() < 16 {
            bufs.push(buf);
        }
    }

    /// Truthiness of a predicate's value; a node-set's buffer goes back
    /// to the pool, so a path predicate tested per candidate reuses one.
    fn truthy_recycling(&self, v: V<'_>) -> bool {
        match v {
            V::Nodes(ns) => {
                let keep = !ns.is_empty();
                self.give_buf(ns);
                keep
            }
            other => truthy(&other),
        }
    }

    // ---- expression evaluation --------------------------------------------

    pub(crate) fn eval_expr<'a>(
        &'a self,
        cx: &'a CompiledXPath,
        id: ExprId,
        ctx: &Ctx,
    ) -> Result<V<'a>, EvalError> {
        match &cx.exprs[id as usize] {
            CExpr::Num(n) => Ok(V::Num(*n)),
            CExpr::Str(s) => Ok(V::Str(Cow::Borrowed(s))),
            CExpr::Negate(inner) => {
                let v = self.eval_expr(cx, *inner, ctx)?;
                Ok(V::Num(-self.to_number(&v)))
            }
            CExpr::Binary(op, a, b) => self.eval_binary(cx, *op, *a, *b, ctx),
            CExpr::Union((start, len)) => {
                // Mirror the interpreter's left-assoc nesting exactly:
                // each binary union evaluates BOTH operands before the
                // node-set type check, so `1 | bogus-fn(1)` reports the
                // unknown function, not the type error.
                let mut out = Vec::new();
                let mut first_is_nodes = true;
                for (i, slot) in (*start..start + len).enumerate() {
                    let alt = cx.expr_lists[slot as usize];
                    let v = self.eval_expr(cx, alt, ctx)?;
                    let is_nodes = matches!(&v, V::Nodes(_));
                    if i == 0 {
                        // The first operand's type is only checked once the
                        // second has been evaluated (binary semantics).
                        first_is_nodes = is_nodes;
                    } else if (i == 1 && !first_is_nodes) || !is_nodes {
                        return Err(EvalError::new("union operands must be node-sets"));
                    }
                    if let V::Nodes(ns) = v {
                        out.extend_from_slice(&ns);
                        self.give_buf(ns);
                    }
                }
                self.sort_dedup(&mut out);
                Ok(V::Nodes(out))
            }
            CExpr::Path(pid) => {
                let path = cx.paths[*pid as usize];
                let start = if path.absolute { NodeRef::node(self.doc.root()) } else { ctx.node };
                Ok(V::Nodes(self.eval_path(cx, path, start)?))
            }
            CExpr::Filter { primary, preds, rest } => {
                let base = self.eval_expr(cx, *primary, ctx)?;
                let mut nodes = match base {
                    V::Nodes(ns) => ns,
                    other => return Err(EvalError::new(format!("cannot filter {}", other.kind()))),
                };
                // Filter predicates see the node-set in document order.
                self.apply_preds(cx, *preds, &mut nodes)?;
                let result = match rest {
                    None => nodes,
                    Some(pid) => {
                        let path = cx.paths[*pid as usize];
                        let mut out = Vec::new();
                        for &node in &nodes {
                            let ns = self.eval_path(cx, path, node)?;
                            out.extend_from_slice(&ns);
                            self.give_buf(ns);
                        }
                        self.give_buf(nodes);
                        self.sort_dedup(&mut out);
                        out
                    }
                };
                Ok(V::Nodes(result))
            }
            CExpr::Call(op, args) => self.call(cx, *op, *args, ctx),
            CExpr::CallUnknown(name, args) => {
                // Evaluate arguments eagerly (their errors surface first),
                // then fail like the interpreter does.
                for i in args.0..args.0 + args.1 {
                    self.eval_expr(cx, cx.expr_lists[i as usize], ctx)?;
                }
                Err(EvalError::new(format!("unknown function '{name}'")))
            }
        }
    }

    fn eval_binary<'a>(
        &'a self,
        cx: &'a CompiledXPath,
        op: BinaryOp,
        a: ExprId,
        b: ExprId,
        ctx: &Ctx,
    ) -> Result<V<'a>, EvalError> {
        match op {
            BinaryOp::Or => {
                if truthy(&self.eval_expr(cx, a, ctx)?) {
                    return Ok(V::Bool(true));
                }
                Ok(V::Bool(truthy(&self.eval_expr(cx, b, ctx)?)))
            }
            BinaryOp::And => {
                if !truthy(&self.eval_expr(cx, a, ctx)?) {
                    return Ok(V::Bool(false));
                }
                Ok(V::Bool(truthy(&self.eval_expr(cx, b, ctx)?)))
            }
            BinaryOp::Eq
            | BinaryOp::Ne
            | BinaryOp::Lt
            | BinaryOp::Le
            | BinaryOp::Gt
            | BinaryOp::Ge => {
                let va = self.eval_expr(cx, a, ctx)?;
                let vb = self.eval_expr(cx, b, ctx)?;
                Ok(V::Bool(self.compare(op, &va, &vb)))
            }
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                let na = self.to_number(&self.eval_expr(cx, a, ctx)?);
                let nb = self.to_number(&self.eval_expr(cx, b, ctx)?);
                let r = match op {
                    BinaryOp::Add => na + nb,
                    BinaryOp::Sub => na - nb,
                    BinaryOp::Mul => na * nb,
                    BinaryOp::Div => na / nb,
                    BinaryOp::Mod => na % nb,
                    _ => unreachable!(),
                };
                Ok(V::Num(r))
            }
        }
    }

    /// XPath 1.0 comparison semantics (node-set existential rules) —
    /// mirrors `Engine::compare`, with the right-hand node strings
    /// computed once instead of once per left-hand node.
    fn compare(&self, op: BinaryOp, a: &V<'_>, b: &V<'_>) -> bool {
        use BinaryOp::*;
        match (a, b) {
            (V::Nodes(na), V::Nodes(nb)) => {
                let right: Vec<Cow<'_, str>> =
                    nb.iter().map(|&y| string_value_cow(self.doc, y)).collect();
                na.iter().any(|&x| {
                    let sx = string_value_cow(self.doc, x);
                    right.iter().any(|sy| match op {
                        Eq => sx == *sy,
                        Ne => sx != *sy,
                        _ => cmp_numbers(op, str_to_number(&sx), str_to_number(sy)),
                    })
                })
            }
            (V::Nodes(ns), other) => self.compare_nodeset_scalar(op, ns, other, false),
            (other, V::Nodes(ns)) => self.compare_nodeset_scalar(op, ns, other, true),
            _ => self.compare_scalars(op, a, b),
        }
    }

    fn compare_nodeset_scalar(
        &self,
        op: BinaryOp,
        ns: &[NodeRef],
        scalar: &V<'_>,
        flipped: bool,
    ) -> bool {
        use BinaryOp::*;
        match scalar {
            V::Bool(b) => {
                let nb = !ns.is_empty();
                match op {
                    Eq => nb == *b,
                    Ne => nb != *b,
                    _ => {
                        let (l, r) = order(nb as i32 as f64, *b as i32 as f64, flipped);
                        cmp_numbers(op, l, r)
                    }
                }
            }
            V::Num(n) => ns.iter().any(|&x| {
                let nx = str_to_number(&string_value_cow(self.doc, x));
                match op {
                    Eq => nx == *n,
                    Ne => nx != *n,
                    _ => {
                        let (l, r) = order(nx, *n, flipped);
                        cmp_numbers(op, l, r)
                    }
                }
            }),
            V::Str(s) => ns.iter().any(|&x| {
                let sx = string_value_cow(self.doc, x);
                match op {
                    Eq => sx == *s,
                    Ne => sx != *s,
                    _ => {
                        let (l, r) = order(str_to_number(&sx), str_to_number(s), flipped);
                        cmp_numbers(op, l, r)
                    }
                }
            }),
            V::Nodes(_) => unreachable!(),
        }
    }

    fn compare_scalars(&self, op: BinaryOp, a: &V<'_>, b: &V<'_>) -> bool {
        use BinaryOp::*;
        match op {
            Eq | Ne => {
                let eq = if matches!(a, V::Bool(_)) || matches!(b, V::Bool(_)) {
                    truthy(a) == truthy(b)
                } else if matches!(a, V::Num(_)) || matches!(b, V::Num(_)) {
                    self.to_number(a) == self.to_number(b)
                } else {
                    self.to_string_value(a) == self.to_string_value(b)
                };
                if op == Eq {
                    eq
                } else {
                    !eq
                }
            }
            _ => cmp_numbers(op, self.to_number(a), self.to_number(b)),
        }
    }

    // ---- conversions (mirror value.rs on the borrowed representation) -----

    fn to_string_value<'v>(&'v self, v: &'v V<'_>) -> Cow<'v, str> {
        match v {
            V::Nodes(ns) => match ns.first() {
                Some(&n) => string_value_cow(self.doc, n),
                None => Cow::Borrowed(""),
            },
            V::Bool(true) => Cow::Borrowed("true"),
            V::Bool(false) => Cow::Borrowed("false"),
            V::Num(n) => Cow::Owned(format_number(*n)),
            V::Str(s) => Cow::Borrowed(s.as_ref()),
        }
    }

    /// The string-value of expression `id`, read in place where it can
    /// be: a literal borrows the program and `.` borrows the context
    /// node's text, without materialising a node-set. A string result
    /// (such as `normalize-space(.)`) keeps its borrow; any other value
    /// is converted by [`to_string_value`](Executor::to_string_value).
    fn eval_string<'a>(
        &'a self,
        cx: &'a CompiledXPath,
        id: ExprId,
        ctx: &Ctx,
    ) -> Result<Cow<'a, str>, EvalError> {
        match &cx.exprs[id as usize] {
            CExpr::Str(s) => Ok(Cow::Borrowed(s)),
            CExpr::Path(pid) if is_dot(cx.paths[*pid as usize], &cx.steps) => {
                Ok(string_value_cow(self.doc, ctx.node))
            }
            _ => Ok(match self.eval_expr(cx, id, ctx)? {
                V::Str(s) => s,
                other => Cow::Owned(self.to_string_value(&other).into_owned()),
            }),
        }
    }

    fn to_number(&self, v: &V<'_>) -> f64 {
        match v {
            V::Nodes(_) => str_to_number(&self.to_string_value(v)),
            V::Bool(true) => 1.0,
            V::Bool(false) => 0.0,
            V::Num(n) => *n,
            V::Str(s) => str_to_number(s),
        }
    }

    // ---- location paths ---------------------------------------------------

    fn eval_path(
        &self,
        cx: &CompiledXPath,
        path: CPath,
        start: NodeRef,
    ) -> Result<Vec<NodeRef>, EvalError> {
        let mut current = self.take_buf();
        current.push(start);
        let mut scratch = self.take_buf();
        let (s0, slen) = path.steps;
        for si in s0..s0 + slen {
            let step = cx.steps[si as usize];
            let mut next = self.take_buf();
            self.advance_step(cx, step, &current, &mut next, &mut scratch)?;
            self.give_buf(std::mem::replace(&mut current, next));
        }
        self.give_buf(scratch);
        Ok(current)
    }

    /// Advance a path frontier by one location step: apply `step` to
    /// every node of `current`, appending to `next` and restoring
    /// document order. This is the step kernel shared by [`eval_path`]
    /// and the fused cluster executor ([`crate::fuse`]) — rules merged
    /// into a shared-prefix trie run through the byte-identical frontier
    /// transition they would take individually.
    ///
    /// [`eval_path`]: Executor::eval_path
    pub(crate) fn advance_step(
        &self,
        cx: &CompiledXPath,
        step: CStep,
        current: &[NodeRef],
        next: &mut Vec<NodeRef>,
        scratch: &mut Vec<NodeRef>,
    ) -> Result<(), EvalError> {
        let multi_ctx = current.len() > 1;
        for &node in current {
            match step.plan {
                // `TAG[n]`: walk the axis only to the n-th match.
                StepPlan::Nth(n) => self.push_nth(cx, node, step, n, next),
                // The label step: one index lookup, then the predicates
                // after its `[1]`.
                StepPlan::NearestText => {
                    scratch.clear();
                    scratch.extend(self.nearest_text(node, step.axis));
                    self.apply_preds(cx, (step.preds.0 + 2, step.preds.1 - 2), scratch)?;
                    next.extend_from_slice(scratch);
                }
                StepPlan::Generic => {
                    scratch.clear();
                    self.for_each_axis(node, step.axis, |r| {
                        if self.test_matches(cx, r, step.axis, step.test) {
                            scratch.push(r);
                        }
                        true
                    });
                    self.apply_preds(cx, step.preds, scratch)?;
                    next.extend_from_slice(scratch);
                }
            }
        }
        if multi_ctx {
            self.sort_dedup(next);
        } else if step.axis.is_reverse() {
            // A single context on a reverse axis yields nearest-first
            // candidates: reversing restores document order without a
            // sort (the interpreter sorts here).
            next.reverse();
        }
        Ok(())
    }

    /// Push the `n`-th node matching `step` on its axis, if any.
    pub(crate) fn push_nth(
        &self,
        cx: &CompiledXPath,
        node: NodeRef,
        step: CStep,
        n: f64,
        out: &mut Vec<NodeRef>,
    ) {
        if n < 1.0 || n.fract() != 0.0 {
            return;
        }
        let target = n as usize;
        let mut seen = 0usize;
        self.for_each_axis(node, step.axis, |r| {
            if self.test_matches(cx, r, step.axis, step.test) {
                seen += 1;
                if seen == target {
                    out.push(r);
                    return false;
                }
            }
            true
        });
    }

    /// Visit the nodes on `axis` from `node` in axis order (the order
    /// `position()` counts). The callback returns `false` to stop early.
    pub(crate) fn for_each_axis(
        &self,
        node: NodeRef,
        axis: Axis,
        mut f: impl FnMut(NodeRef) -> bool,
    ) {
        let doc = self.doc;
        if node.attr.is_some() {
            // Axes from an attribute node.
            match axis {
                Axis::Parent => {
                    f(NodeRef::node(node.id));
                }
                Axis::SelfAxis => {
                    f(node);
                }
                Axis::Ancestor => {
                    if !f(NodeRef::node(node.id)) {
                        return;
                    }
                    for a in doc.ancestors(node.id) {
                        if !f(NodeRef::node(a)) {
                            return;
                        }
                    }
                }
                Axis::AncestorOrSelf => {
                    if !f(node) || !f(NodeRef::node(node.id)) {
                        return;
                    }
                    for a in doc.ancestors(node.id) {
                        if !f(NodeRef::node(a)) {
                            return;
                        }
                    }
                }
                _ => {}
            }
            return;
        }
        let id = node.id;
        macro_rules! walk {
            ($iter:expr) => {
                for n in $iter {
                    if !f(NodeRef::node(n)) {
                        return;
                    }
                }
            };
        }
        match axis {
            Axis::Child => walk!(doc.children(id)),
            Axis::Descendant => walk!(doc.descendants(id)),
            Axis::DescendantOrSelf => {
                if !f(node) {
                    return;
                }
                walk!(doc.descendants(id));
            }
            Axis::Parent => {
                if let Some(p) = doc.parent(id) {
                    f(NodeRef::node(p));
                }
            }
            Axis::Ancestor => walk!(doc.ancestors(id)),
            Axis::AncestorOrSelf => {
                if !f(node) {
                    return;
                }
                walk!(doc.ancestors(id));
            }
            Axis::FollowingSibling => {
                let mut cur = doc.next_sibling(id);
                while let Some(s) = cur {
                    if !f(NodeRef::node(s)) {
                        return;
                    }
                    cur = doc.next_sibling(s);
                }
            }
            Axis::PrecedingSibling => {
                let mut cur = doc.prev_sibling(id);
                while let Some(s) = cur {
                    if !f(NodeRef::node(s)) {
                        return;
                    }
                    cur = doc.prev_sibling(s);
                }
            }
            Axis::Following => walk!(doc.following(id)),
            Axis::Preceding => walk!(doc.preceding(id)),
            Axis::SelfAxis => {
                f(node);
            }
            Axis::Attribute => {
                if let Some(el) = doc.element(id) {
                    for i in 0..el.attrs.len() {
                        if !f(NodeRef::attribute(id, i as u32)) {
                            return;
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn test_matches(
        &self,
        cx: &CompiledXPath,
        r: NodeRef,
        _axis: Axis,
        test: CTest,
    ) -> bool {
        let doc = self.doc;
        if r.is_attr() {
            // Attribute refs reach here from the attribute axis and from
            // self/ancestor-or-self steps starting at an attribute; name
            // tests match against the attribute's name either way.
            return match test {
                CTest::Name(nid) => doc
                    .element(r.id)
                    .and_then(|el| el.attrs.get(r.attr.unwrap() as usize))
                    .map(|a| a.name.eq_ignore_ascii_case(&cx.names[nid as usize]))
                    .unwrap_or(false),
                CTest::Wildcard | CTest::Node => true,
                CTest::Text | CTest::Comment => false,
            };
        }
        match test {
            CTest::Name(nid) => doc
                .tag_name(r.id)
                .map(|t| t.eq_ignore_ascii_case(&cx.names[nid as usize]))
                .unwrap_or(false),
            CTest::Wildcard => doc.is_element(r.id),
            CTest::Text => doc.is_text(r.id),
            CTest::Comment => matches!(doc.node(r.id).data, NodeData::Comment(_)),
            CTest::Node => true,
        }
    }

    /// Apply a predicate window to `list` in place. `list` must be in the
    /// order that defines `position()`.
    pub(crate) fn apply_preds(
        &self,
        cx: &CompiledXPath,
        preds: Span,
        list: &mut Vec<NodeRef>,
    ) -> Result<(), EvalError> {
        let (p0, plen) = preds;
        for pi in p0..p0 + plen {
            match cx.preds[pi as usize] {
                CPred::Position(n) => {
                    let idx = if n >= 1.0 && n.fract() == 0.0 && (n as usize) <= list.len() {
                        Some(n as usize - 1)
                    } else {
                        None
                    };
                    match idx {
                        Some(i) => {
                            let keep = list[i];
                            list.clear();
                            list.push(keep);
                        }
                        None => list.clear(),
                    }
                }
                CPred::Expr(eid) => {
                    let size = list.len();
                    let mut write = 0usize;
                    for i in 0..size {
                        let ctx = Ctx { node: list[i], pos: i + 1, size };
                        let keep = match self.eval_expr(cx, eid, &ctx)? {
                            // A numeric predicate selects by position.
                            V::Num(n) => (ctx.pos as f64) == n,
                            other => self.truthy_recycling(other),
                        };
                        if keep {
                            list[write] = list[i];
                            write += 1;
                        }
                    }
                    list.truncate(write);
                }
            }
        }
        Ok(())
    }

    // ---- function library --------------------------------------------------

    fn call<'a>(
        &'a self,
        cx: &'a CompiledXPath,
        op: FnOp,
        args: Span,
        ctx: &Ctx,
    ) -> Result<V<'a>, EvalError> {
        let doc = self.doc;
        // String kernels: in-arity calls read their arguments in place,
        // with no argument vector and no copy of a text node or literal.
        let (lo, hi) = op.arity();
        if (lo..=hi).contains(&(args.1 as usize)) {
            let arg = |i: u32| self.eval_string(cx, cx.expr_lists[(args.0 + i) as usize], ctx);
            // Zero-argument forms, and the lenient one-argument
            // `contains(needle)` (paper Table 2 row b), read the context
            // node.
            let context = || string_value_cow(doc, ctx.node);
            match op {
                FnOp::StringFn => return Ok(V::Str(if args.1 == 0 { context() } else { arg(0)? })),
                FnOp::NormalizeSpace => {
                    let s = if args.1 == 0 { context() } else { arg(0)? };
                    return Ok(V::Str(normalize_space_cow(s)));
                }
                FnOp::Contains | FnOp::StartsWith | FnOp::EndsWith => {
                    let (a, b) =
                        if args.1 == 1 { (context(), arg(0)?) } else { (arg(0)?, arg(1)?) };
                    return Ok(V::Bool(match op {
                        FnOp::Contains => a.contains(&*b),
                        FnOp::StartsWith => a.starts_with(&*b),
                        _ => a.ends_with(&*b),
                    }));
                }
                _ => {}
            }
        }
        let mut vals: Vec<V<'a>> = Vec::with_capacity(args.1 as usize);
        for i in args.0..args.0 + args.1 {
            vals.push(self.eval_expr(cx, cx.expr_lists[i as usize], ctx)?);
        }
        let argc = vals.len();
        let arity = |lo: usize, hi: usize| -> Result<(), EvalError> {
            if argc < lo || argc > hi {
                Err(EvalError::new(format!(
                    "{}() expects {lo}..{hi} arguments, got {argc}",
                    op.name()
                )))
            } else {
                Ok(())
            }
        };
        match op {
            FnOp::Position => {
                arity(0, 0)?;
                Ok(V::Num(ctx.pos as f64))
            }
            FnOp::Last => {
                arity(0, 0)?;
                Ok(V::Num(ctx.size as f64))
            }
            FnOp::Count => {
                arity(1, 1)?;
                match &vals[0] {
                    V::Nodes(ns) => Ok(V::Num(ns.len() as f64)),
                    _ => Err(EvalError::new("count() requires a node-set")),
                }
            }
            FnOp::NameOf | FnOp::LocalName => {
                arity(0, 1)?;
                let node = match vals.first() {
                    Some(V::Nodes(ns)) => ns.first().copied(),
                    Some(_) => {
                        return Err(EvalError::new(format!("{}() requires a node-set", op.name())))
                    }
                    None => Some(ctx.node),
                };
                Ok(V::Str(Cow::Owned(
                    node.map(|n| crate::value::node_name(doc, n)).unwrap_or_default(),
                )))
            }
            FnOp::Sum => {
                arity(1, 1)?;
                match &vals[0] {
                    V::Nodes(ns) => {
                        let total: f64 =
                            ns.iter().map(|&n| str_to_number(&string_value_cow(doc, n))).sum();
                        Ok(V::Num(total))
                    }
                    _ => Err(EvalError::new("sum() requires a node-set")),
                }
            }
            FnOp::Concat => {
                if argc < 2 {
                    return Err(EvalError::new("concat() expects at least 2 arguments"));
                }
                let mut out = String::new();
                for v in &vals {
                    out.push_str(&self.to_string_value(v));
                }
                Ok(V::Str(Cow::Owned(out)))
            }
            // In-arity calls returned from the string kernels above.
            FnOp::StringFn
            | FnOp::NormalizeSpace
            | FnOp::Contains
            | FnOp::StartsWith
            | FnOp::EndsWith => Err(arity(lo, hi).expect_err("in-arity calls take the kernels")),
            FnOp::SubstringBefore => {
                arity(2, 2)?;
                let a = self.to_string_value(&vals[0]);
                let b = self.to_string_value(&vals[1]);
                Ok(V::Str(Cow::Owned(
                    a.find(b.as_ref()).map(|i| a[..i].to_string()).unwrap_or_default(),
                )))
            }
            FnOp::SubstringAfter => {
                arity(2, 2)?;
                let a = self.to_string_value(&vals[0]);
                let b = self.to_string_value(&vals[1]);
                Ok(V::Str(Cow::Owned(
                    a.find(b.as_ref()).map(|i| a[i + b.len()..].to_string()).unwrap_or_default(),
                )))
            }
            FnOp::Substring => {
                arity(2, 3)?;
                let s = self.to_string_value(&vals[0]);
                let chars: Vec<char> = s.chars().collect();
                let start = self.to_number(&vals[1]);
                let len = vals.get(2).map(|v| self.to_number(v));
                Ok(V::Str(Cow::Owned(xpath_substring(&chars, start, len))))
            }
            FnOp::StringLength => {
                arity(0, 1)?;
                // Borrowed argument string: no copy before counting.
                let s = match vals.first() {
                    Some(v) => self.to_string_value(v),
                    None => string_value_cow(doc, ctx.node),
                };
                Ok(V::Num(s.chars().count() as f64))
            }
            FnOp::Translate => {
                arity(3, 3)?;
                let s = self.to_string_value(&vals[0]);
                let from: Vec<char> = self.to_string_value(&vals[1]).chars().collect();
                let to: Vec<char> = self.to_string_value(&vals[2]).chars().collect();
                let mut out = String::with_capacity(s.len());
                for c in s.chars() {
                    match from.iter().position(|&f| f == c) {
                        Some(i) => {
                            if let Some(&r) = to.get(i) {
                                out.push(r);
                            }
                            // else: removed
                        }
                        None => out.push(c),
                    }
                }
                Ok(V::Str(Cow::Owned(out)))
            }
            FnOp::BooleanFn => {
                arity(1, 1)?;
                Ok(V::Bool(truthy(&vals[0])))
            }
            FnOp::Not => {
                arity(1, 1)?;
                Ok(V::Bool(!truthy(&vals[0])))
            }
            FnOp::TrueFn => {
                arity(0, 0)?;
                Ok(V::Bool(true))
            }
            FnOp::FalseFn => {
                arity(0, 0)?;
                Ok(V::Bool(false))
            }
            FnOp::NumberFn => {
                arity(0, 1)?;
                let n = match vals.first() {
                    Some(v) => self.to_number(v),
                    None => str_to_number(&string_value_cow(doc, ctx.node)),
                };
                Ok(V::Num(n))
            }
            FnOp::Floor => {
                arity(1, 1)?;
                Ok(V::Num(self.to_number(&vals[0]).floor()))
            }
            FnOp::Ceiling => {
                arity(1, 1)?;
                Ok(V::Num(self.to_number(&vals[0]).ceil()))
            }
            FnOp::Round => {
                arity(1, 1)?;
                // XPath round: round half towards +infinity.
                Ok(V::Num((self.to_number(&vals[0]) + 0.5).floor()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Engine;
    use crate::parser::{parse, parse_lenient};
    use retroweb_html::parse as parse_html;

    const MOVIE: &str = "<html><body>\
        <div>header</div>\
        <div><table><tr><td>Title</td><td>Brazil</td></tr>\
        <tr><td>Runtime</td><td>142 min</td></tr>\
        <tr><td>Country</td><td>UK</td></tr></table></div>\
        <ul><li>alpha</li><li>beta</li><li>gamma</li></ul>\
        </body></html>";

    const CONTEXT_PAGE: &str = "<html><body><table><tr><td>\
        <b>Also Known As:</b> The Wing and the Thigh <br>\
        <b>Runtime:</b> 104 min <br>\
        <b>Country:</b> France <br>\
        </td></tr></table></body></html>";

    const ATTRS: &str =
        "<body><a href=\"x\" id=\"l1\">one</a><a id=\"l2\">two</a><p class=\"c\">p</p></body>";

    /// Every differential corpus entry is checked for identical results
    /// (or identical err-ness) between interpreter and compiled IR.
    fn assert_equivalent(doc: &Document, xpath: &str, lenient: bool) {
        let expr = if lenient {
            parse_lenient(xpath).unwrap_or_else(|e| panic!("parse {xpath}: {e}"))
        } else {
            parse(xpath).unwrap_or_else(|e| panic!("parse {xpath}: {e}"))
        };
        let engine = Engine::new(doc);
        let exec = Executor::new(doc);
        let compiled = CompiledXPath::compile(&expr);
        let interpreted = engine.eval(&expr, doc.root());
        let executed = exec.eval(&compiled, doc.root());
        match (interpreted, executed) {
            // NaN == NaN for the purpose of equivalence.
            (Ok(Value::Num(a)), Ok(Value::Num(b))) if a.is_nan() && b.is_nan() => {}
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{xpath}"),
            (Err(a), Err(b)) => assert_eq!(a.message, b.message, "{xpath}"),
            (a, b) => panic!("{xpath}: interpreter {a:?} vs compiled {b:?}"),
        }
        // Node-set selections must agree through select_refs too.
        let sa = engine.select_refs(&expr, doc.root());
        let sb = exec.select_refs(&compiled, doc.root());
        match (sa, sb) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "select {xpath}"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("select {xpath}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn differential_corpus_movie() {
        let doc = parse_html(MOVIE);
        for xpath in [
            "/HTML[1]/BODY[1]/DIV[2]/TABLE[1]/TR[2]/TD[2]",
            "/HTML/BODY//TR[2]/TD[2]/text()",
            "//td",
            "//TD",
            "//Td",
            "//TABLE[1]/TR[position()>=1]",
            "//TABLE[1]/TR[position()>1]",
            "//TABLE[1]/TR[last()]",
            "//UL/LI/text()",
            "//TD[contains(., \"min\")]",
            "//TR[3]/preceding-sibling::TR[1]/TD[2]/text()",
            "//TD[1]/ancestor::TABLE",
            "//LI[2]/ancestor::*",
            "//LI[1]/following::LI",
            "//UL/preceding::TD[1]",
            "//LI[3] | //LI[1]",
            "//LI[1] | //LI[2] | //LI[3]",
            "(//TD)[4]",
            "//TD[4]",
            "//TABLE[2]",
            "//TR[9]/TD[1]",
            "//TR[0]",
            "//TR[1.5]",
            "//TR[-1]",
            "count(//TR)",
            "count(//NOPE) = 0",
            "string-length(\"abc\")",
            "normalize-space(\"  a   b \")",
            "concat(\"a\", \"b\", \"c\")",
            "substring(\"12345\", 2, 3)",
            "substring(\"12345\", 1.5, 2.6)",
            "substring-before(\"142 min\", \" min\")",
            "substring-after(\"Runtime: 142\", \": \")",
            "starts-with(\"Runtime:\", \"Run\")",
            "ends-with(\"Runtime:\", \":\")",
            "translate(\"bar\", \"abc\", \"ABC\")",
            "contains(\"108 min\", \"min\")",
            "floor(1.9)",
            "ceiling(1.1)",
            "round(2.5)",
            "round(-2.5)",
            "2 + 3 * 4",
            "10 mod 3",
            "8 div 2",
            "-(3)",
            "number(\"42\")",
            "number(\"x\")",
            "sum(//NOPE)",
            "not(count(//TR) = 3)",
            "count(//TR) > 2 and count(//LI) = 3",
            "count(//TR) > 5 or true()",
            "boolean(//NOPE)",
            "//TD = \"UK\"",
            "//TD != \"UK\"",
            "//TD = //LI",
            "//TD = 142",
            "142 = //TD",
            "//TD < //LI",
            "2 > count(//NOPE)",
            "name(//TABLE)",
            "local-name(//UL/LI[1])",
            "string(//TR[2])",
            "string()",
            "normalize-space()",
            "string-length()",
            "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(., \"Runtime\")]]",
            "//*[self::TD]",
            "//comment()",
            "//node()",
            "//TR/node()",
            "descendant::TD",
            "descendant-or-self::node()",
            ".",
            "..",
            "./DIV",
            "//TD[position() = last()]",
            "//LI[position() mod 2 = 1]",
            // Error cases: both sides must fail identically.
            "bogus-fn(1)",
            "count()",
            "1 | 2",
            "1 | bogus-fn(1)",
            "//TD | bogus-fn(1)",
            "1 | 2 | 3",
            "count(1)",
            "sum(\"x\")",
            "name(1)",
            "(1)[1]",
            "true() | //TD",
        ] {
            assert_equivalent(&doc, xpath, false);
        }
    }

    #[test]
    fn differential_corpus_contextual() {
        let doc = parse_html(CONTEXT_PAGE);
        for xpath in [
            "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1][contains(normalize-space(.), \"Runtime:\")]]",
            "//B/text()",
            "//TD/text()",
            "//text()[normalize-space(.) != \"\"]",
            "//BR/preceding::text()[1]",
            "//BR/following::text()",
        ] {
            assert_equivalent(&doc, xpath, false);
        }
    }

    /// Blank text between tags, an NBSP-only cell, a comment and an
    /// attribute: everything the label index must treat exactly as the
    /// `normalize-space(.) != ""` filter does.
    const LABEL_PAGE: &str = "<html><body>\n  <table>\n\
        <tr> <td>Runtime:</td> <td>&nbsp;</td> <!-- gap --> <td id=\"v\">104 min</td> </tr>\n\
        <tr><td><b>Country:</b> France</td><td><i> </i></td></tr>\n\
        </table>\n  <p>tail   text</p>\n</body></html>";

    const NEAREST_BEFORE: &str = "preceding::text()[normalize-space(.) != \"\"][1]";
    const NEAREST_AFTER: &str = "following::text()[normalize-space(.) != \"\"][1]";

    #[test]
    fn differential_corpus_label_index() {
        let doc = parse_html(LABEL_PAGE);
        let exprs = [
            // Attribute contexts have neither axis.
            format!("//TD/@id/{NEAREST_BEFORE}"),
            format!("//TD/@id/{NEAREST_AFTER}"),
            // No non-blank text before the first one / after the last.
            format!("(//text()[normalize-space(.) != \"\"])[1]/{NEAREST_BEFORE}"),
            format!("/HTML/{NEAREST_BEFORE}"),
            format!("/{NEAREST_BEFORE}"),
            format!("/{NEAREST_AFTER}"),
            format!("//P/text()/{NEAREST_AFTER}"),
            // `following::` skips the context's own subtree: from the
            // first row it lands on "Country:", not "Runtime:".
            format!("//TR[1]/{NEAREST_AFTER}"),
            format!("//TD[4]/{NEAREST_AFTER}"),
            format!("//B/{NEAREST_AFTER}"),
            // Blank and NBSP-only text is passed over in both directions.
            format!("//TD[3]/{NEAREST_BEFORE}"),
            format!("//I/{NEAREST_BEFORE}"),
            format!("//comment()/{NEAREST_BEFORE}"),
            format!("//comment()/{NEAREST_AFTER}"),
            // Multiple contexts: one lookup each, merged in document order.
            format!("//TD/{NEAREST_BEFORE}"),
            format!("//node()/{NEAREST_AFTER}"),
            format!("//TD/text()[{NEAREST_BEFORE}[contains(normalize-space(.), \"Runtime:\")]]"),
            format!("//TD/text()[{NEAREST_AFTER}[contains(normalize-space(.), \"min\")]]"),
            format!("//TD[{NEAREST_BEFORE}[starts-with(., \"Run\")][1]]"),
            // The zero-argument spelling is the same step.
            "//TD/preceding::text()[normalize-space() != \"\"][1]".to_string(),
            // Near misses keep their generic plans.
            "//TD/preceding::text()[normalize-space(.) != \"\"][2]".to_string(),
            "//TD/preceding::node()[normalize-space(.) != \"\"][1]".to_string(),
            "//TD/preceding-sibling::text()[normalize-space(.) != \"\"][1]".to_string(),
            "//TD/preceding::text()[normalize-space(..) != \"\"][1]".to_string(),
            "//TD/preceding::text()[normalize-space(.) != \" \"][1]".to_string(),
            // String kernels: borrowed comparisons against literals.
            "//TD[. = \"Runtime:\"]".to_string(),
            "//TD/text()[. != \"Runtime:\"]".to_string(),
            "//TD[\"104 min\" = normalize-space(.)]".to_string(),
            "//TD[normalize-space(.) = \"\"]".to_string(),
            "//TD[string() = \"France\"]".to_string(),
            "//@id[. = \"v\"]".to_string(),
            "//P[normalize-space(.) = \"tail text\"]".to_string(),
            "//P[normalize-space() = \"tail   text\"]".to_string(),
            "//TD[ends-with(normalize-space(), \":\")]".to_string(),
            "//TD[starts-with(., \"&\")]".to_string(),
            "normalize-space(//TABLE)".to_string(),
            "normalize-space(1 div 0)".to_string(),
            "string(true())".to_string(),
            "string(-0.5)".to_string(),
            "string(//NOPE)".to_string(),
            "string(1, 2)".to_string(),
            "contains(true(), \"ru\")".to_string(),
            "starts-with(//TD, //B)".to_string(),
            "ends-with(1)".to_string(),
            "normalize-space(1, 2)".to_string(),
            "contains(bogus-fn(), \"x\")".to_string(),
        ];
        for xpath in &exprs {
            assert_equivalent(&doc, xpath, false);
        }
    }

    #[test]
    fn context_predicate_takes_the_label_index() {
        use crate::generalize::{context_predicate, ContextDirection};
        for direction in [ContextDirection::Before, ContextDirection::After] {
            let compiled = CompiledXPath::compile(&context_predicate("Runtime:", direction));
            let plans: Vec<StepPlan> = compiled.steps.iter().map(|s| s.plan).collect();
            assert_eq!(
                plans.iter().filter(|p| **p == StepPlan::NearestText).count(),
                1,
                "{direction:?}: {plans:?}"
            );
        }
    }

    #[test]
    fn broadened_position_predicate_compiles_away() {
        use crate::generalize::broaden_step;
        let Expr::Path(precise) = parse("/HTML[1]/BODY[1]/UL[1]/LI[2]/text()").unwrap() else {
            panic!("a location path")
        };
        let broadened = Expr::Path(broaden_step(&precise, 3));
        assert_eq!(broadened.to_string(), "/HTML[1]/BODY[1]/UL[1]/LI[position() >= 1]/text()");
        let compiled = CompiledXPath::compile(&broadened);
        let li = compiled.steps[3];
        assert_eq!((li.preds.1, li.plan), (0, StepPlan::Generic));
        // Positions after it are unchanged: `[position() >= 1][2]` is `[2]`.
        let compiled = CompiledXPath::compile(&parse("//LI[position() >= 1][2]").unwrap());
        assert!(compiled.steps.iter().any(|s| s.plan == StepPlan::Nth(2.0)));
        // Only a bound of 1 or less is always true.
        let compiled = CompiledXPath::compile(&parse("//LI[position() >= 2]").unwrap());
        assert!(compiled.steps.iter().any(|s| s.preds.1 == 1));
        let doc = parse_html(MOVIE);
        for xpath in [
            "/HTML[1]/BODY[1]/UL[1]/LI[position() >= 1]/text()",
            "//LI[position() >= 1][2]",
            "//LI[position() >= 0.5][last()]",
            "//LI[position() >= 2]",
            "(//LI)[position() >= 1]/text()",
        ] {
            assert_equivalent(&doc, xpath, false);
        }
    }

    #[test]
    fn label_index_matches_axis_walk_on_every_node() {
        let doc = parse_html(LABEL_PAGE);
        let exec = Executor::new(&doc);
        let label = |n: &NodeId| doc.text(*n).is_some_and(|t| !normalize_space(t).is_empty());
        for n in std::iter::once(doc.root()).chain(doc.descendants(doc.root())) {
            let node = NodeRef::node(n);
            let before = doc.preceding(n).find(label).map(NodeRef::node);
            let after = doc.following(n).find(label).map(NodeRef::node);
            assert_eq!(exec.nearest_text(node, Axis::Preceding), before, "before {n}");
            assert_eq!(exec.nearest_text(node, Axis::Following), after, "after {n}");
        }
    }

    #[test]
    fn normalize_space_borrows_unless_collapsing() {
        for (input, borrowed) in [
            ("", true),
            ("  Runtime:  ", true),
            ("a b c", true),
            ("a  b", false),
            ("a\tb", false),
            ("\u{a0}", true),
            ("a\u{a0}b", false),
            ("\n Country: \n", true),
        ] {
            let got = normalize_space_cow(Cow::Borrowed(input));
            assert_eq!(got, normalize_space(input), "{input:?}");
            assert_eq!(matches!(got, Cow::Borrowed(_)), borrowed, "{input:?}");
        }
    }

    #[test]
    fn differential_corpus_attributes() {
        let doc = parse_html(ATTRS);
        for xpath in [
            "//A[@href]",
            "//A[@id=\"l2\"]",
            "//A[1]/@href",
            "//A/@*",
            "//@id",
            "//A/@href/..",
            "//A/@href/parent::A",
            "//A/@href/ancestor::BODY",
            "//A/@href/ancestor-or-self::node()",
            "//A/@href/self::node()",
            "//P[@class=\"c\"]",
            "string(//A[1]/@href)",
            "count(//@id)",
        ] {
            assert_equivalent(&doc, xpath, false);
        }
    }

    #[test]
    fn lenient_one_arg_contains_matches() {
        let doc = parse_html(MOVIE);
        assert_equivalent(&doc, "//TD/text()[contains(\"min\")]", true);
    }

    #[test]
    fn positional_fast_path_agrees_with_filtering() {
        let doc = parse_html(MOVIE);
        // These all take the push_nth fast path; positions out of range,
        // fractional and negative must produce empty sets, not panics.
        for xpath in [
            "/HTML[1]/BODY[1]/DIV[2]",
            "//TR[2]",
            "//TR[2]/TD[2]",
            "//LI[3]",
            "//LI[4]",
            "//TR[2]/preceding-sibling::TR[1]",
            "//TR[1]/following-sibling::TR[2]",
            "//LI[1]/ancestor::*[1]",
            "//LI[1]/ancestor::*[2]",
        ] {
            assert_equivalent(&doc, xpath, false);
        }
    }

    #[test]
    fn executor_reuse_across_expressions() {
        let doc = parse_html(MOVIE);
        let exec = Executor::new(&doc);
        let a = CompiledXPath::parse("//TD/text()").unwrap();
        let b = CompiledXPath::parse("//LI[2]").unwrap();
        // Interleaved repeated use must keep producing stable results.
        for _ in 0..3 {
            assert_eq!(exec.select(&a, doc.root()).unwrap().len(), 6);
            assert_eq!(exec.select(&b, doc.root()).unwrap().len(), 1);
        }
    }

    #[test]
    fn compiled_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledXPath>();
    }

    #[test]
    fn source_round_trips_display() {
        let expr = parse("//TD[contains(., \"min\")]").unwrap();
        let compiled = CompiledXPath::compile(&expr);
        assert_eq!(compiled.source(), expr.to_string());
    }

    #[test]
    fn select_first_string_matches_engine() {
        let doc = parse_html(MOVIE);
        let expr = parse("//TR[2]/TD[2]/text()").unwrap();
        let engine = Engine::new(&doc);
        let exec = Executor::new(&doc);
        let compiled = CompiledXPath::compile(&expr);
        assert_eq!(
            engine.select_first_string(&expr, doc.root()).unwrap(),
            exec.select_first_string(&compiled, doc.root()).unwrap()
        );
    }
}
