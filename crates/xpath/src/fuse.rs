//! Cluster-level fusion: merge many compiled location paths into one
//! shared-prefix plan executed in a single DOM traversal.
//!
//! The paper's mapping rules are highly redundant within a cluster —
//! every attribute's XPath anchors on the same table or heading region,
//! so executing the rules one by one re-walks the same prefix steps once
//! per rule. [`FusedPlan::build`] merges N [`CompiledXPath`] step
//! programs into a **trie over location steps**: two programs share a
//! trie node exactly when their steps are structurally identical up to
//! that depth, so a common anchor prefix (`//TABLE[2]/TR/...`) is walked
//! once per page and the traversal fans out only where rules genuinely
//! diverge.
//!
//! ## Plan shape
//!
//! The trie is stored as a flat `Vec<TrieNode>`; node 0 is a synthetic
//! root carrying no step. Each other node names one `(program, step)`
//! pair — the *representative* occurrence of that step — plus its child
//! edges and the set of programs whose path **ends** there. Execution
//! ([`FusedPlan::execute`]) does a depth-first walk: the frontier
//! (context node-set) at a trie node is advanced through each child's
//! step via the same `advance_step` kernel that per-rule execution
//! uses, so every program observes the byte-identical frontier sequence
//! it would compute alone.
//!
//! ## Fusibility rules
//!
//! A program is fused iff its root expression is a single **absolute
//! location path** (`CExpr::Path` with `absolute == true`). That covers
//! everything the precise-path builder and the generalisation operators
//! emit — positional paths, contextual predicates, repetitive-step
//! descents — while unions (alternative paths), filter expressions,
//! bare function calls and relative paths take the fallback. Fusibility
//! is decided **per path**: a cluster mixing fusible and unfusible rules
//! still fuses the fusible majority.
//!
//! Steps are compared *structurally* across programs: axes and plans by
//! value, name tests through each program's own name table (interned
//! ids are program-local and never compared directly), numeric literals
//! bit-for-bit, and predicate expressions by deep recursion over the
//! flat IR.
//!
//! ## Fallback contract
//!
//! Programs the planner cannot fuse are executed unchanged via
//! [`Executor::select_refs`] inside the same [`FusedPlan::execute`]
//! call, against the same executor (sharing its document-order rank,
//! label index and scratch buffers). The result vector always has
//! exactly one entry per input program, in input order, each entry being
//! what `select_refs` would have returned for that program — fused or
//! not, erroring or not. Callers cannot observe which route a program
//! took except through [`FusedPlan::stats`].

use crate::compile::{CExpr, CPath, CPred, CStep, CTest, CompiledXPath, Executor, Span};
use crate::eval::EvalError;
use crate::value::NodeRef;
use std::sync::Arc;

/// Aggregate counters describing how well a cluster's rule set fused.
/// Exposed through `/metrics` so a rule set that defeats the planner is
/// visible in production.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Location paths considered (one per compiled program).
    pub paths_total: usize,
    /// Paths merged into the trie.
    pub paths_fused: usize,
    /// Paths executed per-rule because their shape is unfusible.
    pub paths_fallback: usize,
    /// Steps across all fused paths, before sharing.
    pub steps_total: usize,
    /// Steps that landed on an existing trie node instead of a new one —
    /// axis walks saved per page, the fusion win itself.
    pub steps_shared: usize,
}

/// One node of the step trie. `prog`/`step` locate the representative
/// occurrence of this step (`u32::MAX` for the synthetic root).
#[derive(Debug)]
struct TrieNode {
    prog: u32,
    step: u32,
    children: Vec<u32>,
    /// Programs whose path terminates at this node.
    ends: Vec<u32>,
}

/// A cluster's rules compiled into one shared-prefix traversal plan.
/// Built once per compiled cluster (cached alongside it) and executed
/// once per page. See the [module docs](self) for the plan shape,
/// fusibility rules and fallback contract.
#[derive(Debug)]
pub struct FusedPlan {
    programs: Vec<Arc<CompiledXPath>>,
    nodes: Vec<TrieNode>,
    /// Per program: `Some(trie node)` where its path ends, or `None`
    /// for fallback programs.
    outputs: Vec<Option<u32>>,
    stats: FuseStats,
}

impl FusedPlan {
    /// Merge `programs` into a shared-prefix plan. Never fails:
    /// unfusible programs are registered for per-rule fallback.
    pub fn build(programs: &[Arc<CompiledXPath>]) -> FusedPlan {
        let mut plan = FusedPlan {
            programs: programs.to_vec(),
            nodes: vec![TrieNode {
                prog: u32::MAX,
                step: u32::MAX,
                children: Vec::new(),
                ends: Vec::new(),
            }],
            outputs: Vec::with_capacity(programs.len()),
            stats: FuseStats::default(),
        };
        for (i, p) in programs.iter().enumerate() {
            plan.stats.paths_total += 1;
            let Some(path) = fusible_path(p) else {
                plan.stats.paths_fallback += 1;
                plan.outputs.push(None);
                continue;
            };
            plan.stats.paths_fused += 1;
            let (s0, slen) = path.steps;
            let mut at = 0u32;
            for si in s0..s0 + slen {
                plan.stats.steps_total += 1;
                at = plan.insert_child(at, i as u32, si);
            }
            plan.nodes[at as usize].ends.push(i as u32);
            plan.outputs.push(Some(at));
        }
        plan
    }

    /// Find a child of `parent` structurally equal to step `step` of
    /// program `prog`, or add one. Sharing an existing node is the win
    /// counted by [`FuseStats::steps_shared`].
    fn insert_child(&mut self, parent: u32, prog: u32, step: u32) -> u32 {
        let pa = &self.programs[prog as usize];
        for ci in 0..self.nodes[parent as usize].children.len() {
            let child = self.nodes[parent as usize].children[ci];
            let c = &self.nodes[child as usize];
            let pb = &self.programs[c.prog as usize];
            if step_eq(pa, pa.steps[step as usize], pb, pb.steps[c.step as usize]) {
                self.stats.steps_shared += 1;
                return child;
            }
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(TrieNode { prog, step, children: Vec::new(), ends: Vec::new() });
        self.nodes[parent as usize].children.push(id);
        id
    }

    /// Execute every program against `exec`'s document in one DOM
    /// traversal, returning one `select_refs`-equivalent result per
    /// program, in input order. Fallback programs run per-rule within
    /// the same call (see the fallback contract in the [module
    /// docs](self)).
    pub fn execute(&self, exec: &Executor<'_>) -> Vec<Result<Vec<NodeRef>, EvalError>> {
        let mut results: Vec<Option<Result<Vec<NodeRef>, EvalError>>> =
            (0..self.programs.len()).map(|_| None).collect();
        let root = exec.document().root();
        for (i, out) in self.outputs.iter().enumerate() {
            if out.is_none() {
                results[i] = Some(exec.select_refs(&self.programs[i], root));
            }
        }
        if self.stats.paths_fused > 0 {
            let frontier = [NodeRef::node(root)];
            let mut scratch = exec.take_buf();
            self.descend(exec, 0, &frontier, &mut scratch, &mut results);
            exec.give_buf(scratch);
        }
        results.into_iter().map(|r| r.expect("fused plan covered every program")).collect()
    }

    /// Depth-first trie walk. `frontier` is the context node-set after
    /// the steps on the path from the root to `node` — exactly the
    /// intermediate node-set per-rule execution computes, because each
    /// edge advances through the shared `advance_step` kernel.
    fn descend(
        &self,
        exec: &Executor<'_>,
        node: u32,
        frontier: &[NodeRef],
        scratch: &mut Vec<NodeRef>,
        results: &mut [Option<Result<Vec<NodeRef>, EvalError>>],
    ) {
        let n = &self.nodes[node as usize];
        for &end in &n.ends {
            results[end as usize] = Some(Ok(frontier.to_vec()));
        }
        for &ci in &n.children {
            let c = &self.nodes[ci as usize];
            let cx = &self.programs[c.prog as usize];
            let step = cx.steps[c.step as usize];
            let mut next = exec.take_buf();
            match exec.advance_step(cx, step, frontier, &mut next, scratch) {
                Ok(()) => self.descend(exec, ci, &next, scratch, results),
                // The whole subtree would observe this error: each rule,
                // run alone, would evaluate the same step on the same
                // frontier and fail identically.
                Err(e) => self.mark_err(ci, &e, results),
            }
            exec.give_buf(next);
        }
    }

    /// Record `err` for every program ending in the subtree at `node`.
    fn mark_err(
        &self,
        node: u32,
        err: &EvalError,
        results: &mut [Option<Result<Vec<NodeRef>, EvalError>>],
    ) {
        let n = &self.nodes[node as usize];
        for &end in &n.ends {
            results[end as usize] = Some(Err(err.clone()));
        }
        for &ci in &n.children {
            self.mark_err(ci, err, results);
        }
    }

    /// Fusion counters for this plan.
    pub fn stats(&self) -> FuseStats {
        self.stats
    }

    /// Trie nodes excluding the synthetic root — the number of distinct
    /// steps the fused traversal walks.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether program `i` was merged into the trie (vs fallback).
    pub fn is_fused(&self, i: usize) -> bool {
        self.outputs.get(i).is_some_and(|o| o.is_some())
    }

    /// The programs this plan executes, in input order.
    pub fn programs(&self) -> &[Arc<CompiledXPath>] {
        &self.programs
    }
}

/// The single fusible shape: a root expression that is one absolute
/// location path.
fn fusible_path(p: &CompiledXPath) -> Option<CPath> {
    match &p.exprs[p.root as usize] {
        CExpr::Path(pid) => {
            let path = p.paths[*pid as usize];
            path.absolute.then_some(path)
        }
        _ => None,
    }
}

// ---- structural equality across two programs -------------------------------
//
// Interned ids (names, exprs, steps, preds) are program-local, so every
// comparison resolves through its own program's tables. f64 literals
// compare bit-for-bit: plans must only merge steps that evaluate
// identically, and -0.0/NaN subtleties are not worth relitigating here.

fn step_eq(a: &CompiledXPath, sa: CStep, b: &CompiledXPath, sb: CStep) -> bool {
    // Equal predicate chains imply equal compile-time plans, so `plan`
    // needs no comparison.
    sa.axis == sb.axis && test_eq(a, sa.test, b, sb.test) && preds_eq(a, sa.preds, b, sb.preds)
}

fn test_eq(a: &CompiledXPath, ta: CTest, b: &CompiledXPath, tb: CTest) -> bool {
    match (ta, tb) {
        (CTest::Name(x), CTest::Name(y)) => a.names[x as usize] == b.names[y as usize],
        (CTest::Wildcard, CTest::Wildcard)
        | (CTest::Text, CTest::Text)
        | (CTest::Comment, CTest::Comment)
        | (CTest::Node, CTest::Node) => true,
        _ => false,
    }
}

fn preds_eq(a: &CompiledXPath, pa: Span, b: &CompiledXPath, pb: Span) -> bool {
    if pa.1 != pb.1 {
        return false;
    }
    (0..pa.1).all(|i| pred_eq(a, a.preds[(pa.0 + i) as usize], b, b.preds[(pb.0 + i) as usize]))
}

fn pred_eq(a: &CompiledXPath, pa: CPred, b: &CompiledXPath, pb: CPred) -> bool {
    match (pa, pb) {
        (CPred::Position(m), CPred::Position(n)) => m.to_bits() == n.to_bits(),
        (CPred::Expr(x), CPred::Expr(y)) => expr_eq(a, x, b, y),
        _ => false,
    }
}

fn expr_eq(a: &CompiledXPath, ea: u32, b: &CompiledXPath, eb: u32) -> bool {
    match (&a.exprs[ea as usize], &b.exprs[eb as usize]) {
        (CExpr::Num(m), CExpr::Num(n)) => m.to_bits() == n.to_bits(),
        (CExpr::Str(s), CExpr::Str(t)) => s == t,
        (CExpr::Binary(oa, la, ra), CExpr::Binary(ob, lb, rb)) => {
            oa == ob && expr_eq(a, *la, b, *lb) && expr_eq(a, *ra, b, *rb)
        }
        (CExpr::Negate(x), CExpr::Negate(y)) => expr_eq(a, *x, b, *y),
        (CExpr::Union(x), CExpr::Union(y)) => list_eq(a, *x, b, *y),
        (CExpr::Path(x), CExpr::Path(y)) => path_eq(a, *x, b, *y),
        (
            CExpr::Filter { primary: fa, preds: qa, rest: ra },
            CExpr::Filter { primary: fb, preds: qb, rest: rb },
        ) => {
            expr_eq(a, *fa, b, *fb)
                && preds_eq(a, *qa, b, *qb)
                && match (ra, rb) {
                    (Some(x), Some(y)) => path_eq(a, *x, b, *y),
                    (None, None) => true,
                    _ => false,
                }
        }
        (CExpr::Call(oa, xa), CExpr::Call(ob, xb)) => oa == ob && list_eq(a, *xa, b, *xb),
        (CExpr::CallUnknown(na, xa), CExpr::CallUnknown(nb, xb)) => {
            na == nb && list_eq(a, *xa, b, *xb)
        }
        _ => false,
    }
}

fn list_eq(a: &CompiledXPath, la: Span, b: &CompiledXPath, lb: Span) -> bool {
    if la.1 != lb.1 {
        return false;
    }
    (0..la.1).all(|i| {
        expr_eq(a, a.expr_lists[(la.0 + i) as usize], b, b.expr_lists[(lb.0 + i) as usize])
    })
}

fn path_eq(a: &CompiledXPath, pa: u32, b: &CompiledXPath, pb: u32) -> bool {
    let (xa, xb) = (a.paths[pa as usize], b.paths[pb as usize]);
    if xa.absolute != xb.absolute || xa.steps.1 != xb.steps.1 {
        return false;
    }
    (0..xa.steps.1).all(|i| {
        step_eq(a, a.steps[(xa.steps.0 + i) as usize], b, b.steps[(xb.steps.0 + i) as usize])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use retroweb_html::parse;

    fn compile(srcs: &[&str]) -> Vec<Arc<CompiledXPath>> {
        srcs.iter().map(|s| Arc::new(CompiledXPath::parse(s).unwrap())).collect()
    }

    #[test]
    fn shared_prefix_merges() {
        let plan =
            FusedPlan::build(&compile(&["//TABLE/TR/TD[1]/text()", "//TABLE/TR/TD[2]/text()"]));
        // `//X` lowers to descendant-or-self::node()/child::X — 5 steps
        // per path, the first 3 shared, TD[n]/text() divergent.
        let s = plan.stats();
        assert_eq!(s.paths_total, 2);
        assert_eq!(s.paths_fused, 2);
        assert_eq!(s.paths_fallback, 0);
        assert_eq!(s.steps_total, 10);
        assert_eq!(s.steps_shared, 3);
        assert_eq!(plan.node_count(), 7);
        assert!(plan.is_fused(0) && plan.is_fused(1));
    }

    #[test]
    fn identical_programs_share_terminal() {
        let plan = FusedPlan::build(&compile(&["//TR/TD[2]", "//TR/TD[2]"]));
        let s = plan.stats();
        assert_eq!(s.steps_shared, s.steps_total / 2);
        // One chain of nodes, two programs ending on the last.
        assert_eq!(plan.node_count(), s.steps_total / 2);
    }

    #[test]
    fn divergent_first_step_shares_nothing_but_root() {
        let plan = FusedPlan::build(&compile(&["/HTML/BODY", "/HEAD/TITLE"]));
        let s = plan.stats();
        assert_eq!(s.paths_fused, 2);
        assert_eq!(s.steps_shared, 0);
        assert_eq!(plan.node_count(), 4);
    }

    #[test]
    fn contextual_predicates_share_when_equal() {
        let ctx = "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1]\
                   [contains(normalize-space(.), \"Runtime:\")]]";
        let ctx2 = "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1]\
                   [contains(normalize-space(.), \"Country:\")]]";
        let plan = FusedPlan::build(&compile(&[ctx, ctx, ctx2]));
        let s = plan.stats();
        assert_eq!(s.paths_fused, 3);
        // Each path is 3 steps (descendant-or-self, TD, predicated
        // text()). Program 1 shares all 3 with program 0; program 2
        // diverges only on the final predicated step.
        assert_eq!(s.steps_shared, 3 + 2);
        assert_eq!(plan.node_count(), 3 + 1);
    }

    #[test]
    fn unfusible_shapes_fall_back() {
        let plan = FusedPlan::build(&compile(&[
            "//A | //B",   // union
            "count(//LI)", // bare call
            "TR/TD",       // relative path
            "//TABLE/TR",  // fusible control
        ]));
        let s = plan.stats();
        assert_eq!(s.paths_total, 4);
        assert_eq!(s.paths_fused, 1);
        assert_eq!(s.paths_fallback, 3);
        assert!(!plan.is_fused(0) && !plan.is_fused(1) && !plan.is_fused(2));
        assert!(plan.is_fused(3));
    }

    #[test]
    fn name_tests_compare_through_name_tables() {
        // Same names interned in different orders must still merge.
        let a = Arc::new(CompiledXPath::parse("/BODY/TABLE").unwrap());
        let b = Arc::new(CompiledXPath::parse("/BODY/DIV").unwrap());
        let plan = FusedPlan::build(&[a, b]);
        assert_eq!(plan.stats().steps_shared, 1);
    }

    const PAGE: &str = "<html><body><table>\
        <tr><td>Runtime:</td><td>142 min</td></tr>\
        <tr><td>Country:</td><td>UK</td></tr>\
        <tr><td>Genre:</td><td>Drama</td></tr>\
        </table><div><a href='x'>next</a></div></body></html>";

    #[test]
    fn execute_matches_per_rule_select_refs() {
        let srcs = [
            "//TABLE/TR/TD[1]/text()",
            "//TABLE/TR/TD[2]/text()",
            "//TR[2]/TD[2]/text()",
            "//TD/text()[preceding::text()[normalize-space(.) != \"\"][1]\
             [contains(normalize-space(.), \"Country:\")]]",
            "//A/@href",
            "//A | //TD",    // fallback: union
            "bogus-fn(//A)", // fallback: erroring
            "/HTML/BODY/DIV/A/text()",
        ];
        let programs = compile(&srcs);
        let plan = FusedPlan::build(&programs);
        let doc = parse(PAGE);
        let exec = Executor::new(&doc);
        let fused = plan.execute(&exec);
        assert_eq!(fused.len(), programs.len());
        for (i, p) in programs.iter().enumerate() {
            let solo = exec.select_refs(p, doc.root());
            assert_eq!(fused[i], solo, "program {i}: {}", srcs[i]);
        }
    }

    #[test]
    fn erroring_shared_step_fails_every_dependent_rule() {
        // Both rules share the erroring predicate step; each must get
        // the same error per-rule execution raises.
        let srcs = ["//TD[bogus(.)]/text()", "//TD[bogus(.)]/@align"];
        let programs = compile(&srcs);
        let plan = FusedPlan::build(&programs);
        // descendant-or-self + TD[bogus] shared; text() vs @align diverge.
        assert_eq!(plan.stats().steps_shared, 2);
        let doc = parse(PAGE);
        let exec = Executor::new(&doc);
        for (i, (r, p)) in plan.execute(&exec).iter().zip(&programs).enumerate() {
            let solo = exec.select_refs(p, doc.root());
            assert!(r.is_err(), "program {i} should error");
            assert_eq!(*r, solo, "program {i}");
        }
    }

    #[test]
    fn empty_frontier_yields_empty_results() {
        let programs = compile(&["//NOSUCH/TD/text()", "//NOSUCH/TD/@x"]);
        let plan = FusedPlan::build(&programs);
        let doc = parse(PAGE);
        let exec = Executor::new(&doc);
        for r in plan.execute(&exec) {
            assert_eq!(r, Ok(vec![]));
        }
    }
}
