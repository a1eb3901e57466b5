//! # retroweb-xpath — location language for mapping rules
//!
//! An XPath 1.0 subset engine over the `retroweb-html` DOM, plus the two
//! Retrozilla-specific capabilities the paper builds on it (§3):
//!
//! - **precise-path generation** ([`builder`]): turn a user-selected DOM
//!   node into the fully positional XPath a candidate rule records;
//! - **generalisation operators** ([`generalize`]): the refinement moves
//!   (contextual predicates, position broadening, repetitive-step
//!   deduction, alternative paths) applied when a candidate rule fails on
//!   other pages of the working sample.
//!
//! ## Two execution engines: compile → cache → execute
//!
//! Mapping rules are written once and applied to thousands of pages, so
//! the crate ships two behaviour-identical evaluators:
//!
//! - [`Engine`] — the tree-walking interpreter over the parsed [`Expr`].
//!   It is the executable *reference semantics*: simple, obviously
//!   correct, and kept as the oracle the differential test suites hold
//!   the compiled path to. `retrozilla` applies rules through the
//!   compiled path only, one-shot calls included.
//! - [`CompiledXPath`] + [`Executor`] ([`compile`]) — the production
//!   path. `CompiledXPath::compile` lowers the AST into a flat, immutable
//!   step program (interned name tests, resolved function ops,
//!   specialised positional steps); an `Executor` bound to a document
//!   runs any number of compiled expressions against it, reusing a
//!   document-order rank and scratch buffers across calls.
//!
//! The intended flow for rule application is **compile once per rule
//! set, cache the `CompiledXPath`s (see `retrozilla`'s `ShardedRepository`),
//! and execute them over every page with one `Executor` per document**:
//!
//! ```
//! use retroweb_html::parse;
//! use retroweb_xpath::{CompiledXPath, Executor};
//!
//! let rule = CompiledXPath::parse("//TR[2]/TD[2]/text()").unwrap(); // once
//! for html in ["<body><table><tr><td>Runtime</td><td>142 min</td></tr>\
//!               <tr><td>Country</td><td>UK</td></tr></table></body>"] {
//!     let doc = parse(html);
//!     let exec = Executor::new(&doc); // once per page, shared by all rules
//!     let hits = exec.select(&rule, doc.root()).unwrap();
//!     assert_eq!(doc.text(hits[0]), Some("UK"));
//! }
//! ```
//!
//! HTML-mode behaviour: element/attribute name tests match ASCII
//! case-insensitively, so the paper's `BODY[1]/DIV[2]/TABLE[3]` addresses
//! a lowercase DOM. [`parser::parse_lenient`] additionally accepts the
//! paper's informal syntax from Table 2 row b (bare axis names,
//! one-argument `contains`).
//!
//! ```
//! use retroweb_html::parse;
//! use retroweb_xpath::{parser, Engine};
//!
//! let doc = parse("<body><table><tr><td>Runtime</td><td>142 min</td></tr></table></body>");
//! let engine = Engine::new(&doc);
//! let hits = engine.select_str("//TR[1]/TD[2]/text()", doc.root()).unwrap();
//! assert_eq!(doc.text(hits[0]), Some("142 min"));
//!
//! let expr = parser::parse("//TD[contains(., \"min\")]").unwrap();
//! assert_eq!(engine.select(&expr, doc.root()).unwrap().len(), 1);
//! ```

pub mod analyze;
mod ast;
pub mod builder;
pub mod compile;
mod eval;
mod functions;
pub mod fuse;
pub mod generalize;
mod lexer;
pub mod parser;
mod value;

pub use analyze::{always_empty, analyze, Diagnostic, Severity};
pub use ast::{Axis, BinaryOp, Expr, LocationPath, NodeTest, Step};
pub use compile::{CompiledXPath, Executor, ScratchPool};
pub use eval::{Engine, EvalError};
pub use functions::normalize_space;
pub use fuse::{FuseStats, FusedPlan};
pub use lexer::{lex, lex_spanned, LexError, Tok};
pub use parser::{parse, parse_lenient, parse_path, ParseError, MAX_DEPTH};
pub use value::{
    format_number, node_name, str_to_number, string_value, string_value_cow, to_boolean, to_number,
    to_string_value, NodeRef, Value,
};
