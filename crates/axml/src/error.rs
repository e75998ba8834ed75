//! The unified error type of the facade.
//!
//! Every crate in the workspace has its own error type (`ParseError`
//! with a byte offset, `TypeError`, two `EvalError`s, `DatalogError`);
//! [`AxmlError`] wraps them all so `Engine` callers handle exactly one
//! type. Errors that originate in source text (query or document)
//! carry a [`SourceSpan`] — the offending line with a caret — so a
//! service can report them to *its* users without re-deriving
//! positions.

use crate::options::{Route, SemiringKind};
use std::fmt;

/// A resolved position in source text: the line containing a byte
/// offset, plus 1-based line/column numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpan {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte column within the line).
    pub column: usize,
    /// The full text of the offending line.
    pub line_text: String,
}

impl SourceSpan {
    /// Resolve a byte offset against the source it indexes. Offsets
    /// past the end clamp to the last line.
    pub fn from_offset(src: &str, offset: usize) -> Self {
        let offset = offset.min(src.len());
        let before = &src[..offset];
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        let line_start = before.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let line_end = src[offset..]
            .find('\n')
            .map(|i| offset + i)
            .unwrap_or(src.len());
        SourceSpan {
            line,
            column: offset - line_start + 1,
            line_text: src[line_start..line_end].to_owned(),
        }
    }
}

impl fmt::Display for SourceSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:{}", self.line, self.column)?;
        writeln!(f, "  | {}", self.line_text)?;
        write!(f, "  | {}^", " ".repeat(self.column.saturating_sub(1)))
    }
}

/// Which caller-imposed resource limit an [`AxmlError::Budget`]
/// reports: the wall-clock deadline ([`crate::EvalOptions::deadline`])
/// or the memory budget ([`crate::EvalOptions::memory_budget`]). The
/// server maps the two to different status codes (504 for time, 507
/// for memory), so the distinction is part of the API.
pub use axml_uxml::BudgetKind;

/// Everything that can go wrong between `Engine::load_document` and a
/// finished [`crate::AxmlResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum AxmlError {
    /// The query text did not parse.
    QueryParse {
        /// What the parser expected.
        msg: String,
        /// Byte offset into the query text.
        offset: usize,
        /// The offending line, with position.
        span: SourceSpan,
    },
    /// A document did not parse.
    DocumentParse {
        /// The document name passed to `load_document`.
        name: String,
        /// What the parser expected.
        msg: String,
        /// Byte offset into the document text.
        offset: usize,
        /// The offending line, with position.
        span: SourceSpan,
    },
    /// The query parsed but did not elaborate/typecheck.
    Type {
        /// The type error.
        msg: String,
    },
    /// Evaluation failed (direct route).
    Eval {
        /// Description.
        msg: String,
        /// Rendering of the subquery where it occurred.
        at: String,
    },
    /// Evaluation failed (NRC route).
    Nrc {
        /// Description.
        msg: String,
        /// Rendering of the NRC subexpression where it occurred.
        at: String,
    },
    /// The Datalog fixpoint of the shredded route failed.
    Shredding {
        /// Description.
        msg: String,
    },
    /// The evaluation ran past a caller-imposed resource limit: its
    /// wall-clock deadline ([`crate::EvalOptions::deadline`] /
    /// [`crate::EvalOptions::timeout`]) or its memory budget
    /// ([`crate::EvalOptions::memory_budget`]). Both are checked at
    /// coarse boundaries — route starts, set-producing plan ops,
    /// fixpoint rounds, streamed pieces — so the trip is observed at
    /// the first such boundary after the limit is crossed.
    Budget {
        /// Which limit tripped.
        resource: BudgetKind,
        /// The boundary that observed the exceeded limit (e.g.
        /// `"route start"`, `"datalog round"`, or a rendering of the
        /// plan op).
        at: String,
    },
    /// The query refers to a document the engine has not loaded.
    UnknownDocument {
        /// The free variable / document name.
        name: String,
        /// Names the engine does hold (to help diagnose typos).
        available: Vec<String>,
    },
    /// The requested route cannot evaluate this query shape.
    UnsupportedRoute {
        /// The route that was requested.
        route: Route,
        /// The construct that puts the query outside the route's
        /// fragment (e.g. "an element constructor", "a let binding"),
        /// as reported by `axml_core::path::extract_path`.
        construct: String,
    },
    /// `Route::Differential` found a route's compiled plan and its
    /// tree-walking interpreter disagreeing — a bug in the plan
    /// compiler or in the interpreter.
    EvaluatorDisagreement {
        /// The semiring the disagreement occurred in.
        semiring: SemiringKind,
        /// The route whose two evaluators diverged.
        route: Route,
        /// The compiled plan's result, rendered.
        compiled: String,
        /// The interpreter's result, rendered.
        interpreted: String,
    },
    /// An edit script failed to parse or to apply to the named
    /// document (bad path, wrong payload arity, malformed op).
    Edit {
        /// The document the script targeted.
        name: String,
        /// What went wrong.
        msg: String,
    },
    /// A concurrent `load_document`/`remove_document` replaced the
    /// document between the edit's snapshot and its publish — the
    /// edit was not applied; retry against the new contents.
    EditConflict {
        /// The document that changed underfoot.
        name: String,
    },
    /// `Route::Differential` found two routes disagreeing — a bug in
    /// one of the evaluators (or in a user-provided extension).
    RouteDisagreement {
        /// The semiring the disagreement occurred in.
        semiring: SemiringKind,
        /// First route.
        left_route: Route,
        /// Its result, rendered.
        left: String,
        /// Second route.
        right_route: Route,
        /// Its result, rendered.
        right: String,
    },
}

impl AxmlError {
    /// Wrap a query-text parse error, attaching the span.
    pub fn query_parse(src: &str, e: axml_core::ParseError) -> Self {
        AxmlError::QueryParse {
            span: SourceSpan::from_offset(src, e.offset),
            msg: e.msg,
            offset: e.offset,
        }
    }

    /// Wrap a document parse error, attaching the span.
    pub fn document_parse(name: &str, src: &str, e: axml_uxml::parse::ParseError) -> Self {
        AxmlError::DocumentParse {
            name: name.to_owned(),
            span: SourceSpan::from_offset(src, e.offset),
            msg: e.msg,
            offset: e.offset,
        }
    }
}

/// A facade error stops a push like any evaluation error.
impl From<AxmlError> for axml_uxml::StreamError<AxmlError> {
    fn from(e: AxmlError) -> Self {
        axml_uxml::StreamError::Eval(e)
    }
}

impl From<axml_core::TypeError> for AxmlError {
    fn from(e: axml_core::TypeError) -> Self {
        AxmlError::Type { msg: e.msg }
    }
}

impl From<axml_core::EvalError> for AxmlError {
    fn from(e: axml_core::EvalError) -> Self {
        match e.budget {
            Some(resource) => AxmlError::Budget { resource, at: e.at },
            None => AxmlError::Eval {
                msg: e.msg,
                at: e.at,
            },
        }
    }
}

impl From<axml_nrc::EvalError> for AxmlError {
    fn from(e: axml_nrc::EvalError) -> Self {
        match e.budget {
            Some(resource) => AxmlError::Budget { resource, at: e.at },
            None => AxmlError::Nrc {
                msg: e.msg,
                at: e.at,
            },
        }
    }
}

impl From<axml_relational::datalog::DatalogError> for AxmlError {
    fn from(e: axml_relational::datalog::DatalogError) -> Self {
        match e.budget {
            Some(resource) => AxmlError::Budget {
                resource,
                at: "datalog round".into(),
            },
            None => AxmlError::Shredding { msg: e.msg },
        }
    }
}

impl fmt::Display for AxmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxmlError::QueryParse { msg, span, .. } => {
                write!(f, "query parse error at {span}\n{msg}")
            }
            AxmlError::DocumentParse {
                name, msg, span, ..
            } => write!(f, "parse error in document {name:?} at {span}\n{msg}"),
            AxmlError::Type { msg } => write!(f, "type error: {msg}"),
            AxmlError::Eval { msg, at } => write!(f, "evaluation error: {msg} (at `{at}`)"),
            AxmlError::Nrc { msg, at } => write!(f, "NRC evaluation error: {msg} (at `{at}`)"),
            AxmlError::Shredding { msg } => write!(f, "shredded evaluation error: {msg}"),
            AxmlError::Budget { resource, at } => match resource {
                BudgetKind::WallClock => {
                    write!(f, "evaluation exceeded its wall-clock deadline (at {at})")
                }
                BudgetKind::Memory => {
                    write!(f, "evaluation exceeded its memory budget (at `{at}`)")
                }
            },
            AxmlError::UnknownDocument { name, available } => {
                write!(f, "no document named {name:?} is loaded")?;
                if available.is_empty() {
                    write!(f, " (the engine holds no documents)")
                } else {
                    write!(f, " (loaded: {})", available.join(", "))
                }
            }
            AxmlError::UnsupportedRoute { route, construct } => {
                write!(
                    f,
                    "route {route} cannot evaluate this query: it uses {construct}, \
                     which has no §7 relational translation"
                )
            }
            AxmlError::EvaluatorDisagreement {
                semiring,
                route,
                compiled,
                interpreted,
            } => write!(
                f,
                "differential check failed in {semiring}: the {route} compiled plan produced\n  \
                 {compiled}\nbut its interpreter produced\n  {interpreted}"
            ),
            AxmlError::Edit { name, msg } => {
                write!(f, "edit of document {name:?} failed: {msg}")
            }
            AxmlError::EditConflict { name } => write!(
                f,
                "edit of document {name:?} conflicted with a concurrent replace; retry"
            ),
            AxmlError::RouteDisagreement {
                semiring,
                left_route,
                left,
                right_route,
                right,
            } => write!(
                f,
                "differential check failed in {semiring}: {left_route} produced\n  {left}\nbut {right_route} produced\n  {right}"
            ),
        }
    }
}

impl std::error::Error for AxmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_resolves_lines_and_columns() {
        let src = "for $x in $S\nreturn ($x";
        let span = SourceSpan::from_offset(src, src.len());
        assert_eq!(span.line, 2);
        assert_eq!(span.column, 11);
        assert_eq!(span.line_text, "return ($x");
        let rendered = span.to_string();
        assert!(rendered.contains("2:11"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn span_clamps_past_the_end() {
        let span = SourceSpan::from_offset("ab", 99);
        assert_eq!((span.line, span.column), (1, 3));
    }

    #[test]
    fn unknown_document_lists_loaded_names() {
        let e = AxmlError::UnknownDocument {
            name: "T".into(),
            available: vec!["S".into()],
        };
        let s = e.to_string();
        assert!(s.contains("\"T\"") && s.contains("loaded: S"), "{s}");
    }
}
