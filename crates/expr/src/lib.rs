//! # qurator-expr
//!
//! The condition expression language for quality-view actions (reproduction
//! of *Quality Views*, VLDB 2006, §4.1 and §5.1).
//!
//! The paper's action operators evaluate boolean expressions over quality
//! evidence values and quality-assertion tags, e.g.:
//!
//! * `score < 3.2`
//! * `PIScoreClassification in { q:high, q:mid }`
//! * `ScoreClass in q:high, q:mid and HR_MC > 20` (the §5.1 filter)
//!
//! This crate provides the lexer, parser, typed AST, static type checker and
//! evaluator for that language:
//!
//! * relational operators `< <= > >= = == != <>`;
//! * set membership `x in a, b, c` (braces optional: `x in { a, b }`);
//! * boolean connectives `and`, `or`, `not` (case-insensitive) and `&& || !`;
//! * arithmetic `+ - * /` with standard precedence and parentheses;
//! * literals: numbers, single/double-quoted strings, `true`/`false`;
//! * identifiers: evidence/tag variables (`HR_MC`, `score`) and ontology
//!   terms with a namespace prefix (`q:high`), which evaluate to symbols.
//!
//! Missing evidence is a first-class concern (the paper's annotation maps
//! may carry null evidence values): any comparison or arithmetic over
//! [`Value::Null`] yields `Null`, and a `Null` condition outcome is treated
//! as *not accepted* by the action operators.
//!
//! ```
//! use qurator_expr::{parse, Env, Value};
//!
//! let expr = parse("ScoreClass in q:high, q:mid and HR_MC > 20").unwrap();
//! let mut env = Env::new();
//! env.bind("ScoreClass", Value::symbol("q:high"));
//! env.bind("HR_MC", Value::from(31.5));
//! assert!(expr.eval(&env).unwrap().as_accepted());
//! ```

mod ast;
mod eval;
mod lexer;
mod parser;
mod typecheck;
mod value;

pub use ast::{BinaryOp, Expr, UnaryOp};
pub use eval::{Env, Scope};
pub use parser::parse;
pub use typecheck::{check, ExprType, TypeEnv};
pub use value::Value;

/// Errors from the expression layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprError {
    /// Lexical or syntactic error at a byte offset.
    Syntax { pos: usize, message: String },
    /// Static type error found by [`check`].
    Type(String),
    /// Runtime evaluation error.
    Eval(String),
}

impl std::fmt::Display for ExprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExprError::Syntax { pos, message } => {
                write!(f, "syntax error at offset {pos}: {message}")
            }
            ExprError::Type(m) => write!(f, "type error: {m}"),
            ExprError::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for ExprError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ExprError>;
