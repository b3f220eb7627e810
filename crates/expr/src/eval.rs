//! Evaluation of condition expressions over an environment of evidence and
//! quality-assertion tag values.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::value::Value;
use crate::{ExprError, Result};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Where a condition's variables get their values. Evaluation reads
/// through this trait and borrows what it can, so a scope that reads an
/// annotation-map row in place costs no allocation per variable.
pub trait Scope {
    /// The value of `name`; `Null` when unbound.
    fn value(&self, name: &str) -> Cow<'_, Value>;
}

/// An evaluation environment: variable name → value.
///
/// The owned [`Scope`]: unbound variables evaluate to [`Value::Null`],
/// mirroring null evidence values in the paper's annotation maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env {
    bindings: BTreeMap<String, Value>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds (or rebinds) a variable.
    pub fn bind(&mut self, name: impl Into<String>, value: Value) -> &mut Self {
        self.bindings.insert(name.into(), value);
        self
    }

    /// Looks a variable up; `Null` when unbound.
    pub fn lookup(&self, name: &str) -> Value {
        self.bindings.get(name).cloned().unwrap_or(Value::Null)
    }

    /// True when the variable has an explicit binding (even to `Null`).
    pub fn is_bound(&self, name: &str) -> bool {
        self.bindings.contains_key(name)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.bindings.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl Scope for Env {
    fn value(&self, name: &str) -> Cow<'_, Value> {
        self.bindings.get(name).map_or(Cow::Owned(Value::Null), Cow::Borrowed)
    }
}

impl FromIterator<(String, Value)> for Env {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Env { bindings: iter.into_iter().collect() }
    }
}

impl Expr {
    /// Evaluates the expression under `scope`.
    ///
    /// Null propagation: any arithmetic or comparison with a `Null` operand
    /// yields `Null`; `and`/`or` use Kleene three-valued logic so that
    /// `false and null = false` and `true or null = true`.
    pub fn eval<S: Scope + ?Sized>(&self, scope: &S) -> Result<Value> {
        self.eval_in(scope).map(Cow::into_owned)
    }

    /// Convenience: evaluates as an acceptance decision (`Bool(true)` only).
    pub fn accepts<S: Scope + ?Sized>(&self, scope: &S) -> Result<bool> {
        Ok(self.eval_in(scope)?.as_accepted())
    }

    /// The evaluator: constants and variables come back borrowed, computed
    /// values owned (booleans, numbers and nulls, which never allocate).
    fn eval_in<'a, S: Scope + ?Sized>(&'a self, scope: &'a S) -> Result<Cow<'a, Value>> {
        match self {
            Expr::Const(v) => Ok(Cow::Borrowed(v)),
            Expr::Var(name) => Ok(scope.value(name)),
            Expr::Unary(UnaryOp::Not, inner) => match &*inner.eval_in(scope)? {
                Value::Bool(b) => Ok(Cow::Owned(Value::Bool(!b))),
                Value::Null => Ok(Cow::Owned(Value::Null)),
                other => Err(ExprError::Eval(format!("'not' applied to {other}"))),
            },
            Expr::Unary(UnaryOp::Neg, inner) => match &*inner.eval_in(scope)? {
                Value::Num(n) => Ok(Cow::Owned(Value::Num(-n))),
                Value::Null => Ok(Cow::Owned(Value::Null)),
                other => Err(ExprError::Eval(format!("'-' applied to {other}"))),
            },
            Expr::Binary(op, a, b) => eval_binary(*op, a, b, scope).map(Cow::Owned),
            Expr::In(lhs, items) => {
                let needle = lhs.eval_in(scope)?;
                if needle.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut saw_null = false;
                for item in items {
                    match needle.value_eq(&*item.eval_in(scope)?) {
                        Some(true) => return Ok(Cow::Owned(Value::Bool(true))),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(Cow::Owned(if saw_null { Value::Null } else { Value::Bool(false) }))
            }
        }
    }
}

fn eval_binary<S: Scope + ?Sized>(op: BinaryOp, a: &Expr, b: &Expr, scope: &S) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => {
            let va = truth(&*a.eval_in(scope)?)?;
            if va == Some(false) {
                return Ok(Value::Bool(false));
            }
            let vb = truth(&*b.eval_in(scope)?)?;
            Ok(match (va, vb) {
                (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            })
        }
        Or => {
            let va = truth(&*a.eval_in(scope)?)?;
            if va == Some(true) {
                return Ok(Value::Bool(true));
            }
            let vb = truth(&*b.eval_in(scope)?)?;
            Ok(match (va, vb) {
                (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        Eq | Ne => {
            let va = a.eval_in(scope)?;
            let vb = b.eval_in(scope)?;
            match va.value_eq(&vb) {
                None => Ok(Value::Null),
                Some(eq) => Ok(Value::Bool(if op == Eq { eq } else { !eq })),
            }
        }
        Lt | Le | Gt | Ge => {
            let va = a.eval_in(scope)?;
            let vb = b.eval_in(scope)?;
            if va.is_null() || vb.is_null() {
                return Ok(Value::Null);
            }
            let ord = va
                .value_cmp(&vb)
                .ok_or_else(|| ExprError::Eval(format!("cannot order {va} and {vb}")))?;
            use std::cmp::Ordering::*;
            Ok(Value::Bool(match op {
                Lt => ord == Less,
                Le => ord != Greater,
                Gt => ord == Greater,
                Ge => ord != Less,
                _ => unreachable!(),
            }))
        }
        Add | Sub | Mul | Div => {
            let va = a.eval_in(scope)?;
            let vb = b.eval_in(scope)?;
            if va.is_null() || vb.is_null() {
                return Ok(Value::Null);
            }
            let (x, y) = match (va.as_num(), vb.as_num()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(ExprError::Eval(format!(
                        "arithmetic needs numbers, got {va} and {vb}"
                    )))
                }
            };
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => {
                    if y == 0.0 {
                        return Err(ExprError::Eval("division by zero".into()));
                    }
                    x / y
                }
                _ => unreachable!(),
            };
            Ok(Value::Num(r))
        }
    }
}

/// Converts a value to Kleene truth: `Some(bool)` or `None` for Null.
fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(ExprError::Eval(format!("expected a boolean, got {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn env(pairs: &[(&str, Value)]) -> Env {
        let mut e = Env::new();
        for (k, v) in pairs {
            e.bind(*k, v.clone());
        }
        e
    }

    #[test]
    fn paper_filter_condition() {
        let e = parse("ScoreClass in q:high, q:mid and HR_MC > 20").unwrap();
        // accepted: class high, HR_MC 31
        assert!(e
            .accepts(&env(
                &[("ScoreClass", Value::symbol("q:high")), ("HR_MC", Value::from(31.0)),]
            ))
            .unwrap());
        // rejected: class low
        assert!(!e
            .accepts(&env(&[("ScoreClass", Value::symbol("q:low")), ("HR_MC", Value::from(31.0)),]))
            .unwrap());
        // rejected: HR_MC below threshold
        assert!(!e
            .accepts(&env(&[("ScoreClass", Value::symbol("q:mid")), ("HR_MC", Value::from(12.0)),]))
            .unwrap());
    }

    #[test]
    fn null_propagation_rejects() {
        let e = parse("score < 3.2").unwrap();
        // missing evidence: condition is Null -> rejected, not an error
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Null);
        assert!(!e.accepts(&Env::new()).unwrap());
    }

    #[test]
    fn kleene_logic() {
        // false and null = false
        let e = parse("false and missing > 0").unwrap();
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Bool(false));
        // true or null = true
        let e = parse("true or missing > 0").unwrap();
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Bool(true));
        // true and null = null
        let e = parse("true and missing > 0").unwrap();
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Null);
        // not null = null
        let e = parse("not (missing > 0)").unwrap();
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic() {
        let e = parse("(hr * 100 + mc) / 2 >= 50").unwrap();
        assert!(e.accepts(&env(&[("hr", Value::from(0.9)), ("mc", Value::from(40.0))])).unwrap());
        assert!(!e.accepts(&env(&[("hr", Value::from(0.1)), ("mc", Value::from(10.0))])).unwrap());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = parse("1 / z").unwrap();
        assert!(e.eval(&env(&[("z", Value::from(0.0))])).is_err());
    }

    #[test]
    fn type_errors_at_runtime() {
        assert!(parse("'a' + 1").unwrap().eval(&Env::new()).is_err());
        assert!(parse("not 3").unwrap().eval(&Env::new()).is_err());
        assert!(parse("1 and true").unwrap().eval(&Env::new()).is_err());
        // ordering strings is fine; ordering symbol vs number is not
        assert!(parse("'a' < 'b'").unwrap().eval(&Env::new()).unwrap().as_accepted());
        assert!(parse("q:a < 1").unwrap().eval(&Env::new()).is_err());
    }

    #[test]
    fn in_with_nulls() {
        let e = parse("x in missing, 2").unwrap();
        // x=2 matches despite the null item
        assert!(e.accepts(&env(&[("x", Value::from(2.0))])).unwrap());
        // x=3: no match, but null item makes the outcome Null
        assert_eq!(e.eval(&env(&[("x", Value::from(3.0))])).unwrap(), Value::Null);
    }

    #[test]
    fn membership_over_strings_and_symbols() {
        let e = parse("cls in 'high', 'mid'").unwrap();
        assert!(e.accepts(&env(&[("cls", Value::symbol("q:high"))])).unwrap());
        assert!(!e.accepts(&env(&[("cls", Value::symbol("q:low"))])).unwrap());
    }

    #[test]
    fn unbound_vs_bound_null() {
        let mut e = Env::new();
        assert!(!e.is_bound("x"));
        e.bind("x", Value::Null);
        assert!(e.is_bound("x"));
        assert_eq!(e.lookup("x"), Value::Null);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::ast::{BinaryOp, Expr, UnaryOp};
    use crate::typecheck::{check, ExprType, TypeEnv};
    use proptest::prelude::*;

    /// Generates well-typed boolean expressions over a fixed variable
    /// vocabulary: numeric `n0..n2`, symbolic `c0..c1`. Division is
    /// excluded (division by zero is a legitimate runtime error).
    fn arb_bool_expr(depth: u32) -> BoxedStrategy<Expr> {
        let num_leaf = prop_oneof![
            (0u8..3).prop_map(|i| Expr::Var(format!("n{i}"))),
            (-50f64..50.0).prop_map(|v| Expr::Const(Value::Num(v))),
        ];
        fn num_expr(depth: u32, leaf: BoxedStrategy<Expr>) -> BoxedStrategy<Expr> {
            if depth == 0 {
                return leaf;
            }
            let sub = num_expr(depth - 1, leaf.clone());
            prop_oneof![
                leaf,
                (
                    sub.clone(),
                    sub.clone(),
                    prop_oneof![Just(BinaryOp::Add), Just(BinaryOp::Sub), Just(BinaryOp::Mul)]
                )
                    .prop_map(|(a, b, op)| Expr::Binary(
                        op,
                        Box::new(a),
                        Box::new(b)
                    )),
                sub.prop_map(|a| Expr::Unary(UnaryOp::Neg, Box::new(a))),
            ]
            .boxed()
        }
        let nums = num_expr(depth, num_leaf.boxed());
        let sym_leaf = prop_oneof![
            (0u8..2).prop_map(|i| Expr::Var(format!("c{i}"))),
            (0u8..3).prop_map(|i| Expr::Const(Value::Symbol(format!("q:label{i}")))),
        ];
        let cmp = (
            nums.clone(),
            nums.clone(),
            prop_oneof![
                Just(BinaryOp::Lt),
                Just(BinaryOp::Le),
                Just(BinaryOp::Gt),
                Just(BinaryOp::Ge),
                Just(BinaryOp::Eq),
                Just(BinaryOp::Ne),
            ],
        )
            .prop_map(|(a, b, op)| Expr::Binary(op, Box::new(a), Box::new(b)));
        let membership = (sym_leaf.clone(), proptest::collection::vec(sym_leaf, 1..4))
            .prop_map(|(l, items)| Expr::In(Box::new(l), items));
        let atom =
            prop_oneof![cmp, membership, any::<bool>().prop_map(|b| Expr::Const(Value::Bool(b)))];
        if depth == 0 {
            return atom.boxed();
        }
        let sub = arb_bool_expr(depth - 1);
        prop_oneof![
            atom,
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Binary(
                BinaryOp::And,
                Box::new(a),
                Box::new(b)
            )),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| Expr::Binary(
                BinaryOp::Or,
                Box::new(a),
                Box::new(b)
            )),
            sub.prop_map(|a| Expr::Unary(UnaryOp::Not, Box::new(a))),
        ]
        .boxed()
    }

    fn type_env() -> TypeEnv {
        let mut env = TypeEnv::new().strict();
        for i in 0..3 {
            env.declare(format!("n{i}"), ExprType::Number);
        }
        for i in 0..2 {
            env.declare(format!("c{i}"), ExprType::Symbol);
        }
        env
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Well-typed boolean expressions typecheck as Boolean, evaluate
        /// without runtime errors under fully-bound envs, and the source
        /// round-trip evaluates identically.
        #[test]
        fn well_typed_exprs_are_total(
            e in arb_bool_expr(3),
            nums in proptest::array::uniform3(-50f64..50.0),
            syms in proptest::array::uniform2(0u8..3),
        ) {
            prop_assert_eq!(check(&e, &type_env()).unwrap(), ExprType::Boolean);
            let mut env = Env::new();
            for (i, v) in nums.iter().enumerate() {
                env.bind(format!("n{i}"), Value::Num(*v));
            }
            for (i, v) in syms.iter().enumerate() {
                env.bind(format!("c{i}"), Value::symbol(format!("q:label{v}")));
            }
            let value = e.eval(&env).unwrap();
            prop_assert!(matches!(value, Value::Bool(_)), "got {:?}", value);
            // parse(to_source) evaluates to the same value
            let reparsed = crate::parse(&e.to_source()).unwrap();
            prop_assert_eq!(reparsed.eval(&env).unwrap(), value);
        }

        /// Under envs with unbound variables, evaluation still never
        /// errors: outcomes are Bool or Null (three-valued logic is total).
        #[test]
        fn partial_envs_never_error(e in arb_bool_expr(3)) {
            let value = e.eval(&Env::new()).unwrap();
            prop_assert!(
                matches!(value, Value::Bool(_) | Value::Null),
                "got {:?}",
                value
            );
        }
    }
}
