//! The value model flowing over data links.
//!
//! Taverna's data model is strings and nested lists; we extend it with
//! numbers, booleans and records. Structured messages (the quality
//! framework's data sets and annotation maps) travel as [`Data::Typed`]
//! payloads: shared, never encoded or copied by the enactor. Everything
//! is clonable and order-stable so enactments are deterministic.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A value a processor hands downstream as-is. Any `Debug + PartialEq`
/// type that is `Send + Sync` qualifies; equality compares values of the
/// same type.
pub trait Payload: Any + Send + Sync + fmt::Debug {
    /// Value equality against another payload (false across types).
    fn eq_payload(&self, other: &dyn Payload) -> bool;
    /// The payload's type name (for display and error messages).
    fn payload_type(&self) -> &'static str;
}

impl<T: Any + Send + Sync + fmt::Debug + PartialEq> Payload for T {
    fn eq_payload(&self, other: &dyn Payload) -> bool {
        (other as &dyn Any).downcast_ref::<T>().is_some_and(|other| self == other)
    }

    fn payload_type(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

impl PartialEq for dyn Payload {
    fn eq(&self, other: &Self) -> bool {
        self.eq_payload(other)
    }
}

/// A value on a data link.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Data {
    /// Absence of a value (distinct from an empty list).
    #[default]
    Null,
    Bool(bool),
    Number(f64),
    Text(String),
    List(Vec<Data>),
    Record(BTreeMap<String, Data>),
    /// A shared typed value (a data set, an annotation map). Cloning the
    /// `Data` clones the `Arc`, not the value.
    Typed(Arc<dyn Payload>),
}

impl Data {
    /// Builds a record from `(field, value)` pairs.
    pub fn record<I, K>(fields: I) -> Self
    where
        I: IntoIterator<Item = (K, Data)>,
        K: Into<String>,
    {
        Data::Record(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Wraps a typed value.
    pub fn typed<T: Payload>(value: T) -> Self {
        Data::Typed(Arc::new(value))
    }

    /// The typed value, when this is a [`Data::Typed`] of type `T`.
    pub fn as_typed<T: Any>(&self) -> Option<&T> {
        match self {
            Data::Typed(payload) => (&**payload as &dyn Any).downcast_ref(),
            _ => None,
        }
    }

    /// Builds a list.
    pub fn list(items: impl IntoIterator<Item = Data>) -> Self {
        Data::List(items.into_iter().collect())
    }

    /// Text accessor.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Data::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Data::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Data::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// List accessor.
    pub fn as_list(&self) -> Option<&[Data]> {
        match self {
            Data::List(v) => Some(v),
            _ => None,
        }
    }

    /// Record accessor.
    pub fn as_record(&self) -> Option<&BTreeMap<String, Data>> {
        match self {
            Data::Record(m) => Some(m),
            _ => None,
        }
    }

    /// Record field accessor.
    pub fn field(&self, name: &str) -> Option<&Data> {
        self.as_record().and_then(|m| m.get(name))
    }

    /// The nesting depth: 0 for scalars, records and typed values, 1 + max
    /// child depth for lists (empty lists have depth 1). This drives
    /// implicit iteration.
    pub fn depth(&self) -> usize {
        match self {
            Data::List(items) => 1 + items.iter().map(Data::depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Total number of scalar leaves (diagnostics / report sizing); a
    /// typed value counts as one.
    pub fn leaf_count(&self) -> usize {
        match self {
            Data::List(items) => items.iter().map(Data::leaf_count).sum(),
            Data::Record(fields) => fields.values().map(Data::leaf_count).sum(),
            Data::Null => 0,
            _ => 1,
        }
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Data::Null => write!(f, "null"),
            Data::Bool(b) => write!(f, "{b}"),
            Data::Number(n) => write!(f, "{n}"),
            Data::Text(s) => write!(f, "{s:?}"),
            Data::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Data::Record(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Data::Typed(payload) => write!(f, "<{}>", (**payload).payload_type()),
        }
    }
}

impl From<&str> for Data {
    fn from(s: &str) -> Self {
        Data::Text(s.to_string())
    }
}

impl From<String> for Data {
    fn from(s: String) -> Self {
        Data::Text(s)
    }
}

impl From<f64> for Data {
    fn from(n: f64) -> Self {
        Data::Number(n)
    }
}

impl From<i64> for Data {
    fn from(n: i64) -> Self {
        Data::Number(n as f64)
    }
}

impl From<bool> for Data {
    fn from(b: bool) -> Self {
        Data::Bool(b)
    }
}

impl<T: Into<Data>> FromIterator<T> for Data {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Data::List(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_semantics() {
        assert_eq!(Data::Text("x".into()).depth(), 0);
        assert_eq!(Data::list([]).depth(), 1);
        assert_eq!(Data::list([Data::from("a")]).depth(), 1);
        assert_eq!(Data::list([Data::list([Data::from(1i64)])]).depth(), 2);
        assert_eq!(Data::record([("k", Data::from(1i64))]).depth(), 0);
    }

    #[test]
    fn accessors() {
        let r = Data::record([("name", "P1".into()), ("score", 0.5.into())]);
        assert_eq!(r.field("name").and_then(Data::as_text), Some("P1"));
        assert_eq!(r.field("score").and_then(Data::as_number), Some(0.5));
        assert!(r.field("missing").is_none());
        assert!(r.as_list().is_none());
    }

    #[test]
    fn leaf_count() {
        let v = Data::list([
            Data::record([("a", 1i64.into()), ("b", Data::Null)]),
            Data::list(["x".into(), "y".into()]),
        ]);
        assert_eq!(v.leaf_count(), 3);
    }

    #[test]
    fn display_is_readable() {
        let v = Data::list([Data::record([("id", "P1".into())]), 2i64.into()]);
        assert_eq!(v.to_string(), r#"[{id: "P1"}, 2]"#);
    }

    #[test]
    fn typed_values_are_shared_and_compare_by_value() {
        let v = Data::typed(vec![1u32, 2, 3]);
        let shared = v.clone();
        assert_eq!(v.as_typed::<Vec<u32>>(), Some(&vec![1, 2, 3]));
        assert!(std::ptr::eq(v.as_typed::<Vec<u32>>().unwrap(), shared.as_typed().unwrap()));
        assert!(v.as_typed::<String>().is_none());
        assert_eq!(v, Data::typed(vec![1u32, 2, 3]));
        assert_ne!(v, Data::typed(vec![1u32]));
        assert_ne!(Data::typed(1u32), Data::typed(1u64));
        assert_eq!(v.depth(), 0);
        assert_eq!(Data::list([v.clone(), v.clone()]).depth(), 1);
        assert_eq!(v.leaf_count(), 1);
        assert_eq!(Data::typed(1u8).to_string(), "<u8>");
    }

    #[test]
    fn collect_into_list() {
        let v: Data = (1i64..=3).collect();
        assert_eq!(v.as_list().unwrap().len(), 3);
    }
}
