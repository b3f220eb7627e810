//! # qurator-workflow
//!
//! A scientific-workflow engine in the style of Taverna (reproduction
//! substrate for *Quality Views*, VLDB 2006, §6).
//!
//! The paper compiles quality views into workflows for the Taverna
//! workbench, whose "simple workflow design primitives … are common to many
//! similar models": processors drawn from an extensible collection,
//! composed with **data links** (output port → input port) and **control
//! links** (B starts only after A completes). This crate implements those
//! primitives from scratch:
//!
//! * [`data`] — the value model flowing over data links (text, numbers,
//!   lists, records and shared typed payloads — a superset of Taverna's
//!   string/list model);
//! * [`processor`] — the [`processor::Processor`] trait (the extensible
//!   processor collection) and an execution context carrying shared
//!   resources (annotation repositories, service registries);
//! * [`model`] — the workflow graph: processors, data/control links,
//!   workflow input/output ports, validation (port existence, single
//!   writer per input, acyclicity) and topological ordering;
//! * [`enact`] — the enactor: wave-parallel execution (independent ready
//!   processors run concurrently on scoped threads, worker panics surfaced
//!   as execution errors), Taverna-style
//!   implicit iteration (a list arriving on an item-depth port maps the
//!   processor over the elements), and an execution report with per-node
//!   timings;
//! * [`embed`] — workflow nesting and the host-embedding operation the QV
//!   deployment step performs (prefix-merge + connectors, paper §6.2).

pub mod data;
pub mod embed;
pub mod enact;
pub mod model;
pub mod processor;

pub use data::{Data, Payload};
pub use embed::{Connector, EmbedDescriptor};
pub use enact::{EnactmentReport, Enactor, NodeEvent};
pub use model::{DataLink, PortRef, Workflow};
pub use processor::{Context, FnProcessor, Processor};

/// Errors from the workflow layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// The referenced processor/port does not exist.
    Unknown(String),
    /// Graph construction violates the model (duplicate names, double-fed
    /// input ports, …).
    Invalid(String),
    /// The data-link graph has a cycle.
    Cyclic(String),
    /// A processor failed during enactment.
    Execution { processor: String, message: String },
    /// An input port received no value at enactment time.
    MissingInput { processor: String, port: String },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::Unknown(m) => write!(f, "unknown workflow entity: {m}"),
            WorkflowError::Invalid(m) => write!(f, "invalid workflow: {m}"),
            WorkflowError::Cyclic(m) => write!(f, "workflow cycle: {m}"),
            WorkflowError::Execution { processor, message } => {
                write!(f, "processor {processor:?} failed: {message}")
            }
            WorkflowError::MissingInput { processor, port } => {
                write!(f, "processor {processor:?} got no value on port {port:?}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WorkflowError>;
