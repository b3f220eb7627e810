//! The abstract quality operators (§4.1) as workflow processors.
//!
//! * [`AnnotatorProcessor`] — the Annotation operator: computes evidence
//!   for the incoming data set and writes it to its repository; produces a
//!   completion token only (annotators "only write to a repository");
//! * [`DataEnrichmentProcessor`] — the single Data-Enrichment operator the
//!   compiler configures with an evidence-type → repository association;
//! * [`AssertionProcessor`] — a QA: augments the annotation map with a tag;
//! * [`ConsolidateProcessor`] — the `ConsolidateAssertions` task "added by
//!   the compiler to produce a consistent view of multiple assertions";
//! * [`ActionProcessor`] — condition/action pairs: filter and splitter.
//!   Conditions are re-parsed from source at execution time so users can
//!   edit them between runs without recompiling the view (§4).

use crate::convert;
use crate::{QuratorError, Result};
use parking_lot::Mutex;
use qurator_annotations::map::ItemAnnotations;
use qurator_annotations::{AnnotationMap, AnnotationRepository, EvidenceValue};
use qurator_expr::{Env, Expr, Scope, Value};
use qurator_ontology::IqModel;
use qurator_rdf::term::{Iri, Term};
use qurator_services::{AnnotationService, AssertionService, DataSet, VariableBindings};
use qurator_telemetry::stats::{NodeStats, StatsCollector};
use qurator_telemetry::{Counter, Histogram};
use qurator_workflow::{Context, Data, Processor, WorkflowError};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

type Inputs = BTreeMap<String, Data>;
type Outputs = BTreeMap<String, Data>;

fn enrich_op_items() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| qurator_telemetry::metrics().counter("enrich.op.items"))
}

fn enrich_op_latency() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| qurator_telemetry::metrics().histogram("enrich.op.latency_ns"))
}

fn exec_err(processor: &str, message: impl Into<String>) -> WorkflowError {
    WorkflowError::Execution { processor: processor.to_string(), message: message.into() }
}

fn wf_result<T>(processor: &str, r: Result<T>) -> std::result::Result<T, WorkflowError> {
    r.map_err(|e| exec_err(processor, e.to_string()))
}

/// The Annotation operator.
pub struct AnnotatorProcessor {
    name: String,
    service: Arc<dyn AnnotationService>,
    repository: Arc<AnnotationRepository>,
    stats: Option<Arc<StatsCollector>>,
}

impl AnnotatorProcessor {
    /// Wraps an annotation service writing to a repository.
    pub fn new(
        name: impl Into<String>,
        service: Arc<dyn AnnotationService>,
        repository: Arc<AnnotationRepository>,
    ) -> Self {
        AnnotatorProcessor { name: name.into(), service, repository, stats: None }
    }

    /// Attaches the shared observed-statistics sink.
    pub fn with_stats(mut self, stats: Arc<StatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Runs the annotation directly (shared with the interpreter path):
    /// computes evidence for the data set, writes it to the repository,
    /// returns the number of annotations written.
    pub fn annotate(&self, dataset: &DataSet) -> Result<usize> {
        let started = Instant::now();
        let written = self
            .service
            .annotate(dataset, &self.repository)
            .map_err(|e| QuratorError::Execution(e.to_string()))?;
        if let Some(stats) = &self.stats {
            stats.record(
                &self.name,
                NodeStats {
                    calls: 1,
                    rows_in: dataset.len() as u64,
                    rows_out: dataset.len() as u64,
                    evidence: written as u64,
                    hits: 0,
                    wall_ns: started.elapsed().as_nanos() as u64,
                },
            );
        }
        Ok(written)
    }
}

impl Processor for AnnotatorProcessor {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        vec![("dataset".to_string(), 0)]
    }

    fn output_ports(&self) -> Vec<String> {
        vec!["done".to_string()]
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let dataset_data =
            inputs.get("dataset").ok_or_else(|| exec_err(&self.name, "missing dataset"))?;
        let dataset = convert::data_to_dataset(dataset_data)
            .map_err(|e| exec_err(&self.name, e.to_string()))?;
        let written = wf_result(&self.name, self.annotate(&dataset))?;
        Ok(BTreeMap::from([("done".to_string(), Data::Number(written as f64))]))
    }
}

/// The Data-Enrichment operator.
pub struct DataEnrichmentProcessor {
    name: String,
    /// evidence type → repository to read it from (the compiler-computed
    /// association of §6.1).
    plan: Vec<(Iri, Arc<AnnotationRepository>)>,
    /// Fan enrichment out over scoped threads (repository groups × item
    /// chunks). On by default; disable for the E5 sequential ablation.
    parallel: bool,
    stats: Option<Arc<StatsCollector>>,
}

/// Floor on items per parallel enrichment chunk: below this a chunk is not
/// worth a thread, so small batches run on the calling thread.
const PARALLEL_CHUNK_MIN: usize = 4096;

impl DataEnrichmentProcessor {
    /// Builds the operator from its fetch plan.
    pub fn new(name: impl Into<String>, plan: Vec<(Iri, Arc<AnnotationRepository>)>) -> Self {
        DataEnrichmentProcessor { name: name.into(), plan, parallel: true, stats: None }
    }

    /// Switches parallel fan-out on or off.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches the shared observed-statistics sink.
    pub fn with_stats(mut self, stats: Arc<StatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The repository groups this operator will answer with one bulk
    /// lookup each: `(repository name, evidence types)` in first-fetch
    /// order. Exposed so callers (and regression tests) can verify that a
    /// repository listed under several evidence IRIs gets one grouped
    /// `enrich_bulk` call, not one per IRI.
    pub fn fetch_groups(&self) -> Vec<(String, Vec<Iri>)> {
        self.grouped_plan()
            .into_iter()
            .map(|(repository, types)| (repository.name().to_string(), types))
            .collect()
    }

    /// Groups the fetch plan by repository (first-occurrence order), so a
    /// repository serving several evidence types is scanned once, not once
    /// per type.
    fn grouped_plan(&self) -> Vec<(&Arc<AnnotationRepository>, Vec<Iri>)> {
        let mut groups: Vec<(&Arc<AnnotationRepository>, Vec<Iri>)> = Vec::new();
        for (evidence_type, repository) in &self.plan {
            match groups.iter_mut().find(|(r, _)| Arc::ptr_eq(r, repository)) {
                Some((_, types)) => types.push(evidence_type.clone()),
                None => groups.push((repository, vec![evidence_type.clone()])),
            }
        }
        groups
    }

    /// Runs the enrichment directly (shared with the interpreter path).
    ///
    /// Each repository group is answered by one bulk lookup
    /// ([`AnnotationRepository::enrich_bulk`]: one read lock, one index
    /// scan) instead of a SPARQL query per `(item, type)` pair. With
    /// `parallel` on, repository groups and large item chunks run on scoped
    /// threads; results merge in deterministic plan order, so parallel and
    /// sequential runs produce identical maps.
    pub fn enrich(&self, items: &[Term]) -> Result<AnnotationMap> {
        let started = Instant::now();
        enrich_op_items().add(items.len() as u64);
        let map = self.enrich_inner(items)?;
        let wall_ns = started.elapsed().as_nanos() as u64;
        enrich_op_latency().record(wall_ns);
        if let Some(stats) = &self.stats {
            if stats.enabled() {
                // Observed evidence cardinality and per-item hit rate: one
                // pass over the enriched map (rows are item-count sized,
                // not evidence-count sized, so this stays cheap).
                let mut evidence = 0u64;
                let mut hits = 0u64;
                for item in map.items() {
                    let n = map.item(item).map_or(0, |row| row.evidence_entries().count());
                    if n > 0 {
                        hits += 1;
                    }
                    evidence += n as u64;
                }
                stats.record(
                    &self.name,
                    NodeStats {
                        calls: 1,
                        rows_in: items.len() as u64,
                        rows_out: map.len() as u64,
                        evidence,
                        hits,
                        wall_ns,
                    },
                );
            }
        }
        Ok(map)
    }

    fn enrich_inner(&self, items: &[Term]) -> Result<AnnotationMap> {
        let groups = self.grouped_plan();

        // A single-repository plan (the common §6.1 outcome) is exactly one
        // bulk call: the returned map is already seeded with the item set,
        // so there is nothing to fan out or merge.
        if let [(repository, types)] = groups.as_slice() {
            return repository
                .enrich_bulk(items, types)
                .map_err(|e| QuratorError::Execution(e.to_string()));
        }

        let mut combined = AnnotationMap::for_items(items.iter().cloned());
        let partials: Vec<Result<AnnotationMap>> = if self.parallel && groups.len() > 1 {
            // Multi-repository fan-out: every (repository group × item
            // chunk) pair becomes a scoped-thread job, so independent
            // stores are scanned concurrently.
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            let chunk_size = items.len().div_ceil(workers.max(1)).max(PARALLEL_CHUNK_MIN);
            let jobs: Vec<(&Arc<AnnotationRepository>, &[Iri], &[Term])> = groups
                .iter()
                .flat_map(|(repository, types)| {
                    items
                        .chunks(chunk_size.max(1))
                        .map(move |chunk| (*repository, types.as_slice(), chunk))
                })
                .collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .map(|(repository, types, chunk)| {
                        scope.spawn(move || {
                            repository
                                .enrich_bulk(chunk, types)
                                .map_err(|e| QuratorError::Execution(e.to_string()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle.join().unwrap_or_else(|_| {
                            Err(QuratorError::Execution("enrichment worker panicked".to_string()))
                        })
                    })
                    .collect()
            })
        } else {
            groups
                .iter()
                .map(|(repository, types)| {
                    repository
                        .enrich_bulk(items, types)
                        .map_err(|e| QuratorError::Execution(e.to_string()))
                })
                .collect()
        };

        // Merge in job order (= plan order, then item order), keeping the
        // result byte-identical to a sequential per-pair enrichment.
        for partial in partials {
            combined.merge(&partial?);
        }
        Ok(combined)
    }
}

impl Processor for DataEnrichmentProcessor {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        vec![("dataset".to_string(), 0)]
    }

    fn output_ports(&self) -> Vec<String> {
        vec!["map".to_string()]
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let dataset_data =
            inputs.get("dataset").ok_or_else(|| exec_err(&self.name, "missing dataset"))?;
        let dataset = wf_result(&self.name, convert::data_to_dataset(dataset_data))?;
        let map = wf_result(&self.name, self.enrich(dataset.items()))?;
        Ok(BTreeMap::from([("map".to_string(), convert::map_to_data(&map))]))
    }
}

/// The Quality Assertion operator.
pub struct AssertionProcessor {
    name: String,
    service: Arc<dyn AssertionService>,
    bindings: VariableBindings,
    tag: String,
    stats: Option<Arc<StatsCollector>>,
}

impl AssertionProcessor {
    /// Wraps an assertion service with its variable bindings and tag name.
    pub fn new(
        name: impl Into<String>,
        service: Arc<dyn AssertionService>,
        bindings: VariableBindings,
        tag: impl Into<String>,
    ) -> Self {
        AssertionProcessor { name: name.into(), service, bindings, tag: tag.into(), stats: None }
    }

    /// Attaches the shared observed-statistics sink.
    pub fn with_stats(mut self, stats: Arc<StatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Runs the assertion directly (shared with the interpreter path, so
    /// classification counting covers both execution modes).
    pub fn assert_quality(&self, map: &mut AnnotationMap) -> Result<()> {
        let started = Instant::now();
        self.service
            .assert_quality(map, &self.bindings, &self.tag)
            .map_err(|e| QuratorError::Execution(e.to_string()))?;
        // Count what this pass assigned: per class label for
        // classifications, per tag for everything (numeric scores would
        // explode label cardinality if counted per value). Aggregated
        // locally first — one registry touch per label, not per item.
        let mut tagged = 0u64;
        let mut per_class: BTreeMap<String, u64> = BTreeMap::new();
        for item in map.items() {
            let row = map.item(item).expect("listed");
            match row.tag(&self.tag) {
                EvidenceValue::Null => {}
                EvidenceValue::Class(class) => {
                    tagged += 1;
                    *per_class.entry(class.local_name().to_string()).or_default() += 1;
                }
                _ => tagged += 1,
            }
        }
        let metrics = qurator_telemetry::metrics();
        if tagged > 0 {
            metrics.counter_with("qa.assert.count", &[("tag", &self.tag)]).add(tagged);
        }
        for (label, count) in &per_class {
            metrics.counter_with("qa.classify.count", &[("class", label)]).add(*count);
        }
        // feed the drift monitor the same aggregation (one call per
        // node×batch; a no-op when the monitor is disabled)
        if !per_class.is_empty() {
            let counts: Vec<(&str, u64)> =
                per_class.iter().map(|(label, count)| (label.as_str(), *count)).collect();
            qurator_telemetry::drift::global().observe_bulk(&self.tag, &counts);
        }
        if let Some(stats) = &self.stats {
            stats.record(
                &self.name,
                NodeStats {
                    calls: 1,
                    rows_in: map.len() as u64,
                    rows_out: map.len() as u64,
                    evidence: 0,
                    hits: tagged,
                    wall_ns: started.elapsed().as_nanos() as u64,
                },
            );
        }
        Ok(())
    }
}

impl Processor for AssertionProcessor {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        vec![("map".to_string(), 0)]
    }

    fn output_ports(&self) -> Vec<String> {
        vec!["map".to_string()]
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let map_data = inputs.get("map").ok_or_else(|| exec_err(&self.name, "missing map"))?;
        let mut map = wf_result(&self.name, convert::data_to_map(map_data))?;
        wf_result(&self.name, self.assert_quality(&mut map))?;
        Ok(BTreeMap::from([("map".to_string(), convert::map_to_data(&map))]))
    }
}

/// The consolidation task: merges N annotation maps into one consistent
/// view (later inputs win conflicting entries; in a compiled view tags are
/// distinct so there are none).
pub struct ConsolidateProcessor {
    name: String,
    input_count: usize,
}

impl ConsolidateProcessor {
    /// Builds a consolidator with `input_count` map inputs
    /// (`map0 … map{n-1}`).
    pub fn new(name: impl Into<String>, input_count: usize) -> Self {
        ConsolidateProcessor { name: name.into(), input_count: input_count.max(1) }
    }
}

impl Processor for ConsolidateProcessor {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        (0..self.input_count).map(|i| (format!("map{i}"), 0)).collect()
    }

    fn output_ports(&self) -> Vec<String> {
        vec!["map".to_string()]
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let mut combined = AnnotationMap::new();
        for i in 0..self.input_count {
            let port = format!("map{i}");
            let map_data =
                inputs.get(&port).ok_or_else(|| exec_err(&self.name, format!("missing {port}")))?;
            let map = wf_result(&self.name, convert::data_to_map(map_data))?;
            combined.merge(&map);
        }
        Ok(BTreeMap::from([("map".to_string(), convert::map_to_data(&combined))]))
    }
}

/// A compiled action: filter or splitter with condition *source text*.
#[derive(Debug, Clone)]
pub enum CompiledAction {
    Filter { condition: String },
    Split { groups: Vec<(String, String)> },
}

/// One output group of an action execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Group name (the action name for filters, `action/group` for
    /// splitter groups, `action/default` for the §4.1 default group).
    pub name: String,
    /// Surviving data items (input order preserved).
    pub dataset: DataSet,
    /// The restriction of the annotation map to those items
    /// (`(D_i, Amap_i)` in §4.1).
    pub map: AnnotationMap,
}

/// The Actions operator.
pub struct ActionProcessor {
    action_name: String,
    action: CompiledAction,
    iq: Arc<IqModel>,
    /// Conditions are re-parsed per execution; this caches the parse of
    /// the *current* source only, preserving edit-between-runs semantics
    /// while avoiding a re-parse per item.
    parse_cache: Mutex<BTreeMap<String, Expr>>,
    /// Plan-time constant-fold verdicts, index-aligned with the action's
    /// condition slots (`Some(true)` = always accepts, `Some(false)` =
    /// always rejects). A hinted slot skips per-item evaluation; the
    /// outcome is identical because the optimizer only hints conditions
    /// that reference no variables.
    short_circuit: Vec<Option<bool>>,
    stats: Option<Arc<StatsCollector>>,
}

impl ActionProcessor {
    /// Builds an action operator.
    pub fn new(action_name: impl Into<String>, action: CompiledAction, iq: Arc<IqModel>) -> Self {
        ActionProcessor {
            action_name: action_name.into(),
            action,
            iq,
            parse_cache: Mutex::new(BTreeMap::new()),
            short_circuit: Vec::new(),
            stats: None,
        }
    }

    /// Installs plan-time short-circuit verdicts (one slot per condition;
    /// `None` slots evaluate normally).
    pub fn with_short_circuit(mut self, hints: Vec<Option<bool>>) -> Self {
        self.short_circuit = hints;
        self
    }

    /// Attaches the shared observed-statistics sink.
    pub fn with_stats(mut self, stats: Arc<StatsCollector>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The output group names this action produces, in port order.
    pub fn group_names(&self) -> Vec<String> {
        match &self.action {
            CompiledAction::Filter { .. } => vec![self.action_name.clone()],
            CompiledAction::Split { groups } => {
                let mut names: Vec<String> =
                    groups.iter().map(|(g, _)| format!("{}/{g}", self.action_name)).collect();
                names.push(format!("{}/default", self.action_name));
                names
            }
        }
    }

    fn condition(&self, source: &str) -> Result<Expr> {
        if let Some(found) = self.parse_cache.lock().get(source) {
            return Ok(found.clone());
        }
        let parsed = qurator_expr::parse(source)
            .map_err(|e| QuratorError::Execution(format!("condition {source:?}: {e}")))?;
        self.parse_cache.lock().insert(source.to_string(), parsed.clone());
        Ok(parsed)
    }

    /// Runs the action directly (shared with the interpreter path).
    ///
    /// Membership is recorded by row position, and each group is cut from
    /// the input in one linear pass. Conditions read each row in place
    /// through a [`RowScope`] over bindings resolved once per call.
    pub fn apply(&self, dataset: &DataSet, map: &AnnotationMap) -> Result<Vec<GroupResult>> {
        let started = Instant::now();
        // A short-circuited slot needs no parse and no per-item evaluation
        enum Cond {
            Eval(Expr),
            Const(bool),
        }
        let conditions: Vec<(String, Cond)> = self
            .condition_slots()
            .into_iter()
            .enumerate()
            .map(|(slot, (name, source))| {
                Ok(match self.short_circuit.get(slot).copied().flatten() {
                    Some(verdict) => (name, Cond::Const(verdict)),
                    None => (name, Cond::Eval(self.condition(source)?)),
                })
            })
            .collect::<Result<_>>()?;
        let bindings = RowBindings::resolve(
            &self.iq,
            map,
            conditions.iter().filter_map(|(_, cond)| match cond {
                Cond::Eval(expr) => Some(expr),
                Cond::Const(_) => None,
            }),
        );

        let mut memberships: Vec<Vec<usize>> = vec![Vec::new(); conditions.len()];
        let mut default_group: Vec<usize> = Vec::new();
        for (position, item) in dataset.items().iter().enumerate() {
            let scope = bindings.scope(map, item);
            let mut matched_any = false;
            for (slot, (_, cond)) in conditions.iter().enumerate() {
                let accepted = match cond {
                    Cond::Const(verdict) => *verdict,
                    Cond::Eval(expr) => self.outcome(expr, &scope)? == ConditionOutcome::Accepted,
                };
                if accepted {
                    memberships[slot].push(position);
                    matched_any = true;
                }
            }
            if !matched_any {
                default_group.push(position);
            }
        }

        let group = |name: String, positions: &[usize]| {
            let members: Vec<Term> =
                positions.iter().map(|&position| dataset.items()[position].clone()).collect();
            GroupResult { name, dataset: dataset.select(positions), map: map.restrict(&members) }
        };
        let mut out = Vec::with_capacity(conditions.len() + 1);
        for ((name, _), positions) in conditions.into_iter().zip(&memberships) {
            out.push(group(name, positions));
        }
        if matches!(self.action, CompiledAction::Split { .. }) {
            // §4.1: the k+1-th output is the default group.
            out.push(group(format!("{}/default", self.action_name), &default_group));
        }
        if let Some(stats) = &self.stats {
            stats.record(
                &self.action_name,
                NodeStats {
                    calls: 1,
                    rows_in: dataset.len() as u64,
                    rows_out: out.iter().map(|g| g.dataset.len() as u64).sum(),
                    evidence: 0,
                    // rows some condition accepted (for a filter, the
                    // default group holds exactly the rejected items)
                    hits: (dataset.len() - default_group.len()) as u64,
                    wall_ns: started.elapsed().as_nanos() as u64,
                },
            );
        }
        Ok(out)
    }

    /// `(group name, condition source)` per condition slot, in port order.
    fn condition_slots(&self) -> Vec<(String, &str)> {
        match &self.action {
            CompiledAction::Filter { condition } => {
                vec![(self.action_name.clone(), condition.as_str())]
            }
            CompiledAction::Split { groups } => groups
                .iter()
                .map(|(group, condition)| {
                    (format!("{}/{group}", self.action_name), condition.as_str())
                })
                .collect(),
        }
    }

    /// One condition on one row: the evaluation `apply` and `explain` share.
    fn outcome(&self, expr: &Expr, scope: &RowScope<'_, '_>) -> Result<ConditionOutcome> {
        let value = expr.eval(scope).map_err(|e| {
            QuratorError::Execution(format!("evaluating action {:?}: {e}", self.action_name))
        })?;
        Ok(match value {
            Value::Bool(true) => ConditionOutcome::Accepted,
            Value::Null => ConditionOutcome::Unknown,
            _ => ConditionOutcome::Rejected,
        })
    }
}

/// A set of condition variables resolved against one annotation map, once
/// per action call. A variable reads its row's QA tag of that name when
/// the row has one; otherwise the evidence value whose type has that local
/// name (the last such type in IRI order, should several share it).
/// Classification labels are compacted to symbols once per distinct label.
struct RowBindings<'m> {
    iq: &'m IqModel,
    /// variable name → candidate evidence types, ascending IRI order
    vars: Vec<(String, Vec<&'m Iri>)>,
    symbols: HashMap<&'m Iri, Value>,
}

impl<'m> RowBindings<'m> {
    fn resolve<'e>(
        iq: &'m IqModel,
        map: &'m AnnotationMap,
        conditions: impl Iterator<Item = &'e Expr>,
    ) -> Self {
        let mut vars: Vec<(String, Vec<&'m Iri>)> = Vec::new();
        for name in conditions.flat_map(Expr::variables) {
            if !vars.iter().any(|(known, _)| *known == name) {
                vars.push((name, Vec::new()));
            }
        }
        let mut symbols: HashMap<&'m Iri, Value> = HashMap::new();
        if !vars.is_empty() {
            let mut note_symbol = |value: &'m EvidenceValue| {
                if let EvidenceValue::Class(class) = value {
                    symbols.entry(class).or_insert_with(|| evidence_to_value(iq, value));
                }
            };
            for (_, row) in map.rows() {
                for (evidence_type, value) in row.evidence_entries() {
                    let local = evidence_type.local_name();
                    if let Some((_, types)) = vars.iter_mut().find(|(name, _)| name == local) {
                        if !types.contains(&evidence_type) {
                            types.push(evidence_type);
                        }
                        note_symbol(value);
                    }
                }
                for (name, _) in &vars {
                    if let Some(value) = row.tag_ref(name) {
                        note_symbol(value);
                    }
                }
            }
            for (_, types) in &mut vars {
                types.sort();
            }
        }
        RowBindings { iq, vars, symbols }
    }

    /// The scope of one item's row (no row lookup when nothing is read).
    fn scope<'s>(&'s self, map: &'m AnnotationMap, item: &Term) -> RowScope<'s, 'm> {
        let row = if self.vars.is_empty() { None } else { map.item(item) };
        RowScope { bindings: self, row }
    }
}

/// One row of an annotation map seen as a condition scope: values are
/// read in place, and only text values are copied.
struct RowScope<'s, 'm> {
    bindings: &'s RowBindings<'m>,
    row: Option<&'m ItemAnnotations>,
}

impl RowScope<'_, '_> {
    /// Every resolved variable with the value this row gives it.
    fn environment(&self) -> Env {
        self.bindings
            .vars
            .iter()
            .map(|(name, _)| (name.clone(), self.value(name).into_owned()))
            .collect()
    }
}

impl Scope for RowScope<'_, '_> {
    fn value(&self, name: &str) -> Cow<'_, Value> {
        let found = self.row.and_then(|row| {
            let (_, types) = self.bindings.vars.iter().find(|(known, _)| known == name)?;
            row.tag_ref(name).or_else(|| types.iter().rev().find_map(|t| row.evidence_ref(t)))
        });
        match found {
            None | Some(EvidenceValue::Null) => Cow::Owned(Value::Null),
            Some(EvidenceValue::Number(n)) => Cow::Owned(Value::Num(*n)),
            Some(EvidenceValue::Bool(b)) => Cow::Owned(Value::Bool(*b)),
            Some(EvidenceValue::Text(text)) => Cow::Owned(Value::Str(text.clone())),
            Some(value @ EvidenceValue::Class(class)) => match self.bindings.symbols.get(class) {
                Some(symbol) => Cow::Borrowed(symbol),
                None => Cow::Owned(evidence_to_value(self.bindings.iq, value)),
            },
        }
    }
}

/// Converts an annotation value into a condition-language value.
/// Classification labels become symbols in compact (`q:high`) form.
pub fn evidence_to_value(iq: &IqModel, value: &EvidenceValue) -> Value {
    match value {
        EvidenceValue::Number(n) => Value::Num(*n),
        EvidenceValue::Text(s) => Value::Str(s.clone()),
        EvidenceValue::Bool(b) => Value::Bool(*b),
        EvidenceValue::Class(iri) => Value::Symbol(iq.compact(iri)),
        EvidenceValue::Null => Value::Null,
    }
}

impl Processor for ActionProcessor {
    fn type_name(&self) -> &str {
        &self.action_name
    }

    fn input_ports(&self) -> Vec<(String, usize)> {
        vec![("dataset".to_string(), 0), ("map".to_string(), 0)]
    }

    fn output_ports(&self) -> Vec<String> {
        self.group_names()
    }

    fn execute(
        &self,
        inputs: &Inputs,
        _ctx: &Context,
    ) -> std::result::Result<Outputs, WorkflowError> {
        let dataset_data =
            inputs.get("dataset").ok_or_else(|| exec_err(&self.action_name, "missing dataset"))?;
        let map_data =
            inputs.get("map").ok_or_else(|| exec_err(&self.action_name, "missing map"))?;
        let dataset = wf_result(&self.action_name, convert::data_to_dataset(dataset_data))?;
        let map = wf_result(&self.action_name, convert::data_to_map(map_data))?;
        let groups = wf_result(&self.action_name, self.apply(&dataset, &map))?;
        Ok(groups
            .into_iter()
            .map(|g| {
                (
                    g.name.clone(),
                    Data::record([
                        ("dataset", convert::dataset_to_data(&g.dataset)),
                        ("map", convert::map_to_data(&g.map)),
                    ]),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_rdf::namespace::q;
    use qurator_services::stdlib::{FieldCaptureAnnotator, ZScoreAssertion};

    fn iq() -> Arc<IqModel> {
        Arc::new(IqModel::with_proteomics_extension().unwrap())
    }

    fn item(n: u32) -> Term {
        Term::iri(format!("urn:lsid:t:h:{n}"))
    }

    fn sample_dataset() -> DataSet {
        let mut ds = DataSet::new();
        ds.push(item(1), [("hitRatio", 0.9.into()), ("massCoverage", 40.0.into())]);
        ds.push(item(2), [("hitRatio", 0.5.into()), ("massCoverage", 25.0.into())]);
        ds.push(item(3), [("hitRatio", 0.1.into()), ("massCoverage", 5.0.into())]);
        ds
    }

    #[test]
    fn annotator_then_enrichment_pipeline() {
        let iq = iq();
        let repo = Arc::new(AnnotationRepository::new("cache", false, iq.clone()));
        let annotator = AnnotatorProcessor::new(
            "ImprintOutputAnnotator",
            Arc::new(FieldCaptureAnnotator::new(
                q::iri("ImprintOutputAnnotation"),
                &[("hitRatio", q::iri("HitRatio")), ("massCoverage", q::iri("MassCoverage"))],
            )),
            repo.clone(),
        );
        let ds = sample_dataset();
        let inputs = BTreeMap::from([("dataset".to_string(), convert::dataset_to_data(&ds))]);
        let out = annotator.execute(&inputs, &Context::new()).unwrap();
        assert_eq!(out["done"], Data::Number(6.0));

        let de = DataEnrichmentProcessor::new(
            "DataEnrichment",
            vec![(q::iri("HitRatio"), repo.clone()), (q::iri("MassCoverage"), repo)],
        );
        let out = de.execute(&inputs, &Context::new()).unwrap();
        let map = convert::data_to_map(&out["map"]).unwrap();
        assert_eq!(map.len(), 3);
        assert_eq!(
            map.item(&item(1)).unwrap().evidence(&q::iri("HitRatio")),
            EvidenceValue::Number(0.9)
        );
    }

    #[test]
    fn grouped_bulk_enrich_equals_per_entry_merge() {
        // Two repositories with overlapping evidence types: repo_a holds
        // HitRatio for all items and MassCoverage for item 1; repo_b holds
        // MassCoverage for items 2,3 plus a *conflicting* HitRatio for
        // item 1 (the plan must keep later entries winning on merge).
        let iq = iq();
        let repo_a = Arc::new(AnnotationRepository::new("a", false, iq.clone()));
        let repo_b = Arc::new(AnnotationRepository::new("b", false, iq.clone()));
        for (i, v) in [(1u32, 0.9), (2, 0.5), (3, 0.1)] {
            repo_a.annotate(&item(i), &q::iri("HitRatio"), v.into()).unwrap();
        }
        repo_a.annotate(&item(1), &q::iri("MassCoverage"), 40.0.into()).unwrap();
        repo_b.annotate(&item(1), &q::iri("HitRatio"), 0.111.into()).unwrap();
        repo_b.annotate(&item(2), &q::iri("MassCoverage"), 25.0.into()).unwrap();
        repo_b.annotate(&item(3), &q::iri("MassCoverage"), 5.0.into()).unwrap();

        let plan = vec![
            (q::iri("HitRatio"), repo_a.clone()),
            (q::iri("MassCoverage"), repo_b.clone()),
            (q::iri("MassCoverage"), repo_a.clone()),
            (q::iri("HitRatio"), repo_b.clone()),
        ];
        let items: Vec<Term> = (1..=3u32).map(item).collect();

        // The pre-bulk composition: one per-pair enrich per plan entry,
        // merged in plan order.
        let mut per_entry = AnnotationMap::for_items(items.iter().cloned());
        for (evidence_type, repository) in &plan {
            let partial = repository.enrich(&items, std::slice::from_ref(evidence_type)).unwrap();
            per_entry.merge(&partial);
        }

        let parallel = DataEnrichmentProcessor::new("de", plan.clone()).enrich(&items).unwrap();
        let sequential =
            DataEnrichmentProcessor::new("de", plan).with_parallel(false).enrich(&items).unwrap();

        assert_eq!(parallel, per_entry);
        assert_eq!(sequential, per_entry);
        // The later plan entry's HitRatio (repo_b) must have won for item 1.
        assert_eq!(
            per_entry.item(&item(1)).unwrap().evidence(&q::iri("HitRatio")),
            EvidenceValue::Number(0.111)
        );
    }

    #[test]
    fn assertion_processor_tags() {
        let qa = AssertionProcessor::new(
            "HRscore",
            Arc::new(ZScoreAssertion::new(q::iri("UniversalPIScore"), &["hr"])),
            VariableBindings::new().bind_evidence("hr", q::iri("HitRatio")),
            "HR",
        );
        let mut map = AnnotationMap::new();
        for (i, v) in [(1u32, 0.1), (2, 0.5), (3, 0.9)] {
            map.set_evidence(&item(i), q::iri("HitRatio"), v.into());
        }
        let inputs = BTreeMap::from([("map".to_string(), convert::map_to_data(&map))]);
        let out = qa.execute(&inputs, &Context::new()).unwrap();
        let tagged = convert::data_to_map(&out["map"]).unwrap();
        assert!(tagged.item(&item(3)).unwrap().tag("HR").as_number().unwrap() > 0.0);
    }

    #[test]
    fn consolidate_merges() {
        let mut a = AnnotationMap::new();
        a.set_tag(&item(1), "HR", 1.0.into());
        let mut b = AnnotationMap::new();
        b.set_tag(&item(1), "MC", 2.0.into());
        let c = ConsolidateProcessor::new("ConsolidateAssertions", 2);
        let inputs = BTreeMap::from([
            ("map0".to_string(), convert::map_to_data(&a)),
            ("map1".to_string(), convert::map_to_data(&b)),
        ]);
        let out = c.execute(&inputs, &Context::new()).unwrap();
        let merged = convert::data_to_map(&out["map"]).unwrap();
        let row = merged.item(&item(1)).unwrap();
        assert_eq!(row.tag("HR"), EvidenceValue::Number(1.0));
        assert_eq!(row.tag("MC"), EvidenceValue::Number(2.0));
    }

    #[test]
    fn filter_action_keeps_matching_items() {
        let iq = iq();
        let action = ActionProcessor::new(
            "keep",
            CompiledAction::Filter {
                condition: "ScoreClass in q:high, q:mid and HitRatio > 0.2".into(),
            },
            iq.clone(),
        );
        let ds = sample_dataset();
        let mut map = AnnotationMap::new();
        for (i, class) in [(1u32, "high"), (2, "mid"), (3, "high")] {
            map.set_evidence(&item(i), q::iri("HitRatio"), ds.field(&item(i), "hitRatio"));
            map.set_tag(&item(i), "ScoreClass", EvidenceValue::Class(q::iri(class)));
        }
        let groups = action.apply(&ds, &map).unwrap();
        assert_eq!(groups.len(), 1);
        // item 3 has HitRatio 0.1 → dropped despite class high
        assert_eq!(groups[0].dataset.items(), &[item(1), item(2)]);
        assert_eq!(groups[0].map.len(), 2);
    }

    #[test]
    fn splitter_groups_cover_everything_with_default() {
        let iq = iq();
        let action = ActionProcessor::new(
            "triage",
            CompiledAction::Split {
                groups: vec![
                    ("strong".into(), "HitRatio >= 0.5".into()),
                    ("reviewable".into(), "MassCoverage > 20".into()),
                ],
            },
            iq,
        );
        let ds = sample_dataset();
        let mut map = AnnotationMap::new();
        for i in 1..=3u32 {
            map.set_evidence(&item(i), q::iri("HitRatio"), ds.field(&item(i), "hitRatio"));
            map.set_evidence(&item(i), q::iri("MassCoverage"), ds.field(&item(i), "massCoverage"));
        }
        let groups = action.apply(&ds, &map).unwrap();
        assert_eq!(groups.len(), 3);
        let by_name: BTreeMap<&str, &GroupResult> =
            groups.iter().map(|g| (g.name.as_str(), g)).collect();
        // items 1,2 are strong; 1,2 reviewable (overlap allowed, §4.1);
        // item 3 matches nothing → default
        assert_eq!(by_name["triage/strong"].dataset.items(), &[item(1), item(2)]);
        assert_eq!(by_name["triage/reviewable"].dataset.items(), &[item(1), item(2)]);
        assert_eq!(by_name["triage/default"].dataset.items(), &[item(3)]);
    }

    #[test]
    fn missing_evidence_rejects_not_errors() {
        let action = ActionProcessor::new(
            "keep",
            CompiledAction::Filter { condition: "GhostEvidence > 1".into() },
            iq(),
        );
        let ds = sample_dataset();
        let map = AnnotationMap::for_items(ds.items().iter().cloned());
        let groups = action.apply(&ds, &map).unwrap();
        assert!(groups[0].dataset.is_empty());
    }

    #[test]
    fn bad_condition_source_is_reported() {
        let action =
            ActionProcessor::new("keep", CompiledAction::Filter { condition: "><><".into() }, iq());
        let ds = sample_dataset();
        let map = AnnotationMap::new();
        assert!(action.apply(&ds, &map).is_err());
    }

    #[test]
    fn conditions_read_tags_and_evidence_locals() {
        let iq = iq();
        let mut map = AnnotationMap::new();
        map.set_evidence(&item(1), q::iri("MassCoverage"), 33.0.into());
        map.set_tag(&item(1), "ScoreClass", EvidenceValue::Class(q::iri("high")));
        let action = ActionProcessor::new(
            "keep",
            CompiledAction::Filter {
                condition: "ScoreClass in q:high and MassCoverage > 30 or Absent > 0".into(),
            },
            iq,
        );
        let ds = DataSet::from_items([item(1)]);
        let explained = action.explain(&ds, &map).unwrap();
        let env = &explained[0].environment;
        assert_eq!(env.lookup("MassCoverage"), Value::Num(33.0));
        assert_eq!(env.lookup("ScoreClass"), Value::Symbol("q:high".into()));
        assert_eq!(env.lookup("Absent"), Value::Null);
        assert_eq!(explained[0].outcomes[0].1, ConditionOutcome::Accepted);
        assert_eq!(action.apply(&ds, &map).unwrap()[0].dataset.items(), &[item(1)]);
    }

    #[test]
    fn a_tag_shadows_evidence_and_the_last_iri_wins_a_shared_local_name() {
        let iq = iq();
        let mut map = AnnotationMap::new();
        // tag and evidence share the name: the tag is what conditions see
        map.set_evidence(&item(1), q::iri("MassCoverage"), 33.0.into());
        map.set_tag(&item(1), "MassCoverage", 1.0.into());
        // two evidence types with one local name: the later IRI wins
        map.set_evidence(&item(2), Iri::new("http://b.example/ns#Depth"), 5.0.into());
        map.set_evidence(&item(2), Iri::new("http://a.example/ns#Depth"), 1.0.into());
        // a null tag still shadows the evidence value
        map.set_evidence(&item(3), q::iri("MassCoverage"), 33.0.into());
        map.set_tag(&item(3), "MassCoverage", EvidenceValue::Null);
        let ds = DataSet::from_items([item(1), item(2), item(3)]);
        let action = ActionProcessor::new(
            "triage",
            CompiledAction::Split {
                groups: vec![
                    ("covered".into(), "MassCoverage > 10".into()),
                    ("deep".into(), "Depth > 3".into()),
                ],
            },
            iq,
        );
        let groups = action.apply(&ds, &map).unwrap();
        assert!(groups[0].dataset.is_empty(), "tags shadow evidence");
        assert_eq!(groups[1].dataset.items(), &[item(2)]);
        assert_eq!(groups[2].dataset.items(), &[item(1), item(3)]);
        let explained = action.explain(&ds, &map).unwrap();
        assert_eq!(explained[2].outcomes[0].1, ConditionOutcome::Unknown);
    }

    #[test]
    fn split_item_in_two_groups_leaves_default_empty() {
        let action = ActionProcessor::new(
            "triage",
            CompiledAction::Split {
                groups: vec![
                    ("any".into(), "HitRatio > 0".into()),
                    ("strong".into(), "HitRatio >= 0.5".into()),
                ],
            },
            iq(),
        );
        let ds = sample_dataset();
        let mut map = AnnotationMap::new();
        for i in 1..=3u32 {
            map.set_evidence(&item(i), q::iri("HitRatio"), ds.field(&item(i), "hitRatio"));
        }
        let groups = action.apply(&ds, &map).unwrap();
        let names: Vec<&str> = groups.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["triage/any", "triage/strong", "triage/default"]);
        assert_eq!(groups[0].dataset.items(), &[item(1), item(2), item(3)]);
        assert_eq!(groups[1].dataset.items(), &[item(1), item(2)]);
        assert_eq!(groups[1].map.items(), &[item(1), item(2)]);
        assert!(groups[2].dataset.is_empty() && groups[2].map.is_empty());
    }
}

/// Per-item explanation of an action decision — the observability the
/// paper's prototyping loop needs ("repeatedly observe the effect of
/// alternative criteria"). Produced by [`ActionProcessor::explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct ItemExplanation {
    /// The data item.
    pub item: Term,
    /// Per condition (group name for splitters, action name for filters):
    /// the evaluated outcome.
    pub outcomes: Vec<(String, ConditionOutcome)>,
    /// The values the conditions read: one binding per variable they
    /// reference (`Null` where the row has no value).
    pub environment: Env,
}

/// The three-valued outcome of one condition on one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConditionOutcome {
    Accepted,
    Rejected,
    /// The condition evaluated to Null (missing evidence) — rejected, but
    /// distinguishable from an explicit `false`.
    Unknown,
}

impl ActionProcessor {
    /// Evaluates the action's conditions per item *without* producing
    /// groups, returning a full explanation trace. Runs the same per-row
    /// evaluation as [`Self::apply`] (short-circuit hints aside: every
    /// condition is evaluated), so the two cannot disagree.
    pub fn explain(&self, dataset: &DataSet, map: &AnnotationMap) -> Result<Vec<ItemExplanation>> {
        let conditions: Vec<(String, Expr)> = match &self.action {
            CompiledAction::Filter { condition } => {
                vec![(self.action_name.clone(), self.condition(condition)?)]
            }
            CompiledAction::Split { groups } => groups
                .iter()
                .map(|(group, condition)| Ok((group.clone(), self.condition(condition)?)))
                .collect::<Result<Vec<_>>>()?,
        };
        let bindings = RowBindings::resolve(&self.iq, map, conditions.iter().map(|(_, e)| e));
        let mut out = Vec::with_capacity(dataset.items().len());
        for item in dataset.items() {
            let scope = bindings.scope(map, item);
            let outcomes = conditions
                .iter()
                .map(|(name, expr)| Ok((name.clone(), self.outcome(expr, &scope)?)))
                .collect::<Result<Vec<_>>>()?;
            out.push(ItemExplanation {
                item: item.clone(),
                outcomes,
                environment: scope.environment(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use qurator_rdf::namespace::q;

    #[test]
    fn explanations_distinguish_rejected_from_unknown() {
        let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
        let action = ActionProcessor::new(
            "keep",
            CompiledAction::Filter { condition: "HR_MC > 10".into() },
            iq,
        );
        let a = Term::iri("urn:lsid:t:h:a");
        let b = Term::iri("urn:lsid:t:h:b");
        let c = Term::iri("urn:lsid:t:h:c");
        let mut dataset = DataSet::new();
        for item in [&a, &b, &c] {
            dataset.push((*item).clone(), [] as [(String, EvidenceValue); 0]);
        }
        let mut map = AnnotationMap::new();
        map.set_tag(&a, "HR_MC", 20.0.into());
        map.set_tag(&b, "HR_MC", 3.0.into());
        map.ensure_item(c.clone()); // no tag: Null outcome

        let explanations = action.explain(&dataset, &map).unwrap();
        assert_eq!(explanations.len(), 3);
        assert_eq!(explanations[0].outcomes[0].1, ConditionOutcome::Accepted);
        assert_eq!(explanations[1].outcomes[0].1, ConditionOutcome::Rejected);
        assert_eq!(explanations[2].outcomes[0].1, ConditionOutcome::Unknown);
        // the environment snapshot is available for display
        assert_eq!(explanations[0].environment.lookup("HR_MC"), Value::Num(20.0));
    }

    #[test]
    fn explanations_agree_with_apply() {
        let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
        let action = ActionProcessor::new(
            "triage",
            CompiledAction::Split {
                groups: vec![("hi".into(), "score > 1".into()), ("lo".into(), "score <= 1".into())],
            },
            iq,
        );
        let mut dataset = DataSet::new();
        let mut map = AnnotationMap::new();
        for i in 0..6u32 {
            let item = Term::iri(format!("urn:lsid:t:h:{i}"));
            dataset.push(item.clone(), [] as [(String, EvidenceValue); 0]);
            map.set_tag(&item, "score", (i as f64 / 2.0).into());
        }
        let groups = action.apply(&dataset, &map).unwrap();
        let explanations = action.explain(&dataset, &map).unwrap();
        let hi = groups.iter().find(|g| g.name == "triage/hi").unwrap();
        for explanation in &explanations {
            let accepted_hi = explanation
                .outcomes
                .iter()
                .any(|(n, o)| n == "hi" && *o == ConditionOutcome::Accepted);
            assert_eq!(hi.dataset.items().contains(&explanation.item), accepted_hi);
        }
        let _ = q::iri("HitRatio");
    }
}

#[cfg(test)]
mod scope_prop_tests {
    use super::*;
    use proptest::prelude::*;
    use qurator_rdf::namespace::q;

    /// The per-item environment conditions were specified against: every
    /// evidence value under its type's local name (IRI order, later wins),
    /// then every tag under its name (tags win).
    fn reference_env(iq: &IqModel, map: &AnnotationMap, item: &Term) -> Env {
        let mut env = Env::new();
        if let Some(row) = map.item(item) {
            for (evidence_type, value) in row.evidence_entries() {
                env.bind(evidence_type.local_name(), evidence_to_value(iq, value));
            }
            for (tag, value) in row.tag_entries() {
                env.bind(tag, evidence_to_value(iq, value));
            }
        }
        env
    }

    fn arb_value() -> impl Strategy<Value = EvidenceValue> {
        prop_oneof![
            Just(EvidenceValue::Null),
            (-5i32..5).prop_map(|n| EvidenceValue::Number(n as f64)),
            (0usize..3).prop_map(|i| EvidenceValue::Class(q::iri(["high", "mid", "low"][i]))),
            (0usize..2).prop_map(|i| EvidenceValue::Text(["high", "x"][i].to_string())),
        ]
    }

    const CONDITIONS: [&str; 5] = [
        "ScoreClass in q:high, q:mid and HR_MC > 0",
        "HitRatio >= 1 or ScoreClass = 'high'",
        "not (HR_MC < 0) and HitRatio in 1, 2, q:low",
        "ScoreClass in high, mid",
        "HitRatio = HR_MC",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Reading rows in place gives every condition the outcome the
        /// reference environment gives it, including where tags shadow
        /// evidence and two evidence types share a local name.
        #[test]
        fn row_scope_matches_the_reference_environment(
            rows in proptest::collection::vec(
                proptest::collection::vec((0usize..5, arb_value()), 0..5),
                1..12,
            ),
        ) {
            let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
            let mut map = AnnotationMap::new();
            let mut ds = DataSet::new();
            for (i, entries) in rows.iter().enumerate() {
                let it = Term::iri(format!("urn:lsid:t:h:{i}"));
                ds.push(it.clone(), [] as [(String, EvidenceValue); 0]);
                if i % 5 == 4 {
                    continue; // an item the map has no row for
                }
                map.ensure_item(it.clone());
                for (slot, value) in entries {
                    match slot {
                        0 => map.set_evidence(&it, q::iri("HitRatio"), value.clone()),
                        1 => map.set_evidence(&it, Iri::new("http://z.example/ns#HitRatio"), value.clone()),
                        2 => map.set_tag(&it, "HR_MC", value.clone()),
                        3 => map.set_tag(&it, "ScoreClass", value.clone()),
                        _ => map.set_tag(&it, "HitRatio", value.clone()),
                    }
                }
            }
            for condition in CONDITIONS {
                let expr = qurator_expr::parse(condition).unwrap();
                let action = ActionProcessor::new(
                    "keep",
                    CompiledAction::Filter { condition: condition.into() },
                    iq.clone(),
                );
                let explained = action.explain(&ds, &map);
                let expected: std::result::Result<Vec<Value>, _> = ds
                    .items()
                    .iter()
                    .map(|it| expr.eval(&reference_env(&iq, &map, it)))
                    .collect();
                let (explained, expected) = match (explained, expected) {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(_), Err(_)) => continue,
                    (a, b) => panic!("{condition}: {a:?} vs {b:?}"),
                };
                for (explanation, value) in explained.iter().zip(&expected) {
                    let want = match value {
                        Value::Bool(true) => ConditionOutcome::Accepted,
                        Value::Null => ConditionOutcome::Unknown,
                        _ => ConditionOutcome::Rejected,
                    };
                    prop_assert_eq!(explanation.outcomes[0].1, want, "{}", condition);
                }
                let accepted: Vec<Term> = explained
                    .iter()
                    .filter(|e| e.outcomes[0].1 == ConditionOutcome::Accepted)
                    .map(|e| e.item.clone())
                    .collect();
                let groups = action.apply(&ds, &map).unwrap();
                prop_assert_eq!(groups[0].dataset.items(), accepted.as_slice());
            }
        }
    }
}
