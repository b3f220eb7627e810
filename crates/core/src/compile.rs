//! The quality-view compiler (§6.1).
//!
//! Compilation rules, as stated in the paper:
//!
//! 1. annotators are added first; their inputs are initially unbound and
//!    they only write to repositories;
//! 2. the compiler determines the association between each evidence type
//!    and the repository holding its value, and adds **one single** Data
//!    Enrichment operator configured with that association; a control link
//!    runs from each annotator to the DE;
//! 3. the DE output (an annotation map) feeds all QA processors through
//!    their common interface;
//! 4. a `ConsolidateAssertions` task merges the assertions into a
//!    consistent view;
//! 5. action processors are added last, fed by the consolidated map; their
//!    output ports become the workflow outputs bound back to the embedding
//!    workflow at deployment time.
//!
//! One extension beyond the paper's sketch: QAs may reference tags of
//! earlier QAs (`tag:HR_MC` — the §5.1 classifier consumes the score QA's
//! output). Such QAs are chained behind their producers; when a QA needs
//! tags from several producers, a dedicated consolidation node merges them
//! first.
//!
//! Since the plan-IR refactor this module is a thin façade: the spec →
//! plan lowering lives in [`crate::planner`], the plan → operator binding
//! and workflow wiring in [`crate::exec`]. `compile` here is the
//! composition of the two, kept as the stable entry point (its structural
//! tests below double as the Figure 6 contract for the whole pipeline).

use crate::validate::ValidatedView;
use crate::{exec, planner, Result};
use qurator_annotations::RepositoryCatalog;
use qurator_ontology::IqModel;
use qurator_plan::PlanConfig;
use qurator_services::ServiceRegistry;
use qurator_workflow::Workflow;
use std::sync::Arc;

/// Node name of the single Data-Enrichment operator.
pub const DATA_ENRICHMENT: &str = qurator_plan::ENRICH_NODE;
/// Node name of the final consolidation task.
pub const CONSOLIDATE: &str = qurator_plan::CONSOLIDATE_NODE;
/// Name of the workflow input carrying the data set.
pub const DATASET_INPUT: &str = exec::DATASET_INPUT;

/// Compiles a validated view into an executable workflow (optimizing
/// passes on).
pub fn compile(
    view: &ValidatedView,
    iq: &Arc<IqModel>,
    registry: &ServiceRegistry,
    catalog: &RepositoryCatalog,
) -> Result<Workflow> {
    let plan = planner::physical_plan(view, iq, &PlanConfig::default())?;
    exec::bind(&plan, iq, registry, catalog)?.into_workflow(&plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ActionKind, QualityViewSpec};
    use crate::validate::validate;
    use qurator_rdf::namespace::q;
    use qurator_services::stdlib::{
        FieldCaptureAnnotator, StatClassifierAssertion, ZScoreAssertion,
    };

    fn setup() -> (Arc<IqModel>, ServiceRegistry, RepositoryCatalog) {
        let iq = Arc::new(IqModel::with_proteomics_extension().unwrap());
        let registry = ServiceRegistry::new();
        registry
            .register_annotator(Arc::new(FieldCaptureAnnotator::new(
                q::iri("ImprintOutputAnnotation"),
                &[
                    ("hitRatio", q::iri("HitRatio")),
                    ("massCoverage", q::iri("MassCoverage")),
                    ("peptidesCount", q::iri("PeptidesCount")),
                ],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(ZScoreAssertion::new(
                q::iri("UniversalPIScore2"),
                &["coverage", "hitratio", "peptidescount"],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(ZScoreAssertion::new(
                q::iri("UniversalPIScore"),
                &["hitratio"],
            )))
            .unwrap();
        registry
            .register_assertion(Arc::new(StatClassifierAssertion::new(
                q::iri("PIScoreClassifier"),
                "score",
                q::iri("PIScoreClassification"),
                (q::iri("low"), q::iri("mid"), q::iri("high")),
            )))
            .unwrap();
        let catalog = RepositoryCatalog::new(iq.clone());
        (iq, registry, catalog)
    }

    #[test]
    fn paper_view_compiles_with_figure6_structure() {
        let (iq, registry, catalog) = setup();
        let view = validate(&QualityViewSpec::paper_example(), &iq, &registry).unwrap();
        let wf = compile(&view, &iq, &registry, &catalog).unwrap();

        // nodes: 1 annotator + DE + 3 QAs + consolidate + 1 action
        assert_eq!(wf.len(), 7);
        assert!(wf.nodes().any(|n| n == "ImprintOutputAnnotator"));
        assert!(wf.nodes().any(|n| n == DATA_ENRICHMENT));
        assert!(wf.nodes().any(|n| n == CONSOLIDATE));

        // control link annotator -> DE (rule 2)
        assert!(wf
            .control_links()
            .iter()
            .any(|(a, b)| a == "ImprintOutputAnnotator" && b == DATA_ENRICHMENT));

        // DE feeds the two score QAs, the classifier chains behind HR_MC
        let de_feeds: Vec<&str> = wf
            .data_links()
            .iter()
            .filter(|l| l.from.processor == DATA_ENRICHMENT)
            .map(|l| l.to.processor.as_str())
            .collect();
        assert!(de_feeds.contains(&"HR_MC_score"));
        assert!(de_feeds.contains(&"HR_score"));
        assert!(!de_feeds.contains(&"PIScoreClassifier"));
        assert!(wf
            .data_links()
            .iter()
            .any(|l| l.from.processor == "HR_MC_score" && l.to.processor == "PIScoreClassifier"));

        // every QA feeds the consolidator, which feeds the action
        for qa in ["HR_MC_score", "HR_score", "PIScoreClassifier"] {
            assert!(wf
                .data_links()
                .iter()
                .any(|l| l.from.processor == qa && l.to.processor == CONSOLIDATE));
        }
        assert!(wf
            .data_links()
            .iter()
            .any(|l| l.from.processor == CONSOLIDATE && l.to.processor == "filter top k score"));

        // outputs: one group for the filter
        let outputs: Vec<&str> = wf.outputs().map(|(n, _)| n).collect();
        assert_eq!(outputs, vec!["filter top k score"]);

        // the view's cache is minted for this workflow, not registered
        assert!(catalog.get("cache").is_none());
        assert!(catalog.names().is_empty());
    }

    #[test]
    fn multi_tag_dependency_gets_a_merge_node() {
        let (mut_iq, registry, catalog) = setup();
        let mut iq = (*mut_iq).clone();
        iq.register_assertion_type("Combiner").unwrap();
        let iq = Arc::new(iq);
        registry
            .register_assertion(Arc::new(ZScoreAssertion::new(q::iri("Combiner"), &["a", "b"])))
            .unwrap();

        let mut spec = QualityViewSpec::paper_example();
        spec.assertions.push(crate::spec::AssertionDecl {
            service_name: "combined".into(),
            service_type: "q:Combiner".into(),
            tag_name: "COMBO".into(),
            tag_kind: crate::spec::TagKind::Score,
            tag_sem_type: None,
            repository_ref: "cache".into(),
            variables: vec![
                crate::spec::VarDecl::named("a", "tag:HR_MC"),
                crate::spec::VarDecl::named("b", "tag:HR"),
            ],
        });
        let view = validate(&spec, &iq, &registry).unwrap();
        let wf = compile(&view, &iq, &registry, &catalog).unwrap();
        assert!(wf.nodes().any(|n| n == "consolidate-for-combined"));
        assert!(wf.data_links().iter().any(
            |l| l.from.processor == "consolidate-for-combined" && l.to.processor == "combined"
        ));
    }

    #[test]
    fn splitter_outputs_one_port_per_group_plus_default() {
        let (iq, registry, catalog) = setup();
        let mut spec = QualityViewSpec::paper_example();
        spec.actions[0].kind = ActionKind::Split {
            groups: vec![
                ("strong".into(), "ScoreClass in q:high".into()),
                ("weak".into(), "ScoreClass in q:low".into()),
            ],
        };
        let view = validate(&spec, &iq, &registry).unwrap();
        let wf = compile(&view, &iq, &registry, &catalog).unwrap();
        let mut outputs: Vec<&str> = wf.outputs().map(|(n, _)| n).collect();
        outputs.sort();
        assert_eq!(
            outputs,
            vec![
                "filter top k score/default",
                "filter top k score/strong",
                "filter top k score/weak"
            ]
        );
    }

    #[test]
    fn view_without_assertions_compiles() {
        let (iq, registry, catalog) = setup();
        let mut spec = QualityViewSpec::new("raw");
        spec.actions.push(crate::spec::ActionDecl {
            name: "keep".into(),
            kind: ActionKind::Filter { condition: "HitRatio > 0.5".into() },
        });
        let view = validate(&spec, &iq, &registry).unwrap();
        let wf = compile(&view, &iq, &registry, &catalog).unwrap();
        // DE -> consolidate -> action
        assert_eq!(wf.len(), 3);
    }
}
