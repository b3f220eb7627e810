//! Persistence integration: Turtle round-trips of annotation
//! repositories, persistent repositories against per-execution caches,
//! and the warm-store execution path (§4's persistent-annotation
//! scenario).

use qurator::prelude::*;
use qurator::spec::{ActionDecl, ActionKind, AssertionDecl, TagKind, VarDecl};
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;
use std::sync::Arc;

fn item(n: u32) -> Term {
    Term::iri(format!("urn:lsid:uniprot.org:uniprot:P{n:05}"))
}

/// A view with no annotators: all evidence must come from the repository.
fn enrichment_only_view(repo: &str) -> QualityViewSpec {
    let mut spec = QualityViewSpec::new("warm");
    spec.assertions.push(AssertionDecl {
        service_name: "score".into(),
        service_type: "q:UniversalPIScore".into(),
        tag_name: "S".into(),
        tag_kind: TagKind::Score,
        tag_sem_type: None,
        repository_ref: repo.into(),
        variables: vec![VarDecl::named("hitratio", "q:HitRatio")],
    });
    spec.actions.push(ActionDecl {
        name: "keep".into(),
        kind: ActionKind::Filter { condition: "S > 0".into() },
    });
    spec
}

#[test]
fn turtle_snapshot_restores_execution_behaviour() {
    // engine A: populate a persistent repository and run
    let engine_a = QualityEngine::with_proteomics_defaults().expect("engine");
    let uniprot_a = engine_a.catalog().create("uniprot", true).expect("create");
    for i in 0..20u32 {
        uniprot_a
            .annotate(&item(i), &q::iri("HitRatio"), (i as f64 / 20.0).into())
            .expect("annotate");
    }
    let dataset = DataSet::from_items((0..20).map(item));
    let view = enrichment_only_view("uniprot");
    let outcome_a = engine_a.execute_view(&view, &dataset).expect("runs");

    // snapshot → engine B
    let turtle = uniprot_a.export_turtle();
    let engine_b = QualityEngine::with_proteomics_defaults().expect("engine");
    let uniprot_b = engine_b.catalog().create("uniprot", true).expect("create");
    uniprot_b.import_turtle(&turtle).expect("import");
    let outcome_b = engine_b.execute_view(&view, &dataset).expect("runs");

    assert_eq!(outcome_a, outcome_b);
    assert_eq!(uniprot_a.triple_count(), uniprot_b.triple_count());
}

#[test]
fn minted_caches_isolate_executions() {
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind = ActionKind::Filter { condition: "HR_MC > 0".into() };
    let group = spec.actions[0].name.clone();
    let mut with_evidence = DataSet::new();
    for i in 0..5u32 {
        with_evidence.push(
            item(i),
            [
                ("hitRatio", EvidenceValue::from(0.2 * i as f64)),
                ("massCoverage", EvidenceValue::from(8.0 * i as f64)),
                ("peptidesCount", EvidenceValue::from(i as i64)),
            ],
        );
    }
    let first = engine.execute_view(&spec, &with_evidence).expect("runs");
    assert!(!first.group(&group).expect("group").dataset.is_empty(), "annotated items accepted");
    assert!(engine.catalog().get("cache").is_none(), "the run's cache is not registered");

    // the same ids without evidence: nothing the first run annotated is
    // visible, so nothing is accepted (as on a fresh engine)
    let second = engine.execute_view(&spec, &DataSet::from_items((0..5).map(item))).expect("runs");
    assert!(second.group(&group).expect("group").dataset.is_empty());
    assert!(engine.catalog().names().is_empty());
}

#[test]
fn persistent_repositories_survive_across_executions() {
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let uniprot = engine.catalog().create("uniprot", true).expect("create");
    for i in 0..4u32 {
        uniprot.annotate(&item(i), &q::iri("HitRatio"), (i as f64).into()).expect("annotate");
    }
    let view = enrichment_only_view("uniprot");
    let dataset = DataSet::from_items((0..4).map(item));
    let first = engine.execute_view(&view, &dataset).expect("runs");
    let second = engine.execute_view(&view, &dataset).expect("runs");
    assert_eq!(first, second, "the persistent evidence is read again");
    assert!(!first.groups[0].dataset.is_empty());
    assert_eq!(uniprot.triple_count(), 12);
    assert_eq!(engine.catalog().names(), vec!["uniprot".to_string()]);
}

#[test]
fn stale_warm_store_yields_nulls_not_errors() {
    // items never annotated: enrichment yields nulls, the score QA tags
    // Null, the filter rejects — no failures anywhere
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    engine.catalog().create("uniprot", true).expect("create");
    let dataset = DataSet::from_items((100..105).map(item));
    let outcome = engine.execute_view(&enrichment_only_view("uniprot"), &dataset).expect("runs");
    assert!(outcome.groups[0].dataset.is_empty());
}

#[test]
fn concurrent_views_share_one_persistent_repository() {
    let engine = Arc::new(QualityEngine::with_proteomics_defaults().expect("engine"));
    let uniprot = engine.catalog().create("uniprot", true).expect("create");
    for i in 0..50u32 {
        uniprot.annotate(&item(i), &q::iri("HitRatio"), (i as f64).into()).expect("annotate");
    }
    let view = enrichment_only_view("uniprot");
    std::thread::scope(|scope| {
        for worker in 0..4u32 {
            let engine = engine.clone();
            let view = view.clone();
            scope.spawn(move || {
                let dataset = DataSet::from_items((worker * 10..worker * 10 + 10).map(item));
                let outcome = engine.execute_view(&view, &dataset).expect("runs");
                assert_eq!(outcome.groups.len(), 1);
            });
        }
    });
}
