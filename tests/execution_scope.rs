//! The execution scope of §4: a view's cache repository holds one
//! execution's annotations. Concurrent runs on one engine do not see each
//! other's evidence, and a long series of runs leaves nothing behind in
//! the engine's catalog.

use qurator::prelude::*;
use qurator::spec::{AssertionDecl, TagKind, VarDecl};
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;
use std::sync::{Arc, Barrier};

fn item(n: u32) -> Term {
    Term::iri(format!("urn:lsid:uniprot.org:uniprot:P{n:05}"))
}

/// Imprint-shaped rows for `ids`; `salt` varies the evidence, so an id
/// shared by two runs carries different values in each.
fn dataset(ids: impl IntoIterator<Item = u32>, salt: u32) -> DataSet {
    let mut ds = DataSet::new();
    for id in ids {
        let k = (id * 37 + salt * 11) % 100;
        ds.push(
            item(id),
            [
                ("hitRatio", EvidenceValue::from(k as f64 / 100.0)),
                ("massCoverage", EvidenceValue::from(k as f64 * 0.6)),
                ("peptidesCount", EvidenceValue::from((k / 5) as i64)),
            ],
        );
    }
    ds
}

/// The §5.1 view with a filter that keeps about half of these rows.
fn view() -> QualityViewSpec {
    let mut spec = QualityViewSpec::paper_example();
    spec.actions[0].kind =
        ActionKind::Filter { condition: "ScoreClass in q:high, q:mid and HR_MC > 0".into() };
    spec
}

/// (catalog triples, catalog terms) summed over every registered
/// repository.
fn catalog_resident(engine: &QualityEngine) -> (usize, usize) {
    let catalog = engine.catalog();
    catalog
        .names()
        .iter()
        .filter_map(|name| catalog.get(name))
        .fold((0, 0), |(t, d), repo| (t + repo.triple_count(), d + repo.term_count()))
}

#[test]
fn concurrent_runs_equal_their_solo_runs() {
    const THREADS: u32 = 6;
    let spec = view();
    // threads 0–2 take disjoint id ranges; threads 3–5 reuse the same
    // ids as 0–2 with different evidence
    let inputs: Vec<DataSet> =
        (0..THREADS).map(|t| dataset((t % 3) * 40..(t % 3) * 40 + 40, t)).collect();
    let solo: Vec<ActionOutcome> = inputs
        .iter()
        .map(|ds| {
            let fresh = QualityEngine::with_proteomics_defaults().expect("engine");
            fresh.execute_view(&spec, ds).expect("solo run")
        })
        .collect();
    assert!(solo.iter().any(|o| !o.groups[0].dataset.is_empty()), "some items are accepted");
    assert_ne!(solo[0], solo[3], "overlapping ids carry different evidence");

    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    let start = Barrier::new(THREADS as usize);
    for round in 0..5 {
        let outcomes: Vec<ActionOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|ds| {
                    let (engine, spec, start) = (&engine, &spec, &start);
                    scope.spawn(move || {
                        start.wait();
                        engine.execute_view(spec, ds).expect("concurrent run")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("run thread")).collect()
        });
        for (t, (outcome, expected)) in outcomes.iter().zip(&solo).enumerate() {
            assert_eq!(outcome, expected, "round {round}, thread {t}");
        }
    }
    assert!(engine.catalog().names().is_empty());
}

#[test]
fn a_thousand_runs_leave_the_catalog_flat() {
    let engine = QualityEngine::with_proteomics_defaults().expect("engine");
    // a host-owned persistent repository, read by every tenth run
    let uniprot = engine.catalog().create("uniprot", true).expect("create");
    for i in 0..20u32 {
        uniprot.annotate(&item(i), &q::iri("HitRatio"), (i as f64).into()).expect("annotate");
    }
    let mut warm = QualityViewSpec::new("warm");
    warm.assertions.push(AssertionDecl {
        service_name: "score".into(),
        service_type: "q:UniversalPIScore".into(),
        tag_name: "S".into(),
        tag_kind: TagKind::Score,
        tag_sem_type: None,
        repository_ref: "uniprot".into(),
        variables: vec![VarDecl::named("hitratio", "q:HitRatio")],
    });
    warm.actions.push(ActionDecl {
        name: "keep".into(),
        kind: ActionKind::Filter { condition: "S > 0".into() },
    });
    let spec = view();
    let warm_items = DataSet::from_items((0..20).map(item));

    let mut baseline = None;
    for run in 0..1_000u32 {
        // fresh ids every run, as a server sees them
        engine.execute_view(&spec, &dataset(run * 10..run * 10 + 10, run)).expect("run");
        if run % 10 == 0 {
            let kept = engine.execute_view(&warm, &warm_items).expect("warm run");
            assert_eq!(kept.groups[0].dataset.len(), 10, "run {run}");
        }
        let resident = catalog_resident(&engine);
        assert_eq!(*baseline.get_or_insert(resident), resident, "run {run}");
    }
    assert_eq!(engine.catalog().names(), vec!["uniprot".to_string()]);
    assert_eq!(Arc::strong_count(&uniprot), 2, "held by the test and the catalog only");
}
