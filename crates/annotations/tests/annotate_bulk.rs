//! `AnnotationRepository::annotate_bulk` against sequential single-value
//! `annotate` calls, on both storage backends: the same triples (same
//! blank labels, same intern order), the same `annotations.write.count`
//! delta, and all-or-nothing rejection.

use proptest::prelude::*;
use qurator_annotations::{AnnotationError, AnnotationRepository, EvidenceValue};
use qurator_ontology::IqModel;
use qurator_rdf::namespace::q;
use qurator_rdf::storage::test_support::TempDir;
use qurator_rdf::term::{Iri, Term};
use std::sync::Arc;
use std::sync::Mutex;

/// The write counter is process-global: tests that read its delta run one
/// at a time.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn write_count() -> u64 {
    qurator_telemetry::metrics().counter("annotations.write.count").value()
}

fn iq() -> Arc<IqModel> {
    Arc::new(IqModel::with_proteomics_extension().unwrap())
}

fn item(n: u32) -> Term {
    Term::iri(format!("urn:lsid:uniprot.org:uniprot:P{n:05}"))
}

/// One memory-backed and one disk-backed repository, both named `name`
/// (blank labels carry the name); the guard keeps the disk directory.
fn repositories(name: &str, tag: &str) -> (Vec<AnnotationRepository>, TempDir) {
    let dir = TempDir::new(tag);
    let memory = AnnotationRepository::new(name, false, iq());
    let disk = AnnotationRepository::open_disk(name, true, iq(), dir.path()).unwrap();
    (vec![memory, disk], dir)
}

type Write = (Term, Iri, EvidenceValue);

/// Applies `writes` one `annotate` call at a time to the first repository
/// and as one `annotate_bulk` call to the second, then checks they agree.
fn assert_bulk_matches_sequential(
    sequential: &AnnotationRepository,
    bulk: &AnnotationRepository,
    writes: &[Write],
) {
    let before = write_count();
    for (item, evidence_type, value) in writes {
        sequential.annotate(item, evidence_type, value.clone()).unwrap();
    }
    let sequential_delta = write_count() - before;

    let before = write_count();
    let stored = bulk
        .annotate_bulk(writes.iter().map(|(item, etype, value)| (item, etype, value.clone())))
        .unwrap();
    let bulk_delta = write_count() - before;

    assert_eq!(bulk_delta, sequential_delta, "annotations.write.count delta");
    assert_eq!(stored as u64, bulk_delta, "returned count");
    assert_eq!(bulk.triple_count(), sequential.triple_count());
    assert_eq!(bulk.term_count(), sequential.term_count(), "intern order");
    // Same triples in the same id order, so also the same blank labels.
    assert_eq!(bulk.export_turtle(), sequential.export_turtle());
}

fn number(n: f64) -> EvidenceValue {
    EvidenceValue::Number(n)
}

fn covering_writes() -> Vec<Write> {
    let (hr, mc, pc) = (q::iri("HitRatio"), q::iri("MassCoverage"), q::iri("PeptidesCount"));
    vec![
        (item(1), hr.clone(), number(0.5)),
        (item(1), mc.clone(), number(31.0)),
        // replaces the node written two rows up, in the same call
        (item(1), hr.clone(), number(0.9)),
        (item(2), hr.clone(), EvidenceValue::Null), // skipped
        (item(2), pc.clone(), number(7.0)),
        (item(3), hr.clone(), number(0.1)),
        // item 1 again after another item: a second run for the same item
        (item(1), pc.clone(), number(3.0)),
        (item(1), mc, EvidenceValue::Null), // a null never removes a value
        (item(4), pc, EvidenceValue::Text("many".into())),
    ]
}

#[test]
fn bulk_writes_equal_sequential_writes_on_both_backends() {
    let _serial = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (sequential, _a) = repositories("cache", "bulk-seq");
    let (bulk, _b) = repositories("cache", "bulk-bulk");
    for (sequential, bulk) in sequential.iter().zip(&bulk) {
        // an earlier call's nodes are replaced too
        let seed = vec![
            (item(3), q::iri("HitRatio"), number(0.3)),
            (item(5), q::iri("HitRatio"), number(0.6)),
        ];
        assert_bulk_matches_sequential(sequential, bulk, &seed);
        assert_bulk_matches_sequential(sequential, bulk, &covering_writes());
        assert_eq!(
            bulk.lookup(&item(1), &q::iri("HitRatio")).unwrap(),
            number(0.9),
            "latest value wins ({})",
            bulk.backend_name()
        );
        assert_eq!(bulk.lookup(&item(1), &q::iri("MassCoverage")).unwrap(), number(31.0));
        assert_eq!(bulk.lookup(&item(3), &q::iri("HitRatio")).unwrap(), number(0.1));
        assert_eq!(bulk.lookup(&item(2), &q::iri("HitRatio")).unwrap(), EvidenceValue::Null);
        // an all-null batch writes nothing and counts nothing
        assert_bulk_matches_sequential(
            sequential,
            bulk,
            &[(item(9), q::iri("HitRatio"), EvidenceValue::Null)],
        );
    }
}

#[test]
fn a_bad_write_rejects_the_whole_batch() {
    let _serial = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (repos, _dir) = repositories("cache", "bulk-reject");
    for repo in &repos {
        repo.annotate(&item(1), &q::iri("HitRatio"), number(0.2)).unwrap();
        let triples = repo.triple_count();
        let turtle = repo.export_turtle();
        let before = write_count();
        let not_evidence = [
            (item(2), q::iri("HitRatio"), number(0.5)),
            (item(1), q::iri("HitRatio"), number(0.7)),
            (item(3), q::iri("UniversalPIScore2"), EvidenceValue::Null),
        ];
        let err =
            repo.annotate_bulk(not_evidence.iter().map(|(i, t, v)| (i, t, v.clone()))).unwrap_err();
        assert!(matches!(err, AnnotationError::NotEvidence(_)), "{err}");
        let literal_item = Term::string("not a resource");
        let err = repo
            .annotate_bulk([
                (&item(2), &q::iri("HitRatio"), number(0.5)),
                (&literal_item, &q::iri("HitRatio"), number(0.5)),
            ])
            .unwrap_err();
        assert!(matches!(err, AnnotationError::Rdf(_)), "{err}");
        assert_eq!(write_count(), before, "nothing counted ({})", repo.backend_name());
        assert_eq!(repo.triple_count(), triples, "nothing written ({})", repo.backend_name());
        assert_eq!(repo.export_turtle(), turtle);
        // nor was a blank label spent: the next node is e1
        repo.annotate(&item(2), &q::iri("HitRatio"), number(0.5)).unwrap();
        assert!(repo.export_turtle().contains("cache-e1"), "{}", repo.export_turtle());
    }
}

#[test]
fn disk_store_reopened_after_a_bulk_write_mints_fresh_labels() {
    let _serial = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = TempDir::new("bulk-reopen");
    let writes: Vec<Write> =
        (0..20).map(|i| (item(i), q::iri("HitRatio"), number(i as f64))).collect();
    {
        let repo = AnnotationRepository::open_disk("archive", true, iq(), dir.path()).unwrap();
        repo.annotate_bulk(writes.iter().map(|(i, t, v)| (i, t, v.clone()))).unwrap();
        repo.flush().unwrap();
    }
    let repo = AnnotationRepository::open_disk("archive", true, iq(), dir.path()).unwrap();
    assert_eq!(repo.triple_count(), 60);
    // new items and one replacement, in one call
    let more = [
        (item(100), q::iri("HitRatio"), number(0.25)),
        (item(3), q::iri("HitRatio"), number(0.75)),
    ];
    assert_eq!(repo.annotate_bulk(more.iter().map(|(i, t, v)| (i, t, v.clone()))).unwrap(), 2);
    assert_eq!(repo.triple_count(), 63, "one new node; the replacement nets zero");
    for i in (0..20).filter(|&i| i != 3) {
        assert_eq!(repo.lookup(&item(i), &q::iri("HitRatio")).unwrap(), number(i as f64));
    }
    assert_eq!(repo.lookup(&item(3), &q::iri("HitRatio")).unwrap(), number(0.75));
    assert_eq!(repo.lookup(&item(100), &q::iri("HitRatio")).unwrap(), number(0.25));
    let turtle = repo.export_turtle();
    assert!(turtle.contains("archive-e20") && turtle.contains("archive-e21"), "{turtle}");
}

const TYPES: [&str; 3] = ["HitRatio", "MassCoverage", "PeptidesCount"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Any write sequence, cut into any batches, leaves the store sequential
    /// writes leave — on both backends.
    #[test]
    fn batched_writes_equal_sequential_writes(
        writes in proptest::collection::vec((0u32..6, 0usize..3, proptest::option::of(-5i32..5)), 0..40),
        cuts in proptest::collection::vec(0usize..40, 0..4),
    ) {
        let _serial = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let writes: Vec<Write> = writes
            .iter()
            .map(|&(i, t, v)| (item(i), q::iri(TYPES[t]), v.map_or(EvidenceValue::Null, |v| number(v as f64))))
            .collect();
        let mut bounds: Vec<usize> = cuts.into_iter().filter(|&c| c < writes.len()).collect();
        bounds.push(0);
        bounds.push(writes.len());
        bounds.sort_unstable();
        bounds.dedup();
        let (sequential, _a) = repositories("r", "bulk-prop-seq");
        let (bulk, _b) = repositories("r", "bulk-prop-bulk");
        for (sequential, bulk) in sequential.iter().zip(&bulk) {
            for batch in bounds.windows(2) {
                assert_bulk_matches_sequential(sequential, bulk, &writes[batch[0]..batch[1]]);
            }
        }
    }
}
