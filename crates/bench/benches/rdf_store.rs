//! E3 — annotation-store lookup performance (paper §5: "the use of SPARQL
//! makes it simple to swap the underlying storage mechanism … should
//! performance become a concern").
//!
//! Measures the `(data item, evidence type)` enrichment lookup against
//! repository size, comparing the paper-faithful SPARQL path with the
//! direct index walk, plus a full-store SPARQL scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qurator_annotations::{AnnotationMap, AnnotationRepository};
use qurator_ontology::IqModel;
use qurator_rdf::namespace::q;
use qurator_rdf::term::Term;
use std::hint::black_box;
use std::sync::Arc;

fn item(n: usize) -> Term {
    Term::iri(format!("urn:lsid:bench:hit:{n}"))
}

fn populated_repo(items: usize) -> AnnotationRepository {
    let iq = Arc::new(IqModel::with_proteomics_extension().expect("iq"));
    let repo = AnnotationRepository::new("bench", true, iq);
    for index in 0..items {
        repo.annotate(&item(index), &q::iri("HitRatio"), (index as f64 * 1e-4).into())
            .expect("evidence");
        repo.annotate(&item(index), &q::iri("MassCoverage"), (index as f64 * 1e-2).into())
            .expect("evidence");
    }
    repo
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("enrichment_lookup");
    for &items in &[100usize, 1_000, 10_000] {
        let repo = populated_repo(items);
        let probe = item(items / 2);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("sparql", items), &items, |b, _| {
            b.iter(|| {
                black_box(
                    repo.lookup_sparql(black_box(&probe), &q::iri("HitRatio")).expect("lookup"),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("direct", items), &items, |b, _| {
            b.iter(|| black_box(repo.lookup_direct(black_box(&probe), &q::iri("HitRatio"))))
        });
    }
    group.finish();
}

fn bench_bulk_enrich(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_enrich");
    group.sample_size(20);
    for &items in &[100usize, 1_000] {
        let types = [q::iri("HitRatio"), q::iri("MassCoverage")];
        let all: Vec<Term> = (0..items).map(item).collect();
        let sparql = populated_repo(items);
        group.throughput(Throughput::Elements(items as u64));
        group.bench_with_input(BenchmarkId::new("sparql", items), &items, |b, _| {
            b.iter(|| black_box(sparql.enrich(&all, &types).expect("enrich")))
        });
        // the same per-pair composition as `enrich`, over the index walk
        let direct = populated_repo(items);
        group.bench_with_input(BenchmarkId::new("direct", items), &items, |b, _| {
            b.iter(|| {
                let mut map = AnnotationMap::for_items(all.iter().cloned());
                for it in &all {
                    for evidence_type in &types {
                        let value = direct.lookup_direct(it, evidence_type);
                        if !value.is_null() {
                            map.set_evidence(it, evidence_type.clone(), value);
                        }
                    }
                }
                black_box(map)
            })
        });
    }
    group.finish();
}

fn bench_full_scan(c: &mut Criterion) {
    let repo = populated_repo(5_000);
    let mut group = c.benchmark_group("store_scan");
    group.sample_size(20);
    group.bench_function("sparql_all_hitratio_values", |b| {
        b.iter(|| {
            black_box(
                repo.query(
                    "PREFIX q: <http://qurator.org/iq#> \
                     SELECT ?s ?v WHERE { ?s q:contains-evidence ?e . ?e a q:HitRatio ; q:value ?v . }",
                )
                .expect("query"),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(15);
    targets = bench_lookup, bench_bulk_enrich, bench_full_scan
}
criterion_main!(benches);
