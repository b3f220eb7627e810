//! Engine-level backend equivalence: the same quality view over the same
//! randomized datasets must behave identically whether the persistent
//! repository is the in-memory store or the on-disk store — same group
//! outcomes, same `why(item)` decision ledgers, same SPARQL answers from
//! the annotation graph. The id-stability invariant on
//! `qurator_rdf::storage::Storage` is what makes this hold: both
//! backends assign term ids in intern order, so first-wins enrichment
//! and query iteration order agree bit-for-bit.

use qurator::prelude::*;
use qurator_plan::PlanConfig;
use qurator_rdf::storage::test_support::TempDir;
use qurator_rdf::term::Term;
use qurator_telemetry::RunId;

const VIEW: &str = r#"
<QualityView name="equiv">
  <Annotator serviceName="imprint" serviceType="q:ImprintOutputAnnotation">
    <variables repositoryRef="archive" persistent="true">
      <var evidence="q:HitRatio"/>
      <var evidence="q:MassCoverage"/>
      <var evidence="q:PeptidesCount"/>
    </variables>
  </Annotator>
  <QualityAssertion serviceName="score" serviceType="q:UniversalPIScore2"
                    tagName="HR_MC" tagSynType="q:score">
    <variables repositoryRef="archive">
      <var variableName="coverage" evidence="q:MassCoverage"/>
      <var variableName="hitratio" evidence="q:HitRatio"/>
      <var variableName="peptidescount" evidence="q:PeptidesCount"/>
    </variables>
  </QualityAssertion>
  <action name="keep">
    <filter><condition>HR_MC &gt; 0</condition></filter>
  </action>
</QualityView>"#;

/// Deterministic splitmix-style generator: the datasets must be the same
/// on every run and for both backends.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A randomized dataset: numeric evidence with occasional missing fields
/// (a dropped field exercises null-evidence handling in both backends).
fn random_dataset(mut seed: u64, rows: usize) -> DataSet {
    let mut ds = DataSet::new();
    for i in 0..rows {
        let item = Term::iri(format!("urn:lsid:t:equiv:{seed:x}:{i}"));
        let mut fields: Vec<(String, EvidenceValue)> = Vec::new();
        if !next(&mut seed).is_multiple_of(8) {
            let hr = (next(&mut seed) % 1000) as f64 / 1000.0;
            fields.push(("hitRatio".into(), hr.into()));
        }
        if !next(&mut seed).is_multiple_of(8) {
            fields.push(("massCoverage".into(), ((next(&mut seed) % 60) as f64).into()));
        }
        if !next(&mut seed).is_multiple_of(8) {
            fields.push(("peptidesCount".into(), ((next(&mut seed) % 20) as f64).into()));
        }
        ds.push(item, fields);
    }
    ds
}

/// Renders one execution's observable behavior: group membership + tags,
/// and every item's `why(item)` ledger (span ids excluded — they are
/// process-order artifacts, not behavior).
fn observe(engine: &QualityEngine, spec: &QualityViewSpec, dataset: &DataSet, run: u64) -> String {
    let outcome = engine
        .execute_interpreted(spec, dataset, &PlanConfig::default(), RunId::from_u64(run))
        .expect("execute");
    let mut out = String::new();
    for group in &outcome.groups {
        out.push_str(&format!("group {}\n", group.name));
        for item in group.dataset.items() {
            let tags: Vec<String> = group
                .map
                .item(item)
                .map(|row| row.tag_entries().map(|(t, v)| format!("{t}={v}")).collect())
                .unwrap_or_default();
            out.push_str(&format!("  {item} [{}]\n", tags.join(", ")));
        }
    }
    // Only this dataset's items: the ledger itself is engine state and
    // (correctly) remembers earlier rounds on the engine that never
    // restarted.
    for item in dataset.items() {
        let key = item.to_string();
        let key = key.trim_start_matches('<').trim_end_matches('>');
        if let Some(trace) = engine.why(key) {
            out.push_str(&trace.render_with(None));
        }
    }
    out
}

/// The annotation graph's answers, via the repository's SPARQL surface.
fn archive_answers(engine: &QualityEngine) -> Vec<qurator_rdf::sparql::Row> {
    let repo = engine.catalog().require("archive").expect("archive repository");
    repo.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }").expect("query archive")
}

#[test]
fn memory_and_disk_backends_are_observably_identical() {
    let spec = qurator::xmlio::parse_quality_view(VIEW).unwrap();
    for seed in [1u64, 0xDECAF, 0xFEED_BEEF] {
        let tmp = TempDir::new(&format!("equiv-{seed}"));
        let datasets: Vec<DataSet> = (0..3).map(|round| random_dataset(seed ^ round, 12)).collect();

        let memory = QualityEngine::with_proteomics_defaults().unwrap();
        memory.set_provenance_enabled(true);
        let disk = QualityEngine::with_proteomics_defaults().unwrap();
        disk.set_store_root(tmp.path()).unwrap();
        disk.set_provenance_enabled(true);

        // Several rounds against the same persistent repository: later
        // rounds re-enrich from annotations the earlier rounds stored,
        // which is exactly where a backend divergence would surface.
        for (round, dataset) in datasets.iter().enumerate() {
            let seen_by_memory = observe(&memory, &spec, dataset, round as u64);
            let seen_by_disk = observe(&disk, &spec, dataset, round as u64);
            assert_eq!(
                seen_by_memory, seen_by_disk,
                "seed {seed:#x} round {round}: backends diverged"
            );
            assert!(seen_by_memory.contains("group keep"), "{seen_by_memory}");
            // Guard against the ledger comparison passing vacuously.
            assert!(seen_by_memory.contains("evidence:"), "no ledgers rendered:\n{seen_by_memory}");
        }
        assert_eq!(
            archive_answers(&memory),
            archive_answers(&disk),
            "seed {seed:#x}: SPARQL answers diverged"
        );

        // Restarting the disk engine must not change the answers either:
        // reopen the store root in a fresh engine and compare again.
        let memory_answers = archive_answers(&memory);
        disk.flush_stores().unwrap();
        drop(disk);
        let reopened = QualityEngine::with_proteomics_defaults().unwrap();
        assert_eq!(reopened.set_store_root(tmp.path()).unwrap(), vec!["archive".to_string()]);
        assert_eq!(
            memory_answers,
            archive_answers(&reopened),
            "seed {seed:#x}: restart changed the SPARQL answers"
        );

        // And one more round after the restart, against the memory engine
        // that never restarted.
        reopened.set_provenance_enabled(true);
        let dataset = random_dataset(seed ^ 99, 12);
        assert_eq!(
            observe(&memory, &spec, &dataset, 99),
            observe(&reopened, &spec, &dataset, 99),
            "seed {seed:#x}: post-restart round diverged"
        );
    }
}
