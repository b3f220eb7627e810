//! Generic, configurable service implementations — the reusable kernel of
//! the paper's "quality management functionality that is either generic
//! across a range of analysis problems, or … generated automatically from a
//! high-level specification".
//!
//! * [`FieldCaptureAnnotator`] — captures payload fields of a data set as
//!   evidence annotations (the Imprint-output annotator of §5.1 is an
//!   instance: "the evidence is available as part of the Imprint output,
//!   therefore the annotation function simply captures their values");
//! * [`LinearScoreAssertion`] — a weighted linear score over bound
//!   variables;
//! * [`ZScoreAssertion`] — a collection-normalized score: the sum of
//!   per-variable z-scores (a faithful whole-collection decision model,
//!   standing in for the Stead et al. universal PI score);
//! * [`StatClassifierAssertion`] — the §5.1 three-way classifier: labels
//!   from `avg ± k·stddev` thresholds over a score variable;
//! * [`FixedThresholdClassifier`] — the per-item ablation variant with
//!   static thresholds;
//! * [`DelayedAnnotator`] — wraps any annotation service with synthetic
//!   latency (models remote sources such as journal impact-factor tables;
//!   used by the E1 cache ablation).

use crate::message::DataSet;
use crate::service::{AnnotationService, AssertionService, VariableBindings};
use crate::{Result, ServiceError};
use qurator_annotations::{AnnotationMap, AnnotationRepository, EvidenceValue};
use qurator_rdf::term::{Iri, Term};
use std::sync::Arc;
use std::time::Duration;

/// Captures payload fields as evidence annotations.
pub struct FieldCaptureAnnotator {
    service_type: Iri,
    /// `(payload field, evidence type)` pairs.
    captures: Vec<(String, Iri)>,
}

impl FieldCaptureAnnotator {
    /// Builds a capture annotator.
    pub fn new(service_type: Iri, captures: &[(&str, Iri)]) -> Self {
        FieldCaptureAnnotator {
            service_type,
            captures: captures.iter().map(|(f, e)| (f.to_string(), e.clone())).collect(),
        }
    }
}

impl AnnotationService for FieldCaptureAnnotator {
    fn service_type(&self) -> Iri {
        self.service_type.clone()
    }

    fn provides(&self) -> Vec<Iri> {
        self.captures.iter().map(|(_, e)| e.clone()).collect()
    }

    /// One [`AnnotationRepository::annotate_bulk`] call for the whole data
    /// set: per item, its non-null captured fields in capture order.
    fn annotate(&self, data: &DataSet, repository: &AnnotationRepository) -> Result<usize> {
        let mut writes = Vec::with_capacity(data.len() * self.captures.len());
        for item in data.items() {
            let fields: Vec<(&str, &EvidenceValue)> = data.fields(item).collect();
            for (field, evidence_type) in &self.captures {
                if let Some((_, value)) = fields.iter().find(|(name, _)| name == field) {
                    if !value.is_null() {
                        writes.push((item, evidence_type, (*value).clone()));
                    }
                }
            }
        }
        Ok(repository.annotate_bulk(writes)?)
    }
}

/// Per-item numeric resolution of a variable, with null tracking.
fn numeric(
    bindings: &VariableBindings,
    map: &AnnotationMap,
    item: &Term,
    variable: &str,
) -> Option<f64> {
    bindings.value(map, item, variable).as_number()
}

/// A weighted linear score: `tag = bias + Σ wᵢ · varᵢ`; items with any
/// missing variable get a `Null` tag.
pub struct LinearScoreAssertion {
    service_type: Iri,
    weights: Vec<(String, f64)>,
    bias: f64,
}

impl LinearScoreAssertion {
    /// Builds a linear score assertion.
    pub fn new(service_type: Iri, weights: &[(&str, f64)], bias: f64) -> Self {
        LinearScoreAssertion {
            service_type,
            weights: weights.iter().map(|(v, w)| (v.to_string(), *w)).collect(),
            bias,
        }
    }
}

impl AssertionService for LinearScoreAssertion {
    fn service_type(&self) -> Iri {
        self.service_type.clone()
    }

    fn expected_variables(&self) -> Vec<String> {
        self.weights.iter().map(|(v, _)| v.clone()).collect()
    }

    fn assert_quality(
        &self,
        map: &mut AnnotationMap,
        bindings: &VariableBindings,
        tag: &str,
    ) -> Result<()> {
        let items: Vec<Term> = map.items().to_vec();
        for item in items {
            let mut total = self.bias;
            let mut complete = true;
            for (variable, weight) in &self.weights {
                match numeric(bindings, map, &item, variable) {
                    Some(v) => total += weight * v,
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            let value = if complete { EvidenceValue::Number(total) } else { EvidenceValue::Null };
            map.set_tag(&item, tag, value);
        }
        Ok(())
    }
}

/// A collection-normalized score: `tag = Σᵢ (varᵢ − meanᵢ) / stddevᵢ`,
/// where the statistics are computed over the *whole input collection*
/// (paper §2: "QAs are computed on a whole collection of data items,
/// rather than on individual items").
pub struct ZScoreAssertion {
    service_type: Iri,
    variables: Vec<String>,
}

impl ZScoreAssertion {
    /// Builds a z-score assertion over the given variables.
    pub fn new(service_type: Iri, variables: &[&str]) -> Self {
        ZScoreAssertion {
            service_type,
            variables: variables.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl AssertionService for ZScoreAssertion {
    fn service_type(&self) -> Iri {
        self.service_type.clone()
    }

    fn expected_variables(&self) -> Vec<String> {
        self.variables.clone()
    }

    fn assert_quality(
        &self,
        map: &mut AnnotationMap,
        bindings: &VariableBindings,
        tag: &str,
    ) -> Result<()> {
        let items: Vec<Term> = map.items().to_vec();
        // collection statistics per variable
        let mut stats = Vec::with_capacity(self.variables.len());
        for variable in &self.variables {
            let values: Vec<f64> =
                items.iter().filter_map(|item| numeric(bindings, map, item, variable)).collect();
            let (mean, sd, _) =
                qurator_annotations::map::numeric_stats(&values).unwrap_or((0.0, 0.0, 0));
            stats.push((mean, sd));
        }
        for item in items {
            let mut total = 0.0;
            let mut complete = !self.variables.is_empty();
            for (variable, (mean, sd)) in self.variables.iter().zip(&stats) {
                match numeric(bindings, map, &item, variable) {
                    Some(v) => {
                        // constant columns contribute 0 rather than NaN
                        if *sd > 0.0 {
                            total += (v - mean) / sd;
                        }
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            let value = if complete { EvidenceValue::Number(total) } else { EvidenceValue::Null };
            map.set_tag(&item, tag, value);
        }
        Ok(())
    }
}

/// The §5.1 statistical classifier: partitions a numeric variable into
/// enumerated labels using `avg ± k·stddev` thresholds computed over the
/// collection ("the thresholds used for classification are (avg − stddev)
/// and (avg + stddev)", footnote 19).
pub struct StatClassifierAssertion {
    service_type: Iri,
    variable: String,
    classification_model: Iri,
    /// Ordered labels: below, between, above.
    labels: (Iri, Iri, Iri),
    k: f64,
}

impl StatClassifierAssertion {
    /// Builds the classifier with `k = 1` (the paper's thresholds).
    pub fn new(
        service_type: Iri,
        variable: &str,
        classification_model: Iri,
        labels: (Iri, Iri, Iri),
    ) -> Self {
        StatClassifierAssertion {
            service_type,
            variable: variable.to_string(),
            classification_model,
            labels,
            k: 1.0,
        }
    }

    /// Adjusts the threshold width (ablation E2 sweeps this).
    pub fn with_k(mut self, k: f64) -> Self {
        self.k = k;
        self
    }
}

impl AssertionService for StatClassifierAssertion {
    fn service_type(&self) -> Iri {
        self.service_type.clone()
    }

    fn expected_variables(&self) -> Vec<String> {
        vec![self.variable.clone()]
    }

    fn classification_model(&self) -> Option<Iri> {
        Some(self.classification_model.clone())
    }

    fn assert_quality(
        &self,
        map: &mut AnnotationMap,
        bindings: &VariableBindings,
        tag: &str,
    ) -> Result<()> {
        let items: Vec<Term> = map.items().to_vec();
        let values: Vec<f64> =
            items.iter().filter_map(|item| numeric(bindings, map, item, &self.variable)).collect();
        let Some((mean, sd, _)) = qurator_annotations::map::numeric_stats(&values) else {
            // nothing numeric: every tag is null
            for item in items {
                map.set_tag(&item, tag, EvidenceValue::Null);
            }
            return Ok(());
        };
        let low_threshold = mean - self.k * sd;
        let high_threshold = mean + self.k * sd;
        for item in items {
            let value = match numeric(bindings, map, &item, &self.variable) {
                None => EvidenceValue::Null,
                Some(v) if v < low_threshold => EvidenceValue::Class(self.labels.0.clone()),
                Some(v) if v > high_threshold => EvidenceValue::Class(self.labels.2.clone()),
                Some(_) => EvidenceValue::Class(self.labels.1.clone()),
            };
            map.set_tag(&item, tag, value);
        }
        Ok(())
    }
}

/// A per-item classifier with fixed thresholds — the ablation contrast to
/// [`StatClassifierAssertion`] (DESIGN.md: per-item vs collection-statistics
/// classification).
pub struct FixedThresholdClassifier {
    service_type: Iri,
    variable: String,
    classification_model: Iri,
    labels: (Iri, Iri, Iri),
    low_threshold: f64,
    high_threshold: f64,
}

impl FixedThresholdClassifier {
    /// Builds the classifier; requires `low <= high`.
    pub fn new(
        service_type: Iri,
        variable: &str,
        classification_model: Iri,
        labels: (Iri, Iri, Iri),
        low_threshold: f64,
        high_threshold: f64,
    ) -> Result<Self> {
        if low_threshold > high_threshold {
            return Err(ServiceError::BadRequest(format!(
                "low threshold {low_threshold} exceeds high threshold {high_threshold}"
            )));
        }
        Ok(FixedThresholdClassifier {
            service_type,
            variable: variable.to_string(),
            classification_model,
            labels,
            low_threshold,
            high_threshold,
        })
    }
}

impl AssertionService for FixedThresholdClassifier {
    fn service_type(&self) -> Iri {
        self.service_type.clone()
    }

    fn expected_variables(&self) -> Vec<String> {
        vec![self.variable.clone()]
    }

    fn classification_model(&self) -> Option<Iri> {
        Some(self.classification_model.clone())
    }

    fn assert_quality(
        &self,
        map: &mut AnnotationMap,
        bindings: &VariableBindings,
        tag: &str,
    ) -> Result<()> {
        let items: Vec<Term> = map.items().to_vec();
        for item in items {
            let value = match numeric(bindings, map, &item, &self.variable) {
                None => EvidenceValue::Null,
                Some(v) if v < self.low_threshold => EvidenceValue::Class(self.labels.0.clone()),
                Some(v) if v > self.high_threshold => EvidenceValue::Class(self.labels.2.clone()),
                Some(_) => EvidenceValue::Class(self.labels.1.clone()),
            };
            map.set_tag(&item, tag, value);
        }
        Ok(())
    }
}

/// Adds synthetic per-item latency to an annotation service (models
/// expensive external sources; the E1 ablation measures how persistent
/// repositories amortize it).
pub struct DelayedAnnotator {
    inner: Arc<dyn AnnotationService>,
    per_item: Duration,
}

impl DelayedAnnotator {
    /// Wraps a service with per-item latency.
    pub fn new(inner: Arc<dyn AnnotationService>, per_item: Duration) -> Self {
        DelayedAnnotator { inner, per_item }
    }
}

impl AnnotationService for DelayedAnnotator {
    fn service_type(&self) -> Iri {
        self.inner.service_type()
    }

    fn provides(&self) -> Vec<Iri> {
        self.inner.provides()
    }

    fn annotate(&self, data: &DataSet, repository: &AnnotationRepository) -> Result<usize> {
        std::thread::sleep(self.per_item * data.items().len() as u32);
        self.inner.annotate(data, repository)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_ontology::IqModel;
    use qurator_rdf::namespace::q;

    fn item(n: u32) -> Term {
        Term::iri(format!("urn:lsid:t:h:{n}"))
    }

    fn repo() -> AnnotationRepository {
        AnnotationRepository::new(
            "cache",
            false,
            Arc::new(IqModel::with_proteomics_extension().unwrap()),
        )
    }

    fn bindings() -> VariableBindings {
        VariableBindings::new()
            .bind_evidence("hr", q::iri("HitRatio"))
            .bind_evidence("mc", q::iri("MassCoverage"))
    }

    fn sample_map(values: &[(u32, f64, f64)]) -> AnnotationMap {
        let mut map = AnnotationMap::new();
        for (i, hr, mc) in values {
            map.set_evidence(&item(*i), q::iri("HitRatio"), (*hr).into());
            map.set_evidence(&item(*i), q::iri("MassCoverage"), (*mc).into());
        }
        map
    }

    #[test]
    fn field_capture_annotator_mirrors_imprint_output() {
        let annotator = FieldCaptureAnnotator::new(
            q::iri("ImprintOutputAnnotation"),
            &[("hitRatio", q::iri("HitRatio")), ("massCoverage", q::iri("MassCoverage"))],
        );
        let mut data = DataSet::new();
        data.push(item(1), [("hitRatio", 0.8.into()), ("massCoverage", 30.0.into())]);
        data.push(item(2), [("hitRatio", 0.2.into())]); // no MC
        let r = repo();
        let written = annotator.annotate(&data, &r).unwrap();
        assert_eq!(written, 3);
        assert_eq!(
            r.lookup(&item(1), &q::iri("MassCoverage")).unwrap(),
            EvidenceValue::Number(30.0)
        );
        assert_eq!(r.lookup(&item(2), &q::iri("MassCoverage")).unwrap(), EvidenceValue::Null);
        assert_eq!(annotator.provides().len(), 2);
    }

    #[test]
    fn linear_score() {
        let qa = LinearScoreAssertion::new(
            q::iri("UniversalPIScore"),
            &[("hr", 100.0), ("mc", 1.0)],
            0.0,
        );
        let mut map = sample_map(&[(1, 0.9, 40.0), (2, 0.5, 25.0)]);
        qa.assert_quality(&mut map, &bindings(), "HR_MC").unwrap();
        assert_eq!(map.item(&item(1)).unwrap().tag("HR_MC"), EvidenceValue::Number(130.0));
        assert_eq!(map.item(&item(2)).unwrap().tag("HR_MC"), EvidenceValue::Number(75.0));
    }

    #[test]
    fn linear_score_null_on_missing_variable() {
        let qa = LinearScoreAssertion::new(q::iri("S"), &[("hr", 1.0), ("mc", 1.0)], 0.0);
        let mut map = AnnotationMap::new();
        map.set_evidence(&item(1), q::iri("HitRatio"), 0.5.into()); // no MC
        qa.assert_quality(&mut map, &bindings(), "s").unwrap();
        assert_eq!(map.item(&item(1)).unwrap().tag("s"), EvidenceValue::Null);
    }

    #[test]
    fn zscore_is_collection_relative() {
        let qa = ZScoreAssertion::new(q::iri("UniversalPIScore2"), &["hr", "mc"]);
        let mut map = sample_map(&[(1, 0.2, 10.0), (2, 0.5, 20.0), (3, 0.8, 30.0)]);
        qa.assert_quality(&mut map, &bindings(), "z").unwrap();
        let z1 = map.item(&item(1)).unwrap().tag("z").as_number().unwrap();
        let z2 = map.item(&item(2)).unwrap().tag("z").as_number().unwrap();
        let z3 = map.item(&item(3)).unwrap().tag("z").as_number().unwrap();
        assert!(z1 < z2 && z2 < z3);
        assert!((z2).abs() < 1e-9, "middle item sits at the mean");
        assert!((z1 + z3).abs() < 1e-9, "symmetric collection");
    }

    #[test]
    fn zscore_handles_constant_columns() {
        let qa = ZScoreAssertion::new(q::iri("Z"), &["hr"]);
        let mut map = sample_map(&[(1, 0.5, 0.0), (2, 0.5, 0.0)]);
        qa.assert_quality(&mut map, &bindings(), "z").unwrap();
        assert_eq!(map.item(&item(1)).unwrap().tag("z"), EvidenceValue::Number(0.0));
    }

    #[test]
    fn stat_classifier_uses_avg_stddev_thresholds() {
        // values 0,0,0,0,10 -> mean 2, sd 4: only the 10 exceeds mean+sd
        let qa = StatClassifierAssertion::new(
            q::iri("PIScoreClassifier"),
            "hr",
            q::iri("PIScoreClassification"),
            (q::iri("low"), q::iri("mid"), q::iri("high")),
        );
        let mut map = sample_map(&[
            (1, 0.0, 0.0),
            (2, 0.0, 0.0),
            (3, 0.0, 0.0),
            (4, 0.0, 0.0),
            (5, 10.0, 0.0),
        ]);
        qa.assert_quality(&mut map, &bindings(), "cls").unwrap();
        assert_eq!(map.item(&item(5)).unwrap().tag("cls"), EvidenceValue::Class(q::iri("high")));
        for i in 1..=4 {
            assert_eq!(
                map.item(&item(i)).unwrap().tag("cls"),
                EvidenceValue::Class(q::iri("mid")),
                "item {i}"
            );
        }
        assert_eq!(qa.classification_model(), Some(q::iri("PIScoreClassification")));
    }

    #[test]
    fn stat_classifier_k_widens_mid_band() {
        let values: Vec<(u32, f64, f64)> = (1..=10).map(|i| (i, i as f64, 0.0)).collect();
        let mk = |k: f64| {
            StatClassifierAssertion::new(
                q::iri("C"),
                "hr",
                q::iri("PIScoreClassification"),
                (q::iri("low"), q::iri("mid"), q::iri("high")),
            )
            .with_k(k)
        };
        let count_mid = |k: f64| {
            let mut map = sample_map(&values);
            mk(k).assert_quality(&mut map, &bindings(), "cls").unwrap();
            map.items()
                .iter()
                .filter(|i| map.item(i).unwrap().tag("cls") == EvidenceValue::Class(q::iri("mid")))
                .count()
        };
        assert!(count_mid(0.5) < count_mid(1.5));
    }

    #[test]
    fn stat_classifier_all_null_input() {
        let qa = StatClassifierAssertion::new(
            q::iri("C"),
            "ghost",
            q::iri("PIScoreClassification"),
            (q::iri("low"), q::iri("mid"), q::iri("high")),
        );
        let mut map = sample_map(&[(1, 0.1, 1.0)]);
        qa.assert_quality(&mut map, &bindings(), "cls").unwrap();
        assert_eq!(map.item(&item(1)).unwrap().tag("cls"), EvidenceValue::Null);
    }

    #[test]
    fn fixed_threshold_classifier() {
        let qa = FixedThresholdClassifier::new(
            q::iri("C"),
            "hr",
            q::iri("PIScoreClassification"),
            (q::iri("low"), q::iri("mid"), q::iri("high")),
            0.3,
            0.7,
        )
        .unwrap();
        let mut map = sample_map(&[(1, 0.1, 0.0), (2, 0.5, 0.0), (3, 0.9, 0.0)]);
        qa.assert_quality(&mut map, &bindings(), "cls").unwrap();
        let cls = |i: u32| map.item(&item(i)).unwrap().tag("cls");
        assert_eq!(cls(1), EvidenceValue::Class(q::iri("low")));
        assert_eq!(cls(2), EvidenceValue::Class(q::iri("mid")));
        assert_eq!(cls(3), EvidenceValue::Class(q::iri("high")));
        // inverted thresholds are rejected
        assert!(FixedThresholdClassifier::new(
            q::iri("C"),
            "hr",
            q::iri("M"),
            (q::iri("l"), q::iri("m"), q::iri("h")),
            0.7,
            0.3
        )
        .is_err());
    }

    #[test]
    fn delayed_annotator_delegates() {
        let inner = Arc::new(FieldCaptureAnnotator::new(
            q::iri("ImprintOutputAnnotation"),
            &[("hitRatio", q::iri("HitRatio"))],
        ));
        let delayed = DelayedAnnotator::new(inner, Duration::from_millis(1));
        let mut data = DataSet::new();
        data.push(item(1), [("hitRatio", 0.5.into())]);
        let r = repo();
        let started = std::time::Instant::now();
        assert_eq!(delayed.annotate(&data, &r).unwrap(), 1);
        assert!(started.elapsed() >= Duration::from_millis(1));
        assert_eq!(delayed.service_type(), q::iri("ImprintOutputAnnotation"));
    }
}
