//! The ISPIDER host workflow (paper Figure 1) as real workflow processors
//! over the synthetic testbed: PEDRo fetch → Imprint PMF → GOA lookup →
//! term aggregation.

use qurator::prelude::DataSet;
use qurator_proteomics::World;
use qurator_repro::ispider::hits_to_dataset;
use qurator_workflow::{Data, FnProcessor, PortRef, Processor, Workflow, WorkflowError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Node names of the host workflow.
pub mod nodes {
    pub const PEDRO: &str = "PedroFetch";
    pub const IMPRINT: &str = "ImprintSearch";
    pub const GOA: &str = "GoaLookup";
    pub const AGGREGATE: &str = "AggregateTerms";
}

/// Builds the Figure 1 workflow over a testbed world.
///
/// Outputs: `go_counts` — a record of GO term id → occurrence count.
pub fn build_host(world: Arc<World>) -> Workflow {
    let mut wf = Workflow::new("ispider-analysis");

    // PEDRo: emit one spot-id item per deposited peak list
    let pedro_world = world.clone();
    let pedro = FnProcessor::new(nodes::PEDRO, &[], &["spots"], move |_, _| {
        let spots: Vec<Data> =
            pedro_world.peak_lists().iter().map(|pl| Data::Text(pl.spot_id.clone())).collect();
        Ok(BTreeMap::from([("spots".to_string(), Data::List(spots))]))
    });

    // Imprint: per spot (implicit iteration), search and emit the hit
    // data set as a typed payload
    let imprint_world = world.clone();
    let imprint = FnProcessor::map1(nodes::IMPRINT, "spot", "hits", move |spot, _| {
        let spot_id = spot.as_text().ok_or_else(|| WorkflowError::Execution {
            processor: nodes::IMPRINT.into(),
            message: "spot id must be text".into(),
        })?;
        let peak_list =
            imprint_world.pedro.spot(&imprint_world.experiment, spot_id).map_err(|e| {
                WorkflowError::Execution {
                    processor: nodes::IMPRINT.into(),
                    message: e.to_string(),
                }
            })?;
        let hits = imprint_world.imprint.search(peak_list);
        Ok(Data::typed(hits_to_dataset(spot_id, &hits)))
    });

    // GOA: per spot data set, emit the GO term ids of every identification
    let goa_world = world.clone();
    let goa = FnProcessor::map1(nodes::GOA, "hits", "terms", move |hits, _| {
        let dataset: &DataSet = hits.as_typed().ok_or_else(|| WorkflowError::Execution {
            processor: nodes::GOA.into(),
            message: format!("expected a data set, got {hits}"),
        })?;
        let mut terms = Vec::new();
        for item in dataset.items() {
            if let Some(accession) = dataset.field(item, "accession").as_text() {
                for association in goa_world.goa.lookup(accession) {
                    terms.push(Data::Text(association.term_id.clone()));
                }
            }
        }
        Ok(Data::List(terms))
    });

    // Aggregate: flatten the per-spot term lists into frequency counts
    let aggregate =
        FnProcessor::new(nodes::AGGREGATE, &[("terms", 2)], &["go_counts"], |inputs, _| {
            let mut counts: BTreeMap<String, Data> = BTreeMap::new();
            fn walk(v: &Data, counts: &mut BTreeMap<String, Data>) {
                match v {
                    Data::Text(term) => {
                        let slot = counts.entry(term.clone()).or_insert(Data::Number(0.0));
                        if let Data::Number(n) = slot {
                            *n += 1.0;
                        }
                    }
                    Data::List(items) => items.iter().for_each(|i| walk(i, counts)),
                    _ => {}
                }
            }
            walk(inputs.get("terms").unwrap_or(&Data::Null), &mut counts);
            Ok(BTreeMap::from([("go_counts".to_string(), Data::Record(counts))]))
        });

    wf.add(nodes::PEDRO, Arc::new(pedro)).expect("fresh workflow");
    wf.add(nodes::IMPRINT, Arc::new(imprint)).expect("fresh workflow");
    wf.add(nodes::GOA, Arc::new(goa)).expect("fresh workflow");
    wf.add(nodes::AGGREGATE, Arc::new(aggregate)).expect("fresh workflow");
    wf.link(nodes::PEDRO, "spots", nodes::IMPRINT, "spot").expect("ports exist");
    wf.link(nodes::IMPRINT, "hits", nodes::GOA, "hits").expect("ports exist");
    wf.link(nodes::GOA, "terms", nodes::AGGREGATE, "terms").expect("ports exist");
    wf.declare_output("go_counts", PortRef::new(nodes::AGGREGATE, "go_counts"))
        .expect("ports exist");
    wf
}

/// The identity input adapter (Imprint already emits typed hit data sets)
/// for embedding a QV between Imprint and GOA.
pub fn input_adapter() -> Arc<dyn Processor> {
    Arc::new(FnProcessor::map1("qv-dataset-in", "in", "out", |v, _| Ok(v.clone())))
}

/// The output adapter: unwraps the action group's `{dataset, map}` record
/// back to its data set for the GOA node.
pub fn output_adapter() -> Arc<dyn Processor> {
    Arc::new(FnProcessor::map1("qv-dataset-out", "in", "out", |v, _| {
        v.field("dataset").cloned().ok_or_else(|| WorkflowError::Execution {
            processor: "qv-dataset-out".into(),
            message: "expected an action group record".into(),
        })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_proteomics::WorldConfig;
    use qurator_workflow::{Context, Enactor};

    #[test]
    fn host_reproduces_the_unfiltered_pipeline() {
        let world = Arc::new(World::generate(&WorldConfig::paper_scale(42)).unwrap());
        let wf = build_host(world.clone());
        let report = Enactor::new().run(&wf, &BTreeMap::new(), &Context::new()).unwrap();
        let counts = report.outputs["go_counts"].as_record().unwrap();
        let total: f64 = counts.values().filter_map(Data::as_number).sum();

        // must agree with the direct pipeline
        let engine = qurator::prelude::QualityEngine::with_proteomics_defaults().unwrap();
        let direct = qurator_repro::IspiderPipeline::new(&world, &engine).run_unfiltered();
        assert_eq!(total as usize, direct.total_go_occurrences());
        assert_eq!(counts.len(), direct.go_counts.len());
    }
}
