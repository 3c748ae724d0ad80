//! Every per-net result holds exactly what the forward evaluator measures.
//!
//! `NetOutcome::measure` is the one place a solved net is forward-evaluated
//! for reporting: once unbuffered, once with the placements, under the
//! solve's delay model. This suite re-runs `elmore::evaluate_with` itself
//! on every net of a seeded fleet, under the Elmore and scaled-Elmore
//! models, each with and without a slew limit, and demands the same bits
//! in the `BatchReport` outcomes and in the `NetOutcome::to_value` JSON of
//! the same net and corner. Every outcome also passes `NetOutcome::verify`,
//! whose slew rule the 150 ps rows arm.

use fastbuf::api::wire::Json;
use fastbuf::api::NetOutcome;
use fastbuf::netgen::SuiteSpec;
use fastbuf::prelude::*;
use fastbuf::rctree::elmore;

fn bits(s: Seconds) -> u64 {
    s.value().to_bits()
}

/// The picosecond member `key` of a record, as the bits of the `Seconds`
/// it printed.
fn record_ps(record: &Json, key: &str) -> u64 {
    let ps = record.get(key).and_then(Json::as_f64).unwrap();
    ps.to_bits()
}

#[test]
fn outcomes_and_records_hold_the_forward_measurement() {
    let nets = SuiteSpec {
        nets: 24,
        max_sinks: 40,
        seed: 11,
        ..SuiteSpec::default()
    }
    .build();
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let models: [DelayModel; 2] = [DelayModel::Elmore, DelayModel::SCALED_ELMORE];
    let mut changed = 0;
    for model in models {
        let mut free = Vec::new();
        for limit in [None, Some(Seconds::from_pico(150.0))] {
            let mut solver = BatchSolver::new(&nets, &lib).workers(2).delay_model(model);
            let mut scenario = Scenario::named("batch");
            if let Some(limit) = limit {
                solver = solver.slew_limit(limit);
                scenario = scenario.slew_limit(limit);
            }
            let report = solver.solve();
            let session = Session::builder(lib.clone()).delay_model(model).build();
            for o in &report.outcomes {
                let tree = &nets[o.index];
                let case = format!("net {} under {} limit {limit:?}", o.index, model.name());
                let pairs: Vec<_> = o.placements.iter().map(|p| (p.node, p.buffer)).collect();
                let before = elmore::evaluate_with(tree, &lib, &[], model, 1.0).unwrap();
                let after = elmore::evaluate_with(tree, &lib, &pairs, model, 1.0).unwrap();
                assert_eq!(bits(o.slack_before), bits(before.slack), "{case}");
                assert_eq!(bits(o.slew_before), bits(before.max_slew), "{case}");
                assert_eq!(
                    o.measured_slack.map(bits),
                    Some(bits(after.slack)),
                    "{case}"
                );
                assert_eq!(bits(o.max_slew), bits(after.max_slew), "{case}");
                assert_eq!(o.slew_limit, limit, "{case}");
                o.verify().unwrap();
                match limit {
                    None => free.push(o.placements.clone()),
                    Some(_) => changed += usize::from(free[o.index] != o.placements),
                }

                let outcome = session
                    .request(tree)
                    .scenario(scenario.clone())
                    .solve()
                    .unwrap();
                let record = NetOutcome::measure(o.index, tree, &lib, &outcome.scenarios[0])
                    .unwrap()
                    .to_value("n", None, false);
                let ps = |s: Seconds| s.picos().to_bits();
                assert_eq!(
                    record_ps(&record, "slack_before_ps"),
                    ps(before.slack),
                    "{case}"
                );
                assert_eq!(
                    record_ps(&record, "slew_before_ps"),
                    ps(before.max_slew),
                    "{case}"
                );
                assert_eq!(record_ps(&record, "slack_after_ps"), ps(o.slack), "{case}");
                assert_eq!(
                    record_ps(&record, "max_slew_ps"),
                    ps(after.max_slew),
                    "{case}"
                );
            }
        }
    }
    // The limit binds somewhere, so the constrained runs are not the
    // unconstrained ones again.
    assert!(changed > 0, "the 150 ps limit never changed an answer");
}
