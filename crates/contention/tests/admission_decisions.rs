//! Admission decisions on a seeded admit/remove stream that mixes
//! candidates with and without a throughput contract.
//!
//! An admission re-predicts only the candidate and the residents that
//! hold a contract. This test pins that key set, checks each reported
//! period against a fresh `predicted_period` after the commit, and
//! compares every decision — outcome, violations, candidate period, all
//! as exact rationals — with `fixtures/admission_decisions.txt`, recorded
//! when every resident was still re-predicted on every admission.

use contention::{AdmissionController, AdmissionOutcome};
use platform::{AppId, Application, NodeId};
use sdf::{generate_graph, GeneratorConfig, Rational};
use std::collections::BTreeSet;

const FIXTURE: &str = include_str!("fixtures/admission_decisions.txt");
const NODES: usize = 3;
const OPS: usize = 240;

/// SplitMix64: a self-contained seeded stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }
}

/// Runs the stream, checking every `Admitted` outcome's key set and
/// periods, and returns one line per decision.
fn decisions() -> Vec<String> {
    let config = GeneratorConfig::default();
    let apps: Vec<Application> = (0..5)
        .map(|i| Application::new(format!("app{i}"), generate_graph(&config, 4200 + i)).unwrap())
        .collect();
    let mut stream = Stream(2007);
    let mut ctrl = AdmissionController::new();
    let mut residents: Vec<AppId> = Vec::new();
    let mut contract_holders: BTreeSet<AppId> = BTreeSet::new();
    let mut lines = Vec::new();

    for op in 0..OPS {
        if !residents.is_empty() && stream.next(10) < 4 {
            let id = residents.remove(stream.next(residents.len() as u64) as usize);
            contract_holders.remove(&id);
            ctrl.remove(id).unwrap();
            lines.push(format!("{op} remove {id}"));
            continue;
        }
        let app = apps[stream.next(apps.len() as u64) as usize].clone();
        let nodes: Vec<NodeId> = (0..app.graph().actor_count())
            .map(|i| NodeId(i % NODES))
            .collect();
        // No contract, a loose one (3/5 of isolation throughput) or a
        // tight one (9/10) that residents often break.
        let contract = match stream.next(3) {
            0 => None,
            1 => Some(app.isolation_throughput() * Rational::new(3, 5)),
            _ => Some(app.isolation_throughput() * Rational::new(9, 10)),
        };
        let name = app.name().to_string();
        let outcome = ctrl.admit(app, &nodes, contract).unwrap();
        let contract_text = contract.map_or("-".to_string(), |c| c.to_string());
        match outcome {
            AdmissionOutcome::Admitted {
                id,
                predicted_periods,
            } => {
                let mut expected_keys = contract_holders.clone();
                expected_keys.insert(id);
                let keys: BTreeSet<AppId> = predicted_periods.keys().copied().collect();
                assert_eq!(keys, expected_keys, "op {op}: re-predicted key set");
                for (&app, &period) in &predicted_periods {
                    assert_eq!(
                        ctrl.predicted_period(app).unwrap(),
                        period,
                        "op {op}: {app} period after commit"
                    );
                }
                residents.push(id);
                if contract.is_some() {
                    contract_holders.insert(id);
                }
                lines.push(format!(
                    "{op} admit {name} {contract_text} -> admitted {id} period {}",
                    predicted_periods[&id]
                ));
            }
            AdmissionOutcome::Rejected { violations } => {
                let violations: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                lines.push(format!(
                    "{op} admit {name} {contract_text} -> rejected: {}",
                    violations.join("; ")
                ));
            }
        }
    }
    lines
}

#[test]
fn decisions_match_the_full_re_prediction_fixture() {
    let lines = decisions();
    let expected: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    assert_eq!(lines.len(), expected.len(), "decision count");
    for (got, want) in lines.iter().zip(&expected) {
        assert_eq!(got, want);
    }
    // The stream exercises both outcomes and both kinds of candidate.
    assert!(lines.iter().any(|l| l.contains("rejected")));
    assert!(lines.iter().any(|l| l.contains(" - -> admitted")));
    assert!(lines
        .iter()
        .any(|l| l.contains("admitted") && !l.contains(" - ->")));
}
