//! Run-time admission control — the application the paper's conclusions
//! propose for the composability approach.
//!
//! Applications arrive at a running media device one by one, each with a
//! minimum-throughput requirement. The [`contention::AdmissionController`]
//! reads each actor's contention in `O(1)` with the composability
//! algebra's inverse operators, then re-analyses the period of the
//! newcomer and of every resident that holds a contract to decide whether
//! admitting the newcomer would break any of them.
//!
//! Run with: `cargo run --release --example admission_control`

use contention::{AdmissionController, AdmissionOutcome};
use platform::{Application, NodeId};
use sdf::{generate_graph, GeneratorConfig, Rational};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ctrl = AdmissionController::new();
    let config = GeneratorConfig::default();

    // Ten candidate applications stream in; each demands at least 60 % of
    // its isolation throughput once admitted.
    let mut admitted = Vec::new();
    println!(
        "{:<8} {:>12} {:>14} {:>10}",
        "app", "iso period", "min thr (1/t)", "decision"
    );
    println!("{}", "-".repeat(48));

    for seed in 0..10u64 {
        let graph = generate_graph(&config, 4200 + seed);
        let app = Application::new(format!("app-{seed}"), graph)?;
        let nodes: Vec<NodeId> = (0..app.graph().actor_count()).map(NodeId).collect();
        let iso = app.isolation_period();
        // Require ≥ 60 % of isolation throughput: period ≤ iso / 0.6.
        let required = iso.recip() * Rational::new(3, 5);

        let name = app.name().to_string();
        let outcome = ctrl.admit(app, &nodes, Some(required))?;
        match outcome {
            AdmissionOutcome::Admitted {
                id,
                ref predicted_periods,
            } => {
                admitted.push((id, name.clone()));
                println!(
                    "{:<8} {:>12} {:>14} {:>10}",
                    name,
                    iso.to_string(),
                    required
                        .to_f64()
                        .to_string()
                        .chars()
                        .take(9)
                        .collect::<String>(),
                    "ADMIT"
                );
                let worst = predicted_periods
                    .values()
                    .map(|p| p.to_f64())
                    .fold(0.0f64, f64::max);
                // The outcome lists the periods the decision checked: the
                // newcomer's and every contract holder's.
                println!(
                    "         -> {} contract(s) checked, worst predicted period {:.0}",
                    predicted_periods.len(),
                    worst
                );
            }
            AdmissionOutcome::Rejected { ref violations } => {
                println!(
                    "{:<8} {:>12} {:>14} {:>10}",
                    name,
                    iso.to_string(),
                    required
                        .to_f64()
                        .to_string()
                        .chars()
                        .take(9)
                        .collect::<String>(),
                    "REJECT"
                );
                for v in violations {
                    println!("         -> {v}");
                }
            }
        }
    }

    // Free capacity again: remove the first two residents and retry the mix.
    println!("\nRemoving the two oldest residents …");
    for (id, name) in admitted.drain(..2.min(admitted.len())) {
        ctrl.remove(id)?;
        println!("  removed {name}");
    }
    println!("Residents now: {}", ctrl.resident_count());

    // Predicted periods of the remaining residents after the removal: the
    // node composites are re-folded on removal, and `predicted_period`
    // analyses one resident on demand.
    for id in ctrl.resident_ids().collect::<Vec<_>>() {
        println!(
            "  {id}: predicted period {:.0}",
            ctrl.predicted_period(id)?.to_f64()
        );
    }
    Ok(())
}
