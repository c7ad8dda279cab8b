//! Cross-validation between independent implementations:
//! * the state-space period analysis vs the HSDF maximum-cycle-ratio path
//!   (two different algorithms, must agree exactly);
//! * the simulator vs the analytical period for uncontended applications;
//! * estimator sanity on random workloads.

use contention::{estimate, Method};
use mpsoc_sim::{simulate, SimConfig};
use platform::{AppId, Application, Mapping, SystemSpec, UseCase};
use sdf::{
    analyze_period, generate_graph, maximum_cycle_ratio, GeneratorConfig, HsdfGraph, Rational,
    SdfGraph,
};

#[test]
fn state_space_agrees_with_mcr_on_random_graphs() {
    let config = GeneratorConfig::default();
    let agree = |g: &SdfGraph, what: &str| {
        let state_space = analyze_period(g).expect("analyzes").period;
        let hsdf = HsdfGraph::expand(g).expect("expands");
        let mcr = maximum_cycle_ratio(&hsdf).expect("solves");
        assert_eq!(state_space, mcr, "{what}: {state_space} vs {mcr}");
        state_space
    };
    for seed in 0..25 {
        agree(&generate_graph(&config, seed), &format!("seed {seed}"));
    }

    // Inflated graphs: generator graphs with the waiting times the
    // estimator adds under contention, so execution times sit on the
    // 1/2520² grid and the state space runs on a tick finer than 1.
    let mut fractional = 0;
    for seed in 0..6u64 {
        let mut builder = SystemSpec::builder();
        for app in 0..3 {
            let g = generate_graph(&config, 300 + 10 * seed + app);
            builder = builder.application(Application::new(format!("app{app}"), g).expect("valid"));
        }
        let spec = builder
            .mapping(Mapping::by_actor_index(3 + seed as usize % 3))
            .build()
            .expect("valid spec");
        for mask in [0b011, 0b101, 0b110, 0b111] {
            let use_case = UseCase::from_mask(mask);
            for method in [Method::Composability, Method::SECOND_ORDER] {
                let estimate = estimate(&spec, use_case, method).expect("estimates");
                for (&id, &period) in estimate.periods() {
                    let graph = spec.application(id).graph();
                    let times: Vec<Rational> = graph
                        .actor_ids()
                        .map(|a| {
                            graph.execution_time(a)
                                + estimate.waiting_time(id, a).unwrap_or(Rational::ZERO)
                        })
                        .collect();
                    fractional += usize::from(times.iter().any(|t| !t.is_integer()));
                    let inflated = graph.with_execution_times(&times);
                    let what = format!("seed {seed} mask {mask:#b} {method:?} {id}");
                    assert_eq!(agree(&inflated, &what), period, "{what}: estimate");
                }
            }
        }
    }
    assert!(fractional > 0, "no inflated graph had a fractional time");
}

#[test]
fn simulator_matches_analysis_without_contention() {
    // A single application on the platform: the simulator must achieve the
    // analytical self-timed period exactly (after its warm-up window).
    let config = GeneratorConfig::default();
    for seed in 0..10 {
        let g = generate_graph(&config, 100 + seed);
        let expected = analyze_period(&g).expect("analyzes").period.to_f64();
        let app = Application::new(format!("app{seed}"), g).expect("valid");
        let spec = SystemSpec::builder()
            .application(app)
            .mapping(Mapping::by_actor_index(10))
            .build()
            .expect("valid spec");
        let sim = simulate(
            &spec,
            UseCase::single(AppId(0)),
            SimConfig::with_horizon(200_000),
        )
        .expect("simulates");
        let measured = sim
            .app(AppId(0))
            .unwrap()
            .average_period()
            .expect("iterations");
        let deviation = (measured - expected).abs() / expected;
        assert!(
            deviation < 0.01,
            "seed {seed}: simulated {measured} vs analytical {expected}"
        );
    }
}

#[test]
fn estimates_bounded_by_worst_case_on_random_workloads() {
    // For every random two-app workload: isolation ≤ probabilistic estimate
    // ≤ worst-case estimate.
    let config = GeneratorConfig::default();
    for seed in 0..8 {
        let a = generate_graph(&config, 1000 + seed);
        let b = generate_graph(&config, 2000 + seed);
        let spec = SystemSpec::builder()
            .application(Application::new("A", a).expect("valid"))
            .application(Application::new("B", b).expect("valid"))
            .mapping(Mapping::by_actor_index(10))
            .build()
            .expect("valid spec");
        let uc = UseCase::full(2);
        let prob = estimate(&spec, uc, Method::Exact).expect("estimates");
        let wc = estimate(&spec, uc, Method::WorstCaseRoundRobin).expect("estimates");
        for id in [AppId(0), AppId(1)] {
            let iso = spec.application(id).isolation_period();
            assert!(
                prob.period(id) >= iso,
                "seed {seed} {id}: estimate below isolation"
            );
            assert!(
                wc.period(id) >= prob.period(id),
                "seed {seed} {id}: worst case below probabilistic"
            );
        }
    }
}

#[test]
fn contended_simulation_never_beats_isolation() {
    let config = GeneratorConfig::default();
    let a = generate_graph(&config, 7);
    let b = generate_graph(&config, 8);
    let spec = SystemSpec::builder()
        .application(Application::new("A", a).expect("valid"))
        .application(Application::new("B", b).expect("valid"))
        .mapping(Mapping::by_actor_index(10))
        .build()
        .expect("valid spec");
    let sim =
        simulate(&spec, UseCase::full(2), SimConfig::with_horizon(100_000)).expect("simulates");
    for m in sim.apps() {
        let iso = spec.application(m.app()).isolation_period().to_f64();
        let measured = m.average_period().expect("iterations");
        assert!(
            measured >= iso * 0.999,
            "{}: contended {measured} < isolation {iso}",
            m.app()
        );
    }
}

#[test]
fn estimator_methods_rank_consistently_under_high_contention() {
    // Many apps on few nodes: second order ≥ fourth order ≥ … the ordering
    // the paper observes ("the second order estimate is always more
    // conservative than the fourth order estimate").
    let config = GeneratorConfig {
        min_actors: 6,
        max_actors: 6,
        ..GeneratorConfig::default()
    };
    let mut builder = SystemSpec::builder();
    for seed in 0..6 {
        builder = builder.application(
            Application::new(format!("app{seed}"), generate_graph(&config, 500 + seed))
                .expect("valid"),
        );
    }
    let spec = builder
        .mapping(Mapping::by_actor_index(6))
        .build()
        .expect("valid spec");
    let uc = UseCase::full(6);
    let second = estimate(&spec, uc, Method::SECOND_ORDER).expect("estimates");
    let fourth = estimate(&spec, uc, Method::FOURTH_ORDER).expect("estimates");
    let wc = estimate(&spec, uc, Method::WorstCaseRoundRobin).expect("estimates");
    for (id, _) in spec.iter() {
        assert!(
            second.period(id) >= fourth.period(id),
            "{id}: 2nd ({}) < 4th ({})",
            second.period(id),
            fourth.period(id)
        );
        assert!(
            wc.period(id) >= second.period(id),
            "{id}: wc below second order"
        );
    }
}
