//! Oracle parity: every optimized path reproduces its naive oracle on
//! every bundled workload.
//!
//! Each workload runs the `evaluate metrics` cell — inferred effect
//! summaries attached, GreenWeb-I, full trace — once on the production
//! paths and once on each oracle pair's naive side. Per pair, the metrics
//! JSON with that pair's counters masked must be byte-identical, and the
//! pair's witness counter must show the optimized side engaged on some
//! workload while the naive side never did (so the parity cannot pass
//! because both runs took the same path).

use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb_engine::{Oracles, SimReport, ORACLE_PAIRS};
use greenweb_fleet::{run_specs, Jobs};
use greenweb_workloads::harness::{expectations, lower, Policy};

#[test]
fn every_oracle_pair_matches_production_on_every_workload() {
    let scenario = Scenario::Imperceptible;
    let policy = Policy::GreenWeb(scenario);
    let workloads = greenweb_workloads::all();
    // Production first, then each pair's naive side, per workload.
    let sides: Vec<Oracles> = std::iter::once(Oracles::default())
        .chain(ORACLE_PAIRS.iter().map(|pair| pair.naive))
        .collect();
    let mut specs = Vec::new();
    for w in &workloads {
        let mut app = w.app.clone();
        app.effect_summaries = greenweb_analyze::infer_effect_summaries(&app);
        for &oracles in &sides {
            specs.push(lower(&app, &w.full, &policy).with_oracles(oracles));
        }
    }
    let reports: Vec<SimReport> = run_specs(specs, Jobs::from_env())
        .into_iter()
        .map(|outcome| outcome.expect("workload runs").report)
        .collect();

    let mut engaged = [0u64; ORACLE_PAIRS.len()];
    for (w, runs) in workloads.iter().zip(reports.chunks(sides.len())) {
        let expected = expectations(&w.app, &w.full, scenario);
        let (production, naive_runs) = runs.split_first().expect("one run per side");
        for ((pair, naive), engaged) in ORACLE_PAIRS.iter().zip(naive_runs).zip(&mut engaged) {
            assert_eq!(
                RunMetrics::parity_json(production, &expected, pair),
                RunMetrics::parity_json(naive, &expected, pair),
                "{}: the {} diverged from its oracle outside its masked counters",
                w.name,
                pair.name,
            );
            assert_eq!(
                (pair.witness)(naive),
                0,
                "{}: the {} oracle run engaged the optimized path",
                w.name,
                pair.name,
            );
            *engaged += (pair.witness)(production);
        }
    }
    for (pair, engaged) in ORACLE_PAIRS.iter().zip(engaged) {
        assert!(
            engaged > 0,
            "the {} never engaged on any workload: its parity is vacuous",
            pair.name
        );
    }
}
