//! The divergent SPMD scenarios fail with a typed `CollectiveMismatch`
//! naming the divergent thread and both call sites — instead of the
//! silent deadlock the paper's collective-invocation contract would
//! otherwise produce — and the uniform control run stays clean.

use pardis_analyze::{lockcheck, scenarios};
use pardis_core::PardisError;
use scenarios::Scenario;
use std::sync::Mutex;

/// The wait-for graph is process-global and each lockcheck pass resets
/// it, so the tests that read it take turns.
static LOCKGRAPH: Mutex<()> = Mutex::new(());

#[test]
fn mismatched_order_is_rejected_with_both_sites() {
    let outcomes = scenarios::run(Scenario::MismatchedOrder).unwrap();
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        match &o.result {
            Err(PardisError::CollectiveMismatch {
                thread,
                mine,
                theirs,
            }) => {
                // Rank 1 issued `reset` while rank 0 (the reference)
                // issued `step` — every thread names the same culprit
                // and both call sites.
                assert_eq!(*thread, 1, "rank {}: wrong culprit", o.rank);
                assert!(mine.contains("`step`"), "rank {}: mine = {mine}", o.rank);
                assert!(
                    theirs.contains("`reset`"),
                    "rank {}: theirs = {theirs}",
                    o.rank
                );
            }
            other => panic!(
                "rank {}: expected CollectiveMismatch, got {other:?}",
                o.rank
            ),
        }
    }
}

#[test]
fn divergent_template_is_rejected() {
    let outcomes = scenarios::run(Scenario::DivergentTemplate).unwrap();
    for o in &outcomes {
        assert!(
            matches!(
                o.result,
                Err(PardisError::CollectiveMismatch { thread: 1, .. })
            ),
            "rank {}: {:?}",
            o.rank,
            o.result
        );
    }
}

#[test]
fn divergent_length_class_is_rejected() {
    let outcomes = scenarios::run(Scenario::DivergentLength).unwrap();
    for o in &outcomes {
        assert!(
            matches!(
                o.result,
                Err(PardisError::CollectiveMismatch { thread: 1, .. })
            ),
            "rank {}: {:?}",
            o.rank,
            o.result
        );
    }
}

#[test]
fn uniform_control_has_no_false_positives() {
    let outcomes = scenarios::run(Scenario::Uniform).unwrap();
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        assert!(o.result.is_ok(), "rank {}: {:?}", o.rank, o.result);
    }
}

#[test]
fn scenario_checker_agrees_with_the_assertions() {
    for s in Scenario::all() {
        let outcomes = scenarios::run(s).unwrap();
        let problems = scenarios::check(s, &outcomes);
        assert!(problems.is_empty(), "{}: {problems:?}", s.name());
    }
}

#[test]
fn lockcheck_rts_workload_is_cycle_free_and_inversion_is_caught() {
    use lockcheck::Node;
    let _graph = LOCKGRAPH.lock().unwrap_or_else(|p| p.into_inner());
    let report = lockcheck::check_rts_locks().unwrap();
    assert!(
        report.cycles.is_empty(),
        "RTS wait-for cycles: {:?}",
        report.cycles
    );
    // The workload really exercised the instrumented classes.
    for class in ["rma::registry", "rma::window_part"] {
        assert!(
            report.classes.contains(&Node::Lock(class)),
            "{class} never acquired: {:?}",
            report.classes
        );
    }
    let seeded = lockcheck::seeded_inversion();
    assert_eq!(seeded.len(), 1, "{seeded:?}");
    assert!(seeded[0].contains(&Node::Lock("analyze::demo_a")));
    assert!(seeded[0].contains(&Node::Lock("analyze::demo_b")));
    assert_eq!(lockcheck::cycle_code(&seeded[0]), "PA102");
}

#[test]
fn lock_vs_collective_inversion_is_pa203_and_invisible_to_the_old_graph() {
    use lockcheck::Node;
    let _graph = LOCKGRAPH.lock().unwrap_or_else(|p| p.into_inner());
    let mixed = lockcheck::seeded_collective_inversion();
    assert_eq!(mixed.cycles.len(), 1, "{:?}", mixed.cycles);
    assert!(mixed.cycles[0].contains(&Node::Lock("analyze::demo_state")));
    assert!(mixed.cycles[0].contains(&Node::Collective("analyze::demo_barrier")));
    assert_eq!(lockcheck::cycle_code(&mixed.cycles[0]), "PA203");
    // The pre-generalization lock-only detector reported nothing on
    // this schedule: only one lock class is involved.
    assert!(mixed.lock_only.is_empty(), "{:?}", mixed.lock_only);
}

#[test]
fn seeded_race_scenarios_replay_and_classify() {
    let report = pardis_analyze::racecheck::check(0xACE_5EED).unwrap();
    assert!(report.ok(), "{report:#?}");
    // The racy run flags PA201 with the transfer as one side.
    let r = &report.racy[0];
    assert_eq!(r.code, "PA201");
    assert!(report.racy == report.replay, "replay diverged");
    // The window run flags PA202 on the shared element.
    assert!(report.window.iter().all(|w| w.code == "PA202"));
}
