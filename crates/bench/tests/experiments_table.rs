//! The experiment table is well-formed, agrees with what is committed
//! under `results/`, and its check can fail.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use bench::claims::{Claim, Report, Status};
use bench::experiments::{render, run, Experiment, EXPERIMENTS};
use bench::Fixtures;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn ids_are_unique_and_every_claim_names_its_experiment() {
    let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
    let mut claims = BTreeSet::new();
    for experiment in EXPERIMENTS {
        for claim in experiment.claims {
            let (owner, _) = claim.id.split_once('.').expect("claim ids are <experiment>.<quantity>");
            assert_eq!(owner, experiment.id, "claim {} sits under {}", claim.id, experiment.id);
            assert!(claims.insert(claim.id), "duplicate claim id {}", claim.id);
            assert!(claim.accept.0 <= claim.accept.1, "{}: empty accepted range", claim.id);
            assert!(!claim.reason.is_empty(), "{}: a tolerance needs its reason", claim.id);
        }
    }
}

#[test]
fn ids_and_committed_results_are_one_to_one() {
    let mut committed: BTreeSet<String> = fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    for name in ["claims.json", "claims.txt"] {
        assert!(committed.remove(name), "results/{name} is not committed");
    }
    let expected: BTreeSet<String> = EXPERIMENTS.iter().map(|e| format!("{}.txt", e.id)).collect();
    assert_eq!(committed, expected, "results/*.txt and the experiment table differ");
}

#[test]
fn committed_claims_cover_the_table_and_all_hold() {
    let text = fs::read_to_string(results_dir().join("claims.txt")).unwrap();
    for claim in EXPERIMENTS.iter().flat_map(|e| e.claims) {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().nth(1) == Some(claim.id))
            .unwrap_or_else(|| panic!("results/claims.txt has no row for {}", claim.id));
        assert!(!row.starts_with(Status::Fail.as_str()), "committed failing claim: {row}");
    }
}

#[test]
fn fig6_renders_byte_equal_to_its_committed_file() {
    let fig6 = EXPERIMENTS.iter().find(|e| e.id == "fig6_example_wcg").unwrap();
    let report = render(fig6, &Fixtures::new());
    let committed = fs::read_to_string(results_dir().join("fig6_example_wcg.txt")).unwrap();
    assert_eq!(report.text, committed);
    for claim in fig6.claims {
        assert_eq!(claim.check(fig6.id, report.measured(claim.id)).status, Status::Pass);
    }
}

fn measures_two(_: &Fixtures, out: &mut Report) {
    out.measure("probe.value", 2.0);
}

#[test]
fn a_claim_outside_its_tolerance_fails_the_run() {
    let table = |claim: &'static [Claim]| {
        [Experiment { id: "probe", title: "probe", run: measures_two, claims: claim }]
    };
    const HOLDS: &[Claim] = &[Claim::within("probe.value", "the probe's value", 2.5, 0.5, "test")];
    const BROKEN: &[Claim] = &[Claim::within("probe.value", "the probe's value", 3.0, 0.5, "test")];
    const UNMEASURED: &[Claim] = &[Claim::within("probe.other", "never recorded", 2.0, 0.0, "test")];

    let dir = std::env::temp_dir().join(format!("experiments_table-{}", std::process::id()));
    assert_eq!(run(&table(HOLDS), &[], &dir).unwrap(), 0);
    assert!(fs::read_to_string(dir.join("claims.txt")).unwrap().starts_with("status"));
    assert_eq!(fs::read_to_string(dir.join("probe.txt")).unwrap(), "=== probe ===\n\n");

    assert_eq!(run(&table(BROKEN), &[], &dir).unwrap(), 1);
    let claims = fs::read_to_string(dir.join("claims.txt")).unwrap();
    let row = claims.lines().find(|l| l.contains("probe.value")).unwrap();
    assert!(row.starts_with("fail"), "{row}");
    assert!(fs::read_to_string(dir.join("claims.json")).unwrap().contains("\"status\": \"fail\""));

    assert_eq!(run(&table(UNMEASURED), &[], &dir).unwrap(), 1, "an unmeasured claim fails");
    assert_eq!(run(&table(BROKEN), &["probe".to_string()], &dir).unwrap(), 1, "so does a run by id");
    assert_eq!(run(&table(HOLDS), &["nope".to_string()], &dir).unwrap(), 2, "unknown id");
    fs::remove_dir_all(&dir).unwrap();
}
