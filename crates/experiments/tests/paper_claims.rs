//! Tier-1 gate on the paper's headline shapes: every claim the
//! `exp_report` binary checks must hold at its committed pin (300 s
//! traces, seed 1). A refactor that breaks a paper shape fails here.

use ffs_experiments::report;

#[test]
fn all_paper_claims_hold_at_the_committed_pin() {
    let claims = report::run(300.0, 1);
    assert_eq!(claims.len(), 11, "the report checks 11 claims");
    let failing: Vec<&report::Claim> = claims.iter().filter(|c| !c.holds).collect();
    assert!(failing.is_empty(), "paper claims broken: {failing:#?}");
}
