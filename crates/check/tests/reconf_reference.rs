//! Defect 1c(xii): a mirrored-mapped file's block 2 missing from one of
//! its mirrors, with no fault injected. The inputs are the crash-free
//! reference runs of reconf seeds 12 and 13, whose scenarios write 64 KiB
//! at 96 KiB and at 80 KiB: across the boundary between blocks 1 and 2,
//! whose replica pairs differ. Routed whole to block 1's pair, the write
//! left block 2's bytes on a site no map entry gives them and none on one
//! that it does, which the strict block-map oracle reports.

use slice_check::{generate_scenario, run_schedule, Mode, Schedule};

#[test]
fn reconf_reference_runs_across_a_block_boundary_pass() {
    for seed in [12, 13] {
        let scenario = generate_scenario(seed, 96);
        let out = run_schedule(seed, &scenario, &Schedule::default(), None, Mode::Reconf);
        assert!(
            out.violations.is_empty(),
            "seed {seed}'s reference run: {:?}",
            out.violations
        );
    }
}
