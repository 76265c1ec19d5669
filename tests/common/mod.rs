//! Shared helpers for the integration suite.

use slice::core::{SliceConfig, SliceEnsemble};
use slice::sim::{SimDuration, SimTime};
use slice::workloads::ScriptWorkload;

pub fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(300)
}

/// Runs one scripted client against `cfg`, panicking on validation errors.
#[allow(dead_code)]
pub fn run_script(cfg: &SliceConfig, script: ScriptWorkload) -> SliceEnsemble {
    let mut ens = SliceEnsemble::build(cfg, vec![Box::new(script)]);
    ens.start();
    ens.run_to_completion(deadline());
    assert_errors(&ens, 0);
    ens
}

/// Asserts client `i`'s script finished cleanly.
#[allow(dead_code)]
pub fn assert_errors(ens: &SliceEnsemble, i: usize) {
    let client = ens.client(i);
    assert!(client.finished(), "client {i} did not finish");
    let script = client.workload_as::<ScriptWorkload>();
    assert!(
        script.errors.is_empty(),
        "client {i} errors: {:?}",
        script.errors
    );
}
