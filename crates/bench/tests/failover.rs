//! Crash → rebalance → recover ordering.
//!
//! A recovered storage node must not assume it rejoins the same replica
//! sets it left: if the block map was rebalanced while it was down (a
//! standby site joined and took over replicas), the dirty ranges logged
//! against the crashed node name *stale* sources. Resync derives its
//! source set from the current block map at recovery time
//! (`Coordinator::map_sources`), falling back to the recorded set only
//! when nothing usable is mapped. This test drives the full ordering —
//! crash mid-workload, degraded writes, join-rebalance while the victim
//! is down, then recovery — and requires the dirty log to drain and a
//! final read pass to complete with no client-visible failures.

use slice_bench::timeline::{bulk_writers, run_phase, start_bulk_readers};
use slice_core::ensemble::{SliceConfig, SliceEnsemble};
use slice_sim::{SimDuration, SimTime};

const CLIENTS: usize = 2;
const VICTIM: usize = 0;
const JOINER: usize = 4;
const MB: u64 = 4;

fn config() -> SliceConfig {
    SliceConfig {
        clients: CLIENTS,
        storage_nodes: 5,
        active_storage: Some(4),
        use_block_maps: true,
        mapped_mirror: true,
        retain_data: true,
        record_history: true,
        probe_interval_ms: 500,
        ..SliceConfig::default()
    }
}

fn dirty_ranges(ens: &SliceEnsemble) -> usize {
    ens.coord().dirty_log_dump().len()
}

#[test]
fn recovery_resyncs_from_rebalanced_map() {
    let deadline = SimTime::ZERO + SimDuration::from_secs(600);
    let writers = bulk_writers("fo", CLIENTS, MB * 1024 * 1024, true);
    let mut ens = SliceEnsemble::build(&config(), writers);
    ens.start();

    // Crash the victim mid-write: the tail of the write stream lands
    // degraded, logging dirty ranges whose recorded sources are the
    // pre-rebalance replica sets.
    ens.engine.run_until(SimTime::from_nanos(100 * 1_000_000));
    ens.engine.fail_node(ens.storage[VICTIM]);
    assert!(run_phase(&mut ens, deadline), "writers did not finish");
    assert!(
        dirty_ranges(&ens) > 0,
        "crash mid-write logged no dirty ranges; the test is not exercising resync"
    );

    // Rebalance while the victim is down: the standby site joins and
    // takes over one replica of a share of the entries, invalidating the
    // source sets recorded in the dirty log.
    let moved = ens.join_storage_node(JOINER);
    assert!(moved > 0, "join rebalanced no entries");
    // Let the rebalance run with the victim still down: copies sourced
    // from live replicas drain now; any sourced from the victim must
    // wait for its recovery.
    let joined_at = ens.engine.now();
    ens.engine.run_until(joined_at + SimDuration::from_secs(10));

    // Recover the victim. Resync must pull from the *current* map's live
    // replicas — including the freshly joined site — not the stale
    // recorded sources.
    let recover_at = ens.engine.now();
    ens.recover_storage_node(VICTIM);
    ens.engine
        .run_until(recover_at + SimDuration::from_secs(30));
    assert_eq!(
        ens.migrations_pending(),
        0,
        "rebalance migrations did not drain after recovery"
    );
    assert_eq!(
        dirty_ranges(&ens),
        0,
        "dirty log did not drain after crash -> rebalance -> recover"
    );

    // A full read pass completes with no client-visible failures.
    start_bulk_readers(&mut ens, "fo", MB * 1024 * 1024);
    run_phase(&mut ens, deadline);
    for i in 0..CLIENTS {
        assert!(
            ens.client(i).finished(),
            "reader {i} stalled after recovery"
        );
        assert_eq!(
            ens.client(i).stats().timeouts,
            0,
            "reader {i} saw timeouts after recovery"
        );
    }
}
