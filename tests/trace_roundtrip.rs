//! Integration of the simulator with the measurement substrate:
//! simulated reports survive the wire codec, the segmented archive,
//! and snapshot reconstruction unchanged.

use magellan::netsim::{SimTime, StudyCalendar};
use magellan::overlay::{OverlaySim, SimConfig};
use magellan::prelude::*;
use magellan::trace::archive::read_archive;
use magellan::trace::{wire, ArchiveConfig, ArchiveWriter, Shard, SnapshotBuilder, TraceStore};
use magellan::workload::DiurnalProfile;
use std::sync::OnceLock;

fn sim_store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let scenario = Scenario::builder(31337, 0.0004)
            .calendar(StudyCalendar { window_days: 1 })
            .diurnal(DiurnalProfile::flat())
            .flash_crowds(vec![])
            .build();
        let mut sim = OverlaySim::new(scenario, SimConfig::default());
        let (store, summary) = sim.run_collecting().expect("run succeeds");
        assert!(
            summary.reports > 100,
            "too few reports for the roundtrip suite"
        );
        store
    })
}

#[test]
fn every_simulated_report_roundtrips_on_the_wire() {
    let store = sim_store();
    for r in store.reports().iter().take(500) {
        let datagram = wire::encode(r);
        let back = wire::decode(&mut datagram.clone()).expect("simulated report decodes");
        assert_eq!(&back, r);
    }
}

/// Writes `store` to a fresh segmented archive (small segments, so
/// the trace spans several) and reads it back.
fn archive_roundtrip(store: &TraceStore, tag: &str) -> TraceStore {
    let dir = std::env::temp_dir().join(format!("magellan-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = ArchiveWriter::create(
        &dir,
        ArchiveConfig {
            segment_bytes: 64 * 1024,
        },
    )
    .unwrap();
    for r in store.reports() {
        writer.append(r).unwrap();
    }
    writer.finish().unwrap();
    let mut reloaded = TraceStore::new();
    let recovery = read_archive(&dir, |r| reloaded.push(r)).unwrap();
    assert!(recovery.is_clean(), "{recovery:?}");
    assert!(recovery.sealed_segments > 1, "{recovery:?}");
    std::fs::remove_dir_all(&dir).unwrap();
    reloaded
}

#[test]
fn store_persistence_preserves_everything() {
    let store = sim_store();
    let reloaded = archive_roundtrip(store, "persist");
    assert_eq!(reloaded.len(), store.len());
    assert_eq!(reloaded.reports(), store.reports());
}

#[test]
fn snapshots_from_reloaded_store_match() {
    let store = sim_store();
    let reloaded = archive_roundtrip(store, "snapshot");
    let t = SimTime::at(0, 12, 0);
    let a = SnapshotBuilder::new(store).at(t);
    let b = SnapshotBuilder::new(&reloaded).at(t);
    assert_eq!(a.stable_count(), b.stable_count());
    assert_eq!(a.known_peers(), b.known_peers());
}

#[test]
fn simulated_reports_pass_server_validation_via_wire() {
    let store = sim_store();
    let mut shard = Shard::new(SimTime::at(2, 0, 0), usize::MAX);
    for r in store.reports().iter().take(300) {
        let status = shard.ingest_wire(&wire::encode(r));
        assert!(
            status.is_delivered(),
            "simulated datagram bounced: {status:?}"
        );
    }
    let st = shard.stats();
    assert_eq!(st.rejected + st.malformed, 0);
    assert_eq!(st.admitted, 300.min(store.len()) as u64);
}

#[test]
fn snapshot_population_is_monotone_with_staleness() {
    use magellan::netsim::SimDuration;
    let store = sim_store();
    let t = SimTime::at(0, 12, 0);
    let tight = SnapshotBuilder::new(store)
        .staleness(SimDuration::from_mins(10))
        .at(t)
        .stable_count();
    let loose = SnapshotBuilder::new(store)
        .staleness(SimDuration::from_mins(30))
        .at(t)
        .stable_count();
    assert!(tight <= loose, "tight {tight} > loose {loose}");
    assert!(loose > 0);
}

#[test]
fn report_times_respect_the_study_schedule() {
    use magellan::trace::{FIRST_REPORT_DELAY, REPORT_INTERVAL};
    let store = sim_store();
    let mut by_peer: std::collections::HashMap<PeerAddr, Vec<SimTime>> =
        std::collections::HashMap::new();
    for r in store.reports() {
        by_peer.entry(r.addr).or_default().push(r.time);
    }
    let mut spacing_checked = 0;
    for times in by_peer.values() {
        for w in times.windows(2) {
            assert_eq!(w[1].since(w[0]), REPORT_INTERVAL);
            spacing_checked += 1;
        }
    }
    assert!(spacing_checked > 50, "spacing checks: {spacing_checked}");
    // First reports happen at least FIRST_REPORT_DELAY after the
    // window start (peers cannot join before t = 0).
    let earliest = store.reports().iter().map(|r| r.time).min().unwrap();
    assert!(earliest >= SimTime::ORIGIN + FIRST_REPORT_DELAY);
}
