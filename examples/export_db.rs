//! Exporting a BaseD design-point database through the text codec, ready
//! for auditing with `clr-verify db`, plus the binary snapshot container
//! the serving layer loads (`clr-verify snapshot`, `clr-serve replay`),
//! plus the ReD database grown from that BaseD under a storage cap that
//! leaves room for only eight extras, written through the same codec.
//!
//! Run with: `cargo run --release --example export_db [OUT_PATH] [SNAP_PATH]
//! [RED_PATH]` (defaults: `target/based.db`, `target/based.snap`,
//! `target/red.db`).

use hybrid_clr::prelude::*;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/based.db".to_string());
    let snap_out = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "target/based.snap".to_string());
    let red_out = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "target/red.db".to_string());
    let graph = jpeg_encoder();
    let platform = Platform::dac19();
    let config = DseConfig {
        ga: GaParams::small(),
        mode: ExplorationMode::Full,
        reference: None,
        max_points: None,
    };
    let db = explore_based(
        &graph,
        &platform,
        FaultModel::default(),
        ConfigSpace::fine(),
        &config,
        7,
    );
    std::fs::write(&out, db.to_text()).expect("write database file");
    println!("wrote {} point(s) to {out}", db.len());

    // Round-trip sanity before anyone audits the file.
    let back = DesignPointDb::from_text(&db.to_text()).expect("own output re-parses");
    assert_eq!(back, db, "text codec must round-trip");

    // The same database, published as a checksummed serving snapshot with
    // the descriptors a tenant needs to rebuild its runtime context. An
    // export is the root of its replication lineage: generation 0, the
    // fixed "export" publisher, every point stamped at generation 0 — the
    // CLRSNAP2 container `clr-store publish` and the hot-swap path build
    // on.
    let snapshot = LineageSnapshot::genesis(Snapshot::new("jpeg", "dac19", db), "export");
    snapshot.verify().expect("a genesis lineage verifies");
    snapshot.write_file(&snap_out).expect("write snapshot file");
    let reread = LineageSnapshot::read_file(&snap_out).expect("own snapshot re-decodes");
    assert_eq!(
        reread.snapshot().db(),
        snapshot.snapshot().db(),
        "snapshot codec must round-trip"
    );
    assert_eq!(reread.lineage().generation, 0, "exports are lineage roots");
    println!(
        "wrote snapshot {snap_out} (graph {}, platform {}, generation {})",
        snapshot.snapshot().graph_desc(),
        snapshot.snapshot().platform_desc(),
        snapshot.lineage().generation,
    );
    export_red(&graph, &platform, snapshot.snapshot().db(), &red_out);
}

/// Grows ReD from `based` with room for only eight extras, checks that
/// the text codec round-trips, and writes the database to `out`.
fn export_red(graph: &TaskGraph, platform: &Platform, based: &DesignPointDb, out: &str) {
    let config = RedConfig {
        ga: GaParams::small(),
        max_total: Some(based.len() + 8),
        ..RedConfig::default()
    };
    let red = explore_red(
        graph,
        platform,
        FaultModel::default(),
        ConfigSpace::fine(),
        ExplorationMode::Full,
        based,
        &config,
        7,
    );
    std::fs::write(out, red.to_text()).expect("write ReD database file");
    let back = DesignPointDb::from_text(&red.to_text()).expect("own output re-parses");
    assert_eq!(back, red, "text codec must round-trip");
    println!(
        "wrote {} point(s) to {out} ({} BaseD, {} extras)",
        red.len(),
        based.len(),
        red.count_origin(PointOrigin::ReconfigAware)
    );
}
