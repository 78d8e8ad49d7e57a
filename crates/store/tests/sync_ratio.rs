//! Delta sync economics on a 100k-point database: the positional
//! changeset a replica pulls, against the sealed full container, at 1%,
//! 10% and 50% churn. The byte volumes are exact and pinned; at 1% churn
//! the changeset must stay within 5% of the full-snapshot bytes.

use clr_serve::Snapshot;
use clr_store::{synth_db, Store};

/// The publisher name is sealed into every generation, so it is part of
/// the pinned byte volumes.
const PUBLISHER: &str = "bench";

#[test]
fn hundred_k_point_db_at_one_percent_churn_syncs_in_five_percent_of_bytes() {
    let n = 100_000;
    // (churn %, changed points, changeset bytes, full snapshot bytes)
    let sweep = [
        (1, 1_000, 109_029, 11_203_423),
        (10, 10_000, 1_089_284, 11_203_381),
        (50, 50_000, 5_445_969, 11_203_186),
    ];
    for (churn_pct, changed, delta_bytes, full_bytes) in sweep {
        let period = 100 / churn_pct;
        let mut store = Store::in_memory();
        store
            .publish(
                Snapshot::new("jpeg", "dac19", synth_db("based", n, |_| 1)),
                PUBLISHER,
            )
            .unwrap();
        // Every `period`-th point changes content: exactly `churn_pct`%.
        store
            .publish(
                Snapshot::new(
                    "jpeg",
                    "dac19",
                    synth_db("based", n, |i| if i % period == 0 { 2 } else { 1 }),
                ),
                PUBLISHER,
            )
            .unwrap();

        let target = store.get(1).unwrap().to_bytes();
        let cs = store.changeset(0, 1).unwrap();
        assert_eq!(cs.ops.len(), changed, "{churn_pct}% churn");
        let (delta, full) = (cs.byte_len(), target.len());
        assert_eq!(
            (delta, full),
            (delta_bytes, full_bytes),
            "{churn_pct}% churn"
        );
        if churn_pct == 1 {
            assert!(
                delta * 20 <= full,
                "changeset is {delta} bytes, full snapshot {full} bytes — ratio {:.2}% exceeds 5%",
                delta as f64 * 100.0 / full as f64
            );
        }

        // And the delta is not just small, it is exact.
        let mut replica = Store::in_memory();
        replica.merge(&store.get(0).unwrap()).unwrap();
        replica.merge_changeset(&cs).unwrap();
        assert_eq!(
            replica.head().unwrap().unwrap().to_bytes(),
            target,
            "{churn_pct}% churn"
        );
    }
}
