//! Golden CLRWIRE1 layout: the exact encoded bytes of one frame per
//! kind 1–10, including every absent-option encoding (no `score`/`p_rc`,
//! the fleet-wide stats filter, no expected generation).
//!
//! Every other wire test round-trips through the same codec, so a
//! symmetric change to encoder and decoder would pass them all. These
//! byte strings were recorded once from the codec and must never be
//! edited to follow a code change: a diff here is a protocol break.

use clr_dse::QosSpec;
use clr_serve::wire::{
    ErrorFrame, Frame, PromoteRequest, PromoteResponse, PromoteStatus, Request, Response,
    StatsRequest, StatsResponse, SwapDbRequest, SwapDbResponse, SwapStatus,
};
use clr_serve::{DecisionRecord, FaultKind, ServeStatus};

fn decision(score: Option<f64>, p_rc: Option<f64>) -> DecisionRecord {
    DecisionRecord {
        event: 3,
        time: 103.25,
        spec: QosSpec::new(120.5, 0.92),
        feasible: 12,
        from: 2,
        to: 5,
        drc: 1.75,
        score,
        p_rc,
        violated: score.is_none(),
        status: if score.is_some() {
            ServeStatus::Normal
        } else {
            ServeStatus::DegradedHold
        },
        fault: score.is_none().then_some(FaultKind::ALL[2]),
    }
}

/// `(frame, hex of its encoded bytes)`, one row per layout case.
fn golden() -> Vec<(Frame, &'static str)> {
    vec![
        (
            Frame::Request(Request {
                seq: 7,
                tenant: "cam0".into(),
                time: 103.25,
                spec: QosSpec::new(120.5, 0.92),
            }),
            "434c52574952453101000100000000002600000000000000621ed733dcc92e2f07000000000000000000000000d059400000000000205e40713d0ad7a370ed3f040063616d30",
        ),
        (
            Frame::Response(Response {
                seq: 7,
                tenant: "cam0".into(),
                decision: decision(Some(0.875), Some(0.5)),
            }),
            "434c52574952453101000200000000006300000000000000a974c8e340f0aae00700000000000000040063616d3003000000000000000000000000d059400000000000205e40713d0ad7a370ed3f0c0000000000000002000000000000000500000000000000000000000000fc3f01000000000000ec3f01000000000000e03f000000",
        ),
        (
            Frame::Response(Response {
                seq: 8,
                tenant: "nav".into(),
                decision: decision(None, None),
            }),
            "434c525749524531010002000000000062000000000000002001212dfad843df080000000000000003006e617603000000000000000000000000d059400000000000205e40713d0ad7a370ed3f0c0000000000000002000000000000000500000000000000000000000000fc3f000000000000000000000000000000000000010303",
        ),
        (
            Frame::Error(ErrorFrame {
                seq: 9,
                message: "unknown tenant \"ghost\"".into(),
            }),
            "434c525749524531010003000000000020000000000000006d95510cab077fdb09000000000000001600756e6b6e6f776e2074656e616e74202267686f737422",
        ),
        (Frame::Shutdown, "434c5257495245310100040000000000000000000000000025232284e49cf2cb"),
        (Frame::Stats(StatsRequest::fleet(11, true)), "434c52574952453101000500000000000d00000000000000ef0de11c97fa5d7b0b000000000000000200010000"),
        (
            Frame::Stats(StatsRequest {
                seq: 12,
                version: 2,
                flight: false,
                tenant: Some("cam0".into()),
            }),
            "434c525749524531010005000000000011000000000000009453c0b07952738a0c00000000000000020000040063616d30",
        ),
        (
            Frame::StatsResponse(StatsResponse {
                seq: 11,
                snapshot: "{\"schema\":2}".into(),
            }),
            "434c52574952453101000600000000001800000000000000e1f054c4b96f854e0b000000000000000c0000007b22736368656d61223a327d",
        ),
        (
            Frame::SwapDb(SwapDbRequest {
                seq: 21,
                tenant: "cam0".into(),
                expected_generation: Some(3),
                path: "out/fleet.snap".into(),
            }),
            "434c52574952453101000700000000002700000000000000b2b3990f3ea446921500000000000000040063616d300103000000000000000e006f75742f666c6565742e736e6170",
        ),
        (
            Frame::SwapDb(SwapDbRequest {
                seq: 22,
                tenant: "nav".into(),
                expected_generation: None,
                path: "gen é.snap".into(),
            }),
            "434c525749524531010007000000000023000000000000009c3919974dfa0210160000000000000003006e61760000000000000000000b0067656e20c3a92e736e6170",
        ),
        (
            Frame::SwapDbResponse(SwapDbResponse {
                seq: 21,
                tenant: "cam0".into(),
                status: SwapStatus::VerifyFailed,
                generation: 1,
            }),
            "434c52574952453101000800000000001700000000000000b9ee144db7efdb9c1500000000000000040063616d30010100000000000000",
        ),
        (
            Frame::Promote(PromoteRequest {
                seq: 31,
                tenant: "cam0".into(),
            }),
            "434c52574952453101000900000000000e00000000000000b72e6b46afecdd5f1f00000000000000040063616d30",
        ),
        (
            Frame::PromoteResponse(PromoteResponse {
                seq: 31,
                tenant: "cam0".into(),
                status: PromoteStatus::NoLearner,
                promotions: 2,
            }),
            "434c52574952453101000a0000000000170000000000000040c77474342ae8db1f00000000000000040063616d30010200000000000000",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_kind_encodes_to_its_recorded_bytes() {
    let mut kinds: Vec<u8> = Vec::new();
    for (frame, expected) in golden() {
        let bytes = frame.to_bytes();
        assert_eq!(hex(&bytes), expected, "layout of {frame:?}");
        let (decoded, used) = Frame::from_bytes(&bytes).unwrap();
        assert_eq!((decoded, used), (frame.clone(), bytes.len()));
        kinds.push(frame.kind());
    }
    kinds.dedup();
    assert_eq!(kinds, (1..=10).collect::<Vec<u8>>(), "one row per kind");
}
