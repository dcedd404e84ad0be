//! The ladder's delta arithmetic: each rung is reported as its cost on top
//! of the rung below.

use e2ebench::ladder::Rungs;

fn rungs(server_rtt_us: f64) -> Rungs {
    Rungs {
        core_ns: 60.0,
        push_slice_ns: 85.0,
        ingest_chunk_ns: 120.0,
        ingest_chunk_wall_us: 300.0,
        server_rtt_us,
    }
}

#[test]
fn handoff_is_rung_two_minus_rung_one() {
    assert_eq!(rungs(340.0).handoff_ns(), 25.0);
}

#[test]
fn request_overhead_is_rung_four_minus_rung_three_per_chunk() {
    assert_eq!(rungs(340.0).request_overhead_us(), 40.0);
}

#[test]
fn a_rung_cheaper_than_the_one_below_reports_a_negative_delta() {
    assert_eq!(rungs(280.0).request_overhead_us(), -20.0);
}
