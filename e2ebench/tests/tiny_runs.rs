//! A tiny run of each workload against a real server process: every
//! output check must pass, and a corrupted expectation must be caught.

use std::path::PathBuf;

use e2ebench::drive::run_round;
use e2ebench::ladder;
use e2ebench::workload::{Inputs, Scale, Workload};

fn exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_e2ebench"))
}

fn rounds_pass(workload: Workload) {
    let inputs = Inputs::generate(workload, Scale::Tiny, 7);
    assert!(inputs.weighted_error_pct.is_finite());
    assert!(inputs.scored_intervals > 0);
    for (i, set) in inputs.sets.iter().enumerate() {
        let round = run_round(&inputs.shape, set, &exe(), i % 2 == 1);
        assert!(
            round.mismatches.is_empty(),
            "{} set {i}: {:?}",
            workload.name(),
            round.mismatches
        );
        assert_eq!(round.failed, 0);
        assert_eq!(round.ingest_events, set.total_events());
        assert_eq!(
            round.ingest_rtt_us.len(),
            set.sessions.iter().map(|s| s.chunks.len()).sum()
        );
        assert!(!round.agg_converge_s.is_empty());
        assert!(round.agg_converge_s.iter().all(|&s| s > 0.0));
        assert!(round.server_threads > 0);
        assert!(round.peak_rss_mb > 0.0);
        assert_eq!(round.spans.is_empty(), i % 2 == 0, "spans only when traced");
    }
}

#[test]
fn tiny_stream_round_passes_its_output_checks() {
    rounds_pass(Workload::Stream);
}

#[test]
fn tiny_fanout_round_passes_its_output_checks() {
    rounds_pass(Workload::Fanout);
}

#[test]
fn tiny_mixed_round_passes_its_output_checks() {
    rounds_pass(Workload::Mixed);
}

#[test]
fn a_served_profile_that_differs_from_the_offline_run_fails_the_round() {
    let mut inputs = Inputs::generate(Workload::Stream, Scale::Tiny, 7);
    let set = &mut inputs.sets[0];
    set.sessions[0].expected[1].candidates[0].count += 1;
    let round = run_round(&inputs.shape, set, &exe(), false);
    assert!(
        round
            .mismatches
            .iter()
            .any(|m| m.contains("interval 1 differs")),
        "{:?}",
        round.mismatches
    );
}

#[test]
fn tiny_ladder_reports_every_rung() {
    let inputs = Inputs::generate(Workload::Fanout, Scale::Tiny, 7);
    let report = ladder::run(&inputs.shape, &inputs.sets[0], &exe(), 1).expect("ladder");
    let r = report.rungs;
    for value in [
        r.core_ns,
        r.push_slice_ns,
        r.ingest_chunk_ns,
        r.ingest_chunk_wall_us,
        r.server_rtt_us,
        report.decode_ns,
        report.session_start_us,
        report.session_finish_us,
        report.top_k_us,
        report.open_session_us,
        report.attach_rtt_us,
        report.query_service_us,
    ] {
        assert!(value.is_finite() && value > 0.0, "{report:?}");
    }
    assert!((0.0..=1.0).contains(&report.counter_occupancy));
    assert!((0.0..=1.0).contains(&report.promotion_drop_ratio));
}
