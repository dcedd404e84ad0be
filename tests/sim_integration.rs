//! Toy-CPU → profiler integration: the full ATOM-like pipeline.

use mhp::prelude::*;
use mhp::trace::sim::{programs, Machine, ProfilingHook, TupleCollector};

/// Runs `program`, splitting events into load and edge streams.
fn run_program(program: mhp::trace::sim::Program) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut machine = Machine::new(program);
    let mut hook = TupleCollector::new();
    machine.run(200_000_000, &mut hook).expect("program halts");
    hook.into_parts()
}

#[test]
fn array_sum_loads_profile_to_the_dominant_value() {
    let (loads, _) = run_program(programs::array_sum(5_000));
    let interval = IntervalConfig::new(1_000, 0.05).unwrap();
    let mut profiler = MultiHashProfiler::new(interval, MultiHashConfig::best(), 1).unwrap();
    let mut last = None;
    for &t in &loads {
        if let Some(p) = profiler.observe(t) {
            last = Some(p);
        }
    }
    let profile = last.expect("intervals complete");
    // Value 5 dominates (6 of every 7 loads).
    let top = &profile.candidates()[0];
    assert_eq!(top.tuple.value().as_u64(), 5);
    assert!(top.count > 700);
}

#[test]
fn dispatch_loop_edges_profile_to_the_dispatch_targets() {
    let (_, edges) = run_program(programs::dispatch_loop(64, 30_000));
    let interval = IntervalConfig::new(10_000, 0.01).unwrap();
    let mut profiler = MultiHashProfiler::new(interval, MultiHashConfig::best(), 2).unwrap();
    let mut last = None;
    for &t in &edges {
        if let Some(p) = profiler.observe(t) {
            last = Some(p);
        }
    }
    let profile = last.expect("intervals complete");
    // The four dispatch edges (one per handler) must all be captured: each
    // covers ~1/6 of all edges (dispatch + handler jump + loop branch per
    // iteration).
    let dispatch_sources: std::collections::HashSet<u64> =
        profile.tuples().map(|t| t.pc().as_u64()).collect();
    assert!(
        profile.len() >= 5,
        "expected the dispatch fan-out plus loop edges, got {}",
        profile.len()
    );
    assert!(!dispatch_sources.is_empty());
}

#[test]
fn single_and_multi_hash_agree_on_an_easy_program() {
    // array_sum produces exactly two load tuples (values 5 and 99): no
    // aliasing pressure, so both architectures must produce identical
    // candidate sets. (byte_histogram would NOT qualify: its drifting
    // bucket-counter loads are genuine noise that can alias.)
    let (loads, _) = run_program(programs::array_sum(8_000));
    let interval = IntervalConfig::new(2_000, 0.05).unwrap();
    let mut single = MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), 3).unwrap();
    let mut multi = MultiHashProfiler::new(interval, MultiHashConfig::best(), 3).unwrap();
    let mut single_profiles = Vec::new();
    let mut multi_profiles = Vec::new();
    for &t in &loads {
        if let Some(p) = single.observe(t) {
            single_profiles.push(p);
        }
        if let Some(p) = multi.observe(t) {
            multi_profiles.push(p);
        }
    }
    assert_eq!(single_profiles.len(), multi_profiles.len());
    for (s, m) in single_profiles.iter().zip(multi_profiles.iter()) {
        let s_tuples: std::collections::BTreeSet<Tuple> = s.tuples().collect();
        let m_tuples: std::collections::BTreeSet<Tuple> = m.tuples().collect();
        assert_eq!(s_tuples, m_tuples, "candidate sets must agree");
    }
}

#[test]
fn linked_list_walk_profiles_pointer_loads() {
    let (loads, _) = run_program(programs::linked_list_walk(8, 3, 50_000));
    // The walk visits a small cycle: the loaded "next" pointers repeat, so
    // with an 8-node list each pointer value is ~1/8 of the loads.
    let interval = IntervalConfig::new(5_000, 0.05).unwrap();
    let mut profiler = MultiHashProfiler::new(interval, MultiHashConfig::best(), 4).unwrap();
    let mut last = None;
    for &t in &loads {
        if let Some(p) = profiler.observe(t) {
            last = Some(p);
        }
    }
    let profile = last.expect("intervals complete");
    // gcd(3, 8) = 1: the walk cycles through all 8 nodes.
    assert_eq!(profile.len(), 8, "all eight next-pointers are hot");
}

#[test]
fn profiling_hooks_see_consistent_event_totals() {
    struct Counter {
        loads: u64,
        edges: u64,
    }
    impl ProfilingHook for Counter {
        fn on_load(&mut self, _pc: u64, _value: u64) {
            self.loads += 1;
        }
        fn on_edge(&mut self, _pc: u64, _target: u64) {
            self.edges += 1;
        }
    }
    let program = programs::array_sum(700);
    let mut machine = Machine::new(program);
    let mut hook = Counter { loads: 0, edges: 0 };
    machine.run(100_000_000, &mut hook).unwrap();
    assert_eq!(hook.loads, 700, "one load per array element");
    // Each init iteration takes a conditional branch (+ a jump on the 6/7
    // path) and each sum iteration takes one loop branch.
    assert!(hook.edges >= 1_400);
}
