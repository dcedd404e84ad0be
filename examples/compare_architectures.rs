//! Head-to-head: best single hash vs multi-hash vs the stratified-sampler
//! baseline on the same gcc-like stream, with the paper's error metric.
//!
//! ```text
//! cargo run --release --example compare_architectures
//! ```

use mhp::prelude::*;

fn main() -> Result<(), mhp::ConfigError> {
    let interval = IntervalConfig::short();
    let events = || Benchmark::Gcc.value_stream(7).take(500_000);

    println!("gcc-like value stream, 10K-event intervals, 1% threshold\n");
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "architecture", "FP %", "FN %", "NP %", "NN %", "total %"
    );

    // Best single hash: 2K entries, retaining + resetting.
    let mut bsh = MultiHashProfiler::single_hash(interval, SingleHashConfig::best(), 1)?;
    report(
        "single hash (P1 R1, 2K)",
        run_comparison(&mut bsh, events()),
    );

    // Multi-hash, the paper's best: 4 x 512 counters, C1 R0.
    let mut mh = MultiHashProfiler::new(interval, MultiHashConfig::best(), 1)?;
    report(
        "multi-hash (4 tables, C1 R0)",
        run_comparison(&mut mh, events()),
    );

    // Plain multi-hash without conservative update, for contrast.
    let mut mh_plain = MultiHashProfiler::new(
        interval,
        MultiHashConfig::new(2048, 4)?.with_conservative_update(false),
        1,
    )?;
    report(
        "multi-hash (4 tables, C0 R0)",
        run_comparison(&mut mh_plain, events()),
    );

    // The prior-art baseline: stratified sampling into software.
    let config = StratifiedConfig::new(2048)?
        .with_sampling_threshold(16)
        .with_tags(10, 64);
    let mut strat = StratifiedSampler::new(interval, config, 1)?;
    let result = run_comparison(&mut strat, events());
    let interrupts = strat.overhead().interrupts;
    report("stratified sampler (2K)", result);
    println!(
        "\nthe stratified sampler interrupted software {interrupts} times;\n\
         the multi-hash profiler needed zero software interaction."
    );
    Ok(())
}

fn report(label: &str, result: mhp::ComparisonResult) {
    let b = result.series().mean_breakdown();
    println!(
        "{label:<28} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        b.false_positive * 100.0,
        b.false_negative * 100.0,
        b.neutral_positive * 100.0,
        b.neutral_negative * 100.0,
        b.total_percent()
    );
}
