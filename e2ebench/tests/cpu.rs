//! Pinning confines the calling thread to one CPU it was allowed to use.

use e2ebench::cpu::pin_to_one_cpu;

#[test]
fn a_pinned_thread_may_run_on_exactly_one_cpu() {
    // On a thread of its own, so the test harness's threads stay free.
    std::thread::spawn(|| {
        let before = std::thread::available_parallelism().expect("affinity readable");
        let cpu = pin_to_one_cpu().expect("pin");
        assert!(cpu < 1024);
        assert_eq!(
            std::thread::available_parallelism()
                .expect("affinity readable")
                .get(),
            1,
            "was {before}"
        );
        // A thread started afterwards inherits the single CPU.
        let inherited =
            std::thread::spawn(|| std::thread::available_parallelism().map(|n| n.get()))
                .join()
                .expect("child thread");
        assert_eq!(inherited.expect("affinity readable"), 1);
    })
    .join()
    .expect("pinned thread");
}
