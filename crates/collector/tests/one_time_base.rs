//! The collector's ticks and the runtime's `omp_get_wtime` read one
//! process clock. This file holds a single test so that nothing else in
//! its process starts either clock first: a private epoch in
//! `get_wtime` would begin at its own first call and trail the ticks by
//! the sleep below.

use std::time::Duration;

#[test]
fn get_wtime_and_collector_ticks_share_one_epoch() {
    collector::clock::ticks();
    std::thread::sleep(Duration::from_millis(20));
    let wtime_ns = omprt::userapi::get_wtime() * 1e9;
    let ticks = collector::clock::ticks() as f64;
    assert!(
        (ticks - wtime_ns).abs() < 2e6,
        "omp_get_wtime reads {wtime_ns} ns, collector ticks {ticks} ns: two time bases"
    );
}
