//! The OMPT-vocabulary adapter over ORA: a tool written against OMPT-style
//! callbacks observing our ORA runtime.

use std::sync::{Arc, Mutex};

use collector::{Endpoint, MutexKind, OmptAdapter, OmptRecord, RuntimeHandle, SyncRegionKind};
use omprt::{OpenMp, WordLock};

/// The attached adapter (the tool stays attached while it lives) and the
/// records the tool has received.
fn attach(rt: &OpenMp) -> (OmptAdapter, Arc<Mutex<Vec<OmptRecord>>>) {
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    let attached = OmptAdapter::attach(
        handle,
        Arc::new(move |r| {
            l.lock().unwrap().push(r);
        }),
    )
    .unwrap();
    (attached, log)
}

#[test]
fn parallel_begin_end_pairs_with_ids() {
    let rt = OpenMp::with_threads(2);
    let (_attached, log) = attach(&rt);
    rt.parallel(|_| {});
    rt.parallel(|_| {});
    let log = log.lock().unwrap();
    let begins: Vec<u64> = log
        .iter()
        .filter_map(|r| match r {
            OmptRecord::ParallelBegin {
                parallel_id,
                parent_parallel_id,
            } => {
                assert_eq!(*parent_parallel_id, 0);
                Some(*parallel_id)
            }
            _ => None,
        })
        .collect();
    let ends: Vec<u64> = log
        .iter()
        .filter_map(|r| match r {
            OmptRecord::ParallelEnd { parallel_id } => Some(*parallel_id),
            _ => None,
        })
        .collect();
    assert_eq!(begins, vec![1, 2]);
    assert_eq!(ends, vec![1, 2]);
}

#[test]
fn sync_regions_carry_kind_and_endpoint() {
    let rt = OpenMp::with_threads(2);
    let (_attached, log) = attach(&rt);
    rt.parallel(|ctx| {
        ctx.barrier();
    });
    let log = log.lock().unwrap();
    let explicit_begins = log
        .iter()
        .filter(|r| {
            matches!(
                r,
                OmptRecord::SyncRegion {
                    kind: SyncRegionKind::BarrierExplicit,
                    endpoint: Endpoint::Begin,
                    ..
                }
            )
        })
        .count();
    let implicit_begins = log
        .iter()
        .filter(|r| {
            matches!(
                r,
                OmptRecord::SyncRegion {
                    kind: SyncRegionKind::BarrierImplicit,
                    endpoint: Endpoint::Begin,
                    ..
                }
            )
        })
        .count();
    assert_eq!(explicit_begins, 2);
    assert_eq!(implicit_begins, 2);
}

#[test]
fn mutex_callbacks_fire_on_contended_critical() {
    static OMPT_TEST: WordLock = WordLock::new();
    let rt = OpenMp::with_threads(4);
    let (_attached, log) = attach(&rt);
    rt.parallel(|ctx| {
        ctx.critical(&OMPT_TEST, || {
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
    });
    let log = log.lock().unwrap();
    let acquires = log
        .iter()
        .filter(|r| {
            matches!(
                r,
                OmptRecord::MutexAcquire {
                    kind: MutexKind::Critical,
                    ..
                }
            )
        })
        .count();
    let acquireds = log
        .iter()
        .filter(|r| {
            matches!(
                r,
                OmptRecord::MutexAcquired {
                    kind: MutexKind::Critical,
                    ..
                }
            )
        })
        .count();
    assert_eq!(acquires, acquireds);
    assert!(
        acquires >= 1,
        "4 threads in a sleeping critical must contend"
    );
}

#[test]
fn work_callbacks_bracket_loops() {
    let rt = OpenMp::with_threads(2);
    let (_attached, log) = attach(&rt);
    rt.parallel(|ctx| {
        ctx.for_each(0, 31, |_| {});
    });
    let log = log.lock().unwrap();
    let begins = log
        .iter()
        .filter(|r| {
            matches!(
                r,
                OmptRecord::Work {
                    endpoint: Endpoint::Begin,
                    ..
                }
            )
        })
        .count();
    let ends = log
        .iter()
        .filter(|r| {
            matches!(
                r,
                OmptRecord::Work {
                    endpoint: Endpoint::End,
                    ..
                }
            )
        })
        .count();
    assert_eq!(begins, 2, "one loop per thread");
    assert_eq!(ends, 2);
}

#[test]
fn taskwait_maps_to_sync_region() {
    let rt = OpenMp::with_threads(2);
    let (_attached, log) = attach(&rt);
    rt.parallel(|ctx| {
        if ctx.is_master() {
            ctx.task(|| {});
        }
        ctx.taskwait();
    });
    let log = log.lock().unwrap();
    let tw = log
        .iter()
        .filter(|r| {
            matches!(
                r,
                OmptRecord::SyncRegion {
                    kind: SyncRegionKind::Taskwait,
                    ..
                }
            )
        })
        .count();
    assert!(tw >= 2, "at least one begin/end pair, saw {tw}");
}
