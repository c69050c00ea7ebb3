//! OpenMP user-level library routines (`omp_*`).
//!
//! The runtime library also implements "OpenMP's user-level library
//! functions" (paper §III). These are the query routines a program calls
//! directly; they answer from the same thread-local context the collector
//! provider uses.

use ora_core::clock;

use crate::runtime::OpenMp;
use crate::tls;

impl OpenMp {
    /// `omp_get_thread_num`: the calling thread's number in the current
    /// team (0 outside parallel regions).
    pub fn get_thread_num(&self) -> usize {
        tls::with_binding(self.instance_id(), |gtid, _, _| gtid).unwrap_or(0)
    }

    /// `omp_get_num_threads`: the current team size (1 outside parallel
    /// regions).
    pub fn get_num_threads(&self) -> usize {
        tls::with_binding(self.instance_id(), |_, _, team| team.map(|t| t.size))
            .flatten()
            .unwrap_or(1)
    }

    /// `omp_in_parallel`: whether the calling thread is inside an active
    /// parallel region of this runtime.
    pub fn in_parallel(&self) -> bool {
        tls::in_parallel(self.instance_id())
    }

    /// `omp_get_max_threads`: the team size the next parallel region will
    /// use by default.
    pub fn get_max_threads(&self) -> usize {
        self.num_threads()
    }

    /// `omp_get_num_procs`: hardware threads available to the process.
    pub fn get_num_procs(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// `omp_get_wtime`: elapsed wall-clock seconds since an arbitrary fixed
/// point in the past — the epoch of the process clock
/// ([`ora_core::clock`]), so it agrees with every collector tick.
pub fn get_wtime() -> f64 {
    clock::to_secs(clock::ticks())
}

/// `omp_get_wtick`: timer resolution in seconds.
pub fn get_wtick() -> f64 {
    1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn thread_queries_outside_regions() {
        let rt = OpenMp::with_threads(3);
        assert_eq!(rt.get_thread_num(), 0);
        assert_eq!(rt.get_num_threads(), 1);
        assert!(!rt.in_parallel());
        assert_eq!(rt.get_max_threads(), 3);
        assert!(rt.get_num_procs() >= 1);
    }

    #[test]
    fn thread_queries_inside_regions() {
        let rt = OpenMp::with_threads(3);
        let seen = Mutex::new(Vec::new());
        let in_par = AtomicUsize::new(0);
        rt.parallel(|ctx| {
            assert_eq!(rt.get_num_threads(), 3);
            assert_eq!(rt.get_thread_num(), ctx.thread_num());
            if rt.in_parallel() {
                in_par.fetch_add(1, Ordering::SeqCst);
            }
            seen.lock().unwrap().push(rt.get_thread_num());
        });
        assert_eq!(in_par.load(Ordering::SeqCst), 3);
        let mut ids = seen.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(!rt.in_parallel());
    }

    #[test]
    fn set_num_threads_changes_subsequent_teams() {
        let rt = OpenMp::with_threads(2);
        rt.parallel(|ctx| assert_eq!(ctx.num_threads(), 2));
        rt.set_num_threads(4);
        assert_eq!(rt.get_max_threads(), 4);
        rt.parallel(|ctx| assert_eq!(ctx.num_threads(), 4));
        rt.set_num_threads(0); // clamps to 1
        rt.parallel(|ctx| assert_eq!(ctx.num_threads(), 1));
    }

    #[test]
    fn wtime_advances() {
        let a = get_wtime();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = get_wtime();
        assert!(b > a);
        assert!(get_wtick() > 0.0);
    }
}
