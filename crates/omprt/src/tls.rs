//! Thread-local runtime contexts.
//!
//! Each OS thread can serve as an OpenMP thread of one or more runtime
//! instances over its lifetime (a test may create several runtimes; in the
//! multi-zone simulation every rank thread owns its own instance). This
//! module maps `(calling thread, runtime instance)` to that thread's
//! descriptor and current team, which is exactly what the collector-API
//! provider needs to answer "what is the *calling* thread doing".

use std::cell::RefCell;
use std::sync::Arc;

use crate::descriptor::ThreadDescriptor;
use crate::team::Team;

#[derive(Clone)]
struct Entry {
    instance: u64,
    gtid: usize,
    desc: Arc<ThreadDescriptor>,
    team: Option<Arc<Team>>,
}

thread_local! {
    static ENTRIES: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// Bind the calling thread to runtime `instance` as thread `gtid` with
/// descriptor `desc`. Replaces any previous binding for the instance.
pub fn bind(instance: u64, gtid: usize, desc: Arc<ThreadDescriptor>) {
    ENTRIES.with(|e| {
        let mut entries = e.borrow_mut();
        if let Some(existing) = entries.iter_mut().find(|en| en.instance == instance) {
            existing.gtid = gtid;
            existing.desc = desc;
            existing.team = None;
        } else {
            entries.push(Entry {
                instance,
                gtid,
                desc,
                team: None,
            });
        }
    });
}

/// Remove the calling thread's binding for `instance`.
pub fn unbind(instance: u64) {
    ENTRIES.with(|e| e.borrow_mut().retain(|en| en.instance != instance));
}

/// Set (or clear) the current team for the calling thread in `instance`.
pub fn set_team(instance: u64, team: Option<Arc<Team>>) {
    ENTRIES.with(|e| {
        if let Some(en) = e.borrow_mut().iter_mut().find(|en| en.instance == instance) {
            en.team = team;
        }
    });
}

/// Swap the current team for the calling thread in `instance`, returning
/// the previous one (used by serialized nesting, which must make its
/// solo team current so deeper serialized nests chain their levels, and
/// restore the outer team on the way out).
pub fn swap_team(instance: u64, team: Option<Arc<Team>>) -> Option<Arc<Team>> {
    ENTRIES.with(|e| {
        e.borrow_mut()
            .iter_mut()
            .find(|en| en.instance == instance)
            .and_then(|en| std::mem::replace(&mut en.team, team))
    })
}

/// Swap the descriptor bound for `instance` (used when the master switches
/// between its serial and parallel personas). Returns the previous
/// descriptor, or `None` if the thread is not bound to the instance.
pub fn swap_desc(
    instance: u64,
    gtid: usize,
    desc: Arc<ThreadDescriptor>,
) -> Option<Arc<ThreadDescriptor>> {
    ENTRIES.with(|e| {
        e.borrow_mut()
            .iter_mut()
            .find(|en| en.instance == instance)
            .map(|en| {
                en.gtid = gtid;
                Some(std::mem::replace(&mut en.desc, desc))
            })
            .unwrap_or(None)
    })
}

/// Read the calling thread's binding for `instance` in place:
/// `f(gtid, descriptor, current team)`, or `None` if the thread is not
/// bound. Nothing is cloned, so a query touches no refcount another thread
/// shares (a team's is shared by the whole team); callers that keep the
/// descriptor or team clone them explicitly.
pub fn with_binding<R>(
    instance: u64,
    f: impl FnOnce(usize, &Arc<ThreadDescriptor>, Option<&Arc<Team>>) -> R,
) -> Option<R> {
    ENTRIES.with(|e| {
        e.borrow()
            .iter()
            .find(|en| en.instance == instance)
            .map(|en| f(en.gtid, &en.desc, en.team.as_ref()))
    })
}

/// Whether the calling thread is currently executing inside a parallel
/// region of `instance` (drives serialized nesting).
pub fn in_parallel(instance: u64) -> bool {
    with_binding(instance, |_, _, team| team.is_some()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(gtid: usize) -> Arc<ThreadDescriptor> {
        Arc::new(ThreadDescriptor::new(gtid))
    }

    fn gtid(instance: u64) -> Option<usize> {
        with_binding(instance, |gtid, _, _| gtid)
    }

    #[test]
    fn bind_lookup_unbind() {
        assert!(gtid(1001).is_none());
        bind(1001, 0, desc(0));
        let (g, d, no_team) = with_binding(1001, |g, d, t| (g, d.gtid, t.is_none())).unwrap();
        assert_eq!((g, d), (0, 0));
        assert!(no_team);
        unbind(1001);
        assert!(gtid(1001).is_none());
    }

    #[test]
    fn bindings_are_per_instance() {
        bind(2001, 0, desc(0));
        bind(2002, 3, desc(3));
        assert_eq!(gtid(2001), Some(0));
        assert_eq!(gtid(2002), Some(3));
        unbind(2001);
        assert!(gtid(2001).is_none());
        assert!(gtid(2002).is_some());
        unbind(2002);
    }

    #[test]
    fn bindings_are_per_thread() {
        bind(3001, 0, desc(0));
        let other = std::thread::spawn(|| gtid(3001).is_none()).join().unwrap();
        assert!(other);
        unbind(3001);
    }

    #[test]
    fn rebinding_replaces_and_clears_team() {
        bind(4001, 0, desc(0));
        set_team(4001, Some(crate::team::Team::solo(9, 0)));
        assert!(in_parallel(4001));
        bind(4001, 5, desc(5));
        assert_eq!(gtid(4001), Some(5));
        assert!(!in_parallel(4001));
        unbind(4001);
    }

    #[test]
    fn swap_desc_switches_personas() {
        let serial = desc(0);
        bind(5001, 0, serial.clone());
        let parallel = desc(0);
        let old = swap_desc(5001, 0, parallel.clone()).unwrap();
        assert!(Arc::ptr_eq(&old, &serial));
        assert!(with_binding(5001, |_, current, _| Arc::ptr_eq(current, &parallel)).unwrap());
        assert!(swap_desc(9999, 0, desc(0)).is_none());
        unbind(5001);
    }
}
