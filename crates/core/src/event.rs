//! ORA event definitions.
//!
//! The collector interface specification requires the OpenMP runtime to
//! support notification of **fork** and **join** events; all other events
//! are optional and exist to support tracing (white paper §3, reproduced in
//! the paper's §IV). The enumerators mirror the
//! `OMP_COLLECTORAPI_EVENT` constants of the Sun white paper.

/// An observable OpenMP runtime event.
///
/// Discriminant values are part of the byte-level wire protocol
/// ([`crate::message`]) and must stay stable.
#[repr(u32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// A parallel region forks a team (fired by the master thread only,
    /// just before worker threads are created or re-dispatched).
    Fork = 1,
    /// A parallel region joins (fired by the master thread as soon as it
    /// leaves the implicit barrier at the end of the region).
    Join = 2,
    /// A slave thread starts being idle (serial sections between regions).
    ThreadBeginIdle = 3,
    /// A slave thread stops being idle.
    ThreadEndIdle = 4,
    /// A thread enters an implicit barrier (end of worksharing/region).
    ThreadBeginImplicitBarrier = 5,
    /// A thread exits an implicit barrier.
    ThreadEndImplicitBarrier = 6,
    /// A thread enters an explicit (`#pragma omp barrier`) barrier.
    ThreadBeginExplicitBarrier = 7,
    /// A thread exits an explicit barrier.
    ThreadEndExplicitBarrier = 8,
    /// A thread starts waiting for a user-defined lock.
    ThreadBeginLockWait = 9,
    /// A thread acquires the user-defined lock it was waiting for.
    ThreadEndLockWait = 10,
    /// A thread starts waiting to enter a critical region.
    ThreadBeginCriticalWait = 11,
    /// A thread enters the critical region it was waiting for.
    ThreadEndCriticalWait = 12,
    /// A thread starts waiting on an ordered section.
    ThreadBeginOrderedWait = 13,
    /// A thread's turn in the ordered section arrives.
    ThreadEndOrderedWait = 14,
    /// A thread starts waiting on a contended atomic update.
    ///
    /// The paper's OpenUH implementation deliberately leaves this event
    /// unimplemented (§IV-C7); `omprt` keeps it disabled by default for
    /// the same reason, and enables it only on request
    /// (`omprt::Config::atomic_events`).
    ThreadBeginAtomicWait = 15,
    /// A thread completes a contended atomic update.
    ThreadEndAtomicWait = 16,
    /// The master thread enters a `master` construct.
    ThreadBeginMaster = 17,
    /// The master thread leaves a `master` construct.
    ThreadEndMaster = 18,
    /// A thread is elected to execute a `single` construct.
    ThreadBeginSingle = 19,
    /// The elected thread leaves the `single` construct.
    ThreadEndSingle = 20,
    /// A thread starts executing an explicit task (OpenMP 3.0 extension —
    /// the paper lists tasking support as future work; these events model
    /// what that extension looks like).
    TaskBegin = 21,
    /// A thread finishes an explicit task.
    TaskEnd = 22,
    /// A thread starts waiting in `taskwait` (or draining tasks at an
    /// implicit barrier).
    TaskWaitBegin = 23,
    /// A thread finishes its `taskwait`.
    TaskWaitEnd = 24,
    /// A thread enters a worksharing loop (extension: the paper notes ORA
    /// "provides little support for important work-sharing constructs
    /// like parallel loops and for relating them to their corresponding
    /// barrier events"; the wait-ID field of these events carries the
    /// loop sequence number so tools can do exactly that).
    LoopBegin = 25,
    /// A thread leaves a worksharing loop (before any closing barrier).
    LoopEnd = 26,
}

/// Number of distinct events; sizes the callback table.
pub const EVENT_COUNT: usize = 26;

/// Number of events defined by the original white paper (the remainder
/// are this implementation's OpenMP 3.0 / worksharing extensions).
pub const WHITE_PAPER_EVENT_COUNT: usize = 20;

/// All events, in discriminant order.
pub const ALL_EVENTS: [Event; EVENT_COUNT] = [
    Event::Fork,
    Event::Join,
    Event::ThreadBeginIdle,
    Event::ThreadEndIdle,
    Event::ThreadBeginImplicitBarrier,
    Event::ThreadEndImplicitBarrier,
    Event::ThreadBeginExplicitBarrier,
    Event::ThreadEndExplicitBarrier,
    Event::ThreadBeginLockWait,
    Event::ThreadEndLockWait,
    Event::ThreadBeginCriticalWait,
    Event::ThreadEndCriticalWait,
    Event::ThreadBeginOrderedWait,
    Event::ThreadEndOrderedWait,
    Event::ThreadBeginAtomicWait,
    Event::ThreadEndAtomicWait,
    Event::ThreadBeginMaster,
    Event::ThreadEndMaster,
    Event::ThreadBeginSingle,
    Event::ThreadEndSingle,
    Event::TaskBegin,
    Event::TaskEnd,
    Event::TaskWaitBegin,
    Event::TaskWaitEnd,
    Event::LoopBegin,
    Event::LoopEnd,
];

impl Event {
    /// Zero-based dense index into the callback table.
    #[inline]
    pub const fn index(self) -> usize {
        self as u32 as usize - 1
    }

    /// Inverse of [`Event::index`] plus one: decode a wire discriminant.
    pub const fn from_u32(raw: u32) -> Option<Event> {
        if raw >= 1 && raw <= EVENT_COUNT as u32 {
            Some(ALL_EVENTS[raw as usize - 1])
        } else {
            None
        }
    }

    /// Whether the specification *requires* runtimes to support this event
    /// (only fork and join are mandatory; the rest support tracing).
    pub const fn is_mandatory(self) -> bool {
        matches!(self, Event::Fork | Event::Join)
    }

    /// The white-paper style constant name, for reports and traces.
    pub const fn name(self) -> &'static str {
        match self {
            Event::Fork => "OMP_EVENT_FORK",
            Event::Join => "OMP_EVENT_JOIN",
            Event::ThreadBeginIdle => "OMP_EVENT_THR_BEGIN_IDLE",
            Event::ThreadEndIdle => "OMP_EVENT_THR_END_IDLE",
            Event::ThreadBeginImplicitBarrier => "OMP_EVENT_THR_BEGIN_IBAR",
            Event::ThreadEndImplicitBarrier => "OMP_EVENT_THR_END_IBAR",
            Event::ThreadBeginExplicitBarrier => "OMP_EVENT_THR_BEGIN_EBAR",
            Event::ThreadEndExplicitBarrier => "OMP_EVENT_THR_END_EBAR",
            Event::ThreadBeginLockWait => "OMP_EVENT_THR_BEGIN_LKWT",
            Event::ThreadEndLockWait => "OMP_EVENT_THR_END_LKWT",
            Event::ThreadBeginCriticalWait => "OMP_EVENT_THR_BEGIN_CTWT",
            Event::ThreadEndCriticalWait => "OMP_EVENT_THR_END_CTWT",
            Event::ThreadBeginOrderedWait => "OMP_EVENT_THR_BEGIN_ODWT",
            Event::ThreadEndOrderedWait => "OMP_EVENT_THR_END_ODWT",
            Event::ThreadBeginAtomicWait => "OMP_EVENT_THR_BEGIN_ATWT",
            Event::ThreadEndAtomicWait => "OMP_EVENT_THR_END_ATWT",
            Event::ThreadBeginMaster => "OMP_EVENT_THR_BEGIN_MASTER",
            Event::ThreadEndMaster => "OMP_EVENT_THR_END_MASTER",
            Event::ThreadBeginSingle => "OMP_EVENT_THR_BEGIN_SINGLE",
            Event::ThreadEndSingle => "OMP_EVENT_THR_END_SINGLE",
            Event::TaskBegin => "OMP_EVENT_THR_BEGIN_TASK",
            Event::TaskEnd => "OMP_EVENT_THR_END_TASK",
            Event::TaskWaitBegin => "OMP_EVENT_THR_BEGIN_TASKWAIT",
            Event::TaskWaitEnd => "OMP_EVENT_THR_END_TASKWAIT",
            Event::LoopBegin => "OMP_EVENT_THR_BEGIN_LOOP",
            Event::LoopEnd => "OMP_EVENT_THR_END_LOOP",
        }
    }

    /// Whether this event is defined by the white paper (`false` for this
    /// implementation's tasking/loop extensions).
    pub const fn is_white_paper(self) -> bool {
        (self as u32) <= WHITE_PAPER_EVENT_COUNT as u32
    }

    /// The matching `end` event for a `begin` event (and vice versa), if
    /// this event is one half of a paired interval.
    pub const fn pair(self) -> Option<Event> {
        match self {
            Event::Fork => Some(Event::Join),
            Event::Join => Some(Event::Fork),
            Event::ThreadBeginIdle => Some(Event::ThreadEndIdle),
            Event::ThreadEndIdle => Some(Event::ThreadBeginIdle),
            Event::ThreadBeginImplicitBarrier => Some(Event::ThreadEndImplicitBarrier),
            Event::ThreadEndImplicitBarrier => Some(Event::ThreadBeginImplicitBarrier),
            Event::ThreadBeginExplicitBarrier => Some(Event::ThreadEndExplicitBarrier),
            Event::ThreadEndExplicitBarrier => Some(Event::ThreadBeginExplicitBarrier),
            Event::ThreadBeginLockWait => Some(Event::ThreadEndLockWait),
            Event::ThreadEndLockWait => Some(Event::ThreadBeginLockWait),
            Event::ThreadBeginCriticalWait => Some(Event::ThreadEndCriticalWait),
            Event::ThreadEndCriticalWait => Some(Event::ThreadBeginCriticalWait),
            Event::ThreadBeginOrderedWait => Some(Event::ThreadEndOrderedWait),
            Event::ThreadEndOrderedWait => Some(Event::ThreadBeginOrderedWait),
            Event::ThreadBeginAtomicWait => Some(Event::ThreadEndAtomicWait),
            Event::ThreadEndAtomicWait => Some(Event::ThreadBeginAtomicWait),
            Event::ThreadBeginMaster => Some(Event::ThreadEndMaster),
            Event::ThreadEndMaster => Some(Event::ThreadBeginMaster),
            Event::ThreadBeginSingle => Some(Event::ThreadEndSingle),
            Event::ThreadEndSingle => Some(Event::ThreadBeginSingle),
            Event::TaskBegin => Some(Event::TaskEnd),
            Event::TaskEnd => Some(Event::TaskBegin),
            Event::TaskWaitBegin => Some(Event::TaskWaitEnd),
            Event::TaskWaitEnd => Some(Event::TaskWaitBegin),
            Event::LoopBegin => Some(Event::LoopEnd),
            Event::LoopEnd => Some(Event::LoopBegin),
        }
    }

    /// Whether this is the opening half of an interval pair.
    pub const fn is_begin(self) -> bool {
        matches!(
            self,
            Event::Fork
                | Event::ThreadBeginIdle
                | Event::ThreadBeginImplicitBarrier
                | Event::ThreadBeginExplicitBarrier
                | Event::ThreadBeginLockWait
                | Event::ThreadBeginCriticalWait
                | Event::ThreadBeginOrderedWait
                | Event::ThreadBeginAtomicWait
                | Event::ThreadBeginMaster
                | Event::ThreadBeginSingle
                | Event::TaskBegin
                | Event::TaskWaitBegin
                | Event::LoopBegin
        )
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, e) in ALL_EVENTS.iter().enumerate() {
            assert_eq!(e.index(), i);
            assert_eq!(Event::from_u32(*e as u32), Some(*e));
        }
    }

    #[test]
    fn from_u32_rejects_out_of_range() {
        assert_eq!(Event::from_u32(0), None);
        assert_eq!(Event::from_u32(EVENT_COUNT as u32 + 1), None);
        assert_eq!(Event::from_u32(u32::MAX), None);
    }

    #[test]
    fn only_fork_and_join_are_mandatory() {
        let mandatory: Vec<Event> = ALL_EVENTS
            .iter()
            .copied()
            .filter(|e| e.is_mandatory())
            .collect();
        assert_eq!(mandatory, vec![Event::Fork, Event::Join]);
    }

    #[test]
    fn pairs_are_involutions() {
        for e in ALL_EVENTS {
            let p = e.pair().expect("every event is paired");
            assert_eq!(p.pair(), Some(e));
            assert_ne!(p, e);
        }
    }

    #[test]
    fn begin_end_partition() {
        let begins = ALL_EVENTS.iter().filter(|e| e.is_begin()).count();
        assert_eq!(begins, EVENT_COUNT / 2);
        for e in ALL_EVENTS {
            if e.is_begin() {
                assert!(!e.pair().unwrap().is_begin());
            }
        }
    }

    #[test]
    fn names_follow_white_paper_convention() {
        for e in ALL_EVENTS {
            assert!(e.name().starts_with("OMP_EVENT_"), "{}", e.name());
        }
    }

    #[test]
    fn extension_events_are_flagged() {
        let ext: Vec<Event> = ALL_EVENTS
            .iter()
            .copied()
            .filter(|e| !e.is_white_paper())
            .collect();
        assert_eq!(
            ext,
            vec![
                Event::TaskBegin,
                Event::TaskEnd,
                Event::TaskWaitBegin,
                Event::TaskWaitEnd,
                Event::LoopBegin,
                Event::LoopEnd
            ]
        );
        assert!(Event::Fork.is_white_paper());
        assert!(Event::ThreadEndSingle.is_white_paper());
    }
}
