//! Runtime configuration — the `OMP_*` environment analogue.

use crate::schedule::Schedule;

/// Configuration of one runtime instance.
#[derive(Debug, Clone)]
pub struct Config {
    /// Default team size (`OMP_NUM_THREADS`).
    pub num_threads: usize,
    /// Default loop schedule (`OMP_SCHEDULE`).
    pub schedule: Schedule,
    /// Whether contended atomic updates raise `ATWT` state/events. The
    /// paper's OpenUH deliberately does not implement these because of the
    /// cost (§IV-C7); the default matches, and only the runtime's own
    /// event tests enable it.
    pub atomic_events: bool,
    /// Whether nested parallel regions fork real sub-teams. The paper's
    /// compiler serializes nesting (the default here); enabling this gives
    /// the behaviour the paper promises for "future releases of the
    /// compiler": a fork event per nested region and live current/parent
    /// region IDs for the inner team (§IV-C1, §IV-E).
    pub nested: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            schedule: Schedule::StaticEven,
            atomic_events: false,
            nested: false,
        }
    }
}

impl Config {
    /// A config with everything default except the team size.
    pub fn with_threads(num_threads: usize) -> Self {
        Config {
            num_threads: num_threads.max(1),
            ..Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_decisions() {
        let c = Config::default();
        assert!(!c.atomic_events, "paper leaves atomic events unimplemented");
        assert!(!c.nested, "paper's compiler serializes nested regions");
        assert_eq!(c.schedule, Schedule::StaticEven);
        assert!(c.num_threads >= 1);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Config::with_threads(0).num_threads, 1);
        assert_eq!(Config::with_threads(8).num_threads, 8);
    }
}
