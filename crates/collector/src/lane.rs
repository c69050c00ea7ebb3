//! The one attach path.
//!
//! ORA gives each event one callback slot shared by every thread (paper
//! §IV-C), so attaching any tool is the same handshake: one `Start`, then
//! one registration per event the tool needs. A tool is a [`Lane`] — the
//! events it wants and what it does with each — and [`Collector`] runs
//! the handshake for it, so its failure handling is written once. Each
//! standalone tool is a one-lane collector; the suite is a lane that fans
//! out to the lanes it enables.

use std::sync::Arc;

use ora_core::event::Event;
use ora_core::registry::EventData;
use ora_core::request::{OraResult, Request};

use crate::discovery::{Registrations, RuntimeHandle};

/// A tool's share of a collector: the events it needs and its callback.
pub(crate) trait Lane: Send + Sync + 'static {
    /// Whether the lane needs a callback for `event`.
    fn wants(&self, event: Event) -> bool;

    /// The event callback, run on the thread that hit the event.
    fn on_event(&self, d: &EventData);
}

/// An attached lane and the registrations made for it. Dropping it
/// unregisters the callbacks but leaves collection started; a tool's
/// `finish` calls [`stop`](Collector::stop).
pub(crate) struct Collector<L: Lane> {
    registrations: Registrations,
    lane: Arc<L>,
}

impl<L: Lane> Collector<L> {
    /// Send `Start`, then register `lane` for every event it wants that
    /// the runtime's capabilities list.
    ///
    /// The lane is built before this runs, so setup that can fail (a
    /// trace header write) fails before `Start`. A refused `Start` means
    /// another tool holds the runtime, which is left alone. A failed
    /// registration sends `Stop` and forgets every token, so the runtime
    /// is left as it was found.
    pub(crate) fn attach(handle: RuntimeHandle, lane: L) -> OraResult<Collector<L>> {
        handle.request_one(Request::Start)?;
        let lane = Arc::new(lane);
        let supported = handle.supported_events();
        let mut registrations = Registrations::new(handle);
        for event in supported.into_iter().filter(|e| lane.wants(*e)) {
            let l = lane.clone();
            let registered = registrations
                .register_if_supported(event, Arc::new(move |d: &EventData| l.on_event(d)));
            if let Err(e) = registered {
                registrations.stop();
                return Err(e);
            }
        }
        Ok(Collector {
            registrations,
            lane,
        })
    }

    /// The lane the callbacks feed.
    pub(crate) fn lane(&self) -> &L {
        &self.lane
    }

    /// The handle the collector is attached through.
    pub(crate) fn handle(&self) -> &RuntimeHandle {
        self.registrations.handle()
    }

    /// Suspend event generation (`OMP_REQ_PAUSE`).
    pub(crate) fn pause(&self) -> OraResult<()> {
        self.handle().request_one(Request::Pause).map(|_| ())
    }

    /// Resume event generation.
    pub(crate) fn resume(&self) -> OraResult<()> {
        self.handle().request_one(Request::Resume).map(|_| ())
    }

    /// Send `Stop` and forget every callback token.
    pub(crate) fn stop(&mut self) {
        self.registrations.stop();
    }
}
