//! A tool that fails to attach leaves the runtime as it found it: free
//! for the next tool when it held the runtime, untouched when another
//! tool did.

use collector::{Profiler, RuntimeHandle, StreamError, StreamingTracer};
use omprt::OpenMp;
use ora_core::request::OraError;
use ora_trace::{FaultMode, FaultSink, TraceConfig};

#[test]
fn a_failed_attach_leaves_the_runtime_free_for_the_next_tool() {
    let rt = OpenMp::with_threads(2);
    let handle = RuntimeHandle::discover_named(rt.symbol_name()).expect("runtime symbol");

    // A sink that refuses its first byte fails the trace header write.
    let broken = FaultSink::new(0, FaultMode::Error);
    let failed = StreamingTracer::attach(handle.clone(), TraceConfig::default(), broken);
    assert!(matches!(failed, Err(StreamError::Trace(_))));

    let profiler = Profiler::attach_default(handle.clone()).expect("runtime left started");
    // A second tool is refused without stopping the first.
    assert_eq!(
        Profiler::attach_default(handle.clone()).err(),
        Some(OraError::OutOfSequence)
    );
    rt.parallel(|_| {});
    assert_eq!(profiler.finish().region_count(), 1);
}
