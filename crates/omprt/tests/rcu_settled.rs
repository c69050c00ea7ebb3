//! Creating a runtime settles the RCU protocol before any worker runs.
//!
//! Registering for expedited membarriers waits for a kernel RCU grace
//! period (milliseconds) once the process has a second thread, so the
//! runtime makes that choice at creation rather than leaving it to the
//! first retire, which may be a callback quarantine on an application
//! thread inside event dispatch. Its own binary, with one test, so no
//! other test has settled the protocol first.

use omprt::OpenMp;

#[test]
fn creating_a_runtime_leaves_the_protocol_chosen() {
    assert!(
        !ora_core::rcu::settled(),
        "nothing in this binary chose the protocol before the runtime"
    );
    let rt = OpenMp::with_threads(2);
    assert!(ora_core::rcu::settled());
    // Still settled after the runtime has run a region on its workers.
    rt.parallel(|_| {});
    assert!(ora_core::rcu::settled());
}
