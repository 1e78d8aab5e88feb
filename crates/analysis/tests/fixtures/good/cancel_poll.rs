//! Good: every sleeping loop consults a cancel/shutdown signal.

/// Shutdown checked explicitly each iteration.
pub fn idle_until_shutdown(durable: &mut Durable) {
    loop {
        if shutdown_requested() {
            break;
        }
        durable.maybe_heartbeat();
        std::thread::sleep(WAIT);
    }
}

/// A cancel-token load counts as consultation.
pub fn drain(cancel: &AtomicBool) {
    while !cancel.load(Ordering::Relaxed) {
        std::thread::sleep(POLL);
    }
}

/// A loop that never sleeps needs no cancel check.
pub fn spin(items: &[u64]) -> u64 {
    let mut acc = 0;
    for it in items {
        acc += *it;
    }
    acc
}
