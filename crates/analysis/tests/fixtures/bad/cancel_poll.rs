//! Bad: polling loops that sleep without consulting a cancel signal.

/// Waits for workers with no way to be shut down.
pub fn wait_all(done: &Counter, total: usize) {
    while done.load(Ordering::Relaxed) < total {
        std::thread::sleep(POLL);
    }
}

/// An idle heartbeat loop with no exit signal either.
pub fn idle_forever(durable: &mut Durable) {
    loop {
        durable.maybe_heartbeat();
        std::thread::sleep(WAIT);
    }
}

/// Polling a monitor is not a cancel check: nothing here ends the wait.
pub fn wait_all_polled(finished: &Counter, total: usize, wd: &Monitor) {
    while finished.load(Ordering::Relaxed) < total {
        std::thread::sleep(POLL);
        wd.poll(total);
    }
}
