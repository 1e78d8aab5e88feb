//! One call to every method the root `clippy.toml` disallows, and one
//! `for` loop over a hash map: the old `repro lint` bad fixtures for
//! `wall-clock`, `env-read`, `cancel-poll`, `sweep-route` and
//! `hash-iter`, now compiled, plus the `global-state` panic hooks.
//! Never run.

use rampage_core::experiments::{run_config, run_config_traced, Workload};
use rampage_core::{Engine, SystemConfig};
use std::collections::{HashMap, HashSet};

pub fn host_reads() {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _ = std::env::var("RAMPAGE_SEED");
    let _ = std::env::var_os("RAMPAGE_SEED");
    let _ = std::env::vars();
    let _ = std::env::vars_os();
    let _ = std::env::args();
    let _ = std::env::args_os();
    let _ = std::env::current_dir();
    let _ = std::env::current_exe();
    let _ = std::env::temp_dir();
    let _ = std::thread::current();
    std::thread::sleep(std::time::Duration::ZERO);
}

pub fn panic_hooks() {
    std::panic::set_hook(std::panic::take_hook());
}

pub fn unrouted(cfg: &SystemConfig, workload: &Workload) {
    let _ = run_config(cfg, workload);
    let _ = run_config_traced(cfg, workload, 1);
    let _ = Engine::new(cfg, workload.sources());
}

pub fn hash_order(mut map: HashMap<u64, u64>, mut set: HashSet<u64>) -> u64 {
    let _ = map.iter();
    let _ = map.iter_mut();
    let _ = map.keys();
    let _ = map.values();
    let _ = map.values_mut();
    let _ = map.clone().into_keys();
    let _ = map.clone().into_values();
    let _ = set.iter();
    let _ = set.drain();
    let mut total = 0;
    for (k, v) in &map {
        total += k + v;
    }
    let _ = map.drain();
    total
}
