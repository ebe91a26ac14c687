//! Seed for `model-thread-spawn`: an OS thread in a model-test suite. The test
//! copies this file to `crates/df-server/tests/df_check_models.rs` in the
//! fixture tree (the on-disk name avoids `df_check_models` so the shipped
//! tree's own scans never pick it up).

fn round() {
    let t = std::thread::spawn(|| {});
    t.join().unwrap();
}

fn scoped() {
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}
