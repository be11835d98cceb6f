//! The idle-connection gate for the reactor-backed HTTP server, in its
//! own test binary: the probe reads CPU time for the whole process from
//! `/proc/self/stat`, so it must share the process with no other test.
//! Run it with `cargo test --release -p smacs-bench --test
//! connection_scaling`.

#[test]
fn connection_scaling_holds_many_connections_with_bounded_threads() {
    // Acceptance gate for the reactor-backed HTTP server: concurrent
    // keep-alive connections must not translate into threads, and idle
    // parked connections must not translate into CPU. 200 connections
    // keep the test quick; the full 50k-target run lives in
    // `all_experiments`.
    let probe = smacs_bench::perf::connection_scaling_probe_with_window(
        200,
        std::time::Duration::from_secs(1),
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert!(
        probe.pool_workers <= (2 * cores).max(2),
        "default pool too large: {} workers on {cores} cores",
        probe.pool_workers
    );
    assert_eq!(
        probe.parked_connections, probe.connections,
        "every idle connection must end up parked in the epoll set"
    );
    if probe.os_threads > 0 {
        // Whole process: pool + reactor + test harness + the 200 client
        // sockets' owning threads... clients here are synchronous (no
        // thread each), so the ceiling is a small constant far below the
        // thread-per-connection model's 201.
        assert!(
            probe.os_threads < probe.connections / 2,
            "{} process threads for {} connections — pooling is not bounding threads",
            probe.os_threads,
            probe.connections
        );
    }
    // The readiness claim: with every connection parked and nobody
    // talking, the process burns (near) zero CPU. The poller-era server
    // swept all 200 connections every 1 ms here. 5% leaves room for CI
    // jitter; the reactor itself sits in epoll_wait.
    assert!(
        probe.idle_cpu_pct_x100 >= 0,
        "CPU accounting unreadable on this platform"
    );
    assert!(
        probe.idle_cpu_pct_x100 < 500,
        "idle CPU {:.2}% with {} parked connections — something is sweeping",
        probe.idle_cpu_pct_x100 as f64 / 100.0,
        probe.parked_connections
    );
}
