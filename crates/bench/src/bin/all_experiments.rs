//! Run every experiment in sequence — the one-shot EXPERIMENTS.md feed —
//! then emit a machine-readable perf summary to `BENCH_results.json` and
//! append a timestamped entry to `BENCH_history.jsonl` (one JSON object
//! per line, so regressions can be traced across runs instead of being
//! overwritten).
use smacs_primitives::json::Json;

fn main() {
    println!("== Table II ==");
    print!(
        "{}",
        smacs_bench::table2::report(&smacs_bench::table2::measure())
    );
    println!("\n== Table III ==");
    print!(
        "{}",
        smacs_bench::table3::report(&smacs_bench::table3::measure())
    );
    println!("\n== Table IV ==");
    print!(
        "{}",
        smacs_bench::table4::report(&smacs_bench::table4::measure())
    );
    println!("\n== Fig. 8 ==");
    print!(
        "{}",
        smacs_bench::fig8::report(&smacs_bench::fig8::measure())
    );
    println!("\n== Fig. 9 ==");
    let exp = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    print!(
        "{}",
        smacs_bench::fig9::report(&smacs_bench::fig9::measure(exp))
    );
    println!("\n== Runtime tools (§VI-B b) ==");
    print!(
        "{}",
        smacs_bench::runtime_tools::report(&smacs_bench::runtime_tools::measure())
    );
    println!("\n== Motivation (§II-B / §II-D) ==");
    let (ten_k, bluzelle) = smacs_bench::motivation::measure();
    print!("{}", smacs_bench::motivation::report(&ten_k, &bluzelle));

    println!("\n== Perf (journaled state / zero-copy call path) ==");
    const SLOTS: u64 = 100_000;
    let rows = smacs_bench::perf::standard_sweep(SLOTS);
    for row in &rows {
        println!("{:<48} {:>14.0} ns/op", row.name, row.ns);
    }

    println!("\n== TS wire throughput (v2 batch vs sequential v2 issue) ==");
    let wire = smacs_bench::perf::ts_wire_throughput(64, 3);
    println!(
        "batch of {}: {:>10.0} tokens/s   sequential: {:>10.0} tokens/s   speedup {:.2}x",
        wire.batch_size,
        wire.batch_tokens_per_sec,
        wire.sequential_tokens_per_sec,
        wire.speedup()
    );

    println!("\n== TS concurrent issuance (signing fan-out vs pool size) ==");
    let scaling = smacs_bench::perf::concurrent_signing_scaling(256, &[1, 2, 4, 8], 3);
    for point in &scaling {
        println!(
            "pool of {:>2}: {:>10.0} tokens/s",
            point.workers, point.tokens_per_sec
        );
    }

    println!("\n== TS concurrent issuance (HTTP, client threads 1→8) ==");
    let http_scaling = smacs_bench::perf::http_issuance_scaling(&[1, 2, 4, 8], 32);
    for point in &http_scaling {
        println!(
            "{:>2} clients: {:>10.0} tokens/s",
            point.workers, point.tokens_per_sec
        );
    }

    println!("\n== TS failover (3 replicas, kill + recover one) ==");
    let failover = smacs_bench::perf::ts_failover_throughput(128);
    println!(
        "steady: {:>10.0} tokens/s   one replica down: {:>10.0} tokens/s ({:.0}% of steady)   recovered: {:>10.0} tokens/s",
        failover.steady_tokens_per_sec,
        failover.degraded_tokens_per_sec,
        failover.degraded_fraction_x100(),
        failover.recovered_tokens_per_sec
    );

    println!("\n== TS wire-quorum one-time issuance (counter partition + heal) ==");
    let wire_failover = smacs_bench::perf::ts_failover_wire_throughput(64);
    println!(
        "steady: {:>10.0} one-time/s   one counter node dark: {:>10.0} one-time/s ({:.0}% of steady)   healed: {:>10.0} one-time/s",
        wire_failover.steady_one_time_per_sec,
        wire_failover.partitioned_one_time_per_sec,
        wire_failover.partitioned_fraction_x100(),
        wire_failover.recovered_one_time_per_sec
    );

    println!("\n== TS connection scaling (epoll reactor, 50k keep-alive target) ==");
    let conn_probe = smacs_bench::perf::connection_scaling_probe(50_000);
    println!(
        "{} of {} target connections held ({} parked): pool {} workers, {} process threads (thread-per-connection model: {}), idle CPU {:.2}% over {} ms",
        conn_probe.connections,
        conn_probe.target_connections,
        conn_probe.parked_connections,
        conn_probe.pool_workers,
        conn_probe.os_threads,
        conn_probe.spawn_model_threads,
        conn_probe.idle_cpu_pct_x100 as f64 / 100.0,
        conn_probe.idle_window_ms
    );

    println!("\n== TS connection storm (accept flood vs batch signing) ==");
    let storm_probe = smacs_bench::perf::connection_storm_probe(500, 16, 16);
    println!(
        "{} parked + {} storm connections, {} errors: batch p99 calm {:>9} ns / storm {:>9} ns",
        storm_probe.parked_connections,
        storm_probe.storm_connections,
        storm_probe.storm_errors,
        storm_probe.calm_batch_p99_ns,
        storm_probe.storm_batch_p99_ns
    );

    println!("\n== Open-loop load (scenario corpus, latency percentiles) ==");
    use smacs_bench::openloop;
    let oracle = openloop::oracle_over_http(openloop::SMOKE_EVENTS, openloop::SMOKE_RPS);
    println!("oracle/http     {}", openloop::report_line(&oracle));
    let airdrop = openloop::airdrop_over_replicas(openloop::SMOKE_EVENTS, openloop::SMOKE_RPS);
    println!("airdrop/quorum  {}", openloop::report_line(&airdrop));

    println!("\n== Open-loop issue → token-bearing call → receipt ==");
    let chain_call =
        openloop::chain_calls_over_http(openloop::CHAIN_SMOKE_EVENTS, openloop::CHAIN_SMOKE_RPS);
    println!("issue+call/http {}", openloop::report_line(&chain_call));

    println!("\n== Parallel block execution (optimistic, 1/2/4-thread) ==");
    // Caveat: on the 1-CPU reference container these parallel legs
    // measure pipeline overhead, not speedup; the scaling gate lives in
    // tests/shapes.rs and self-arms only on real multi-core hardware.
    const PB_BLOCKS: usize = 8;
    const PB_TXS: usize = 64;
    let parallel_points =
        smacs_bench::perf::parallel_block_execution(PB_BLOCKS, PB_TXS, &[1, 2, 4], &[0, 50, 100]);
    for p in &parallel_points {
        print!(
            "conflict {:>3}%: seq {:>8.0} tx/s  ",
            p.conflict_pct, p.sequential_txs_per_sec
        );
        for &(t, tps) in &p.by_threads {
            print!("{t}T {tps:>8.0} tx/s  ");
        }
        println!();
    }

    println!("\n== TouchSet recording overhead (overlay hot path) ==");
    let touchset = smacs_bench::perf::touchset_overhead_ns(SLOTS, 32);
    println!(
        "plain {:>7.1} ns/op   recording {:>7.1} ns/op   overhead {:>6.1} ns/op",
        touchset.plain_op_ns,
        touchset.recorded_op_ns,
        (touchset.recorded_op_ns - touchset.plain_op_ns).max(0.0)
    );

    println!("\n== WorldState::commit rebuild-threshold sweep ==");
    const THRESHOLDS: &[usize] = &[1_024, 4_096, 8_192, 16_384, 65_536];
    let threshold_points = smacs_bench::perf::commit_threshold_sweep(SLOTS, THRESHOLDS);
    for p in &threshold_points {
        println!(
            "threshold {:>6}: commit {:>10.0} ns/block   post-burst fork {:>10.0} ns   residual overlay {:>6}",
            p.threshold, p.commit_ns, p.post_burst_fork_ns, p.residual_overlay
        );
    }

    let mut summary = smacs_bench::perf::sweep_to_json(SLOTS, &rows);
    if let Json::Obj(members) = &mut summary {
        members.push((
            "ts_issue_batch".into(),
            smacs_bench::perf::wire_throughput_to_json(&wire),
        ));
        members.push((
            "ts_concurrent_issuance".into(),
            smacs_bench::perf::scaling_to_json(256, &scaling),
        ));
        members.push((
            "ts_http_client_scaling".into(),
            smacs_bench::perf::scaling_to_json(32, &http_scaling),
        ));
        members.push((
            "ts_failover".into(),
            smacs_bench::perf::failover_to_json(&failover),
        ));
        members.push((
            "ts_failover_wire".into(),
            smacs_bench::perf::wire_failover_to_json(&wire_failover),
        ));
        members.push((
            "connection_scaling".into(),
            smacs_bench::perf::connection_scaling_to_json(&conn_probe),
        ));
        members.push((
            "connection_storm".into(),
            smacs_bench::perf::connection_storm_to_json(&storm_probe),
        ));
        members.push((
            "open_loop_oracle".into(),
            smacs_driver::loadgen::report_to_json(&oracle),
        ));
        members.push((
            "open_loop_airdrop".into(),
            smacs_driver::loadgen::report_to_json(&airdrop),
        ));
        members.push((
            "open_loop_chain_call".into(),
            smacs_driver::loadgen::report_to_json(&chain_call),
        ));
        members.push((
            "parallel_block_execution".into(),
            smacs_bench::perf::parallel_block_to_json(PB_BLOCKS, PB_TXS, &parallel_points),
        ));
        members.push((
            "touchset_overhead".into(),
            smacs_bench::perf::touchset_overhead_to_json(&touchset),
        ));
        members.push((
            "commit_threshold_sweep".into(),
            smacs_bench::perf::threshold_sweep_to_json(SLOTS, &threshold_points),
        ));
    }
    match std::fs::write("BENCH_results.json", summary.render_pretty()) {
        Ok(()) => println!("\nwrote BENCH_results.json"),
        Err(e) => eprintln!("\ncould not write BENCH_results.json: {e}"),
    }

    // Append-only history: `{"unix_secs": …, "results": {…}}` per run.
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = Json::Obj(vec![
        ("unix_secs".into(), Json::Int(unix_secs as i128)),
        ("results".into(), summary),
    ]);
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("BENCH_history.jsonl")
        .and_then(|mut f| {
            use std::io::Write;
            writeln!(f, "{}", entry.render())
        });
    match appended {
        Ok(()) => println!("appended BENCH_history.jsonl"),
        Err(e) => eprintln!("could not append BENCH_history.jsonl: {e}"),
    }
}
