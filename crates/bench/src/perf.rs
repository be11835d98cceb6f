//! Perf probes for the journaled-state / zero-copy work — snapshot+revert
//! against a large world, O(1) forking, deep token call chains — plus the
//! TS wire-throughput comparison (v2 batch issuance vs sequential v2
//! `issue` round trips) and the concurrent-issuance probes (batch-signing
//! throughput vs worker-pool size, HTTP throughput vs client threads, and
//! the pooled server's thread cost under many keep-alive connections).
//!
//! Each probe is a plain function returning numbers so it can back three
//! consumers: the criterion micro-benchmarks (`benches/micro.rs`), the
//! machine-readable `BENCH_results.json` summary emitted by
//! `all_experiments`, and the regression tests in `tests/shapes.rs`.

use crate::setup::World;
use smacs_chain::state::WorldState;
use smacs_chain::{BlockMode, Chain, SignedTransaction, Transaction};
use smacs_contracts::{BenchTarget, ChainLink, SmacsAmm};
use smacs_core::client::build_chain_call_data;
use smacs_crypto::Keypair;
use smacs_primitives::json::Json;
use smacs_primitives::{Address, Bytes, WorkerPool, H256, U256};
use smacs_token::{Token, TokenRequest, TokenType};
use smacs_ts::front::FrontEnd;
use smacs_ts::http::{HttpClient, HttpServer};
use smacs_ts::{RuleBook, TokenService, TokenServiceConfig, TsApi};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

type AccountMap = HashMap<Address, u128>;
type StorageMap = HashMap<(Address, H256), H256>;

fn addr(n: u64) -> Address {
    Address::from_low_u64(n + 1)
}

fn key(n: u64) -> H256 {
    H256::from_u256(U256::from_u64(n))
}

/// Build a journaled world holding `slots` committed storage slots.
pub fn populated_world(slots: u64) -> WorldState {
    let mut world = WorldState::new();
    for i in 0..slots {
        world.storage_set(addr(i % 64), key(i), key(i + 1));
    }
    world.commit();
    world
}

/// The pre-journal baseline: snapshot/fork by deep-cloning the full maps —
/// cost grows with world size, which is exactly what the journal removes.
pub struct CloneBaselineState {
    accounts: AccountMap,
    storage: StorageMap,
    snapshots: Vec<(AccountMap, StorageMap)>,
}

impl CloneBaselineState {
    /// A baseline world holding `slots` storage slots.
    pub fn populated(slots: u64) -> Self {
        let mut storage = HashMap::new();
        for i in 0..slots {
            storage.insert((addr(i % 64), key(i)), key(i + 1));
        }
        CloneBaselineState {
            accounts: HashMap::new(),
            storage,
            snapshots: Vec::new(),
        }
    }

    /// Deep-clone snapshot (O(world)).
    pub fn snapshot(&mut self) {
        self.snapshots
            .push((self.accounts.clone(), self.storage.clone()));
    }

    /// Write one slot.
    pub fn storage_set(&mut self, a: Address, k: H256, v: H256) {
        self.storage.insert((a, k), v);
    }

    /// Restore the latest snapshot (O(world)).
    pub fn revert(&mut self) {
        let (accounts, storage) = self.snapshots.pop().expect("snapshot taken");
        self.accounts = accounts;
        self.storage = storage;
    }

    /// Deep-copy fork (O(world)).
    pub fn fork(&self) -> (AccountMap, StorageMap) {
        (self.accounts.clone(), self.storage.clone())
    }
}

fn time_per_iter(iters: u32, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// ns for snapshot → 1-slot write → revert on a journaled world of `slots`.
pub fn journaled_snapshot_revert_ns(slots: u64, iters: u32) -> f64 {
    let mut world = populated_world(slots);
    time_per_iter(iters, || {
        let snap = world.snapshot();
        world.storage_set(addr(3), key(1), key(99));
        world.revert_to(snap);
    })
}

/// ns for the same snapshot → write → revert on the clone-based baseline.
pub fn clone_snapshot_revert_ns(slots: u64, iters: u32) -> f64 {
    let mut world = CloneBaselineState::populated(slots);
    time_per_iter(iters, || {
        world.snapshot();
        world.storage_set(addr(3), key(1), key(99));
        world.revert();
    })
}

/// ns to fork a committed journaled world of `slots` slots.
pub fn journaled_fork_ns(slots: u64, iters: u32) -> f64 {
    let world = populated_world(slots);
    time_per_iter(iters, || {
        std::hint::black_box(world.fork());
    })
}

/// ns to fork the clone-based baseline of the same size.
pub fn clone_fork_ns(slots: u64, iters: u32) -> f64 {
    let world = CloneBaselineState::populated(slots);
    time_per_iter(iters, || {
        std::hint::black_box(world.fork());
    })
}

/// ns to fork a committed world and simulate a small transaction on the
/// fork — the Token Service's per-request validation pattern (§V).
pub fn fork_simulate_ns(slots: u64, iters: u32) -> f64 {
    let world = populated_world(slots);
    time_per_iter(iters, || {
        let mut fork = world.fork();
        let snap = fork.snapshot();
        fork.storage_set(addr(5), key(2), key(77));
        fork.credit(addr(6), 1);
        fork.revert_to(snap);
        std::hint::black_box(&fork);
    })
}

/// A ready deep-call-chain scenario: world, entry link, and token-bearing
/// calldata for a `depth`-hop shielded chain.
pub struct ChainScenario {
    /// The prepared world.
    pub world: World,
    /// Entry link address.
    pub entry: Address,
    /// Calldata with the token array attached.
    pub calldata: Vec<u8>,
}

impl ChainScenario {
    /// Build a `depth`-hop shielded chain with per-link super tokens.
    pub fn new(depth: usize) -> ChainScenario {
        let (world, links) = World::with_chain_depth(depth);
        let payload = ChainLink::poke_payload();
        let tokens: Vec<(Address, Token)> = links
            .iter()
            .map(|&link| {
                (
                    link,
                    world.issue(TokenType::Super, link, ChainLink::POKE_SIG, &payload, false),
                )
            })
            .collect();
        let calldata = build_chain_call_data(&payload, &tokens);
        ChainScenario {
            world,
            entry: links[0],
            calldata,
        }
    }

    /// One dry-run traversal of the whole chain; panics if any hop fails.
    pub fn run_once(&mut self) {
        let from = self.world.client.address();
        let (result, _gas, _trace, _) =
            self.world
                .chain
                .dry_run(from, self.entry, 0, self.calldata.clone());
        result.expect("chain traversal");
    }
}

/// ns per full traversal of a `depth`-hop token call chain (dry run).
pub fn call_chain_ns(depth: usize, iters: u32) -> f64 {
    let mut scenario = ChainScenario::new(depth);
    time_per_iter(iters, || scenario.run_once())
}

// ---- TS wire throughput: v2 batch vs sequential v2 issue ----

/// A running HTTP Token Service plus the request set for throughput
/// probes.
pub struct WireScenario {
    /// Serves for as long as the scenario lives.
    _server: HttpServer,
    /// The v2 keep-alive client.
    pub client: HttpClient,
    /// The issuance requests (distinct senders, same contract/method).
    pub requests: Vec<TokenRequest>,
}

impl WireScenario {
    /// Start a permissive TS over loopback HTTP and prepare `batch_size`
    /// method-token requests.
    pub fn new(batch_size: usize) -> WireScenario {
        let service = TokenService::new(
            Keypair::from_seed(12_000),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        );
        let server = HttpServer::start(Arc::new(FrontEnd::new(service, "bench-owner", 0)))
            .expect("loopback server");
        let client = HttpClient::connect(server.addr());
        let contract = Address::from_low_u64(0xC0);
        let requests = (0..batch_size)
            .map(|i| {
                TokenRequest::method_token(
                    contract,
                    Address::from_low_u64(1_000 + i as u64),
                    BenchTarget::PING_SIG,
                )
            })
            .collect();
        WireScenario {
            _server: server,
            client,
            requests,
        }
    }

    /// One v2 batch round trip; panics unless every token minted.
    pub fn run_batch(&self) {
        let results = self
            .client
            .issue_batch(&self.requests)
            .expect("batch envelope");
        assert!(results.iter().all(|r| r.is_ok()), "batch issuance failed");
    }

    /// The sequential baseline: one v2 `issue` round trip per request over
    /// the same keep-alive connection.
    pub fn run_sequential(&self) {
        for request in &self.requests {
            self.client.issue(request).expect("sequential issue");
        }
    }
}

/// The wire-throughput comparison behind the `ts_issue_batch` bench.
pub struct WireThroughput {
    /// Tokens per round trip in the batch path.
    pub batch_size: usize,
    /// Tokens/sec via one v2 `issue_batch` envelope per `batch_size`
    /// tokens over a keep-alive connection.
    pub batch_tokens_per_sec: f64,
    /// Tokens/sec via `batch_size` sequential v2 `issue` round trips over
    /// the same keep-alive connection.
    pub sequential_tokens_per_sec: f64,
}

impl WireThroughput {
    /// Batch speedup factor.
    pub fn speedup(&self) -> f64 {
        self.batch_tokens_per_sec / self.sequential_tokens_per_sec.max(1e-9)
    }
}

/// Measure batched-vs-sequential issuance throughput over real loopback
/// HTTP: `rounds` passes of `batch_size` tokens down each path.
pub fn ts_wire_throughput(batch_size: usize, rounds: u32) -> WireThroughput {
    let scenario = WireScenario::new(batch_size);
    // Warm both paths (connection setup, lazy signer tables).
    scenario.client.ping().expect("server alive");
    scenario
        .client
        .issue(&scenario.requests[0])
        .expect("warm issue");

    let start = Instant::now();
    for _ in 0..rounds {
        scenario.run_batch();
    }
    let batch_tps = (batch_size as u32 * rounds) as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..rounds {
        scenario.run_sequential();
    }
    let sequential_tps = (batch_size as u32 * rounds) as f64 / start.elapsed().as_secs_f64();

    WireThroughput {
        batch_size,
        batch_tokens_per_sec: batch_tps,
        sequential_tokens_per_sec: sequential_tps,
    }
}

/// Render the wire-throughput comparison as a JSON object for
/// `BENCH_results.json`.
pub fn wire_throughput_to_json(wire: &WireThroughput) -> Json {
    Json::Obj(vec![
        ("batch_size".into(), Json::Int(wire.batch_size as i128)),
        (
            "batch_tokens_per_sec".into(),
            Json::Int(wire.batch_tokens_per_sec as i128),
        ),
        (
            "sequential_tokens_per_sec".into(),
            Json::Int(wire.sequential_tokens_per_sec as i128),
        ),
        (
            "batch_speedup_x100".into(),
            Json::Int((wire.speedup() * 100.0) as i128),
        ),
    ])
}

// ---- concurrent issuance: signing fan-out scaling + connection scaling ----

/// Throughput at one parallelism degree.
pub struct ScalePoint {
    /// Worker threads in the signing pool (1 = the sequential baseline).
    pub workers: usize,
    /// Tokens minted per second.
    pub tokens_per_sec: f64,
}

/// Tokens/sec for batch issuance as the signing pool grows — the
/// acceptance sweep behind `ts_concurrent_issuance`. Each point uses a
/// dedicated pool of exactly `workers` threads; on an N-core box the
/// curve should rise near-linearly until `workers ≈ N` (on a 1-core box
/// every point collapses to the sequential baseline — the recorded
/// numbers say which machine they came from via `available_parallelism`).
pub fn concurrent_signing_scaling(
    batch: usize,
    workers_axis: &[usize],
    rounds: u32,
) -> Vec<ScalePoint> {
    let contract = Address::from_low_u64(0xC0);
    let requests: Vec<TokenRequest> = (0..batch)
        .map(|i| {
            TokenRequest::method_token(
                contract,
                Address::from_low_u64(20_000 + i as u64),
                BenchTarget::PING_SIG,
            )
        })
        .collect();
    workers_axis
        .iter()
        .map(|&workers| {
            let pool = WorkerPool::new(workers, 4096);
            let service = TokenService::new(
                Keypair::from_seed(13_000),
                RuleBook::permissive(),
                TokenServiceConfig::default(),
            )
            .with_pool(pool.clone());
            // Warm: signer tables, pool threads, allocator.
            assert!(service.issue_batch(&requests, 0).iter().all(|r| r.is_ok()));
            let start = Instant::now();
            for _ in 0..rounds {
                let results = service.issue_batch(&requests, 0);
                debug_assert!(results.iter().all(|r| r.is_ok()));
            }
            let tokens_per_sec =
                (batch as u32 * rounds) as f64 / start.elapsed().as_secs_f64().max(1e-9);
            pool.shutdown();
            ScalePoint {
                workers,
                tokens_per_sec,
            }
        })
        .collect()
}

/// Tokens/sec over real loopback HTTP as concurrent client threads grow
/// (each thread drives its own keep-alive connection with single-issue
/// requests against one pooled server).
pub fn http_issuance_scaling(client_axis: &[usize], requests_per_client: usize) -> Vec<ScalePoint> {
    let service = TokenService::new(
        Keypair::from_seed(14_000),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    );
    let server = HttpServer::start(Arc::new(FrontEnd::new(service, "bench-owner", 0)))
        .expect("loopback server");
    let addr = server.addr();
    // Warm the server (signer tables).
    HttpClient::connect(addr)
        .issue(&TokenRequest::super_token(
            Address::from_low_u64(0xC0),
            Address::from_low_u64(1),
        ))
        .expect("warm issue");
    let points = client_axis
        .iter()
        .map(|&clients| {
            let start = Instant::now();
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    std::thread::spawn(move || {
                        let client = HttpClient::connect(addr);
                        let contract = Address::from_low_u64(0xC0);
                        for i in 0..requests_per_client {
                            let req = TokenRequest::method_token(
                                contract,
                                Address::from_low_u64(30_000 + (t * 10_000 + i) as u64),
                                BenchTarget::PING_SIG,
                            );
                            client.issue(&req).expect("issue over http");
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("client thread");
            }
            let tokens_per_sec =
                (clients * requests_per_client) as f64 / start.elapsed().as_secs_f64().max(1e-9);
            ScalePoint {
                workers: clients,
                tokens_per_sec,
            }
        })
        .collect();
    server.shutdown();
    points
}

/// What holding many concurrent keep-alive connections costs: threads
/// (the pooled server vs the thread-per-connection model) and — the
/// reactor's headline number — steady-state CPU while every one of them
/// idles parked in the epoll set.
pub struct ConnectionScaling {
    /// Connections requested — the headline target (e.g. 50k).
    pub target_connections: usize,
    /// Concurrent keep-alive connections actually held (each served at
    /// least one request); clamped to the process fd budget.
    pub connections: usize,
    /// Connections parked in the reactor's epoll set at steady state.
    pub parked_connections: usize,
    /// Worker threads in the server's pool.
    pub pool_workers: usize,
    /// OS threads in this process while holding all connections
    /// (`/proc/self/status`; 0 when unavailable). Includes the test/bench
    /// harness's own threads — the point is that it does *not* grow with
    /// `connections`.
    pub os_threads: usize,
    /// What a thread-per-connection server would hold for the same load:
    /// one thread per open connection (plus its accept loop).
    pub spawn_model_threads: usize,
    /// Process CPU over the idle window, in percent ×100 (`/proc/self/stat`
    /// utime+stime; -1 when unreadable). Near zero proves the reactor
    /// blocks in `epoll_wait` — no periodic per-connection sweep remains.
    pub idle_cpu_pct_x100: i64,
    /// Length of the idle measurement window, ms.
    pub idle_window_ms: u64,
}

fn process_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The soft `RLIMIT_NOFILE` ceiling, from `/proc/self/limits`; `None`
/// off Linux or if the row is missing/unlimited.
fn open_file_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let row = limits.lines().find(|l| l.starts_with("Max open files"))?;
    // Layout: "Max open files   <soft>   <hard>   files"
    row.split_whitespace().nth(3)?.parse().ok()
}

/// Raise the soft `RLIMIT_NOFILE` to its hard ceiling and return the
/// resulting soft limit — a 50k-connection probe needs ~100k fds, far
/// past the stock 1024 soft limit, and raising soft→hard needs no
/// privilege.
fn raise_fd_limit() -> Option<usize> {
    unsafe {
        let mut lim = libc::rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        if libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim) != 0 {
            return None;
        }
        if lim.rlim_cur < lim.rlim_max {
            let raised = libc::rlimit {
                rlim_cur: lim.rlim_max,
                rlim_max: lim.rlim_max,
            };
            let _ = libc::setrlimit(libc::RLIMIT_NOFILE, &raised);
            if libc::getrlimit(libc::RLIMIT_NOFILE, &mut lim) != 0 {
                return None;
            }
        }
        Some(lim.rlim_cur as usize)
    }
}

/// This process's consumed CPU in clock ticks (`/proc/self/stat`
/// utime+stime — fields 14 and 15).
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces; fields count from after the ')'.
    let after_comm = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // `after_comm` starts at field 3 (state), so fields 14/15 sit at
    // indexes 11/12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

fn clock_ticks_per_sec() -> f64 {
    let hz = unsafe { libc::sysconf(libc::_SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// Hold `target` live keep-alive connections against one reactor-backed
/// server (pinging each so every connection has really been served),
/// wait for them all to park in the epoll set, then measure process CPU
/// over an idle window.
///
/// Each connection costs two fds in this process (client socket +
/// accepted server socket), so the count is clamped to fit the fd budget
/// with headroom — after raising the soft `RLIMIT_NOFILE` to the hard
/// ceiling. `target_connections` records what was asked for,
/// `connections` what the box allowed.
pub fn connection_scaling_probe(target: usize) -> ConnectionScaling {
    connection_scaling_probe_with_window(target, Duration::from_secs(2))
}

/// [`connection_scaling_probe`] with a caller-chosen idle window (tests
/// use a short one).
pub fn connection_scaling_probe_with_window(
    target: usize,
    idle_window: Duration,
) -> ConnectionScaling {
    let connections = match raise_fd_limit().or_else(open_file_soft_limit) {
        // 2 fds per connection + slack for stdio/listener/harness.
        Some(limit) => target.min(limit.saturating_sub(128) / 2).max(1),
        None => target,
    };
    let service = TokenService::new(
        Keypair::from_seed(15_000),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    );
    let server = HttpServer::start_with(
        Arc::new(FrontEnd::new(service, "bench-owner", 0)),
        smacs_ts::HttpServerConfig {
            max_connections: connections + 64,
            ..Default::default()
        },
    )
    .expect("loopback server");
    let pool_workers = server.pool().threads();
    let clients: Vec<HttpClient> = (0..connections)
        .map(|_| HttpClient::connect(server.addr()))
        .collect();
    for client in &clients {
        client.ping().expect("every connection gets served");
    }
    // Steady state: wait for every served connection to park.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.parked_connections() < connections && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let parked_connections = server.parked_connections();
    let os_threads = process_thread_count();

    // Nobody talks during the window; a poller-era server would still
    // burn a sweep per poll interval here, the reactor burns nothing.
    let before = process_cpu_ticks();
    std::thread::sleep(idle_window);
    let after = process_cpu_ticks();
    let idle_cpu_pct_x100 = match (before, after) {
        (Some(b), Some(a)) => {
            let cpu_secs = a.saturating_sub(b) as f64 / clock_ticks_per_sec();
            (cpu_secs / idle_window.as_secs_f64().max(1e-9) * 100.0 * 100.0) as i64
        }
        _ => -1,
    };

    let result = ConnectionScaling {
        target_connections: target,
        connections,
        parked_connections,
        pool_workers,
        os_threads,
        spawn_model_threads: connections + 1,
        idle_cpu_pct_x100,
        idle_window_ms: idle_window.as_millis() as u64,
    };
    drop(clients);
    server.shutdown();
    result
}

/// Batch-signing latency under an accept storm: the reactor's
/// two-priority lanes must keep `issue_batch` flowing (high lane) while
/// a flood of fresh connections drains through the low lane.
pub struct ConnectionStorm {
    /// Idle keep-alive connections parked in the reactor throughout.
    pub parked_connections: usize,
    /// Fresh connections opened (and served once) during the storm phase.
    pub storm_connections: usize,
    /// Batches timed per phase.
    pub batches: usize,
    /// Requests per batch.
    pub batch_size: usize,
    /// p99 batch round-trip with the listener quiet, ns.
    pub calm_batch_p99_ns: u64,
    /// p99 batch round-trip while the storm hammers the listener, ns.
    pub storm_batch_p99_ns: u64,
    /// Storm requests that failed — every accepted connection must be
    /// served, so anything but 0 is a dropped request.
    pub storm_errors: usize,
}

fn p99_ns(latencies: &mut [u64]) -> u64 {
    latencies.sort_unstable();
    latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)]
}

/// Park `parked` keep-alive connections, then time `batches` batch
/// issuances twice — once calm, once while storm threads keep opening,
/// using, and dropping fresh connections.
pub fn connection_storm_probe(parked: usize, batches: usize, batch_size: usize) -> ConnectionStorm {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    // Budget: 2 fds per parked conn + a few storm threads' transients.
    let parked = match raise_fd_limit().or_else(open_file_soft_limit) {
        Some(limit) => parked.min(limit.saturating_sub(256) / 2).max(1),
        None => parked,
    };
    let service = TokenService::new(
        Keypair::from_seed(15_500),
        RuleBook::permissive(),
        TokenServiceConfig::default(),
    );
    let server = HttpServer::start(Arc::new(FrontEnd::new(service, "bench-owner", 0)))
        .expect("loopback server");
    let addr = server.addr();
    let held: Vec<HttpClient> = (0..parked).map(|_| HttpClient::connect(addr)).collect();
    for client in &held {
        client.ping().expect("park connection");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.parked_connections() < parked && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    let batch_client = HttpClient::connect(addr);
    let contract = Address::from_low_u64(0xC0);
    let run_batches = |base: u64| -> Vec<u64> {
        (0..batches as u64)
            .map(|b| {
                let requests: Vec<TokenRequest> = (0..batch_size as u64)
                    .map(|i| {
                        TokenRequest::method_token(
                            contract,
                            Address::from_low_u64(base + b * 1_000 + i),
                            BenchTarget::PING_SIG,
                        )
                    })
                    .collect();
                let start = Instant::now();
                let results = batch_client.issue_batch(&requests).expect("batch envelope");
                let elapsed = start.elapsed().as_nanos() as u64;
                for result in results {
                    result.expect("batch item minted");
                }
                elapsed
            })
            .collect()
    };

    let mut calm = run_batches(40_000);

    // Storm: a few threads churning fresh connections until the timed
    // batches finish.
    let stop = Arc::new(AtomicBool::new(false));
    let opened = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let stormers: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            let opened = opened.clone();
            let errors = errors.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    opened.fetch_add(1, Ordering::Relaxed);
                    if HttpClient::connect(addr).ping().is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    let mut storm = run_batches(80_000);
    stop.store(true, Ordering::Relaxed);
    for handle in stormers {
        handle.join().expect("storm thread");
    }

    let result = ConnectionStorm {
        parked_connections: parked,
        storm_connections: opened.load(Ordering::Relaxed),
        batches,
        batch_size,
        calm_batch_p99_ns: p99_ns(&mut calm),
        storm_batch_p99_ns: p99_ns(&mut storm),
        storm_errors: errors.load(Ordering::Relaxed),
    };
    drop(held);
    server.shutdown();
    result
}

// ---- replicated-TS failover throughput (§VII-B availability) ----

use smacs_ts::{
    BreakerConfig, FailoverClient, HttpClientConfig, ReplicaSet, ReplicaSetConfig, RetryPolicy,
};
use std::time::Duration;

/// Issuance throughput through a replica set across a kill/recover cycle.
pub struct FailoverThroughput {
    /// Replicas in the set.
    pub replicas: usize,
    /// Tokens/sec with every replica live.
    pub steady_tokens_per_sec: f64,
    /// Tokens/sec with one replica killed (the failover client routes
    /// around the corpse; its breaker sheds the dead endpoint after the
    /// first few failures).
    pub degraded_tokens_per_sec: f64,
    /// Tokens/sec after the killed replica recovered on its old address.
    pub recovered_tokens_per_sec: f64,
}

impl FailoverThroughput {
    /// Degraded throughput as a fraction of steady (×100).
    pub fn degraded_fraction_x100(&self) -> f64 {
        self.degraded_tokens_per_sec / self.steady_tokens_per_sec.max(1e-9) * 100.0
    }
}

fn failover_round(client: &FailoverClient, tokens: usize, base: u64) -> f64 {
    let contract = Address::from_low_u64(0xC0);
    let start = Instant::now();
    for i in 0..tokens {
        let req = TokenRequest::method_token(
            contract,
            Address::from_low_u64(base + i as u64),
            BenchTarget::PING_SIG,
        );
        client.issue(&req).expect("failover issue");
    }
    tokens as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Measure single-issue throughput through a 3-replica set before, during,
/// and after killing one replica — the `ts_failover` bench. Uses expiry
/// (idempotent) issuance so the degraded phase can fail over freely.
pub fn ts_failover_throughput(tokens_per_phase: usize) -> FailoverThroughput {
    let mut set = ReplicaSet::start(
        Keypair::from_seed(16_000),
        RuleBook::permissive(),
        ReplicaSetConfig::default(),
    )
    .expect("replica set");
    let client = FailoverClient::with_config(
        set.addrs(),
        HttpClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        },
        RetryPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            deadline: Duration::from_secs(10),
        },
        BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(5),
        },
    );
    client.ping().expect("set alive");

    let steady = failover_round(&client, tokens_per_phase, 40_000);
    set.kill(0);
    let degraded = failover_round(&client, tokens_per_phase, 50_000);
    set.recover(0).expect("replica recovery");
    let recovered = failover_round(&client, tokens_per_phase, 60_000);

    let result = FailoverThroughput {
        replicas: set.len(),
        steady_tokens_per_sec: steady,
        degraded_tokens_per_sec: degraded,
        recovered_tokens_per_sec: recovered,
    };
    set.shutdown();
    result
}

/// Render the failover probe as JSON.
pub fn failover_to_json(probe: &FailoverThroughput) -> Json {
    Json::Obj(vec![
        ("replicas".into(), Json::Int(probe.replicas as i128)),
        (
            "steady_tokens_per_sec".into(),
            Json::Int(probe.steady_tokens_per_sec as i128),
        ),
        (
            "degraded_tokens_per_sec".into(),
            Json::Int(probe.degraded_tokens_per_sec as i128),
        ),
        (
            "recovered_tokens_per_sec".into(),
            Json::Int(probe.recovered_tokens_per_sec as i128),
        ),
        (
            "degraded_fraction_x100".into(),
            Json::Int(probe.degraded_fraction_x100() as i128),
        ),
    ])
}

/// One-time issuance throughput through the wire counter quorum — the
/// `ts_failover_wire` bench. Unlike [`FailoverThroughput`] (expiry tokens,
/// replica kill), every token here costs a real
/// `counter_prepare`/`counter_commit` vote round over TCP, and the fault
/// is a *counter* partition: one vote endpoint goes dark while all three
/// replicas keep serving clients, so each allocation must close on a 2/3
/// majority.
pub struct WireQuorumThroughput {
    /// Replicas (= counter nodes) in the set.
    pub replicas: usize,
    /// One-time tokens/sec with all counter nodes voting.
    pub steady_one_time_per_sec: f64,
    /// One-time tokens/sec with one counter node partitioned away — the
    /// quorum is a bare majority and the partitioned node's coordinator
    /// pays a failed self-vote on every allocation.
    pub partitioned_one_time_per_sec: f64,
    /// One-time tokens/sec after the partitioned node healed and caught
    /// up past every index committed while it was dark.
    pub recovered_one_time_per_sec: f64,
}

impl WireQuorumThroughput {
    /// Partitioned throughput as a fraction of steady (×100).
    pub fn partitioned_fraction_x100(&self) -> f64 {
        self.partitioned_one_time_per_sec / self.steady_one_time_per_sec.max(1e-9) * 100.0
    }
}

fn one_time_round(client: &FailoverClient, tokens: usize, base: u64) -> f64 {
    let contract = Address::from_low_u64(0xC1);
    let start = Instant::now();
    for i in 0..tokens {
        let req = TokenRequest::method_token(
            contract,
            Address::from_low_u64(base + i as u64),
            BenchTarget::PING_SIG,
        )
        .one_time();
        client.issue(&req).expect("wire-quorum one-time issue");
    }
    tokens as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Measure one-time issuance throughput through a 3-replica wire-quorum
/// set before, during, and after partitioning one counter node.
pub fn ts_failover_wire_throughput(tokens_per_phase: usize) -> WireQuorumThroughput {
    let set = ReplicaSet::start(
        Keypair::from_seed(16_001),
        RuleBook::permissive(),
        ReplicaSetConfig::default(),
    )
    .expect("replica set");
    let client = FailoverClient::with_config(
        set.addrs(),
        HttpClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        },
        RetryPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            deadline: Duration::from_secs(10),
        },
        BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(5),
        },
    );
    client.ping().expect("set alive");

    let steady = one_time_round(&client, tokens_per_phase, 70_000);
    set.partition_counter(0);
    let partitioned = one_time_round(&client, tokens_per_phase, 80_000);
    set.heal_counter(0).expect("counter heal");
    let recovered = one_time_round(&client, tokens_per_phase, 90_000);

    let result = WireQuorumThroughput {
        replicas: set.len(),
        steady_one_time_per_sec: steady,
        partitioned_one_time_per_sec: partitioned,
        recovered_one_time_per_sec: recovered,
    };
    set.shutdown();
    result
}

/// Render the wire-quorum probe as JSON.
pub fn wire_failover_to_json(probe: &WireQuorumThroughput) -> Json {
    Json::Obj(vec![
        ("replicas".into(), Json::Int(probe.replicas as i128)),
        (
            "steady_one_time_per_sec".into(),
            Json::Int(probe.steady_one_time_per_sec as i128),
        ),
        (
            "partitioned_one_time_per_sec".into(),
            Json::Int(probe.partitioned_one_time_per_sec as i128),
        ),
        (
            "recovered_one_time_per_sec".into(),
            Json::Int(probe.recovered_one_time_per_sec as i128),
        ),
        (
            "partitioned_fraction_x100".into(),
            Json::Int(probe.partitioned_fraction_x100() as i128),
        ),
    ])
}

/// ns per `ecrecover` (digest + signature → address) — the per-request
/// verify cost the wNAF ladder attacks.
pub fn ecdsa_recover_ns(iters: u32) -> f64 {
    let kp = Keypair::from_seed(42);
    let digest = smacs_crypto::keccak256(b"perf recover probe");
    let sig = kp.sign_digest(&digest);
    assert_eq!(
        smacs_crypto::recover_address(&digest, &sig),
        Some(kp.address())
    );
    time_per_iter(iters, || {
        std::hint::black_box(smacs_crypto::recover_address(&digest, &sig));
    })
}

/// Render the signing-scaling sweep (plus the 1→4 speedup the acceptance
/// gate tracks) as JSON.
pub fn scaling_to_json(batch: usize, points: &[ScalePoint]) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("batch_size".into(), Json::Int(batch as i128)),
        (
            "available_parallelism".into(),
            Json::Int(
                std::thread::available_parallelism()
                    .map(|n| n.get() as i128)
                    .unwrap_or(1),
            ),
        ),
        (
            "points".into(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("workers".into(), Json::Int(p.workers as i128)),
                            ("tokens_per_sec".into(), Json::Int(p.tokens_per_sec as i128)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let at = |w: usize| points.iter().find(|p| p.workers == w);
    if let (Some(one), Some(four)) = (at(1), at(4)) {
        members.push((
            "speedup_1_to_4_x100".into(),
            Json::Int((four.tokens_per_sec / one.tokens_per_sec.max(1e-9) * 100.0) as i128),
        ));
    }
    Json::Obj(members)
}

/// Render the connection probe as JSON.
pub fn connection_scaling_to_json(probe: &ConnectionScaling) -> Json {
    Json::Obj(vec![
        (
            "target_connections".into(),
            Json::Int(probe.target_connections as i128),
        ),
        ("connections".into(), Json::Int(probe.connections as i128)),
        (
            "parked_connections".into(),
            Json::Int(probe.parked_connections as i128),
        ),
        ("pool_workers".into(), Json::Int(probe.pool_workers as i128)),
        ("os_threads".into(), Json::Int(probe.os_threads as i128)),
        (
            "spawn_model_threads".into(),
            Json::Int(probe.spawn_model_threads as i128),
        ),
        (
            "idle_cpu_pct_x100".into(),
            Json::Int(probe.idle_cpu_pct_x100 as i128),
        ),
        (
            "idle_window_ms".into(),
            Json::Int(probe.idle_window_ms as i128),
        ),
    ])
}

/// Render the accept-storm probe as JSON.
pub fn connection_storm_to_json(probe: &ConnectionStorm) -> Json {
    Json::Obj(vec![
        (
            "parked_connections".into(),
            Json::Int(probe.parked_connections as i128),
        ),
        (
            "storm_connections".into(),
            Json::Int(probe.storm_connections as i128),
        ),
        ("batches".into(), Json::Int(probe.batches as i128)),
        ("batch_size".into(), Json::Int(probe.batch_size as i128)),
        (
            "calm_batch_p99_ns".into(),
            Json::Int(probe.calm_batch_p99_ns as i128),
        ),
        (
            "storm_batch_p99_ns".into(),
            Json::Int(probe.storm_batch_p99_ns as i128),
        ),
        ("storm_errors".into(), Json::Int(probe.storm_errors as i128)),
    ])
}

/// One point of the `WorldState::commit` shared-base rebuild sweep.
pub struct ThresholdPoint {
    /// Overlay size at which a fork-shared base is rebuilt.
    pub threshold: usize,
    /// Average ns per block commit during the write burst.
    pub commit_ns: f64,
    /// ns to `fork()` after the burst — the cost left behind by whatever
    /// overlay the threshold allowed to accumulate.
    pub post_burst_fork_ns: f64,
    /// Overlay entries still unflattened when the burst ends.
    pub residual_overlay: usize,
}

/// Sweep the shared-base rebuild threshold under the workload it exists
/// for: a long-lived fork (the Token Service's standing testnet) pins the
/// base while the chain commits a burst of small blocks. Low thresholds
/// rebuild often (commit pays the O(world) copy more frequently); high
/// thresholds let the overlay grow, which every later `fork()` re-clones.
pub fn commit_threshold_sweep(world_slots: u64, thresholds: &[usize]) -> Vec<ThresholdPoint> {
    const BLOCKS: usize = 256;
    const WRITES_PER_BLOCK: u64 = 64;
    thresholds
        .iter()
        .map(|&threshold| {
            let mut world = populated_world(world_slots);
            world.set_rebuild_threshold(threshold);
            let pin = world.fork(); // standing testnet: keeps the base shared
            let start = Instant::now();
            for b in 0..BLOCKS as u64 {
                for w in 0..WRITES_PER_BLOCK {
                    let i = b * WRITES_PER_BLOCK + w;
                    world.storage_set(addr(i % 64), key(world_slots + i), key(i + 1));
                }
                world.commit();
            }
            let commit_ns = start.elapsed().as_nanos() as f64 / BLOCKS as f64;
            let residual_overlay = world.overlay_len();
            let post_burst_fork_ns = time_per_iter(64, || {
                std::hint::black_box(world.fork());
            });
            drop(pin);
            ThresholdPoint {
                threshold,
                commit_ns,
                post_burst_fork_ns,
                residual_overlay,
            }
        })
        .collect()
}

/// Render the threshold sweep as a JSON object: one `t{N}_*` triple per
/// point plus the default threshold for context. The `_ns` leaves gate as
/// lower-is-better in `perf_regression`.
pub fn threshold_sweep_to_json(world_slots: u64, points: &[ThresholdPoint]) -> Json {
    let mut members: Vec<(String, Json)> = vec![
        ("world_slots".into(), Json::Int(world_slots as i128)),
        (
            "default_threshold".into(),
            Json::Int(WorldState::SHARED_BASE_REBUILD_THRESHOLD as i128),
        ),
    ];
    for p in points {
        members.push((
            format!("t{}_commit_ns", p.threshold),
            Json::Int(p.commit_ns as i128),
        ));
        members.push((
            format!("t{}_post_burst_fork_ns", p.threshold),
            Json::Int(p.post_burst_fork_ns as i128),
        ));
        members.push((
            format!("t{}_residual_overlay", p.threshold),
            Json::Int(p.residual_overlay as i128),
        ));
    }
    Json::Obj(members)
}

// ---- Optimistic parallel block execution ----

/// Senders in the parallel-block workload. Enough that the low-conflict
/// regime keeps every pool worker fed with independent transactions.
const BLOCK_SENDERS: usize = 16;

/// Build a chain (funded senders, one seeded AMM) plus `blocks`
/// pre-generated, pre-signed blocks of `txs_per_block` transactions.
/// Transaction `j` of every block is an AMM swap when
/// `(j * 61) % 100 < conflict_pct` — all swaps touch the shared reserves,
/// so they conflict and re-execute — and a disjoint EOA transfer
/// otherwise, which validates and commits straight from its delta. The
/// `* 61` interleaves the two kinds instead of clustering them.
fn block_workload(
    conflict_pct: u64,
    blocks: usize,
    txs_per_block: usize,
) -> (Chain, Vec<Vec<SignedTransaction>>) {
    let mut chain = Chain::default_chain();
    let owner = chain.funded_keypair(1, 10u128.pow(24));
    let senders: Vec<Keypair> = (0..BLOCK_SENDERS)
        .map(|i| chain.funded_keypair(100 + i as u64, 10u128.pow(24)))
        .collect();
    let (amm, _) = chain
        .deploy(&owner, Arc::new(SmacsAmm))
        .expect("deploy amm");
    chain
        .call_contract(
            &owner,
            amm.address,
            0,
            SmacsAmm::seed_payload(1_000_000_000, 1_000_000_000),
        )
        .expect("seed amm");
    chain.seal_block();
    let mut nonces: Vec<u64> = senders
        .iter()
        .map(|kp| chain.state().nonce(kp.address()))
        .collect();
    let prebuilt = (0..blocks)
        .map(|b| {
            (0..txs_per_block)
                .map(|j| {
                    let s = (b * txs_per_block + j) % senders.len();
                    let nonce = nonces[s];
                    nonces[s] += 1;
                    let tx = if (j as u64 * 61) % 100 < conflict_pct {
                        Transaction::call(
                            nonce,
                            amm.address,
                            0,
                            SmacsAmm::swap_payload(1 + j as u64, 0),
                        )
                    } else {
                        Transaction::call(
                            nonce,
                            Address::from_low_u64(0x9_0000 + (b * txs_per_block + j) as u64),
                            1,
                            Bytes::new(),
                        )
                    };
                    // Reassemble from parts: `sign` pre-seeds the sender
                    // cache for the local-wallet path, but a block
                    // arriving off the wire carries no such warm cache —
                    // and the per-tx ECDSA recovery is exactly the work
                    // the parallel pipeline exists to spread across cores.
                    let signed = tx.sign(&senders[s]);
                    SignedTransaction::from_parts(signed.tx.clone(), signed.signature)
                })
                .collect()
        })
        .collect();
    (chain, prebuilt)
}

/// Transactions per second executing the pre-built workload through the
/// unified block path — sequential when `pool` is `None`, optimistic
/// parallel otherwise. The workload's sender caches are cold (see
/// [`block_workload`]), so every tx pays its ECDSA recovery inside the
/// measured (and, in parallel mode, speculated) region, as on a real
/// node ingesting foreign blocks.
fn block_throughput(
    conflict_pct: u64,
    blocks: usize,
    txs_per_block: usize,
    pool: Option<&WorkerPool>,
) -> f64 {
    let (mut chain, prebuilt) = block_workload(conflict_pct, blocks, txs_per_block);
    let start = Instant::now();
    for txs in &prebuilt {
        let results = match pool {
            Some(p) => chain.execute_block_with(txs, BlockMode::Parallel(p)),
            None => chain.execute_block_with(txs, BlockMode::Sequential),
        };
        debug_assert!(results.iter().all(|r| r.is_ok()), "workload tx failed");
        std::hint::black_box(&results);
        chain.seal_block();
    }
    (blocks * txs_per_block) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// One conflict regime of the parallel-block sweep.
pub struct ParallelBlockPoint {
    /// Percentage of transactions per block that hit the shared AMM.
    pub conflict_pct: u64,
    /// Throughput through `BlockMode::Sequential`.
    pub sequential_txs_per_sec: f64,
    /// `(pool threads, throughput)` through `BlockMode::Parallel`.
    pub by_threads: Vec<(usize, f64)>,
}

/// Sweep optimistic parallel block execution across pool sizes and
/// conflict rates, with the sequential path as the baseline at each
/// conflict rate. Caveat: on the 1-CPU reference container the parallel
/// numbers measure overhead, not speedup — the scaling gate in
/// `tests/shapes.rs` self-arms only where the cores exist.
pub fn parallel_block_execution(
    blocks: usize,
    txs_per_block: usize,
    threads: &[usize],
    conflict_pcts: &[u64],
) -> Vec<ParallelBlockPoint> {
    conflict_pcts
        .iter()
        .map(|&pct| {
            let sequential_txs_per_sec = block_throughput(pct, blocks, txs_per_block, None);
            let by_threads = threads
                .iter()
                .map(|&t| {
                    let pool = WorkerPool::new(t, 1024);
                    let tps = block_throughput(pct, blocks, txs_per_block, Some(&pool));
                    pool.shutdown();
                    (t, tps)
                })
                .collect();
            ParallelBlockPoint {
                conflict_pct: pct,
                sequential_txs_per_sec,
                by_threads,
            }
        })
        .collect()
}

/// Render the parallel-block sweep for `BENCH_results.json`. Per regime:
/// `c{pct}_seq_txs_per_sec`, one `c{pct}_t{n}_txs_per_sec` per pool size
/// (all higher-is-better under `perf_regression`), and the widest pool's
/// `c{pct}_t{n}_speedup_x100` vs sequential. `available_parallelism`
/// records the hardware so 1-CPU-container numbers aren't compared
/// against multi-core ones by eye.
pub fn parallel_block_to_json(
    blocks: usize,
    txs_per_block: usize,
    points: &[ParallelBlockPoint],
) -> Json {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut members: Vec<(String, Json)> = vec![
        ("blocks".into(), Json::Int(blocks as i128)),
        ("txs_per_block".into(), Json::Int(txs_per_block as i128)),
        ("available_parallelism".into(), Json::Int(cores as i128)),
    ];
    for p in points {
        members.push((
            format!("c{}_seq_txs_per_sec", p.conflict_pct),
            Json::Int(p.sequential_txs_per_sec as i128),
        ));
        for &(t, tps) in &p.by_threads {
            members.push((
                format!("c{}_t{}_txs_per_sec", p.conflict_pct, t),
                Json::Int(tps as i128),
            ));
        }
        if let Some(&(t, tps)) = p.by_threads.last() {
            members.push((
                format!("c{}_t{}_speedup_x100", p.conflict_pct, t),
                Json::Int((tps / p.sequential_txs_per_sec.max(1.0) * 100.0) as i128),
            ));
        }
    }
    Json::Obj(members)
}

/// The cost of `TouchSet` recording on the overlay hot path.
pub struct TouchsetOverhead {
    /// ns per overlay operation with recording off (the sequential path).
    pub plain_op_ns: f64,
    /// ns per overlay operation with recording on (the speculation path).
    pub recorded_op_ns: f64,
}

/// Measure per-operation overhead of read/write-set recording: the same
/// mix of tracked reads and writes against a fork of a `slots`-slot
/// world, with and without `begin_touch_recording`. The delta is what
/// every speculated transaction pays so the commit stage can validate it.
pub fn touchset_overhead_ns(slots: u64, iters: u32) -> TouchsetOverhead {
    const ROUNDS: u64 = 256;
    const OPS_PER_ROUND: u64 = 4; // tracked read, write, balance read, credit
    let world = populated_world(slots);
    let run = |record: bool| {
        time_per_iter(iters, || {
            let mut fork = world.fork();
            if record {
                fork.begin_touch_recording();
            }
            for i in 0..ROUNDS {
                let a = addr(i % 64);
                std::hint::black_box(fork.storage_get_tracked(a, key(i)));
                fork.storage_set(a, key(i), key(i + 2));
                std::hint::black_box(fork.balance_tracked(a));
                fork.credit(a, 1);
            }
            if record {
                std::hint::black_box(fork.take_touch_set());
            }
            std::hint::black_box(&fork);
        }) / (ROUNDS * OPS_PER_ROUND) as f64
    };
    TouchsetOverhead {
        plain_op_ns: run(false),
        recorded_op_ns: run(true),
    }
}

/// Render the touch-set overhead probe: both `*_op_ns` legs gate
/// lower-is-better, and `touchset_overhead_ns` is the recorded-minus-plain
/// delta (clamped at zero — timing noise can invert tiny gaps).
pub fn touchset_overhead_to_json(o: &TouchsetOverhead) -> Json {
    Json::Obj(vec![
        (
            "plain_overlay_op_ns".into(),
            Json::Int(o.plain_op_ns as i128),
        ),
        (
            "recorded_overlay_op_ns".into(),
            Json::Int(o.recorded_op_ns as i128),
        ),
        (
            "touchset_overhead_ns".into(),
            Json::Int((o.recorded_op_ns - o.plain_op_ns).max(0.0) as i128),
        ),
    ])
}

/// One labeled measurement in the machine-readable summary.
pub struct PerfRow {
    /// Metric name.
    pub name: &'static str,
    /// Nanoseconds per operation.
    pub ns: f64,
}

/// The standard perf sweep behind `BENCH_results.json`. `slots` sizes the
/// large world (the acceptance sweep uses 100_000).
pub fn standard_sweep(slots: u64) -> Vec<PerfRow> {
    let iters = 200;
    vec![
        PerfRow {
            name: "state_snapshot_large_world_journaled_ns",
            ns: journaled_snapshot_revert_ns(slots, iters),
        },
        PerfRow {
            name: "state_snapshot_large_world_clone_baseline_ns",
            ns: clone_snapshot_revert_ns(slots, 20),
        },
        PerfRow {
            name: "fork_large_world_journaled_ns",
            ns: journaled_fork_ns(slots, iters),
        },
        PerfRow {
            name: "fork_large_world_clone_baseline_ns",
            ns: clone_fork_ns(slots, 20),
        },
        PerfRow {
            name: "fork_simulate_ns",
            ns: fork_simulate_ns(slots, iters),
        },
        PerfRow {
            name: "call_chain_depth16_ns",
            ns: call_chain_ns(16, 10),
        },
        PerfRow {
            name: "ecdsa_recover_ns",
            ns: ecdsa_recover_ns(50),
        },
    ]
}

/// Render a perf sweep (plus derived speedups) as a JSON object.
pub fn sweep_to_json(slots: u64, rows: &[PerfRow]) -> Json {
    let get = |name: &str| rows.iter().find(|r| r.name == name).map(|r| r.ns);
    let mut members: Vec<(String, Json)> = vec![("world_slots".into(), Json::Int(slots as i128))];
    for row in rows {
        members.push((row.name.into(), Json::Int(row.ns as i128)));
    }
    if let (Some(journaled), Some(clone)) = (
        get("state_snapshot_large_world_journaled_ns"),
        get("state_snapshot_large_world_clone_baseline_ns"),
    ) {
        members.push((
            "snapshot_speedup_vs_clone".into(),
            Json::Int((clone / journaled.max(1.0)) as i128),
        ));
    }
    if let (Some(journaled), Some(clone)) = (
        get("fork_large_world_journaled_ns"),
        get("fork_large_world_clone_baseline_ns"),
    ) {
        members.push((
            "fork_speedup_vs_clone".into(),
            Json::Int((clone / journaled.max(1.0)) as i128),
        ));
    }
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_scenario_traverses_all_links() {
        let mut scenario = ChainScenario::new(3);
        scenario.run_once();
    }

    #[test]
    fn wire_throughput_probe_mints_on_both_paths() {
        let wire = ts_wire_throughput(4, 1);
        assert!(wire.batch_tokens_per_sec > 0.0);
        assert!(wire.sequential_tokens_per_sec > 0.0);
        let json = wire_throughput_to_json(&wire);
        assert!(json.get("batch_speedup_x100").is_some());
    }

    #[test]
    fn sweep_emits_all_metrics() {
        let rows = standard_sweep(500); // small world: keep the test fast
        assert_eq!(rows.len(), 7);
        let json = sweep_to_json(500, &rows);
        assert!(json.get("snapshot_speedup_vs_clone").is_some());
        assert!(json.get("call_chain_depth16_ns").is_some());
        assert!(json.get("ecdsa_recover_ns").is_some());
    }

    #[test]
    fn parallel_block_probe_runs_all_modes() {
        let points = parallel_block_execution(2, 8, &[1, 2], &[0, 100]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.sequential_txs_per_sec > 0.0);
            assert_eq!(p.by_threads.len(), 2);
            assert!(p.by_threads.iter().all(|&(_, tps)| tps > 0.0));
        }
        let json = parallel_block_to_json(2, 8, &points);
        assert!(json.get("c0_seq_txs_per_sec").is_some());
        assert!(json.get("c100_t2_txs_per_sec").is_some());
        assert!(json.get("c100_t2_speedup_x100").is_some());
    }

    #[test]
    fn touchset_probe_measures_both_legs() {
        let o = touchset_overhead_ns(2_000, 4);
        assert!(o.plain_op_ns > 0.0 && o.recorded_op_ns > 0.0);
        let json = touchset_overhead_to_json(&o);
        assert!(json.get("touchset_overhead_ns").is_some());
    }

    #[test]
    fn threshold_sweep_rebuilds_below_and_accumulates_above() {
        // Burst = 256 blocks × 64 writes to fresh keys = 16_384 overlay
        // entries. A tiny threshold must flatten (small residual); a
        // threshold above the burst size must leave it all accumulated.
        let points = commit_threshold_sweep(2_000, &[64, 1 << 20]);
        assert!(points[0].residual_overlay < 64);
        assert!(points[1].residual_overlay >= 16_384);
        let json = threshold_sweep_to_json(2_000, &points);
        assert!(json.get("t64_commit_ns").is_some());
        assert!(json.get("t1048576_post_burst_fork_ns").is_some());
        assert!(json.get("default_threshold").is_some());
    }

    #[test]
    fn signing_scaling_probe_mints_and_reports() {
        let points = concurrent_signing_scaling(16, &[1, 2], 1);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.tokens_per_sec > 0.0));
        let json = scaling_to_json(16, &points);
        assert!(json.get("points").is_some());
        assert!(json.get("available_parallelism").is_some());
    }

    #[test]
    fn failover_probe_survives_a_kill_and_recovery() {
        let probe = ts_failover_throughput(8);
        assert_eq!(probe.replicas, 3);
        assert!(probe.steady_tokens_per_sec > 0.0);
        assert!(probe.degraded_tokens_per_sec > 0.0);
        assert!(probe.recovered_tokens_per_sec > 0.0);
        let json = failover_to_json(&probe);
        assert!(json.get("degraded_fraction_x100").is_some());
    }

    #[test]
    fn wire_quorum_probe_survives_a_counter_partition() {
        let probe = ts_failover_wire_throughput(4);
        assert_eq!(probe.replicas, 3);
        assert!(probe.steady_one_time_per_sec > 0.0);
        assert!(probe.partitioned_one_time_per_sec > 0.0);
        assert!(probe.recovered_one_time_per_sec > 0.0);
        let json = wire_failover_to_json(&probe);
        assert!(json.get("partitioned_fraction_x100").is_some());
    }

    #[test]
    fn connection_probe_counts_threads_not_connections() {
        let probe = connection_scaling_probe_with_window(32, Duration::from_millis(100));
        assert_eq!(probe.target_connections, 32);
        assert_eq!(probe.connections, 32);
        assert_eq!(probe.parked_connections, 32, "every idle conn must park");
        assert_eq!(probe.spawn_model_threads, 33);
        // The pooled server's thread cost must not scale with the
        // connection count (32 idle connections, a handful of workers).
        assert!(
            probe.pool_workers < probe.connections,
            "pool {} vs connections {}",
            probe.pool_workers,
            probe.connections
        );
        assert!(probe.idle_cpu_pct_x100 >= 0, "CPU accounting unreadable");
        let json = connection_scaling_to_json(&probe);
        assert!(json.get("os_threads").is_some());
        assert!(json.get("idle_cpu_pct_x100").is_some());
    }

    #[test]
    fn storm_probe_serves_every_request() {
        let probe = connection_storm_probe(32, 4, 4);
        assert_eq!(probe.parked_connections, 32);
        assert!(probe.storm_connections > 0, "storm never stormed");
        assert_eq!(probe.storm_errors, 0, "storm requests dropped");
        assert!(probe.calm_batch_p99_ns > 0);
        assert!(probe.storm_batch_p99_ns > 0);
        let json = connection_storm_to_json(&probe);
        assert!(json.get("storm_batch_p99_ns").is_some());
    }
}
