//! Criterion micro-benchmarks for the SMACS hot paths: keccak, ECDSA
//! sign/recover, the Alg. 2 bitmap, ACR evaluation, token issuance, and
//! the full on-chain verification path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use smacs_bench::setup::World;
use smacs_contracts::BenchTarget;
use smacs_core::bitmap::BitmapState;
use smacs_core::client::build_call_data;
use smacs_crypto::{keccak256, recover_address, Keypair};
use smacs_primitives::Address;
use smacs_token::{TokenRequest, TokenType};
use smacs_ts::{InProcessClient, RuleBook, TokenService, TokenServiceConfig, TsApi};
use std::time::Duration;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let kp = Keypair::from_seed(1);
    let digest = keccak256(b"benchmark digest");
    let sig = kp.sign_digest(&digest);

    group.bench_function("keccak256_86B", |b| {
        let data = [0xABu8; 86];
        b.iter(|| keccak256(std::hint::black_box(&data)))
    });
    group.bench_function("ecdsa_sign", |b| b.iter(|| kp.sign_digest(&digest)));
    group.bench_function("ecdsa_recover", |b| {
        b.iter(|| recover_address(&digest, &sig).unwrap())
    });
    group.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitmap");
    group.bench_function("try_use_sequential_1k", |b| {
        b.iter_batched(
            || BitmapState::new(126_000),
            |mut bm| {
                for i in 0..1_000u128 {
                    assert!(bm.try_use(i).is_accepted());
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("try_use_window_slide", |b| {
        b.iter_batched(
            || {
                let mut bm = BitmapState::new(1_024);
                for i in 0..1_024u128 {
                    bm.try_use(i);
                }
                bm
            },
            |mut bm| bm.try_use(2_000),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("acr");
    let client = Keypair::from_seed(2).address();
    let rules = smacs_bench::fig9::fig6_rules(client, 10_000);
    let req = TokenRequest::super_token(Address::from_low_u64(0xC0), client);
    group.bench_function("check_10k_whitelist", |b| {
        b.iter(|| rules.check(std::hint::black_box(&req)).unwrap())
    });
    group.finish();
}

fn bench_issuance(c: &mut Criterion) {
    let mut group = c.benchmark_group("issuance");
    let client = Keypair::from_seed(2).address();
    let contract = Address::from_low_u64(0xC0);
    let ts = InProcessClient::new(
        TokenService::new(
            Keypair::from_seed(3),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        ),
        "bench-owner",
        0,
    );
    for (label, req) in [
        ("super", TokenRequest::super_token(contract, client)),
        (
            "method",
            TokenRequest::method_token(contract, client, BenchTarget::PING_SIG),
        ),
        (
            "argument",
            TokenRequest::argument_token(
                contract,
                client,
                BenchTarget::PING_SIG,
                vec![],
                BenchTarget::ping_payload(1, 2),
            ),
        ),
    ] {
        group.bench_function(label, |b| b.iter(|| ts.issue(&req).unwrap()));
    }
    group.finish();
}

fn bench_ts_issue_batch(c: &mut Criterion) {
    use smacs_bench::perf::WireScenario;

    // The acceptance comparison: 64 tokens per v2 batch envelope vs 64
    // sequential v2 `issue` round trips, both on the same keep-alive
    // connection to the same HTTP server.
    const BATCH: usize = 64;
    let mut group = c.benchmark_group("ts_issue_batch");
    group.sample_size(10);
    let scenario = WireScenario::new(BATCH);
    scenario.client.ping().expect("server alive");
    group.bench_function("http_batch_64", |b| b.iter(|| scenario.run_batch()));
    group.bench_function("http_sequential_64", |b| {
        b.iter(|| scenario.run_sequential())
    });
    group.finish();
}

fn bench_ts_concurrent_issuance(c: &mut Criterion) {
    use smacs_primitives::WorkerPool;

    // Tokens/sec vs signing-pool size: batch-of-256 in-process issuance
    // through pools of 1/2/4/8 workers. Workers beyond the core count add
    // nothing (and a 1-core box pins every variant to the sequential
    // baseline) — the absolute numbers say what the hardware allows.
    const BATCH: usize = 256;
    let mut group = c.benchmark_group("ts_concurrent_issuance");
    group.sample_size(10);
    let contract = Address::from_low_u64(0xC0);
    let requests: Vec<TokenRequest> = (0..BATCH)
        .map(|i| {
            TokenRequest::method_token(
                contract,
                Address::from_low_u64(40_000 + i as u64),
                BenchTarget::PING_SIG,
            )
        })
        .collect();
    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers, 4096);
        let ts = TokenService::new(
            Keypair::from_seed(3),
            RuleBook::permissive(),
            TokenServiceConfig::default(),
        )
        .with_pool(pool.clone());
        group.bench_function(format!("batch_256_pool_{workers}"), |b| {
            b.iter(|| {
                let results = ts.issue_batch(&requests, 0);
                debug_assert!(results.iter().all(|r| r.is_ok()));
                results.len()
            })
        });
        pool.shutdown();
    }
    group.finish();
}

fn bench_verify_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("onchain_verify");
    group.sample_size(20);
    for ttype in TokenType::ALL {
        let mut world = World::new();
        let payload = BenchTarget::ping_payload(3, 4);
        let token = world.issue(ttype, world.target, BenchTarget::PING_SIG, &payload, false);
        let data = build_call_data(&payload, world.target, token);
        let from = world.client.address();
        let target = world.target;
        group.bench_function(format!("dry_run_{ttype}"), |b| {
            b.iter(|| {
                let (result, gas, _, _) = world.chain.dry_run(from, target, 0, data.clone());
                assert!(result.is_ok());
                gas
            })
        });
    }
    group.finish();
}

fn bench_state(c: &mut Criterion) {
    use smacs_bench::perf::{populated_world, CloneBaselineState};
    use smacs_primitives::{H256, U256};

    const SLOTS: u64 = 100_000;
    let mut group = c.benchmark_group("state");
    group.sample_size(20);

    // Checkpoint + 1-slot write + revert on a 100k-slot world. The
    // journaled implementation is O(entries written); the clone baseline
    // (the seed's behaviour) pays O(world) per snapshot.
    group.bench_function("state_snapshot_large_world", |b| {
        let mut world = populated_world(SLOTS);
        let a = Address::from_low_u64(4);
        let k = H256::from_u256(U256::from_u64(1));
        b.iter(|| {
            let snap = world.snapshot();
            world.storage_set(a, k, H256::from_u256(U256::from_u64(99)));
            world.revert_to(snap);
        })
    });
    group.bench_function("state_snapshot_large_world_clone_baseline", |b| {
        let mut world = CloneBaselineState::populated(SLOTS);
        let a = Address::from_low_u64(4);
        let k = H256::from_u256(U256::from_u64(1));
        b.iter(|| {
            world.snapshot();
            world.storage_set(a, k, H256::from_u256(U256::from_u64(99)));
            world.revert();
        })
    });

    // Fork + simulate + discard: the Token Service's per-request pattern.
    group.bench_function("fork_simulate", |b| {
        let world = populated_world(SLOTS);
        let a = Address::from_low_u64(5);
        let k = H256::from_u256(U256::from_u64(2));
        b.iter(|| {
            let mut fork = world.fork();
            let snap = fork.snapshot();
            fork.storage_set(a, k, H256::from_u256(U256::from_u64(7)));
            fork.credit(Address::from_low_u64(6), 1);
            fork.revert_to(snap);
            fork
        })
    });
    group.bench_function("fork_clone_baseline", |b| {
        let world = CloneBaselineState::populated(SLOTS);
        b.iter(|| world.fork())
    });
    group.finish();
}

fn bench_call_chain(c: &mut Criterion) {
    use smacs_bench::perf::ChainScenario;

    let mut group = c.benchmark_group("exec");
    group.sample_size(10);
    // Deep token call chain: every hop re-parses the shared calldata and
    // forwards the token array, exercising the zero-copy Bytes path.
    for depth in [4usize, 16] {
        let mut scenario = ChainScenario::new(depth);
        group.bench_function(format!("call_chain_depth_{depth}"), |b| {
            b.iter(|| scenario.run_once())
        });
    }
    group.finish();
}

fn quick() -> Criterion {
    // Keep the full `cargo bench` sweep under a couple of minutes; the
    // measured operations are microseconds-scale, so short windows are
    // statistically fine.
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_crypto, bench_bitmap, bench_rules, bench_issuance, bench_ts_issue_batch,
        bench_ts_concurrent_issuance, bench_verify_path, bench_state, bench_call_chain
}
criterion_main!(benches);
