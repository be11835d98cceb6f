//! `verify_blocks`: closed loop over blocks of 64 token-bearing
//! transactions, each run through `Chain::execute_block_with` once
//! `Sequential` and once `Parallel` on an `nproc`-thread pool, every pass
//! on a fresh fork of the chain and with cold sender caches.

use smacs_chain::{BlockMode, Chain, ChainError, Receipt};
use smacs_primitives::{WorkerPool, H256};
use std::time::{Duration, Instant};

use crate::checks::{self, Checks};
use crate::gen::Steal;
use crate::issue::{peak_rss_mb, set_up};
use crate::rig::{ChainRig, TxKind, BLOCK_TXS};
use crate::stats::{self, Tail};
use crate::{Metric, Report, Run};

/// Blocks per pass over a fresh fork.
pub const BLOCKS: usize = 8;
/// Set-ups per run; `setup_s` is their quiet median.
pub const SETUPS: usize = 15;
/// Share of the run's seconds spent executing passes.
pub const MEASURE_SHARE: f64 = 0.85;
/// Confirmation latency limit for `slo_rate_per_s`.
pub const LIMIT_MS: f64 = 250.0;

/// What one transaction's execution produced, for comparison between
/// passes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxResult {
    pub success: bool,
    pub gas: u64,
    pub verify: u64,
    pub bitmap: u64,
    pub parse: u64,
}

impl TxResult {
    fn of(result: &Result<Receipt, ChainError>) -> TxResult {
        match result {
            Ok(r) => TxResult {
                success: r.status.is_success(),
                gas: r.gas_used,
                verify: r.breakdown.section("verify"),
                bitmap: r.breakdown.section("bitmap"),
                parse: r.breakdown.section("parse"),
            },
            Err(_) => TxResult {
                success: false,
                gas: 0,
                verify: 0,
                bitmap: 0,
                parse: 0,
            },
        }
    }
}

/// One pass over every block on a fresh fork.
#[derive(Clone)]
pub struct Pass {
    pub block_ms: Vec<f64>,
    pub results: Vec<TxResult>,
    pub digest: H256,
}

/// Run every block of `rig` in `mode` on a fresh fork; `around` sees each
/// block's start and end instants (for spans). Sender caches start cold
/// unless `warm`, which recovers every sender before the block is timed.
pub fn pass<'p>(
    rig: &ChainRig,
    mode: &dyn Fn() -> BlockMode<'p>,
    warm: bool,
    mut around: impl FnMut(Instant, Instant),
) -> Pass {
    let mut chain: Chain = rig.base.fork();
    let mut block_ms = Vec::with_capacity(rig.blocks.len());
    let mut results = Vec::with_capacity(rig.txs());
    for block in &rig.blocks {
        let txs: Vec<_> = block.iter().map(|p| p.cold()).collect();
        if warm {
            txs.iter().for_each(|tx| {
                tx.sender();
            });
        }
        let start = Instant::now();
        let out = chain.execute_block_with(&txs, mode());
        let end = Instant::now();
        around(start, end);
        block_ms.push((end - start).as_secs_f64() * 1e3);
        results.extend(out.iter().map(TxResult::of));
    }
    Pass {
        block_ms,
        results,
        digest: chain.state().state_digest(),
    }
}

/// Every receipt of `pass` is `Success`.
pub fn check_success(pass: &Pass, checks: &mut Checks) {
    let failed = pass.results.iter().filter(|r| !r.success).count() as u64;
    checks.add("receipt is Success", pass.results.len() as u64, failed);
}

/// Compare `got` with the reference pass: every receipt `Success`, gas
/// and gas sections equal, state digest equal.
pub fn compare(reference: &Pass, got: &Pass, checks: &mut Checks) {
    check_success(got, checks);
    let differ = got
        .results
        .iter()
        .zip(&reference.results)
        .filter(|(a, b)| a != b)
        .count() as u64;
    checks.add(
        "receipt gas equals the reference run",
        got.results.len() as u64,
        differ,
    );
    checks.expect(
        "state digest equals the reference run",
        reference.digest == got.digest,
    );
}

/// Show that [`compare`] catches a pass that differs from the reference:
/// once with one transaction's gas altered, once with the state digest
/// altered, each counted as exactly one failed check.
pub fn self_test(reference: &Pass) -> bool {
    let caught = |alter: &dyn Fn(&mut Pass)| {
        let mut got = reference.clone();
        alter(&mut got);
        let mut checks = Checks::default();
        compare(reference, &got, &mut checks);
        checks.failed == 1
    };
    !reference.results.is_empty()
        && caught(&|p| p.results[0].gas += 1)
        && caught(&|p| p.digest.0[0] ^= 1)
}

/// Mean gas per transaction of a pass: total, verify, bitmap, parse.
pub fn mean_gas(pass: &Pass) -> [f64; 4] {
    let n = pass.results.len().max(1) as f64;
    let sum = |f: fn(&TxResult) -> u64| pass.results.iter().map(f).sum::<u64>() as f64 / n;
    [
        sum(|r| r.gas),
        sum(|r| r.verify),
        sum(|r| r.bitmap),
        sum(|r| r.parse),
    ]
}

/// Tokens the blocks carry that fail to recover to the TS address.
pub fn check_tokens(rig: &ChainRig, checks: &mut Checks) {
    let bad = rig
        .tokens
        .iter()
        .filter(|(req, token)| !checks::token_ok(req, token, rig.ts))
        .count() as u64;
    checks.add(
        "token recovers to the TS address",
        rig.tokens.len() as u64,
        bad,
    );
    let (req, token) = &rig.tokens[0];
    checks.expect("self-test", checks::self_test(req, token, rig.ts).is_ok());
}

pub fn run(run: &Run) -> Report {
    let (rig, setups) = set_up(SETUPS, || ChainRig::build(run.seed, BLOCKS), drop);
    let pool = WorkerPool::new(run.nproc, 1024);
    let report = if run.trace {
        crate::layers::trace_verify(run, &rig, &pool)
    } else {
        measure(run, &rig, &pool, setups.seconds())
    };
    pool.shutdown();
    report
}

fn measure(run: &Run, rig: &ChainRig, pool: &WorkerPool, setup_s: f64) -> Report {
    let mut report = Report::default();
    let mut checks = Checks::default();
    check_tokens(rig, &mut checks);
    let seq = || BlockMode::Sequential;
    let par = || BlockMode::Parallel(pool);

    let budget = Duration::from_secs_f64(run.seconds * MEASURE_SHARE);
    let rate = |p: &Pass| p.results.len() as f64 / (p.block_ms.iter().sum::<f64>() / 1e3);
    let good = |p: &Pass| p.results.iter().filter(|r| r.success).count();
    // Passes alternate parallel and sequential. Mode rates are per pass,
    // over block execution time. Goodput is per round (one pass of each
    // mode): successful transactions over the round's wall time, forks and
    // cold transaction assembly included. Every transaction of a block is
    // confirmed when the block returns, so its latency is its parallel
    // block's time (one sample per transaction). Each is reported as a
    // median over the less-stolen half of its passes, rounds or windows.
    let (reference, seq_rates, par_rates, good_rates, tail, passes, stolen) =
        Steal::watch(|steal| {
            let start = Instant::now();
            let reference = pass(rig, &seq, false, |_, _| {});
            check_success(&reference, &mut checks);
            checks.expect(
                "self-test: a differing pass is caught",
                self_test(&reference),
            );
            let (mut seq_rates, mut par_rates, mut good_rates) =
                (Vec::new(), Vec::new(), Vec::new());
            let mut per_tx: Vec<(f64, Instant, Instant)> = Vec::new();
            let mut passes = 1;
            while start.elapsed() < budget || par_rates.is_empty() {
                let round = Instant::now();
                let p = pass(rig, &par, false, |s, e| {
                    let ms = (e - s).as_secs_f64() * 1e3;
                    per_tx.extend(std::iter::repeat_n((ms, s, e), BLOCK_TXS));
                });
                par_rates.push((rate(&p), steal.share(round, Instant::now())));
                let t = Instant::now();
                let s = pass(rig, &seq, false, |_, _| {});
                let end = Instant::now();
                seq_rates.push((rate(&s), steal.share(t, end)));
                good_rates.push((
                    (good(&p) + good(&s)) as f64 / (end - round).as_secs_f64(),
                    steal.share(round, end),
                ));
                compare(&reference, &p, &mut checks);
                compare(&reference, &s, &mut checks);
                passes += 2;
            }
            let latencies: Vec<f64> = per_tx.iter().map(|x| x.0).collect();
            let tail = Tail::windowed(&latencies, |r| {
                let part = &per_tx[r];
                steal.share(part.first()?.1, part.last()?.2)
            });
            (
                reference,
                seq_rates,
                par_rates,
                good_rates,
                tail,
                passes,
                steal.overall(),
            )
        });
    let seq_per_s = stats::quiet_median(&seq_rates);
    let par_per_s = stats::quiet_median(&par_rates);
    let slo = match tail.p99 {
        Some(p99) if p99 <= LIMIT_MS => seq_per_s.max(par_per_s),
        Some(p99) => par_per_s * LIMIT_MS / p99,
        None => f64::NAN,
    };
    let gas = mean_gas(&reference);
    let kinds = |k: TxKind| rig.blocks.iter().flatten().filter(|t| t.kind == k).count();

    let executed = (passes * rig.txs()) as u64;
    report.attempted = executed;
    report.failed = checks.failed;
    report.line(format!(
        "host: nproc {} | block pool {} threads | {} blocks of {} per pass ({} play, {} swap, {} claim) | {} passes",
        run.nproc,
        pool.threads(),
        rig.blocks.len(),
        BLOCK_TXS,
        kinds(TxKind::Play),
        kinds(TxKind::Swap),
        kinds(TxKind::Claim),
        passes
    ));
    report.line(format!(
        "sequential: {} passes, {:.1} tx/s | parallel: {} passes, {:.1} tx/s, speedup {:.3}",
        seq_rates.len(),
        seq_per_s,
        par_rates.len(),
        par_per_s,
        par_per_s / seq_per_s
    ));
    report.line(format!(
        "confirmation latency: {} tx samples from {} parallel blocks | gas_per_tx {:.2} (verify {:.2}, bitmap {:.2}, parse {:.2})",
        tail.n,
        tail.n / BLOCK_TXS,
        gas[0],
        gas[1],
        gas[2],
        gas[3]
    ));
    report.line(format!(
        "failed_ratio {:.6} ({} failed checks of {} txs; {} checks made)",
        checks.failed as f64 / executed.max(1) as f64,
        checks.failed,
        executed,
        checks.made
    ));
    report.line(crate::issue::steal_line(stolen));
    report.checks = checks;
    report.printed = vec![
        Metric::new("latency_p99_ms", tail.p99.unwrap_or(f64::NAN), "ms"),
        Metric::new("slo_rate_per_s", slo, "1/s"),
    ];
    report.e2e = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("latency_p50_ms", tail.p50, "ms"),
        Metric::new("goodput_per_s", stats::quiet_median(&good_rates), "1/s"),
        Metric::new("seq_per_s", seq_per_s, "1/s"),
        Metric::new("par_per_s", par_per_s, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(gas: u64) -> TxResult {
        TxResult {
            success: true,
            gas,
            verify: gas / 2,
            bitmap: 0,
            parse: 0,
        }
    }

    #[test]
    fn compare_counts_each_difference_and_self_test_sees_them() {
        let reference = Pass {
            block_ms: vec![1.0],
            results: vec![tx(100), tx(200)],
            digest: H256([7; 32]),
        };
        let mut checks = Checks::default();
        compare(&reference, &reference.clone(), &mut checks);
        assert_eq!((checks.made, checks.failed), (5, 0));
        let mut got = reference.clone();
        got.results[1].success = false;
        got.digest.0[31] ^= 1;
        compare(&reference, &got, &mut checks);
        // Not Success, differs from the reference, digest differs.
        assert_eq!(checks.failed, 3);
        assert!(self_test(&reference));
        let empty = Pass {
            results: Vec::new(),
            ..reference
        };
        assert!(!self_test(&empty));
    }
}
