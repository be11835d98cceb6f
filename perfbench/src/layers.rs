//! The traced run: replay the workload's nominal schedule with spans
//! recorded around each call into a layer, then probe every layer on the
//! same inputs, closed loop on one thread. A layer's self time is its
//! call minus the next inner layer's call (medians). Every traced run
//! reports every layer; layers a workload does not exercise are probed
//! on small seeded rigs so the table has the same rows everywhere.

use smacs_crypto::recover_address;
use smacs_primitives::json::{self, FromJson, Json, ToJson};
use smacs_primitives::WorkerPool;
use smacs_token::TokenRequest;
use smacs_ts::api::{IssueBody, RequestEnvelope, ResponseEnvelope};
use smacs_ts::front::decode_token_hex;
use smacs_ts::{HttpClient, InProcessClient, TsApi, Wal, PROTOCOL_VERSION};
use std::sync::Arc;
use std::time::Instant;

use smacs_chain::BlockMode;

use crate::checks::{self, token_digest, Checks};
use crate::gen::{Span, Spans, Steal};
use crate::issue::{self, check_edits, check_kept, replay, Schedule, Sender, Workload};
use crate::rig::{ChainRig, HttpRig, OneTimeRig, BLOCK_TXS};
use crate::stats::{self, median, Tail};
use crate::verify::{self, mean_gas, pass};
use crate::{Metric, Report, Run};

/// Probe samples per fast layer call.
const SAMPLES: usize = 300;
/// Appends to the scratch WAL: enough for a p99 with ten beyond it.
const WAL_APPENDS: u64 = 1000;
/// Probe samples of the one-time chain (each burns four indexes).
const ONE_TIME_SAMPLES: usize = 200;

/// Times calls into layers as child spans of one probe request each.
struct Probe<'a> {
    spans: &'a Spans,
    t0: Instant,
}

impl<'a> Probe<'a> {
    /// Run `body` as one probe request: its calls become children of a
    /// root span `probe.request`.
    fn request<T>(&self, body: impl FnOnce(&dyn Fn(&'static str, &mut dyn FnMut())) -> T) -> T {
        let root = self.spans.id();
        let req = root | 1 << 62;
        let start = self.t0.elapsed().as_nanos() as u64;
        let call = |name: &'static str, f: &mut dyn FnMut()| {
            self.spans.time(self.t0, root, req, name, f);
        };
        let out = body(&call);
        self.spans.extend(vec![Span {
            id: root,
            parent: 0,
            name: "probe.request",
            req,
            start_ns: start,
            end_ns: self.t0.elapsed().as_nanos() as u64,
        }]);
        out
    }

    fn p50(&self, name: &str) -> f64 {
        median(&self.spans.durations_us(name))
    }
}

/// Probe the wire → JSON → front → service → rules → signing chain on
/// the HTTP rig, plus ping, batch and rule writes.
fn probe_http(p: &Probe, rig: &HttpRig, n: usize, m: &mut Layers) {
    let client = rig.client();
    let in_process = rig.in_process();
    let service = rig.front.service();
    let now = rig.front.time();
    let _ = client.ping();
    for i in 0..n {
        let req = &rig.templates[i % rig.templates.len()];
        let body = issue_body(req);
        p.request(|call| {
            call("ts.http.ping", &mut || {
                client.ping().expect("ping");
            });
            call("ts.http.issue", &mut || {
                client.issue(req).expect("http issue");
            });
            let mut text = String::new();
            call("ts.json.handle", &mut || {
                text = rig.front.handle_json(&body)
            });
            call("ts.json.client", &mut || {
                let _ = issue_body(req);
                decode_issue(&text).expect("decodable response");
            });
            call("ts.front.issue", &mut || {
                in_process.issue(req).expect("front issue");
            });
            let mut token = None;
            call("ts.service.issue", &mut || {
                token = service.issue(req, now).ok()
            });
            let book = service.rules_snapshot_for(req.contract);
            call("ts.rules.check", &mut || {
                book.check(req).expect("rules admit templates");
            });
            let digest = token_digest(req, &token.expect("service issued"));
            call("crypto.sign", &mut || {
                rig.signer.sign_digest(&digest);
            });
        });
    }
    let batch: Vec<TokenRequest> = rig
        .templates
        .iter()
        .cycle()
        .take(issue::BATCH)
        .cloned()
        .collect();
    for _ in 0..12 {
        p.request(|call| {
            call("ts.pool.batch64", &mut || {
                client.issue_batch(&batch).expect("batch");
            });
            call("ts.rules.set_rules", &mut || {
                client
                    .set_rules(smacs_driver::scenario::OWNER_SECRET, rig.base_rules.clone())
                    .expect("set_rules");
            });
        });
    }
    let http = p.p50("ts.http.issue");
    let handle = p.p50("ts.json.handle");
    let json_client = p.p50("ts.json.client");
    let front = p.p50("ts.front.issue");
    let service_us = p.p50("ts.service.issue");
    let rules = p.p50("ts.rules.check");
    let sign = p.p50("crypto.sign");
    m.ping_us = p.p50("ts.http.ping");
    m.http_issue_us = http;
    m.front_issue_us = front;
    m.http_overhead_us = http - front;
    m.wire_us = http - handle - json_client;
    m.json_us = handle - front + json_client;
    m.front_self_us = front - service_us;
    m.service_us = service_us;
    m.service_self_us = service_us - rules - sign;
    m.rules_us = rules;
    m.sign_us = sign;
    m.batch64_ms = p.p50("ts.pool.batch64") / 1e3;
    m.batch_speedup = issue::BATCH as f64 * service_us / (m.batch64_ms * 1e3);
    m.set_rules_ms = p.p50("ts.rules.set_rules") / 1e3;
}

fn issue_body(req: &TokenRequest) -> String {
    json::to_string(&RequestEnvelope {
        v: PROTOCOL_VERSION,
        op: "issue".into(),
        body: Some(req.to_json()),
    })
}

fn decode_issue(text: &str) -> Option<smacs_token::Token> {
    let envelope = ResponseEnvelope::from_json(&Json::parse(text).ok()?).ok()?;
    let body = IssueBody::from_json(&envelope.body?).ok()?;
    decode_token_hex(&body.token_hex)
}

/// Probe one-time issuance: failover → wire → front → counter (votes and
/// fsyncs), and a scratch WAL. One-time tokens are returned for the
/// uniqueness check.
fn probe_one_time(
    p: &Probe,
    rig: &OneTimeRig,
    run: &Run,
    n: usize,
    m: &mut Layers,
) -> Vec<(u32, smacs_token::Token)> {
    let failover = rig.client();
    let direct = HttpClient::connect(rig.set.addrs()[0]);
    let front = InProcessClient::from_front(rig.set.front(0).clone());
    let voter = HttpClient::connect(rig.set.counter_addr(1).expect("wire counter mode"));
    let counter = rig.set.counter();
    let _ = (failover.ping(), direct.ping(), voter.ping());
    let mut tokens = Vec::new();
    let before = counter.committed();
    let mut allocations = 0u64;
    for i in 0..n {
        let t = i % rig.templates.len();
        let req = &rig.templates[t];
        let mut expiry = req.clone();
        expiry.one_time = false;
        p.request(|call| {
            let mut keep = |r: Result<smacs_token::Token, _>| {
                if let Ok(token) = r {
                    tokens.push((t as u32, token));
                    allocations += 1;
                }
            };
            let mut r = None;
            call("ts.failover.issue", &mut || r = Some(failover.issue(req)));
            keep(r.take().expect("called"));
            call("ts.http.issue_one_time", &mut || {
                r = Some(direct.issue(req))
            });
            keep(r.take().expect("called"));
            call("ts.front.issue_one_time", &mut || {
                r = Some(front.issue(req))
            });
            keep(r.take().expect("called"));
            call("ts.front.issue_expiry", &mut || {
                front.issue(&expiry).expect("expiry issue");
            });
            call("ts.counter.vote_rtt", &mut || {
                voter.ping().expect("vote endpoint ping");
            });
            let mut got = None;
            call("ts.counter.next_index", &mut || got = counter.next_index());
            if got.is_some() {
                allocations += 1;
            }
        });
    }
    m.indexes_per_issue = (counter.committed() - before) as f64 / allocations.max(1) as f64;

    let path = run.tmp.join("probe.wal");
    let (mut wal, _) = Wal::open(&path).expect("open scratch WAL");
    for v in 1..=WAL_APPENDS {
        p.request(|call| {
            call("ts.wal.append", &mut || wal.append(v).expect("WAL append"));
        });
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    let appends = stats::sorted(&p.spans.durations_us("ts.wal.append"));

    let fo = p.p50("ts.failover.issue");
    let http = p.p50("ts.http.issue_one_time");
    let front_ot = p.p50("ts.front.issue_one_time");
    let front_exp = p.p50("ts.front.issue_expiry");
    let next_index = p.p50("ts.counter.next_index");
    m.failover_issue_us = fo;
    m.failover_self_us = fo - http;
    m.vote_rtt_us = p.p50("ts.counter.vote_rtt");
    m.next_index_us = next_index;
    m.in_situ_us = front_ot - front_exp;
    m.votes_us = m.in_situ_us - next_index;
    m.wal_p50_us = stats::quantile(&appends, 0.5);
    m.wal_p99_us = stats::quantile(&appends, 0.99);
    m.wal_samples = appends.len();
    m.open_breakers = failover.open_breakers() as f64;
    tokens
}

/// Probe on-chain verification: cold sender recovery, token-signature
/// recovery, and a block with warm sender caches.
fn probe_chain(p: &Probe, rig: &ChainRig, pool: &WorkerPool, m: &mut Layers) {
    // Rounds interleave cold blocks, warm blocks and the per-transaction
    // probes, so all of them see the same host.
    let (mut cold, mut warm, mut par) = (Vec::new(), Vec::new(), Vec::new());
    let mut gas = [f64::NAN; 4];
    for block in rig.blocks.iter().cycle().take(CHAIN_ROUNDS) {
        let c = pass(rig, &|| BlockMode::Sequential, false, |_, _| {});
        cold.extend(c.block_ms);
        let w = pass(rig, &|| BlockMode::Sequential, true, |_, _| {});
        gas = mean_gas(&w);
        warm.extend(w.block_ms);
        par.extend(pass(rig, &|| BlockMode::Parallel(pool), false, |_, _| {}).block_ms);
        for parts in block {
            let tx = parts.cold();
            let (req, token) = &rig.tokens[parts.token];
            let digest = token_digest(req, token);
            p.request(|call| {
                call("chain.tx.sender", &mut || {
                    tx.sender().expect("valid signature");
                });
                call("crypto.recover", &mut || {
                    recover_address(&digest, &token.signature).expect("valid token");
                });
            });
        }
    }
    m.sender_us = p.p50("chain.tx.sender");
    m.recover_us = p.p50("crypto.recover");
    m.block_cold_ms = median(&cold);
    m.block_warm_ms = median(&warm);
    m.gas = gas;
    if m.block_seq_ms.is_nan() {
        m.block_seq_ms = m.block_cold_ms;
        m.block_par_ms = median(&par);
    }
}

/// Rounds of the chain probe.
const CHAIN_ROUNDS: usize = 3;

/// Every per-layer number, NaN until measured.
struct Layers {
    lag_p99_ms: f64,
    lag_note: String,
    ping_us: f64,
    http_issue_us: f64,
    front_issue_us: f64,
    http_overhead_us: f64,
    wire_us: f64,
    json_us: f64,
    front_self_us: f64,
    service_us: f64,
    service_self_us: f64,
    rules_us: f64,
    sign_us: f64,
    batch64_ms: f64,
    batch_speedup: f64,
    set_rules_ms: f64,
    failover_issue_us: f64,
    failover_self_us: f64,
    open_breakers: f64,
    vote_rtt_us: f64,
    next_index_us: f64,
    in_situ_us: f64,
    votes_us: f64,
    wal_p50_us: f64,
    wal_p99_us: f64,
    wal_samples: usize,
    indexes_per_issue: f64,
    sender_us: f64,
    recover_us: f64,
    block_seq_ms: f64,
    block_par_ms: f64,
    block_warm_ms: f64,
    /// Sequential block with cold senders, timed beside the probes.
    block_cold_ms: f64,
    gas: [f64; 4],
    overhead_pct: f64,
    e2e_p50_us: f64,
    attributed_us: f64,
}

impl Default for Layers {
    fn default() -> Self {
        let nan = f64::NAN;
        Layers {
            lag_p99_ms: nan,
            lag_note: String::new(),
            ping_us: nan,
            http_issue_us: nan,
            front_issue_us: nan,
            http_overhead_us: nan,
            wire_us: nan,
            json_us: nan,
            front_self_us: nan,
            service_us: nan,
            service_self_us: nan,
            rules_us: nan,
            sign_us: nan,
            batch64_ms: nan,
            batch_speedup: nan,
            set_rules_ms: nan,
            failover_issue_us: nan,
            failover_self_us: nan,
            open_breakers: nan,
            vote_rtt_us: nan,
            next_index_us: nan,
            in_situ_us: nan,
            votes_us: nan,
            wal_p50_us: nan,
            wal_p99_us: nan,
            wal_samples: 0,
            indexes_per_issue: nan,
            sender_us: nan,
            recover_us: nan,
            block_seq_ms: nan,
            block_par_ms: nan,
            block_warm_ms: nan,
            block_cold_ms: nan,
            gas: [nan; 4],
            overhead_pct: nan,
            e2e_p50_us: nan,
            attributed_us: nan,
        }
    }
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("loadgen.lag_p99_ms", self.lag_p99_ms, "ms"),
            Metric::new("ts.http.ping_us", self.ping_us, "us"),
            Metric::new("ts.http.issue_us", self.http_issue_us, "us"),
            Metric::new("ts.front.issue_us", self.front_issue_us, "us"),
            Metric::new("ts.http.overhead_us", self.http_overhead_us, "us"),
            Metric::new("ts.http.wire_us", self.wire_us, "us"),
            Metric::new("ts.http.json_us", self.json_us, "us"),
            Metric::new("ts.front.self_us", self.front_self_us, "us"),
            Metric::new("ts.service.issue_us", self.service_us, "us"),
            Metric::new("ts.service.self_us", self.service_self_us, "us"),
            Metric::new("ts.rules.check_us", self.rules_us, "us"),
            Metric::new("crypto.sign_us", self.sign_us, "us"),
            Metric::new("ts.pool.batch64_ms", self.batch64_ms, "ms"),
            Metric::new("ts.pool.batch_speedup", self.batch_speedup, "x"),
            Metric::new("ts.rules.set_rules_ms", self.set_rules_ms, "ms"),
            Metric::new("ts.failover.issue_us", self.failover_issue_us, "us"),
            Metric::new("ts.failover.self_us", self.failover_self_us, "us"),
            Metric::new("ts.failover.open_breakers", self.open_breakers, "count"),
            Metric::new("ts.counter.vote_rtt_us", self.vote_rtt_us, "us"),
            Metric::new("ts.counter.next_index_us", self.next_index_us, "us"),
            Metric::new("ts.counter.in_situ_us", self.in_situ_us, "us"),
            Metric::new("ts.counter.votes_us", self.votes_us, "us"),
            Metric::new(
                "ts.counter.indexes_per_issue",
                self.indexes_per_issue,
                "ratio",
            ),
            Metric::new("ts.wal.append_p50_us", self.wal_p50_us, "us"),
            Metric::new("ts.wal.append_p99_us", self.wal_p99_us, "us"),
            Metric::new("chain.tx.sender_us", self.sender_us, "us"),
            Metric::new("crypto.recover_us", self.recover_us, "us"),
            Metric::new("chain.block_seq_ms", self.block_seq_ms, "ms"),
            Metric::new("chain.block_par_ms", self.block_par_ms, "ms"),
            Metric::new("chain.block_cold_ms", self.block_cold_ms, "ms"),
            Metric::new("chain.block_warm_ms", self.block_warm_ms, "ms"),
            Metric::new(
                "chain.par_speedup",
                self.block_seq_ms / self.block_par_ms,
                "x",
            ),
            Metric::new(
                "chain.recover_share_pct",
                100.0 * BLOCK_TXS as f64 * (self.sender_us + self.recover_us)
                    / (self.block_cold_ms * 1e3),
                "%",
            ),
            Metric::new("core.gas.per_tx", self.gas[0], "gas"),
            Metric::new("core.gas.verify", self.gas[1], "gas"),
            Metric::new("core.gas.bitmap", self.gas[2], "gas"),
            Metric::new("core.gas.parse", self.gas[3], "gas"),
            Metric::new("trace.overhead_pct", self.overhead_pct, "%"),
            Metric::new("acct.e2e_p50_us", self.e2e_p50_us, "us"),
            Metric::new(
                "acct.attributed_pct",
                100.0 * self.attributed_us / self.e2e_p50_us,
                "%",
            ),
            Metric::new(
                "acct.unattributed_us",
                self.e2e_p50_us - self.attributed_us,
                "us",
            ),
        ]
    }

    /// Lines answering the three questions the breakdown exists for.
    fn explain(&self, report: &mut Report, parts: &[(&str, f64)]) {
        report.line(format!(
            "wire overhead {:.1} us (HttpClient::issue {:.1} - InProcessClient::issue {:.1}) = socket/reactor/framing {:.1} + JSON codec {:.1}; ping round trip {:.1} us",
            self.http_overhead_us, self.http_issue_us, self.front_issue_us, self.wire_us, self.json_us, self.ping_us
        ));
        report.line(format!(
            "one-time counter in situ {:.1} us = vote round trips {:.1} (4 peer votes at {:.1} us rtt) + quorum logic and 3 fsyncs {:.1} (WAL append p50 {:.1} us, p99 {:.1} us over {} appends)",
            self.in_situ_us, self.votes_us, self.vote_rtt_us, self.next_index_us, self.wal_p50_us, self.wal_p99_us, self.wal_samples
        ));
        report.line(format!(
            "block of {BLOCK_TXS}: sequential {:.2} ms, parallel {:.2} ms; beside the probes: cold senders {:.2} ms, warm senders {:.2} ms; two recoveries per tx ({:.1} + {:.1} us) = {:.1}% of the cold block",
            self.block_seq_ms,
            self.block_par_ms,
            self.block_cold_ms,
            self.block_warm_ms,
            self.sender_us,
            self.recover_us,
            100.0 * BLOCK_TXS as f64 * (self.sender_us + self.recover_us) / (self.block_cold_ms * 1e3)
        ));
        let sum: f64 = parts.iter().map(|(_, v)| v).sum();
        let listed: Vec<String> = parts.iter().map(|(k, v)| format!("{k} {v:.1}")).collect();
        report.line(format!(
            "accounting (us): e2e p50 {:.1} = {} | attributed {:.1} ({:.1}%), unattributed {:.1}",
            self.e2e_p50_us,
            listed.join(" + "),
            sum,
            100.0 * sum / self.e2e_p50_us,
            self.e2e_p50_us - sum
        ));
        report.line(self.lag_note.clone());
    }
}

fn spans_file(run: &Run, spans: &Spans, report: &mut Report) {
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!("{}-seed{}.spans.tsv", run.workload, run.seed));
    match std::fs::create_dir_all(dir).and_then(|_| spans.write(&path)) {
        Ok(()) => report.line(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.line(format!("spans not written: {e}")),
    }
}

/// Blocks in the chain rig built only for probing, on workloads that do
/// not run the chain.
const SIDE_BLOCKS: usize = 4;

pub fn trace_http(run: &Run, rig: &HttpRig, senders: &[Sender], nominal: &Schedule) -> Report {
    let mut report = Report::default();
    let spans = Spans::default();
    let p = Probe {
        spans: &spans,
        t0: Instant::now(),
    };
    let work = Workload::new(rig);
    // Quarters of the nominal schedule, untraced-traced-traced-untraced,
    // so drift of the host cancels out of the tracing overhead.
    // Each quarter's tokens are checked as soon as it ends.
    let quarters = issue::split(nominal, 4);
    let mut checks = Checks::default();
    let results: Vec<issue::StepResult> = Steal::watch(|steal| {
        quarters
            .iter()
            .zip([false, true, true, false])
            .map(|(q, traced)| {
                let result = replay(q, senders, &work, traced.then_some((&spans, p.t0)), steal);
                check_kept(senders, &work, run.nproc, &mut checks);
                result
            })
            .collect()
    });
    check_edits(senders, &work, issue::edit_events(&quarters), &mut checks);

    let mut m = Layers::default();
    replay_numbers(
        &mut m,
        [&results[0], &results[3]],
        [&results[1], &results[2]],
        &spans,
    );
    let lag_us = 1e3 * (results[1].single_lag_p50 + results[2].single_lag_p50) / 2.0;
    let events: usize = results.iter().map(|r| r.events).sum();
    let failed: usize = results.iter().map(|r| r.failed).sum();
    probe_http(&p, rig, SAMPLES, &mut m);
    let side = OneTimeRig::start(run.seed, &run.tmp.join("side-wal"));
    let side_tokens = probe_one_time(&p, &side, run, ONE_TIME_SAMPLES, &mut m);
    check_probe_tokens(&side, &side_tokens, run, &mut checks);
    side.stop();
    let chain = ChainRig::build(run.seed, SIDE_BLOCKS);
    let pool = WorkerPool::new(run.nproc, 1024);
    probe_chain(&p, &chain, &pool, &mut m);
    pool.shutdown();

    let parts = [
        ("lag", lag_us),
        ("wire", m.wire_us),
        ("json", m.json_us),
        ("front", m.front_self_us),
        ("service", m.service_self_us),
        ("rules", m.rules_us),
        ("sign", m.sign_us),
    ];
    m.attributed_us = parts.iter().map(|(_, v)| v).sum();
    report_with(&mut report, events, checks).failed += failed as u64;
    finish(run, &mut report, &m, &parts, &spans);
    report
}

pub fn trace_verify(run: &Run, rig: &ChainRig, pool: &Arc<WorkerPool>) -> Report {
    let mut report = Report::default();
    let spans = Spans::default();
    let t0 = Instant::now();
    let p = Probe { spans: &spans, t0 };
    let mut checks = Checks::default();
    verify::check_tokens(rig, &mut checks);
    let seq = || BlockMode::Sequential;
    let par = || BlockMode::Parallel(pool.as_ref());

    // Each round: an untraced parallel pass, then traced parallel and
    // sequential passes.
    let rounds = ((run.seconds * 0.25) / 0.6).ceil().max(1.0) as usize;
    let reference = pass(rig, &seq, false, |_, _| {});
    verify::check_success(&reference, &mut checks);
    checks.expect(
        "self-test: a differing pass is caught",
        verify::self_test(&reference),
    );
    let mut plain_par = Vec::new();
    let mut gaps = Vec::new();
    let mut executed = rig.txs();
    for _ in 0..rounds {
        plain_par.extend(pass(rig, &par, false, |_, _| {}).block_ms);
        executed += rig.txs();
        for (parallel, name) in [(true, "chain.block_par"), (false, "chain.block_seq")] {
            let mode = || if parallel { par() } else { seq() };
            let root = spans.id();
            let start = t0.elapsed().as_nanos() as u64;
            let mut last_end: Option<Instant> = None;
            let mut batch = Vec::new();
            let got = pass(rig, &mode, false, |s, e| {
                if let Some(prev) = last_end {
                    gaps.push((s - prev).as_secs_f64() * 1e3);
                }
                last_end = Some(e);
                batch.push(Span {
                    id: spans.id(),
                    parent: root,
                    name,
                    req: root,
                    start_ns: (s - t0).as_nanos() as u64,
                    end_ns: (e - t0).as_nanos() as u64,
                });
            });
            batch.push(Span {
                id: root,
                parent: 0,
                name: "verify.pass",
                req: root,
                start_ns: start,
                end_ns: t0.elapsed().as_nanos() as u64,
            });
            spans.extend(batch);
            verify::compare(&reference, &got, &mut checks);
            executed += rig.txs();
        }
    }

    let mut m = Layers::default();
    m.block_seq_ms = median(&spans.durations_us("chain.block_seq")) / 1e3;
    m.block_par_ms = median(&spans.durations_us("chain.block_par")) / 1e3;
    m.overhead_pct = 100.0 * (m.block_par_ms / median(&plain_par) - 1.0);
    lag_from(&mut m, &gaps, "block-to-block generator gap");
    probe_chain(&p, rig, pool, &mut m);
    let side = HttpRig::start(run.seed);
    probe_http(&p, &side, SAMPLES / 3, &mut m);
    side.stop();
    let side = OneTimeRig::start(run.seed, &run.tmp.join("side-wal"));
    let side_tokens = probe_one_time(&p, &side, run, ONE_TIME_SAMPLES, &mut m);
    check_probe_tokens(&side, &side_tokens, run, &mut checks);
    side.stop();

    // Layer times add up over the sequential block, where they do not
    // overlap; per transaction: sender recovery, token recovery, rest.
    // The block is the one timed beside the probes.
    m.e2e_p50_us = m.block_cold_ms * 1e3;
    let n = BLOCK_TXS as f64;
    let parts = [
        ("sender recovery", n * m.sender_us),
        ("token recovery", n * m.recover_us),
        (
            "rest of execution",
            m.block_warm_ms * 1e3 - n * m.recover_us,
        ),
    ];
    m.attributed_us = parts.iter().map(|(_, v)| v).sum();
    finish(
        run,
        report_with(&mut report, executed, checks),
        &m,
        &parts,
        &spans,
    );
    report
}

/// The one-time probe's tokens must verify and their indexes be unique.
fn check_probe_tokens(
    rig: &OneTimeRig,
    tokens: &[(u32, smacs_token::Token)],
    run: &Run,
    checks: &mut Checks,
) {
    let n = tokens.len() as u64;
    checks.add(
        "probe one-time token recovers",
        n,
        checks::count_bad_tokens(tokens, &rig.templates, rig.ts, run.nproc),
    );
    checks.add(
        "probe one-time index unique",
        n,
        checks::duplicate_indexes(tokens.iter().map(|(_, t)| t)),
    );
}

fn lag_from(m: &mut Layers, lags_ms: &[f64], what: &str) {
    let tail = Tail::of(lags_ms);
    let max = stats::sorted(lags_ms).last().copied().unwrap_or(f64::NAN);
    m.lag_p99_ms = tail.p99.unwrap_or(max);
    m.lag_note = match tail.p99 {
        Some(_) => format!("loadgen lag ({what}): p99 over {} samples", tail.n),
        None => format!(
            "loadgen lag ({what}): {} samples, fewer than 1000, so the maximum is reported",
            tail.n
        ),
    };
}

/// Numbers from the untraced and traced replays. The generator's lag is
/// the self time of each event's root span (due time to completion,
/// minus the call it made).
fn replay_numbers(
    m: &mut Layers,
    plain: [&issue::StepResult; 2],
    traced: [&issue::StepResult; 2],
    spans: &Spans,
) {
    let p50 = |r: [&issue::StepResult; 2]| (r[0].single.p50 + r[1].single.p50) / 2.0;
    m.e2e_p50_us = p50(traced) * 1e3;
    m.overhead_pct = 100.0 * (p50(traced) / p50(plain) - 1.0);
    let lag = Tail::of(&spans.self_us("loadgen.event"));
    m.lag_p99_ms = lag.p99.map_or(f64::NAN, |us| us / 1e3);
    m.lag_note = format!(
        "loadgen lag (root span self time: send minus due): p99 over {} events; single-issue latency n {}, untraced p50 {:.1} us, traced p50 {:.1} us",
        lag.n,
        traced[0].single.n + traced[1].single.n,
        p50(plain) * 1e3,
        p50(traced) * 1e3
    );
}

fn report_with(report: &mut Report, ops: usize, checks: Checks) -> &mut Report {
    report.attempted = ops as u64;
    report.failed = checks.failed;
    report.checks = checks;
    report
}

fn finish(run: &Run, report: &mut Report, m: &Layers, parts: &[(&str, f64)], spans: &Spans) {
    report.line(format!(
        "host: nproc {} | senders {} | server workers {} | block pool {} threads",
        run.nproc,
        run.nproc,
        2 * run.nproc,
        run.nproc
    ));
    m.explain(report, parts);
    spans_file(run, spans, report);
    report.layers = m.metrics();
}
