//! `issue_http`: open loop at fixed offered-rate steps against one HTTP
//! Token Service; expiry tokens cycled from the `oracle`, `amm` and
//! `game` templates, with one `issue_batch` of 64 and one owner
//! `set_rules` edit in every 100 events.

use smacs_contracts::PriceOracle;
use smacs_driver::scenario::OWNER_SECRET;
use smacs_primitives::Address;
use smacs_token::{Token, TokenRequest};
use smacs_ts::{ErrorCode, HttpClient, TsApi};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::checks::{self, Checks};
use crate::gen::{self, Outcome, Record, Rng, Spans, Steal};
use crate::rig::HttpRig;
use crate::stats::{self, Tail};
use crate::{Metric, Report, Run};

/// An offered-rate step: events per second and the share of the run's
/// seconds it lasts.
pub struct Step {
    pub rate: f64,
    pub share: f64,
}

/// The offered-rate steps, in the order of their rates.
pub const STEPS: [Step; 9] = [
    Step {
        rate: 500.0,
        share: 0.08,
    },
    Step {
        rate: 1000.0,
        share: 0.40,
    },
    Step {
        rate: 2000.0,
        share: 0.06,
    },
    Step {
        rate: 2500.0,
        share: 0.05,
    },
    Step {
        rate: 3000.0,
        share: 0.05,
    },
    Step {
        rate: 3500.0,
        share: 0.04,
    },
    Step {
        rate: 4000.0,
        share: 0.04,
    },
    Step {
        rate: 5000.0,
        share: 0.03,
    },
    Step {
        rate: 6000.0,
        share: 0.03,
    },
];
/// Index of the step whose latency and goodput are reported.
pub const NOMINAL: usize = 1;
/// p99 latency limit that defines `slo_rate_per_s`.
pub const LIMIT_MS: f64 = 50.0;
/// Share of the run's seconds for each closed-loop mode.
pub const CLOSED_SHARE: f64 = 0.08;

/// Set-ups before the run starts, and more between each pair of
/// closed-loop slices; `setup_s` is the quiet median of them all.
pub const FIRST_SETUPS: usize = 5;
pub const SETUPS_PER_SLICE: usize = 3;
/// Pieces the nominal step runs in, between the other steps.
pub const NOMINAL_PIECES: usize = 4;
/// Slices per closed-loop mode; the reported rate is their quiet median.
pub const CLOSED_SLICES: usize = 8;
/// Requests per `issue_batch` event.
pub const BATCH: usize = 64;
/// Batches at the start of each closed-loop slice whose tokens are checked.
pub const SAMPLED_BATCHES: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Issue(u32),
    /// `issue_batch` of [`BATCH`] templates starting at this one.
    Batch(u32),
    SetRules,
}

/// One step's arrivals and what each event does.
pub struct Schedule {
    pub rate: f64,
    pub span: Duration,
    pub due: Vec<Duration>,
    pub kinds: Vec<Kind>,
}

/// Build every step's schedule from the seed. Exactly one event in each
/// run of [`RARE_EVERY`] is a batch and one a rule edit, at seeded
/// positions (stratified, so their count does not vary by seed).
pub fn schedules(seed: u64, seconds: f64, templates: usize) -> Vec<Schedule> {
    STEPS
        .iter()
        .zip(1u64..)
        .map(|(step, i)| {
            let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(i));
            let span = Duration::from_secs_f64(seconds * step.share);
            let due = gen::poisson(&mut rng, step.rate, span);
            let mut kinds: Vec<Kind> = due
                .iter()
                .map(|_| Kind::Issue(rng.below(templates) as u32))
                .collect();
            for block in kinds.chunks_mut(RARE_EVERY) {
                if block.len() == RARE_EVERY {
                    let b = rng.below(RARE_EVERY);
                    let e = (b + 1 + rng.below(RARE_EVERY - 1)) % RARE_EVERY;
                    block[b] = Kind::Batch(rng.below(templates) as u32);
                    block[e] = Kind::SetRules;
                }
            }
            Schedule {
                rate: step.rate,
                span,
                due,
                kinds,
            }
        })
        .collect()
}

/// Split a schedule into `parts` consecutive pieces of equal event count,
/// each timed from its own first event.
pub fn split(schedule: &Schedule, parts: usize) -> Vec<Schedule> {
    let size = schedule.due.len().div_ceil(parts).max(1);
    schedule
        .due
        .chunks(size)
        .zip(schedule.kinds.chunks(size))
        .map(|(due, kinds)| {
            let first = due[0];
            Schedule {
                rate: schedule.rate,
                span: schedule.span / parts as u32,
                due: due.iter().map(|d| *d - first).collect(),
                kinds: kinds.to_vec(),
            }
        })
        .collect()
}

/// One batch and one rule edit per this many events (about 1% each).
pub const RARE_EVERY: usize = 100;

/// One sender thread's client and the tokens it was issued since they
/// were last checked.
pub struct Sender {
    pub api: HttpClient,
    issued: Mutex<Vec<(u32, Token)>>,
}

impl Sender {
    pub fn new(api: HttpClient) -> Sender {
        Sender {
            api,
            issued: Mutex::new(Vec::new()),
        }
    }

    fn keep(&self, items: impl IntoIterator<Item = (u32, Token)>) {
        self.issued.lock().expect("sender tokens").extend(items);
    }

    /// Hand over the kept tokens, keeping the buffer for the next piece.
    fn drain_into(&self, out: &mut Vec<(u32, Token)>) {
        out.extend(self.issued.lock().expect("sender tokens").drain(..));
    }
}

/// The rule owner: edits are serialized, and each is checked to take
/// effect on the next matching request.
pub struct Owner {
    edits: Mutex<u64>,
    pub checked: Mutex<Vec<(TokenRequest, Token)>>,
    pub ineffective: AtomicU64,
}

impl Owner {
    fn new() -> Owner {
        Owner {
            edits: Mutex::new(0),
            checked: Mutex::new(Vec::new()),
            ineffective: AtomicU64::new(0),
        }
    }

    fn operator(n: u64) -> Address {
        Address::from_low_u64(0x0e_d170_0000 + n)
    }

    /// Allow a fresh operator (revoking the previous one) and confirm both
    /// halves of the edit on the next requests.
    fn edit(&self, rig: &HttpRig, api: &dyn TsApi) -> bool {
        let mut n = self.edits.lock().expect("owner lock");
        *n += 1;
        let applied = api
            .set_rules(OWNER_SECRET, rig.rules_with_operator(Self::operator(*n)))
            .is_ok();
        let ask =
            |k| TokenRequest::method_token(rig.oracle, Self::operator(k), PriceOracle::POST_SIG);
        let req = ask(*n);
        let mut effective = match api.issue(&req) {
            Ok(token) => {
                self.checked
                    .lock()
                    .expect("owner checks")
                    .push((req, token));
                true
            }
            Err(_) => false,
        };
        if *n > 1 {
            effective &=
                matches!(api.issue(&ask(*n - 1)), Err(e) if e.code == ErrorCode::RuleViolation);
        }
        if !effective {
            self.ineffective.fetch_add(1, Ordering::Relaxed);
        }
        applied
    }
}

/// What an event needs besides the sender.
pub struct Workload<'a> {
    pub templates: &'a [TokenRequest],
    /// Templates repeated so any `Batch(t)` is one contiguous slice.
    cycled: Vec<TokenRequest>,
    pub rig: &'a HttpRig,
    pub owner: Owner,
}

impl<'a> Workload<'a> {
    pub fn new(rig: &'a HttpRig) -> Self {
        let templates = &rig.templates;
        let cycled = templates
            .iter()
            .cycle()
            .take(templates.len() + BATCH)
            .cloned()
            .collect();
        Workload {
            templates,
            cycled,
            rig,
            owner: Owner::new(),
        }
    }

    /// Run one event; with `keep`, its tokens are kept for checking.
    pub fn event(&self, sender: &Sender, kind: Kind, keep: bool) -> Outcome {
        match kind {
            Kind::Issue(t) => {
                let ok = match sender.api.issue(&self.templates[t as usize]) {
                    Ok(token) => {
                        if keep {
                            sender.keep([(t, token)]);
                        }
                        true
                    }
                    Err(_) => false,
                };
                Outcome {
                    ok,
                    call: "ts.http.issue",
                }
            }
            Kind::Batch(t) => {
                let n = self.templates.len();
                let reqs = &self.cycled[t as usize..t as usize + BATCH];
                let ok = match sender.api.issue_batch(reqs) {
                    Ok(results) if results.len() == BATCH => {
                        let tokens: Vec<_> = results.into_iter().filter_map(Result::ok).collect();
                        let all = tokens.len() == BATCH;
                        if keep {
                            sender.keep(
                                tokens
                                    .into_iter()
                                    .zip(0..)
                                    .map(|(tok, i)| (((t as usize + i) % n) as u32, tok)),
                            );
                        }
                        all
                    }
                    _ => false,
                };
                Outcome {
                    ok,
                    call: "ts.http.issue_batch",
                }
            }
            Kind::SetRules => Outcome {
                ok: self.owner.edit(self.rig, &sender.api),
                call: "ts.http.set_rules",
            },
        }
    }
}

/// Per-step results.
pub struct StepResult {
    pub rate: f64,
    pub events: usize,
    pub failed: usize,
    /// Latency from due time of successful single issues, ms.
    pub single: Tail,
    /// Median send lag of the successful single issues, ms.
    pub single_lag_p50: f64,
    /// Send lag of every event, ms.
    pub lag: Tail,
    pub achieved: f64,
    pub offered: f64,
    pub other_ms: Vec<(Kind, f64)>,
}

impl StepResult {
    /// Whether the step kept up: achieved at least 95% of what it offered.
    pub fn kept_up(&self) -> bool {
        self.achieved >= 0.95 * self.offered
    }
}

/// One piece of a step as it ran: its schedule, one record per event,
/// and the instant its records are timed from.
pub struct Ran<'a> {
    pub schedule: &'a Schedule,
    pub records: Vec<Record>,
    pub start: Instant,
}

/// Run one schedule open loop (optionally traced).
pub fn run_step<'a>(
    schedule: &'a Schedule,
    senders: &[Sender],
    work: &Workload,
    trace: Option<(&Spans, Instant)>,
) -> Ran<'a> {
    let (records, start) = gen::open_loop(&schedule.due, senders, trace, |sender, k| {
        work.event(sender, schedule.kinds[k], true)
    });
    Ran {
        schedule,
        records,
        start,
    }
}

/// Summarize the pieces of one step; single-issue percentiles come from
/// windows judged quiet by `steal`.
pub fn summarize(parts: &[Ran], steal: &Steal) -> StepResult {
    // (latency, lag, due, done) of each successful single issue, in order.
    let mut singles: Vec<(f64, f64, Instant, Instant)> = Vec::new();
    let mut other_ms = Vec::new();
    let (mut events, mut ok, mut span_ns, mut offered_span) = (0, 0, 0u64, 0.0);
    let mut lags = Vec::new();
    for part in parts {
        for (r, k) in part.records.iter().zip(&part.schedule.kinds) {
            match k {
                Kind::Issue(_) if r.ok => singles.push((
                    r.latency_ms(),
                    r.lag_ms(),
                    part.start + Duration::from_nanos(r.due),
                    part.start + Duration::from_nanos(r.done),
                )),
                Kind::Issue(_) => {}
                other => other_ms.push((*other, r.latency_ms())),
            }
            lags.push(r.lag_ms());
        }
        events += part.records.len();
        ok += part.records.iter().filter(|r| r.ok).count();
        let last_done = part.records.iter().map(|r| r.done).max().unwrap_or(0);
        span_ns += (part.schedule.span.as_nanos() as u64).max(last_done).max(1);
        offered_span += part.schedule.span.as_secs_f64();
    }
    let latencies: Vec<f64> = singles.iter().map(|s| s.0).collect();
    let window_steal = |range: std::ops::Range<usize>| {
        let part = &singles[range];
        steal.share(part.first()?.2, part.iter().map(|s| s.3).max()?)
    };
    StepResult {
        rate: parts.first().map_or(0.0, |p| p.schedule.rate),
        events,
        failed: events - ok,
        single: Tail::windowed(&latencies, window_steal),
        single_lag_p50: stats::median(&singles.iter().map(|s| s.1).collect::<Vec<_>>()),
        lag: Tail::of(&lags),
        achieved: ok as f64 / (span_ns as f64 / 1e9),
        offered: events as f64 / offered_span,
        other_ms,
    }
}

/// The offered rate where single-issue p99 crosses `limit_ms`,
/// interpolated in log latency between the last step that met the limit
/// and the first that did not. A step meets the limit if it kept up
/// (achieved at least 95% of its offered rate) and its p99 is within the
/// limit; steps whose p99 has fewer than ten samples beyond it are left
/// out. When every step meets the limit, the top rate is returned.
pub fn slo_rate(steps: &[StepResult], limit_ms: f64) -> f64 {
    let usable: Vec<&StepResult> = steps.iter().filter(|s| s.single.p99.is_some()).collect();
    let meets = |s: &StepResult| s.kept_up() && s.single.p99.is_some_and(|p| p <= limit_ms);
    let Some(j) = usable.iter().position(|s| !meets(s)) else {
        return usable.last().map_or(f64::NAN, |s| s.rate);
    };
    let upper = usable[j];
    let p_hi = upper.single.p99.expect("usable").max(limit_ms * 1.000_001);
    if j == 0 {
        return upper.rate * limit_ms / p_hi;
    }
    let lower = usable[j - 1];
    let p_lo = lower.single.p99.expect("usable");
    let f = ((limit_ms.ln() - p_lo.ln()) / (p_hi.ln() - p_lo.ln())).clamp(0.0, 1.0);
    lower.rate + f * (upper.rate - lower.rate)
}

/// Set-up times in seconds, each with the steal share measured while it
/// ran; `setup_s` is their median over the quiet ones (see
/// `stats::quiet_median`).
#[derive(Default)]
pub struct Setups(Vec<(f64, Option<f64>)>);

impl Setups {
    /// Time one set-up.
    pub fn time<R>(&mut self, steal: &Steal, start: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let rig = start();
        let end = Instant::now();
        self.0.push(((end - t).as_secs_f64(), steal.share(t, end)));
        rig
    }

    pub fn seconds(&self) -> f64 {
        stats::quiet_median(&self.0)
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }
}

/// Set up `times` times, keeping the last rig; returns it with the
/// set-up times.
pub fn set_up<R>(times: usize, mut start: impl FnMut() -> R, stop: impl Fn(R)) -> (R, Setups) {
    let mut setups = Setups::default();
    let rig = Steal::watch(|steal| {
        let mut kept = None;
        for _ in 0..times {
            if let Some(old) = kept.take() {
                stop(old);
            }
            kept = Some(setups.time(steal, &mut start));
        }
        kept.expect("at least one set-up")
    });
    (rig, setups)
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn warm(senders: &[Sender], templates: &[TokenRequest]) {
    for s in senders {
        let _ = s.api.ping();
        for req in templates {
            let _ = s.api.issue(req);
        }
    }
}

/// Start the Token Service and connect and warm up the senders.
fn start(run: &Run) -> (HttpRig, Vec<Sender>) {
    let rig = HttpRig::start(run.seed);
    let senders: Vec<_> = (0..run.nproc).map(|_| Sender::new(rig.client())).collect();
    warm(&senders, &rig.templates);
    (rig, senders)
}

pub fn run(run: &Run) -> Report {
    let ((rig, senders), setups) = set_up(FIRST_SETUPS, || start(run), |(rig, _)| rig.stop());
    // The arrival plan is the benchmark's input, not the system's set-up.
    let plan = schedules(run.seed, run.seconds, rig.templates.len());
    let report = if run.trace {
        crate::layers::trace_http(run, &rig, &senders, &plan[NOMINAL])
    } else {
        measure(run, &plan, &senders, &Workload::new(&rig), setups)
    };
    drop(senders);
    rig.stop();
    report
}

fn measure(
    run: &Run,
    schedules: &[Schedule],
    senders: &[Sender],
    work: &Workload,
    mut setups: Setups,
) -> Report {
    let mut report = Report::default();
    let mut checks = Checks::default();
    // Tokens issued in closed-loop slices, and how many of them were checked.
    let (mut closed_tokens, mut closed_checked) = (0u64, 0u64);
    let (steps, (seq_per_s, seq_n, seq_failed), (par_per_s, par_n, par_failed), stolen) =
        Steal::watch(|steal| {
            // The nominal step runs in pieces between the other steps, and
            // the closed-loop slices run between them too, so both sample
            // the host across the whole run. Tokens are checked (untimed)
            // as soon as each piece or slice ends.
            //
            // Closed-loop batch capacity in tokens per second: slices of one
            // sender alternating with slices of every sender, each sending
            // `issue_batch` of 64 back to back; each rate is a quiet median
            // over slices. The tokens of the first `SAMPLED_BATCHES` batches
            // of a slice are checked: a fixed sample, so the benchmark's
            // memory does not grow with the rate it measures.
            let pieces = split(&schedules[NOMINAL], NOMINAL_PIECES);
            let others: Vec<usize> = (0..schedules.len()).filter(|i| *i != NOMINAL).collect();
            let mut nominal = Vec::new();
            let mut steps: Vec<Option<StepResult>> = schedules.iter().map(|_| None).collect();
            let slice = Duration::from_secs_f64(run.seconds * CLOSED_SHARE / CLOSED_SLICES as f64);
            let n = work.templates.len();
            let mut seq = (Vec::new(), 0, 0);
            let mut par = (Vec::new(), 0, 0);
            let rounds = pieces.len().max(others.len()).max(CLOSED_SLICES);
            for round in 0..rounds {
                if let Some(piece) = pieces.get(round) {
                    nominal.push(run_step(piece, senders, work, None));
                    check_kept(senders, work, run.nproc, &mut checks);
                }
                if let Some(&j) = others.get(round) {
                    steps[j] = Some(replay(&schedules[j], senders, work, None, steal));
                    check_kept(senders, work, run.nproc, &mut checks);
                }
                if round >= CLOSED_SLICES {
                    continue;
                }
                // A set-up lasts about 20 ms, so a short disturbance of the
                // host can cover all of those made in one place; more are
                // timed here, spread over the run.
                for _ in 0..SETUPS_PER_SLICE {
                    let (rig, spare) = setups.time(steal, || start(run));
                    drop(spare);
                    rig.stop();
                }
                for (clients, tally) in [(&senders[..1], &mut seq), (senders, &mut par)] {
                    let t = Instant::now();
                    let (ok, bad) = gen::closed_loop(clients, slice, |s, i| {
                        work.event(s, Kind::Batch((i % n) as u32), i < SAMPLED_BATCHES)
                            .ok
                    });
                    tally.0.push((
                        (ok * BATCH as u64) as f64 / t.elapsed().as_secs_f64(),
                        steal.share(t, Instant::now()),
                    ));
                    tally.1 += ok + bad;
                    tally.2 += bad;
                    closed_tokens += ok * BATCH as u64;
                    closed_checked += check_kept(clients, work, run.nproc, &mut checks);
                }
            }
            steps[NOMINAL] = Some(summarize(&nominal, steal));
            let steps: Vec<StepResult> = steps
                .into_iter()
                .map(|s| s.expect("every step ran"))
                .collect();
            let seq = (stats::quiet_median(&seq.0), seq.1, seq.2);
            let par = (stats::quiet_median(&par.0), par.1, par.2);
            (steps, seq, par, steal.overall())
        });

    check_edits(senders, work, edit_events(schedules), &mut checks);

    let nominal = &steps[NOMINAL];
    let events: usize = steps.iter().map(|s| s.events).sum();
    let failed_ops: usize =
        steps.iter().map(|s| s.failed).sum::<usize>() + (seq_failed + par_failed) as usize;
    report.attempted = (events as u64) + seq_n + par_n;
    report.failed = failed_ops as u64 + checks.failed;
    report.line(format!(
        "host: nproc {} | senders {} (one connection each) | server workers {} | steps {:?}/s, nominal {}/s, limit p99 {} ms",
        run.nproc,
        senders.len(),
        2 * run.nproc,
        STEPS.iter().map(|s| s.rate).collect::<Vec<_>>(),
        STEPS[NOMINAL].rate,
        LIMIT_MS
    ));
    for s in &steps {
        report.line(format!(
            "step {:>5}/s: events {:>5} failed {} achieved {:>7.1}/s of {:>7.1}/s{} | single n {} p50 {:.3} ms p99 {} | lag p99 {}",
            s.rate,
            s.events,
            s.failed,
            s.achieved,
            s.offered,
            if s.kept_up() { "" } else { " (fell behind)" },
            s.single.n,
            s.single.p50,
            fmt_opt(s.single.p99, "ms"),
            fmt_opt(s.lag.p99, "ms"),
        ));
        for (label, kind) in [
            ("issue_batch", Kind::Batch(0)),
            ("set_rules", Kind::SetRules),
        ] {
            let v: Vec<f64> = s
                .other_ms
                .iter()
                .filter(|(k, _)| std::mem::discriminant(k) == std::mem::discriminant(&kind))
                .map(|(_, ms)| *ms)
                .collect();
            if !v.is_empty() {
                report.line(format!(
                    "    {label}: n {} p50 {:.3} ms max {:.3} ms",
                    v.len(),
                    stats::median(&v),
                    stats::sorted(&v)[v.len() - 1]
                ));
            }
        }
    }
    report.line(format!(
        "closed-loop issue_batch of {BATCH}: 1 sender {seq_per_s:.1} tokens/s, {} senders {par_per_s:.1} tokens/s (quiet median of {CLOSED_SLICES} slices); {closed_checked} of its {closed_tokens} tokens checked (first {SAMPLED_BATCHES} batches of each slice), every open-loop token checked",
        senders.len()
    ));
    report.line(steal_line(stolen));
    let ops = report.attempted.max(1) as f64;
    report.line(format!(
        "failed_ratio {:.6} ({} failed ops + {} failed checks of {} ops; {} checks made)",
        report.failed as f64 / ops,
        failed_ops,
        checks.failed,
        report.attempted,
        checks.made
    ));
    report.checks = checks;
    let p99 = nominal.single.p99;
    report.e2e = vec![
        Metric::new("setup_s", setups.seconds(), "s"),
        Metric::new("latency_p50_ms", nominal.single.p50, "ms"),
        Metric::new("goodput_per_s", nominal.achieved, "1/s"),
        Metric::new("seq_per_s", seq_per_s, "1/s"),
        Metric::new("par_per_s", par_per_s, "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    report.printed = vec![
        Metric::new("latency_p99_ms", p99.unwrap_or(f64::NAN), "ms"),
        Metric::new("slo_rate_per_s", slo_rate(&steps, LIMIT_MS), "1/s"),
    ];
    report.line(format!(
        "latency samples at nominal step: {} | setup_s over {} set-ups ({FIRST_SETUPS} before the run, {SETUPS_PER_SLICE} after each pair of closed-loop slices)",
        nominal.single.n,
        setups.count()
    ));
    report
}

pub fn steal_line(share: Option<f64>) -> String {
    match share {
        Some(s) => format!(
            "hypervisor steal {:.2}% of CPU time over the measurement; percentiles and rates come from its quiet windows",
            100.0 * s
        ),
        None => "hypervisor steal unknown (no /proc/stat); medians over all windows".into(),
    }
}

pub fn fmt_opt(v: Option<f64>, unit: &str) -> String {
    v.map_or_else(|| "n/a (<10 beyond)".into(), |v| format!("{v:.3} {unit}"))
}

/// Replay one schedule (optionally traced) and summarize it.
pub fn replay(
    schedule: &Schedule,
    senders: &[Sender],
    work: &Workload,
    trace: Option<(&Spans, Instant)>,
    steal: &Steal,
) -> StepResult {
    summarize(&[run_step(schedule, senders, work, trace)], steal)
}

/// Check the tokens the senders kept since the last check and drop them,
/// so the benchmark holds at most one piece's tokens at a time; returns
/// how many were checked.
pub fn check_kept(senders: &[Sender], work: &Workload, threads: usize, checks: &mut Checks) -> u64 {
    let mut kept = Vec::new();
    for sender in senders {
        sender.drain_into(&mut kept);
    }
    let bad = checks::count_bad_tokens(&kept, work.templates, work.rig.ts, threads);
    checks.add("token recovers to the TS address", kept.len() as u64, bad);
    kept.len() as u64
}

/// Check the rule-edit confirmations, and run the self-test on a freshly
/// issued token.
pub fn check_edits(senders: &[Sender], work: &Workload, edit_events: usize, checks: &mut Checks) {
    let ts = work.rig.ts;
    let edits = work.owner.checked.lock().expect("owner checks");
    let edits_bad = edits
        .iter()
        .filter(|(r, t)| !checks::token_ok(r, t, ts))
        .count() as u64;
    checks.add("rule-edit token recovers", edits.len() as u64, edits_bad);
    let ineffective = work.owner.ineffective.load(Ordering::Relaxed);
    checks.add(
        "set_rules takes effect on the next request",
        edit_events as u64,
        ineffective,
    );
    let req = &work.templates[0];
    match senders[0].api.issue(req) {
        Ok(token) => checks.expect("self-test", checks::self_test(req, &token, ts).is_ok()),
        Err(_) => checks.expect("self-test token was issued", false),
    }
}

pub fn edit_events(schedules: &[Schedule]) -> usize {
    schedules
        .iter()
        .map(|s| s.kinds.iter().filter(|k| **k == Kind::SetRules).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, p99: Option<f64>, kept_up: bool) -> StepResult {
        StepResult {
            rate,
            events: 1000,
            failed: 0,
            single: Tail {
                n: 2000,
                p50: 1.0,
                p99,
            },
            single_lag_p50: 0.0,
            lag: Tail {
                n: 2000,
                p50: 0.0,
                p99: Some(0.1),
            },
            achieved: if kept_up { rate } else { rate * 0.5 },
            offered: rate,
            other_ms: Vec::new(),
        }
    }

    #[test]
    fn slo_rate_interpolates_in_log_latency() {
        let steps = [
            step(1000.0, Some(1.0), true),
            step(2000.0, Some(25.0), true),
        ];
        let r = slo_rate(&steps, 5.0);
        assert!((r - 1500.0).abs() < 1.0, "{r}");
        // A step that fell behind counts as over the limit.
        let steps = [
            step(1000.0, Some(1.0), true),
            step(2000.0, Some(2.0), false),
        ];
        assert!(slo_rate(&steps, 5.0) >= 1999.0);
        let steps = [step(1000.0, Some(1.0), true), step(2000.0, Some(2.0), true)];
        assert_eq!(slo_rate(&steps, 5.0), 2000.0);
        // A step without a reportable p99 is skipped, not counted as a miss.
        let steps = [
            step(500.0, None, true),
            step(1000.0, Some(1.0), true),
            step(2000.0, Some(25.0), true),
        ];
        assert!((slo_rate(&steps, 5.0) - 1500.0).abs() < 1.0);
    }

    #[test]
    fn schedules_repeat_for_a_seed_and_mix_in_rare_events() {
        let a = schedules(5, 10.0, 20);
        let b = schedules(5, 10.0, 20);
        assert_eq!(a[1].due, b[1].due);
        assert_eq!(a[1].kinds, b[1].kinds);
        let kinds = &a[1].kinds;
        let batches = kinds.iter().filter(|k| matches!(k, Kind::Batch(_))).count();
        let edits = kinds.iter().filter(|k| **k == Kind::SetRules).count();
        assert_eq!(batches, kinds.len() / RARE_EVERY);
        assert_eq!(edits, kinds.len() / RARE_EVERY);
    }
}
