//! The benchmark's own load generator: seeded randomness, Poisson
//! schedules, and an open-loop runner that keeps one record per event.
//!
//! `smacs_driver::loadgen` reports only summaries; the benchmark needs
//! every event's due, send and completion times (for lag, per-step
//! percentiles and spans), so it drives the same open-loop discipline
//! here: arrivals are fixed in advance, latency is timed from the due
//! time, and a stalled request delays the events queued behind it.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// xorshift64* seeded through splitmix64, so nearby seeds diverge.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Poisson arrival offsets at `rate` events per second over `span`.
pub fn poisson(rng: &mut Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let end = span.as_secs_f64();
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += -rng.unit().ln() / rate;
        if at >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(at));
    }
}

/// What one event's call returned: success, and the name of the layer
/// call it made (the span name).
pub struct Outcome {
    pub ok: bool,
    pub call: &'static str,
}

/// One event, timed from the start of its step (nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub ok: bool,
}

impl Record {
    /// Latency from the due time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) as f64 / 1e6
    }

    /// How late the generator sent, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due) as f64 / 1e6
    }
}

/// A traced interval around one call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Request id: spans of one request share it.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store, written out once when the run ends.
#[derive(Default)]
pub struct Spans {
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn extend(&self, batch: Vec<Span>) {
        self.spans.lock().expect("span store").extend(batch);
    }

    /// Record one span timed by `f` under `parent`, returning `f`'s value.
    pub fn time<T>(
        &self,
        t0: Instant,
        parent: u64,
        req: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = t0.elapsed().as_nanos() as u64;
        let value = f();
        let end = t0.elapsed().as_nanos() as u64;
        let id = self.id();
        self.extend(vec![Span {
            id,
            parent,
            name,
            req,
            start_ns: start,
            end_ns: end,
        }]);
        (value, end - start)
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store").len()
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times in microseconds of every span called `name`: its
    /// duration minus the part its child spans cover.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store");
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own = s.end_ns - s.start_ns;
                own.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64 / 1e3
            })
            .collect()
    }

    /// Write every span as tab-separated lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Drive `due` open-loop with one sender thread per client: whichever
/// sender is free takes the next event, sleeps until it is due, and runs
/// `event(client, k)`. Records are timed from the returned start instant.
/// With `trace`, each event records a root span from its due time to its
/// completion and a child span around the call, timed from the given
/// base instant.
pub fn open_loop<C, F>(
    due: &[Duration],
    clients: &[C],
    trace: Option<(&Spans, Instant)>,
    event: F,
) -> (Vec<Record>, Instant)
where
    C: Sync,
    F: Fn(&C, usize) -> Outcome + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut records: Vec<(usize, Record)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|client| {
                let (next, event) = (&next, &event);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut traced = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&at) = due.get(k) else { break };
                        if let Some(wait) = at.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let due_ns = at.as_nanos() as u64;
                        let sent = (start.elapsed().as_nanos() as u64).max(due_ns);
                        let outcome = event(client, k);
                        let done = (start.elapsed().as_nanos() as u64).max(sent);
                        if let Some((spans, base)) = trace {
                            let shift = (start - base).as_nanos() as u64;
                            let root = spans.id();
                            traced.push(Span {
                                id: root,
                                parent: 0,
                                name: "loadgen.event",
                                req: k as u64,
                                start_ns: shift + due_ns,
                                end_ns: shift + done,
                            });
                            traced.push(Span {
                                id: spans.id(),
                                parent: root,
                                name: outcome.call,
                                req: k as u64,
                                start_ns: shift + sent,
                                end_ns: shift + done,
                            });
                        }
                        out.push((
                            k,
                            Record {
                                due: due_ns,
                                sent,
                                done,
                                ok: outcome.ok,
                            },
                        ));
                    }
                    if let Some((spans, _)) = trace {
                        spans.extend(traced);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    records.sort_by_key(|(k, _)| *k);
    (records.into_iter().map(|(_, r)| r).collect(), start)
}

/// CPU time the hypervisor gave to other guests ("steal"), sampled from
/// `/proc/stat` while a measurement runs. On a shared host it comes in
/// bursts that stall every thread of the system under test; the
/// benchmark uses it to pick the quieter part of a run (see
/// `stats::quiet_median`). Without `/proc/stat` nothing is known and no
/// part of a run is preferred.
pub struct Steal {
    samples: Mutex<Vec<(Instant, u64, u64)>>,
    stop: std::sync::atomic::AtomicBool,
}

/// How often steal is sampled.
const STEAL_EVERY: Duration = Duration::from_millis(20);

fn read_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (cpu.len() == 8).then(|| (cpu[7], cpu.iter().sum()))
}

impl Steal {
    /// Run `f` while a background thread samples steal.
    pub fn watch<T>(f: impl FnOnce(&Steal) -> T) -> T {
        let steal = Steal {
            samples: Mutex::new(Vec::new()),
            stop: std::sync::atomic::AtomicBool::new(false),
        };
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                while !steal.stop.load(Ordering::Relaxed) {
                    if let Some((st, total)) = read_steal() {
                        steal.samples.lock().expect("steal samples").push((
                            Instant::now(),
                            st,
                            total,
                        ));
                    }
                    std::thread::sleep(STEAL_EVERY);
                }
            });
            let out = f(&steal);
            steal.stop.store(true, Ordering::Relaxed);
            sampler.join().expect("steal sampler panicked");
            out
        })
    }

    /// Share of CPU time stolen between two instants, from the samples
    /// bracketing them; `None` when unknown.
    pub fn share(&self, from: Instant, to: Instant) -> Option<f64> {
        let samples = self.samples.lock().expect("steal samples");
        let a = samples
            .iter()
            .rev()
            .find(|s| s.0 <= from)
            .or(samples.first())?;
        let b = samples.iter().find(|s| s.0 >= to).or(samples.last())?;
        let total = b.2.checked_sub(a.2).filter(|t| *t > 0)?;
        Some((b.1 - a.1) as f64 / total as f64)
    }

    /// Steal share over everything sampled so far.
    pub fn overall(&self) -> Option<f64> {
        let samples = self.samples.lock().expect("steal samples");
        let (a, b) = (samples.first()?, samples.last()?);
        let total = b.2.checked_sub(a.2).filter(|t| *t > 0)?;
        Some((b.1 - a.1) as f64 / total as f64)
    }
}

/// Run `op` back to back on each client's own thread for `span`, returning
/// the number of successful and failed calls.
pub fn closed_loop<C, F>(clients: &[C], span: Duration, op: F) -> (u64, u64)
where
    C: Sync,
    F: Fn(&C, usize) -> bool + Sync,
{
    let issued = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|client| {
                let (issued, op) = (&issued, &op);
                s.spawn(move || {
                    let (mut ok, mut failed) = (0u64, 0u64);
                    while start.elapsed() < span {
                        if op(client, issued.fetch_add(1, Ordering::Relaxed)) {
                            ok += 1;
                        } else {
                            failed += 1;
                        }
                    }
                    (ok, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(&mut Rng::new(7), 1000.0, Duration::from_secs(1));
        let b = poisson(&mut Rng::new(7), 1000.0, Duration::from_secs(1));
        let c = poisson(&mut Rng::new(8), 1000.0, Duration::from_secs(1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_records_spans() {
        let due: Vec<Duration> = (0..20).map(|k| Duration::from_micros(k * 500)).collect();
        let spans = Spans::default();
        let (records, _) = open_loop(&due, &[(), ()], Some((&spans, Instant::now())), |_, k| {
            std::thread::sleep(Duration::from_micros(200));
            Outcome {
                ok: k != 3,
                call: "test.call",
            }
        });
        assert_eq!(records.len(), 20);
        assert_eq!(records.iter().filter(|r| !r.ok).count(), 1);
        assert!(records.iter().all(|r| r.done >= r.sent && r.sent >= r.due));
        assert!(records.iter().all(|r| r.latency_ms() >= 0.2));
        assert_eq!(spans.len(), 40);
        // The root's self time is the lag: its child covers the call.
        let lag = crate::stats::sorted(&spans.self_us("loadgen.event"));
        let want =
            crate::stats::sorted(&records.iter().map(|r| r.lag_ms() * 1e3).collect::<Vec<_>>());
        assert_eq!(lag.len(), 20);
        assert!(lag.iter().zip(&want).all(|(l, w)| (l - w).abs() < 1.0));
    }

    #[test]
    fn steal_share_is_a_fraction_or_unknown() {
        Steal::watch(|steal| {
            let from = Instant::now();
            std::thread::sleep(Duration::from_millis(120));
            if let Some(share) = steal.share(from, Instant::now()) {
                assert!((0.0..=1.0).contains(&share), "{share}");
            }
        });
    }
}
