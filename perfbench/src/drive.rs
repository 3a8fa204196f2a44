//! Load generation over loopback: the open-loop and closed-loop framed
//! loops, the web/scrape loop, and the answer checks.
//!
//! Framed clients are plain `TcpClient`s, never the retrying connector,
//! so every transport error, timeout, undecodable frame or wrong answer
//! is counted as a failure instead of being retried away.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use softrep_proto::{Request, Response};
use softrep_server::tcp::TcpClient;

use crate::counting;
use crate::stack;
use crate::stats::{self, Samples, SplitMix};

/// Request classes, each reported on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Framed `QuerySoftware`/`QueryVendor`.
    Query,
    /// Framed acknowledged writes.
    Write,
    /// Framed `ReplSubscribe` page reads.
    Page,
    /// HTTP GET of a web page.
    Web,
    /// HTTP GET of `/metrics`.
    Scrape,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Query => "query",
            Class::Write => "vote",
            Class::Page => "page",
            Class::Web => "web",
            Class::Scrape => "scrape",
        }
    }
}

/// The only answer that counts as correct for a request.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `Software` carrying this id.
    Software(String),
    /// `UnknownSoftware` echoing this id.
    Unknown(String),
    /// `Vendor` with this name and at least this many titles.
    Vendor(String, u64),
    /// `Ok`.
    Ok,
    /// A gapless non-empty `ReplEntries` page starting after this seq.
    Page(u64),
}

/// One generated request with its expected answer.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    pub kind: &'static str,
    pub request: Request,
    pub expect: Expect,
}

/// A seeded request stream. `acked` sees every correctly answered op, so
/// a stream can remember what the server acknowledged.
pub trait Gen: Send {
    fn next(&mut self) -> Op;
    fn acked(&mut self, _op: &Op) {}
}

pub fn check(resp: &Response, expect: &Expect) -> bool {
    match (resp, expect) {
        (Response::Software(info), Expect::Software(id)) => &info.software_id == id,
        (Response::UnknownSoftware { software_id }, Expect::Unknown(id)) => software_id == id,
        (Response::Vendor { vendor, software_count, .. }, Expect::Vendor(v, n)) => {
            vendor == v && software_count >= n
        }
        (Response::Ok, Expect::Ok) => true,
        (Response::ReplEntries { entries, .. }, Expect::Page(from)) => {
            !entries.is_empty() && entries.iter().zip(from + 1..).all(|(e, seq)| e.seq == seq)
        }
        _ => false,
    }
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct Tally {
    pub lat_us: BTreeMap<Class, Samples>,
    pub kind_us: BTreeMap<&'static str, Samples>,
    pub completed: BTreeMap<Class, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// How late the generator sent each open-loop request, µs.
    pub lateness_us: Samples,
    pub offered_per_s: f64,
    pub elapsed_s: f64,
    /// Completion time (s from the phase start) of every correct answer
    /// of a closed-loop phase.
    pub done_at: Vec<(Class, f64)>,
    /// Completion rate per window, per class, of the appended phases.
    pub window_rates: BTreeMap<Class, Vec<f64>>,
}

impl Tally {
    fn record(&mut self, op_class: Class, kind: &'static str, ok: bool, lat_us: f64) {
        self.attempted += 1;
        if ok {
            *self.completed.entry(op_class).or_default() += 1;
            self.lat_us.entry(op_class).or_default().push(lat_us);
            self.kind_us.entry(kind).or_default().push(lat_us);
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (class, s) in other.lat_us {
            self.lat_us.entry(class).or_default().extend(&s);
        }
        for (kind, s) in other.kind_us {
            self.kind_us.entry(kind).or_default().extend(&s);
        }
        for (class, n) in other.completed {
            *self.completed.entry(class).or_default() += n;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lateness_us.extend(&other.lateness_us);
        self.done_at.extend(other.done_at);
        for (class, rates) in other.window_rates {
            self.window_rates.entry(class).or_default().extend(rates);
        }
        self.offered_per_s += other.offered_per_s;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Append a phase that ran after this one. Its completions are first
    /// cut into windows of about a second each.
    pub fn then(&mut self, mut other: Tally) {
        let windows = (other.elapsed_s.round() as usize).max(1);
        let width = other.elapsed_s.max(1e-9) / windows as f64;
        let mut counts: BTreeMap<Class, Vec<u64>> = BTreeMap::new();
        for (class, t) in std::mem::take(&mut other.done_at) {
            let slots = counts.entry(class).or_insert_with(|| vec![0; windows]);
            if let Some(n) = slots.get_mut((t / width) as usize) {
                *n += 1;
            }
        }
        for (class, slots) in counts {
            let rates = self.window_rates.entry(class).or_default();
            rates.extend(slots.iter().map(|&n| n as f64 / width));
        }
        let elapsed = self.elapsed_s + other.elapsed_s;
        let offered = self.offered_per_s.max(other.offered_per_s);
        self.merge(other);
        self.elapsed_s = elapsed;
        self.offered_per_s = offered;
    }

    /// Median completion rate of `class` over the windows of the
    /// closed-loop phases appended with [`Tally::then`]: a slow spell of
    /// the host moves a few windows, not the figure.
    pub fn windowed_rate(&self, class: Class) -> f64 {
        self.window_rates.get(&class).and_then(|r| stats::median_of(r)).unwrap_or(0.0)
    }

    pub fn lat(&mut self, class: Class) -> &mut Samples {
        self.lat_us.entry(class).or_default()
    }

    /// Print offered rate, achieved rate and generator lateness.
    pub fn print_phase(&mut self, label: &str) {
        let done: u64 = self.completed.values().sum();
        let achieved = done as f64 / self.elapsed_s.max(1e-9);
        let late50 = self.lateness_us.median().unwrap_or(0.0);
        let late99 = self.lateness_us.percentile(99.0).unwrap_or(0.0);
        let offered = if self.offered_per_s > 0.0 {
            format!("{:.1}/s", self.offered_per_s)
        } else {
            "closed loop".to_string()
        };
        println!(
            "phase {label}: offered {offered}, achieved {achieved:.1}/s over {:.2} s, \
             {} attempted, {} failed, generator lateness p50 {late50:.1} us p99 {late99:.1} us",
            self.elapsed_s, self.attempted, self.failed
        );
        let classes = self.lat_us.iter_mut().map(|(c, s)| (c.name(), s));
        for (name, s) in classes.chain(self.kind_us.iter_mut().map(|(k, s)| (*k, s))) {
            if let (Some(p50), Some(p99)) = (s.median(), s.percentile(99.0)) {
                println!("  {name}: p50 {p50:.1} us, p99 {p99:.1} us (n={})", s.len());
            }
        }
    }
}

static WRONG_ANSWERS_SHOWN: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

fn report_wrong(op: &Op, what: &str) {
    if WRONG_ANSWERS_SHOWN.fetch_add(1, std::sync::atomic::Ordering::Relaxed) < 5 {
        eprintln!("wrong answer to {}: {what}", op.kind);
    }
}

/// Send one op on `client` (reconnecting first if the previous call broke
/// it) and check the answer.
fn call_checked(client: &mut Option<TcpClient>, addr: SocketAddr, op: &Op) -> bool {
    if client.is_none() {
        *client = stack::client(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        report_wrong(op, "connect failed");
        return false;
    };
    match c.call(&op.request) {
        Ok(resp) => {
            let ok = check(&resp, &op.expect);
            if !ok {
                report_wrong(op, &format!("{resp:?}"));
            }
            ok
        }
        Err(e) => {
            report_wrong(op, &format!("transport error {e}"));
            *client = None;
            false
        }
    }
}

fn sleep_until(due: Instant) {
    let now = stats::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Open loop on one connection: op `i` is due at `start + i / rate` and
/// timed from that due time, so a stall delays every later request's
/// latency, not the schedule.
pub fn open_loop<G: Gen>(addr: SocketAddr, gen: &mut G, rate: f64, dur: Duration) -> Tally {
    let mut tally = Tally { offered_per_s: rate, ..Tally::default() };
    let mut client = stack::client(addr).ok();
    let start = stats::now();
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut i = 0u32;
    loop {
        let due = start + period * i;
        if due >= start + dur {
            break;
        }
        let op = gen.next();
        sleep_until(due);
        let sent = stats::now();
        let ok = call_checked(&mut client, addr, &op);
        let done = stats::now();
        tally.lateness_us.push(stats::us(sent - due));
        tally.record(op.class, op.kind, ok, stats::us(done - due));
        if ok {
            gen.acked(&op);
        }
        i += 1;
    }
    tally.elapsed_s = (stats::now() - start).as_secs_f64();
    tally
}

/// Closed loop: one connection per stream; each sends its next request
/// when the previous one is answered. Returns the streams for checks.
pub fn closed_loop<G: Gen>(addr: SocketAddr, gens: Vec<G>, dur: Duration) -> (Tally, Vec<G>) {
    let start = stats::now();
    let results: Vec<(Tally, G)> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .map(|mut gen| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut client = stack::client(addr).ok();
                    while stats::now() - start < dur {
                        let op = gen.next();
                        let t0 = stats::now();
                        let ok = call_checked(&mut client, addr, &op);
                        let done = stats::now();
                        tally.record(op.class, op.kind, ok, stats::us(done - t0));
                        if ok {
                            tally.done_at.push((op.class, (done - start).as_secs_f64()));
                            gen.acked(&op);
                        }
                    }
                    tally.elapsed_s = (stats::now() - start).as_secs_f64();
                    (tally, gen)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop thread panicked")).collect()
    });
    let mut total = Tally::default();
    let mut gens = Vec::new();
    for (tally, gen) in results {
        total.merge(tally);
        gens.push(gen);
    }
    (total, gens)
}

/// A web page stream: path and route name per draw.
pub type PagePicker<'a> = dyn FnMut(&mut SplitMix) -> (String, &'static str) + Send + 'a;

/// The browser/scraper side, one short-lived connection per GET: pages
/// arrive as a Poisson process at `page_rate` (none when 0), and
/// `/metrics` is scraped once a second. Each GET is timed from its due
/// time and must answer 200.
pub fn web_loop(
    web: SocketAddr,
    pages: &mut PagePicker<'_>,
    page_rate: f64,
    dur: Duration,
    rng: &mut SplitMix,
) -> Tally {
    let mut tally = Tally { offered_per_s: page_rate + 1.0, ..Tally::default() };
    let start = stats::now();
    let end = start + dur;
    let mut next_scrape = start;
    let mut next_page = if page_rate > 0.0 {
        start + Duration::from_secs_f64(rng.exp(1.0 / page_rate))
    } else {
        end
    };
    loop {
        let scrape = next_scrape <= next_page;
        let due = if scrape { next_scrape } else { next_page };
        if due >= end {
            break;
        }
        let (path, kind, class) = if scrape {
            next_scrape += Duration::from_secs(1);
            ("/metrics".to_string(), "get_metrics", Class::Scrape)
        } else {
            next_page += Duration::from_secs_f64(rng.exp(1.0 / page_rate));
            let (path, kind) = pages(rng);
            (path, kind, Class::Web)
        };
        sleep_until(due);
        let sent = stats::now();
        let ok = match stack::http_get(web, &path) {
            Ok((200, body)) => class != Class::Scrape || body.contains("softrep_"),
            Ok((status, _)) => {
                eprintln!("GET {path} answered {status}");
                false
            }
            Err(e) => {
                eprintln!("GET {path} failed: {e}");
                false
            }
        };
        let done = stats::now();
        tally.lateness_us.push(stats::us(sent - due));
        tally.record(class, kind, ok, stats::us(done - due));
    }
    sleep_until(end);
    tally.elapsed_s = (stats::now() - start).as_secs_f64();
    tally
}

/// Allocations per framed request, process-wide (client included, as the
/// repository's allocation probe counts them): `n` requests back to back
/// on a warm keep-alive connection, after `n / 10` uncounted ones.
pub fn alloc_probe<G: Gen>(addr: SocketAddr, gen: &mut G, n: usize, tally: &mut Tally) -> f64 {
    let mut client = stack::client(addr).ok();
    let mut counted = 0u64;
    for i in 0..n + n / 10 {
        let op = gen.next();
        let counting = i >= n / 10;
        counting::ALLOC_COUNTING.store(counting, Ordering::Relaxed);
        let before = counting::allocations();
        let t0 = stats::now();
        let ok = call_checked(&mut client, addr, &op);
        let lat = stats::us(stats::now() - t0);
        counted += counting::allocations() - before;
        counting::ALLOC_COUNTING.store(false, Ordering::Relaxed);
        tally.record(op.class, op.kind, ok, lat);
        if ok {
            gen.acked(&op);
        }
    }
    counted as f64 / n.max(1) as f64
}
