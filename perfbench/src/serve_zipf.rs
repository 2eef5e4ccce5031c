//! `serve-zipf`: open-loop traffic against the real `baton serve` binary.
//!
//! The server runs as `baton --threads 2 serve --addr 127.0.0.1:0` with its
//! default 256-entry response cache. Single-layer `POST /map` bodies are
//! drawn Zipf over the 450 (zoo model × layer × objective) keys of the 224
//! zoo, spelled with varying field order, whitespace and explicit defaults;
//! about 5% are malformed or out of range and must get a 400. Arrivals are
//! Poisson at a fixed nominal rate, sent over two keep-alive connections,
//! and every request is timed from its scheduled send. One `GET /metrics`
//! scrape goes out per second.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nn_baton::arch::{presets, Technology};
use nn_baton::c3p::Objective;
use nn_baton::report::explain_layer;
use nn_baton::serve::map_request;
use nn_baton::telemetry::json;

use crate::openloop::{self, Outcome};
use crate::stats::{self, pct, Rng, Zipf};
use crate::{Args, Report};

/// Zipf exponent over the key popularity ranks; sets the cache hit share.
const ZIPF_S: f64 = 0.85;
/// Offered rate of the nominal phase (requests per second), about half of
/// `max_rps` on the reference machine.
const NOMINAL_RPS: f64 = 14.0;
/// The untraced nominal phase lasts this many `--seconds`, so its p90
/// rests on about 420 samples at `--seconds 20`.
const NOMINAL_WINDOWS: f64 = 1.5;
/// Each `max_rps` probe lasts this share of `--seconds`.
const PROBE_SHARE: f64 = 0.4;
/// Share of request bodies that are malformed or out of range.
const MALFORMED_SHARE: f64 = 0.05;
/// Latency limit on p99 for `max_rps`.
const LIMIT: Duration = Duration::from_millis(100);
/// Offered-rate ladder for `max_rps`: rung `k` is `LADDER_BASE * LADDER_STEP^k`.
const LADDER_BASE: f64 = 5.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_TOP: usize = 110;
/// Server spawns per run for `setup_s` (median reported).
const SETUP_SPAWNS: usize = 3;
/// Fixed key-popularity order: the rank permutation is part of the
/// workload's definition, not of its seed.
const RANK_SEED: u64 = 0x005E_ED0F_2A9E;
const CONNECTIONS: usize = 2;
/// How long a client spins for the first byte of a reply before it blocks:
/// long enough for a cache hit, short next to a miss.
const REPLY_POLL: Duration = Duration::from_micros(500);
/// `--threads` of the server, and of the in-process checks that mirror it.
const SERVER_THREADS: usize = 2;
const OBJECTIVES: [&str; 3] = ["energy", "edp", "runtime"];

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let baton = args
        .baton
        .clone()
        .ok_or("serve-zipf needs --baton <path to the baton binary>")?;
    let keys = keys();
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let mut rng = Rng::new(args.seed);
    let window = Duration::from_secs_f64(args.seconds);

    // Set-up: spawn to the first /readyz 200, several times; the last
    // server stays up for the run.
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut server = None;
    for i in 0..SETUP_SPAWNS {
        let t0 = Instant::now();
        let s = Server::spawn(&baton)?;
        s.wait_ready()?;
        setups.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUP_SPAWNS {
            let ok = s.quit();
            report.op(ok.is_ok(), || format!("set-up server: {ok:?}"));
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one spawn");
    let mut log = Log::default();

    // Warm the cache, untimed, in popularity order until it first evicts.
    // One connection per request keeps the warm-up short; it fills the
    // cache exactly as keep-alive traffic would.
    let mut conns = connections(&server.addr);
    let mut next_rank = 0;
    while next_rank < keys.len() {
        let batch: Vec<Item> = (next_rank..(next_rank + 32).min(keys.len()))
            .map(|k| Item::Map {
                key: Some(k),
                body: keys[k].body(rng.below(6)),
            })
            .collect();
        next_rank += batch.len();
        let due = vec![Duration::ZERO; batch.len()];
        let sent = openloop::run(&due, &batch, &mut conns, None, send_once);
        log.add(batch, sent);
        let m = scrape(&mut conns[0])?;
        if m.get("baton_response_cache_evictions_total") > 0.0 {
            break;
        }
    }
    drop(conns);

    // The nominal phase: p90 at the fixed offered rate. The traced run only
    // needs its p50, as the overhead baseline.
    let nominal = if args.trace {
        window
    } else {
        window.mul_f64(NOMINAL_WINDOWS)
    };
    let (due, items) = schedule(&mut rng, &keys, &zipf, NOMINAL_RPS, nominal, false);
    let sent = openloop::run(&due, &items, &mut connections(&server.addr), None, send);
    let plain = log.add(items, sent);

    let mut traced = None;
    let mut max_rps = None;
    if args.trace {
        // The same phase again with the flight recorder polled twice a
        // second; the difference is the tracing overhead.
        let (due, items) = schedule(&mut rng, &keys, &zipf, NOMINAL_RPS, window, true);
        let sent = openloop::run(&due, &items, &mut connections(&server.addr), None, send);
        traced = Some(log.add(items, sent));
    } else {
        max_rps = Some(find_max_rps(
            &mut rng,
            &keys,
            &zipf,
            window,
            &server.addr,
            &mut log,
        )?);
    }

    let server_rss = stats::vm_hwm_mb(&server.pid()).unwrap_or(0.0);
    let quit = server.quit();
    report.op(quit.is_ok(), || format!("server drain: {quit:?}"));

    // Output checks, outside every timed window.
    nn_baton::parallel::configure_threads(Some(SERVER_THREADS));
    let expected = log.check(&keys, report);

    let plain = &log.phases[plain];
    if let Some(traced) = traced {
        layer_metrics(plain, &log.phases[traced], &keys, report);
        report.set("serve.body_digest", body_digest(&plain.items, &expected));
        return Ok(());
    }
    let map_lat = plain.map_latencies_ms();
    report.set("setup_s", pct(&setups, 50.0));
    report.set("ops_per_s", plain.completed_per_s());
    report.set("p90_ms", pct(&map_lat, 90.0));
    report.set("max_rps", max_rps.expect("measured untraced"));
    report.set("peak_rss_mb", server_rss);
    report.set("des_gap_mean", crate::zoo_des_gap()?);
    Ok(())
}

// ---------------------------------------------------------------------------
// Keys and bodies
// ---------------------------------------------------------------------------

/// One cacheable request: a zoo layer at 224 under one objective.
pub struct Key {
    model: &'static str,
    layer: String,
    objective: &'static str,
}

impl Key {
    /// The request body in one of six spellings that share a cache key.
    fn body(&self, variant: usize) -> String {
        let (m, l, o) = (self.model, &self.layer, self.objective);
        match variant {
            0 => format!(r#"{{"model":"{m}","config":{{"layer":"{l}","objective":"{o}"}}}}"#),
            1 => format!(r#"{{"config":{{"objective":"{o}","layer":"{l}"}},"model":"{m}"}}"#),
            2 => format!(
                r#"{{ "model" : "{m}" , "config" : {{ "layer" : "{l}" , "objective" : "{o}" , "res" : 224 }} }}"#
            ),
            3 => format!(
                "{{\n  \"model\": \"{m}\",\n  \"config\": {{\"top\": 3, \"layer\": \"{l}\", \"objective\": \"{o}\"}}\n}}"
            ),
            4 if o == "energy" => format!(r#"{{"model": "{m}", "config": {{"layer": "{l}"}}}}"#),
            4 => format!(
                r#"{{"model": "{m}", "config": {{"objective": "{o}", "layer": "{l}", "res": 224, "top": 3}}}}"#
            ),
            _ => format!("{{\t\"config\":\t{{\"layer\":\"{l}\",\r\n\"objective\":\"{o}\"}},\t\"model\":\"{m}\"}}"),
        }
    }
}

/// A body the server must refuse with a 400 before any search.
fn malformed(key: &Key, variant: usize) -> String {
    let (m, l) = (key.model, &key.layer);
    match variant {
        0 => format!(r#"{{"model":"{m}","config":{{"layer":"{l}""#),
        1 => format!(r#"{{"model":"{m}","config":{{"layer":"{l}","res":16}}}}"#),
        2 => format!(r#"{{"model":"{m}","config":{{"layer":"{l}","top":0}}}}"#),
        3 => format!(r#"{{"model":"{m}","config":{{"layer":"{l}","objective":"speed"}}}}"#),
        4 => format!(r#"{{"model":"lenet5","config":{{"layer":"{l}"}}}}"#),
        _ => format!(r#"{{"config":{{"layer":"{l}"}}}}"#),
    }
}

/// The 450 keys in popularity-rank order.
pub fn keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for model in crate::zoo_224() {
        let name: &'static str = match model.name() {
            "alexnet" => "alexnet",
            "vgg16" => "vgg16",
            "resnet50" => "resnet50",
            "darknet19" => "darknet19",
            _ => "mobilenet_v2",
        };
        for layer in model.layers() {
            for objective in OBJECTIVES {
                keys.push(Key {
                    model: name,
                    layer: layer.name().to_string(),
                    objective,
                });
            }
        }
    }
    Rng::new(RANK_SEED).shuffle(&mut keys);
    keys
}

#[derive(Debug, Clone)]
pub enum Item {
    /// `POST /map`; `key` is `None` for a body that must be refused.
    Map { key: Option<usize>, body: String },
    /// `GET /metrics`.
    Scrape,
    /// `GET /debug/requests?limit=128` (traced runs only).
    Debug,
}

/// Seeded Poisson arrivals of `/map` bodies at `rate` over `window`, plus
/// one scrape per second and, when `debug`, a flight-recorder poll every
/// half second.
fn schedule(
    rng: &mut Rng,
    keys: &[Key],
    zipf: &Zipf,
    rate: f64,
    window: Duration,
    debug: bool,
) -> (Vec<Duration>, Vec<Item>) {
    let mut timed: Vec<(Duration, Item)> = stats::poisson_arrivals(rng, rate, window)
        .into_iter()
        .map(|t| {
            let k = zipf.sample(rng);
            let item = if rng.next_f64() < MALFORMED_SHARE {
                Item::Map {
                    key: None,
                    body: malformed(&keys[k], rng.below(6)),
                }
            } else {
                Item::Map {
                    key: Some(k),
                    body: keys[k].body(rng.below(6)),
                }
            };
            (t, item)
        })
        .collect();
    let half_seconds = (window.as_secs_f64() * 2.0) as u64;
    for h in 1..=half_seconds {
        let at = Duration::from_millis(500 * h);
        if debug {
            timed.push((at, Item::Debug));
        }
        if h % 2 == 0 {
            timed.push((at, Item::Scrape));
        }
    }
    timed.sort_by_key(|(t, _)| *t);
    timed.into_iter().unzip()
}

// ---------------------------------------------------------------------------
// Running and recording
// ---------------------------------------------------------------------------

type Sent = Outcome<Result<Reply, String>>;

/// [`send`] on a connection of its own, closed after the reply.
fn send_once(conn: &mut Conn, item: &Item) -> Result<Reply, String> {
    let reply = send(conn, item);
    conn.stream = None;
    reply
}

fn send(conn: &mut Conn, item: &Item) -> Result<Reply, String> {
    match item {
        Item::Map { body, .. } => conn.request("POST", "/map", body),
        Item::Scrape => conn.request("GET", "/metrics", ""),
        Item::Debug => conn.request("GET", "/debug/requests?limit=128", ""),
    }
}

/// Keep-alive connections for one phase; they close when the phase's
/// vector is dropped, which frees their server workers.
fn connections(addr: &str) -> Vec<Conn> {
    (0..CONNECTIONS).map(|_| Conn::new(addr)).collect()
}

/// One phase's requests with their outcomes (`None`: never sent).
pub struct Phase {
    items: Vec<Item>,
    sent: Vec<Option<Sent>>,
}

impl Phase {
    fn done(&self) -> impl Iterator<Item = (&Item, &Sent)> {
        self.items
            .iter()
            .zip(&self.sent)
            .filter_map(|(i, s)| Some((i, s.as_ref()?)))
    }

    fn map_latencies_ms(&self) -> Vec<f64> {
        self.done()
            .filter(|(i, _)| matches!(i, Item::Map { .. }))
            .map(|(_, s)| ms(s.latency()))
            .collect()
    }

    fn completed_per_s(&self) -> f64 {
        let done: Vec<&Sent> = self
            .done()
            .filter(|(i, _)| matches!(i, Item::Map { .. }))
            .map(|(_, s)| s)
            .collect();
        let end = done.iter().map(|s| s.done).max().unwrap_or_default();
        done.len() as f64 / end.as_secs_f64()
    }

    /// The probe verdict for `max_rps`: every request sent and answered as
    /// expected, p99 within the limit, and no backlog still growing at the
    /// end (the last tenth's mean latency within the limit too).
    ///
    /// A probe holds one to two hundred requests, where the nearest-rank
    /// p99 is one of the top two, so "p99 within the limit" is tested as a
    /// share: the requests over the limit may not exceed 1% of the probe by
    /// more than two binomial standard deviations.
    fn meets_limit(&self) -> bool {
        let all_ok = self.sent.iter().all(|s| match s {
            Some(s) => s.result.is_ok(),
            None => false,
        }) && self.done().all(|(i, s)| status_ok(i, s));
        let lat = self.map_latencies_ms();
        if !all_ok || lat.is_empty() {
            return false;
        }
        let tail = &lat[lat.len() - (lat.len() / 10).max(1)..];
        let limit = ms(LIMIT);
        let n = lat.len() as f64;
        let over = lat.iter().filter(|&&l| l > limit).count() as f64;
        over <= 0.01 * n + 2.0 * (0.01 * 0.99 * n).sqrt() && stats::mean(tail) <= limit
    }
}

fn status_ok(item: &Item, sent: &Sent) -> bool {
    let Ok(reply) = &sent.result else {
        return false;
    };
    match item {
        Item::Map { key: None, .. } => reply.status == 400,
        _ => reply.status == 200,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every phase of the run, kept for the output checks.
#[derive(Default)]
struct Log {
    phases: Vec<Phase>,
}

impl Log {
    /// Stores a phase and returns its index.
    fn add(&mut self, items: Vec<Item>, sent: Vec<Option<Sent>>) -> usize {
        self.phases.push(Phase { items, sent });
        self.phases.len() - 1
    }

    /// Checks every answered request: statuses, and each 200 `/map` body
    /// byte-identical to in-process `serve::map_request` on the key's
    /// canonical body. Returns the expected body per key.
    fn check(&self, keys: &[Key], report: &mut Report) -> BTreeMap<usize, Vec<u8>> {
        let mut expected: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        for (item, s) in self.phases.iter().flat_map(Phase::done) {
            let mut ok = status_ok(item, s);
            if let (Item::Map { key: Some(k), .. }, Ok(reply)) = (item, &s.result) {
                let want = expected.entry(*k).or_insert_with(|| {
                    map_request(&keys[*k].body(0))
                        .map_or_else(String::into_bytes, String::into_bytes)
                });
                ok &= stats::body_matches(want, &reply.body);
            }
            report.op(ok, || match &s.result {
                Ok(r) => format!("{item:?}: status {} or body differs", r.status),
                Err(e) => format!("{item:?}: {e}"),
            });
        }
        expected
    }
}

/// Digest of the expected bodies of every valid key in `items` — a
/// fingerprint of the served answers for this seed.
fn body_digest(items: &[Item], expected: &BTreeMap<usize, Vec<u8>>) -> f64 {
    let mut keys: Vec<usize> = items
        .iter()
        .filter_map(|i| match i {
            Item::Map { key: Some(k), .. } => Some(*k),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let h = keys.iter().fold(stats::FNV_OFFSET, |h, k| {
        stats::fnv1a(h, expected.get(k).map_or(&[][..], Vec::as_slice))
    });
    stats::digest48(h)
}

/// The highest rung of the offered-rate ladder that meets the limit:
/// gallop from the rung nearest twice the nominal rate in doubling steps,
/// then bisect.
fn find_max_rps(
    rng: &mut Rng,
    keys: &[Key],
    zipf: &Zipf,
    window: Duration,
    addr: &str,
    log: &mut Log,
) -> Result<f64, String> {
    let rate = |k: usize| LADDER_BASE * LADDER_STEP.powi(k as i32);
    let probe_window = window.mul_f64(PROBE_SHARE);
    let mut probe = |k: usize| {
        let (due, items) = schedule(rng, keys, zipf, rate(k), probe_window, false);
        // Fresh connections per probe, so one that stopped early leaves no
        // queued work behind.
        let sent = openloop::run(
            &due,
            &items,
            &mut connections(addr),
            Some(Duration::from_secs(1)),
            send,
        );
        let i = log.add(items, sent);
        let phase = &log.phases[i];
        let verdict = phase.meets_limit();
        let lat = phase.map_latencies_ms();
        eprintln!(
            "max_rps probe at {:.1} rps: {} (n {}, p50 {:.1} ms, p99 {:.1} ms)",
            rate(k),
            if verdict { "meets" } else { "misses" },
            lat.len(),
            if lat.is_empty() { 0.0 } else { pct(&lat, 50.0) },
            if lat.is_empty() { 0.0 } else { pct(&lat, 99.0) },
        );
        verdict
    };
    let target = 2.0 * NOMINAL_RPS;
    let start = (0..=LADDER_TOP)
        .min_by(|&a, &b| {
            (rate(a) - target)
                .abs()
                .total_cmp(&(rate(b) - target).abs())
        })
        .expect("non-empty ladder");
    let mut lo;
    let mut hi;
    if probe(start) {
        lo = start;
        hi = LADDER_TOP + 1;
        let mut step = 2;
        while lo < LADDER_TOP {
            let k = (lo + step).min(LADDER_TOP);
            if !probe(k) {
                hi = k;
                break;
            }
            lo = k;
            step *= 2;
        }
    } else {
        hi = start;
        lo = usize::MAX;
        let mut step = 2;
        while hi > 0 {
            let k = hi.saturating_sub(step);
            if probe(k) {
                lo = k;
                break;
            }
            hi = k;
            step *= 2;
        }
        if lo == usize::MAX {
            return Err("no rung of the ladder meets the latency limit".into());
        }
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(rate(lo))
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced run)
// ---------------------------------------------------------------------------

fn layer_metrics(plain: &Phase, phase: &Phase, keys: &[Key], report: &mut Report) {
    // Flight-recorder entries of the phase, by trace id.
    let mut entries: HashMap<String, BTreeMap<String, json::Value>> = HashMap::new();
    let mut scrapes = Vec::new();
    for (item, s) in phase.done() {
        let Ok(reply) = &s.result else { continue };
        match item {
            Item::Debug => {
                for e in recorder_entries(&String::from_utf8_lossy(&reply.body)) {
                    if let Some(json::Value::String(id)) = e.get("trace_id") {
                        entries.insert(id.clone(), e);
                    }
                }
            }
            Item::Scrape => scrapes.push((ms(s.latency()), Metrics::parse(&reply.body))),
            Item::Map { .. } => {}
        }
    }
    let field = |e: &BTreeMap<String, json::Value>, k: &str| {
        e.get(k).and_then(json::Value::as_f64).unwrap_or(0.0)
    };

    let (mut hit, mut miss, mut reject) = (Vec::new(), Vec::new(), Vec::new());
    let mut miss_keys = Vec::new();
    for (item, s) in phase.done() {
        let (Item::Map { key, .. }, Ok(reply)) = (item, &s.result) else {
            continue;
        };
        if key.is_none() {
            reject.push(ms(s.latency()));
            continue;
        }
        let Some(e) = entries.get(&reply.trace_id) else {
            continue;
        };
        if field(e, "search_us") > 0.0 {
            miss.push(ms(s.latency()));
            miss_keys.extend(*key);
        } else {
            hit.push(ms(s.latency()));
        }
    }
    let maps: Vec<&BTreeMap<String, json::Value>> = entries
        .values()
        .filter(|e| matches!(e.get("op"), Some(json::Value::String(op)) if op == "POST /map"))
        .collect();
    let server = |k: &str| maps.iter().map(|e| field(e, k)).collect::<Vec<f64>>();
    let searched: Vec<f64> = server("search_us")
        .into_iter()
        .filter(|&v| v > 0.0)
        .collect();
    let or_zero = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { pct(v, p) };

    report.set("serve.hit_p50_ms", or_zero(&hit, 50.0));
    report.set("serve.reject_p50_ms", or_zero(&reject, 50.0));
    report.set(
        "serve.scrape_ms",
        or_zero(&scrapes.iter().map(|(l, _)| *l).collect::<Vec<_>>(), 50.0),
    );
    report.set(
        "serve.queue_wait_us_p50",
        or_zero(&server("queue_wait_us"), 50.0),
    );
    report.set("serve.parse_us_p50", or_zero(&server("parse_us"), 50.0));
    report.set("serve.cache_us_p50", or_zero(&server("cache_us"), 50.0));
    report.set("serve.render_us_p50", or_zero(&server("render_us"), 50.0));
    report.set("serve.miss_p50_ms", or_zero(&miss, 50.0));
    report.set("serve.miss_p99_ms", or_zero(&miss, 99.0));
    report.set("serve.search_us_p99", or_zero(&searched, 99.0));
    report.set(
        "serve.queue_wait_us_p99",
        or_zero(&server("queue_wait_us"), 99.0),
    );

    // In-process explain on the keys that missed, for the service overhead.
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    miss_keys.sort_unstable();
    miss_keys.dedup();
    let models = crate::zoo_224();
    let explain: Vec<f64> = miss_keys
        .iter()
        .filter_map(|&k| {
            let key = &keys[k];
            let model = models.iter().find(|m| m.name() == key.model)?;
            let layer = model.layer(&key.layer)?;
            let objective = match key.objective {
                "edp" => Objective::Edp,
                "runtime" => Objective::Runtime,
                _ => Objective::Energy,
            };
            let t = Instant::now();
            let r = explain_layer(layer, &arch, &tech, objective, 3);
            std::hint::black_box(r.ok()?);
            Some(ms(t.elapsed()))
        })
        .collect();
    let explain_p50 = or_zero(&explain, 50.0);
    report.set("report.explain_ms_p50", explain_p50);
    report.set("serve.overhead_ms", or_zero(&miss, 50.0) - explain_p50);

    if let (Some((_, first)), Some((_, last))) = (scrapes.first(), scrapes.last()) {
        let d = |k: &str| last.get(k) - first.get(k);
        let (hits, misses) = (
            d("baton_response_cache_hits_total"),
            d("baton_response_cache_misses_total"),
        );
        report.set("serve.cache_hit_share", hits / (hits + misses).max(1.0));
        report.set("serve.evictions", d("baton_response_cache_evictions_total"));
        report.set(
            "serve.cpu_ms_per_req",
            d("process_cpu_seconds_total") * 1e3 / d("baton_http_requests_total").max(1.0),
        );
        report.set(
            "serve.rss_mb",
            last.get("process_resident_memory_bytes") / (1024.0 * 1024.0),
        );
    }
    let lateness: Vec<f64> = phase.done().map(|(_, s)| ms(s.lateness())).collect();
    report.set("loadgen.lateness_ms_p99", or_zero(&lateness, 99.0));

    let (phases, totals): (f64, f64) = maps.iter().fold((0.0, 0.0), |(p, t), e| {
        let sum: f64 = [
            "queue_wait_us",
            "parse_us",
            "cache_us",
            "search_us",
            "render_us",
        ]
        .iter()
        .map(|k| field(e, k))
        .sum();
        (p + sum, t + field(e, "total_us"))
    });
    report.set("trace.coverage", phases / totals.max(1.0));
    let p50 = |p: &Phase| pct(&p.map_latencies_ms(), 50.0);
    report.set("trace.overhead", p50(phase) / p50(plain) - 1.0);
}

/// The flat request summaries of a `/debug/requests` body.
fn recorder_entries(body: &str) -> Vec<BTreeMap<String, json::Value>> {
    let Some(start) = body.find("\"requests\":[") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut open) = (0, false, false, 0);
    let list = &body[start + "\"requests\":[".len()..];
    for (i, c) in list.char_indices() {
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    open = i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    if let Ok(e) = json::parse_flat_object(&list[open..=i]) {
                        out.push(e);
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    out
}

/// Sample values of a Prometheus text exposition, summed per family name.
struct Metrics(HashMap<String, f64>);

impl Metrics {
    fn parse(body: &[u8]) -> Metrics {
        let mut map = HashMap::new();
        for line in String::from_utf8_lossy(body).lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let name = series.split('{').next().unwrap_or(series);
            if let Ok(v) = value.parse::<f64>() {
                *map.entry(name.to_string()).or_insert(0.0) += v;
            }
        }
        Metrics(map)
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn scrape(conn: &mut Conn) -> Result<Metrics, String> {
    let reply = conn.request("GET", "/metrics", "")?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    Ok(Metrics::parse(&reply.body))
}

// ---------------------------------------------------------------------------
// The server process and a minimal HTTP/1.1 client
// ---------------------------------------------------------------------------

/// A running `baton serve`; dropping it kills and reaps the process.
struct Server {
    child: Option<Child>,
    addr: String,
}

impl Server {
    fn spawn(baton: &str) -> Result<Server, String> {
        let mut child = Command::new(baton)
            .args(["--threads", &SERVER_THREADS.to_string()])
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {baton}: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let read = reader.read_line(&mut line);
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        read.map_err(|e| format!("server stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .ok_or_else(|| format!("unexpected server banner `{}`", line.trim()))?
            .to_string();
        // Keep draining stdout (the drain summary) so the server never
        // blocks on a full pipe.
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    fn wait_ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            let mut conn = Conn::new(&self.addr);
            if matches!(conn.request("GET", "/readyz", ""), Ok(r) if r.status == 200) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server not ready within 30 s".into())
    }

    /// Graceful drain through `/quitquitquit`; the process must exit 0.
    fn quit(mut self) -> Result<(), String> {
        let reply = Conn::new(&self.addr).request("POST", "/quitquitquit", "")?;
        let mut child = self.child.take().expect("server still owned");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && reply.status == 200 => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!(
                        "drain answered {}, server exited {status}",
                        reply.status
                    ))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after /quitquitquit".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[derive(Debug, Clone)]
pub struct Reply {
    status: u16,
    body: Vec<u8>,
    trace_id: String,
}

/// One keep-alive connection, reopened when the server closes it.
pub struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        // A reused connection may have been closed by the server while idle;
        // retry once on a fresh one if nothing at all came back.
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Err((false, _)) if reused => self.try_request(method, path, body).map_err(|(_, e)| e),
            r => r.map_err(|(_, e)| e),
        }
    }

    /// The error flag tells whether any response bytes arrived.
    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Reply, (bool, String)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr).map_err(|e| (false, format!("connect: {e}")))?;
            let _ = s.set_nodelay(true);
            let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
            self.stream = Some(BufReader::new(s));
        }
        let result = self.exchange(method, path, body);
        if !matches!(&result, Ok((_, true))) {
            self.stream = None;
        }
        result.map(|(reply, _)| reply)
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(Reply, bool), (bool, String)> {
        let stream = self.stream.as_mut().expect("connected");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let io = |e: std::io::Error| (false, format!("send: {e}"));
        let w = stream.get_mut();
        w.write_all(head.as_bytes()).map_err(io)?;
        w.write_all(body.as_bytes()).map_err(io)?;
        if stream.buffer().is_empty() {
            poll_for_reply(stream.get_ref());
        }
        let mut line = String::new();
        match stream.read_line(&mut line) {
            Ok(0) => return Err((false, "connection closed".into())),
            Err(e) => return Err((false, format!("receive: {e}"))),
            Ok(_) => {}
        }
        let bad = |m: String| (true, m);
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line `{}`", line.trim())))?;
        let (mut length, mut keep, mut trace_id) = (0usize, true, String::new());
        loop {
            let mut h = String::new();
            stream
                .read_line(&mut h)
                .map_err(|e| bad(format!("headers: {e}")))?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            let lower = h.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad header `{h}`")))?;
            } else if let Some(v) = lower.strip_prefix("connection:") {
                keep = v.trim() != "close";
            } else if lower.starts_with("x-baton-trace-id:") {
                trace_id = h["x-baton-trace-id:".len()..].trim().to_string();
            }
        }
        let mut body = vec![0u8; length];
        stream
            .read_exact(&mut body)
            .map_err(|e| bad(format!("body: {e}")))?;
        Ok((
            Reply {
                status,
                body,
                trace_id,
            },
            keep,
        ))
    }
}

/// Spins on `stream` until a reply byte has arrived or [`REPLY_POLL`] has
/// passed. A reply that comes back within the poll finds this thread
/// running, so the latency holds the server's work and not the time it
/// takes to wake the client's own idle core, which on a virtual machine
/// varies from run to run by more than a cache hit costs.
fn poll_for_reply(stream: &TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let t = Instant::now();
    let mut byte = [0u8; 1];
    while t.elapsed() < REPLY_POLL {
        match stream.peek(&mut byte) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
            _ => break,
        }
    }
    let _ = stream.set_nonblocking(false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_body_spelling_shares_one_cache_key() {
        for key in keys().iter().take(30) {
            let canonical = nn_baton::serve::cache_key_for("/map", &key.body(0)).unwrap();
            for v in 1..6 {
                let k = nn_baton::serve::cache_key_for("/map", &key.body(v)).unwrap();
                assert_eq!(k, canonical, "variant {v}: {}", key.body(v));
            }
            for v in 0..6 {
                let body = malformed(key, v);
                let refused = nn_baton::serve::MapRequest::parse(&body)
                    .map(|r| !nn_baton::serve::is_zoo_name(&r.model))
                    .unwrap_or(true);
                assert!(refused, "malformed variant {v} accepted: {body}");
            }
        }
    }

    #[test]
    fn keys_cover_the_zoo_once() {
        let keys = keys();
        assert_eq!(keys.len(), 450);
        let mut names: Vec<String> = keys
            .iter()
            .map(|k| format!("{}/{}/{}", k.model, k.layer, k.objective))
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 450);
    }

    #[test]
    fn schedules_repeat_per_seed() {
        let keys = keys();
        let zipf = Zipf::new(keys.len(), ZIPF_S);
        let draw = |seed| {
            let (due, items) = schedule(
                &mut Rng::new(seed),
                &keys,
                &zipf,
                100.0,
                Duration::from_secs(3),
                true,
            );
            let bodies: Vec<String> = items.iter().map(|i| format!("{i:?}")).collect();
            (due, bodies)
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let (_, items) = schedule(
            &mut Rng::new(3),
            &keys,
            &zipf,
            100.0,
            Duration::from_secs(3),
            true,
        );
        assert_eq!(
            items.iter().filter(|i| matches!(i, Item::Scrape)).count(),
            3
        );
        assert_eq!(items.iter().filter(|i| matches!(i, Item::Debug)).count(), 6);
    }

    #[test]
    fn recorder_and_exposition_parse() {
        let body = r#"{"capacity":128,"count":2,"requests":[{"trace_id":"a1","op":"POST /map","search_us":5},{"trace_id":"b2","op":"GET /x}","search_us":0}]}"#;
        let e = recorder_entries(body);
        assert_eq!(e.len(), 2);
        assert_eq!(e[1].get("op"), Some(&json::Value::String("GET /x}".into())));
        let m = Metrics::parse(b"# HELP x y\nbaton_http_requests_total{code=\"200\"} 3\nbaton_http_requests_total{code=\"400\"} 2\nup 1\n");
        assert_eq!(m.get("baton_http_requests_total"), 5.0);
        assert_eq!(m.get("up"), 1.0);
    }
}
