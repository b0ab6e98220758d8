//! The traced run: spans around the calls into each layer's public
//! functions, kept in memory and written out at the end, and the
//! per-layer metrics drawn from them.
//!
//! The spans are taken here, in the benchmark, around the program's
//! public calls; the program itself is not instrumented. Its own
//! deterministic counters (`browser.*`, `dns.*`, `h1.*`, …) come from
//! the registries those calls fill.

use crate::checks::{self, Checks};
use crate::sys;
use crate::workloads::{self, Workload};
use origin_bench::{run_crawl_observed, ObsConfig, SeriesSamples, DEPLOYMENT_CDN_ASN};
use origin_browser::{BrowserKind, FaultSession, PageLoader, UniverseEnv, VisitArena};
use origin_cdn::{ActiveMeasurement, DeploymentMode, LongitudinalRun, SampleGroup};
use origin_core::certplan::{plan_site, PlanSummary};
use origin_core::characterize::Characterization;
use origin_core::model::predict_counts3;
use origin_metrics::Registry;
use origin_netsim::{FaultProfile, SimRng};
use origin_obs::VisitSinks;
use origin_serve::engine::run_serve_on;
use origin_serve::plan::compile_dataset;
use origin_webgen::{Dataset, PageScratch, PROVIDERS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric a traced run prints, with its unit. The
/// names are the ones `BENCHMARK.json` lists.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("webgen.generate_s", "s"),
    ("webgen.page_us", "us"),
    ("webgen.page_allocs", "count"),
    ("browser.load_us", "us"),
    ("browser.load_allocs", "count"),
    ("browser.load_us_first_tenth", "us"),
    ("browser.load_us_last_tenth", "us"),
    ("browser.requests", "count"),
    ("browser.connections_opened", "count"),
    ("browser.pool_reuse", "count"),
    ("browser.coalesced_requests", "count"),
    ("browser.reuse_ratio", "ratio"),
    ("dns.lookups", "count"),
    ("dns.cache_misses", "count"),
    ("dns.hit_ratio", "ratio"),
    ("core.predict_us", "us"),
    ("core.certplan_us", "us"),
    ("core.characterize_us", "us"),
    ("h1.connections_opened", "count"),
    ("h1.keepalive_reuse", "count"),
    ("h3.connections", "count"),
    ("h3.handshakes_0rtt", "count"),
    ("h3.qpack_instructions", "count"),
    ("h3.zero_rtt_ratio", "ratio"),
    ("fault.retries", "count"),
    ("fault.drops", "count"),
    ("cdn.sample_s", "s"),
    ("cdn.active_us", "us"),
    ("cdn.passive_us", "us"),
    ("cdn.wire_us", "us"),
    ("cdn.incident_s", "s"),
    ("cdn.longitudinal_s", "s"),
    ("cdn.active.visits", "count"),
    ("cdn.passive.visits", "count"),
    ("h2.frames_encoded", "count"),
    ("h2.frames_decoded", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.export_ms", "ms"),
    ("metrics.export_ms", "ms"),
    ("serve.compile_s", "s"),
    ("serve.visit_us", "us"),
    ("serve.visit_allocs", "count"),
    ("serve.pool_cost_pct", "%"),
    ("serve.sessions", "count"),
    ("serve.requests", "count"),
    ("serve.connections_opened", "count"),
    ("serve.pool_reused", "count"),
    ("serve.coalesced_requests", "count"),
    ("serve.reuse_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Exports timed this many times each; they take well under a
/// millisecond, so one call is mostly timer noise.
const EXPORT_REPEATS: usize = 5;
/// Alternating pairs behind each `*_pct` cost: observation on and off
/// (`obs.overhead_pct`), spans on and off (`trace.overhead_pct`), the
/// default pool and no pool (`serve.pool_cost_pct`).
const PAIRS: usize = 5;

/// One timed call: name, start and end (ns since the ledger began),
/// the span it ran inside, and the allocations it made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub allocs: u64,
}

/// In-memory span buffer.
pub struct Ledger {
    /// False for a ledger that records nothing, so the same walk can
    /// run without spans.
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, with the allocation count at entry.
    open: Vec<(usize, u64)>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            on: true,
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 17),
            open: Vec::new(),
        }
    }

    /// A ledger whose spans cost nothing: `enter`, `exit` and `time`
    /// only run what they wrap.
    pub fn off() -> Ledger {
        Ledger {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().map(|&(p, _)| p),
            allocs: 0,
        });
        // Read the clocks last, so the span's own bookkeeping stays
        // outside it.
        self.open.push((id, sys::allocs()));
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let allocs = sys::allocs();
        let (open, at_entry) = self.open.pop().expect("exit() matches an enter()");
        assert_eq!(open, id, "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs - at_entry;
    }

    /// Run `f` inside a span of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total seconds spent in spans of this name.
    pub fn total_s(&self, name: &str) -> f64 {
        self.of(name).map(|s| s.end_ns - s.start_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Mean duration of spans of this name, in µs.
    pub fn mean_us(&self, name: &str) -> f64 {
        let n = self.of(name).count().max(1);
        self.total_s(name) * 1e6 / n as f64
    }

    /// Mean allocations per span of this name.
    pub fn mean_allocs(&self, name: &str) -> f64 {
        let n = self.of(name).count().max(1);
        self.of(name).map(|s| s.allocs).sum::<u64>() as f64 / n as f64
    }

    /// Mean duration (µs) over the first and the last tenth of the
    /// spans of this name, in the order they ran.
    pub fn first_last_tenth_us(&self, name: &str) -> (f64, f64) {
        let d: Vec<u64> = self.of(name).map(|s| s.end_ns - s.start_ns).collect();
        if d.is_empty() {
            return (0.0, 0.0);
        }
        let k = (d.len() / 10).max(1);
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64 / 1e3;
        (mean(&d[..k]), mean(&d[d.len() - k..]))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as Chrome trace-event JSON (loadable in Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"allocs\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.allocs
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// One workload's traced ledger: its spans, the per-layer metrics drawn
/// from them, the checks it made, and the operations it attempted and
/// failed, counted as one round of the workload counts them.
pub struct Traced {
    pub ledger: Ledger,
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn pct_over(cost: f64, base: f64) -> f64 {
    (cost / base - 1.0) * 100.0
}

/// The cost, in percent, of `run(true)` over `run(false)`: the medians
/// of `PAIRS` wall-clock timings of each, taken in pairs whose first
/// side alternates. `run` drops what it makes, on both sides alike.
fn paired_cost_pct(name: &str, mut run: impl FnMut(bool)) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        for side in [pair % 2 == 0, pair % 2 == 1] {
            let start = Instant::now();
            run(side);
            let secs = start.elapsed().as_secs_f64();
            if side { &mut on } else { &mut off }.push(secs);
        }
    }
    eprintln!("# {name}: with {on:.3?} s, without {off:.3?} s");
    pct_over(median(on), median(off))
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Mean milliseconds of `EXPORT_REPEATS` timed calls of `f`.
fn export_ms<T>(led: &mut Ledger, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..EXPORT_REPEATS {
        black_box(led.time(name, &mut f));
    }
    led.mean_us(name) / 1e3
}

struct Walk {
    measured: SeriesSamples,
    model_ip: SeriesSamples,
    model_origin: SeriesSamples,
    registry: Registry,
}

fn push(s: &mut SeriesSamples, dns: u64, tls: u64, plt: f64) {
    s.dns.push(dns as f64);
    s.tls.push(tls as f64);
    s.plt.push(plt);
}

/// The crawl rebuilt from public calls, one worker, every site in rank
/// order: `page_for_with`, `load_observed`, `take_resolver_stats`,
/// `Characterization::add`, `predict_counts3` and `plan_site`, each in
/// its own span. It makes the same calls with the same seeds as the
/// program's crawl, so its series must equal the program's exactly.
fn traced_walk(
    led: &mut Ledger,
    dataset: &Dataset,
    faults: Option<&FaultProfile>,
    checks: &mut Checks,
) -> Walk {
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(dataset);
    if faults.is_some_and(|p| p.middlebox > 0.0) {
        env.origin_enabled_asns = PROVIDERS.iter().map(|p| p.asn).collect();
    }
    let mut scratch = PageScratch::new();
    let mut arena = VisitArena::new();
    let mut registry = Registry::new();
    let mut characterization =
        Characterization::new(dataset.config.sites, dataset.config.tranco_total);
    let mut plan = PlanSummary::default();
    let mut walk = Walk {
        measured: SeriesSamples::default(),
        model_ip: SeriesSamples::default(),
        model_origin: SeriesSamples::default(),
        registry: Registry::new(),
    };
    let universe = &dataset.universe;
    let walk_span = led.enter("crawl.walk");
    for site in dataset.successful_sites() {
        let site_span = led.enter("crawl.site");
        let page = led.time("webgen.page_for_with", || {
            dataset.page_for_with(site, &mut scratch)
        });
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let mut session = faults.map(|p| FaultSession::new(*p, site.page_seed ^ 0xFA017CE5));
        let load = led.time("browser.load_observed", || {
            loader.load_observed(
                &page,
                &mut env,
                &mut rng,
                session.as_mut(),
                Some(&mut registry),
                None,
                &mut arena,
                VisitSinks::default(),
            )
        });
        let stats = led.time("dns.take_resolver_stats", || env.take_resolver_stats());
        stats.record_into(&mut registry);
        led.time("core.characterization_add", || {
            characterization.add(&page, &load)
        });
        push(
            &mut walk.measured,
            load.dns_queries(),
            load.tls_connections(),
            load.plt(),
        );
        let [ip, origin, _] = led.time("core.predict_counts3", || {
            predict_counts3(&page, &load, DEPLOYMENT_CDN_ASN)
        });
        push(
            &mut walk.model_ip,
            ip.dns_queries,
            ip.tls_connections,
            ip.plt_ms,
        );
        push(
            &mut walk.model_origin,
            origin.dns_queries,
            origin.tls_connections,
            origin.plt_ms,
        );
        checks.record(checks::ideal_tls_recount(
            site.rank,
            &checks::opened_of(&load),
            ip.tls_connections,
            origin.tls_connections,
        ));
        let cert = universe.cert_for(&site.root_host);
        let root_reg = site.root_host.registrable_str();
        let root_asn = universe.asn_of_host(&site.root_host);
        let site_plan = led.time("core.plan_site", || {
            plan_site(&page, cert, |_, b| {
                root_reg == b.registrable_str()
                    || (root_asn != 0 && root_asn == universe.asn_of_host(b))
            })
        });
        plan.add(&site_plan);
        scratch.recycle(page);
        arena.recycle(load);
        led.exit(site_span);
    }
    led.exit(walk_span);
    black_box((characterization, plan));
    walk.registry = registry;
    walk
}

/// The walk's layer metrics: page materialization, the loader and its
/// pool, DNS, the §4 model, the cert plan and the protocol counters.
fn walk_metrics(led: &Ledger, reg: &Registry, m: &mut BTreeMap<&'static str, f64>) {
    let c = |name: &str| reg.counter(name);
    let (first, last) = led.first_last_tenth_us("browser.load_observed");
    for (name, value) in [
        ("webgen.page_us", led.mean_us("webgen.page_for_with")),
        (
            "webgen.page_allocs",
            led.mean_allocs("webgen.page_for_with"),
        ),
        ("browser.load_us", led.mean_us("browser.load_observed")),
        (
            "browser.load_allocs",
            led.mean_allocs("browser.load_observed"),
        ),
        ("browser.load_us_first_tenth", first),
        ("browser.load_us_last_tenth", last),
        ("core.predict_us", led.mean_us("core.predict_counts3")),
        ("core.certplan_us", led.mean_us("core.plan_site")),
        (
            "core.characterize_us",
            led.mean_us("core.characterization_add"),
        ),
        (
            "browser.reuse_ratio",
            ratio(
                c("browser.pool_reuse"),
                c("browser.pool_reuse") + c("browser.connections_opened"),
            ),
        ),
        (
            "dns.hit_ratio",
            ratio(c("dns.cache_hits"), c("dns.lookups")),
        ),
        (
            "h3.zero_rtt_ratio",
            ratio(c("h3.handshakes_0rtt"), c("h3.connections")),
        ),
    ] {
        m.insert(name, value);
    }
    for name in [
        "browser.requests",
        "browser.connections_opened",
        "browser.pool_reuse",
        "browser.coalesced_requests",
        "dns.lookups",
        "dns.cache_misses",
        "h1.connections_opened",
        "h1.keepalive_reuse",
        "h3.connections",
        "h3.handshakes_0rtt",
        "h3.qpack_instructions",
        "fault.retries",
        "fault.drops",
    ] {
        m.insert(name, reg.counter(name) as f64);
    }
}

/// Walk a crawl universe under spans, then run the program's own crawl
/// over it untraced: the series must match exactly. The tracing
/// overhead is the same walk timed with spans on and with spans off,
/// in alternating pairs.
fn walk_and_compare(
    t: &mut Traced,
    dataset: &Dataset,
    faults: Option<&FaultProfile>,
    untraced: impl FnOnce() -> origin_bench::CrawlResults,
) -> Walk {
    let walk = traced_walk(&mut t.ledger, dataset, faults, &mut t.checks);
    let program = t.ledger.time("crawl.untraced", untraced);
    for (label, mine, theirs) in [
        ("traced walk measured", &walk.measured, &program.measured),
        ("traced walk ideal IP", &walk.model_ip, &program.model_ip),
        (
            "traced walk ideal ORIGIN",
            &walk.model_origin,
            &program.model_origin,
        ),
    ] {
        t.checks.record(checks::series_equal(label, mine, theirs));
    }
    t.checks.record(checks::model_order(
        &walk.measured,
        &walk.model_ip,
        &walk.model_origin,
    ));
    let overhead = paired_cost_pct("trace.overhead_pct", |spans| {
        let mut led = if spans { Ledger::new() } else { Ledger::off() };
        // The first walk's checks are already recorded.
        black_box(traced_walk(
            &mut led,
            dataset,
            faults,
            &mut Checks::default(),
        ));
    });
    t.metrics.insert("trace.overhead_pct", overhead);
    t.metrics
        .insert("webgen.generate_s", t.ledger.total_s("webgen.generate"));
    walk_metrics(&t.ledger, &walk.registry, &mut t.metrics);
    t.attempted += walk.measured.plt.len() as u64;
    walk
}

fn new_traced() -> Traced {
    Traced {
        ledger: Ledger::new(),
        metrics: BTreeMap::new(),
        checks: Checks::default(),
        attempted: 0,
        failed: 0,
    }
}

fn crawl_ledger(seed: u64) -> Traced {
    let mut t = new_traced();
    let w = Workload::Crawl;
    let dataset = t.ledger.time("webgen.generate", || {
        Dataset::generate(w.dataset_config(seed))
    });
    let walk = walk_and_compare(&mut t, &dataset, None, || {
        run_crawl_observed(workloads::CRAWL_SITES, seed, 1, None, None, 0.0, 0.0, None)
    });
    let ms = export_ms(&mut t.ledger, "metrics.to_json", || walk.registry.to_json());
    t.metrics.insert("metrics.export_ms", ms);
    t
}

fn mixed_ledger(seed: u64) -> Traced {
    use workloads::{MIXED_H3_SHARE, MIXED_LEGACY_SHARE, MIXED_SITES};
    let mut t = new_traced();
    let w = Workload::Mixed;
    let faults = workloads::mixed_faults();
    let dataset = t.ledger.time("webgen.generate", || {
        Dataset::generate(w.dataset_config(seed))
    });
    let walk = walk_and_compare(&mut t, &dataset, Some(&faults), || {
        run_crawl_observed(
            MIXED_SITES,
            seed,
            1,
            None,
            Some(&faults),
            MIXED_LEGACY_SHARE,
            MIXED_H3_SHARE,
            None,
        )
    });
    let reg = &walk.registry;
    t.checks.record(checks::h3_ledger(
        reg.counter("h3.connections"),
        reg.counter("h3.handshakes_1rtt"),
        reg.counter("h3.handshakes_0rtt"),
    ));

    // Observation overhead: the program's crawl with and without the
    // streaming timeline and flight recorder, alternating.
    let crawl = |obs: Option<&ObsConfig>| {
        run_crawl_observed(
            MIXED_SITES,
            seed,
            1,
            None,
            Some(&faults),
            MIXED_LEGACY_SHARE,
            MIXED_H3_SHARE,
            obs,
        )
    };
    let obs_config = ObsConfig::default();
    let mut observed = None;
    let overhead = paired_cost_pct("obs.overhead_pct", |observe| {
        if observe {
            observed = Some(
                t.ledger
                    .time("obs.crawl_observed", || crawl(Some(&obs_config))),
            );
        } else {
            black_box(t.ledger.time("obs.crawl_unobserved", || crawl(None)));
        }
    });
    t.metrics.insert("obs.overhead_pct", overhead);
    let observed = observed.expect("PAIRS > 0");
    let timeline = observed
        .timeline
        .as_ref()
        .expect("observed crawl has a timeline");
    let ms = export_ms(&mut t.ledger, "obs.timeline_to_json", || timeline.to_json());
    t.metrics.insert("obs.export_ms", ms);
    let ms = export_ms(&mut t.ledger, "metrics.to_json", || {
        observed.metrics.to_json()
    });
    t.metrics.insert("metrics.export_ms", ms);

    // §5, stage by stage, as `repro` runs it.
    let group = t.ledger.time("cdn.sample_group_build", || {
        SampleGroup::build(
            workloads::SAMPLE_CANDIDATES,
            &mut SimRng::seed_from_u64(seed ^ 0x5000),
        )
    });
    let mut cdn = Registry::new();
    let wire_n = workloads::WIRE_SITES.min(group.sites.len());
    let consistent = t.ledger.time("cdn.wire_spot_check", || {
        ActiveMeasurement::origin_experiment().wire_spot_check_metrics(
            &group,
            wire_n,
            Some(&mut cdn),
        )
    });
    t.checks.record(checks::wire_consistent(consistent, wire_n));
    let mut active_visits = 0;
    for (m, s) in workloads::active_runs(seed) {
        let (exp, ctl) = t
            .ledger
            .time("cdn.active.run_both", || m.run_both_threads(&group, s, 1));
        for r in [&exp, &ctl] {
            active_visits += r.new_connections.total();
            cdn.merge(&r.metrics);
        }
    }
    let passive = t
        .ledger
        .time("cdn.passive.run", || workloads::passive_stage(&group, seed));
    for (label, r) in &passive {
        t.checks.record(checks::passive_order(
            label,
            r.experiment_tp_connections,
            r.control_tp_connections,
        ));
        r.record_into(&mut cdn);
    }
    t.ledger.time("cdn.longitudinal.run", || {
        black_box(LongitudinalRun::paper_window().run(&group, DeploymentMode::OriginFrames, seed))
    });
    t.ledger.time("cdn.incident.simulate", || {
        workloads::incident_stage(&group, seed)
    });
    for (name, value) in [
        ("cdn.sample_s", t.ledger.total_s("cdn.sample_group_build")),
        (
            "cdn.active_us",
            t.ledger.total_s("cdn.active.run_both") * 1e6 / active_visits.max(1) as f64,
        ),
        (
            "cdn.passive_us",
            t.ledger.total_s("cdn.passive.run") * 1e6
                / cdn.counter("cdn.passive.visits").max(1) as f64,
        ),
        (
            "cdn.wire_us",
            t.ledger.total_s("cdn.wire_spot_check") * 1e6 / wire_n.max(1) as f64,
        ),
        ("cdn.incident_s", t.ledger.total_s("cdn.incident.simulate")),
        (
            "cdn.longitudinal_s",
            t.ledger.total_s("cdn.longitudinal.run"),
        ),
    ] {
        t.metrics.insert(name, value);
    }
    for name in [
        "cdn.active.visits",
        "cdn.passive.visits",
        "h2.frames_encoded",
        "h2.frames_decoded",
    ] {
        t.metrics.insert(name, cdn.counter(name) as f64);
    }
    t
}

fn serve_ledger(seed: u64) -> Traced {
    let mut t = new_traced();
    let w = Workload::Serve;
    let dataset = t.ledger.time("webgen.generate", || {
        Dataset::generate(w.dataset_config(seed))
    });
    let plans = t
        .ledger
        .time("serve.compile_dataset", || compile_dataset(&dataset));
    let cfg = workloads::serve_config(seed, workloads::SERVE_VISITS, 1);
    let pool_off = origin_serve::ServeConfig {
        pool_budget: 0,
        ..cfg.clone()
    };
    let mut report = None;
    let pool_cost = paired_cost_pct("serve.pool_cost_pct", |pool| {
        if pool {
            report = Some(
                t.ledger
                    .time("serve.run_serve_on", || run_serve_on(&cfg, &plans)),
            );
        } else {
            black_box(t.ledger.time("serve.run_serve_on_pool_off", || {
                run_serve_on(&pool_off, &plans)
            }));
        }
    });
    let report = report.expect("PAIRS > 0");
    let reg = &report.metrics;
    t.checks.record(checks::serve_visits(
        workloads::SERVE_VISITS,
        report.visits,
        reg.counter("serve.arm_control_visits"),
        reg.counter("serve.arm_origin_visits"),
    ));
    let visits = report.visits.max(1) as f64;
    for (name, value) in [
        ("webgen.generate_s", t.ledger.total_s("webgen.generate")),
        ("serve.compile_s", t.ledger.total_s("serve.compile_dataset")),
        (
            "serve.visit_us",
            t.ledger.mean_us("serve.run_serve_on") / visits,
        ),
        (
            "serve.visit_allocs",
            t.ledger.mean_allocs("serve.run_serve_on") / visits,
        ),
        ("serve.pool_cost_pct", pool_cost),
        ("serve.sessions", report.sessions as f64),
        (
            "serve.reuse_ratio",
            ratio(
                reg.counter("serve.pool_reused"),
                reg.counter("serve.pool_reused") + reg.counter("serve.connections_opened"),
            ),
        ),
    ] {
        t.metrics.insert(name, value);
    }
    for name in [
        "serve.requests",
        "serve.connections_opened",
        "serve.pool_reused",
        "serve.coalesced_requests",
    ] {
        t.metrics.insert(name, reg.counter(name) as f64);
    }
    let ms = export_ms(&mut t.ledger, "obs.timeline_to_json", || {
        report.timeline_json()
    });
    t.metrics.insert("obs.export_ms", ms);
    let ms = export_ms(&mut t.ledger, "metrics.to_json", || {
        report.metrics.to_json()
    });
    t.metrics.insert("metrics.export_ms", ms);
    // The plan check, so a traced serve run fails the same share of
    // its operations as an untraced round does.
    let (checked, disagree) = workloads::plan_disagreements(&dataset, &plans);
    t.attempted += report.visits + checked;
    t.failed += disagree;
    t
}

pub fn ledger_of(w: Workload, seed: u64) -> Traced {
    match w {
        Workload::Crawl => crawl_ledger(seed),
        Workload::Mixed => mixed_ledger(seed),
        Workload::Serve => serve_ledger(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_count_allocations() {
        let mut led = Ledger::new();
        let outer = led.enter("outer");
        let v = led.time("inner", || vec![1u8; 64]);
        led.exit(outer);
        black_box(v);
        assert_eq!(led.len(), 2);
        assert_eq!(led.spans[1].parent, Some(0));
        assert_eq!(led.spans[0].parent, None);
        assert!(led.spans[1].allocs >= 1);
        assert!(led.spans[0].start_ns <= led.spans[1].start_ns);
        assert!(led.spans[1].end_ns <= led.spans[0].end_ns);
        let json = led.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn tenths_split_spans_in_run_order() {
        let mut led = Ledger::new();
        for (i, d) in (0..20u64).map(|i| (i, (i + 1) * 1_000)).collect::<Vec<_>>() {
            led.spans.push(Span {
                name: "x",
                start_ns: i * 100_000,
                end_ns: i * 100_000 + d,
                parent: None,
                allocs: 0,
            });
        }
        let (first, last) = led.first_last_tenth_us("x");
        assert_eq!(first, 1.5); // spans 0 and 1: 1 µs and 2 µs
        assert_eq!(last, 19.5); // spans 18 and 19
    }

    #[test]
    fn an_off_ledger_records_nothing() {
        let mut led = Ledger::off();
        let outer = led.enter("outer");
        assert_eq!(led.time("inner", || 7), 7);
        led.exit(outer);
        assert_eq!(led.len(), 0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_close_in_order() {
        let mut led = Ledger::new();
        let a = led.enter("a");
        let _b = led.enter("b");
        led.exit(a);
    }

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"better\"").count();
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Four end-to-end metrics, then exactly the per-layer ones.
        assert_eq!(listed, 4 + PER_LAYER.len());
    }
}
