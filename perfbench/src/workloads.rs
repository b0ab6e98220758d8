//! The three workloads: their inputs, one round of each through the
//! program's own entry points, and the checks on a round's outputs.
//!
//! Everything runs on one worker thread. On a 2-core machine a second
//! worker makes wall time depend on whatever else holds the other core
//! (see README.md, "Noise study").

use crate::checks::{self, Checks, FaultOutcome};
use origin_bench::{run_crawl_h3, run_crawl_observed, CrawlResults, ObsConfig, RedundancyReport};
use origin_browser::{BrowserKind, PageLoader, UniverseEnv};
use origin_cdn::{
    ActiveMeasurement, DeploymentMode, LongitudinalRun, MiddleboxIncident, PassivePipeline,
    PassiveReport, SampleGroup,
};
use origin_core::model::predict_counts3;
use origin_metrics::Registry;
use origin_netsim::{FaultProfile, SimRng};
use origin_serve::{
    engine::run_serve_on, plan::compile_dataset, ServeConfig, ServeReport, SitePlan,
};
use origin_stats::Cdf;
use origin_webgen::{Dataset, DatasetConfig};
use std::hint::black_box;
use std::time::Instant;

/// Ranks in the `crawl` universe: large enough that the pool's
/// per-visit cost growth is a visible share of the crawl.
pub const CRAWL_SITES: u32 = 10_000;
/// Ranks in the `mixed` universe: small, so §5 is a large share.
pub const MIXED_SITES: u32 = 2_000;
pub const MIXED_LEGACY_SHARE: f64 = 0.25;
pub const MIXED_H3_SHARE: f64 = 0.5;
/// Low-rate fault profile of the `mixed` workload.
pub const MIXED_FAULTS: &str = "drop=0.01,h421=0.005,middlebox=0.05";
/// §5 sample-group candidates, as `repro` draws them.
pub const SAMPLE_CANDIDATES: u32 = 5_000;
/// Sites per wire spot check, as `repro` checks them.
pub const WIRE_SITES: usize = 200;
/// The `serve` universe. Its dataset seed is fixed, so the site-plan
/// check below sees the same sites whatever `--seed` is; `--seed`
/// drives the serving engine (arrivals, sessions, rollout).
pub const SERVE_SITES: u32 = 20_000;
pub const SERVE_DATASET_SEED: u64 = 0x0516;
pub const SERVE_VISITS: u64 = 1_000_000;
/// Every this-many-th successful `serve` site gets its plan checked
/// against the §4 model.
pub const PLAN_CHECK_STRIDE: usize = 25;
/// Ranks (crawls) and visits (serve) of the 1-vs-2-thread export check.
pub const IDENTITY_SITES: u32 = 300;
pub const IDENTITY_VISITS: u64 = 20_000;

/// The injected fault events the loader counts per visit (each one
/// recovered by a replay, a reconnect or a retransmit).
const FAULT_EVENTS: [&str; 4] = [
    "fault.misdirected_421",
    "fault.middlebox_teardowns",
    "fault.drops",
    "fault.corruptions",
];

/// The seed `repro` derives the sample group from.
fn sample_rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed ^ 0x5000)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Crawl,
    Mixed,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Crawl, Workload::Mixed, Workload::Serve];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Crawl => "crawl",
            Workload::Mixed => "mixed",
            Workload::Serve => "serve",
        }
    }

    /// The dataset the workload's crawl (or serving engine) runs over.
    pub fn dataset_config(self, seed: u64) -> DatasetConfig {
        match self {
            Workload::Crawl => DatasetConfig {
                sites: CRAWL_SITES,
                seed,
                ..Default::default()
            },
            Workload::Mixed => DatasetConfig {
                sites: MIXED_SITES,
                seed,
                legacy_share: MIXED_LEGACY_SHARE,
                h3_share: MIXED_H3_SHARE,
                ..Default::default()
            },
            Workload::Serve => DatasetConfig {
                sites: SERVE_SITES,
                seed: SERVE_DATASET_SEED,
                ..Default::default()
            },
        }
    }
}

pub fn mixed_faults() -> FaultProfile {
    FaultProfile::parse(MIXED_FAULTS).expect("the mixed fault profile parses")
}

/// The `serve` engine configuration: 1M visits, default pool, an
/// ORIGIN rollout to every edge that ramps over the default first
/// simulated hour (about a tenth of the run), and a timeline with
/// bounded retention.
///
/// The full target matters for steadiness. Which edges join the
/// rollout first is a hash of the serving seed. With a partial target
/// (or a ramp that is still climbing at the end), that choice decides
/// how much of the traffic coalesces, and the cost of a visit moved by
/// over 30% between seeds.
pub fn serve_config(seed: u64, visits: u64, threads: usize) -> ServeConfig {
    ServeConfig {
        dataset: Workload::Serve.dataset_config(seed),
        seed,
        visits,
        threads,
        rollout: 1.0,
        retain_windows: Some(64),
        ..Default::default()
    }
}

/// A workload's inputs, built once per run outside the timed rounds.
pub enum Inputs {
    /// The crawl entry points generate their own dataset.
    Crawl,
    Mixed {
        group: SampleGroup,
    },
    Serve {
        dataset: Box<Dataset>,
        plans: Vec<SitePlan>,
    },
}

/// Build a workload's inputs through their public calls, returning them
/// with the wall-clock seconds it took. Where the crawl entry point
/// generates its own dataset, the same `Dataset::generate` call is made
/// and timed here on its own; that dataset is dropped after the timing.
pub fn setup(w: Workload, seed: u64) -> (Inputs, f64) {
    let t = Instant::now();
    let (inputs, unused) = match w {
        Workload::Crawl => (
            Inputs::Crawl,
            Some(Dataset::generate(w.dataset_config(seed))),
        ),
        Workload::Mixed => {
            let dataset = Dataset::generate(w.dataset_config(seed));
            let group = SampleGroup::build(SAMPLE_CANDIDATES, &mut sample_rng(seed));
            (Inputs::Mixed { group }, Some(dataset))
        }
        Workload::Serve => {
            let dataset = Box::new(Dataset::generate(w.dataset_config(seed)));
            let plans = compile_dataset(&dataset);
            (Inputs::Serve { dataset, plans }, None)
        }
    };
    let secs = t.elapsed().as_secs_f64();
    drop(black_box(unused));
    (inputs, secs)
}

/// What one `mixed` round produced, kept for its checks.
pub struct MixedOut {
    faulted: CrawlResults,
    clean: CrawlResults,
    wire_checked: usize,
    wire_consistent: usize,
    active_visits: u64,
    passive: [(&'static str, PassiveReport); 2],
    redundancy: RedundancyReport,
}

pub enum Output {
    Crawl(Box<CrawlResults>),
    Mixed(Box<MixedOut>),
    Serve(Box<ServeReport>),
}

impl Output {
    /// Page loads completed: crawl page loads of every crawl pass, §5
    /// active page loads and serve visits (passive log records are not
    /// page loads).
    pub fn visits(&self) -> u64 {
        match self {
            Output::Crawl(r) => r.characterization.pages,
            Output::Mixed(m) => {
                m.faulted.characterization.pages + m.clean.characterization.pages + m.active_visits
            }
            Output::Serve(r) => r.visits,
        }
    }
}

/// The table and figure data `repro` draws from a crawl (Tables 1–9,
/// Figures 1, 3, 4, 5, 9 top, §6.4), through the library calls its
/// table functions make. Text rendering is left out: it is private
/// to the `repro` binary and costs well under 1% of a round.
fn draw_crawl_tables(r: &CrawlResults) {
    let c = &r.characterization;
    black_box(c.table1());
    black_box(c.request_summary());
    black_box((
        c.as_requests.top(10),
        c.as_requests.top_share(10),
        c.as_requests.keys_to_reach(80.0),
        c.as_requests.distinct(),
    ));
    black_box((c.protocol_requests.top(10), c.secure_fraction()));
    black_box(c.issuers.top(10));
    black_box(c.content_types.top(12));
    for e in c.as_requests.top(3) {
        black_box(c.as_content.get(&e.key).map(|t| t.top(4)));
    }
    black_box(c.hostnames.top(10));
    black_box(c.figure1());
    for s in [&r.measured, &r.model_ip, &r.model_origin] {
        black_box((
            Cdf::from_samples(&s.dns),
            Cdf::from_samples(&s.tls),
            Cdf::from_samples(&s.plt),
            s.medians(),
        ));
    }
    black_box(Cdf::from_samples(&r.model_cdn_plt));
    let p = &r.plan;
    black_box((p.figure4(), p.figure5(), p.sites_above(250), p.table8(10)));
    black_box((p.unchanged_fraction(), p.within_changes(10)));
    black_box(r.effective.table9(5));
    black_box(r.metrics.to_json());
}

/// The §3/§4 pipeline over a pure-h2 universe, no §5.
fn crawl_round(seed: u64) -> CrawlResults {
    let r = run_crawl_observed(CRAWL_SITES, seed, 1, None, None, 0.0, 0.0, None);
    draw_crawl_tables(&r);
    r
}

/// `repro`'s active measurements with their seeds, in its stage order:
/// Figures 7a, 7b and 9 (bottom), then the §6.2 privacy arms before
/// and after ORIGIN.
pub fn active_runs(seed: u64) -> [(ActiveMeasurement, u64); 5] {
    let privacy = |mode, browser| (ActiveMeasurement { mode, browser }, seed ^ 0x9417AC);
    [
        (ActiveMeasurement::ip_experiment(), seed),
        (ActiveMeasurement::origin_experiment(), seed),
        (ActiveMeasurement::origin_experiment(), seed ^ 0xF9),
        privacy(DeploymentMode::Baseline, BrowserKind::Firefox),
        privacy(DeploymentMode::OriginFrames, BrowserKind::FirefoxOrigin),
    ]
}

/// Both arms of one active measurement and the figure data drawn from
/// them; returns the page loads it made.
fn active(
    (m, seed): (ActiveMeasurement, u64),
    group: &SampleGroup,
    registry: &mut Registry,
) -> u64 {
    let (exp, ctl) = m.run_both_threads(group, seed, 1);
    black_box((exp.cdf(), ctl.cdf(), exp.median_plt(), ctl.median_plt()));
    let mut visits = 0;
    for r in [&exp, &ctl] {
        visits += r.new_connections.total();
        registry.merge(&r.metrics);
    }
    visits
}

/// The §5.2 (IP alignment) and §5.3 (ORIGIN frames) passive pipelines,
/// one edge worker each.
pub fn passive_stage(group: &SampleGroup, seed: u64) -> [(&'static str, PassiveReport); 2] {
    [
        ("passive-ip", DeploymentMode::IpAligned),
        ("passive-origin", DeploymentMode::OriginFrames),
    ]
    .map(|(label, mode)| {
        let mut p = PassivePipeline::new(mode);
        p.config.workers = 1;
        (label, p.run(group, seed))
    })
}

/// The §6.7 middlebox incident, before and after the vendor fix.
pub fn incident_stage(group: &SampleGroup, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x1BC1);
    let incident = MiddleboxIncident::default();
    black_box(incident.simulate(group, 50_000, true, &mut rng));
    let fixed = MiddleboxIncident {
        vendor_fixed: true,
        ..incident
    };
    black_box(fixed.simulate(group, 50_000, true, &mut rng));
}

/// The full reproduction, in `repro`'s stage order: observed faulted
/// crawl over the mixed universe and its tables, the §5 wire, active,
/// passive, longitudinal, incident and privacy stages, the clean
/// re-crawl for the resilience report, and the redundancy report and
/// timeline exports.
fn mixed_round(seed: u64, group: &SampleGroup) -> MixedOut {
    let faults = mixed_faults();
    let faulted = run_crawl_observed(
        MIXED_SITES,
        seed,
        1,
        None,
        Some(&faults),
        MIXED_LEGACY_SHARE,
        MIXED_H3_SHARE,
        Some(&ObsConfig::default()),
    );
    draw_crawl_tables(&faulted);
    let mut registry = faulted.metrics.clone();

    let wire_checked = WIRE_SITES.min(group.sites.len());
    let wire_consistent = ActiveMeasurement::origin_experiment().wire_spot_check_metrics(
        group,
        wire_checked,
        Some(&mut registry),
    );
    black_box(group.equal_byte_check());
    let [fig7a, fig7b, fig9, privacy_before, privacy_after] = active_runs(seed);
    let mut active_visits = active(fig7a, group, &mut registry);
    active_visits += active(fig7b, group, &mut registry);
    let passive = passive_stage(group, seed);
    for (_, r) in &passive {
        r.record_into(&mut registry);
    }
    let longitudinal = LongitudinalRun::paper_window();
    black_box(longitudinal.run(group, DeploymentMode::OriginFrames, seed)); // Figure 8
    active_visits += active(fig9, group, &mut registry);
    incident_stage(group, seed);
    active_visits += active(privacy_before, group, &mut registry);
    active_visits += active(privacy_after, group, &mut registry);
    for k in [2usize, 4, 6, 10] {
        black_box(origin_core::scheduling::compare(60, 14, k, seed ^ k as u64));
    }

    let clean = run_crawl_h3(
        MIXED_SITES,
        seed,
        1,
        None,
        None,
        MIXED_LEGACY_SHARE,
        MIXED_H3_SHARE,
    );
    black_box(origin_bench::ResilienceReport::build(&clean, &faulted, &faults).to_json());
    let redundancy = RedundancyReport::build(&faulted, MIXED_LEGACY_SHARE);
    black_box(redundancy.to_json());
    if let Some(tl) = &faulted.timeline {
        black_box(tl.to_json());
    }
    black_box(registry.to_json());
    MixedOut {
        faulted,
        clean,
        wire_checked,
        wire_consistent,
        active_visits,
        passive,
        redundancy,
    }
}

/// `repro serve`'s run: the engine over pre-compiled plans, then its
/// summary, per-arm timeline and metrics exports.
fn serve_round(seed: u64, plans: &[SitePlan]) -> ServeReport {
    let report = run_serve_on(&serve_config(seed, SERVE_VISITS, 1), plans);
    black_box((
        report.summary(),
        report.timeline_json(),
        report.metrics.to_json(),
    ));
    report
}

/// One round of a workload: the timed part of a run.
pub fn round(w: Workload, inputs: &Inputs, seed: u64) -> Output {
    match (w, inputs) {
        (Workload::Crawl, Inputs::Crawl) => Output::Crawl(Box::new(crawl_round(seed))),
        (Workload::Mixed, Inputs::Mixed { group }) => {
            Output::Mixed(Box::new(mixed_round(seed, group)))
        }
        (Workload::Serve, Inputs::Serve { plans, .. }) => {
            Output::Serve(Box::new(serve_round(seed, plans)))
        }
        _ => unreachable!("inputs are built by setup() for the same workload"),
    }
}

/// The checks on one round's outputs (untimed).
pub fn check_round(out: &Output) -> Checks {
    let mut c = Checks::default();
    match out {
        Output::Crawl(r) => c.record(checks::model_order(
            &r.measured,
            &r.model_ip,
            &r.model_origin,
        )),
        Output::Mixed(m) => {
            let f = &m.faulted;
            c.record(checks::model_order(
                &f.measured,
                &f.model_ip,
                &f.model_origin,
            ));
            c.record(checks::h3_ledger(
                f.metrics.counter("h3.connections"),
                f.metrics.counter("h3.handshakes_1rtt"),
                f.metrics.counter("h3.handshakes_0rtt"),
            ));
            let redundant = |name: &str| {
                m.redundancy
                    .redundant
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map_or(0, |&(_, v)| v)
            };
            c.record(checks::redundancy_order(
                redundant("chromium"),
                redundant("ideal_ip"),
                redundant("ideal_origin"),
                m.redundancy.h1_connections,
            ));
            c.record(checks::faults_recovered(&FaultOutcome {
                clean_pages: m.clean.characterization.pages,
                faulted_pages: f.characterization.pages,
                clean_requests: m.clean.metrics.counter("browser.requests"),
                faulted_requests: f.metrics.counter("browser.requests"),
                fault_events: FAULT_EVENTS.iter().map(|n| f.metrics.counter(n)).sum(),
                recovery_rate: f
                    .timeline
                    .as_ref()
                    .map_or(0.0, |t| t.totals().fault_recovery_rate()),
            }));
            c.record(checks::wire_consistent(m.wire_consistent, m.wire_checked));
            for (label, p) in &m.passive {
                c.record(checks::passive_order(
                    label,
                    p.experiment_tp_connections,
                    p.control_tp_connections,
                ));
            }
        }
        Output::Serve(r) => c.record(checks::serve_visits(
            SERVE_VISITS,
            r.visits,
            r.metrics.counter("serve.arm_control_visits"),
            r.metrics.counter("serve.arm_origin_visits"),
        )),
    }
    c
}

/// The serve site plans checked against the §4 model, and how many of
/// them disagree with it. The plan compiler computes its ideal counts
/// with its own coalescing keys, not the §4 model, and disagrees on
/// most sites; each disagreeing plan is a failed operation.
pub fn plan_disagreements(dataset: &Dataset, plans: &[SitePlan]) -> (u64, u64) {
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(dataset);
    let (mut checked, mut disagree) = (0, 0);
    for (site, plan) in dataset
        .successful_sites()
        .zip(plans)
        .step_by(PLAN_CHECK_STRIDE)
    {
        assert_eq!(site.rank, plan.rank, "plans are compiled in site order");
        let page = dataset.page_for(site);
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let load = loader.load(&page, &mut env, &mut rng);
        let [ip, origin, _] = predict_counts3(&page, &load, origin_bench::DEPLOYMENT_CDN_ASN);
        checked += 1;
        if !checks::plan_agrees(
            plan.model_ip_tls,
            plan.model_origin_tls,
            ip.tls_connections,
            origin.tls_connections,
        ) {
            disagree += 1;
        }
    }
    (checked, disagree)
}

fn crawl_exports(r: &CrawlResults) -> String {
    let series = |s: &origin_bench::SeriesSamples| format!("{:?}{:?}{:?}", s.dns, s.tls, s.plt);
    let mut out = r.metrics.to_json();
    out.push_str(&series(&r.measured));
    out.push_str(&series(&r.model_ip));
    out.push_str(&series(&r.model_origin));
    if let Some(t) = &r.timeline {
        out.push_str(&t.to_json());
    }
    out
}

/// The workload's deterministic exports at one thread count, on a
/// reduced size.
fn exports(w: Workload, seed: u64, threads: usize, inputs: &Inputs) -> String {
    match (w, inputs) {
        (Workload::Crawl, _) => crawl_exports(&run_crawl_observed(
            IDENTITY_SITES,
            seed,
            threads,
            None,
            None,
            0.0,
            0.0,
            None,
        )),
        (Workload::Mixed, Inputs::Mixed { group }) => {
            let r = run_crawl_observed(
                IDENTITY_SITES,
                seed,
                threads,
                None,
                Some(&mixed_faults()),
                MIXED_LEGACY_SHARE,
                MIXED_H3_SHARE,
                Some(&ObsConfig::default()),
            );
            let mut out = crawl_exports(&r);
            out.push_str(&RedundancyReport::build(&r, MIXED_LEGACY_SHARE).to_json());
            let (exp, ctl) =
                ActiveMeasurement::origin_experiment().run_both_threads(group, seed, threads);
            for a in [&exp, &ctl] {
                out.push_str(&format!("{:?}", a.plt_ms));
                out.push_str(&a.metrics.to_json());
            }
            out
        }
        (Workload::Serve, Inputs::Serve { plans, .. }) => {
            let r = run_serve_on(&serve_config(seed, IDENTITY_VISITS, threads), plans);
            r.summary() + &r.timeline_json() + &r.metrics.to_json()
        }
        _ => unreachable!("inputs are built by setup() for the same workload"),
    }
}

/// On a reduced size, the deterministic exports at 1 and 2 worker
/// threads must be byte-identical.
pub fn thread_identity(w: Workload, seed: u64, inputs: &Inputs) -> Result<(), String> {
    checks::identical(
        &format!("{} exports at 1 vs 2 threads", w.name()),
        &exports(w, seed, 1, inputs),
        &exports(w, seed, 2, inputs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checks accept the program's real outputs and reject them
    /// once perturbed.
    #[test]
    fn checks_hold_on_real_crawls_and_catch_perturbations() {
        let r = run_crawl_observed(150, 7, 1, None, None, 0.0, 0.0, None);
        assert!(checks::model_order(&r.measured, &r.model_ip, &r.model_origin).is_ok());
        assert!(checks::model_order(&r.measured, &r.model_origin, &r.model_ip).is_err());
        assert!(checks::model_order(&r.model_ip, &r.measured, &r.model_origin).is_err());

        let h3 = run_crawl_observed(150, 7, 1, None, None, 0.0, MIXED_H3_SHARE, None);
        let c = |n: &str| h3.metrics.counter(n);
        let (conns, one, zero) = (
            c("h3.connections"),
            c("h3.handshakes_1rtt"),
            c("h3.handshakes_0rtt"),
        );
        assert!(checks::h3_ledger(conns, one, zero).is_ok());
        assert!(checks::h3_ledger(conns, one + 1, zero).is_err());
        assert!(checks::h3_ledger(conns + 1, one, zero).is_err());
    }

    #[test]
    fn ideal_tls_recount_matches_the_model_on_real_loads() {
        let dataset = Dataset::generate(Workload::Mixed.dataset_config(11));
        let loader = PageLoader::new(BrowserKind::Chromium);
        let mut env = UniverseEnv::new(&dataset);
        for site in dataset.successful_sites().take(60) {
            let page = dataset.page_for(site);
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let load = loader.load(&page, &mut env, &mut rng);
            let [ip, origin, _] = predict_counts3(&page, &load, origin_bench::DEPLOYMENT_CDN_ASN);
            let opened = checks::opened_of(&load);
            let (ip_tls, origin_tls) = (ip.tls_connections, origin.tls_connections);
            assert!(checks::ideal_tls_recount(site.rank, &opened, ip_tls, origin_tls).is_ok());
            if ip_tls != origin_tls {
                assert!(checks::ideal_tls_recount(site.rank, &opened, origin_tls, ip_tls).is_err());
            }
            assert!(checks::ideal_tls_recount(site.rank, &opened, ip_tls + 1, origin_tls).is_err());
        }
    }

    #[test]
    fn serve_exports_are_thread_invariant() {
        let (inputs, _) = setup(Workload::Serve, 3);
        assert!(thread_identity(Workload::Serve, 3, &inputs).is_ok());
    }
}
