//! The page loader: turns a [`Page`] into a [`PageLoad`] under a
//! coalescing policy and an environment.
//!
//! The loader reproduces the connection-level behaviour the paper
//! measures: per-hostname DNS queries, TCP+TLS establishment,
//! connection reuse/coalescing per policy, happy-eyeballs duplicate
//! connections and speculative DNS races (§4.2's explanation for
//! DNS≠TLS counts), warm-connection transfer speedups, and the
//! resource-tree dispatch order that shapes PLT.

use crate::env::WebEnv;
use crate::policy::BrowserKind;
use crate::pool::{ConnectionPool, PoolPartition, PooledConnection, ReuseDecision};
use origin_h1::{
    Connection as H1Connection, Event as H1Event, Request as H1Request, Response as H1Response,
    Role as H1Role,
};
use origin_h3::{H3Conn, H3Counts, H3RequestStats, H3Session};
use origin_netsim::fault::{FaultInjector, NonCompliantMiddlebox, PacketFate};
use origin_netsim::link::INIT_CWND;
use origin_netsim::{
    FaultProfile, HandshakeModel, Middlebox, MiddleboxVerdict, SimDuration, SimRng, SimTime,
    TlsVersion,
};
use origin_web::har::{PageLoad, Phase, RequestTiming};
use origin_web::{Page, Protocol};
use std::net::{IpAddr, Ipv4Addr};

/// RFC 8336 ORIGIN frame type code — what the §6.7 middlebox keys on.
const ORIGIN_FRAME_TYPE: u8 = 0x0c;

/// First retransmit backoff (ms); doubles per attempt (200, 400, 800),
/// approximating the minimum TCP retransmission timeout of deployed
/// stacks rather than RFC 6298's 1 s initial RTO.
const RETRY_BASE_MS: f64 = 200.0;

/// Transfer retry bound. After this many consecutive drop/corrupt
/// verdicts the transfer is force-delivered — the model charges the
/// backoffs but never livelocks, so a crawl terminates even under
/// `drop=1`.
const MAX_TRANSFER_RETRIES: u32 = 3;

/// Per-visit fault-injection state: the profile, its packet injector,
/// the §6.7 middlebox, and a dedicated RNG.
///
/// Every fault decision — and the cost of every repair a fault
/// triggers — draws from this RNG and never from the simulation RNG.
/// That separation is what the determinism guarantees hang off:
///
/// - a faulted load preserves the clean load's random stream, so the
///   page skeleton, handshake costs and server think times are those
///   of the clean run, perturbed only by the injected faults;
/// - the all-zero profile draws nothing (`SimRng::chance(0.0)` does
///   not consume a draw) and is byte-identical to a clean load;
/// - seeding from the site's page seed makes a faulted crawl
///   reproducible at any thread count.
pub struct FaultSession {
    profile: FaultProfile,
    injector: FaultInjector,
    middlebox: NonCompliantMiddlebox,
    rng: SimRng,
    /// Counters accumulated over the loads this session observed.
    pub counts: FaultCounts,
}

impl FaultSession {
    /// Session for one page visit. `seed` should derive from the
    /// site's own seed so shards agree on it.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultSession {
            profile,
            injector: profile.injector(),
            middlebox: NonCompliantMiddlebox::default(),
            rng: SimRng::seed_from_u64(seed),
            counts: FaultCounts::default(),
        }
    }

    /// The profile this session injects.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }
}

/// What fault injection did to a load, and what recovery cost:
/// every counter lands in the `fault.*` metrics namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Coalesced requests answered `421 Misdirected Request`.
    pub misdirected_421: u64,
    /// (host → connection) mappings evicted from the pool after a 421.
    pub pool_evictions: u64,
    /// Connections torn down by the §6.7 middlebox on the ORIGIN frame.
    pub middlebox_teardowns: u64,
    /// Reconnects that suppressed ORIGIN advertisement after a teardown.
    pub origin_suppressed: u64,
    /// Transfers that lost a packet.
    pub drops: u64,
    /// Transfers corrupted in flight.
    pub corruptions: u64,
    /// Total recovery attempts (421 replays + reconnects + retransmits).
    pub retries: u64,
    /// Retransmit backoff periods served.
    pub backoff_events: u64,
    /// Total simulated time (µs) spent in retransmit backoff.
    pub backoff_us: u64,
}

impl FaultCounts {
    /// Field-wise `self - earlier`; `earlier` must be a prior snapshot.
    pub fn since(&self, earlier: &FaultCounts) -> FaultCounts {
        FaultCounts {
            misdirected_421: self.misdirected_421 - earlier.misdirected_421,
            pool_evictions: self.pool_evictions - earlier.pool_evictions,
            middlebox_teardowns: self.middlebox_teardowns - earlier.middlebox_teardowns,
            origin_suppressed: self.origin_suppressed - earlier.origin_suppressed,
            drops: self.drops - earlier.drops,
            corruptions: self.corruptions - earlier.corruptions,
            retries: self.retries - earlier.retries,
            backoff_events: self.backoff_events - earlier.backoff_events,
            backoff_us: self.backoff_us - earlier.backoff_us,
        }
    }
}

/// The five policies evaluated by the redundant-connection probe and
/// the `h1.redundant.*` counter each one feeds, in the fixed slot
/// order shared by the per-visit stats array. Every legacy HTTP/1.1
/// connection that opens is tested against *all five* — the question
/// "would h2 have merged this?" is policy-relative (Sander et al.),
/// and answering it for every policy in one crawl is what lets the
/// redundancy report compare them on identical traffic.
pub const REDUNDANCY_KINDS: [(BrowserKind, &str); 5] = [
    (BrowserKind::Chromium, "h1.redundant.chromium"),
    (BrowserKind::Firefox, "h1.redundant.firefox"),
    (BrowserKind::FirefoxOrigin, "h1.redundant.firefox_origin"),
    (BrowserKind::IdealIp, "h1.redundant.ideal_ip"),
    (BrowserKind::IdealOrigin, "h1.redundant.ideal_origin"),
];

/// Per-visit HTTP/3 accounting. Only h3 pages touch it, so on a
/// pure-h2 visit every field is zero and nothing reaches the metrics
/// registry (see [`record_h3_metrics`]).
#[derive(Debug, Default, Clone, Copy)]
struct H3Stats {
    /// Pages whose origins deploy h3.
    pages: u64,
    /// Requests that rode QUIC connections.
    requests: u64,
    /// QPACK encoder-stream instructions across the visit's
    /// connections.
    qpack_instructions: u64,
    /// QPACK dynamic-table evictions (encoder side).
    qpack_evictions: u64,
    /// Connection IDs issued (including each handshake's sequence 0).
    cids_issued: u64,
    /// Connection IDs retired by rotation.
    cids_retired: u64,
    /// The session's handshake/resumption/Alt-Svc counters.
    counts: H3Counts,
}

/// Per-visit HTTP/1.1 accounting. Only legacy pages touch it, so on a
/// pure-h2 visit every field is zero and nothing reaches the metrics
/// registry (see [`record_h1_metrics`]).
#[derive(Debug, Default, Clone, Copy)]
struct H1Stats {
    requests: u64,
    connections_opened: u64,
    keepalive_reuse: u64,
    close_delimited: u64,
    pages: u64,
    /// Redundant-connection counts, slot-for-slot with
    /// [`REDUNDANCY_KINDS`].
    redundant: [u64; 5],
}

/// Per-visit working memory, recycled across page loads.
///
/// A cold load allocates a connection pool (five bucket indexes), the
/// timing vector and three per-resource buffers on every visit; a
/// crawl does that millions of times. A `VisitArena` owned by each
/// crawl worker keeps those allocations warm: every buffer is
/// `clear()`ed — capacity retained — at the start of the next load,
/// and [`VisitArena::recycle`] returns a consumed [`PageLoad`]'s
/// request storage to the arena.
///
/// Determinism: the arena carries *capacity* only (plus the pool's
/// host interner, whose ids never reach output). Every value written
/// during a load is a pure function of the page, the environment and
/// the RNG, so loads through a warm arena are byte-identical to loads
/// through a fresh one (asserted by `arena_reuse_is_output_invisible`
/// and, over 2,000 visits, its long-run sibling).
///
/// Cost: clearing for the next load must cost O(what the last load
/// used), not O(everything the arena has seen). Stale state that is
/// invisible to output can still be paid for on every visit — the
/// pool once emptied a bucket per key it had ever indexed, which made
/// a worker's visits slower the longer it ran. DESIGN.md §12 lists
/// what the arena keeps across visits and the bound of each.
#[derive(Default)]
pub struct VisitArena {
    pool: ConnectionPool,
    ready: Vec<f64>,
    child_seq: Vec<u32>,
    conn_open_us: Vec<u64>,
    timings: Vec<RequestTiming>,
    /// One slot per pooled connection: the HTTP/1.1 state machine
    /// driving it, for connections a legacy page opened over h1.
    /// `None` for h2 connections (and everything on a pure-h2 page).
    h1_sessions: Vec<Option<H1Connection>>,
    /// One slot per pooled connection: the QPACK/connection-ID
    /// machinery of a QUIC connection. `None` for TCP connections
    /// (and everything outside an h3 universe).
    h3_conns: Vec<Option<H3Conn>>,
    /// The visit's h3 memory: Alt-Svc scopes, session tickets,
    /// validated addresses. Reset per visit (fresh browser session);
    /// never touched on non-h3 pages.
    h3_session: H3Session,
}

impl VisitArena {
    /// Empty arena (first load allocates, later loads recycle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a finished load's request storage to the arena so the
    /// next load reuses its capacity.
    pub fn recycle(&mut self, load: PageLoad) {
        if load.requests.capacity() > self.timings.capacity() {
            let mut v = load.requests;
            v.clear();
            self.timings = v;
        }
    }
}

/// Loader configuration.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// The coalescing policy.
    pub kind: BrowserKind,
    /// Probability a host's first connection races a duplicate
    /// (happy-eyeballs v2, §4.2). Duplicates cost an extra TLS
    /// handshake but carry no requests.
    pub happy_eyeballs_dup_rate: f64,
    /// Probability of an extra speculative DNS query per host.
    pub speculative_dns_rate: f64,
    /// Max parallel HTTP/1.1 connections per host.
    pub max_h1_per_host: u32,
    /// Per-resource parse/dispatch delay (ms) modelling the browser's
    /// dependency-graph computation, which the §4.1 reconstruction
    /// deliberately leaves unmodified.
    pub dispatch_delay_ms: f64,
    /// §6.8's recommendation: skip the (render-blocking) DNS query
    /// for names the connection's ORIGIN set already covers. Stock
    /// Firefox keeps querying ("conservative"); setting this models
    /// the paper's proposed client change.
    pub trust_origin_without_dns: bool,
}

impl BrowserConfig {
    /// Defaults for a given policy (races only for real browsers).
    pub fn new(kind: BrowserKind) -> Self {
        let races = kind.models_races();
        BrowserConfig {
            kind,
            happy_eyeballs_dup_rate: if races { 0.10 } else { 0.0 },
            speculative_dns_rate: if races { 0.06 } else { 0.0 },
            max_h1_per_host: 6,
            dispatch_delay_ms: 2.0,
            trust_origin_without_dns: false,
        }
    }
}

/// The loader.
pub struct PageLoader {
    /// Configuration.
    pub config: BrowserConfig,
}

impl PageLoader {
    /// Loader with default config for `kind`.
    pub fn new(kind: BrowserKind) -> Self {
        PageLoader {
            config: BrowserConfig::new(kind),
        }
    }

    /// Simulate one page load. The environment's DNS cache should be
    /// flushed beforehand to match the paper's fresh-session method.
    pub fn load(&self, page: &Page, env: &mut dyn WebEnv, rng: &mut SimRng) -> PageLoad {
        self.load_instrumented(page, env, rng, None)
    }

    /// Like [`PageLoader::load`] but also folds the load's work
    /// counters and simulated phase times into `metrics`.
    ///
    /// Everything recorded is derived from the returned [`PageLoad`]
    /// alone, per page, so the registry contents are independent of
    /// how pages are sharded across crawl workers. Per-request
    /// floating-point phase values are rounded to integer microseconds
    /// *before* accumulation — summing f64s across differently-chunked
    /// shards would not be associative.
    pub fn load_instrumented(
        &self,
        page: &Page,
        env: &mut dyn WebEnv,
        rng: &mut SimRng,
        metrics: Option<&mut origin_metrics::Registry>,
    ) -> PageLoad {
        self.load_faulted(page, env, rng, None, metrics, None)
    }

    /// [`PageLoader::load_instrumented`] plus span tracing: DNS
    /// queries, TCP/TLS establishment with SAN validation, per-request
    /// phase spans on the serving connection's track, coalescing
    /// decisions annotated with the policy rule that allowed them, and
    /// flow events linking each coalesced request back to the opening
    /// of the connection it reused.
    ///
    /// The caller owns the visit context: call
    /// [`origin_trace::Tracer::begin_visit`] with the site's rank
    /// before loading. Tracing reads the same state the simulation
    /// computes and never draws from `rng`, so a traced load returns
    /// a [`PageLoad`] identical to an untraced one.
    pub fn load_traced(
        &self,
        page: &Page,
        env: &mut dyn WebEnv,
        rng: &mut SimRng,
        metrics: Option<&mut origin_metrics::Registry>,
        tracer: &mut origin_trace::Tracer,
    ) -> PageLoad {
        self.load_faulted(page, env, rng, None, metrics, Some(tracer))
    }

    /// The full-featured entry point: [`PageLoader::load_traced`] plus
    /// deterministic fault injection. With `faults` set, the load
    /// suffers the session's profile and performs the client-side
    /// recovery the paper implies — 421 → evict + replay on a
    /// dedicated connection, middlebox teardown → reconnect with
    /// ORIGIN suppressed, packet drop → bounded exponential-backoff
    /// retransmit — and the per-visit `fault.*` counter deltas are
    /// folded into `metrics`. Zero-valued fault counters are never
    /// materialized, so an all-zero profile leaves the registry
    /// byte-identical to a clean run's.
    pub fn load_faulted(
        &self,
        page: &Page,
        env: &mut dyn WebEnv,
        rng: &mut SimRng,
        faults: Option<&mut FaultSession>,
        metrics: Option<&mut origin_metrics::Registry>,
        tracer: Option<&mut origin_trace::Tracer>,
    ) -> PageLoad {
        self.load_faulted_with(
            page,
            env,
            rng,
            faults,
            metrics,
            tracer,
            &mut VisitArena::new(),
        )
    }

    /// [`PageLoader::load_faulted`] drawing working memory from a
    /// caller-owned [`VisitArena`] instead of allocating per visit.
    /// The returned load is byte-identical either way; crawl workers
    /// hold one arena each and recycle loads back into it.
    #[allow(clippy::too_many_arguments)] // the full-featured entry point plus its arena
    pub fn load_faulted_with(
        &self,
        page: &Page,
        env: &mut dyn WebEnv,
        rng: &mut SimRng,
        faults: Option<&mut FaultSession>,
        metrics: Option<&mut origin_metrics::Registry>,
        tracer: Option<&mut origin_trace::Tracer>,
        arena: &mut VisitArena,
    ) -> PageLoad {
        self.load_observed(
            page,
            env,
            rng,
            faults,
            metrics,
            tracer,
            arena,
            origin_obs::VisitSinks::default(),
        )
    }

    /// [`PageLoader::load_faulted_with`] plus streaming observability:
    /// with `sinks.flight` set, the load's notable events — connection
    /// opens, injected faults and their recoveries, h1 close-delimited
    /// teardowns, NXDOMAIN lookups — are appended to the caller's
    /// bounded [`origin_obs::FlightRecorder`] as they happen; with
    /// `sinks.visit` set, the completed load's per-visit observation
    /// (request/connection/fault/h1 counters, PLT, handshake and byte
    /// events with trace-span exemplar references) is derived into the
    /// caller's [`origin_obs::VisitObs`].
    ///
    /// The caller owns the visit context: call
    /// [`origin_obs::FlightRecorder::begin_visit`] with the site's
    /// rank before loading, and [`origin_obs::VisitObs::clear`] the
    /// observation between visits. Observation reads the same state
    /// the simulation computes and never draws from `rng`, so an
    /// observed load returns a [`PageLoad`] identical to an
    /// unobserved one.
    #[allow(clippy::too_many_arguments)]
    pub fn load_observed(
        &self,
        page: &Page,
        env: &mut dyn WebEnv,
        rng: &mut SimRng,
        mut faults: Option<&mut FaultSession>,
        metrics: Option<&mut origin_metrics::Registry>,
        tracer: Option<&mut origin_trace::Tracer>,
        arena: &mut VisitArena,
        sinks: origin_obs::VisitSinks<'_>,
    ) -> PageLoad {
        let before = faults.as_deref().map(|f| f.counts).unwrap_or_default();
        let mut h1 = H1Stats::default();
        let mut h3 = H3Stats::default();
        let load = self.load_inner(
            page,
            env,
            rng,
            tracer,
            faults.as_deref_mut(),
            arena,
            &mut h1,
            &mut h3,
            sinks.flight,
        );
        let delta = faults.as_deref().map(|f| f.counts.since(&before));
        if let Some(v) = sinks.visit {
            observe_visit(v, page, &load, &h1, delta.as_ref());
        }
        if let Some(metrics) = metrics {
            record_page_metrics(&load, metrics);
            record_h1_metrics(&h1, metrics);
            record_h3_metrics(&h3, metrics);
            if let Some(delta) = &delta {
                record_fault_metrics(delta, metrics);
            }
        }
        load
    }

    #[allow(clippy::too_many_arguments)]
    fn load_inner(
        &self,
        page: &Page,
        env: &mut dyn WebEnv,
        rng: &mut SimRng,
        mut tracer: Option<&mut origin_trace::Tracer>,
        mut faults: Option<&mut FaultSession>,
        arena: &mut VisitArena,
        h1: &mut H1Stats,
        h3: &mut H3Stats,
        mut flight: Option<&mut origin_obs::FlightRecorder>,
    ) -> PageLoad {
        let n = page.resources.len();
        h1.pages += u64::from(page.legacy);
        h3.pages += u64::from(page.h3);
        arena.pool.clear();
        arena.h1_sessions.clear();
        arena.h3_conns.clear();
        arena.h3_session.recycle();
        let mut timings = std::mem::take(&mut arena.timings);
        timings.clear();
        timings.reserve(n);
        // start_available[i]: earliest time resource i can dispatch.
        arena.ready.clear();
        arena.ready.resize(n, 0.0f64);
        // Count children seen per parent for stagger offsets.
        arena.child_seq.clear();
        arena.child_seq.resize(n, 0u32);
        // The browser main thread parses/executes resources serially;
        // this is the CPU floor under PLT that coalescing cannot
        // remove (and the reason §6.1 warns against assuming "faster").
        let mut main_thread_free = 0.0f64;
        // Simulated time (µs) each pooled connection started opening —
        // the anchor for coalescing flow arrows.
        arena.conn_open_us.clear();

        for (idx, res) in page.resources.iter().enumerate() {
            let parent = if idx == 0 {
                None
            } else {
                Some(res.discovered_by.unwrap_or(0))
            };
            let start = if let Some(p) = parent {
                // A child dispatches after its discovering resource
                // finishes plus the CPU time to parse/execute the
                // parent — the dependency-graph computation the §4.1
                // reconstruction leaves untouched. Scripts and style
                // sheets cost more than images.
                let seq = arena.child_seq[p];
                arena.child_seq[p] += 1;
                let parent_cpu = if page.resources[p].content_type.is_render_blocking() {
                    rng.log_normal(40.0, 0.8)
                } else {
                    rng.log_normal(8.0, 0.5)
                };
                let dep_ready = arena.ready[p]
                    + parent_cpu
                    + self.config.dispatch_delay_ms * (1.0 + seq as f64 * 6.0);
                // The main thread must also have worked through the
                // handling slices of every earlier resource.
                dep_ready.max(main_thread_free)
            } else {
                0.0
            };

            // Main-thread slice consumed handling this resource (a
            // queue of CPU work, not a ratchet on start times).
            main_thread_free += rng.log_normal(9.0, 0.5);
            let timing = self.run_request(
                page,
                idx,
                start,
                &mut arena.pool,
                env,
                rng,
                tracer.as_deref_mut(),
                faults.as_deref_mut(),
                &mut arena.conn_open_us,
                &mut arena.h1_sessions,
                h1,
                &mut arena.h3_session,
                &mut arena.h3_conns,
                h3,
                flight.as_deref_mut(),
            );
            arena.ready[idx] = timing.end();
            timings.push(timing);
        }

        if page.h3 {
            // Fold the visit's session counters and per-connection
            // QPACK/CID totals into the stats the registry sees.
            h3.counts = arena.h3_session.counts;
            for conn in arena.h3_conns.iter().flatten() {
                h3.qpack_instructions += conn.qpack_instructions();
                h3.qpack_evictions += conn.qpack_evictions();
                h3.cids_issued += conn.cids_issued();
                h3.cids_retired += conn.cids_retired();
            }
        }

        PageLoad {
            rank: page.rank,
            root_host: page.root_host.clone(),
            requests: timings,
        }
    }

    #[allow(clippy::too_many_arguments)] // one request, its world, and an observer
    fn run_request(
        &self,
        page: &Page,
        idx: usize,
        start: f64,
        pool: &mut ConnectionPool,
        env: &mut dyn WebEnv,
        rng: &mut SimRng,
        mut tracer: Option<&mut origin_trace::Tracer>,
        mut faults: Option<&mut FaultSession>,
        conn_open_us: &mut Vec<u64>,
        h1_sessions: &mut Vec<Option<H1Connection>>,
        h1: &mut H1Stats,
        h3_session: &mut H3Session,
        h3_conns: &mut Vec<Option<H3Conn>>,
        h3: &mut H3Stats,
        mut flight: Option<&mut origin_obs::FlightRecorder>,
    ) -> RequestTiming {
        let res = &page.resources[idx];
        // h3 participation gate: only secure h2 resources on a page
        // whose origins deploy h3 can upgrade to QUIC. Never true
        // outside an h3 universe, so the pure-h2 paths below are
        // untouched at `h3_share = 0`.
        let h3_eligible = page.h3 && res.secure && res.protocol == Protocol::H2;
        // A legacy page's HTTP/1.1 requests drive the sans-IO state
        // machine; the gate is the page's legacy flag — never the
        // protocol alone — so the default universe's sampled-H11
        // traffic keeps its exact pre-mixed-universe behaviour.
        let legacy_h1 = page.legacy && res.protocol == Protocol::H11;
        let host = res.host.clone();
        let (asn, link) = env.request_facts(&host);
        let placeholder_ip = IpAddr::V4(Ipv4Addr::UNSPECIFIED);

        // Failed/aborted requests (Table 3's N/A rows) consume no
        // network resources.
        if res.protocol == Protocol::NA {
            if let Some(t) = tracer.as_deref_mut() {
                t.set_tid(0);
                t.instant_at(
                    "req.skipped",
                    "request",
                    ms_us(start),
                    vec![("host", host.as_str().into()), ("reason", "n/a".into())],
                );
            }
            return RequestTiming {
                resource_index: idx,
                host,
                ip: placeholder_ip,
                asn,
                start,
                phase: Phase::default(),
                did_dns: false,
                new_connection: false,
                coalesced: false,
                protocol: Protocol::NA,
                cert_issuer: None,
                secure: res.secure,
                extra_connections: 0,
                extra_dns: 0,
            };
        }

        let now = SimTime::from_micros((start.max(0.0) * 1_000.0) as u64);
        let partition = PoolPartition::from(res.fetch_mode);

        // Would an existing connection serve without DNS? The ideal
        // models skip the query for coalesced names; real browsers
        // always resolve first (§6.8).
        let mut dns_ms = 0.0;
        let mut did_dns = false;
        let mut extra_dns = 0u8;
        let mut addrs: std::sync::Arc<[IpAddr]> = empty_addrs();
        let origin_trusted = self.config.trust_origin_without_dns
            && self.config.kind.uses_origin_frame()
            && matches!(
                pool.decide(
                    self.config.kind,
                    &host,
                    &[],
                    partition,
                    self.config.max_h1_per_host,
                    start,
                    |ch| env.colocated(ch, &host),
                ),
                ReuseDecision::Coalesce(_)
            );
        let skip_dns_probe = origin_trusted
            || !self.config.kind.dns_before_coalesce()
                && !matches!(
                    pool.decide(
                        self.config.kind,
                        &host,
                        &[],
                        partition,
                        self.config.max_h1_per_host,
                        start,
                        |ch| env.colocated(ch, &host),
                    ),
                    ReuseDecision::New
                );
        if !skip_dns_probe {
            let answer = match tracer.as_deref_mut() {
                Some(t) => {
                    t.set_tid(0);
                    t.set_now_us(ms_us(start));
                    env.resolve_traced(&host, now, rng, t)
                }
                None => env.resolve(&host, now, rng),
            };
            match answer {
                Some(ans) => {
                    dns_ms = ans.latency.as_millis_f64();
                    did_dns = !ans.from_cache;
                    addrs = ans.addresses;
                }
                None => {
                    // NXDOMAIN: the request fails after the lookup.
                    if let Some(rec) = flight.as_deref_mut() {
                        rec.record(ms_us(start), "dns.nxdomain", idx as u64, host.as_str());
                    }
                    if let Some(t) = tracer.as_deref_mut() {
                        t.complete(
                            &format!("req {} {}", idx, host.as_str()),
                            "request",
                            ms_us(start),
                            ms_us(15.0),
                            vec![
                                ("host", host.as_str().into()),
                                ("outcome", "nxdomain".into()),
                            ],
                        );
                    }
                    return RequestTiming {
                        resource_index: idx,
                        host,
                        ip: placeholder_ip,
                        asn,
                        start,
                        phase: Phase {
                            dns: 15.0,
                            ..Default::default()
                        },
                        did_dns: true,
                        new_connection: false,
                        coalesced: false,
                        protocol: Protocol::NA,
                        cert_issuer: None,
                        secure: res.secure,
                        extra_connections: 0,
                        extra_dns: 0,
                    };
                }
            }
            if did_dns && rng.chance(self.config.speculative_dns_rate) {
                extra_dns = 1;
            }
        }

        let mut decision = pool.decide(
            self.config.kind,
            &host,
            &addrs,
            partition,
            self.config.max_h1_per_host,
            start + dns_ms,
            |ch| env.colocated(ch, &host),
        );

        // Setup time wasted on failed attempts (421 round trip,
        // middlebox-torn handshake) before the request could proceed;
        // charged as blocked time, like a browser waterfall would show.
        let mut fault_penalty_ms = 0.0;
        let mut replayed_after_421 = false;
        if let (Some(f), ReuseDecision::Coalesce(i)) = (faults.as_deref_mut(), decision) {
            if f.rng.chance(f.profile.h421_for(host.as_str())) {
                // The server behind the coalesced connection refused
                // this authority: one full round trip learns that via
                // `421 Misdirected Request`. Evict the mapping so no
                // later request repeats the mistake, then replay on a
                // dedicated connection.
                let rtt_ms = link.rtt.as_millis_f64();
                pool.evict_coalesce(&host, i);
                f.counts.misdirected_421 += 1;
                f.counts.pool_evictions += 1;
                f.counts.retries += 1;
                if let Some(rec) = flight.as_deref_mut() {
                    rec.record(ms_us(start + dns_ms), "fault.421", i as u64, host.as_str());
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.set_tid(1 + i as u64);
                    t.instant_at(
                        "fault.421",
                        "fault",
                        ms_us(start + dns_ms),
                        vec![("host", host.as_str().into()), ("conn", (i as u64).into())],
                    );
                    t.instant_at(
                        "fault.evict",
                        "fault",
                        ms_us(start + dns_ms + rtt_ms),
                        vec![("host", host.as_str().into()), ("conn", (i as u64).into())],
                    );
                }
                fault_penalty_ms += rtt_ms;
                replayed_after_421 = true;
                decision = ReuseDecision::New;
            }
        }

        let mut phase = Phase {
            dns: dns_ms,
            ..Default::default()
        };
        let mut new_connection = false;
        let mut coalesced = false;
        let mut extra_connections = 0u8;
        let mut cert_issuer = None;
        let mut reuse_label = "new";
        let mut rule_label: Option<&'static str> = None;
        let conn_idx = match decision {
            ReuseDecision::SameHost(i) => {
                reuse_label = "same-host";
                let c = pool.get_mut(i);
                // Real browsers queue behind a busy H1.1 connection;
                // the ideal models are timing-blind best cases.
                if self.config.kind.models_races()
                    && !c.multiplexes()
                    && c.busy_until > start + dns_ms
                {
                    phase.blocked += c.busy_until - (start + dns_ms);
                }
                i
            }
            ReuseDecision::Coalesce(i) => {
                coalesced = true;
                reuse_label = "coalesced";
                let rule = pool.explain_coalesce(self.config.kind, &host, &addrs, i);
                rule_label = Some(rule);
                if let Some(t) = tracer.as_deref_mut() {
                    // Flow arrow from the reused connection's opening
                    // to this request's dispatch, plus an instant
                    // naming the rule that allowed the reuse.
                    let conn_tid = 1 + i as u64;
                    let open_ts = conn_open_us.get(i).copied().unwrap_or(0);
                    let id = t.next_id();
                    t.flow_start(id, "coalesce", "flow", open_ts, conn_tid);
                    t.set_tid(conn_tid);
                    t.flow_end(id, "coalesce", "flow", ms_us(start + dns_ms));
                    t.instant_at(
                        "coalesce",
                        "request",
                        ms_us(start + dns_ms),
                        vec![
                            ("rule", rule.into()),
                            ("conn", (i as u64).into()),
                            ("conn_host", pool.connections()[i].host.as_str().into()),
                        ],
                    );
                }
                i
            }
            ReuseDecision::New => {
                new_connection = true;
                let ip = addrs.first().copied().unwrap_or(placeholder_ip);
                let cert = env.cert_shared(&host);
                let quic_cert = match &cert {
                    Some(c) if h3_eligible && h3_session.knows_h3(c.serial) => Some(c.clone()),
                    _ => None,
                };
                if let Some(qc) = quic_cert {
                    open_quic_connection(
                        qc,
                        &host,
                        ip,
                        &addrs,
                        partition,
                        res.protocol,
                        start + dns_ms + fault_penalty_ms,
                        &link,
                        rng,
                        pool,
                        conn_open_us,
                        h1_sessions,
                        h3_conns,
                        h3_session,
                        &mut phase,
                        &mut cert_issuer,
                        tracer.as_deref_mut(),
                        flight.as_deref_mut(),
                    )
                } else {
                    // ALPN (RFC 7301) selects what the fresh connection
                    // speaks: the client always offers `h2, http/1.1`,
                    // the origin's advertisement — its deployment fact —
                    // wins. Pure computation, so running it on every
                    // setup perturbs nothing.
                    let alpn = origin_tls::alpn_negotiate(
                        origin_tls::alpn::CLIENT_OFFER,
                        origin_tls::alpn::server_advertisement(res.protocol == Protocol::H2),
                    );
                    debug_assert_eq!(
                        alpn == Some(origin_tls::AlpnProtocol::H2),
                        res.protocol == Protocol::H2,
                        "negotiated ALPN must agree with the deployed protocol"
                    );
                    // CDN edges negotiate TLS 1.3; roughly half the tail
                    // origins still ran TLS 1.2 (2-RTT handshakes) at the
                    // paper's Feb-2021 snapshot.
                    let is_tail_path = link.rtt > origin_netsim::SimDuration::from_millis(40);
                    let tls = if is_tail_path && rng.chance(0.65) {
                        TlsVersion::Tls12
                    } else {
                        TlsVersion::Tls13
                    };
                    let hs = HandshakeModel::for_certificate(
                        tls,
                        cert.as_ref().map(|c| c.wire_size()).unwrap_or(1_500),
                    );
                    let mut cost = hs.connect(&link, rng);
                    let mut origin_set = env.origin_set_for(&host);
                    // Whether the middlebox teardown below also ate
                    // the origin's `alt-svc: h3` advertisement (the
                    // reconnect suppresses optional frames/headers).
                    let mut altsvc_suppressed = false;
                    if let Some(f) = faults.as_deref_mut() {
                        if origin_set.is_some()
                            && f.rng.chance(f.profile.middlebox)
                            && f.middlebox.inspect(ORIGIN_FRAME_TYPE) == MiddleboxVerdict::TearDown
                        {
                            // §6.7: the handshake succeeded, then the
                            // ORIGIN frame the edge sent on the fresh
                            // connection tripped an on-path middlebox,
                            // which tore the connection down. The wasted
                            // setup is charged as blocked time and the
                            // client reconnects with ORIGIN advertisement
                            // suppressed (the fail-open the CDN shipped).
                            let wasted = cost.tcp.as_millis_f64()
                                + if res.secure {
                                    cost.tls.as_millis_f64()
                                } else {
                                    0.0
                                };
                            if let Some(rec) = flight.as_deref_mut() {
                                rec.record(
                                    ms_us(start + dns_ms + fault_penalty_ms + wasted),
                                    "fault.middlebox_teardown",
                                    u64::from(ORIGIN_FRAME_TYPE),
                                    host.as_str(),
                                );
                            }
                            if let Some(t) = tracer.as_deref_mut() {
                                t.set_tid(1 + pool.len() as u64);
                                t.instant_at(
                                    "fault.middlebox_teardown",
                                    "fault",
                                    ms_us(start + dns_ms + fault_penalty_ms + wasted),
                                    vec![
                                        ("host", host.as_str().into()),
                                        ("frame_type", u64::from(ORIGIN_FRAME_TYPE).into()),
                                        ("origin_suppressed", true.into()),
                                    ],
                                );
                            }
                            fault_penalty_ms += wasted;
                            cost = hs.connect(&link, &mut f.rng);
                            origin_set = None;
                            altsvc_suppressed = true;
                            f.counts.middlebox_teardowns += 1;
                            f.counts.origin_suppressed += 1;
                            f.counts.retries += 1;
                        }
                    }
                    let setup_start = start + dns_ms + fault_penalty_ms;
                    phase.connect = cost.tcp.as_millis_f64();
                    if res.secure {
                        phase.ssl = cost.tls.as_millis_f64();
                    } else {
                        phase.ssl = 0.0;
                    }
                    if rng.chance(self.config.happy_eyeballs_dup_rate) {
                        extra_connections = 1;
                    }
                    cert_issuer = cert.as_ref().map(|c| c.issuer.clone());
                    if let Some(t) = tracer.as_deref_mut() {
                        let conn_no = pool.len();
                        let conn_tid = 1 + conn_no as u64;
                        t.name_thread(conn_tid, &format!("conn {} {}", conn_no, host.as_str()));
                        t.set_tid(conn_tid);
                        t.complete(
                            "tcp.connect",
                            "net",
                            ms_us(setup_start),
                            ms_us(phase.connect),
                            vec![("ip", ip.to_string().into())],
                        );
                        if res.secure {
                            let hs_start = setup_start + phase.connect;
                            let mut hs_args: Vec<(&'static str, origin_trace::ArgValue)> = vec![
                                (
                                    "version",
                                    match tls {
                                        TlsVersion::Tls12 => "TLS 1.2",
                                        TlsVersion::Tls13 => "TLS 1.3",
                                        TlsVersion::Tls13ZeroRtt => "TLS 1.3 0-RTT",
                                    }
                                    .into(),
                                ),
                                ("sni", host.as_str().into()),
                                ("issuer", cert_issuer.clone().unwrap_or_default().into()),
                            ];
                            // Annotated only on legacy pages so pure-h2
                            // traces stay byte-identical to the committed
                            // baselines.
                            if page.legacy {
                                hs_args.push((
                                    "alpn",
                                    alpn.map(|p| p.to_string())
                                        .unwrap_or_else(|| "none".into())
                                        .into(),
                                ));
                            }
                            t.complete(
                                "tls.handshake",
                                "tls",
                                ms_us(hs_start),
                                ms_us(phase.ssl),
                                hs_args,
                            );
                            // The SAN check the pool's coalescing logic
                            // relies on: the presented certificate covers
                            // the requested name.
                            t.instant_at(
                                "tls.san_validated",
                                "tls",
                                ms_us(hs_start + phase.ssl),
                                vec![
                                    ("host", host.as_str().into()),
                                    (
                                        "covered",
                                        cert.as_ref()
                                            .map(|c| c.covers(&host))
                                            .unwrap_or(false)
                                            .into(),
                                    ),
                                ],
                            );
                        }
                    }
                    if legacy_h1 {
                        h1.connections_opened += 1;
                        // This connection opens because HTTP/1.1 cannot
                        // multiplex or coalesce. Before it enters the
                        // pool, ask each policy whether its *h2* rules
                        // would have merged the request onto an existing
                        // connection — Sander et al.'s redundant
                        // connections, the setups an all-h2 deployment
                        // would have avoided.
                        for (slot, (kind, _)) in REDUNDANCY_KINDS.iter().enumerate() {
                            if pool.redundant_if_h2(*kind, &host, &addrs, partition, |ch| {
                                env.colocated(ch, &host)
                            }) {
                                h1.redundant[slot] += 1;
                            }
                        }
                    }
                    if h3_eligible {
                        if let Some(c) = cert.as_ref() {
                            // The h2 response from an h3 origin
                            // advertises `alt-svc: h3` for its whole
                            // certificate scope, and a TLS 1.3
                            // handshake banks a session ticket the
                            // scope's QUIC handshakes can redeem.
                            h3_session.learn_alt_svc(c.serial, altsvc_suppressed);
                            if tls == TlsVersion::Tls13 {
                                h3_session.bank_ticket(host.as_str(), c.serial);
                            }
                        }
                    }
                    let conn = PooledConnection {
                        host: host.clone(),
                        ip,
                        available_set: addrs.clone(),
                        cert: cert.unwrap_or_else(|| {
                            // Plain-HTTP hosts have no certificate; a
                            // subject-only stand-in keeps the pool typed.
                            std::sync::Arc::new(
                                origin_tls::CertificateBuilder::new(host.clone()).build(),
                            )
                        }),
                        origin_set,
                        protocol: res.protocol,
                        partition,
                        bytes_transferred: 0,
                        in_flight: 0,
                        busy_until: 0.0,
                        closed: false,
                        quic: false,
                    };
                    let i = pool.insert(conn);
                    conn_open_us.push(ms_us(setup_start));
                    h1_sessions.push(None);
                    h3_conns.push(None);
                    if let Some(rec) = flight.as_deref_mut() {
                        rec.record(ms_us(setup_start), "conn.open", i as u64, host.as_str());
                    }
                    i
                }
            }
        };
        phase.blocked += fault_penalty_ms;
        if replayed_after_421 {
            reuse_label = "replay-421";
        }

        // Transfer phases.
        let conn = pool.get_mut(conn_idx);
        let warm_cwnd = if conn.bytes_transferred > 0 {
            link.cwnd_after(conn.bytes_transferred, INIT_CWND)
        } else {
            INIT_CWND
        };
        phase.send = 0.3;
        phase.wait = origin_webgen::dist::sample_wait_ms(rng);
        phase.receive = link.transfer_time(res.size, warm_cwnd).as_millis_f64();
        if let Some(f) = faults {
            // Bounded deterministic retry: each drop/corrupt verdict
            // costs an exponentially growing backoff plus one RTT to
            // retransmit, all charged to the receive phase. After
            // MAX_TRANSFER_RETRIES the transfer is force-delivered so
            // the crawl terminates under any profile.
            for attempt in 0..MAX_TRANSFER_RETRIES {
                let fate = f.injector.apply(&mut f.rng);
                if fate == PacketFate::Delivered {
                    break;
                }
                match fate {
                    PacketFate::Dropped => f.counts.drops += 1,
                    PacketFate::Corrupted => f.counts.corruptions += 1,
                    PacketFate::Delivered => unreachable!(),
                }
                f.counts.retries += 1;
                let backoff = RETRY_BASE_MS * f64::from(1u32 << attempt);
                let redo = backoff + link.rtt.as_millis_f64();
                if let Some(rec) = flight.as_deref_mut() {
                    rec.record(
                        ms_us(start + phase.total()),
                        "fault.backoff",
                        u64::from(attempt + 1),
                        host.as_str(),
                    );
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.set_tid(1 + conn_idx as u64);
                    t.complete(
                        "fault.backoff",
                        "fault",
                        ms_us(start + phase.total()),
                        ms_us(redo),
                        vec![
                            ("attempt", u64::from(attempt + 1).into()),
                            (
                                "fate",
                                match fate {
                                    PacketFate::Dropped => "dropped",
                                    PacketFate::Corrupted => "corrupted",
                                    PacketFate::Delivered => unreachable!(),
                                }
                                .into(),
                            ),
                        ],
                    );
                }
                phase.receive += redo;
                f.counts.backoff_events += 1;
                f.counts.backoff_us += ms_us(redo);
            }
        }
        conn.bytes_transferred += res.size;
        if self.config.kind.models_races() && !conn.multiplexes() {
            conn.busy_until = start + phase.total();
        }

        // Drive the sans-IO HTTP/1.1 machine through one full
        // request/response cycle for legacy traffic: heads, framing
        // and keep-alive are validated even though the simulation
        // only charges timings. Coalesced rides are excluded — only
        // the ideal (protocol-blind) models ever coalesce h1, and
        // they model structure, not wire protocol.
        // Requests riding a QUIC connection drive its QPACK
        // encoder/decoder pair (static/dynamic compression replaces
        // HPACK) and periodic connection-ID rotation. Only h3 pages
        // ever mark a connection `quic`, so this block is dead at
        // `h3_share = 0`.
        let mut h3_qpack: Option<H3RequestStats> = None;
        if conn.quic {
            h3.requests += 1;
            let sess = h3_conns[conn_idx].get_or_insert_with(H3Conn::new);
            h3_qpack = Some(sess.drive_request(host.as_str(), &res.path));
        }

        let mut h1_framing: Option<(&'static str, u64)> = None;
        if legacy_h1 {
            h1.requests += 1;
        }
        if legacy_h1 && !coalesced {
            if !new_connection {
                h1.keepalive_reuse += 1;
            }
            let sess =
                h1_sessions[conn_idx].get_or_insert_with(|| H1Connection::new(H1Role::Client));
            if sess.cycles_completed() > 0 {
                sess.start_next_cycle()
                    .expect("pooled HTTP/1.1 connection must be idle and kept alive");
            }
            sess.send(&H1Event::Request(H1Request::get(&res.path, host.as_str())))
                .expect("request head from Idle");
            sess.send(&H1Event::EndOfMessage)
                .expect("bodyless GET completes");
            if close_delimited_response(&res.path) {
                // No Content-Length: the body runs until the server
                // closes. The connection leaves the reusable pool —
                // `closed` frees its per-host slot, and the next
                // request to this host pays a fresh setup.
                sess.receive(&H1Event::Response(H1Response::close_delimited()))
                    .expect("response head after request");
                if res.size > 0 {
                    sess.receive(&H1Event::Data(res.size))
                        .expect("close-delimited body data");
                }
                sess.receive(&H1Event::ConnectionClosed)
                    .expect("close ends a close-delimited body");
                conn.closed = true;
                h1.close_delimited += 1;
                if let Some(rec) = flight {
                    rec.record(
                        ms_us(start + phase.total()),
                        H1Event::ConnectionClosed.code(),
                        sess.cycles_completed(),
                        host.as_str(),
                    );
                }
                h1_framing = Some(("close-delimited", sess.cycles_completed()));
            } else {
                sess.receive(&H1Event::Response(H1Response::with_content_length(
                    res.size,
                )))
                .expect("response head after request");
                if res.size > 0 {
                    sess.receive(&H1Event::Data(res.size)).expect("sized body");
                }
                sess.receive(&H1Event::EndOfMessage)
                    .expect("sized body completes");
                h1_framing = Some(("content-length", sess.cycles_completed()));
            }
        }

        let ip = conn.ip;

        if let Some(t) = tracer {
            // The request span and its phase children live on the
            // serving connection's track. Offsets accumulate in
            // quantised integer microseconds — the same arithmetic the
            // HAR export and metrics registry use — so the span end
            // equals the request's recorded end exactly.
            let conn_tid = 1 + conn_idx as u64;
            t.set_tid(conn_tid);
            let start_ts = ms_us(start);
            let mut args: Vec<(&'static str, origin_trace::ArgValue)> = vec![
                ("host", host.as_str().into()),
                ("protocol", res.protocol.label().into()),
                ("reuse", reuse_label.into()),
                ("conn", (conn_idx as u64).into()),
            ];
            if let Some(rule) = rule_label {
                args.push(("rule", rule.into()));
            }
            let phase_names = [
                "phase.blocked",
                "phase.dns",
                "phase.connect",
                "phase.ssl",
                "phase.send",
                "phase.wait",
                "phase.receive",
            ];
            t.complete(
                &format!("req {} {}", idx, host.as_str()),
                "request",
                start_ts,
                phase.total_us(),
                args,
            );
            // h3 requests additionally record the QPACK view: how
            // many bytes the header block and its table-mutating
            // instructions took on this connection's streams.
            if let Some(q) = h3_qpack {
                t.instant_at(
                    "h3.request",
                    "h3",
                    start_ts,
                    vec![
                        ("section_bytes", q.section_bytes.into()),
                        ("instruction_bytes", q.instruction_bytes.into()),
                        ("conn", (conn_idx as u64).into()),
                    ],
                );
            }
            // Legacy requests additionally record the h1 machine's
            // view: the response framing and which keep-alive cycle
            // of its connection this request rode.
            if let Some((framing, cycle)) = h1_framing {
                t.instant_at(
                    "h1.request",
                    "h1",
                    start_ts,
                    vec![
                        ("framing", framing.into()),
                        ("cycle", cycle.into()),
                        ("conn", (conn_idx as u64).into()),
                    ],
                );
            }
            let mut off = start_ts;
            for (name, dur) in phase_names.iter().zip(phase.quantised_us()) {
                if dur > 0 {
                    t.complete(name, "phase", off, dur, Vec::new());
                }
                off += dur;
            }
        }

        RequestTiming {
            resource_index: idx,
            host,
            ip,
            asn: if ip == placeholder_ip {
                asn
            } else {
                env.asn_of_ip(&ip).max(asn)
            },
            start,
            phase,
            did_dns,
            new_connection,
            coalesced,
            protocol: res.protocol,
            cert_issuer,
            secure: res.secure,
            extra_connections,
            extra_dns,
        }
    }
}

/// Open one QUIC connection in a certificate scope that has already
/// advertised h3 this visit. QUIC folds transport and TLS
/// establishment into one exchange, so there is no TCP round trip:
/// the whole handshake cost (0-RTT resumption, full 1-RTT, or the
/// anti-amplification stall a bloated chain forces) lands in the
/// `ssl` phase and `connect` stays zero. The pooled connection
/// carries no ORIGIN set — RFC 8336 frames are h2-only — so SAN/IP
/// matching alone gates coalescing onto it.
#[allow(clippy::too_many_arguments)] // one connection, its world, and an observer
fn open_quic_connection(
    cert: std::sync::Arc<origin_tls::Certificate>,
    host: &origin_dns::DnsName,
    ip: IpAddr,
    addrs: &std::sync::Arc<[IpAddr]>,
    partition: PoolPartition,
    protocol: Protocol,
    setup_start: f64,
    link: &origin_netsim::LinkProfile,
    rng: &mut SimRng,
    pool: &mut ConnectionPool,
    conn_open_us: &mut Vec<u64>,
    h1_sessions: &mut Vec<Option<H1Connection>>,
    h3_conns: &mut Vec<Option<H3Conn>>,
    h3_session: &mut H3Session,
    phase: &mut Phase,
    cert_issuer: &mut Option<String>,
    tracer: Option<&mut origin_trace::Tracer>,
    flight: Option<&mut origin_obs::FlightRecorder>,
) -> usize {
    let outcome = h3_session.connect(host.as_str(), cert.serial, cert.wire_size(), ip, link, rng);
    phase.connect = 0.0;
    phase.ssl = outcome.cost.as_millis_f64();
    *cert_issuer = Some(cert.issuer.clone());
    if let Some(t) = tracer {
        let conn_no = pool.len();
        let conn_tid = 1 + conn_no as u64;
        t.name_thread(conn_tid, &format!("conn {} {}", conn_no, host.as_str()));
        t.set_tid(conn_tid);
        t.complete(
            "quic.handshake",
            "tls",
            ms_us(setup_start),
            ms_us(phase.ssl),
            vec![
                ("mode", outcome.mode.label().into()),
                ("sni", host.as_str().into()),
                ("issuer", cert.issuer.clone().into()),
                (
                    "amplification_rtts",
                    u64::from(outcome.amplification_rtts).into(),
                ),
                ("cross_host", outcome.cross_host.into()),
            ],
        );
        // The same SAN check every TCP+TLS setup records: h3
        // coalescing hangs off certificate coverage exactly like h2's.
        t.instant_at(
            "tls.san_validated",
            "tls",
            ms_us(setup_start + phase.ssl),
            vec![
                ("host", host.as_str().into()),
                ("covered", cert.covers(host).into()),
            ],
        );
    }
    let i = pool.insert(PooledConnection {
        host: host.clone(),
        ip,
        available_set: addrs.clone(),
        cert,
        origin_set: None,
        protocol,
        partition,
        bytes_transferred: 0,
        in_flight: 0,
        busy_until: 0.0,
        closed: false,
        quic: true,
    });
    conn_open_us.push(ms_us(setup_start));
    h1_sessions.push(None);
    h3_conns.push(None);
    if let Some(rec) = flight {
        rec.record(ms_us(setup_start), "quic.open", i as u64, host.as_str());
    }
    i
}

/// Quantise simulated milliseconds to integer microseconds for trace
/// timestamps — identical to [`origin_web::har::ms_to_us`] and
/// `SimDuration::from_millis_f64`, keeping spans, HAR and metrics in
/// exact agreement.
fn ms_us(ms: f64) -> u64 {
    origin_web::har::ms_to_us(ms)
}

/// The shared empty address set for requests that never resolve
/// (N/A-protocol skips, NXDOMAIN, ORIGIN-frame-trusted coalescing).
/// One process-wide allocation instead of one per request.
fn empty_addrs() -> std::sync::Arc<[IpAddr]> {
    static EMPTY: std::sync::OnceLock<std::sync::Arc<[IpAddr]>> = std::sync::OnceLock::new();
    EMPTY.get_or_init(|| std::sync::Arc::new([])).clone()
}

/// Does a legacy origin serve this resource with a close-delimited
/// body (no `Content-Length`)? FNV-1a over the path picks roughly one
/// response in sixteen — a pure function of the page, so every thread
/// count and every visit agrees on which connections tear down.
fn close_delimited_response(path: &str) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h & 15 == 0
}

/// Upper bounds (inclusive) for the per-page connection histogram.
const CONNS_PER_PAGE_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32];

/// Derive `browser.*` counters and `sim.*` phase totals from one
/// completed page load.
fn record_page_metrics(load: &PageLoad, metrics: &mut origin_metrics::Registry) {
    let mut opened = 0u64;
    let mut coalesced = 0u64;
    let mut pool_reuse = 0u64;
    let mut dns_queries = 0u64;
    // Phase totals accumulate locally (integer microseconds, one
    // per-request quantisation each — the same arithmetic as recording
    // them one by one) and hit the registry's string-keyed maps once
    // per page instead of five times per request.
    let mut dns_t = SimDuration::ZERO;
    let mut connect_t = SimDuration::ZERO;
    let mut tls_t = SimDuration::ZERO;
    let mut transfer_t = SimDuration::ZERO;
    let mut blocked_t = SimDuration::ZERO;
    for r in &load.requests {
        opened += r.new_connection as u64 + r.extra_connections as u64;
        coalesced += r.coalesced as u64;
        // A request that neither opened nor coalesced rode an existing
        // same-host connection (failed N/A requests use no network).
        pool_reuse += (!r.new_connection && !r.coalesced && r.protocol != Protocol::NA) as u64;
        dns_queries += r.did_dns as u64 + r.extra_dns as u64;
        dns_t += SimDuration::from_millis_f64(r.phase.dns);
        connect_t += SimDuration::from_millis_f64(r.phase.connect);
        tls_t += SimDuration::from_millis_f64(r.phase.ssl);
        transfer_t += SimDuration::from_millis_f64(r.phase.send + r.phase.wait + r.phase.receive);
        blocked_t += SimDuration::from_millis_f64(r.phase.blocked);
    }
    let n = load.requests.len() as u64;
    metrics.record_phase_n("sim.dns", n, dns_t);
    metrics.record_phase_n("sim.connect", n, connect_t);
    metrics.record_phase_n("sim.tls", n, tls_t);
    metrics.record_phase_n("sim.transfer", n, transfer_t);
    metrics.record_phase_n("sim.blocked", n, blocked_t);
    metrics.add("browser.requests", load.requests.len() as u64);
    metrics.add("browser.connections_opened", opened);
    metrics.add("browser.coalesced_requests", coalesced);
    metrics.add("browser.pool_reuse", pool_reuse);
    metrics.add("browser.dns_queries", dns_queries);
    metrics.observe(
        "browser.connections_per_page",
        CONNS_PER_PAGE_BOUNDS,
        opened,
    );
    metrics.record_phase("sim.page", SimDuration::from_millis_f64(load.plt()));
}

/// Derive one visit's streaming observation from a completed load.
/// Everything written is a pure function of the page, the load, and
/// the visit's fault delta — the same inputs the metrics recording
/// reads — so the observation is shard-independent by the same
/// argument. Exemplar span references are minted with
/// [`origin_trace::span_ref`] in the visit's namespace: the trace
/// process is the site rank, the low bits are the resource index, so
/// `repro trace --site <rank>` shows the span `req <index> <host>`
/// the exemplar points at.
fn observe_visit(
    v: &mut origin_obs::VisitObs,
    page: &Page,
    load: &PageLoad,
    h1: &H1Stats,
    faults: Option<&FaultCounts>,
) {
    let rank = load.rank;
    v.rank = rank;
    let mut plt_end = 0u64;
    let mut plt_idx = 0usize;
    for r in &load.requests {
        let idx = r.resource_index;
        let span = origin_trace::span_ref(rank as u64, idx as u64);
        v.requests += 1;
        v.coalesced_requests += u64::from(r.coalesced);
        v.connections_opened += r.new_connection as u64 + u64::from(r.extra_connections);
        if r.protocol == Protocol::NA {
            continue;
        }
        let [blocked, dns, connect, ssl, ..] = r.phase.quantised_us();
        if r.new_connection {
            let handshake = connect + ssl;
            if handshake > 0 {
                v.handshakes
                    .push((r.start_us() + blocked + dns, handshake, span));
            }
        }
        v.bytes.push((r.end_us(), page.resources[idx].size, span));
        if r.end_us() > plt_end {
            plt_end = r.end_us();
            plt_idx = idx;
        }
    }
    v.plt_us = load.plt_us();
    v.plt_span = origin_trace::span_ref(rank as u64, plt_idx as u64);
    v.measured_tls = load.tls_connections();
    v.h1_connections = h1.connections_opened;
    v.h1_requests = h1.requests;
    v.h1_redundant = h1.redundant;
    if let Some(delta) = faults {
        let events =
            delta.misdirected_421 + delta.middlebox_teardowns + delta.drops + delta.corruptions;
        v.fault_misdirected_421 = delta.misdirected_421;
        v.fault_events = events;
        // Recovery is bounded by construction — every injected fault
        // is replayed, reconnected, or force-delivered within
        // MAX_TRANSFER_RETRIES — so today every event counts as
        // recovered and the SLO gate pins the rate at 1.0. A future
        // failure mode that gives up would diverge here.
        v.fault_recoveries = events;
    }
}

/// Fold one visit's HTTP/1.1 counters into the registry. Zero values
/// are skipped — `Registry::add` materializes keys, and a pure-h2
/// crawl (legacy share 0) must serialize exactly as it did before the
/// mixed-protocol universe existed.
fn record_h1_metrics(stats: &H1Stats, metrics: &mut origin_metrics::Registry) {
    for (name, value) in [
        ("h1.requests", stats.requests),
        ("h1.connections_opened", stats.connections_opened),
        ("h1.keepalive_reuse", stats.keepalive_reuse),
        ("h1.close_delimited", stats.close_delimited),
        ("h1.pages", stats.pages),
    ] {
        if value > 0 {
            metrics.add(name, value);
        }
    }
    for (slot, (_, name)) in REDUNDANCY_KINDS.iter().enumerate() {
        if stats.redundant[slot] > 0 {
            metrics.add(name, stats.redundant[slot]);
        }
    }
}

/// Fold one visit's HTTP/3 counters into the registry. Zero values
/// are skipped — `Registry::add` materializes keys, and a pure-h2
/// crawl (h3 share 0) must serialize exactly as it did before the
/// QUIC path existed.
fn record_h3_metrics(stats: &H3Stats, metrics: &mut origin_metrics::Registry) {
    for (name, value) in [
        ("h3.pages", stats.pages),
        ("h3.requests", stats.requests),
        ("h3.connections", stats.counts.connections),
        ("h3.handshakes_1rtt", stats.counts.handshakes_1rtt),
        ("h3.handshakes_0rtt", stats.counts.handshakes_0rtt),
        ("h3.zero_rtt_rejected", stats.counts.zero_rtt_rejected),
        ("h3.tickets_issued", stats.counts.tickets_issued),
        ("h3.resumed_cross_host", stats.counts.resumed_cross_host),
        ("h3.altsvc_learned", stats.counts.altsvc_learned),
        ("h3.altsvc_suppressed", stats.counts.altsvc_suppressed),
        ("h3.amplification_rtts", stats.counts.amplification_rtts),
        ("h3.addr_validated_skips", stats.counts.addr_validated_skips),
        ("h3.qpack_instructions", stats.qpack_instructions),
        ("h3.qpack_evictions", stats.qpack_evictions),
        ("h3.cids_issued", stats.cids_issued),
        ("h3.cids_retired", stats.cids_retired),
    ] {
        if value > 0 {
            metrics.add(name, value);
        }
    }
}

/// Fold one visit's fault-counter deltas into the registry. Zero
/// values are skipped — `Registry::add` materializes keys, and a
/// faulted crawl whose profile injected nothing must serialize exactly
/// like a clean one.
fn record_fault_metrics(delta: &FaultCounts, metrics: &mut origin_metrics::Registry) {
    for (name, value) in [
        ("fault.misdirected_421", delta.misdirected_421),
        ("fault.pool_evictions", delta.pool_evictions),
        ("fault.middlebox_teardowns", delta.middlebox_teardowns),
        ("fault.origin_suppressed", delta.origin_suppressed),
        ("fault.drops", delta.drops),
        ("fault.corruptions", delta.corruptions),
        ("fault.retries", delta.retries),
    ] {
        if value > 0 {
            metrics.add(name, value);
        }
    }
    if delta.backoff_events > 0 {
        metrics.record_phase_n(
            "fault.backoff",
            delta.backoff_events,
            SimDuration::from_micros(delta.backoff_us),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::UniverseEnv;
    use origin_webgen::{Dataset, DatasetConfig};

    fn dataset() -> Dataset {
        Dataset::generate(DatasetConfig {
            sites: 120,
            tranco_total: 500_000,
            seed: 11,
            ..Default::default()
        })
    }

    fn load_first_page(kind: BrowserKind, d: &Dataset) -> PageLoad {
        let site = d
            .sites()
            .iter()
            .find(|s| !s.failed)
            .expect("a successful site")
            .clone();
        let page = d.page_for(&site);
        let mut env = UniverseEnv::new(d);
        env.flush_dns();
        let loader = PageLoader::new(kind);
        let mut rng = SimRng::seed_from_u64(99);
        loader.load(&page, &mut env, &mut rng)
    }

    #[test]
    fn load_produces_timing_per_resource() {
        let d = dataset();
        let site = d.sites().iter().find(|s| !s.failed).unwrap().clone();
        let page = d.page_for(&site);
        let pl = load_first_page(BrowserKind::Chromium, &d);
        assert_eq!(pl.requests.len(), page.resources.len());
        assert!(pl.plt() > 0.0);
        // Root request always opens a connection and queries DNS.
        assert!(pl.requests[0].new_connection);
        assert!(pl.requests[0].did_dns);
    }

    #[test]
    fn dns_once_per_host() {
        let d = dataset();
        let pl = load_first_page(BrowserKind::Chromium, &d);
        // Network DNS queries ≤ distinct hosts (cache hits after the
        // first query per host).
        let distinct_hosts: std::collections::HashSet<_> =
            pl.requests.iter().map(|r| r.host.clone()).collect();
        let base_dns: u64 = pl.requests.iter().filter(|r| r.did_dns).count() as u64;
        assert!(base_dns <= distinct_hosts.len() as u64);
    }

    #[test]
    fn same_host_requests_reuse_connections() {
        let d = dataset();
        let pl = load_first_page(BrowserKind::Chromium, &d);
        // New H2 connections ≤ distinct hosts + races.
        let distinct_hosts: std::collections::HashSet<_> =
            pl.requests.iter().map(|r| r.host.clone()).collect();
        let h2_new: u64 = pl
            .requests
            .iter()
            .filter(|r| r.new_connection && r.protocol == Protocol::H2)
            .count() as u64;
        assert!(h2_new <= distinct_hosts.len() as u64);
    }

    #[test]
    fn ideal_origin_fewer_connections_than_chromium() {
        let d1 = dataset();
        let chromium = load_first_page(BrowserKind::Chromium, &d1);
        let d2 = dataset();
        let ideal = load_first_page(BrowserKind::IdealOrigin, &d2);
        assert!(
            ideal.tls_connections() <= chromium.tls_connections(),
            "ideal {} vs chromium {}",
            ideal.tls_connections(),
            chromium.tls_connections()
        );
        assert!(
            ideal.dns_queries() <= chromium.dns_queries(),
            "ideal {} vs chromium {}",
            ideal.dns_queries(),
            chromium.dns_queries()
        );
        assert!(ideal.coalesced_requests() >= chromium.coalesced_requests());
    }

    #[test]
    fn ideal_ip_between_measured_and_origin() {
        let d1 = dataset();
        let measured = load_first_page(BrowserKind::Chromium, &d1);
        let d2 = dataset();
        let ideal_ip = load_first_page(BrowserKind::IdealIp, &d2);
        let d3 = dataset();
        let ideal_origin = load_first_page(BrowserKind::IdealOrigin, &d3);
        assert!(ideal_ip.tls_connections() <= measured.tls_connections());
        assert!(ideal_origin.tls_connections() <= ideal_ip.tls_connections());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d1 = dataset();
        let a = load_first_page(BrowserKind::Firefox, &d1);
        let d2 = dataset();
        let b = load_first_page(BrowserKind::Firefox, &d2);
        assert_eq!(a, b);
    }

    #[test]
    fn coalesced_requests_have_no_setup_phases() {
        let d = dataset();
        let sites: Vec<_> = d
            .sites()
            .iter()
            .filter(|s| !s.failed)
            .take(10)
            .cloned()
            .collect();
        let mut total_coalesced = 0;
        for site in sites {
            let page = d.page_for(&site);
            let mut env = UniverseEnv::new(&d);
            env.flush_dns();
            let loader = PageLoader::new(BrowserKind::IdealOrigin);
            let mut rng = SimRng::seed_from_u64(99);
            let pl = loader.load(&page, &mut env, &mut rng);
            for r in &pl.requests {
                if r.coalesced {
                    assert_eq!(r.phase.connect, 0.0);
                    assert_eq!(r.phase.ssl, 0.0);
                    assert!(!r.new_connection);
                }
            }
            total_coalesced += pl.coalesced_requests();
        }
        assert!(
            total_coalesced > 0,
            "ideal origin should coalesce across 10 pages"
        );
    }

    #[test]
    fn traced_load_is_identical_to_untraced() {
        // Tracing observes the simulation without drawing from its
        // RNG, so a traced load must return the same PageLoad — this
        // is what lets `repro trace` reproduce exactly the visit the
        // crawl measured.
        let d1 = dataset();
        let untraced = load_first_page(BrowserKind::IdealOrigin, &d1);
        let d2 = dataset();
        let site = d2
            .sites()
            .iter()
            .find(|s| !s.failed)
            .expect("a successful site")
            .clone();
        let page = d2.page_for(&site);
        let mut env = UniverseEnv::new(&d2);
        env.flush_dns();
        let loader = PageLoader::new(BrowserKind::IdealOrigin);
        let mut rng = SimRng::seed_from_u64(99);
        let mut tracer = origin_trace::Tracer::new();
        tracer.begin_visit(site.rank as u64, "test visit");
        let mut metrics = origin_metrics::Registry::new();
        let traced = loader.load_traced(&page, &mut env, &mut rng, Some(&mut metrics), &mut tracer);
        assert_eq!(traced, untraced);

        // The HAR export's PLT and the metrics registry's per-visit
        // sim.page phase are the same integer-microsecond value.
        let page_phase = metrics.phase("sim.page").expect("sim.page recorded");
        assert_eq!(page_phase.total.as_micros(), traced.plt_us());

        // Every successful request produced a span on its serving
        // connection's track, and coalesced requests are linked to the
        // reused connection by a flow-start/flow-end pair.
        // Served requests and NXDOMAIN failures get spans; skipped
        // (N/A-protocol, no-DNS) requests get only an instant.
        let req_spans = traced
            .requests
            .iter()
            .filter(|r| r.protocol != Protocol::NA || r.did_dns)
            .count();
        let span_count = tracer
            .events()
            .iter()
            .filter(|e| {
                e.cat == "request" && matches!(e.kind, origin_trace::EventKind::Complete { .. })
            })
            .count();
        assert_eq!(span_count, req_spans);
        let coalesced = traced.coalesced_requests() as usize;
        assert!(coalesced > 0, "ideal-origin visit should coalesce");
        let flow_starts = tracer
            .events()
            .iter()
            .filter(|e| matches!(e.kind, origin_trace::EventKind::FlowStart { .. }))
            .count();
        let flow_ends = tracer
            .events()
            .iter()
            .filter(|e| matches!(e.kind, origin_trace::EventKind::FlowEnd { .. }))
            .count();
        assert_eq!(flow_starts, coalesced);
        assert_eq!(flow_ends, coalesced);

        // Request span ends equal the quantised request ends the HAR
        // export reports: spans, HAR, and metrics tell one story.
        let max_span_end = tracer
            .events()
            .iter()
            .filter(|e| e.cat == "request")
            .filter_map(|e| match e.kind {
                origin_trace::EventKind::Complete { dur_us } => Some(e.ts_us + dur_us),
                _ => None,
            })
            .max()
            .expect("at least one request span");
        assert_eq!(max_span_end, traced.plt_us());
    }

    #[test]
    fn pure_h2_visit_records_no_h1_metrics() {
        // The mixed-protocol machinery must be invisible on a default
        // (legacy share 0) universe: no `h1.*` key may materialize,
        // or the committed metrics baselines would change shape.
        let d = dataset();
        let site = d.sites().iter().find(|s| !s.failed).unwrap().clone();
        let page = d.page_for(&site);
        assert!(!page.legacy);
        let mut env = UniverseEnv::new(&d);
        env.flush_dns();
        let loader = PageLoader::new(BrowserKind::Firefox);
        let mut rng = SimRng::seed_from_u64(99);
        let mut metrics = origin_metrics::Registry::new();
        loader.load_instrumented(&page, &mut env, &mut rng, Some(&mut metrics));
        assert!(metrics.counters().all(|(name, _)| !name.starts_with("h1.")));
        assert!(metrics.counters().all(|(name, _)| !name.starts_with("h3.")));
    }

    #[test]
    fn h3_pages_upgrade_connections_to_quic() {
        let d = Dataset::generate(DatasetConfig {
            sites: 40,
            tranco_total: 500_000,
            seed: 11,
            legacy_share: 0.0,
            h3_share: 1.0,
        });
        let mut env = UniverseEnv::new(&d);
        let loader = PageLoader::new(BrowserKind::Firefox);
        let mut metrics = origin_metrics::Registry::new();
        let mut arena = VisitArena::new();
        let mut pages = 0u64;
        for site in d.sites().iter().filter(|s| !s.failed).take(12) {
            let page = d.page_for(site);
            assert!(page.h3, "share 1.0 makes every site deploy h3");
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let load = loader.load_faulted_with(
                &page,
                &mut env,
                &mut rng,
                None,
                Some(&mut metrics),
                None,
                &mut arena,
            );
            pages += 1;
            arena.recycle(load);
        }
        assert_eq!(metrics.counter("h3.pages"), pages);
        // Alt-Svc is learned from the first (h2) connection per cert
        // scope; later New decisions in a known scope open QUIC.
        assert!(metrics.counter("h3.altsvc_learned") > 0);
        assert!(metrics.counter("h3.connections") > 0);
        // Every QUIC connection ran exactly one handshake.
        assert_eq!(
            metrics.counter("h3.connections"),
            metrics.counter("h3.handshakes_1rtt") + metrics.counter("h3.handshakes_0rtt"),
        );
        // 0-RTT attempts can only spend tickets that TLS 1.3 or a
        // prior full handshake banked.
        assert!(
            metrics.counter("h3.handshakes_0rtt") + metrics.counter("h3.zero_rtt_rejected")
                <= metrics.counter("h3.tickets_issued")
        );
        // Requests rode the QUIC connections and drove QPACK.
        assert!(metrics.counter("h3.requests") > 0);
        assert!(metrics.counter("h3.qpack_instructions") > 0);
        assert!(metrics.counter("h3.cids_issued") >= metrics.counter("h3.connections"));
    }

    #[test]
    fn h3_visit_is_deterministic_and_arena_invariant() {
        let d = Dataset::generate(DatasetConfig {
            sites: 20,
            tranco_total: 500_000,
            seed: 7,
            legacy_share: 0.0,
            h3_share: 1.0,
        });
        let loader = PageLoader::new(BrowserKind::Firefox);
        let run = |arena: &mut VisitArena| {
            let mut env = UniverseEnv::new(&d);
            let mut metrics = origin_metrics::Registry::new();
            let mut digest = Vec::new();
            for site in d.sites().iter().filter(|s| !s.failed).take(8) {
                let page = d.page_for(site);
                env.flush_dns();
                let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
                let load = loader.load_faulted_with(
                    &page,
                    &mut env,
                    &mut rng,
                    None,
                    Some(&mut metrics),
                    None,
                    arena,
                );
                digest.push((load.plt_us(), load.request_count()));
                arena.recycle(load);
            }
            (digest, metrics.to_json())
        };
        let fresh = run(&mut VisitArena::new());
        let mut reused = VisitArena::new();
        let first = run(&mut reused);
        let second = run(&mut reused);
        assert_eq!(fresh, first);
        assert_eq!(first, second, "arena reuse must not leak h3 state");
    }

    #[test]
    fn legacy_pages_drive_the_h1_machine() {
        let d = Dataset::generate(DatasetConfig {
            sites: 40,
            tranco_total: 500_000,
            seed: 11,
            legacy_share: 1.0,
            h3_share: 0.0,
        });
        let mut env = UniverseEnv::new(&d);
        let loader = PageLoader::new(BrowserKind::Firefox);
        let mut metrics = origin_metrics::Registry::new();
        let mut arena = VisitArena::new();
        let mut h11_requests = 0u64;
        let mut coalesced_h1 = 0u64;
        let mut pages = 0u64;
        for site in d.sites().iter().filter(|s| !s.failed).take(12) {
            let page = d.page_for(site);
            assert!(page.legacy, "share 1.0 makes every site legacy");
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let load = loader.load_faulted_with(
                &page,
                &mut env,
                &mut rng,
                None,
                Some(&mut metrics),
                None,
                &mut arena,
            );
            for r in &load.requests {
                if r.protocol == Protocol::H11 {
                    h11_requests += 1;
                    coalesced_h1 += r.coalesced as u64;
                }
            }
            pages += 1;
            arena.recycle(load);
        }
        // Every HTTP/1.1 request that reached the network drove the
        // machine exactly once: no request is double-counted.
        assert!(metrics.counter("h1.requests") > 0);
        assert_eq!(metrics.counter("h1.requests"), h11_requests);
        assert_eq!(
            metrics.counter("h1.requests"),
            metrics.counter("h1.connections_opened")
                + metrics.counter("h1.keepalive_reuse")
                + coalesced_h1,
            "every h1 request either opened, kept alive, or coalesced"
        );
        assert_eq!(metrics.counter("h1.pages"), pages);
        // Domain-sharded legacy pages open connections an h2
        // deployment would have merged; any event redundant under
        // Chromium's strict rules is redundant under the ideal-ORIGIN
        // model too (its conditions are a superset trigger).
        assert!(metrics.counter("h1.redundant.ideal_origin") > 0);
        assert!(
            metrics.counter("h1.redundant.ideal_origin")
                >= metrics.counter("h1.redundant.chromium")
        );
        // ~1/16 of paths draw a close-delimited response; across a
        // dozen legacy sites some connection must have torn down.
        assert!(metrics.counter("h1.close_delimited") > 0);
    }

    #[test]
    fn legacy_load_is_deterministic_and_arena_invariant() {
        let d = Dataset::generate(DatasetConfig {
            sites: 20,
            tranco_total: 500_000,
            seed: 7,
            legacy_share: 0.5,
            h3_share: 0.0,
        });
        let loader = PageLoader::new(BrowserKind::Firefox);
        let run = |arena: &mut VisitArena| {
            let mut env = UniverseEnv::new(&d);
            let mut metrics = origin_metrics::Registry::new();
            let mut loads = Vec::new();
            for site in d.sites().iter().filter(|s| !s.failed).take(8) {
                let page = d.page_for(site);
                env.flush_dns();
                let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
                loads.push(loader.load_faulted_with(
                    &page,
                    &mut env,
                    &mut rng,
                    None,
                    Some(&mut metrics),
                    None,
                    arena,
                ));
            }
            (loads, metrics.to_json())
        };
        let (a_loads, a_json) = run(&mut VisitArena::new());
        let mut arena = VisitArena::new();
        let (b_loads, b_json) = run(&mut arena);
        let (c_loads, c_json) = run(&mut arena); // warm arena, reused sessions cleared
        assert_eq!(a_loads, b_loads);
        assert_eq!(a_json, b_json);
        assert_eq!(a_loads, c_loads);
        assert_eq!(a_json, c_json);
    }

    /// Arena reuse must be observationally invisible: a worker that
    /// recycles one [`VisitArena`] across visits produces `PageLoad`s
    /// identical to a worker that builds a fresh arena per visit.
    #[test]
    fn arena_reuse_is_output_invisible() {
        let d = dataset();
        let sites: Vec<_> = d
            .sites()
            .iter()
            .filter(|s| !s.failed)
            .take(8)
            .cloned()
            .collect();
        let loader = PageLoader::new(BrowserKind::Chromium);

        let mut env = UniverseEnv::new(&d);
        let mut fresh = Vec::new();
        for site in &sites {
            let page = d.page_for(site);
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            fresh.push(loader.load_faulted_with(
                &page,
                &mut env,
                &mut rng,
                None,
                None,
                None,
                &mut VisitArena::new(),
            ));
        }

        let mut env = UniverseEnv::new(&d);
        let mut arena = VisitArena::new();
        for (site, expect) in sites.iter().zip(&fresh) {
            let page = d.page_for(site);
            env.flush_dns();
            let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
            let load =
                loader.load_faulted_with(&page, &mut env, &mut rng, None, None, None, &mut arena);
            assert_eq!(&load, expect);
            arena.recycle(load);
        }
    }

    /// The long-run form of [`arena_reuse_is_output_invisible`]: one
    /// arena and one env carried through 2,000 visits of a mixed
    /// h1/h2/h3 universe — each visit's pool, h1 sessions and QUIC
    /// state cleared over whatever the previous visits left behind,
    /// the pool and host-fact interners emptied whenever they pass
    /// their (test-sized) limit — yield loads and counters identical
    /// to a fresh arena and env per visit. Between visits the carried
    /// state stays bounded: the per-connection slots match this
    /// visit's pool, and the host-fact cache holds at most
    /// `INTERN_LIMIT` names.
    #[test]
    fn arena_reuse_is_output_invisible_over_a_long_run() {
        const VISITS: usize = 2_000;
        const INTERN_LIMIT: usize = 256;
        let d = Dataset::generate(DatasetConfig {
            sites: 3_400,
            tranco_total: 500_000,
            seed: 11,
            legacy_share: 0.25,
            h3_share: 0.25,
        });
        let loader = PageLoader::new(BrowserKind::Firefox);
        let mut env = UniverseEnv::new(&d);
        env.set_intern_limit(INTERN_LIMIT);
        let mut fresh_metrics = origin_metrics::Registry::new();
        let mut reused_metrics = origin_metrics::Registry::new();
        let mut arena = VisitArena::new();
        arena.pool.set_intern_limit(INTERN_LIMIT);
        let mut visits = 0;
        for site in d.sites().iter().filter(|s| !s.failed).take(VISITS) {
            let page = d.page_for(site);
            let seed = site.page_seed ^ 0xC0A1E5CE;
            let mut fresh_env = UniverseEnv::new(&d);
            fresh_env.flush_dns();
            let fresh = loader.load_faulted_with(
                &page,
                &mut fresh_env,
                &mut SimRng::seed_from_u64(seed),
                None,
                Some(&mut fresh_metrics),
                None,
                &mut VisitArena::new(),
            );
            env.flush_dns();
            assert!(env.interned_hosts() <= INTERN_LIMIT, "visit {visits}");
            let reused = loader.load_faulted_with(
                &page,
                &mut env,
                &mut SimRng::seed_from_u64(seed),
                None,
                Some(&mut reused_metrics),
                None,
                &mut arena,
            );
            assert_eq!(reused, fresh, "visit {visits} (rank {})", site.rank);
            assert_eq!(arena.h1_sessions.len(), arena.pool.len());
            assert_eq!(arena.h3_conns.len(), arena.pool.len());
            arena.recycle(reused);
            visits += 1;
        }
        assert_eq!(visits, VISITS, "the universe has enough successful sites");
        assert_eq!(reused_metrics.to_json(), fresh_metrics.to_json());
    }
}
