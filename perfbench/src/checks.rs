//! Output checks. Each one compares the program's output with a
//! computation made here, apart from the program, or with a property
//! the paper's method must have. None compares against a stored copy
//! of earlier output.

use origin_bench::SeriesSamples;
use origin_web::PageLoad;
use std::collections::HashSet;
use std::hash::Hash;
use std::net::IpAddr;

/// Failed checks of one run; the run is correct when there are none.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record one check's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }

    /// Fold in another set of checks.
    pub fn extend(&mut self, other: Checks) {
        self.failures.extend(other.failures);
    }

    pub fn is_correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

fn ordered(label: &str, i: usize, origin: f64, ip: f64, measured: f64) -> Result<(), String> {
    if origin <= ip && ip <= measured {
        Ok(())
    } else {
        Err(format!(
            "page {i}: {label} not ordered ideal ORIGIN {origin} <= ideal IP {ip} <= measured {measured}"
        ))
    }
}

/// Per page, ideal ORIGIN <= ideal IP <= measured for DNS queries,
/// TLS connections and PLT: a coalescing model can only remove work.
pub fn model_order(
    measured: &SeriesSamples,
    ip: &SeriesSamples,
    origin: &SeriesSamples,
) -> Result<(), String> {
    let n = measured.plt.len();
    for s in [measured, ip, origin] {
        if s.dns.len() != n || s.tls.len() != n || s.plt.len() != n {
            return Err(format!(
                "series lengths differ: {} dns / {} tls / {} plt against {n} measured pages",
                s.dns.len(),
                s.tls.len(),
                s.plt.len()
            ));
        }
    }
    if n == 0 {
        return Err("no pages crawled".into());
    }
    for i in 0..n {
        ordered("DNS queries", i, origin.dns[i], ip.dns[i], measured.dns[i])?;
        ordered(
            "TLS connections",
            i,
            origin.tls[i],
            ip.tls[i],
            measured.tls[i],
        )?;
        ordered("PLT", i, origin.plt[i], ip.plt[i], measured.plt[i])?;
    }
    Ok(())
}

/// Exact equality of two per-page series, value for value.
pub fn series_equal(label: &str, a: &SeriesSamples, b: &SeriesSamples) -> Result<(), String> {
    for (part, x, y) in [
        ("dns", &a.dns, &b.dns),
        ("tls", &a.tls, &b.tls),
        ("plt", &a.plt, &b.plt),
    ] {
        if x.len() != y.len() {
            return Err(format!(
                "{label} {part}: {} pages against {}",
                x.len(),
                y.len()
            ));
        }
        if let Some(i) = (0..x.len()).find(|&i| x[i].to_bits() != y[i].to_bits()) {
            return Err(format!(
                "{label} {part}: page {i} reads {} against {}",
                x[i], y[i]
            ));
        }
    }
    Ok(())
}

/// One request as the ideal-coalescing recount sees it.
#[derive(Debug, Clone, Copy)]
pub struct Opened {
    /// The request opened a connection of its own.
    pub new_connection: bool,
    /// That connection ran TLS.
    pub secure: bool,
    pub ip: IpAddr,
    pub asn: u32,
}

/// The connections an ideal model keeps: one per distinct key among
/// the requests that opened a connection, in dispatch order. Only TLS
/// connections are counted, as in the paper's TLS series.
fn ideal_tls<K: Eq + Hash>(requests: &[Opened], key: impl Fn(&Opened) -> K) -> u64 {
    let mut seen = HashSet::new();
    let mut tls = 0;
    for r in requests.iter().filter(|r| r.new_connection) {
        if seen.insert(key(r)) && r.secure {
            tls += 1;
        }
    }
    tls
}

/// Ideal-IP and ideal-ORIGIN TLS counts recounted from request records:
/// one connection per distinct IP, or per distinct AS.
pub fn recount_ideal_tls(requests: &[Opened]) -> (u64, u64) {
    (
        ideal_tls(requests, |r| r.ip),
        ideal_tls(requests, |r| r.asn),
    )
}

/// The request records of a measured load, as the recount sees them.
pub fn opened_of(load: &PageLoad) -> Vec<Opened> {
    load.requests
        .iter()
        .map(|r| Opened {
            new_connection: r.new_connection,
            secure: r.secure,
            ip: r.ip,
            asn: r.asn,
        })
        .collect()
}

/// The model's ideal TLS counts for one page must equal the recount.
pub fn ideal_tls_recount(
    rank: u32,
    requests: &[Opened],
    model_ip: u64,
    model_origin: u64,
) -> Result<(), String> {
    let (ip, origin) = recount_ideal_tls(requests);
    if (ip, origin) == (model_ip, model_origin) {
        Ok(())
    } else {
        Err(format!(
            "rank {rank}: model ideal TLS (IP {model_ip}, ORIGIN {model_origin}) but the request records give (IP {ip}, ORIGIN {origin})"
        ))
    }
}

/// Every QUIC connection ran exactly one handshake, 1-RTT or 0-RTT.
pub fn h3_ledger(
    connections: u64,
    handshakes_1rtt: u64,
    handshakes_0rtt: u64,
) -> Result<(), String> {
    if connections > 0 && handshakes_1rtt + handshakes_0rtt == connections {
        Ok(())
    } else {
        Err(format!(
            "h3 ledger: {handshakes_1rtt} 1-RTT + {handshakes_0rtt} 0-RTT handshakes for {connections} connections"
        ))
    }
}

/// Redundant-connection counts keep the policies' order: a policy
/// with more evidence merges a superset of what a stricter one does,
/// and none merges more connections than were opened.
pub fn redundancy_order(
    chromium: u64,
    ideal_ip: u64,
    ideal_origin: u64,
    h1_connections: u64,
) -> Result<(), String> {
    if 0 < chromium
        && chromium <= ideal_ip
        && ideal_ip <= ideal_origin
        && ideal_origin <= h1_connections
    {
        Ok(())
    } else {
        Err(format!(
            "redundancy order: chromium {chromium}, ideal IP {ideal_ip}, ideal ORIGIN {ideal_origin}, h1 connections {h1_connections}"
        ))
    }
}

/// What a faulted crawl and its clean re-crawl of the same universe
/// report, for the recovery check.
#[derive(Debug, Clone, Copy)]
pub struct FaultOutcome {
    pub clean_pages: u64,
    pub faulted_pages: u64,
    pub clean_requests: u64,
    pub faulted_requests: u64,
    pub fault_events: u64,
    /// Recovered share of the injected faults, from the timeline.
    pub recovery_rate: f64,
}

/// Every injected fault is recovered: faults did fire, each one was
/// recovered, and the faulted crawl completed every page and request
/// the clean crawl did.
pub fn faults_recovered(o: &FaultOutcome) -> Result<(), String> {
    if o.fault_events == 0 {
        return Err("fault profile injected no faults".into());
    }
    if o.recovery_rate != 1.0 {
        return Err(format!(
            "recovery rate {} over {} injected faults",
            o.recovery_rate, o.fault_events
        ));
    }
    if (o.faulted_pages, o.faulted_requests) != (o.clean_pages, o.clean_requests) {
        return Err(format!(
            "faulted crawl completed {} pages / {} requests, clean crawl {} / {}",
            o.faulted_pages, o.faulted_requests, o.clean_pages, o.clean_requests
        ));
    }
    Ok(())
}

/// The wire spot check found every checked site consistent.
pub fn wire_consistent(consistent: usize, checked: usize) -> Result<(), String> {
    if checked > 0 && consistent == checked {
        Ok(())
    } else {
        Err(format!(
            "wire spot check: {consistent}/{checked} sites consistent"
        ))
    }
}

/// Passive logs: the experiment arm opens no more third-party
/// connections than the control arm.
pub fn passive_order(label: &str, experiment: u64, control: u64) -> Result<(), String> {
    if control > 0 && experiment <= control {
        Ok(())
    } else {
        Err(format!(
            "{label}: experiment {experiment} third-party connections against control {control}"
        ))
    }
}

/// The serving run spent exactly its visit budget, split over two arms.
pub fn serve_visits(budget: u64, visits: u64, control: u64, origin: u64) -> Result<(), String> {
    if visits == budget && control + origin == visits {
        Ok(())
    } else {
        Err(format!(
            "serve: {visits} visits for a budget of {budget}; arms {control} + {origin}"
        ))
    }
}

/// Two deterministic exports must be byte-identical.
pub fn identical(label: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    Err(format!(
        "{label}: exports differ at byte {at} ({} vs {} bytes)",
        a.len(),
        b.len()
    ))
}

/// Whether a serve site plan's ideal connection counts match the §4
/// model's counts for a cold visit of the same site.
pub fn plan_agrees(plan_ip: u32, plan_origin: u32, model_ip: u64, model_origin: u64) -> bool {
    u64::from(plan_ip) == model_ip && u64::from(plan_origin) == model_origin
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(dns: &[f64], tls: &[f64], plt: &[f64]) -> SeriesSamples {
        SeriesSamples {
            dns: dns.to_vec(),
            tls: tls.to_vec(),
            plt: plt.to_vec(),
        }
    }

    #[test]
    fn model_order_accepts_ordered_and_rejects_swapped_series() {
        let measured = series(&[5.0, 4.0], &[6.0, 3.0], &[900.0, 700.0]);
        let ip = series(&[3.0, 4.0], &[4.0, 2.0], &[850.0, 700.0]);
        let origin = series(&[2.0, 1.0], &[2.0, 2.0], &[800.0, 650.0]);
        assert!(model_order(&measured, &ip, &origin).is_ok());
        // The two model series swapped: ideal IP now undercuts ORIGIN.
        assert!(model_order(&measured, &origin, &ip).is_err());
        // A model that needs more connections than the measurement.
        assert!(model_order(&ip, &measured, &origin).is_err());
        // One page short.
        let short = series(&[2.0], &[2.0], &[800.0]);
        assert!(model_order(&measured, &ip, &short).is_err());
        let empty = SeriesSamples::default();
        assert!(model_order(&empty, &empty, &empty).is_err());
    }

    #[test]
    fn series_equal_rejects_one_changed_value() {
        let a = series(&[1.0, 2.0], &[1.0, 1.0], &[10.0, 20.0]);
        assert!(series_equal("x", &a, &a.clone()).is_ok());
        let mut b = a.clone();
        b.plt[1] = 20.000001;
        assert!(series_equal("x", &a, &b).is_err());
        let mut c = a.clone();
        c.tls.pop();
        assert!(series_equal("x", &a, &c).is_err());
    }

    fn req(new_connection: bool, secure: bool, ip: u8, asn: u32) -> Opened {
        Opened {
            new_connection,
            secure,
            ip: IpAddr::from([10, 0, 0, ip]),
            asn,
        }
    }

    #[test]
    fn recount_keeps_one_connection_per_ip_and_per_as() {
        let reqs = [
            req(true, true, 1, 100),  // root
            req(false, true, 1, 100), // reused: opens nothing
            req(true, true, 2, 100),  // new IP, same AS
            req(true, true, 2, 100),  // duplicate IP
            req(true, false, 3, 200), // plaintext: keyed, not counted
            req(true, true, 3, 200),  // IP and AS already keyed
            req(true, true, 4, 300),  // new IP, new AS
        ];
        assert_eq!(recount_ideal_tls(&reqs), (3, 2));
        assert!(ideal_tls_recount(7, &reqs, 3, 2).is_ok());
        // Swapped model counts, and an off-by-one, are both caught.
        assert!(ideal_tls_recount(7, &reqs, 2, 3).is_err());
        assert!(ideal_tls_recount(7, &reqs, 4, 2).is_err());
    }

    #[test]
    fn h3_ledger_rejects_an_off_by_one() {
        assert!(h3_ledger(10, 6, 4).is_ok());
        assert!(h3_ledger(10, 6, 5).is_err());
        assert!(h3_ledger(10, 5, 4).is_err());
        assert!(
            h3_ledger(0, 0, 0).is_err(),
            "an h3 universe opens QUIC connections"
        );
    }

    #[test]
    fn redundancy_order_rejects_inverted_policies() {
        assert!(redundancy_order(3458, 3828, 4056, 4868).is_ok());
        assert!(redundancy_order(3828, 3458, 4056, 4868).is_err());
        assert!(redundancy_order(3458, 4056, 3828, 4868).is_err());
        assert!(redundancy_order(3458, 3828, 4869, 4868).is_err());
        assert!(redundancy_order(0, 0, 0, 0).is_err());
    }

    #[test]
    fn faults_recovered_rejects_lost_work() {
        let ok = FaultOutcome {
            clean_pages: 1291,
            faulted_pages: 1291,
            clean_requests: 90_000,
            faulted_requests: 90_000,
            fault_events: 2000,
            recovery_rate: 1.0,
        };
        assert!(faults_recovered(&ok).is_ok());
        for bad in [
            FaultOutcome {
                recovery_rate: 0.9995,
                ..ok
            },
            FaultOutcome {
                faulted_pages: 1290,
                ..ok
            },
            FaultOutcome {
                faulted_requests: 89_999,
                ..ok
            },
            FaultOutcome {
                fault_events: 0,
                ..ok
            },
        ] {
            assert!(faults_recovered(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn wire_passive_and_serve_checks_reject_perturbed_counts() {
        assert!(wire_consistent(200, 200).is_ok());
        assert!(wire_consistent(199, 200).is_err());
        assert!(wire_consistent(0, 0).is_err());
        assert!(passive_order("p", 120, 400).is_ok());
        assert!(passive_order("p", 401, 400).is_err());
        assert!(passive_order("p", 0, 0).is_err());
        assert!(serve_visits(1000, 1000, 400, 600).is_ok());
        assert!(serve_visits(1000, 999, 400, 599).is_err());
        assert!(serve_visits(1000, 1000, 400, 599).is_err());
    }

    #[test]
    fn identical_reports_the_first_differing_byte() {
        assert!(identical("m", "{\"a\": 1}", "{\"a\": 1}").is_ok());
        let e = identical("m", "{\"a\": 1}", "{\"a\": 2}").unwrap_err();
        assert!(e.contains("byte 6"), "{e}");
        assert!(identical("m", "abc", "abcd").is_err());
    }

    #[test]
    fn plan_agreement_needs_both_counts() {
        assert!(plan_agrees(7, 3, 7, 3));
        assert!(!plan_agrees(7, 3, 12, 3));
        assert!(!plan_agrees(7, 3, 7, 4));
    }

    #[test]
    fn checks_collect_failures() {
        let mut c = Checks::default();
        c.record(Ok(()));
        assert!(c.is_correct());
        c.record(h3_ledger(1, 0, 0));
        assert!(!c.is_correct());
        assert_eq!(c.failures().len(), 1);
    }
}
