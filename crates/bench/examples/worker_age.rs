//! Worker-age gate: a crawl visit must cost the same on a worker that
//! has made thousands of visits as on one that has made a few.
//!
//!   cargo run --release -p origin-bench --example worker_age
//!
//! One 20,000-rank dataset. The timed visits are the last tenth of its
//! successful sites, each loaded the way a crawl worker loads it (page
//! materialization, DNS flush, Chromium load, recycled buffers). Two
//! workers load them:
//!
//! - old: one loader, env, page scratch and visit arena that first
//!   crawled every earlier site;
//! - young: fresh ones that first crawled only the `WARMUP` sites just
//!   before, enough to warm their buffers.
//!
//! Both time the same visits over the same dataset, so the dataset's
//! size (and how well it fits the CPU's caches) and the page mix
//! cancel out of old/young. What is left is per-worker state that grows
//! with the visits a worker has made. Rounds alternate young and old;
//! the gate keeps each worker's fastest of `ROUNDS` and exits 1 when
//! old/young exceeds `MAX_RATIO`. Both workers must also produce the
//! same loads.

use origin_browser::{BrowserKind, PageLoader, UniverseEnv, VisitArena};
use origin_netsim::SimRng;
use origin_webgen::{Dataset, DatasetConfig, PageScratch, SiteConfig};
use std::time::Instant;

const SITES: u32 = 20_000;
const WARMUP: usize = 200;
const ROUNDS: usize = 3;
const MAX_RATIO: f64 = 1.25;

/// Crawl `untimed` and then `timed` on one fresh worker; returns the
/// seconds spent on `timed` and a digest of its loads.
fn worker(dataset: &Dataset, untimed: &[SiteConfig], timed: &[SiteConfig]) -> (f64, u64) {
    let loader = PageLoader::new(BrowserKind::Chromium);
    let mut env = UniverseEnv::new(dataset);
    let mut scratch = PageScratch::new();
    let mut arena = VisitArena::new();
    // Returns a digest of the load.
    let mut visit = |site: &SiteConfig| {
        let page = dataset.page_for_with(site, &mut scratch);
        env.flush_dns();
        let mut rng = SimRng::seed_from_u64(site.page_seed ^ 0xC0A1E5CE);
        let load =
            loader.load_faulted_with(&page, &mut env, &mut rng, None, None, None, &mut arena);
        let digest = load.tls_connections().wrapping_mul(0x100_0000_01B3) ^ load.plt().to_bits();
        scratch.recycle(page);
        arena.recycle(load);
        digest
    };
    untimed.iter().for_each(|site| {
        visit(site);
    });
    let start = Instant::now();
    let digest = timed
        .iter()
        .fold(0u64, |acc, site| acc.rotate_left(7) ^ visit(site));
    (start.elapsed().as_secs_f64(), digest)
}

fn main() {
    let dataset = Dataset::generate(DatasetConfig {
        sites: SITES,
        ..Default::default()
    });
    let sites: Vec<SiteConfig> = dataset.successful_sites().cloned().collect();
    let split = sites.len() - sites.len() / 10;
    let (earlier, timed) = sites.split_at(split);
    let recent = &earlier[earlier.len() - WARMUP..];

    let (mut young, mut old) = (f64::INFINITY, f64::INFINITY);
    for round in 1..=ROUNDS {
        let (y, young_digest) = worker(&dataset, recent, timed);
        let (o, old_digest) = worker(&dataset, earlier, timed);
        assert_eq!(young_digest, old_digest, "a worker's age changed its loads");
        young = young.min(y);
        old = old.min(o);
        let per_visit = |s: f64| 1e6 * s / timed.len() as f64;
        println!(
            "round {round}/{ROUNDS}: {} visits, young worker {:.1} us/visit, old worker ({} visits before) {:.1} us/visit",
            timed.len(),
            per_visit(y),
            earlier.len(),
            per_visit(o),
        );
    }
    let ratio = old / young;
    println!("worker-age gate: best old/young {ratio:.3} (ceiling {MAX_RATIO})");
    if ratio > MAX_RATIO {
        eprintln!(
            "FAIL: a worker that made {} visits loads the same pages {ratio:.3}x slower than a fresh one: some per-worker state grows with the run",
            earlier.len()
        );
        std::process::exit(1);
    }
}
