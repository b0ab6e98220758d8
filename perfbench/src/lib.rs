//! End-to-end and per-layer benchmark of the reproduction.
//!
//! ```text
//! origin-perfbench        --workload crawl|mixed|serve --seed N --seconds S --trace 0
//! origin-perfbench-traced --workload crawl|mixed|serve --seed N --seconds S --trace 1
//! ```
//!
//! `--trace 0` runs whole rounds of the workload through the program's
//! entry points for `--seconds`, spread over several fresh processes,
//! checks every round's outputs, and prints the end-to-end metrics.
//! It runs in `origin-perfbench`, on the system allocator as the
//! program ships with it. `--trace 1` runs the traced ledger instead,
//! prints the per-layer metrics and writes the spans to `SPANS_DIR`.
//! It runs in `origin-perfbench-traced`, whose counting global
//! allocator gives each span its allocation count. The last line of
//! standard output is one JSON object; see README.md.

mod checks;
mod ledger;
pub mod sys;
mod workloads;

use checks::Checks;
use ledger::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::{Inputs, Workload};

#[cfg(test)]
#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Processes per end-to-end run. The same rounds run at speeds that
/// differ more between processes than between rounds of one process
/// (memory layout, which malloc arena each worker thread lands on), so
/// a run spreads its rounds over several fresh processes.
const PROCESSES: u32 = 5;
/// Set-ups per process. The first warms the allocator and the caches
/// and is not counted; `setup_s` is the median of the others over the
/// run's processes.
const SETUP_REPEATS: usize = 6;
/// Where a traced run writes its spans, relative to the checkout root
/// it runs from.
const SPANS_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one part of an end-to-end run for this many ms.
    part_ms: Option<u64>,
}

const USAGE: &str =
    "usage: origin-perfbench --workload crawl|mixed|serve --seed N --seconds S --trace 0|1";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part_ms = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| die(&format!("unknown workload {v:?}"))),
                );
            }
            "--seed" => {
                let v = value();
                seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| die(&format!("bad seed {v:?}"))),
                );
            }
            "--seconds" => {
                let v = value();
                seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|&s: &u64| (1..=600).contains(&s))
                        .unwrap_or_else(|| die(&format!("--seconds must be 1..=600, got {v:?}"))),
                );
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    v => die(&format!("--trace must be 0 or 1, got {v:?}")),
                });
            }
            "--part-ms" => {
                let v = value();
                part_ms = Some(
                    v.parse()
                        .unwrap_or_else(|_| die(&format!("bad --part-ms {v:?}"))),
                );
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| die("--workload is required")),
        seed: seed.unwrap_or_else(|| die("--seed is required")),
        seconds: seconds.unwrap_or_else(|| die("--seconds is required")),
        trace: trace.unwrap_or_else(|| die("--trace is required")),
        part_ms,
    }
}

struct Outcome {
    checks: Checks,
    attempted: u64,
    failed: u64,
    /// Name → (value, unit).
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

/// One process's share of an end-to-end run.
struct Part {
    attempted: u64,
    failed: u64,
    /// Checks that failed (each already printed to standard error).
    check_failures: usize,
    peak_rss_mb: f64,
    setup_s: Vec<f64>,
    rates: Vec<f64>,
    cpus: Vec<f64>,
}

const PART_TAG: &str = "perfbench-part";

impl Part {
    /// One line: tag, four scalars, then three comma-separated lists.
    fn to_line(&self) -> String {
        let list = |xs: &[f64]| xs.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "{PART_TAG} {} {} {} {} {} {} {}",
            self.attempted,
            self.failed,
            self.check_failures,
            self.peak_rss_mb,
            list(&self.setup_s),
            list(&self.rates),
            list(&self.cpus)
        )
    }

    fn parse(line: &str) -> Option<Part> {
        let f: Vec<&str> = line.split(' ').collect();
        let list = |s: &str| {
            s.split(',')
                .map(str::parse)
                .collect::<Result<Vec<f64>, _>>()
        };
        match f.as_slice() {
            [PART_TAG, attempted, failed, check_failures, rss, setup, rates, cpus] => Some(Part {
                attempted: attempted.parse().ok()?,
                failed: failed.parse().ok()?,
                check_failures: check_failures.parse().ok()?,
                peak_rss_mb: rss.parse().ok()?,
                setup_s: list(setup).ok()?,
                rates: list(rates).ok()?,
                cpus: list(cpus).ok()?,
            }),
            _ => None,
        }
    }
}

/// Set up, then run whole rounds until `budget` has passed, with
/// tracing off; the round that crosses the deadline is finished.
fn part(w: Workload, seed: u64, budget: Duration) -> Part {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for i in 0..SETUP_REPEATS {
        drop(inputs.take());
        let (built, secs) = workloads::setup(w, seed);
        if i > 0 {
            setup_s.push(secs);
        }
        inputs = Some(built);
    }
    let inputs = inputs.expect("SETUP_REPEATS > 0");

    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0, 0);
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + budget;
    loop {
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let out = black_box(workloads::round(w, &inputs, seed));
        let wall = t0.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds() - cpu0;
        let visits = out.visits();
        eprintln!(
            "# {} round: {visits} visits in {wall:.3} s wall, {cpu:.3} s CPU",
            w.name()
        );
        rates.push(visits as f64 / wall);
        cpus.push(cpu);
        attempted += visits;
        checks.extend(workloads::check_round(&out));
        drop(out);
        if let Inputs::Serve { dataset, plans } = &inputs {
            let (checked, disagree) = workloads::plan_disagreements(dataset, plans);
            attempted += checked;
            failed += disagree;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    for failure in checks.failures() {
        eprintln!("# check failed: {failure}");
    }
    Part {
        attempted,
        failed,
        check_failures: checks.failures().len(),
        peak_rss_mb: sys::peak_rss_mb(),
        setup_s,
        rates,
        cpus,
    }
}

/// The end-to-end run, tracing off: `PROCESSES` fresh processes, one
/// after another, each running `part` for its share of `seconds`. The
/// metrics are medians over every round (and every counted set-up, and
/// every process's peak RSS) of the run.
fn end_to_end(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("no executable path: {e}")));
    let share_ms = seconds * 1000 / u64::from(PROCESSES);
    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0, 0);
    let (mut setup_s, mut rates, mut cpus, mut rss) = (vec![], vec![], vec![], vec![]);
    for i in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .args(["--part-ms", &share_ms.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .unwrap_or_else(|e| die(&format!("cannot start part {i}: {e}")));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let p = stdout
            .lines()
            .last()
            .filter(|_| out.status.success())
            .and_then(Part::parse)
            .unwrap_or_else(|| die(&format!("part {i} failed: {}", out.status)));
        attempted += p.attempted;
        failed += p.failed;
        if p.check_failures > 0 {
            checks.record(Err(format!(
                "{} checks failed in part {i}",
                p.check_failures
            )));
        }
        setup_s.extend(p.setup_s);
        rates.extend(p.rates);
        cpus.extend(p.cpus);
        rss.push(p.peak_rss_mb);
    }
    eprintln!(
        "# {}: {} rounds in {PROCESSES} processes, set-up {:.3} s",
        w.name(),
        rates.len(),
        median(setup_s.clone())
    );
    // Here, not in a part, so its second worker thread (and the malloc
    // arena that thread gets) stays out of every part's peak RSS.
    let (inputs, _) = workloads::setup(w, seed);
    checks.record(workloads::thread_identity(w, seed, &inputs));
    let metrics = BTreeMap::from([
        ("visits_per_s", (median(rates), "1/s")),
        ("cpu_s", (median(cpus), "s")),
        ("setup_s", (median(setup_s), "s")),
        ("peak_rss_mb", (median(rss), "MB")),
    ]);
    Outcome {
        checks,
        attempted,
        failed,
        metrics,
    }
}

/// The traced ledger of `w` first, then those of the other workloads,
/// so every per-layer metric is present: a metric two ledgers both
/// give is taken from `w`'s. Operations are counted on `w`'s alone.
fn traced(w: Workload, seed: u64) -> Outcome {
    let order = std::iter::once(w).chain(Workload::ALL.into_iter().filter(|&o| o != w));
    let mut outcome = Outcome {
        checks: Checks::default(),
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    let units: BTreeMap<&str, &str> = ledger::PER_LAYER.into_iter().collect();
    for (i, l) in order.enumerate() {
        let start = Instant::now();
        let t = ledger::ledger_of(l, seed);
        eprintln!(
            "# traced {}: {} spans in {:.2} s",
            l.name(),
            t.ledger.len(),
            start.elapsed().as_secs_f64()
        );
        if i == 0 {
            outcome.attempted = t.attempted;
            outcome.failed = t.failed;
        }
        let path = format!("{SPANS_DIR}/spans-{}-{seed}.json", l.name());
        let written = std::fs::create_dir_all(SPANS_DIR)
            .and_then(|()| std::fs::write(&path, t.ledger.to_chrome_json()));
        if let Err(e) = written {
            die(&format!("cannot write {path}: {e}"));
        }
        outcome.checks.extend(t.checks);
        for (name, value) in t.metrics {
            let unit = units
                .get(name)
                .unwrap_or_else(|| panic!("{name} is not in ledger::PER_LAYER"));
            outcome.metrics.entry(name).or_insert((value, unit));
        }
    }
    for (name, _) in ledger::PER_LAYER {
        assert!(
            outcome.metrics.contains_key(name),
            "traced run did not measure {name}"
        );
    }
    outcome
}

/// Run the benchmark as its command line asks. `counting_allocator`
/// says whether the calling binary installed `sys::CountingAlloc`:
/// traced runs need it and end-to-end runs must go without it.
pub fn main(counting_allocator: bool) {
    let args = parse_args();
    if args.trace != counting_allocator {
        die(if args.trace {
            "--trace 1 runs in origin-perfbench-traced, which counts allocations"
        } else {
            "--trace 0 runs in origin-perfbench, on the system allocator"
        });
    }
    if let Some(ms) = args.part_ms {
        let p = part(args.workload, args.seed, Duration::from_millis(ms));
        println!("{}", p.to_line());
        return;
    }
    let outcome = if args.trace {
        traced(args.workload, args.seed)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    for failure in outcome.checks.failures() {
        eprintln!("# check failed: {failure}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            assert!(value.is_finite(), "{name} is not a finite number: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.is_correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
