//! Host wall-time benchmark of the EnGarde provisioning fleet.
//!
//! ```text
//! hostbench --workload <cold_distinct|warm_restart|same_binary_burst>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! hostbench --smoke [--work-dir <dir>]
//! ```
//!
//! Each run generates its workload's sessions from the seed, then runs
//! whole rounds until `--seconds` have passed. A round boots a fresh
//! fleet (`engarde_serve::ProvisioningService` on the virtual-time
//! backend), submits every session from one in-process client and
//! drains. Every verdict is checked against how its input was built.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! service rounds with a traced replay through the public provider and
//! client calls, runs the inner layers over the same inputs, and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--smoke` runs every workload at a tiny size in both modes.

mod fleet;
mod inputs;
mod sha256;
mod stats;
mod trace;

use fleet::{Failure, Round};
use inputs::{Session, Size, Workload};
use stats::{mean, median, percentile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The percentile behind `session_tail_ms`: full-size runs hold at
/// least 100 sessions, so at least ten lie beyond it.
const TAIL_PERCENTILE: f64 = 90.0;

/// Nominal clock of the paper's cost model (`engarde_sgx::perf`).
const MODEL_HZ: f64 = engarde_sgx::perf::CLOCK_GHZ * 1e9;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    work_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("hostbench: {msg}");
    eprintln!(
        "usage: hostbench --workload <cold_distinct|warm_restart|same_binary_burst> \
         --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] | --smoke"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
        work_dir: PathBuf::from("hostbench/work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !args.smoke && args.workload.is_none() {
        usage("--workload is required");
    }
    args
}

/// A metric as printed: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

/// Tally of checked sessions across a run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    /// A check that no input explains (anything but the known false
    /// PASS), or a run-wide invariant that broke.
    broken: bool,
    reported: std::collections::BTreeSet<String>,
}

impl Tally {
    fn add(&mut self, sessions: usize, failures: Vec<Failure>) {
        self.attempted += sessions;
        self.failed += failures.len();
        for f in failures {
            self.broken |= !f.known;
            let line = format!("failed check: {}: {}", f.session, f.reason);
            if self.reported.insert(line.clone()) {
                eprintln!("hostbench: {line}");
            }
        }
    }

    fn invariant(&mut self, holds: bool, what: &str) {
        if !holds {
            self.broken = true;
            eprintln!("hostbench: broken invariant: {what}");
        }
    }
}

/// Inputs and prepared state shared by both modes.
struct Prepared {
    traffic: Vec<Session>,
    /// Where `warm_restart` keeps the store its cold pass filled.
    store: Option<PathBuf>,
    /// The cold pass's verdicts, which warm rounds must reproduce.
    reference: Option<Vec<(bool, String)>>,
}

fn prepare(workload: Workload, seed: u64, size: &Size, work: &Path) -> Prepared {
    let traffic = inputs::traffic(workload, seed, size);
    let (store, reference) = if workload == Workload::WarmRestart {
        let dir = work.join("warm-store");
        let fill = fleet::run_round(workload, &traffic, Some(&dir));
        (Some(dir), Some(fleet::verdict_contents(&fill)))
    } else {
        (None, None)
    };
    Prepared {
        traffic,
        store,
        reference,
    }
}

/// One service round over the prepared inputs, checked.
fn service_round(
    workload: Workload,
    p: &Prepared,
    work: &Path,
    k: usize,
    tally: &mut Tally,
) -> Round {
    let fresh = work.join(format!("cold-store-{k}"));
    let store = match workload {
        Workload::ColdDistinct => Some(fresh.as_path()),
        Workload::WarmRestart => p.store.as_deref(),
        Workload::SameBinaryBurst => None,
    };
    let round = fleet::run_round(workload, &p.traffic, store);
    eprintln!(
        "hostbench: round {k}: setup {:.4} s, {:.4} sessions/s",
        round.setup_nanos as f64 / 1e9,
        round.verdicts() as f64 / (round.wall_nanos as f64 / 1e9)
    );
    if workload == Workload::ColdDistinct {
        let _ = std::fs::remove_dir_all(&fresh);
    }
    assert_eq!(
        round.reports.len(),
        p.traffic.len(),
        "one report per session"
    );
    for (r, s) in round.reports.iter().zip(&p.traffic) {
        assert_eq!(r.name, s.name, "reports come back in submission order");
    }
    let hits = round.reports.iter().filter(|r| r.cache_hit).count();
    match workload {
        Workload::ColdDistinct => {
            tally.invariant(hits == 0, "a cold session hit the verdict cache");
            tally.invariant(
                round.flushed == round.verdicts() as u64,
                "not every new verdict was sealed and flushed",
            );
        }
        Workload::WarmRestart => tally.invariant(
            hits == p.traffic.len(),
            "a warm session did not replay a hydrated verdict",
        ),
        Workload::SameBinaryBurst => {}
    }
    tally.add(
        p.traffic.len(),
        fleet::check(&p.traffic, &fleet::seen(&round), p.reference.as_deref()),
    );
    tally.invariant(round.epc_residue == 0, "EPC pages in use after drain");
    round
}

/// Model-cycle figures, which must repeat exactly from round to round.
fn model_signature(r: &Round) -> (u64, Vec<u64>) {
    (
        r.makespan_cycles,
        r.reports.iter().map(|x| x.cycles).collect(),
    )
}

fn run_end_to_end(workload: Workload, p: &Prepared, seconds: f64, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let mut rounds: Vec<Round> = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed() < budget {
        let round = service_round(workload, p, work, rounds.len(), &mut tally);
        if let Some(first) = rounds.first() {
            tally.invariant(
                model_signature(first) == model_signature(&round),
                "model cycles differ between identical rounds",
            );
        }
        rounds.push(round);
    }

    let verdicts: usize = rounds.iter().map(Round::verdicts).sum();
    let wall: u64 = rounds.iter().map(|r| r.wall_nanos).sum();
    let session_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.reports)
        .filter(|r| r.reached_verdict())
        .map(|r| r.wall_nanos as f64 / 1e6)
        .collect();
    let setup_s: Vec<f64> = rounds.iter().map(|r| r.setup_nanos as f64 / 1e9).collect();
    let first = &rounds[0];
    let model_cycles: Vec<f64> = first
        .reports
        .iter()
        .filter(|r| r.reached_verdict())
        .map(|r| r.cycles as f64)
        .collect();
    eprintln!(
        "hostbench: {} rounds, {} sessions timed, tail = p{TAIL_PERCENTILE}",
        rounds.len(),
        session_ms.len()
    );
    Outcome {
        correct: !tally.broken,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            (
                "sessions_per_s",
                verdicts as f64 / (wall as f64 / 1e9),
                "1/s",
            ),
            ("session_p50_ms", median(&session_ms), "ms"),
            (
                "session_tail_ms",
                percentile(&session_ms, TAIL_PERCENTILE),
                "ms",
            ),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mib", stats::peak_rss_mib(), "MiB"),
            (
                "model_mcycles_per_session",
                mean(&model_cycles) / 1e6,
                "Mcycles",
            ),
            (
                "model_sessions_per_s",
                first.verdicts() as f64 / (first.makespan_cycles as f64 / MODEL_HZ),
                "1/s",
            ),
        ],
    }
}

fn run_traced(
    workload: Workload,
    p: &Prepared,
    seconds: f64,
    size: &Size,
    work: &Path,
    spans_out: &Path,
) -> Outcome {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let musl = fleet::policy_databases(&p.traffic);
    let n = p.traffic.len();
    let mut rounds: Vec<Round> = Vec::new();
    let mut replays: Vec<trace::Replay> = Vec::new();
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed() < budget {
        let round = service_round(workload, p, work, rounds.len(), &mut tally);
        if let Some(first) = rounds.first() {
            tally.invariant(
                model_signature(first) == model_signature(&round),
                "model cycles differ between identical rounds",
            );
        }
        let placement: Vec<usize> = round.reports.iter().map(|r| r.shard).collect();
        rounds.push(round);
        let cache = trace::replay_cache(workload, n, p.store.as_deref());
        let replay = trace::replay(&mut tracer, workload, &p.traffic, &musl, &cache, &placement);
        tally.add(
            n,
            fleet::check(&p.traffic, &replay.verdicts, p.reference.as_deref()),
        );
        replays.push(replay);
    }
    let reps = if workload == Workload::SameBinaryBurst {
        size.burst_sessions.min(8)
    } else {
        1
    };
    let records = &replays.last().expect("at least one replay").records;
    let layers = trace::layer_pass(
        &mut tracer,
        workload,
        &p.traffic,
        &musl,
        records,
        work,
        reps,
    );
    if let Err(e) = tracer.write_jsonl(spans_out) {
        eprintln!(
            "hostbench: cannot write spans to {}: {e}",
            spans_out.display()
        );
    }

    let replayed = tracer.count("session");
    let per_session = |name: &str| tracer.total(name) as f64 / 1e6 / replayed as f64;
    let mut metrics: Metrics = trace::PROTOCOL_SPANS
        .iter()
        .map(|&(span, metric)| (metric, per_session(span), "ms"))
        .collect();

    let served: usize = rounds.iter().map(|r| r.reports.len()).sum();
    let overhead: u64 = rounds.iter().map(Round::overhead_nanos).sum();
    metrics.push((
        "serve.overhead_ms",
        overhead as f64 / 1e6 / served as f64,
        "ms",
    ));
    metrics.extend(layers);

    let first = &rounds[0];
    let c = &first.counters;
    let probes = c.cache_hits + c.cache_misses;
    metrics.push((
        "cache.hit_ratio",
        if probes == 0 {
            0.0
        } else {
            c.cache_hits as f64 / probes as f64
        },
        "ratio",
    ));
    let reached: Vec<_> = first
        .reports
        .iter()
        .filter(|r| r.reached_verdict())
        .collect();
    let stage_mean = |f: &dyn Fn(&engarde_serve::SessionReport) -> u64| {
        reached.iter().map(|r| f(r) as f64).sum::<f64>() / reached.len().max(1) as f64 / 1e6
    };
    metrics.push((
        "model.receive_decrypt_mcycles",
        stage_mean(&|r| r.stages.receive_decrypt),
        "Mcycles",
    ));
    metrics.push((
        "model.disassembly_mcycles",
        stage_mean(&|r| r.stages.disassembly),
        "Mcycles",
    ));
    metrics.push((
        "model.policy_mcycles",
        stage_mean(&|r| r.stages.policy_checking),
        "Mcycles",
    ));
    metrics.push((
        "model.loading_mcycles",
        stage_mean(&|r| r.stages.loading_relocation),
        "Mcycles",
    ));
    metrics.push((
        "model.protocol_mcycles",
        stage_mean(&|r| r.cycles - r.stages.total()),
        "Mcycles",
    ));
    metrics.push(("serve.steals", first.sched.steals as f64, "count"));
    metrics.push(("serve.batches", first.sched.batches as f64, "count"));
    metrics.push((
        "core.instructions_per_session",
        mean(
            &reached
                .iter()
                .map(|r| r.instructions as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    ));

    // Coverage, within the traced replay: how much of the session spans
    // the protocol spans under them account for.
    let protocol: u64 = trace::PROTOCOL_SPANS
        .iter()
        .map(|(span, _)| tracer.total(span))
        .sum();
    let coverage = protocol as f64 / tracer.total("session") as f64;
    tally.invariant(
        coverage >= 0.9,
        &format!("protocol spans cover only {coverage:.3} of the session spans"),
    );
    metrics.push(("trace.coverage", coverage, "ratio"));
    metrics.push((
        "trace.session_self_ms",
        tracer.self_time("session") as f64 / 1e6 / replayed as f64,
        "ms",
    ));
    // The replay and the service rounds are separate executions, so
    // their gap holds the host's drift as well as the spans' cost.
    let untraced_sps = rounds.iter().map(Round::verdicts).sum::<usize>() as f64
        / (rounds.iter().map(|r| r.wall_nanos).sum::<u64>() as f64 / 1e9);
    let traced_sps =
        replayed as f64 / (replays.iter().map(|r| r.wall_nanos).sum::<u64>() as f64 / 1e9);
    metrics.push(("trace.sessions_per_s", traced_sps, "1/s"));
    metrics.push((
        "trace.replay_gap_pct",
        100.0 * (untraced_sps - traced_sps) / untraced_sps,
        "%",
    ));

    Outcome {
        correct: !tally.broken,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: &Size,
    work_dir: &Path,
) -> Outcome {
    let work = work_dir.join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap_or_else(|e| {
        eprintln!("hostbench: cannot create {}: {e}", work.display());
        std::process::exit(1)
    });
    let prepared = prepare(workload, seed, size, &work);
    let outcome = if traced {
        let spans = work_dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        run_traced(workload, &prepared, seconds, size, &work, &spans)
    } else {
        run_end_to_end(workload, &prepared, seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() {
    let args = parse_args();
    if args.smoke {
        let mut all_correct = true;
        for workload in Workload::ALL {
            for traced in [false, true] {
                let o = run(
                    workload,
                    args.seed,
                    0.0,
                    traced,
                    &Size::SMOKE,
                    &args.work_dir,
                );
                all_correct &= o.correct && o.attempted > 0;
                println!(
                    "{} trace={}: {}",
                    workload.name(),
                    u8::from(traced),
                    json(&o)
                );
            }
        }
        if !all_correct {
            std::process::exit(1);
        }
        return;
    }
    let workload = args.workload.expect("checked in parse_args");
    let o = run(
        workload,
        args.seed,
        args.seconds,
        args.trace,
        &Size::FULL,
        &args.work_dir,
    );
    println!("{}", json(&o));
}
