//! One measured round: boot a fresh fleet, submit a workload's
//! sessions from one in-process client, drain, and check every verdict.
//!
//! The load is a closed loop from a single thread: the virtual-time
//! backend runs each session inline inside `submit` and `drain`, so the
//! wall clock measures the program, not the OS scheduler.

use crate::inputs::{Session, Workload, KNOWN_FALSE_PASS};
use engarde_core::loader::LoaderConfig;
use engarde_core::provision::BootstrapSpec;
use engarde_crypto::sha256::Digest;
use engarde_serve::metrics::{CounterSnapshot, SchedSnapshot};
use engarde_serve::persist::StoreConfig;
use engarde_serve::regimes;
use engarde_serve::{
    BatchPolicy, ProvisioningService, SchedMode, ServiceConfig, SessionReport, SessionRequest,
    SessionRunConfig,
};
use engarde_sgx::machine::MachineConfig;
use engarde_workloads::traffic::PolicyRegime;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub type Musl = Arc<HashMap<String, Digest>>;

/// The fleet's hardware. The machine seed is fleet identity, not
/// input: it stays fixed so every seed's traffic meets the same device
/// keys and the same per-enclave key-generation work.
pub fn machine(workload: Workload) -> MachineConfig {
    MachineConfig {
        seed: match workload {
            Workload::ColdDistinct | Workload::WarmRestart => 0x000F_1EE7_C01D,
            Workload::SameBinaryBurst => 0x000F_1EE7_B0B5,
        },
        ..MachineConfig::default()
    }
}

/// The inspector identity the store is sealed under.
fn seal_spec() -> BootstrapSpec {
    BootstrapSpec::new("EnGarde-1.0", LoaderConfig::default(), &[], 64, 512)
}

/// Builds the policy databases a workload's regimes read.
pub fn policy_databases(traffic: &[Session]) -> Musl {
    if traffic
        .iter()
        .any(|s| s.regime == PolicyRegime::LibraryLinking)
    {
        Arc::new(regimes::musl_hashes())
    } else {
        Arc::new(HashMap::new())
    }
}

/// A store at `dir`, sealed under the fleet's inspector identity.
pub fn store_config(workload: Workload, dir: &Path) -> StoreConfig {
    StoreConfig::sealed_at(dir, &machine(workload), &seal_spec())
}

pub fn service_config(workload: Workload, sessions: usize, store: Option<&Path>) -> ServiceConfig {
    let machine = machine(workload);
    let store = store.map(|dir| store_config(workload, dir));
    match workload {
        Workload::ColdDistinct | Workload::WarmRestart => ServiceConfig {
            shards: 2,
            mode: SchedMode::VirtualTime {
                arrival_gap: 2_000_000,
            },
            machine,
            queue_capacity: sessions,
            run: SessionRunConfig::default(),
            verdict_cache: Some(4 * sessions),
            faults: None,
            store,
            batch: None,
            steal: true,
        },
        Workload::SameBinaryBurst => ServiceConfig {
            shards: 4,
            mode: SchedMode::VirtualTime {
                arrival_gap: 200_000,
            },
            machine,
            queue_capacity: sessions,
            run: SessionRunConfig::default(),
            verdict_cache: Some(64),
            faults: None,
            store: None,
            batch: Some(BatchPolicy::default()),
            steal: true,
        },
    }
}

pub fn request(session: &Session, musl: &Musl) -> SessionRequest {
    SessionRequest {
        name: session.name.clone(),
        binary: session.image.clone(),
        spec: regimes::spec_for(session.image.len(), session.regime, musl),
        policies: regimes::policy_factory(session.regime, musl),
        client_seed: session.client_seed,
        stall_after: None,
        shard_hint: None,
    }
}

/// Everything one round measured.
pub struct Round {
    /// Policy databases plus `ProvisioningService::start`.
    pub setup_nanos: u64,
    /// First submit to the return of `drain`.
    pub wall_nanos: u64,
    pub reports: Vec<SessionReport>,
    pub makespan_cycles: u64,
    pub counters: CounterSnapshot,
    pub sched: SchedSnapshot,
    /// EPC pages still in use on any shard after drain.
    pub epc_residue: usize,
    /// Verdicts sealed and flushed to the store.
    pub flushed: u64,
}

impl Round {
    /// Sessions that reached a verdict.
    pub fn verdicts(&self) -> usize {
        self.reports.iter().filter(|r| r.reached_verdict()).count()
    }

    /// Service wall time not spent inside a session: admission, deques,
    /// metrics, cache and store flush.
    pub fn overhead_nanos(&self) -> u64 {
        let inside: u64 = self.reports.iter().map(|r| r.wall_nanos).sum();
        self.wall_nanos.saturating_sub(inside)
    }
}

/// Boots a fleet over `store` (if any), runs `traffic` through it and
/// drains it.
pub fn run_round(workload: Workload, traffic: &[Session], store: Option<&Path>) -> Round {
    let t0 = Instant::now();
    let musl = policy_databases(traffic);
    let mut svc = ProvisioningService::start(service_config(workload, traffic.len(), store));
    let setup_nanos = t0.elapsed().as_nanos() as u64;

    let requests: Vec<SessionRequest> = traffic.iter().map(|s| request(s, &musl)).collect();
    let t1 = Instant::now();
    for req in requests {
        let name = req.name.clone();
        if let Err(e) = svc.submit(req) {
            panic!("admission refused {name}: {e}");
        }
    }
    let result = svc.drain();
    let wall_nanos = t1.elapsed().as_nanos() as u64;

    let epc_residue = result
        .shards
        .iter()
        .map(|s| s.provider().host().machine().epc_used_pages())
        .sum();
    Round {
        setup_nanos,
        wall_nanos,
        makespan_cycles: result.makespan_cycles,
        counters: result.metrics.counters(),
        sched: result.metrics.sched_stats(),
        flushed: result.metrics.store_stats().flushed,
        reports: result.reports,
        epc_residue,
    }
}

/// A session that failed a check, with its reason.
pub struct Failure {
    pub session: String,
    pub reason: String,
    /// Whether this is the known false PASS the benchmark tracks.
    pub known: bool,
}

/// A verdict as the benchmark saw it.
pub struct Seen {
    pub compliant: bool,
    pub detail: String,
    pub digest: [u8; 32],
    /// Whether the tenant's client accepted the signature.
    pub accepted: bool,
}

/// Checks one session's verdict against the facts fixed by how its
/// input was built; `reference` is a cold pass's `(compliant, detail)`,
/// which a warm replay must reproduce.
fn judge(
    session: &Session,
    seen: Option<&Seen>,
    reference: Option<&(bool, String)>,
) -> Option<Failure> {
    let fail = |reason: String, known: bool| {
        Some(Failure {
            session: session.name.clone(),
            reason,
            known,
        })
    };
    let Some(seen) = seen else {
        return fail("no verdict".into(), false);
    };
    if seen.compliant != session.expect_compliant {
        return fail(
            format!(
                "signed {} but the input was built to {}",
                if seen.compliant { "PASS" } else { "REJECT" },
                if session.expect_compliant {
                    "pass"
                } else {
                    "be rejected"
                }
            ),
            seen.compliant && session.kind == KNOWN_FALSE_PASS,
        );
    }
    if seen.digest != session.digest {
        return fail(
            "verdict digest is not the SHA-256 of the bytes sent".into(),
            false,
        );
    }
    if !seen.accepted {
        return fail(
            "the client did not accept the verdict signature".into(),
            false,
        );
    }
    if reference.is_some_and(|(c, d)| (*c, d.as_str()) != (seen.compliant, seen.detail.as_str())) {
        return fail("warm verdict differs from the cold pass".into(), false);
    }
    None
}

/// The verdict of each report, as the benchmark saw it.
pub fn seen(round: &Round) -> Vec<Option<Seen>> {
    round
        .reports
        .iter()
        .map(|r| {
            let v = r.verdict.as_ref().filter(|_| r.reached_verdict())?;
            Some(Seen {
                compliant: v.compliant,
                detail: v.detail.clone(),
                digest: *v.content_digest.as_bytes(),
                accepted: r.client_verified,
            })
        })
        .collect()
}

/// Judges every session of a run of `traffic`.
pub fn check(
    traffic: &[Session],
    seen: &[Option<Seen>],
    reference: Option<&[(bool, String)]>,
) -> Vec<Failure> {
    assert_eq!(seen.len(), traffic.len(), "one verdict slot per session");
    traffic
        .iter()
        .zip(seen)
        .enumerate()
        .filter_map(|(i, (s, v))| judge(s, v.as_ref(), reference.map(|r| &r[i])))
        .collect()
}

/// `(compliant, detail)` per session of a round, for warm comparison.
pub fn verdict_contents(round: &Round) -> Vec<(bool, String)> {
    seen(round)
        .into_iter()
        .map(|v| v.map_or((false, String::new()), |v| (v.compliant, v.detail)))
        .collect()
}
