//! The traced run: per-layer host time from spans recorded around
//! calls into each crate's public functions, from outside the program.
//!
//! Two parts. The protocol replay drives each generated session through
//! the public provider and client calls the service's session state
//! machine makes, one span per call under one span per session. The
//! layer pass then runs the inner-layer functions (key generation,
//! hashing, EPC page work, parse, decode, load, each regime's policies,
//! relocation, store append and recovery) over the same inputs.
//! Spans stay in memory and are written out as JSON lines at the end.

use crate::fleet::{self, Musl, Seen};
use crate::inputs::{derive, Session, Workload};
use engarde_core::cache::{lock_cache, shared_cache, CacheKey, CachedVerdict, SharedVerdictCache};
use engarde_core::client::Client;
use engarde_core::loader::{load, LoaderConfig};
use engarde_core::policy::{run_policies_with_cache, AnalysisCache};
use engarde_core::provider::CloudProvider;
use engarde_core::provision::DEFAULT_ENCLAVE_BASE;
use engarde_core::relocate::map_and_relocate;
use engarde_crypto::aes::{ctr_xor, AesKey};
use engarde_crypto::rsa::RsaKeyPair;
use engarde_crypto::sha256::Sha256;
use engarde_elf::parse::ElfFile;
use engarde_rand::{SeedableRng, StdRng};
use engarde_serve::regimes;
use engarde_sgx::epc::{PagePerms, PAGE_SIZE};
use engarde_sgx::machine::SgxMachine;
use engarde_store::{StoreOptions, VerdictStore};
use engarde_workloads::traffic::PolicyRegime;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Index of the session (or input) the span worked on.
    pub session: Option<usize>,
}

/// An in-memory span recorder; nesting follows the call stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, session: Option<usize>) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            session,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        session: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, session);
        let out = f();
        self.exit(id);
        out
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of every span called `name`: its duration minus the
    /// time its child spans cover.
    pub fn self_time(&self, name: &str) -> u64 {
        let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end - s.start).saturating_sub(covered.get(&i).copied().unwrap_or(0)))
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"session\": {}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.session)
            )?;
        }
        out.flush()
    }
}

/// The protocol calls the session state machine makes, in order, and
/// the metric each span feeds.
pub const PROTOCOL_SPANS: [(&str, &str); 8] = [
    ("core.create_enclave", "core.create_enclave_ms"),
    ("core.attest", "core.attest_ms"),
    ("core.channel", "core.channel_ms"),
    ("core.seal_blocks", "core.seal_blocks_ms"),
    ("core.deliver", "core.deliver_ms"),
    ("core.inspect", "core.inspect_ms"),
    ("core.verify_verdict", "core.verify_verdict_ms"),
    ("core.close", "core.close_ms"),
];

/// What one traced replay saw.
pub struct Replay {
    pub wall_nanos: u64,
    pub verdicts: Vec<Option<Seen>>,
    /// Every verdict the replay's cache holds, keyed as the program keys
    /// them: the records a store would persist.
    pub records: Vec<(CacheKey, CachedVerdict)>,
}

/// The verdict cache a replay attaches: fresh for cold traffic, the
/// hydrated store for a warm restart, shared across the burst.
pub fn replay_cache(
    workload: Workload,
    sessions: usize,
    store: Option<&Path>,
) -> SharedVerdictCache {
    let cache = shared_cache(4 * sessions.max(16));
    if let (Workload::WarmRestart, Some(dir)) = (workload, store) {
        let sc = fleet::store_config(workload, dir);
        let (store, _) = VerdictStore::open(&sc.dir, &sc.seal_key, StoreOptions::default())
            .expect("the prepared store opens");
        store.hydrate_into(&mut lock_cache(&cache));
    }
    cache
}

/// Replays `traffic` through the public provider and client calls,
/// one span per protocol call. Session `i` runs on a provider built
/// like shard `placement[i]` of the fleet, in submission order, so the
/// replay draws the same enclave keys the service's round drew.
pub fn replay(
    tracer: &mut Tracer,
    workload: Workload,
    traffic: &[Session],
    musl: &Musl,
    cache: &SharedVerdictCache,
    placement: &[usize],
) -> Replay {
    let shards = placement.iter().max().map_or(1, |m| m + 1);
    let mut providers: Vec<CloudProvider> = (0..shards)
        .map(|i| {
            let mut p = CloudProvider::new(fleet::machine(workload).shard(i));
            p.set_verdict_cache(cache.clone());
            p
        })
        .collect();
    let prepared: Vec<_> = traffic
        .iter()
        .map(|s| {
            (
                regimes::spec_for(s.image.len(), s.regime, musl),
                regimes::policy_factory(s.regime, musl),
            )
        })
        .collect();
    let t0 = Instant::now();
    let mut verdicts = Vec::with_capacity(traffic.len());
    for (i, (s, (spec, policies))) in traffic.iter().zip(&prepared).enumerate() {
        let sid = Some(i);
        let provider = &mut providers[placement[i]];
        let root = tracer.enter("session", sid);
        let (id, mut client) = tracer.span("core.create_enclave", sid, || {
            let id = provider
                .create_engarde_enclave(spec.clone(), policies())
                .expect("create enclave");
            let client = Client::new(
                s.image.clone(),
                spec,
                DEFAULT_ENCLAVE_BASE,
                provider.device_public_key(),
                s.client_seed,
            );
            (id, client)
        });
        let key = tracer.span("core.attest", sid, || {
            let nonce = client.challenge();
            let quote = provider.attest(id, nonce).expect("attest");
            let key = provider.enclave_public_key(id).expect("enclave key");
            client.verify_quote(&quote, &key).expect("quote verifies");
            key
        });
        tracer.span("core.channel", sid, || {
            let wrapped = client.establish_channel(&key).expect("channel");
            provider.open_channel(id, &wrapped).expect("open channel");
        });
        let blocks = tracer.span("core.seal_blocks", sid, || {
            client.content_blocks().expect("seal blocks")
        });
        tracer.span("core.deliver", sid, || {
            for block in &blocks {
                provider.deliver(id, block).expect("deliver");
                provider.content_complete(id).expect("session exists");
            }
        });
        let view = tracer.span("core.inspect", sid, || {
            provider.inspect_and_provision(id).expect("inspect")
        });
        let seen = tracer.span("core.verify_verdict", sid, || {
            let verdict = provider.signed_verdict(id).expect("signed verdict").clone();
            let accepted =
                matches!(client.verify_verdict(&verdict, &key), Ok(c) if c == view.compliant);
            Seen {
                compliant: verdict.compliant,
                detail: verdict.detail,
                digest: *verdict.content_digest.as_bytes(),
                accepted,
            }
        });
        tracer.span("core.close", sid, || {
            provider.close_session(id).expect("close")
        });
        tracer.exit(root);
        verdicts.push(Some(seen));
    }
    let wall_nanos = t0.elapsed().as_nanos() as u64;
    for p in &providers {
        assert_eq!(
            p.host().machine().epc_used_pages(),
            0,
            "the replay leaves no EPC pages in use"
        );
    }

    let mut records: Vec<(CacheKey, CachedVerdict)> = Vec::new();
    let mut cache = lock_cache(cache);
    for (s, (spec, _)) in traffic.iter().zip(&prepared) {
        let key = CacheKey::derive(&spec.to_bootstrap_bytes(), &Sha256::digest(&s.image));
        if records.iter().any(|(k, _)| k == &key) {
            continue;
        }
        if let Some(v) = cache.lookup(&key) {
            records.push((key, v));
        }
    }
    Replay {
        wall_nanos,
        verdicts,
        records,
    }
}

/// Per-layer figures of the layer pass, in the units the benchmark
/// reports.
pub type Layers = Vec<(&'static str, f64, &'static str)>;

/// Each regime's policy span and the metric it feeds.
const REGIME_SPANS: [(PolicyRegime, &str, &str); 4] = [
    (
        PolicyRegime::LibraryLinking,
        "core.policy.library_linking",
        "core.policy.library_linking_ms",
    ),
    (
        PolicyRegime::StackProtection,
        "core.policy.stack_protection",
        "core.policy.stack_protection_ms",
    ),
    (
        PolicyRegime::Ifcc,
        "core.policy.ifcc",
        "core.policy.ifcc_ms",
    ),
    (
        PolicyRegime::Analysis,
        "core.policy.analysis",
        "core.policy.analysis_ms",
    ),
];

/// Runs each inner layer over the distinct inputs of `traffic`, `reps`
/// times, inside spans, and returns per-input figures.
pub fn layer_pass(
    tracer: &mut Tracer,
    workload: Workload,
    traffic: &[Session],
    musl: &Musl,
    records: &[(CacheKey, CachedVerdict)],
    work_dir: &Path,
    reps: usize,
) -> Layers {
    let mut distinct: Vec<&Session> = Vec::new();
    for s in traffic {
        if !distinct.iter().any(|d| d.digest == s.digest) {
            distinct.push(s);
        }
    }
    let inputs = distinct.len() * reps;
    let bytes: usize = distinct.iter().map(|s| s.image.len()).sum::<usize>() * reps;
    let machine_seed = fleet::machine(workload).seed;
    let mut provider = CloudProvider::new(fleet::machine(workload).shard(1));
    let mut m = SgxMachine::new(fleet::machine(workload).shard(2));
    let ms = |nanos: u64, n: usize| nanos as f64 / 1e6 / n.max(1) as f64;
    let mut out: Layers = Vec::new();
    let mut pages_added = 0usize;

    for rep in 0..reps {
        for (i, s) in distinct.iter().enumerate() {
            let sid = Some(i);
            let spec = regimes::spec_for(s.image.len(), s.regime, musl);
            let mut rng =
                StdRng::seed_from_u64(derive(machine_seed, (rep * distinct.len() + i) as u64));
            tracer.span("crypto.rsa_keygen", sid, || {
                std::hint::black_box(RsaKeyPair::generate(&mut rng, spec.rsa_bits))
            });
            tracer.span("crypto.sha256", sid, || {
                std::hint::black_box(Sha256::digest(&s.image))
            });
            let mut buf = s.image.clone();
            let aes = AesKey::new_256(&s.digest);
            tracer.span("crypto.aes_ctr", sid, || {
                ctr_xor(&aes, &[7u8; 16], 0, &mut buf);
                std::hint::black_box(&buf);
            });

            // EADD + EEXTEND of an enclave this session's size, then
            // 8-byte in-enclave writes across its client region.
            let pages = (spec.enclave_size() as usize) / PAGE_SIZE;
            pages_added += pages;
            let eid = m
                .ecreate(DEFAULT_ENCLAVE_BASE, spec.enclave_size())
                .expect("ecreate");
            let boot = spec.to_bootstrap_bytes();
            tracer.span("sgx.page_add", sid, || {
                for p in 0..pages {
                    let vaddr = DEFAULT_ENCLAVE_BASE + (p * PAGE_SIZE) as u64;
                    let chunk = boot.chunks(PAGE_SIZE).nth(p).unwrap_or(&[]);
                    m.eadd(eid, vaddr, chunk, PagePerms::RWX).expect("eadd");
                    m.eextend(eid, vaddr).expect("eextend");
                }
            });
            let region = spec.client_region_base(DEFAULT_ENCLAVE_BASE);
            tracer.span("sgx.enclave_write", sid, || {
                for w in 0..ENCLAVE_WRITES {
                    let vaddr =
                        region + ((w * 520) % (spec.client_region_pages * PAGE_SIZE - 8)) as u64;
                    m.enclave_write(eid, vaddr, &(w as u64).to_le_bytes())
                        .expect("enclave write");
                }
            });
            m.destroy_enclave(eid).expect("destroy scratch enclave");

            let elf = tracer.span("elf.parse", sid, || {
                ElfFile::parse(&s.image).expect("parses")
            });
            let text = elf.text_sections().next().expect("text section");
            tracer.span("x86.decode", sid, || {
                std::hint::black_box(
                    engarde_x86::decode::decode_all(&text.data, text.header.sh_addr)
                        .expect("decodes"),
                )
            });

            // Load, each regime's policies and relocation run inside a
            // real provisioning enclave built for this session's spec.
            let id = provider
                .create_engarde_enclave(spec.clone(), regimes::policy_factory(s.regime, musl)())
                .expect("create enclave");
            let machine = provider.host_mut().machine_mut();
            let loaded = tracer.span("core.load", sid, || {
                load(machine, id, &s.image, &LoaderConfig::default()).expect("loads")
            });
            for (regime, name, _) in REGIME_SPANS {
                let policies = regimes::policy_factory(regime, musl)();
                tracer.span(name, sid, || {
                    let analysis = AnalysisCache::new();
                    let _verdict = run_policies_with_cache(
                        &policies,
                        &loaded,
                        machine.counter_mut(),
                        &analysis,
                    );
                });
            }
            tracer.span("core.relocate", sid, || {
                map_and_relocate(
                    machine,
                    id,
                    &loaded.elf,
                    &loaded.raw_image,
                    region,
                    spec.client_region_pages,
                )
                .expect("relocates")
            });
            provider.close_session(id).expect("close");
        }
    }

    out.push((
        "crypto.rsa_keygen_ms",
        ms(tracer.total("crypto.rsa_keygen"), inputs),
        "ms",
    ));
    let mib = bytes as f64 / (1024.0 * 1024.0);
    out.push((
        "crypto.sha256_mib_per_s",
        mib / (tracer.total("crypto.sha256") as f64 / 1e9),
        "MiB/s",
    ));
    out.push((
        "crypto.aes_ctr_mib_per_s",
        mib / (tracer.total("crypto.aes_ctr") as f64 / 1e9),
        "MiB/s",
    ));
    out.push((
        "sgx.page_add_us",
        tracer.total("sgx.page_add") as f64 / 1e3 / pages_added as f64,
        "us",
    ));
    out.push((
        "sgx.enclave_write_us",
        tracer.total("sgx.enclave_write") as f64 / 1e3 / (ENCLAVE_WRITES * inputs) as f64,
        "us",
    ));
    out.push(("elf.parse_ms", ms(tracer.total("elf.parse"), inputs), "ms"));
    out.push((
        "x86.decode_ms",
        ms(tracer.total("x86.decode"), inputs),
        "ms",
    ));
    out.push(("core.load_ms", ms(tracer.total("core.load"), inputs), "ms"));
    for (_, name, metric) in REGIME_SPANS {
        out.push((metric, ms(tracer.total(name), inputs), "ms"));
    }
    out.push((
        "core.relocate_ms",
        ms(tracer.total("core.relocate"), inputs),
        "ms",
    ));

    // Store: recover a store holding the replay's verdicts, as a
    // restarted fleet would, and time appends into a second store.
    let recover_dir = work_dir.join("layer-store");
    let append_dir = work_dir.join("layer-store-appends");
    for dir in [&recover_dir, &append_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let seal_key = fleet::store_config(workload, &recover_dir).seal_key;
    let open = |dir: &Path| {
        VerdictStore::open(dir, &seal_key, StoreOptions::default())
            .expect("store opens")
            .0
    };
    open(&recover_dir)
        .append_batch(records)
        .expect("append the replay's verdicts");
    for _ in 0..RECOVERIES {
        tracer.span("store.recover", None, || {
            std::hint::black_box(open(&recover_dir))
        });
    }
    let mut store = open(&append_dir);
    let mut appended = 0usize;
    for _ in 0..APPEND_PASSES {
        for (key, verdict) in records {
            tracer.span("store.append", None, || {
                store.append(key, verdict).expect("append")
            });
            appended += 1;
        }
    }
    drop(store);
    for dir in [&recover_dir, &append_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    out.push((
        "store.append_us",
        tracer.total("store.append") as f64 / 1e3 / appended.max(1) as f64,
        "us",
    ));
    out.push((
        "store.recover_ms",
        ms(tracer.total("store.recover"), RECOVERIES),
        "ms",
    ));
    out
}

/// In-enclave writes timed per input.
const ENCLAVE_WRITES: usize = 256;
/// Store recoveries timed per layer pass.
const RECOVERIES: usize = 5;
/// Times each verdict record is appended per layer pass.
const APPEND_PASSES: usize = 8;
