//! The three workloads' inputs, generated from the workload seed.
//!
//! The program under test receives only what is built here: client
//! images, the policy regime each tenant agreed to, and client seeds.
//! Each session also carries the verdict polarity fixed by how its
//! image was built, which the benchmark checks every verdict against.

use crate::sha256;
use engarde_core::provision::DEFAULT_ENCLAVE_BASE;
use engarde_elf::build::ElfBuilder;
use engarde_workloads::adversarial;
use engarde_workloads::bench_suite::{PaperBenchmark, PolicyFigure, PAPER_BENCHMARKS};
use engarde_workloads::generator::{generate, WorkloadSpec};
use engarde_workloads::traffic::PolicyRegime;
use engarde_x86::encode::Assembler;
use engarde_x86::reg::Reg;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Every session ships a distinct binary; cache and store are on.
    ColdDistinct,
    /// A fresh fleet boots over a store filled by a cold pass of the
    /// same traffic, then replays it.
    WarmRestart,
    /// Many tenants ship one large binary; batching and cache are on.
    SameBinaryBurst,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdDistinct,
        Workload::WarmRestart,
        Workload::SameBinaryBurst,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDistinct => "cold_distinct",
            Workload::WarmRestart => "warm_restart",
            Workload::SameBinaryBurst => "same_binary_burst",
        }
    }

    /// Domain tag folded into the workload seed, so two workloads given
    /// the same `--seed` still draw independent streams.
    fn tag(self) -> u64 {
        match self {
            // warm_restart replays cold_distinct's traffic by design.
            Workload::ColdDistinct | Workload::WarmRestart => 0xC01D_D157,
            Workload::SameBinaryBurst => 0xB0B5_7000,
        }
    }
}

/// How large one round of a workload is.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Percentage of each paper benchmark's `#Inst` to generate.
    pub scale_percent: usize,
    /// Every `adversarial_every`-th session of the mixed traffic is an
    /// adversarial fixture; a round holds four of them, one per fixture.
    pub adversarial_every: usize,
    /// Sessions per round of `same_binary_burst`.
    pub burst_sessions: usize,
    /// Scale of the burst's binary.
    pub burst_scale_percent: usize,
}

impl Size {
    pub const FULL: Size = Size {
        scale_percent: 3,
        adversarial_every: 6,
        burst_sessions: 32,
        burst_scale_percent: 2,
    };
    pub const SMOKE: Size = Size {
        scale_percent: 1,
        adversarial_every: 2,
        burst_sessions: 6,
        burst_scale_percent: 1,
    };

    /// Sessions per round of the mixed traffic.
    pub fn mixed_sessions(&self) -> usize {
        FIXTURES.len() * self.adversarial_every
    }
}

/// The adversarial fixtures of the mixed traffic, in round order.
const FIXTURES: [&str; 4] = [
    "adv_spill_leak",
    "adv_midinsn",
    "adv_wx",
    "adv_alias_launder",
];

/// The fixture that today's inspector wrongly passes.
pub const KNOWN_FALSE_PASS: &str = "adv_alias_launder";

/// Address of the provisioning enclave's channel-key state, the secret
/// the leak fixtures read.
const KEY_STATE: u64 = DEFAULT_ENCLAVE_BASE + 0x100;

/// One tenant session.
#[derive(Clone, Debug)]
pub struct Session {
    pub name: String,
    /// Generated benchmark or fixture tag.
    pub kind: &'static str,
    pub image: Vec<u8>,
    /// SHA-256 of `image`, computed by the benchmark's own hash.
    pub digest: [u8; 32],
    pub regime: PolicyRegime,
    /// The polarity fixed by construction: generator output is
    /// compliant, each fixture violates its regime.
    pub expect_compliant: bool,
    pub client_seed: u64,
}

/// SplitMix64 over `(root, index)`: reproducible sub-seeds.
pub fn derive(root: u64, index: u64) -> u64 {
    let mut z = root.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const REGIMES: [(PolicyRegime, PolicyFigure); 4] = [
    (
        PolicyRegime::LibraryLinking,
        PolicyFigure::Fig3LibraryLinking,
    ),
    (
        PolicyRegime::StackProtection,
        PolicyFigure::Fig4StackProtection,
    ),
    (PolicyRegime::Ifcc, PolicyFigure::Fig5Ifcc),
    // The analysis regime judges structure and taint, so it takes the
    // plain build.
    (PolicyRegime::Analysis, PolicyFigure::Fig3LibraryLinking),
];

/// A paper benchmark's spec shrunk to `scale_percent` of its `#Inst`,
/// under generator seed `seed`. The seed also grows the size by 0–2%:
/// the generator's image sizes do not depend on its seed, and without
/// this the size-driven model-cycle figures would not either.
fn scaled_spec(
    bench: &PaperBenchmark,
    figure: PolicyFigure,
    scale_percent: usize,
    seed: u64,
) -> WorkloadSpec {
    let mut spec = bench.spec(figure);
    let target = (bench.instructions_for(figure) * scale_percent / 100).max(2_000);
    spec.target_instructions = target * (1_000 + (seed % 21) as usize) / 1_000;
    spec.seed = seed;
    spec.avg_app_fn_insns = spec.avg_app_fn_insns.min(spec.target_instructions / 8);
    spec.calls_per_app_fn = spec.calls_per_app_fn.min(64);
    spec.relocation_count = spec.relocation_count.min(256);
    spec
}

fn session(
    name: String,
    kind: &'static str,
    image: Vec<u8>,
    regime: PolicyRegime,
    expect_compliant: bool,
    client_seed: u64,
) -> Session {
    Session {
        name,
        kind,
        digest: sha256::digest(&image),
        image,
        regime,
        expect_compliant,
        client_seed,
    }
}

/// The rbp/rsp alias launder: `mov rbp, rsp`, spill the secret via
/// `[rbp-8]`, scrub the register, reload the same slot via `[rsp-8]`,
/// and store it outside the enclave. Its addresses are fixed, so the
/// fixture is identical under every seed.
fn alias_launder() -> Vec<u8> {
    let mut asm = Assembler::new();
    asm.mov_rr64(Reg::Rbp, Reg::Rsp);
    asm.movabs(Reg::Rbx, KEY_STATE);
    asm.mov_mem_to_reg64(Reg::Rax, Reg::Rbx);
    asm.mov_reg_to_rbp_disp8(Reg::Rax, -8);
    asm.xor_rr32(Reg::Rax, Reg::Rax);
    asm.mov_rsp_disp8_to_reg(Reg::Rcx, -8);
    asm.movabs(Reg::Rdx, 0x0020_0000);
    asm.mov_reg_to_mem64(Reg::Rcx, Reg::Rdx);
    asm.ret();
    let text = asm.finish();
    let len = text.len() as u64;
    ElfBuilder::new()
        .text(text)
        .function("_start", 0, len)
        .entry(0)
        .build()
}

fn fixture(tag: &'static str, root: u64, idx: usize) -> Vec<u8> {
    match tag {
        // Per-session sink, well above any enclave this traffic builds.
        "adv_spill_leak" => {
            let sink = 0x4000_0000 + (derive(root ^ 0x51_4B, idx as u64) % 0x10_0000) * 8;
            adversarial::stack_spill_leak(KEY_STATE, sink)
        }
        "adv_midinsn" => adversarial::mid_instruction_jump().image,
        "adv_wx" => adversarial::wx_segment().image,
        _ => alias_launder(),
    }
}

/// The mixed traffic of `cold_distinct` (and `warm_restart`): the seven
/// paper benchmarks, each session with its own generator seed, rotating
/// through the four regimes, with one adversarial fixture every
/// `adversarial_every` sessions.
pub fn mixed_traffic(seed: u64, size: &Size) -> Vec<Session> {
    let root = derive(seed, Workload::ColdDistinct.tag());
    let mut compliant = 0usize;
    (0..size.mixed_sessions())
        .map(|idx| {
            let client_seed = derive(root, idx as u64);
            if (idx + 1) % size.adversarial_every == 0 {
                let tag = FIXTURES[idx / size.adversarial_every];
                return session(
                    format!("{tag}-s{idx}"),
                    tag,
                    fixture(tag, root, idx),
                    PolicyRegime::Analysis,
                    false,
                    client_seed,
                );
            }
            let bench = &PAPER_BENCHMARKS[compliant % PAPER_BENCHMARKS.len()];
            let (regime, figure) = REGIMES[compliant % REGIMES.len()];
            compliant += 1;
            let spec = scaled_spec(
                bench,
                figure,
                size.scale_percent,
                derive(root ^ 0x6E_5EED, idx as u64),
            );
            session(
                format!("{}-{:?}-s{idx}", spec.name, regime),
                bench.name,
                generate(&spec).image,
                regime,
                true,
                client_seed,
            )
        })
        .collect()
}

/// The burst of `same_binary_burst`: `burst_sessions` tenants shipping
/// one canary-instrumented Nginx-class binary under the
/// stack-protection regime, each with its own client seed.
pub fn burst_traffic(seed: u64, size: &Size) -> Vec<Session> {
    let root = derive(seed, Workload::SameBinaryBurst.tag());
    let bench = PaperBenchmark::by_name("Nginx").expect("Nginx is a paper benchmark");
    let spec = scaled_spec(
        bench,
        PolicyFigure::Fig4StackProtection,
        size.burst_scale_percent,
        derive(root, u64::MAX),
    );
    let image = generate(&spec).image;
    (0..size.burst_sessions)
        .map(|idx| {
            session(
                format!("same_nginx-s{idx}"),
                bench.name,
                image.clone(),
                PolicyRegime::StackProtection,
                true,
                derive(root, idx as u64),
            )
        })
        .collect()
}

/// The sessions of one round of `workload`.
pub fn traffic(workload: Workload, seed: u64, size: &Size) -> Vec<Session> {
    match workload {
        Workload::ColdDistinct | Workload::WarmRestart => mixed_traffic(seed, size),
        Workload::SameBinaryBurst => burst_traffic(seed, size),
    }
}
