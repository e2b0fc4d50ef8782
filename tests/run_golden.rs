//! Frozen outputs of the run driver.
//!
//! The differential suites compare one backend against another within
//! one build, so they cannot see a change that moves every backend the
//! same way — a different RNG stream, seed derivation, or sizing rule.
//! This suite folds every observable output of [`run_period`] and
//! [`run_periods`] on a small gravity-model city into one FNV-1a digest
//! per run and pins it: the exchange count, every upload's wire bytes
//! (or the per-period array sizes), every O–D entry's `n̂_c` bits and
//! degraded flag, the fault metrics, the undelivered set, and the
//! registry counters.
//!
//! The constants were computed before `run_period` / `run_periods`
//! replaced the engine's and the metro module's per-variant entry points
//! (one per mix of threads, observability, faults, sharding, and
//! durability), by this same fixture and digest written against those
//! entry points, so they pin the one driver to the outputs of the many
//! it replaced. They are independent of the worker count.

use std::collections::BTreeMap;

use vcps::obs::Obs;
use vcps::sim::{
    build_metro, run_period, run_periods, Backend, CentralServer, CrashMode, Durable,
    DurableOptions, FaultMetrics, FaultPlan, LinkFaults, MetroConfig, MetroRun, MetroWorkload,
    Monolith, OdMatrix, PeriodSettings, PeriodUpload, RetryPolicy, RsuCrash, RunConfig,
    ServerCrash, Sharded, ShardedServer,
};
use vcps::{RsuId, Scheme};

const SEED: u64 = 0x0601_DE17;
const THREADS: usize = 2;
const WINDOW: usize = 3;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn faults(&mut self, f: &FaultMetrics) {
        self.bytes(format!("{f:?}").as_bytes());
    }

    fn undelivered(&mut self, rsus: &[RsuId]) {
        self.u64(rsus.len() as u64);
        for r in rsus {
            self.u64(r.0);
        }
    }

    fn matrix(&mut self, m: &OdMatrix) {
        self.u64(m.len() as u64);
        for (a, b, e) in m.iter_pairs() {
            self.u64(a.0);
            self.u64(b.0);
            self.u64(e.n_c().to_bits());
            self.u64(u64::from(e.is_degraded()));
        }
    }

    fn upload(&mut self, upload: Option<&PeriodUpload>) {
        match upload {
            Some(u) => {
                self.u64(1);
                self.bytes(&u.encode());
            }
            None => self.u64(0),
        }
    }

    fn counters(&mut self, counters: &BTreeMap<String, u64>) {
        for (name, v) in counters {
            self.bytes(name.as_bytes());
            self.u64(*v);
        }
    }
}

/// A 49-RSU (7×7 grid) city over three diurnally scaled periods.
fn fixture() -> (MetroWorkload, Scheme, PeriodSettings) {
    let workload = build_metro(&MetroConfig {
        rsus: 49,
        periods: 3,
        total_trips: 1_500.0,
        msa_iterations: 2,
        seed: SEED,
        ..MetroConfig::default()
    });
    let scheme = Scheme::variable(2, 3.0, SEED).expect("valid scheme");
    let settings = PeriodSettings {
        seed: SEED,
        ..PeriodSettings::default()
    };
    (workload, scheme, settings)
}

/// Loss and corruption on both links plus a checkpointing RSU crash.
fn faults() -> Option<(FaultPlan, RetryPolicy)> {
    let plan = FaultPlan::new(SEED ^ 0xFA_17)
        .with_report_link(LinkFaults::none().with_drop(0.1).with_bit_flip(0.02))
        .with_upload_link(LinkFaults::none().with_drop(0.3).with_duplicate(0.1))
        .with_crash(RsuCrash {
            node: 24,
            at: 2_000.0,
            mode: CrashMode::Checkpoint { interval: 600.0 },
        });
    Some((plan, RetryPolicy::default()))
}

/// The two queries the digest makes, answered by either server shape.
trait Served {
    fn upload_of(&self, rsu: RsuId) -> Option<&PeriodUpload>;
    fn od(&self) -> OdMatrix;
}

impl Served for CentralServer {
    fn upload_of(&self, rsu: RsuId) -> Option<&PeriodUpload> {
        self.upload(rsu)
    }

    fn od(&self) -> OdMatrix {
        self.od_matrix_threads(THREADS).expect("O–D matrix")
    }
}

impl Served for ShardedServer {
    fn upload_of(&self, rsu: RsuId) -> Option<&PeriodUpload> {
        self.upload(rsu)
    }

    fn od(&self) -> OdMatrix {
        self.od_matrix_threads(THREADS).expect("O–D matrix")
    }
}

/// A config recording into a fresh registry, with or without faults.
fn config<B>(backend: B, faulty: bool) -> RunConfig<B> {
    RunConfig {
        threads: THREADS,
        obs: Obs::enabled(),
        faults: if faulty { faults() } else { None },
        backend,
    }
}

/// Runs period 0 of the fixture through `backend` and returns its
/// digest with its O–D matrix.
fn period<B: Backend>(backend: B, faulty: bool) -> (u64, OdMatrix)
where
    B::Server: Served,
{
    let (w, scheme, settings) = fixture();
    let config = config(backend, faulty);
    let run = run_period(
        &scheme,
        (&w.net, &w.net.free_flow_times()),
        &w.periods[0],
        &w.initial_history,
        settings.period_length,
        SEED,
        &config,
    )
    .expect("period run");
    // Snapshot before any query: decodes fire their own counters.
    let counters = config.obs.snapshot().counters;
    let matrix = run.server.od();
    let mut h = Fnv::new();
    h.u64(run.exchanges as u64);
    for n in 0..w.net.node_count() as u64 {
        h.upload(run.server.upload_of(RsuId(n)));
    }
    h.matrix(&matrix);
    h.faults(&run.faults);
    h.undelivered(&run.undelivered);
    h.counters(&counters);
    (h.0, matrix)
}

/// Folds a multi-period run; `obs` is the registry it recorded into.
fn periods_digest<S>(run: &MetroRun<S>, obs: &Obs) -> u64 {
    let mut h = Fnv::new();
    for &e in &run.exchanges_per_period {
        h.u64(e as u64);
    }
    for sizes in &run.sizes_per_period {
        for &m in sizes {
            h.u64(m as u64);
        }
    }
    for m in run.window.iter() {
        h.matrix(m);
    }
    h.u64(run.faults_per_period.len() as u64);
    for f in &run.faults_per_period {
        h.faults(f);
    }
    h.u64(run.undelivered_per_period.len() as u64);
    for u in &run.undelivered_per_period {
        h.undelivered(u);
    }
    h.u64(run.uploads_delivered as u64);
    h.counters(&obs.snapshot().counters);
    h.0
}

#[test]
fn single_period_runs_match_the_frozen_digests() {
    let root = std::env::temp_dir().join(format!("vcps-golden-{}", std::process::id()));
    let durable = |name: &str, crash| Durable {
        shards: 2,
        dir: root.join(name),
        options: DurableOptions::log_only(),
        crash,
    };
    let crash = Some(ServerCrash { at_record: 0 });
    let labels = [
        "monolith",
        "sharded(4)",
        "durable(2)",
        "durable(2), crash at 0",
    ];
    for (faulty, frozen) in [
        (
            false,
            [
                0x15f0_e58e_1be1_113c,
                0xc28a_85a0_ae41_86dc,
                0x9add_044a_247c_16d2,
                0x4f53_52d6_e52f_df0e,
            ],
        ),
        (
            true,
            [
                0x5951_027c_5c9d_88d0,
                0x6585_beef_2371_3a1b,
                0x2bab_9897_8bf3_0445,
                0x0b4e_ce97_5aff_39c9,
            ],
        ),
    ] {
        let digests = [
            period(Monolith, faulty).0,
            period(Sharded(4), faulty).0,
            period(durable(&format!("plain-{faulty}"), None), faulty).0,
            period(durable(&format!("crash-{faulty}"), crash), faulty).0,
        ];
        for ((label, digest), frozen) in labels.iter().zip(digests).zip(frozen) {
            assert_eq!(
                digest, frozen,
                "{label}, faulty {faulty}: digest {digest:#018x}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn multi_period_runs_match_the_frozen_digests() {
    let (w, scheme, settings) = fixture();
    let times = w.net.free_flow_times();
    let roads = (&w.net, times.as_slice());
    for (faulty, frozen_monolith, frozen_sharded) in [
        (false, 0x019b_1f82_06cc_d0f1, 0x90cb_5782_e2f5_9903),
        (true, 0x152d_52b2_8355_3e0b, 0xb85f_b767_ec2e_b559),
    ] {
        let monolith_config = config(Monolith, faulty);
        let monolith = run_periods(
            &scheme,
            roads,
            &w.periods,
            &w.initial_history,
            &settings,
            WINDOW,
            &monolith_config,
        )
        .expect("monolith periods");
        let digest = periods_digest(&monolith, &monolith_config.obs);
        assert_eq!(
            digest, frozen_monolith,
            "monolith, faulty {faulty}: digest {digest:#018x}"
        );

        let sharded_config = config(Sharded(4), faulty);
        let sharded = run_periods(
            &scheme,
            roads,
            &w.periods,
            &w.initial_history,
            &settings,
            WINDOW,
            &sharded_config,
        )
        .expect("sharded periods");
        let digest = periods_digest(&sharded, &sharded_config.obs);
        assert_eq!(
            digest, frozen_sharded,
            "sharded, faulty {faulty}: digest {digest:#018x}"
        );

        // Period 0 of the continuous loop is exactly the single period.
        assert_eq!(
            monolith.window.iter().next(),
            Some(&period(Monolith, faulty).1),
            "monolith period 0, faulty {faulty}"
        );
        assert_eq!(
            sharded.window.iter().next(),
            Some(&period(Sharded(4), faulty).1),
            "sharded period 0, faulty {faulty}"
        );
    }
}
