//! Determinism regression tests for the whole-system simulator (ISSUE 8
//! satellite): the same seed and configuration must produce a
//! byte-identical observability trace and final state across two runs —
//! for a clean schedule *and* for one with message drops and a mid-run
//! node crash-restart. Any divergence here means wall-clock time, map
//! iteration order, or an unseeded RNG leaked into an execution, which
//! would break seed replay and auto-minimization.

use shardstore_harness::conformance::ConformanceConfig;
use shardstore_harness::detect::sample_sequences;
use shardstore_harness::gen::{kv_ops, node_ops, GenConfig};
use shardstore_harness::ops::{KvOp, NodeOp};
use shardstore_harness::simulate::{
    run_conformance_sim, run_crash_sim, run_rpc_sim, SimOptions, SimOutcome,
};
use shardstore_sim::{CrashPoint, PerturbProfile, SimSchedule};

fn kv_sequence(seed: u64, cfg: GenConfig) -> Vec<KvOp> {
    sample_sequences(kv_ops(cfg), seed, 1).next().expect("one sequence")
}

fn node_sequence(seed: u64) -> Vec<NodeOp> {
    sample_sequences(node_ops(GenConfig::conformance()), seed, 1).next().expect("one sequence")
}

fn fingerprints_of(outcome: &SimOutcome) -> &str {
    outcome.fingerprint.as_deref().expect("fingerprint requested")
}

/// A schedule with message drops and a mid-run whole-node crash-restart
/// (plus timer ticks), the perturbation shape the satellite task names.
fn drops_and_crash(n_ops: usize) -> SimSchedule {
    SimSchedule {
        crashes: vec![CrashPoint { at_op: n_ops / 2, keep_mask: 0xDEAD_BEEF_0BAD_F00D }],
        tick_every: 4,
        drops: vec![n_ops / 5, n_ops / 3, (2 * n_ops) / 3],
        delays: vec![(n_ops / 4, 24), (n_ops / 2 + 1, 40)],
        ..SimSchedule::clean()
    }
}

#[test]
fn crash_world_clean_schedule_is_deterministic() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let ops = kv_sequence(0xDE7E_0001, GenConfig::crash());
    let schedule = SimSchedule::clean();
    let a = run_crash_sim(&ops, &cfg, &schedule, &opts).expect("clean run passes");
    let b = run_crash_sim(&ops, &cfg, &schedule, &opts).expect("clean run passes");
    assert_eq!(a.sim, b.sim, "event accounting diverged between identical runs");
    assert_eq!(
        fingerprints_of(&a),
        fingerprints_of(&b),
        "obs trace + final state diverged on a clean schedule"
    );
}

#[test]
fn crash_world_drops_and_crash_restart_are_deterministic() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let ops = kv_sequence(0xDE7E_0002, GenConfig::crash());
    let schedule = drops_and_crash(ops.len());
    let a = run_crash_sim(&ops, &cfg, &schedule, &opts).expect("perturbed run passes");
    let b = run_crash_sim(&ops, &cfg, &schedule, &opts).expect("perturbed run passes");
    assert_eq!(a.sim, b.sim, "event accounting diverged between identical runs");
    assert!(a.sim.crashes >= 1, "schedule's crash-restart never fired");
    assert!(a.sim.deliveries < a.sim.ops, "drops should suppress some deliveries");
    assert_eq!(
        fingerprints_of(&a),
        fingerprints_of(&b),
        "obs trace + final state diverged under drops + crash-restart"
    );
}

#[test]
fn conformance_world_perturbed_schedule_is_deterministic() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let ops = kv_sequence(0xDE7E_0003, GenConfig::conformance());
    // Delivery perturbations only (the conformance oracles are not
    // crash-aware); same seed ⇒ same schedule ⇒ same execution.
    let schedule = SimSchedule {
        tick_every: 3,
        drops: vec![ops.len() / 4],
        delays: vec![(ops.len() / 2, 33)],
        ..SimSchedule::clean()
    };
    let a = run_conformance_sim(&ops, &cfg, &schedule, &opts).expect("run passes");
    let b = run_conformance_sim(&ops, &cfg, &schedule, &opts).expect("run passes");
    assert_eq!(a.sim, b.sim);
    assert_eq!(fingerprints_of(&a), fingerprints_of(&b));
}

#[test]
fn rpc_world_perturbed_schedule_is_deterministic() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let ops = node_sequence(0xDE7E_0004);
    let schedule = SimSchedule {
        tick_every: 5,
        drops: vec![ops.len() / 3],
        delays: vec![(ops.len() / 2, 20)],
        ..SimSchedule::clean()
    };
    let a = run_rpc_sim(&ops, &cfg, 3, &schedule, &opts).expect("run passes");
    let b = run_rpc_sim(&ops, &cfg, 3, &schedule, &opts).expect("run passes");
    assert_eq!(a.sim, b.sim);
    assert_eq!(fingerprints_of(&a), fingerprints_of(&b));
}

#[test]
fn perturbed_schedules_replay_identically_from_their_seed() {
    // The swarm contract: a failing seed is reproducible because the
    // schedule derivation itself is a pure function of the seed.
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let profile = PerturbProfile::default();
    for seed in [0xD5EE_D001u64, 0xD5EE_D002, 0xD5EE_D003, 0xD5EE_D004] {
        let ops = kv_sequence(seed, GenConfig::crash());
        let s1 = SimSchedule::perturbed(seed, ops.len(), &profile);
        let s2 = SimSchedule::perturbed(seed, ops.len(), &profile);
        assert_eq!(s1, s2, "schedule derivation is not seed-pure");
        let a = run_crash_sim(&ops, &cfg, &s1, &opts).expect("seeded run passes");
        let b = run_crash_sim(&ops, &cfg, &s2, &opts).expect("seeded run passes");
        assert_eq!(a.sim, b.sim, "seed {seed:#x} diverged");
        assert_eq!(fingerprints_of(&a), fingerprints_of(&b), "seed {seed:#x} diverged");
    }
}

/// FNV-1a over a run fingerprint: the checked-in form of "obs trace +
/// final state" (the strings themselves run to hundreds of kilobytes).
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const PIN_SEEDS: [u64; 16] = [
    0x0F1D_0001, 0x0F1D_0002, 0x0F1D_0003, 0x0F1D_0004, 0x0F1D_0005, 0x0F1D_0006,
    0x0F1D_0007, 0x0F1D_0008, 0x0F1D_0009, 0x0F1D_000A, 0x0F1D_000B, 0x0F1D_000C,
    0x0F1D_000D, 0x0F1D_000E, 0x0F1D_000F, 0x0F1D_0010,
];

/// Fingerprint hashes recorded at the parent of the interpreter/oracle
/// split (commit 0703b4f, the three hand-copied `KvOp` runners), one row
/// per seed: `[conformance, crash, rpc]` × `[clean, perturbed]`. The
/// split promised the same `Store`/`Node` calls in the same order, which
/// is exactly what an unchanged trace + final state shows.
const PINNED: [[u64; 6]; 16] = [
    [
        0x0c3f_2db4_9073_cba4, 0xb1ce_51e8_c108_968a, 0xa740_32d9_3b1e_a7fa,
        0xe157_c0b9_4f9d_2897, 0x5e2a_1b42_3c88_adcb, 0xcc42_c0d4_07b1_b290,
    ],
    [
        0xb9df_c4a8_73ac_3469, 0x2b2f_439e_ffdc_98cd, 0x6201_bc56_adfd_0f76,
        0x755f_e79d_f8ed_690f, 0x1319_5cb9_7204_433d, 0xb047_5822_af45_d0d0,
    ],
    [
        0x4b55_f91f_20fe_a6b7, 0xacb8_50e9_6c48_0ba9, 0xe7b6_3704_991a_3bdc,
        0x6e17_6a15_1c27_2e2b, 0x8ede_c277_b8db_9bbf, 0xff1b_99a1_4a58_f7a4,
    ],
    [
        0x1f07_1feb_33a4_cbab, 0x1516_910f_5f3c_6a14, 0x3561_22cf_fd65_653b,
        0x1139_ba96_4622_8542, 0x7772_ee83_594e_2db3, 0x6bc4_b2f8_70b0_74be,
    ],
    [
        0xd63e_5178_631d_5cd8, 0xd63e_5178_631d_5cd8, 0xe324_04b1_45d0_bf1c,
        0x4cf1_12d3_564c_2028, 0xe8ba_4de7_f6bc_cf36, 0xe8ba_4de7_f6bc_cf36,
    ],
    [
        0x9102_e3fb_5c4c_f438, 0xe255_193b_254e_3c38, 0x3245_97c5_b9ca_3ad4,
        0x6211_d907_f325_bb1b, 0xcb70_c860_e2a6_c52c, 0xb15a_82df_2156_7db5,
    ],
    [
        0x0082_d48d_1070_cdfb, 0x98be_8e7c_3a1d_7951, 0x910d_9c5d_49a1_29bb,
        0x8522_8907_88ed_03f1, 0x0631_b9a5_a15c_85f4, 0xc981_d55f_fb74_248c,
    ],
    [
        0x6d83_80a4_b4cd_fb21, 0x1ed7_8b0d_4d58_40c7, 0xc6de_fbdc_e4e6_cb66,
        0x794f_5c08_2ae4_5a20, 0x33f8_e74c_a578_053d, 0x33f8_e74c_a578_053d,
    ],
    [
        0xf971_33af_df08_73dc, 0x9d7f_1abe_7ba2_c201, 0xb911_ca06_07f9_7dbb,
        0x53c4_b1c3_4e12_a04a, 0x73e1_1e44_cffd_a064, 0x54e3_65c8_5690_af90,
    ],
    [
        0xcba2_1bc3_f4b0_e03b, 0x0148_047d_a53d_84e0, 0xa1bb_9a81_3623_cd4f,
        0xd134_7883_a0e2_b140, 0x8e62_8890_efb5_aa9a, 0xcc8d_d9be_4040_5f0b,
    ],
    [
        0x03c1_6fa5_b025_c27e, 0x2595_3728_f9ef_6764, 0x8c20_1f5c_cfa9_d24f,
        0xf4f0_eec1_bb31_2345, 0x8724_86a9_fd98_92b6, 0x1200_a846_997a_ac31,
    ],
    [
        0xa709_4970_7d24_ca28, 0xab6f_c759_d3e3_623c, 0xb396_ebc0_2a92_9516,
        0xb0d0_8194_da83_4d69, 0x1e7d_28e3_4080_00b0, 0xfba6_0f45_8fa2_1b70,
    ],
    [
        0x297a_cf14_5734_adb5, 0xb8a8_e9be_17fd_2c25, 0x44e5_8a5c_0065_fa86,
        0xd50b_7d4c_8ecf_4c2b, 0xc571_4488_3e24_4ca5, 0x4a56_7986_5cff_5451,
    ],
    [
        0x2633_c6de_ea90_3c65, 0x28fa_5c3c_f23d_3829, 0x2652_1f3d_c33d_047a,
        0x6ab2_9cd8_bae3_999d, 0x7429_cd36_ff4c_8d6c, 0x9149_d10b_8ada_3a5a,
    ],
    [
        0x3dda_ce25_7c2c_9c9f, 0xdf36_5563_3c81_52dc, 0x6ec5_1a98_9153_3a83,
        0xb688_01d8_5973_cbec, 0x5d95_c0fe_9783_9a5f, 0x5d95_c0fe_9783_9a5f,
    ],
    [
        0x18d3_8df2_47dd_55ce, 0xc822_8356_7e69_9815, 0x1c18_31ea_8ee8_43c4,
        0xf0ea_3187_217a_fe0d, 0xb6e8_e53b_d226_79a3, 0x873e_de9f_120f_c6ac,
    ],
];

#[test]
fn fingerprints_match_the_pre_split_interpreters() {
    let cfg = ConformanceConfig::default();
    let opts = SimOptions { fingerprint: true };
    let profile = PerturbProfile::default();
    let mut got = [[0u64; 6]; 16];
    for (row, seed) in got.iter_mut().zip(PIN_SEEDS) {
        let conf = kv_sequence(seed, GenConfig::conformance());
        let crash = kv_sequence(seed, GenConfig::crash());
        let node = node_sequence(seed);
        for (perturbed, col) in [(false, 0), (true, 1)] {
            let schedule = |n: usize| {
                if perturbed {
                    SimSchedule::perturbed(seed, n, &profile)
                } else {
                    SimSchedule::clean()
                }
            };
            let runs = [
                run_conformance_sim(&conf, &cfg, &schedule(conf.len()), &opts),
                run_crash_sim(&crash, &cfg, &schedule(crash.len()), &opts),
                run_rpc_sim(&node, &cfg, 3, &schedule(node.len()), &opts),
            ];
            for (world, run) in runs.into_iter().enumerate() {
                let outcome = run.unwrap_or_else(|d| panic!("seed {seed:#x} world {world}: {d}"));
                row[2 * world + col] = fnv(fingerprints_of(&outcome));
            }
        }
    }
    assert_eq!(got, PINNED, "run fingerprints moved; computed table:\n{got:#018x?}");
}
