//! The cluster driver's exact behaviour, pinned in one place.
//!
//! One small seeded fleet — four nodes, each hosting a strict and a
//! lenient tenant behind the QoS-aware router with circuit breakers, a
//! traffic mix and static node draw — replays a lull-to-peak trace with
//! a noticed spot revocation, a surprise fail-stop and recoveries. The
//! `elastic` run adds an autoscaler, so every phase of the interval loop
//! does work: boundary health, revocation drains, scale-up and
//! scale-down, the governor's re-split, re-planning, per-class arrivals
//! and admission, the node step and the aggregate. The `fixed` run drops
//! the autoscaler, so a recovered node rejoins on its own.
//!
//! Each run asserts every [`ClusterReport`] field to the bit, every
//! interval record included, and the driver's telemetry: the count of
//! each track-0 event kind and the bits of their time sum. The other
//! cluster tests check invariants; this is the test that notices when a
//! refactor of the driver changes what it computes.
//!
//! Two more runs replay one scenario on a fleet that has just replayed
//! the other, and must equal the fresh fleet's run of that scenario bit
//! for bit: everything a run uses — router, governor, breakers,
//! autoscaler, recorder, and each node's tenants with their monitors,
//! models and simulators — starts every run afresh.
//!
//! A deliberate behaviour change updates the expected strings: run the
//! test, and copy each `actual` block it prints into `EXPECTED`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use poly::apps::{asr, matrix_factorization, QOS_BOUND_MS};
use poly::cluster::{
    AutoscaleConfig, BreakerConfig, Cluster, ClusterConfig, ClusterNode, ClusterReport,
    ClusterRunSpec, RoutingPolicy,
};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::core::AppContext;
use poly::dse::{DesignSpaceCache, Explorer};
use poly::obs::MemRecorder;
use poly::sim::workload::TracePoint;
use poly::sim::{FaultPlan, LifecycleConfig};

const INTERVAL_MS: f64 = 10_000.0;
const NODES: usize = 4;
const INTERVALS: usize = 32;
const MAX_RPS: f64 = 130.0;
const SEED: u64 = 7;

/// Four nodes, each hosting a strict ASR tenant (weight 3) and a lenient
/// matrix-factorization tenant (weight 1), behind the QoS-aware router
/// with breakers armed and a short deferral backlog.
fn fleet() -> Cluster {
    let setup = table_iii(Setting::I, Architecture::HeterPoly);
    let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let cache = DesignSpaceCache::new();
    let strict_app = asr();
    let lenient_app = matrix_factorization();
    let strict_spaces = cache.explore_graph(&explorer, strict_app.kernels(), 1);
    let lenient_spaces = cache.explore_graph(&explorer, lenient_app.kernels(), 1);
    let strict = AppContext::new(strict_app, strict_spaces, setup.clone(), QOS_BOUND_MS)
        .with_tenant("asr-strict", 3.0);
    let lenient = AppContext::new(lenient_app, lenient_spaces, setup, 3.0 * QOS_BOUND_MS)
        .with_tenant("mf-lenient", 1.0);
    Cluster::from_nodes(
        (0..NODES)
            .map(|_| ClusterNode::new_multi(vec![strict.clone(), lenient.clone()]))
            .collect(),
        ClusterConfig {
            bound_ms: QOS_BOUND_MS,
            routing: RoutingPolicy::QosAware,
            power_budget_w: 300.0 * NODES as f64,
            node_floor_w: 40.0,
            max_backlog: 64,
            lifecycle: LifecycleConfig::default(),
            breaker: Some(BreakerConfig::default()),
        },
    )
    .expect("valid fleet")
}

/// A lull, a ramp past the fleet's capacity, and a fall back.
fn trace() -> Vec<TracePoint> {
    (0..INTERVALS)
        .map(|i| TracePoint {
            start_ms: i as f64 * INTERVAL_MS,
            utilization: match i {
                0..=7 => 0.15,
                8..=19 => 0.15 + 0.09 * (i - 7) as f64,
                _ => 0.6,
            },
        })
        .collect()
}

/// Node 1 is revoked with three intervals of notice and recovers; node 0
/// fail-stops without warning and recovers.
fn faults() -> FaultPlan {
    FaultPlan::new()
        .revoke(10.5 * INTERVAL_MS, 1, 3.0 * INTERVAL_MS)
        .recover(18.5 * INTERVAL_MS, 1)
        .fail_stop(15.5 * INTERVAL_MS, 0)
        .recover(21.5 * INTERVAL_MS, 0)
}

fn autoscale() -> AutoscaleConfig {
    AutoscaleConfig {
        min_nodes: 2,
        target_rps_per_node: 30.0,
        warmup_ms: 2.0 * INTERVAL_MS,
        cooldown_intervals: 2,
        ..AutoscaleConfig::default()
    }
}

/// One replay of the fleet, with or without the autoscaler.
fn spec(trace: &[TracePoint], elastic: bool) -> ClusterRunSpec<'_> {
    let spec = ClusterRunSpec::new(trace, INTERVAL_MS, MAX_RPS)
        .seed(SEED)
        .faults(faults())
        .traffic_mix(vec![0.7, 0.3])
        .node_static_w(80.0);
    if elastic {
        spec.autoscale(autoscale())
    } else {
        spec
    }
}

fn bits(x: f64) -> String {
    format!("{:#018x}", x.to_bits())
}

/// The bit-exact summary of a report: its scalars, the retry ledger,
/// the per-class totals, and one line per interval record.
fn report_fingerprint(r: &ClusterReport) -> String {
    let mut out = format!(
        "energy={} p99={} violation_ratio={} completed={} shed={} timed_out={} mean_util_skew={} node_hours={} breaker_trips={}\n{:?}\nper_class={:?}\n",
        bits(r.energy_j),
        bits(r.p99_ms),
        bits(r.violation_ratio),
        r.completed,
        r.shed,
        r.timed_out,
        bits(r.mean_util_skew),
        bits(r.node_hours),
        r.breaker_trips,
        r.retry,
        r.per_class,
    );
    for iv in &r.intervals {
        writeln!(
            out,
            "{} {} {} {} {} up={} act={} c={} v={} s={} r={} t={} skew={}",
            bits(iv.start_ms),
            bits(iv.utilization),
            bits(iv.offered_rps),
            bits(iv.p99_ms),
            bits(iv.power_w),
            iv.nodes_up,
            iv.nodes_active,
            iv.completed,
            iv.violations,
            iv.shed,
            iv.redistributed,
            iv.timed_out,
            bits(iv.util_skew),
        )
        .unwrap();
    }
    out
}

/// A recorded replay of `cl`: the report's fingerprint, then the
/// driver's (track 0) events by kind and the bits of their time sum.
fn recorded(cl: &mut Cluster, elastic: bool) -> String {
    let trace = trace();
    let rec = MemRecorder::new();
    let report = cl
        .run(spec(&trace, elastic).recorder(Box::new(rec.clone())))
        .expect("valid run");
    let (merged, _) = cl.audits();
    merged.check().expect("audit invariants hold");
    assert_eq!(rec.dropped(), 0, "the recorder kept every event");
    let mut kinds = BTreeMap::<&'static str, usize>::new();
    let mut t_sum = 0.0_f64;
    for smp in rec.samples().iter().filter(|s| s.track == 0) {
        *kinds.entry(smp.event.kind()).or_default() += 1;
        t_sum += smp.t_ms;
    }
    format!(
        "{}driver events={kinds:?} t_sum={}",
        report_fingerprint(&report),
        bits(t_sum)
    )
}

fn elastic() -> String {
    recorded(&mut fleet(), true)
}

fn fixed() -> String {
    recorded(&mut fleet(), false)
}

/// The elastic run on a fleet that has just replayed the fixed run.
fn elastic_after_fixed() -> String {
    let mut cl = fleet();
    recorded(&mut cl, false);
    recorded(&mut cl, true)
}

/// The fixed run on a fleet that has just replayed the elastic one.
fn fixed_after_elastic() -> String {
    let mut cl = fleet();
    recorded(&mut cl, true);
    recorded(&mut cl, false)
}

/// One seeded replay, returning its fingerprint.
type Scenario = fn() -> String;

const EXPECTED: [(&str, &str); 2] = [
    (
        "elastic",
        r#"energy=0x4103a1ff63a456ea p99=0x40c9305253f69e78 violation_ratio=0x3fca32e09adda073 completed=16504 shed=5702 timed_out=0 mean_util_skew=0x3fe7a65aab5c4eca node_hours=0x3fd1c71c71c71c70 breaker_trips=5
RetryStats { device_retries: 0, exhausted: 0, redistributed: 13, hedges_fired: 0, hedge_wins: 0, steals: 0 }
per_class=[(10870, 3097, 4692), (5634, 281, 1010)]
0x0000000000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba11881c2 0x4079e0824eebae76 up=4 act=4 c=181 v=0 s=0 r=0 t=0 skew=0x3fa6a13cd1537290
0x40c3880000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba11881c0 0x4073bb3ebb82fc2a up=4 act=3 c=186 v=0 s=0 r=2 t=0 skew=0x3fa0842108421084
0x40d3880000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba11881c0 0x4073c5c04e306945 up=4 act=3 c=209 v=0 s=0 r=0 t=0 skew=0x3f8d65aa4224bf14
0x40dd4c0000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba11881c0 0x4073bf7a1848bce8 up=4 act=3 c=190 v=0 s=0 r=0 t=0 skew=0x3fb02b1da46102b2
0x40e3880000000000 0x3fc3333333333333 0x4033800000000000 0x40727785bd9d2800 0x406b381edda887e9 up=4 act=2 c=197 v=0 s=0 r=1 t=0 skew=0x3f84cab88725af6e
0x40e86a0000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba1188180 0x406b34bdb16d60fe up=4 act=2 c=200 v=0 s=0 r=0 t=0 skew=0x0000000000000000
0x40ed4c0000000000 0x3fc3333333333333 0x4033800000000000 0x40754e9bc6c84f00 0x406b055260e709f8 up=4 act=2 c=198 v=0 s=0 r=0 t=0 skew=0x3f94afd6a052bf5b
0x40f1170000000000 0x3fc3333333333333 0x4033800000000000 0x407477dac6eea800 0x406acff3e56cecec up=4 act=2 c=172 v=0 s=0 r=0 t=0 skew=0x0000000000000000
0x40f3880000000000 0x3fceb851eb851eb8 0x403f333333333333 0x4074c553565f1e00 0x406c61f5bbb4b16d up=4 act=2 c=299 v=0 s=0 r=0 t=0 skew=0x3f7b65e2e3beee05
0x40f5f90000000000 0x3fd51eb851eb851e 0x4045733333333332 0x407518bf5b6afc00 0x406e3e7f22b7823c up=4 act=2 c=407 v=0 s=0 r=0 t=0 skew=0x3f7420b5265e5951
0x40f86a0000000000 0x3fdae147ae147ae2 0x404b4cccccccccce 0x407002deb00f3a00 0x407069501fdc3a45 up=4 act=2 c=531 v=9 s=0 r=0 t=0 skew=0x3f6edae0a9b3d3a5
0x40fadb0000000000 0x3fe051eb851eb852 0x4050933333333333 0x40bcd4ccd8e11190 0x40720703e662335d up=4 act=2 c=282 v=71 s=81 r=2 t=0 skew=0x4000000000000000
0x40fd4c0000000000 0x3fe3333333333333 0x4053800000000000 0x40cacb14eef58f90 0x407f5fb9f651d75a up=4 act=2 c=448 v=228 s=0 r=0 t=0 skew=0x4000000000000000
0x40ffbd0000000000 0x3fe6147ae147ae15 0x40566ccccccccccd 0x40cc80236bb576c0 0x4078c5e23a13980b up=3 act=2 c=686 v=677 s=548 r=0 t=0 skew=0x3ff2017e225515a5
0x4101170000000000 0x3fe8f5c28f5c28f6 0x405959999999999a 0x40cc0f455b3fc1e0 0x4080a259199bdefe up=3 act=3 c=220 v=220 s=985 r=0 t=0 skew=0x4008000000000000
0x41024f8000000000 0x3febd70a3d70a3d7 0x405c466666666666 0x407fea163a16f200 0x40758ea57336b383 up=2 act=3 c=24 v=2 s=1068 r=0 t=0 skew=0x0000000000000000
0x4103880000000000 0x3feeb851eb851eb8 0x405f333333333333 0x40c098773ba6ba30 0x4074fa7997a59449 up=2 act=3 c=183 v=154 s=836 r=8 t=0 skew=0x3ff4cf09cad76e83
0x4104c08000000000 0x3ff0cccccccccccc 0x40610fffffffffff 0x40c9a0b94a6b0c30 0x4081f503022691e6 up=2 act=3 c=719 v=301 s=651 r=0 t=0 skew=0x3fe9033456e04fc1
0x4105f90000000000 0x3ff23d70a3d70a3d 0x4062866666666666 0x40caee75627bcd60 0x4083230df82afa24 up=3 act=3 c=705 v=249 s=471 r=0 t=0 skew=0x4000000000000000
0x4107318000000000 0x3ff3ae147ae147ae 0x4063fccccccccccd 0x40ca2df13ca54040 0x4085eabc1ec906dc up=3 act=4 c=1138 v=650 s=738 r=0 t=0 skew=0x4007533bd69bab6b
0x41086a0000000000 0x3fe3333333333333 0x4053800000000000 0x40c4aa8c5c15a900 0x4082e232037fb40c up=3 act=4 c=667 v=411 s=324 r=0 t=0 skew=0x3fff852e70d6eeba
0x4109a28000000000 0x3fe3333333333333 0x4053800000000000 0x40bda3c3d7f1c5c0 0x4086322ff5eafd14 up=4 act=4 c=588 v=86 s=0 r=0 t=0 skew=0x400829cbc14e5e0a
0x410adb0000000000 0x3fe3333333333333 0x4053800000000000 0x40c54c8b56f24370 0x408cb180bf3b7529 up=4 act=4 c=992 v=216 s=0 r=0 t=0 skew=0x4000e739ce739ce7
0x410c138000000000 0x3fe3333333333333 0x4053800000000000 0x407cdcbfa000ae00 0x4086c3ceabb0ffe1 up=4 act=4 c=831 v=18 s=0 r=0 t=0 skew=0x3ff21942d97dff62
0x410d4c0000000000 0x3fe3333333333333 0x4053800000000000 0x407e22301259b000 0x408cdb650bd1effb up=4 act=4 c=811 v=62 s=0 r=0 t=0 skew=0x3f8e4da6fbe57c0e
0x410e848000000000 0x3fe3333333333333 0x4053800000000000 0x40749d1234953e00 0x4087d7f228e28bb0 up=4 act=4 c=757 v=14 s=0 r=0 t=0 skew=0x3f95a4b1346add2b
0x410fbd0000000000 0x3fe3333333333333 0x4053800000000000 0x406f988087283400 0x408613164d6e6bc1 up=4 act=4 c=777 v=10 s=0 r=0 t=0 skew=0x3f8516131c015161
0x41107ac000000000 0x3fe3333333333333 0x4053800000000000 0x4057baa728d7d000 0x40864d2e3dfd15c4 up=4 act=4 c=814 v=0 s=0 r=0 t=0 skew=0x3f7420b5265e5951
0x4111170000000000 0x3fe3333333333333 0x4053800000000000 0x40556e5574e74000 0x4086068cd65223ad up=4 act=4 c=779 v=0 s=0 r=0 t=0 skew=0x3f8508373590ec9c
0x4111b34000000000 0x3fe3333333333333 0x4053800000000000 0x4057117cc65d2000 0x4086393d799d1b9f up=4 act=4 c=796 v=0 s=0 r=0 t=0 skew=0x3f849539e3b2d067
0x41124f8000000000 0x3fe3333333333333 0x4053800000000000 0x4056aa9940491000 0x4085230c222b42fe up=4 act=4 c=767 v=0 s=0 r=0 t=0 skew=0x3f9005571d09ade5
0x4112ebc000000000 0x3fe3333333333333 0x4053800000000000 0x4057776c89911000 0x40851b94e763e673 up=4 act=4 c=750 v=0 s=0 r=0 t=0 skew=0x3f75d867c3ece2a5
driver events={"breaker": 14, "class-admission": 64, "governor-split": 124, "route": 128, "scale-down": 2, "scale-up": 3, "shed": 9, "spot-revoke": 1} t_sum=0x4189daa700000000"#,
    ),
    (
        "fixed",
        r#"energy=0x4104ecc59fdce612 p99=0x40beb6696f669ce0 violation_ratio=0x3fb45c02a0fd4911 completed=17918 shed=4288 timed_out=0 mean_util_skew=0x3fd0ae1f0c2d34f3 node_hours=0x3fd5555555555556 breaker_trips=4
RetryStats { device_retries: 2, exhausted: 0, redistributed: 182, hedges_fired: 0, hedge_wins: 0, steals: 0 }
per_class=[(12590, 1343, 2972), (5328, 82, 1316)]
0x0000000000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba11881c2 0x4079e0824eebae76 up=4 act=4 c=181 v=0 s=0 r=0 t=0 skew=0x3fa6a13cd1537290
0x40c3880000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba11881c0 0x4079ebc84f1695cb up=4 act=4 c=186 v=0 s=0 r=0 t=0 skew=0x3fb0842108421084
0x40d3880000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba11881c0 0x4079f7fe623e5926 up=4 act=4 c=209 v=0 s=0 r=0 t=0 skew=0x3fa3991c2c187f63
0x40dd4c0000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba11881c0 0x4079f1b82c56acc9 up=4 act=4 c=190 v=0 s=0 r=0 t=0 skew=0x3f958ed2308158ed
0x40e3880000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba1188180 0x4079ffe5b00d1618 up=4 act=4 c=197 v=0 s=0 r=0 t=0 skew=0x3fb4cab88725af6e
0x40e86a0000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba1188180 0x4079ff04e4637d4b up=4 act=4 c=200 v=0 s=0 r=0 t=0 skew=0x3fb47ae147ae147b
0x40ed4c0000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba1188200 0x4079e725588f64be up=4 act=4 c=198 v=0 s=0 r=0 t=0 skew=0x3faf07c1f07c1f08
0x40f1170000000000 0x3fc3333333333333 0x4033800000000000 0x4072093ba1188200 0x4079cc761ad25638 up=4 act=4 c=172 v=0 s=0 r=0 t=0 skew=0x3fa7d05f417d05f4
0x40f3880000000000 0x3fceb851eb851eb8 0x403f333333333333 0x4072093ba1188200 0x407a9520006d978a up=4 act=4 c=299 v=0 s=0 r=0 t=0 skew=0x3fa48c6a2acf3284
0x40f5f90000000000 0x3fd51eb851eb851e 0x4045733333333332 0x4072093ba1188200 0x407b31e36b006047 up=4 act=4 c=406 v=0 s=0 r=0 t=0 skew=0x3f9e441938bfaf4a
0x40f86a0000000000 0x3fdae147ae147ae2 0x404b4cccccccccce 0x4072093ba1188200 0x407c00ba1f8160c8 up=4 act=4 c=531 v=0 s=0 r=0 t=0 skew=0x3f9724287f46debc
0x40fadb0000000000 0x3fe051eb851eb852 0x4050933333333333 0x4074750760f2dd00 0x40765bbc3b2e6e44 up=4 act=3 c=616 v=0 s=0 r=1 t=0 skew=0x3f73f2b3884fcace
0x40fd4c0000000000 0x3fe3333333333333 0x4053800000000000 0x407382c36ca85300 0x407891543e1e4f01 up=4 act=3 c=770 v=12 s=0 r=0 t=0 skew=0x3f6feab8da19447c
0x40ffbd0000000000 0x3fe6147ae147ae15 0x40566ccccccccccd 0x406d5c5d35f4f200 0x407f39c0705de7ef up=3 act=3 c=933 v=11 s=0 r=0 t=0 skew=0x3f7a574107688a4a
0x4101170000000000 0x3fe8f5c28f5c28f6 0x405959999999999a 0x406541d64c868800 0x4082aebe276a3ab6 up=3 act=3 c=985 v=2 s=0 r=0 t=0 skew=0x3f68f343d5606c1f
0x41024f8000000000 0x3febd70a3d70a3d7 0x405c466666666666 0x406661070054b800 0x408285cf3b4f7b12 up=2 act=3 c=925 v=0 s=0 r=0 t=0 skew=0x3f664a893adcd25f
0x4103880000000000 0x3feeb851eb851eb8 0x405f333333333333 0x40bb2bf6d92a5be0 0x4080eb247762a7f1 up=2 act=3 c=852 v=494 s=0 r=181 t=0 skew=0x3fb0d387cfecc51c
0x4104c08000000000 0x3ff0cccccccccccc 0x40610fffffffffff 0x40c30ac5b3b42c80 0x407ee2f8547883d4 up=2 act=3 c=564 v=560 s=1304 r=0 t=0 skew=0x3fbb3bea3677d46d
0x4105f90000000000 0x3ff23d70a3d70a3d 0x4062866666666666 0x0000000000000000 0x407680c67806654a up=3 act=3 c=0 v=0 s=1467 r=0 t=0 skew=0x0000000000000000
0x4107318000000000 0x3ff3ae147ae147ae 0x4063fccccccccccd 0x4081e3df5c1ef100 0x407ccd0421701b90 up=3 act=4 c=64 v=19 s=1517 r=0 t=0 skew=0x3ff8000000000000
0x41086a0000000000 0x3fe3333333333333 0x4053800000000000 0x40b75948f7729b00 0x408337b4769eb796 up=3 act=4 c=676 v=75 s=0 r=0 t=0 skew=0x3fe4bbd595f6e947
0x4109a28000000000 0x3fe3333333333333 0x4053800000000000 0x40c23bb88b271800 0x408ce6c6707ce0d8 up=4 act=4 c=899 v=156 s=0 r=0 t=0 skew=0x3ffac47c27ddd426
0x410adb0000000000 0x3fe3333333333333 0x4053800000000000 0x40578138263d8800 0x408674de8d7cc54a up=4 act=4 c=783 v=0 s=0 r=0 t=0 skew=0x4000053b2d721acf
0x410c138000000000 0x3fe3333333333333 0x4053800000000000 0x4085b19b877eda00 0x4085a80faf3aa4b0 up=4 act=4 c=832 v=22 s=0 r=0 t=0 skew=0x3ffb276276276276
0x410d4c0000000000 0x3fe3333333333333 0x4053800000000000 0x4081572a15ed8500 0x4083ecf1d91e3614 up=4 act=4 c=809 v=38 s=0 r=0 t=0 skew=0x3f8e60d4a5d088b4
0x410e848000000000 0x3fe3333333333333 0x4053800000000000 0x4072056b8ed1e000 0x4084f1227a5e3460 up=4 act=4 c=758 v=19 s=0 r=0 t=0 skew=0x3f959d61f123ccaa
0x410fbd0000000000 0x3fe3333333333333 0x4053800000000000 0x40740ba5bef3ee00 0x4085107d0d8e9db9 up=4 act=4 c=777 v=12 s=0 r=0 t=0 skew=0x3f8fa11caa01fa12
0x41107ac000000000 0x3fe3333333333333 0x4053800000000000 0x4057baa728d7d000 0x408547eea25bb8be up=4 act=4 c=814 v=0 s=0 r=0 t=0 skew=0x3f7420b5265e5951
0x4111170000000000 0x3fe3333333333333 0x4053800000000000 0x40556e5574e74000 0x4085014d3ab0c6a7 up=4 act=4 c=779 v=0 s=0 r=0 t=0 skew=0x3f8508373590ec9c
0x4111b34000000000 0x3fe3333333333333 0x4053800000000000 0x405c1d99f16e0000 0x4084304521f205f9 up=4 act=4 c=795 v=5 s=0 r=0 t=0 skew=0x3f749bdaa583b401
0x41124f8000000000 0x3fe3333333333333 0x4053800000000000 0x4056aa9940491000 0x4084170b017c4a70 up=4 act=4 c=768 v=0 s=0 r=0 t=0 skew=0x3f95555555555555
0x4112ebc000000000 0x3fe3333333333333 0x4053800000000000 0x4057776c89911000 0x40840f381e5baf46 up=4 act=4 c=750 v=0 s=0 r=0 t=0 skew=0x3f75d867c3ece2a5
driver events={"breaker": 12, "class-admission": 64, "governor-split": 124, "route": 128, "scale-up": 1, "shed": 3, "spot-revoke": 1} t_sum=0x418935db80000000"#,
    ),
];

#[test]
fn cluster_fingerprint_is_unchanged() {
    // Each scenario on a fresh fleet, then on a fleet that has just
    // replayed the other one.
    let runs: [(&str, Scenario, Scenario); 2] = [
        ("elastic", elastic, elastic_after_fixed),
        ("fixed", fixed, fixed_after_elastic),
    ];
    let mut diverged = Vec::new();
    for ((name, fresh, again), (expected_name, expected)) in runs.iter().zip(EXPECTED) {
        assert_eq!(*name, expected_name);
        let actual = fresh();
        if actual != expected {
            eprintln!("{name} actual:\n{actual}\n");
            diverged.push(*name);
        }
        assert_eq!(
            again(),
            actual,
            "{name}: a second run of a fleet must repeat a fresh fleet's run"
        );
    }
    assert!(
        diverged.is_empty(),
        "cluster behaviour moved in {diverged:?}"
    );
}

#[test]
fn unrecorded_report_is_jobs_invariant() {
    let trace = trace();
    let run = |jobs: usize| {
        fleet()
            .run(spec(&trace, true).jobs(jobs))
            .expect("valid run")
    };
    let serial = run(1);
    assert_eq!(
        serial,
        run(3),
        "the report must not depend on the job count"
    );
    assert_eq!(
        report_fingerprint(&serial),
        EXPECTED[0]
            .1
            .rsplit_once("driver events=")
            .map_or("", |p| p.0),
        "an unrecorded run reports what the recorded one does"
    );
}
