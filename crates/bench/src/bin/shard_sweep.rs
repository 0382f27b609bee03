//! Multi-DCE sharding sweep: shard count × placement × scheduling
//! policy under a saturating multi-tenant load, measuring how aggregate
//! serving capacity, tail latency and fairness scale with the number of
//! engines — plus a skewed-load study where hash-pin strands bandwidth
//! behind a shard collision and work-stealing recovers it.
//!
//! ```text
//! cargo run --release -p pim-bench --bin shard_sweep -- \
//!     [--smoke|--full] [--seed S] [--out PATH]
//! ```
//!
//! Eight open-loop Poisson tenants, each pinned to its own 64-core
//! (channel-major) slice of the PIM array, offer ~128 GB/s aggregate —
//! far past any shard count's capacity — so serviced bytes per unit
//! time measure *capacity*. The host interface per shard is a 2-deep
//! ring at 64 KiB chunks (the async path's sweet spot from
//! `BENCH_hostq.json`), so a single engine is driver/MMIO-bound and
//! sharding multiplies independent driver contexts until the shared
//! memory system caps out (~45 GB/s here, visible at N = 8). Each cell
//! also records the modeled layers its goodput moves with: DRAM and PIM
//! row-hit rate and bus utilisation, and the share of busy engine
//! cycles with two or more descriptor lanes running.
//!
//! The skew study keeps the same machine at N = 4 and makes tenants 0
//! and 4 offer 8x the byte rate of the six light tenants. Both heavy
//! tenants hash to shard 0 (`tenant mod 4`), so hash-pin serializes
//! them through one ring while shards 1–3 idle; least-loaded placement
//! steals that idle capacity. Fairness is reported both as raw-byte
//! Jain and as demand-normalized (satisfaction) Jain — the right
//! measure under unequal demand.

use pim_bench::json::{write_json, Json};
use pim_dram::MemController;
use pim_mapping::MemSpace;
use pim_runtime::{
    policy_by_name, HostQueueConfig, Placement, Runtime, RuntimeConfig, ServingSystem, TenantSpec,
    POLICY_NAMES,
};
use pim_sim::{DesignPoint, SystemConfig};

/// 2 KiB per core x a private 64-core slice = 128 KiB jobs; 8 tenants
/// cover all 512 cores (and thus every PIM channel).
const PER_CORE: u64 = 2 << 10;
const CORES: u32 = 64;
const TENANTS: usize = 8;
const CORE_STRIDE: u32 = 64;
/// Uniform offered load: ~16 GB/s per tenant, ~128 GB/s aggregate.
const MEAN_NS: f64 = 8_000.0;
/// Skew study: heavy tenants keep MEAN_NS, light tenants offer 1/8th.
const LIGHT_MEAN_NS: f64 = 64_000.0;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SKEW_SHARDS: usize = 4;

struct Args {
    horizon_ns: f64,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let flag_val = |name: &str| {
        argv.iter().position(|a| a == name).map(|i| {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .clone()
        })
    };
    let horizon_ns = if argv.iter().any(|a| a == "--smoke") {
        30_000.0
    } else if argv.iter().any(|a| a == "--full") {
        600_000.0
    } else {
        150_000.0
    };
    Args {
        horizon_ns,
        seed: flag_val("--seed")
            .map_or(0x5AADED, |v| v.parse().expect("--seed requires an integer")),
        out: flag_val("--out").unwrap_or_else(|| "BENCH_sharding.json".to_string()),
    }
}

fn tenants(skewed: bool) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| {
            let mean = if skewed && i % SKEW_SHARDS != 0 {
                LIGHT_MEAN_NS
            } else {
                MEAN_NS
            };
            TenantSpec::poisson(&format!("t{i}"), mean, PER_CORE, CORES)
        })
        .collect()
}

struct Cell {
    shards: usize,
    placement: Placement,
    policy: &'static str,
    goodput_gbps: f64,
    jain_sat: f64,
    json: Json,
}

fn run_cell(shards: usize, placement: Placement, policy: &str, skewed: bool, args: &Args) -> Cell {
    let rt_cfg = RuntimeConfig {
        chunk_bytes: 64 << 10,
        open_until_ns: args.horizon_ns,
        seed: args.seed,
        hostq: HostQueueConfig {
            depth: 2,
            coalesce_count: 1,
            coalesce_timeout_ns: 0.0,
            poll_period_ps: 312,
        },
        shards,
        placement,
        core_stride: CORE_STRIDE,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(
        rt_cfg,
        tenants(skewed),
        policy_by_name(policy, rt_cfg.chunk_bytes).expect("known policy"),
    );
    let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
    cfg.sample_ns = 100_000.0;
    let mut serving = ServingSystem::new(cfg, runtime);
    serving.run_for(args.horizon_ns);

    let rt = serving.runtime();
    let span = args.horizon_ns;
    let stats = rt.tenant_stats();
    let total_bytes: u64 = stats.iter().map(|(_, s)| s.bytes_serviced).sum();
    let goodput = total_bytes as f64 / span;
    let p99_worst = stats
        .iter()
        .map(|(_, s)| s.e2e.p99())
        .fold(0.0f64, f64::max);
    let (jain_raw, jain_sat) = (rt.jain_by_bytes(), rt.jain_by_satisfaction());
    let policy_name = rt.policy_name();
    let host = rt.host_stats();
    // The modeled layers a cell's goodput moves with: each memory
    // side's row-hit rate and bus utilisation (means over its
    // channels), and the share of busy engine cycles with two or more
    // lanes running side by side.
    let sys = serving.system();
    let row_hit = |ctrls: &[MemController]| {
        ctrls.iter().map(|c| c.stats().row_hit_rate()).sum::<f64>() / ctrls.len().max(1) as f64
    };
    let (lane_cycles, busy_cycles) = sys.engines().iter().fold((0, 0), |(l, b), e| {
        (l + e.stats().lane_cycles, b + e.stats().busy_cycles)
    });
    let lane_frac = if busy_cycles == 0 {
        0.0
    } else {
        lane_cycles as f64 / busy_cycles as f64
    };

    let mut fields = vec![
        ("shards", Json::int(shards as u64)),
        ("placement", Json::str(placement.name())),
        ("policy", Json::str(policy_name)),
        ("skewed", Json::Bool(skewed)),
        ("goodput_gbps", Json::num(goodput)),
        ("jain_raw_bytes", Json::num(jain_raw)),
        ("jain_satisfaction", Json::num(jain_sat)),
        ("e2e_p99_worst_ns", Json::num(p99_worst)),
        ("chunks_dispatched", Json::int(rt.chunks_dispatched())),
        ("doorbells", Json::int(host.doorbells)),
        ("interrupts", Json::int(host.interrupts)),
        ("backlog_at_horizon", Json::int(rt.backlog() as u64)),
        (
            "dram_row_hit_rate",
            Json::num(row_hit(sys.dram_controllers())),
        ),
        (
            "pim_row_hit_rate",
            Json::num(row_hit(sys.pim_controllers())),
        ),
        (
            "dram_bus_util",
            Json::num(sys.bus_utilization(MemSpace::Dram)),
        ),
        (
            "pim_bus_util",
            Json::num(sys.bus_utilization(MemSpace::Pim)),
        ),
        ("lane_frac", Json::num(lane_frac)),
    ];
    if skewed {
        // Per-tenant detail so the stranded-bandwidth story is visible.
        let per_tenant: Vec<Json> = stats
            .iter()
            .map(|(name, s)| {
                Json::obj([
                    ("name", Json::str(*name)),
                    ("offered_bytes", Json::int(s.bytes_submitted)),
                    ("serviced_bytes", Json::int(s.bytes_serviced)),
                    (
                        "satisfaction",
                        Json::num(if s.bytes_submitted == 0 {
                            1.0
                        } else {
                            s.bytes_serviced as f64 / s.bytes_submitted as f64
                        }),
                    ),
                    ("e2e_p99_ns", Json::num(s.e2e.p99())),
                ])
            })
            .collect();
        fields.push(("tenants", Json::Arr(per_tenant)));
    }
    println!(
        "  N={shards} {:<12} {policy_name:<5}{}: {goodput:>6.2} GB/s  jain sat {jain_sat:>5.3} \
         raw {jain_raw:>5.3}  p99(worst) {p99_worst:>9.0} ns",
        placement.name(),
        if skewed { " skew" } else { "     " },
    );
    Cell {
        shards,
        placement,
        policy: policy_name,
        goodput_gbps: goodput,
        jain_sat,
        json: Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
    }
}

fn main() {
    let args = parse_args();
    println!(
        "shard_sweep: {} us horizon, {TENANTS} tenants x 128 KiB jobs on private 64-core \
         slices, offered ~{:.0} GB/s uniform",
        args.horizon_ns / 1000.0,
        TENANTS as f64 * (PER_CORE * CORES as u64) as f64 / MEAN_NS
    );

    // The scaling matrix: N x placement x policy under uniform
    // saturation.
    let mut cells: Vec<Cell> = Vec::new();
    for &shards in &SHARD_COUNTS {
        for placement in Placement::ALL {
            for policy in POLICY_NAMES {
                cells.push(run_cell(shards, placement, policy, false, &args));
            }
        }
    }

    // Capacity scaling vs the single-engine baseline, per placement x
    // policy.
    let mut scaling = Vec::new();
    let mut drr_pin_n2 = 0.0f64;
    let mut drr_pin_n4 = 0.0f64;
    for placement in Placement::ALL {
        for policy in POLICY_NAMES {
            let base = cells
                .iter()
                .find(|c| c.shards == 1 && c.placement == placement && c.policy == policy)
                .expect("baseline cell present")
                .goodput_gbps;
            for c in cells
                .iter()
                .filter(|c| c.placement == placement && c.policy == policy)
            {
                let ratio = if base > 0.0 {
                    c.goodput_gbps / base
                } else {
                    0.0
                };
                if policy == "drr" && placement == Placement::HashPin {
                    if c.shards == 2 {
                        drr_pin_n2 = ratio;
                    } else if c.shards == 4 {
                        drr_pin_n4 = ratio;
                    }
                }
                scaling.push(Json::obj([
                    ("placement", Json::str(placement.name())),
                    ("policy", Json::str(policy)),
                    ("shards", Json::int(c.shards as u64)),
                    ("single_gbps", Json::num(base)),
                    ("goodput_gbps", Json::num(c.goodput_gbps)),
                    ("scaling", Json::num(ratio)),
                ]));
            }
        }
    }
    println!(
        "\nDRR/hash-pin scaling: {drr_pin_n2:.2}x at N=2, {drr_pin_n4:.2}x at N=4{}",
        if drr_pin_n2 >= 1.7 && drr_pin_n4 >= 3.0 {
            " (>= 1.7x / >= 3x targets met)"
        } else {
            " (below the 1.7x / 3x targets!)"
        }
    );

    // The skew study: 8:1 offered-rate skew with both heavy tenants
    // hashing to shard 0 at N = 4.
    println!("\nskewed load (tenants 0 and 4 offer 8x, both hash to shard 0 at N={SKEW_SHARDS}):");
    let skew_pin = run_cell(SKEW_SHARDS, Placement::HashPin, "drr", true, &args);
    let skew_steal = run_cell(SKEW_SHARDS, Placement::LeastLoaded, "drr", true, &args);
    let steal_wins_jain = skew_steal.jain_sat > skew_pin.jain_sat;
    let steal_wins_goodput = skew_steal.goodput_gbps > skew_pin.goodput_gbps;
    println!(
        "  -> stealing {} hash-pin on satisfaction-jain ({:.3} vs {:.3}) and {} on goodput \
         ({:.2} vs {:.2} GB/s)",
        if steal_wins_jain { "beats" } else { "LOSES TO" },
        skew_steal.jain_sat,
        skew_pin.jain_sat,
        if steal_wins_goodput { "wins" } else { "LOSES" },
        skew_steal.goodput_gbps,
        skew_pin.goodput_gbps,
    );

    let doc = Json::obj([
        ("bench", Json::str("shard_sweep")),
        ("design", Json::str("Base+D+H+P")),
        ("horizon_ns", Json::num(args.horizon_ns)),
        ("seed", Json::int(args.seed)),
        ("tenants", Json::int(TENANTS as u64)),
        ("job_bytes", Json::int(PER_CORE * CORES as u64)),
        ("chunk_kib", Json::int(64)),
        ("ring_depth", Json::int(2)),
        ("core_stride", Json::int(CORE_STRIDE as u64)),
        (
            "offered_gbps_uniform",
            Json::num(TENANTS as f64 * (PER_CORE * CORES as u64) as f64 / MEAN_NS),
        ),
        ("drr_hash_pin_scaling_n2", Json::num(drr_pin_n2)),
        ("drr_hash_pin_scaling_n4", Json::num(drr_pin_n4)),
        (
            "runs",
            Json::Arr(cells.into_iter().map(|c| c.json).collect()),
        ),
        ("scaling", Json::Arr(scaling)),
        (
            "skew_study",
            Json::obj([
                ("shards", Json::int(SKEW_SHARDS as u64)),
                ("heavy_tenants", Json::str("t0,t4")),
                ("skew_ratio", Json::int(8)),
                ("hash_pin", skew_pin.json),
                ("least_loaded", skew_steal.json),
                ("stealing_beats_pin_on_jain", Json::Bool(steal_wins_jain)),
                (
                    "stealing_beats_pin_on_goodput",
                    Json::Bool(steal_wins_goodput),
                ),
            ]),
        ),
    ]);
    write_json(&args.out, &doc).expect("write results file");
    println!("wrote {}", args.out);
}
