//! Chunk-preemption sweep: chunk size × preemption mode × scheduling
//! policy under a saturating two-class load, measuring how the top
//! priority class's exact tail latency depends on whether the engine
//! can be suspended mid-chunk.
//!
//! ```text
//! cargo run --release -p pim-bench --bin preempt_sweep -- \
//!     [--smoke|--full] [--seed S] [--out PATH]
//! ```
//!
//! One latency-sensitive top-class tenant (class 0: 4 KiB jobs spread
//! over its own 64-core slice, steady cadence) shares a single DCE with
//! two saturating bulk tenants (class 1: 1 MiB jobs). With
//! `Preemption::Off`, the scheduler can only act at chunk boundaries,
//! so the top class's p99 tracks the *chunk* residency: fine at 64 KiB
//! chunks, an order of magnitude worse at 1 MiB chunks.
//! `PriorityKick` suspends the in-service bulk chunk the moment a
//! class-0 job arrives — the wait is then bounded by the engine's
//! in-flight pipeline drain (≤ the 16 KB data buffer), not the chunk —
//! and `Quantum` bounds any chunk's residency policy-agnostically.
//!
//! Headline (pinned by `BENCH_preempt.json` and the CI regression
//! `crates/runtime/tests/preempt_isolation.rs`): strict-priority
//! top-class p99 at 1 MiB chunks with the kick within ~2x of the
//! 64 KiB-chunk baseline, where `off` sits ≥ 8x above it.
//!
//! p99 here is computed exactly from the job records, not from the
//! ≤2x log2 histogram buckets.

use pim_bench::json::{write_json, Json};
use pim_runtime::{
    policy_by_name, HostQueueConfig, Preemption, Runtime, RuntimeConfig, ServingSystem, TenantSpec,
};
use pim_sim::{DesignPoint, SystemConfig};

/// Top class: 4 KiB jobs (64 B to each core of its 64-core slice).
const TOP_PER_CORE: u64 = 64;
/// Bulk class: 1 MiB jobs (16 KiB to each of 64 cores).
const BULK_PER_CORE: u64 = 16 << 10;
const CORES: u32 = 64;
const CORE_STRIDE: u32 = 64;
/// Top cadence: one job every 12 µs (~0.3 GB/s — latency-, not
/// bandwidth-bound; well under the driver-path capacity on its own).
const TOP_MEAN_NS: f64 = 12_000.0;
/// Bulk cadence per tenant: one 1 MiB job every 60 µs ≈ 35 GB/s
/// offered from two tenants — far past a single engine's ~9 GB/s
/// capacity, so a bulk chunk is (nearly) always in service when a top
/// job arrives.
const BULK_MEAN_NS: f64 = 60_000.0;

const CHUNKS_KIB: [u64; 3] = [64, 256, 1024];
const POLICIES: [&str; 2] = ["prio", "drr"];
/// Engine quantum for the `quantum` mode: 5 µs at 3.2 GHz — a little
/// over one driver round trip, so time-slicing overhead stays bounded.
const QUANTUM_CYCLES: u64 = 16_000;

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
        60_000.0
    } else if argv.iter().any(|a| a == "--full") {
        1_200_000.0
    } else {
        600_000.0
    };
    Args {
        horizon_ns,
        seed: flag_val("--seed")
            .map_or(0x5EC0ED, |v| v.parse().expect("--seed requires an integer")),
        out: flag_val("--out").unwrap_or_else(|| "BENCH_preempt.json".to_string()),
    }
}

fn tenants() -> Vec<TenantSpec> {
    let mut out = vec![TenantSpec::poisson("top", TOP_MEAN_NS, TOP_PER_CORE, CORES)];
    out[0].priority = 0;
    for i in 0..2 {
        let mut bulk = TenantSpec::poisson(&format!("bulk{i}"), BULK_MEAN_NS, BULK_PER_CORE, CORES);
        bulk.priority = 1;
        out.push(bulk);
    }
    out
}

/// Exact quantile over the top-class end-to-end latencies.
fn top_quantile(rt: &Runtime, q: f64) -> f64 {
    let mut e2e: Vec<f64> = rt
        .records()
        .iter()
        .filter(|r| r.tenant == 0)
        .map(|r| r.e2e_ns())
        .collect();
    if e2e.is_empty() {
        return 0.0;
    }
    e2e.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * e2e.len() as f64).ceil() as usize).max(1);
    e2e[rank - 1]
}

struct Cell {
    chunk_kib: u64,
    preemption: &'static str,
    policy: &'static str,
    top_p99_ns: f64,
    json: Json,
}

fn run_cell(chunk_kib: u64, preemption: Preemption, policy: &str, args: &Args) -> Cell {
    // Close arrivals well before the horizon: a top-class job stuck
    // behind a 1 MiB bulk chunk needs ~120 us to surface, and cutting
    // those stragglers off would *truncate the tail we are measuring*
    // (survivor bias in the p99).
    let open_until_ns = (args.horizon_ns - 160_000.0).max(args.horizon_ns * 0.5);
    let rt_cfg = RuntimeConfig {
        chunk_bytes: chunk_kib << 10,
        open_until_ns,
        seed: args.seed,
        // The async path's sweet spot (as in `shard_sweep`): a 2-deep
        // ring, coalescing off. Depth matters to the preemption story —
        // with a deep FIFO ring a top-class chunk can be *posted* and
        // still wait out every bulk chunk ahead of it, so the kick also
        // fires for urgent descriptors stuck behind the active one.
        hostq: HostQueueConfig {
            depth: 2,
            coalesce_count: 1,
            coalesce_timeout_ns: 0.0,
            poll_period_ps: 312,
        },
        preemption,
        core_stride: CORE_STRIDE,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(
        rt_cfg,
        tenants(),
        policy_by_name(policy, rt_cfg.chunk_bytes).expect("known policy"),
    );
    let mut cfg = SystemConfig::table1(DesignPoint::BaseDHP);
    cfg.sample_ns = 200_000.0;
    let mut serving = ServingSystem::new(cfg, runtime);
    serving.run_for(args.horizon_ns);

    let rt = serving.runtime();
    let span = args.horizon_ns;
    let stats = rt.tenant_stats();
    let top_jobs = stats[0].1.completed;
    let bulk_serviced: u64 = stats.iter().skip(1).map(|(_, s)| s.bytes_serviced).sum();
    let total_serviced: u64 = stats.iter().map(|(_, s)| s.bytes_serviced).sum();
    let (p50, p99) = (top_quantile(rt, 0.50), top_quantile(rt, 0.99));
    let policy_name = rt.policy_name();
    let preempt_name = preemption.name();
    let host = rt.host_stats();
    // Engine-side suspension cost: cycles spent quiescing per
    // suspension (read issue stopped, in-flight lines draining).
    let engine = serving.system().engines().first().expect("one DCE");
    let drain_per_suspension = if engine.stats().suspensions > 0 {
        engine.stats().drain_cycles as f64 / engine.stats().suspensions as f64
    } else {
        0.0
    };

    println!(
        "  {chunk_kib:>5} KiB {preempt_name:<8} {policy_name:<5}: top p99 {p99:>9.0} ns  \
         p50 {p50:>8.0} ns  ({top_jobs} jobs)  preempt {:>4}  goodput {:>6.2} GB/s",
        rt.preemptions(),
        total_serviced as f64 / span,
    );
    Cell {
        chunk_kib,
        preemption: preempt_name,
        policy: policy_name,
        top_p99_ns: p99,
        json: Json::obj([
            ("chunk_kib", Json::int(chunk_kib)),
            ("preemption", Json::str(preempt_name)),
            ("policy", Json::str(policy_name)),
            ("top_p99_ns", Json::num(p99)),
            ("top_p50_ns", Json::num(p50)),
            ("top_jobs", Json::int(top_jobs)),
            ("preemptions", Json::int(rt.preemptions())),
            ("resumes", Json::int(rt.resumes())),
            ("ring_recalls", Json::int(host.recalls)),
            (
                "drain_cycles_per_suspension",
                Json::num(drain_per_suspension),
            ),
            // Kicks that found the sweep exhausted: the chunk retires on
            // its own, so the engine refuses them.
            (
                "suspends_absorbed",
                Json::int(engine.stats().suspends_absorbed),
            ),
            ("bulk_serviced_gbps", Json::num(bulk_serviced as f64 / span)),
            ("goodput_gbps", Json::num(total_serviced as f64 / span)),
            ("backlog_at_horizon", Json::int(rt.backlog() as u64)),
        ]),
    }
}

fn main() {
    let args = parse_args();
    println!(
        "preempt_sweep: {} us horizon, 1 top-class tenant (4 KiB jobs every {} us) vs 2 \
         saturating bulk tenants (1 MiB jobs), one DCE",
        args.horizon_ns / 1000.0,
        TOP_MEAN_NS / 1000.0
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &chunk_kib in &CHUNKS_KIB {
        for preemption in Preemption::modes(QUANTUM_CYCLES) {
            for policy in POLICIES {
                cells.push(run_cell(chunk_kib, preemption, policy, &args));
            }
        }
    }

    let p99_of = |chunk: u64, preempt: &str, policy: &str| {
        cells
            .iter()
            .find(|c| c.chunk_kib == chunk && c.preemption == preempt && c.policy == policy)
            .expect("cell present")
            .top_p99_ns
    };
    // The headline: strict priority at 1 MiB chunks, kicked vs not,
    // against the 64 KiB chunk-boundary baseline.
    let base = p99_of(64, "off", "prio");
    let off_1m = p99_of(1024, "off", "prio");
    let kick_1m = p99_of(1024, "kick", "prio");
    let (off_ratio, kick_ratio) = (off_1m / base, kick_1m / base);
    println!(
        "\nstrict-priority top-class p99 vs the 64 KiB/off baseline ({base:.0} ns):\n\
           off  @1 MiB: {off_1m:>9.0} ns ({off_ratio:.1}x)\n\
           kick @1 MiB: {kick_1m:>9.0} ns ({kick_ratio:.1}x){}",
        if args.horizon_ns < 600_000.0 {
            "  (short horizon — headline ratios need a default/--full run)"
        } else if kick_ratio <= 2.0 && off_ratio >= 8.0 {
            "  (<=2x and >=8x targets met)"
        } else {
            "  (2x/8x TARGETS MISSED!)"
        }
    );

    let doc = Json::obj([
        ("bench", Json::str("preempt_sweep")),
        ("design", Json::str("Base+D+H+P")),
        ("horizon_ns", Json::num(args.horizon_ns)),
        ("seed", Json::int(args.seed)),
        ("top_job_bytes", Json::int(TOP_PER_CORE * CORES as u64)),
        ("bulk_job_bytes", Json::int(BULK_PER_CORE * CORES as u64)),
        ("top_mean_ns", Json::num(TOP_MEAN_NS)),
        ("bulk_mean_ns", Json::num(BULK_MEAN_NS)),
        ("quantum_cycles", Json::int(QUANTUM_CYCLES)),
        ("baseline_top_p99_ns", Json::num(base)),
        ("off_1mib_over_baseline", Json::num(off_ratio)),
        ("kick_1mib_over_baseline", Json::num(kick_ratio)),
        (
            "runs",
            Json::Arr(cells.into_iter().map(|c| c.json).collect()),
        ),
    ]);
    write_json(&args.out, &doc).expect("write results file");
    println!("wrote {}", args.out);
}
