//! End-to-end and per-layer benchmark of the modeled PIM-MMU machine
//! and of the simulator that runs it.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk_xfer|serve_chunked|serve_small> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A run repeats its workload, on one thread, for `--seconds` of host
//! time (at least two repetitions; it starts no repetition it expects to
//! end past the budget), checks every repetition's outputs and that all
//! of them agree bit for bit on every simulated value, and prints one
//! JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run alternates plain and self-profiled
//! repetitions, times the mapping and PIM-MS calls on the workload's
//! own op, and writes its span log to `perfbench/out/`.
//!
//! Each metric names its clock. *Sim* values are simulated time or
//! counts of the modeled machine and repeat exactly for one seed;
//! *host* values are time taken by the simulator, reported as medians.
//!
//! The simulator's own speed is a per-layer metric (`host.cpu_s`, the
//! median CPU time of an untraced repetition, read from the thread's
//! scheduler clock), not an end-to-end one: on a shared host its
//! cache-bound inner loop runs up to 3x slower for stretches of tens of
//! seconds, which moves 30-second medians by about 20% between runs of
//! the same code, too much for a regression bound. Compare it between
//! two builds in alternating pairs of runs.
//!
//! Every workload reports every metric. The operations are the three
//! transfer legs on `bulk_xfer` and the jobs on `serve_*`:
//!
//! | metric | clock | `bulk_xfer` | `serve_*` |
//! |---|---|---|---|
//! | `goodput_gbps` | sim | bytes / time of the two D+H+P legs | bytes / (last completion − first arrival) |
//! | `baseline_gbps` | sim | its software-copy leg | a 512 KiB software copy, run once outside the timed section |
//! | `nj_per_byte` | sim | energy of the D+H+P legs per byte | whole-run energy per job byte |
//! | `e2e_p50_us`, `e2e_p99_us` | sim | over the three legs | over the jobs (`JobRecord::e2e_ns`) |
//! | `irq_per_job` | sim | DCE completions per D+H+P leg | `Runtime::host_stats` |
//! | `completed_frac` | — | 1 − failed / attempted operations | same |
//! | `setup_s`, `peak_rss_mib` | host | median construction, `VmHWM` | same |
//!
//! Only `serve_small` completes enough jobs for ten samples beyond
//! p99; elsewhere `e2e_p99_us` is close to the maximum.
//!
//! The seed generates `serve_small`'s arrival times, `serve_chunked`'s
//! job sizes (through the runtime's generator) and `bulk_xfer`'s MRAM
//! heap offset, which moves its simulated times by well under 1%.

mod bulk;
mod layers;
mod serve;
mod trace;

use layers::{median, ratio, Profile, SimMap, DOMAINS};
use pim_mmu::{PimMmuOp, XferKind};
use pim_sim::{DesignPoint, SystemConfig};
use serve::Serve;
use std::time::{Duration, Instant};
use trace::{json_str, Tracer};

/// `bulk_xfer` moves 4 KiB to or from each of the 512 PIM cores: 2 MiB.
const BULK_PER_CORE: u64 = 4 << 10;
const BULK_CORES: u32 = 512;
/// `bulk_xfer`'s seed places its transfer at one of this many 64 B
/// lines into each core's MRAM heap.
const BULK_HEAP_LINES: u64 = 1 << 10;
/// `setup_s` is the median of at least this many constructions, of
/// which this many follow each repetition.
const SETUP_SAMPLES: usize = 101;
const SETUP_PER_REP: usize = 50;
const MIN_REPS: usize = 2;
const MAX_REPS: usize = 200;

/// One repetition of a workload.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// CPU time of the timed section.
    pub cpu_s: f64,
    pub sim: SimMap,
    pub profile: Profile,
    pub attempted: u64,
    pub failed: u64,
}

/// The benchmark's input generator (splitmix64).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() * mean
    }
}

enum Workload {
    /// The MRAM heap offset of every leg.
    Bulk(u64),
    Serve(Serve),
}

/// A DRAM→PIM transfer of `(per_core, n_cores)`: the serving
/// workloads' baseline leg and microbenchmark op.
fn to_pim((per_core, n_cores): (u64, u32), design: DesignPoint) -> bulk::Transfer {
    bulk::Transfer {
        design,
        kind: XferKind::DramToPim,
        per_core,
        n_cores,
        heap: 0,
    }
}

/// `bulk_xfer`'s legs: both directions at Base+D+H+P, then DRAM→PIM by
/// the software copy.
fn bulk_legs(heap: u64) -> [(&'static str, bulk::Transfer); 3] {
    let leg = |design, kind| bulk::Transfer {
        design,
        kind,
        per_core: BULK_PER_CORE,
        n_cores: BULK_CORES,
        heap,
    };
    [
        (
            "leg_dhp_dram_to_pim",
            leg(DesignPoint::BaseDHP, XferKind::DramToPim),
        ),
        (
            "leg_dhp_pim_to_dram",
            leg(DesignPoint::BaseDHP, XferKind::PimToDram),
        ),
        (
            "leg_base_dram_to_pim",
            leg(DesignPoint::Baseline, XferKind::DramToPim),
        ),
    ]
}

impl Workload {
    fn rep(&self, profile: bool, tr: &mut Tracer) -> Rep {
        match self {
            Workload::Bulk(heap) => bulk_rep(*heap, profile, tr),
            Workload::Serve(s) => s.rep(profile, tr),
        }
    }

    /// Host seconds of one construction of everything a repetition
    /// builds before its timed section.
    fn setup_sample(&self) -> f64 {
        match self {
            Workload::Bulk(heap) => bulk_legs(*heap).iter().map(|(_, x)| x.setup_s()).sum(),
            Workload::Serve(s) => s.setup_s(),
        }
    }

    /// The op the mapping and PIM-MS microbenchmarks walk.
    fn op(&self) -> PimMmuOp {
        match self {
            Workload::Bulk(heap) => bulk_legs(*heap)[0].1.op(),
            Workload::Serve(s) => to_pim(s.representative(), DesignPoint::BaseDHP).op(),
        }
    }

    /// Values measured once per run rather than per repetition: a
    /// serving workload's baseline leg, outside the timed section.
    fn once(&self, tr: &mut Tracer) -> SimMap {
        let mut m = SimMap::new();
        if let Workload::Serve(_) = self {
            let mut acc = bulk::LegLayers::default();
            let x = to_pim(serve::BASELINE_LEG, DesignPoint::Baseline);
            let (_, leg) = tr.span("baseline_leg", |tr| bulk::run_leg(x, false, tr, &mut acc));
            m.insert(
                "baseline_gbps".into(),
                ratio(leg.bytes as f64, leg.elapsed_ns),
            );
            m.insert(
                "cpu.ipc".into(),
                ratio(acc.retired as f64, acc.cpu_cycles as f64),
            );
        }
        m
    }
}

fn bulk_rep(heap: u64, profile: bool, tr: &mut Tracer) -> Rep {
    let mut acc = bulk::LegLayers::default();
    let (mut setup_s, mut wall_s, mut cpu_s) = (0.0, 0.0, 0.0);
    let mut legs = Vec::new();
    for (name, x) in bulk_legs(heap) {
        let (t, leg) = tr.span(name, |tr| bulk::run_leg(x, profile, tr, &mut acc));
        setup_s += t.setup_s;
        wall_s += t.run_s;
        cpu_s += t.run_cpu_s;
        legs.push((name, x.design, leg));
    }

    let mut failed = 0;
    for (name, design, leg) in &legs {
        let checks = [
            (leg.finished, "finished before the deadline"),
            (
                leg.pim_side_bytes == leg.bytes,
                "PIM-side controller bytes == transfer bytes",
            ),
            (
                !design.uses_dce() || leg.lines_done * 64 == leg.bytes,
                "DCE lines x 64 == transfer bytes",
            ),
        ];
        let bad: Vec<&str> = checks.iter().filter(|c| !c.0).map(|c| c.1).collect();
        if !bad.is_empty() {
            eprintln!("check failed on {name}: {}", bad.join(", "));
            failed += 1;
        }
    }

    let (dhp, base) = (&legs[..2], &legs[2].2);
    let sum = |f: &dyn Fn(&bulk::Leg) -> f64| dhp.iter().map(|(_, _, l)| f(l)).sum::<f64>();
    let dhp_bytes = sum(&|l| l.bytes as f64);
    let dhp_ns = sum(&|l| l.elapsed_ns);
    let mut e2e: Vec<f64> = legs.iter().map(|(_, _, l)| l.elapsed_ns / 1e3).collect();
    e2e.sort_by(f64::total_cmp);
    let base_nj_b = ratio(base.energy_nj, base.bytes as f64);
    let d2p = &legs[0].2;

    let mut m = SimMap::new();
    m.insert("goodput_gbps".into(), ratio(dhp_bytes, dhp_ns));
    m.insert(
        "baseline_gbps".into(),
        ratio(base.bytes as f64, base.elapsed_ns),
    );
    m.insert(
        "nj_per_byte".into(),
        ratio(sum(&|l| l.energy_nj), dhp_bytes),
    );
    m.insert("e2e_p50_us".into(), layers::percentile(&e2e, 0.50));
    m.insert("e2e_p99_us".into(), layers::percentile(&e2e, 0.99));
    m.insert("e2e_samples".into(), e2e.len() as f64);
    m.insert(
        "irq_per_job".into(),
        ratio(sum(&|l| l.completions as f64), dhp.len() as f64),
    );
    m.insert(
        "driver.busy_frac".into(),
        ratio(sum(&|l| l.driver_ns), dhp_ns),
    );
    m.insert(
        "cpu.ipc".into(),
        ratio(acc.retired as f64, acc.cpu_cycles as f64),
    );
    m.insert(
        "model.speedup".into(),
        ratio(
            d2p.bytes as f64 / d2p.elapsed_ns,
            base.bytes as f64 / base.elapsed_ns,
        ),
    );
    m.insert(
        "model.energy_gain".into(),
        ratio(base_nj_b, d2p.energy_nj / d2p.bytes as f64),
    );
    // The bare machine has no runtime and no host queue.
    for k in [
        "ring.mean_in_flight",
        "ring.doorbells_per_job",
        "ring.irq_per_chunk",
        "ring.fired_on_timer",
        "runtime.queue_p50_us",
        "runtime.service_p50_us",
        "runtime.chunks_per_job",
        "runtime.missed_dispatches",
    ] {
        m.insert(k.into(), 0.0);
    }
    acc.dram.put("dram", false, &mut m);
    acc.pim.put("pim", true, &mut m);
    acc.dce.put(&mut m);
    acc.profile.put_counts(&mut m);
    Rep {
        setup_s,
        wall_s,
        cpu_s,
        sim: m,
        profile: acc.profile,
        attempted: legs.len() as u64,
        failed,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

/// The binding layer: the modeled layer with the highest utilisation.
fn binding_layer(m: &SimMap) -> (&'static str, String) {
    let util = [
        ("pim_bus", m["pim.bus_util"]),
        ("dram_bus", m["dram.bus_util"]),
        ("dce", m["dce.busy_frac"]),
        ("driver", m["driver.busy_frac"]),
    ];
    let top = util
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty")
        .0;
    let detail = util
        .iter()
        .map(|(k, v)| format!("{k} {v:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    (top, detail)
}

/// The first simulated value on which two repetitions differ.
fn first_diff(a: &SimMap, b: &SimMap) -> Option<String> {
    if a.len() != b.len() {
        return Some("metric set".into());
    }
    a.iter()
        .zip(b)
        .find(|((ka, va), (kb, vb))| ka != kb || va.to_bits() != vb.to_bits())
        .map(|((k, _), _)| k.clone())
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload = match args.workload.as_str() {
        "bulk_xfer" => Workload::Bulk(SplitMix(args.seed).next_u64() % BULK_HEAP_LINES * 64),
        "serve_chunked" => Workload::Serve(Serve::chunked(args.seed)),
        "serve_small" => Workload::Serve(Serve::small(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Workload::Bulk(heap) = workload {
        println!(
            "bulk_xfer: seed {} places every leg at MRAM offset {heap:#x}",
            args.seed
        );
    }

    let mut tr = Tracer::new(args.trace);
    tr.begin(&args.workload);
    let once = workload.once(&mut tr);
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut setups = Vec::new();
    loop {
        let t_loop = Instant::now();
        plain.push(tr.span("rep", |tr| workload.rep(false, tr)));
        if args.trace {
            traced.push(tr.span("rep_profiled", |tr| workload.rep(true, tr)));
        }
        // Set-up samples spread over the run, so a slow stretch of the
        // host moves few of them.
        tr.span("setup_samples", |_| {
            for _ in 0..SETUP_PER_REP {
                setups.push(workload.setup_sample());
            }
        });
        let reps = plain.len();
        // Stop before a repetition that would overrun the budget.
        if (t0.elapsed() + t_loop.elapsed() > budget && reps >= MIN_REPS) || reps >= MAX_REPS {
            break;
        }
    }
    setups.extend(plain.iter().chain(&traced).map(|r| r.setup_s));
    tr.span("setup_samples", |_| {
        while setups.len() < SETUP_SAMPLES {
            setups.push(workload.setup_sample());
        }
    });

    let reference = &plain[0];
    let mut correct = true;
    for (i, r) in plain.iter().chain(&traced).enumerate().skip(1) {
        if let Some(k) = first_diff(&reference.sim, &r.sim) {
            eprintln!("determinism check failed: repetition {i} differs on {k}");
            correct = false;
        }
    }
    let all = || plain.iter().chain(&traced);
    let attempted = all().map(|r| r.attempted).max().unwrap_or(0).max(1);
    let mut failed = all().map(|r| r.failed).max().unwrap_or(0);
    if !correct {
        failed = attempted;
    }
    correct &= failed == 0;

    let mut sim = reference.sim.clone();
    sim.extend(once);
    let micro = args.trace.then(|| {
        tr.span("microbench", |tr| {
            let cfg = SystemConfig::table1(DesignPoint::BaseDHP);
            let op = workload.op();
            (
                tr.span("mapping.map", |_| layers::mapping_ns_per_map(&cfg, &op)),
                tr.span("pimms.next_pair", |_| layers::pimms_ns_per_pair(&cfg, &op)),
            )
        })
    });
    tr.end();

    let (binding, detail) = binding_layer(&sim);
    println!(
        "{} seed {}: {} repetitions; e2e p50 {:.3} us, p99 {:.3} us over {} samples; binding_layer {binding} ({detail})",
        args.workload,
        args.seed,
        plain.len() + traced.len(),
        sim["e2e_p50_us"],
        sim["e2e_p99_us"],
        sim["e2e_samples"],
    );
    if let Workload::Bulk(_) = workload {
        println!(
            "model vs paper (unvalidated model: the repository holds no hardware reference): \
             DRAM->PIM speedup over the software copy {:.2}x model / 4.1x paper, \
             energy efficiency {:.2}x model / 4.1x paper",
            sim["model.speedup"], sim["model.energy_gain"]
        );
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let mut by_wall: Vec<&Rep> = traced.iter().collect();
        by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let mid = by_wall[by_wall.len() / 2];
        let mut domains_s = 0.0;
        for d in DOMAINS {
            let (fires, skipped, wall_ns) =
                mid.profile.by_label.get(d).copied().unwrap_or_default();
            domains_s += wall_ns as f64 / 1e9;
            metrics.push((format!("{d}.wall_s"), wall_ns as f64 / 1e9, "s"));
            metrics.push((
                format!("{d}.ns_per_fire"),
                ratio(wall_ns as f64, fires as f64),
                "ns",
            ));
            metrics.push((format!("{d}.fires"), fires as f64, "count"));
            metrics.push((format!("{d}.skipped"), skipped as f64, "count"));
        }
        metrics.push(("engine.wall_s".into(), mid.wall_s - domains_s, "s"));
        metrics.push(("traced.wall_s".into(), mid.wall_s, "s"));
        let cpus: Vec<f64> = plain.iter().map(|r| r.cpu_s).collect();
        metrics.push(("host.cpu_s".into(), median(&cpus), "s"));
        let walls = |v: &[Rep]| median(&v.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        metrics.push((
            "tracing_overhead".into(),
            ratio(walls(&traced), walls(&plain)),
            "x",
        ));
        let (ns_map, ns_pair) = micro.expect("traced run");
        metrics.push(("mapping.ns_per_map".into(), ns_map, "ns"));
        metrics.push(("pimms.ns_per_pair".into(), ns_pair, "ns"));
        for (k, unit) in PER_LAYER_SIM {
            metrics.push((k.to_string(), sim[*k], unit));
        }
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match tr.write(&path) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                correct = false;
            }
        }
    } else {
        for (k, unit) in E2E_SIM {
            metrics.push((k.to_string(), sim[*k], unit));
        }
        metrics.push((
            "completed_frac".into(),
            (attempted - failed) as f64 / attempted as f64,
            "frac",
        ));
        metrics.push(("setup_s".into(), median(&setups), "s"));
        metrics.push(("peak_rss_mib".into(), layers::peak_rss_mib(), "MiB"));
    }

    let body = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                finite(*v),
                json_str(u)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    );
}

/// End-to-end simulated metrics, all read from the run's sim map.
const E2E_SIM: &[(&str, &str)] = &[
    ("goodput_gbps", "GB/s"),
    ("baseline_gbps", "GB/s"),
    ("nj_per_byte", "nJ/B"),
    ("e2e_p50_us", "us"),
    ("e2e_p99_us", "us"),
    ("irq_per_job", "1/job"),
];

/// Per-layer simulated metrics, all read from the run's sim map.
const PER_LAYER_SIM: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.edges_skipped", "count"),
    ("pim.bus_util", "frac"),
    ("dram.bus_util", "frac"),
    ("pim.row_hit_rate", "frac"),
    ("dram.row_hit_rate", "frac"),
    ("pim.rq_occupancy", "req"),
    ("pim.wq_occupancy", "req"),
    ("dce.busy_frac", "frac"),
    ("dce.buffer_stall_frac", "frac"),
    ("dce.continuations", "count"),
    ("dce.continuation_fallbacks", "count"),
    ("driver.busy_frac", "frac"),
    ("ring.mean_in_flight", "desc"),
    ("ring.doorbells_per_job", "1/job"),
    ("ring.irq_per_chunk", "1/chunk"),
    ("ring.fired_on_timer", "count"),
    ("runtime.queue_p50_us", "us"),
    ("runtime.service_p50_us", "us"),
    ("runtime.chunks_per_job", "1/job"),
    ("runtime.missed_dispatches", "count"),
    ("cpu.ipc", "instr/cycle"),
];
