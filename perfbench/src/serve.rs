//! The serving workloads: multi-tenant traffic through the runtime, the
//! host queue pairs and the DCE shards (`ServingSystem`).

use crate::layers::{percentile, ratio, thread_cpu_s, Channels, Engines, Profile, SimMap};
use crate::trace::Tracer;
use crate::{Rep, SplitMix};
use pim_mmu::XferKind;
use pim_runtime::{
    ArrivalProcess, Fcfs, HostQueueConfig, JobSizer, Runtime, RuntimeConfig, ServingSystem,
    TenantSpec,
};
use pim_sim::{DesignPoint, SystemConfig};
use std::time::Instant;

const TENANTS: usize = 4;
/// Tenant `i`'s jobs target the 128 cores of PIM channel `i` (core ids
/// are channel-major), so the four tenants cover all four channels.
const CHUNKED_CORES: u32 = 128;
/// The largest PrIM input maps to this many bytes per job, so job sizes
/// run from one 16 KiB chunk (TS, 8 KiB) to eight (BS).
const CHUNKED_CAP_BYTES: u64 = 128 << 10;
/// Closed-loop window: simulated time during which clients re-issue.
const CHUNKED_WINDOW_NS: f64 = 2_000_000.0;
/// 512 B jobs: 64 B to each of 8 cores, as in the large-N timing run.
const SMALL_PER_CORE: u64 = 64;
const SMALL_CORES: u32 = 8;
/// Per-tenant mean gap; four tenants give an aggregate 5 µs, about 70%
/// of the synchronous driver's ~3.5 µs doorbell + interrupt per job.
const SMALL_MEAN_GAP_NS: f64 = 20_000.0;
const SMALL_JOBS_PER_TENANT: usize = 4_000;

/// The serving workloads' software-copy reference, `(per_core,
/// n_cores)`: 512 KiB DRAM→PIM over all 512 cores. A smaller copy would
/// time only the copy threads' issue, not the transfer.
pub const BASELINE_LEG: (u64, u32) = (1 << 10, 512);

/// Tenant `i`'s direction: tenants alternate DRAM→PIM and PIM→DRAM.
fn kind(i: usize) -> XferKind {
    if i.is_multiple_of(2) {
        XferKind::DramToPim
    } else {
        XferKind::PimToDram
    }
}

/// Generated inputs of one serving workload.
pub enum Serve {
    /// Closed loop, two jobs outstanding per tenant, zero think time;
    /// each job's size drawn from the PrIM catalog by the runtime's
    /// generator, seeded from the benchmark seed.
    Chunked { seed: u64 },
    /// Open loop: each tenant's Poisson arrival times.
    Small { arrivals: Vec<Vec<f64>> },
}

impl Serve {
    pub fn chunked(seed: u64) -> Self {
        Serve::Chunked {
            seed: SplitMix(seed).next_u64(),
        }
    }

    pub fn small(seed: u64) -> Self {
        let mut rng = SplitMix(seed);
        let arrivals = (0..TENANTS)
            .map(|_| {
                let mut t = 0.0;
                (0..SMALL_JOBS_PER_TENANT)
                    .map(|_| {
                        t += rng.exp(SMALL_MEAN_GAP_NS);
                        t
                    })
                    .collect()
            })
            .collect();
        Serve::Small { arrivals }
    }

    /// One job of this workload's largest shape, `(per_core, n_cores)`.
    pub fn representative(&self) -> (u64, u32) {
        match self {
            Serve::Chunked { .. } => (CHUNKED_CAP_BYTES / u64::from(CHUNKED_CORES), CHUNKED_CORES),
            Serve::Small { .. } => (SMALL_PER_CORE, SMALL_CORES),
        }
    }

    fn deadline_ns(&self) -> f64 {
        match self {
            Serve::Chunked { .. } => CHUNKED_WINDOW_NS * 4.0,
            Serve::Small { arrivals } => {
                let last = arrivals
                    .iter()
                    .filter_map(|a| a.last())
                    .fold(0.0f64, |m, &t| m.max(t));
                last * 2.0 + 1e6
            }
        }
    }

    fn tenants(&self) -> Vec<TenantSpec> {
        (0..TENANTS)
            .map(|i| {
                let (arrival, sizer) = match self {
                    Serve::Chunked { .. } => (
                        ArrivalProcess::ClosedLoop {
                            inflight: 2,
                            think_ns: 0.0,
                        },
                        JobSizer::Suite {
                            cap_bytes: CHUNKED_CAP_BYTES,
                            n_cores: CHUNKED_CORES,
                        },
                    ),
                    Serve::Small { arrivals } => (
                        ArrivalProcess::Trace(arrivals[i].clone()),
                        JobSizer::Fixed {
                            per_core_bytes: SMALL_PER_CORE,
                            n_cores: SMALL_CORES,
                        },
                    ),
                };
                TenantSpec {
                    name: format!("t{i}"),
                    kind: kind(i),
                    arrival,
                    sizer,
                    priority: 1,
                    weight: 1,
                    class: 0,
                }
            })
            .collect()
    }

    fn config(&self) -> RuntimeConfig {
        match self {
            Serve::Chunked { seed } => RuntimeConfig {
                chunk_bytes: 16 << 10,
                seed: *seed,
                shards: 2,
                hostq: HostQueueConfig {
                    coalesce_count: 4,
                    coalesce_timeout_ns: 4_000.0,
                    ..HostQueueConfig::with_depth(8)
                },
                open_until_ns: CHUNKED_WINDOW_NS,
                core_stride: CHUNKED_CORES,
                ..RuntimeConfig::default()
            },
            Serve::Small { .. } => RuntimeConfig::default(),
        }
    }

    fn build(&self) -> ServingSystem {
        let runtime = Runtime::new(self.config(), self.tenants(), Box::new(Fcfs));
        ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), runtime)
    }

    /// Host seconds to construct the serving machine (a setup-only
    /// sample).
    pub fn setup_s(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.build());
        t0.elapsed().as_secs_f64()
    }

    /// Construct, run to drain, check and read out one repetition.
    pub fn rep(&self, profile: bool, tr: &mut Tracer) -> Rep {
        let t0 = Instant::now();
        let mut s = tr.span("setup", |_| self.build());
        let setup_s = t0.elapsed().as_secs_f64();
        if profile {
            s.enable_self_profile();
        }
        let (t0, c0) = (Instant::now(), thread_cpu_s());
        let drained = tr.span("run", |_| s.run_until_drained(self.deadline_ns()));
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = thread_cpu_s() - c0;
        let (sim, profile, attempted, failed) = tr.span("stats", |tr| read_out(&s, drained, tr));
        Rep {
            setup_s,
            wall_s,
            cpu_s,
            sim,
            profile,
            attempted,
            failed,
        }
    }
}

/// Every metric and check of a finished serving run.
fn read_out(s: &ServingSystem, drained: bool, tr: &mut Tracer) -> (SimMap, Profile, u64, u64) {
    let rt = s.runtime();
    let sys = s.system();
    let records = rt.records();
    let tenants = rt.tenant_stats();
    let submitted: u64 = tenants.iter().map(|(_, t)| t.submitted).sum();
    let bytes_submitted: u64 = tenants.iter().map(|(_, t)| t.bytes_submitted).sum();
    let bytes_done: u64 = records.iter().map(|r| r.bytes).sum();
    let jobs = records.len() as u64;

    let mut dce = Engines::default();
    dce.add(sys);
    let mut failed = submitted.saturating_sub(jobs);
    failed += records
        .iter()
        .filter(|r| !(r.submit_ns <= r.dispatch_ns && r.dispatch_ns <= r.complete_ns))
        .count() as u64;
    let checks = [
        (drained, "drained before the deadline"),
        (
            bytes_done == bytes_submitted,
            "job bytes == tenant bytes submitted",
        ),
        (
            dce.lines_done * 64 == bytes_done,
            "DCE lines x 64 == job bytes",
        ),
        (rt.missed_dispatches() == 0, "no missed dispatches"),
    ];
    for (ok, what) in checks {
        if !ok {
            eprintln!("check failed: {what}");
            failed = submitted;
        }
    }

    let mut e2e: Vec<f64> = records.iter().map(|r| r.e2e_ns() / 1e3).collect();
    let mut queue: Vec<f64> = records
        .iter()
        .map(|r| (r.dispatch_ns - r.submit_ns) / 1e3)
        .collect();
    let mut service: Vec<f64> = records
        .iter()
        .map(|r| (r.complete_ns - r.dispatch_ns) / 1e3)
        .collect();
    for v in [&mut e2e, &mut queue, &mut service] {
        v.sort_by(f64::total_cmp);
    }
    let first = records
        .iter()
        .map(|r| r.submit_ns)
        .fold(f64::INFINITY, f64::min);
    let last = records.iter().map(|r| r.complete_ns).fold(0.0f64, f64::max);
    let host = rt.host_stats();
    let energy_nj = sys.total_activity().energy(&sys.cfg.power).total_mj() * 1e6;
    let driver = rt.config().driver;
    let span_ns = last - first;

    let mut m = SimMap::new();
    m.insert("goodput_gbps".into(), ratio(bytes_done as f64, span_ns));
    m.insert("nj_per_byte".into(), ratio(energy_nj, bytes_done as f64));
    m.insert("e2e_p50_us".into(), percentile(&e2e, 0.50));
    m.insert("e2e_p99_us".into(), percentile(&e2e, 0.99));
    m.insert("e2e_samples".into(), e2e.len() as f64);
    m.insert("irq_per_job".into(), host.interrupts_per_job);
    m.insert("ring.mean_in_flight".into(), host.mean_in_flight);
    m.insert(
        "ring.doorbells_per_job".into(),
        ratio(host.doorbells as f64, jobs as f64),
    );
    m.insert("ring.irq_per_chunk".into(), host.interrupts_per_chunk);
    m.insert("ring.fired_on_timer".into(), host.fired_on_timer as f64);
    m.insert("runtime.queue_p50_us".into(), percentile(&queue, 0.50));
    m.insert("runtime.service_p50_us".into(), percentile(&service, 0.50));
    m.insert(
        "runtime.chunks_per_job".into(),
        ratio(rt.chunks_dispatched() as f64, jobs as f64),
    );
    m.insert(
        "runtime.missed_dispatches".into(),
        rt.missed_dispatches() as f64,
    );
    // Fixed driver costs only (syscall + MMIO doorbell, interrupt
    // delivery), averaged over the shards' driver contexts; the
    // per-entry descriptor writes are left out.
    m.insert(
        "driver.busy_frac".into(),
        ratio(
            host.doorbells as f64 * driver.submit_fixed_ns
                + host.interrupts as f64 * driver.interrupt_ns,
            span_ns * rt.config().shards as f64,
        ),
    );
    let mut dram = Channels::default();
    let mut pim = Channels::default();
    dram.add(sys.dram_controllers());
    pim.add(sys.pim_controllers());
    dram.put("dram", false, &mut m);
    pim.put("pim", true, &mut m);
    dce.put(&mut m);
    let mut profile = Profile::default();
    profile.add(sys);
    profile.put_counts(&mut m);

    tr.set_jobs(records);
    (m, profile, submitted, failed)
}
