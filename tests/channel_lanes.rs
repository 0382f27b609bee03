//! Channel-parallel descriptor lanes on the full simulated machine.
//!
//! A small `serve_chunked`-shaped run: four closed-loop tenants, each
//! on its own PIM channel, hash-pinned two per shard onto two engines
//! with depth-8 rings and 16 KiB chunks. Each engine's ring then holds
//! work for two disjoint channels, which the engine runs on two lanes
//! side by side. The run must still complete every job exactly once,
//! conserve bytes end to end, continue every chunk's sweep without a
//! fallback, and clear a goodput floor that a one-descriptor-at-a-time
//! engine does not reach.

use pim_mmu::XferKind;
use pim_runtime::{
    ArrivalProcess, Fcfs, HostQueueConfig, JobSizer, Runtime, RuntimeConfig, ServingSystem,
    TenantSpec,
};
use pim_sim::{DesignPoint, SystemConfig};

const TENANTS: usize = 4;
/// Tenant `i` targets the 128 cores of PIM channel `i`.
const CORES: u32 = 128;
/// 512 B per core: 64 KiB jobs, four 16 KiB chunks each.
const PER_CORE: u64 = 512;
const WINDOW_NS: f64 = 100_000.0;

fn run() -> ServingSystem {
    let tenants = (0..TENANTS)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            kind: if i % 2 == 0 {
                XferKind::DramToPim
            } else {
                XferKind::PimToDram
            },
            arrival: ArrivalProcess::ClosedLoop {
                inflight: 2,
                think_ns: 0.0,
            },
            sizer: JobSizer::Fixed {
                per_core_bytes: PER_CORE,
                n_cores: CORES,
            },
            priority: 1,
            weight: 1,
            class: 0,
        })
        .collect();
    let cfg = RuntimeConfig {
        chunk_bytes: 16 << 10,
        shards: 2,
        hostq: HostQueueConfig {
            coalesce_count: 4,
            coalesce_timeout_ns: 4_000.0,
            ..HostQueueConfig::with_depth(8)
        },
        open_until_ns: WINDOW_NS,
        core_stride: CORES,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(cfg, tenants, Box::new(Fcfs));
    let mut serving = ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), runtime);
    assert!(
        serving.run_until_drained(WINDOW_NS * 10.0),
        "the closed loop drains"
    );
    serving
}

#[test]
fn lanes_run_disjoint_channels_side_by_side_and_keep_every_invariant() {
    let serving = run();
    let rt = serving.runtime();
    let records = rt.records();
    let tenants = rt.tenant_stats();
    let submitted: u64 = tenants.iter().map(|(_, t)| t.submitted).sum();
    let bytes_submitted: u64 = tenants.iter().map(|(_, t)| t.bytes_submitted).sum();

    // Exactly-once completion.
    let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), records.len(), "duplicate completions");
    assert_eq!(records.len() as u64, submitted, "every job completes");

    // Byte conservation: jobs, tenants and the engines' landed lines.
    let bytes_done: u64 = records.iter().map(|r| r.bytes).sum();
    assert_eq!(bytes_done, bytes_submitted);
    let engines = serving.system().engines();
    assert_eq!(engines.len(), 2);
    let lines: u64 = engines.iter().map(|e| e.stats().lines_done).sum();
    assert_eq!(lines * 64, bytes_done, "DCE lines x 64 == job bytes");

    for (s, e) in engines.iter().enumerate() {
        let st = e.stats();
        assert!(st.lane_cycles > 0, "shard {s} never ran two lanes");
        assert!(st.continuations > 0, "shard {s} continued no sweep");
        assert_eq!(st.continuation_fallbacks, 0, "shard {s} fell back");
    }

    // Goodput over the run, as `perfbench` measures it. An engine that
    // runs one descriptor at a time reaches 22.0 GB/s here; lanes alone
    // reached 27.1 GB/s (the ring-slot floor is in the next test).
    let goodput = bytes_done as f64 / span_ns(&serving);
    assert!(goodput > 26.0, "goodput {goodput:.2} GB/s below the floor");
}

/// The run's span as `perfbench` measures goodput over it: first
/// arrival to last completion.
fn span_ns(serving: &ServingSystem) -> f64 {
    let records = serving.runtime().records();
    let first = records
        .iter()
        .map(|r| r.submit_ns)
        .fold(f64::INFINITY, f64::min);
    let last = records.iter().map(|r| r.complete_ns).fold(0.0f64, f64::max);
    last - first
}

#[test]
fn silent_slots_free_behind_an_armed_chain_tail() {
    let serving = run();
    let rt = serving.runtime();
    let bytes_done: u64 = rt.records().iter().map(|r| r.bytes).sum();
    let span = span_ns(&serving);
    // A job's last chunk arms the coalescing timer; the other tenant's
    // chain-silent completions retiring behind it free their ring slots
    // at the next poll edge instead of waiting out that timer: 37.1
    // GB/s here. Freeing only the silent prefix ahead of the first
    // armed completion reaches 27.1 GB/s.
    let goodput = bytes_done as f64 / span;
    assert!(goodput > 33.0, "goodput {goodput:.2} GB/s below the floor");
    let host = rt.host_stats();
    assert!(host.interrupts > 0);
    assert!(
        host.interrupts_per_job < 1.0,
        "chain tails still batch their interrupts"
    );
}

#[test]
fn driver_busy_time_fits_inside_the_span_on_every_shard() {
    let serving = run();
    let rt = serving.runtime();
    let span = span_ns(&serving);
    let shards = rt.shard_host_stats();
    assert_eq!(shards.len(), 2);
    for (s, h) in shards.iter().enumerate() {
        assert!(h.driver_busy_ns > 0.0, "shard {s} driver never busy");
        assert!(
            h.driver_busy_ns <= span,
            "shard {s}: driver busy {:.0} ns over a {span:.0} ns span",
            h.driver_busy_ns
        );
    }
    let total: f64 = shards.iter().map(|h| h.driver_busy_ns).sum();
    assert_eq!(total, rt.host_stats().driver_busy_ns);
    assert!(total <= span * shards.len() as f64);
}
