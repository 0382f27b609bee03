//! Serving-aware PIM-MS: the sweep-continuation dispatch path.
//!
//! A job's next fresh chunk staged directly behind its predecessor on
//! the same ring is declared a continuation: the engine chains the
//! retired chunk's channel-sweep cursor into it and the descriptor's
//! priced entries shrink to the context-reload footprint. These tests
//! pin the host-side contract:
//!
//! * every eligible chunk is claimed, under every policy and ring
//!   depth, and the submitted jobs all complete with their bytes;
//! * a mid-chunk preemption (recall) breaks the chain cleanly — the
//!   anchor is invalidated, the run still drains byte-exact.

use pim_runtime::testkit::{run_to_drain_sharded, trace_tenant};
use pim_runtime::{
    policy_by_name, HostQueueConfig, JobRecord, Placement, Preemption, Runtime, RuntimeConfig,
    TenantSpec, POLICY_NAMES,
};
use proptest::prelude::*;

/// A single tenant streaming multi-chunk jobs: each 64 KiB job over 8
/// cores splits into four 16 KiB chunks, so every job offers three
/// continuation opportunities.
fn build(depth: usize, preemption: Preemption, policy: &str) -> Runtime {
    let cfg = RuntimeConfig {
        chunk_bytes: 16 << 10,
        open_until_ns: 2_000.0,
        hostq: HostQueueConfig::with_depth(depth),
        preemption,
        ..RuntimeConfig::default()
    };
    let tenants = vec![trace_tenant(
        "stream",
        vec![0.0, 400.0, 800.0, 1_200.0],
        8 << 10,
        8,
    )];
    Runtime::new(cfg, tenants, policy_by_name(policy, 4_096).unwrap())
}

/// Completed `(job id, bytes)` pairs in id order.
fn completed(records: &[JobRecord]) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = records.iter().map(|r| (r.id, r.bytes)).collect();
    v.sort_unstable();
    v
}

#[test]
fn every_policy_chains_each_jobs_later_chunks() {
    let submitted: Vec<(u64, u64)> = (0..4).map(|id| (id, 64 << 10)).collect();
    for policy in POLICY_NAMES {
        let mut rt = build(4, Preemption::Off, policy);
        let records = run_to_drain_sharded(&mut rt, 20, 3_000_000).expect("drains");
        // Each 4-chunk job chains its last three chunks.
        assert_eq!(rt.continuations_staged(), 4 * 3, "{policy}");
        assert_eq!(completed(&records), submitted, "{policy}");
    }
}

#[test]
fn depth_one_rings_still_chain_consecutive_chunks() {
    // The synchronous ring shape: one descriptor in flight at a time,
    // yet consecutive chunks of one job still land back-to-back in seq
    // order, so the engine's held cursor carries across the interrupt.
    let mut rt = build(1, Preemption::Off, "fcfs");
    run_to_drain_sharded(&mut rt, 20, 3_000_000).expect("drains");
    assert_eq!(rt.continuations_staged(), 4 * 3);
    let (_, stats) = rt.tenant_stats()[0];
    assert_eq!(stats.bytes_completed, 4 * (64 << 10));
}

#[test]
fn a_recall_breaks_the_chain_and_the_run_stays_byte_exact() {
    // Quantum preemption suspends chunks mid-transfer; every recall
    // invalidates the job's anchor, so the resumed remainder and the
    // chunk after it rebuild instead of claiming a cursor the engine no
    // longer holds.
    let mut rt = build(2, Preemption::Quantum { device_cycles: 96 }, "fcfs");
    // A second tenant provides the waiter that justifies the quantum
    // kicks. (Rebuild the runtime with both.)
    let cfg = *rt.config();
    let tenants = vec![
        trace_tenant("stream", vec![0.0, 400.0, 800.0, 1_200.0], 8 << 10, 8),
        trace_tenant("probe", vec![50.0, 450.0, 850.0, 1_250.0], 256, 2),
    ];
    rt = Runtime::new(cfg, tenants, policy_by_name("fcfs", 4_096).unwrap());
    run_to_drain_sharded(&mut rt, 20, 3_000_000).expect("drains");
    assert!(rt.preemptions() > 0, "the quantum must actually kick");
    assert_eq!(rt.preemptions(), rt.resumes());
    let stats = rt.tenant_stats();
    assert_eq!(stats[0].1.bytes_completed, 4 * (64 << 10));
    assert_eq!(stats[1].1.bytes_completed, 4 * 512);
    // Chains formed where no recall interfered; none were required to.
    assert_eq!(stats[0].1.completed, 4);
    assert_eq!(stats[1].1.completed, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across random seeds, depths, shard counts and placements, the
    /// chunk path completes exactly the submitted job set, each job
    /// with its full payload, and conserves every tenant's bytes.
    #[test]
    fn continuation_completes_the_submitted_jobs_across_the_matrix(
        seed in 1u64..1_000_000,
        depth in 1usize..5,
        shards in 1usize..3,
        placement_sel in 0usize..2,
    ) {
        let cfg = RuntimeConfig {
            chunk_bytes: 8 << 10,
            open_until_ns: 1_500.0,
            seed,
            hostq: HostQueueConfig::with_depth(depth),
            shards,
            placement: Placement::ALL[placement_sel],
            ..RuntimeConfig::default()
        };
        let tenants = vec![
            TenantSpec::poisson("a", 300.0, 4_096, 4),
            TenantSpec::poisson("b", 500.0, 1_024, 2),
        ];
        let job_bytes = [4_096 * 4, 1_024 * 2];
        let mut rt = Runtime::new(cfg, tenants, policy_by_name("fcfs", 2_048).unwrap());
        let records = run_to_drain_sharded(&mut rt, 20, 3_000_000);
        prop_assert!(records.is_some(), "never drained");
        let records = records.unwrap();
        let submitted: u64 = rt.tenant_stats().iter().map(|(_, s)| s.submitted).sum();
        let ids: Vec<u64> = completed(&records).iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(ids, (0..submitted).collect::<Vec<u64>>());
        for r in &records {
            prop_assert_eq!(r.bytes, job_bytes[r.tenant], "job {}", r.id);
        }
        for (i, (_, s)) in rt.tenant_stats().iter().enumerate() {
            prop_assert_eq!(s.bytes_completed, s.bytes_submitted, "tenant {} bytes", i);
        }
    }
}
