//! Shard-layer behavior beyond the shared contract.
//!
//! The cross-shard invariants (exactly-once for every policy under
//! both placements, bounded rings, bit-identical seeded replay with
//! work-stealing) are asserted by the parameterized conformance suite
//! (`tests/conformance.rs`); the N = 1 bit-identity anchor against the
//! pre-sharding goldens lives in `tests/hostq_regression.rs`. This
//! file keeps the placement-specific behavior: hash-pin's per-tenant
//! queue-pair isolation.

use pim_hostq::HostQueueConfig;
use pim_runtime::testkit::{quick_driver, run_to_drain_sharded, trace_tenant};
use pim_runtime::{policy_by_name, Placement, Runtime, RuntimeConfig};

/// Hash-pin isolation: with one shard per tenant, each tenant's chunks
/// flow exclusively through its own ring — the literal per-tenant
/// queue-pair configuration the PR 3 follow-on asked for.
#[test]
fn hash_pin_gives_each_tenant_its_own_queue_pair() {
    let tenants = vec![
        trace_tenant("a", vec![0.0, 50.0, 100.0], 256, 2),
        trace_tenant("b", vec![10.0, 60.0], 512, 2),
        trace_tenant("c", vec![20.0], 256, 4),
    ];
    let cfg = RuntimeConfig {
        chunk_bytes: 256,
        driver: quick_driver(),
        open_until_ns: 1_000.0,
        hostq: HostQueueConfig::with_depth(4),
        shards: 3,
        placement: Placement::HashPin,
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg, tenants, policy_by_name("fcfs", 256).unwrap());
    assert!(run_to_drain_sharded(&mut rt, 20, 3_000_000).is_some());
    // Tenant i is pinned to shard i; chunk counts per tenant:
    // a: 3 jobs x 2 chunks, b: 2 jobs x 4 chunks, c: 1 job x 4 chunks.
    let per_shard = rt.shard_host_stats();
    assert_eq!(rt.tenant_shard(0), 0);
    assert_eq!(rt.tenant_shard(1), 1);
    assert_eq!(rt.tenant_shard(2), 2);
    assert_eq!(per_shard[0].descriptors, 6);
    assert_eq!(per_shard[1].descriptors, 8);
    assert_eq!(per_shard[2].descriptors, 4);
    // ...and each shard announced exactly its own tenant's jobs, with
    // one interrupt each: a job's chunks continue one another's sweep,
    // so every chunk but the last retires chain-silently.
    assert_eq!(per_shard[0].interrupts_per_job, 1.0);
    assert_eq!(per_shard[1].interrupts_per_job, 1.0);
    assert_eq!(per_shard[2].interrupts_per_job, 1.0);
}
