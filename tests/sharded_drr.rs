//! Deficit round robin under hash-pin sharding.
//!
//! The `shard_sweep` load: eight open-loop Poisson tenants on private
//! 64-core slices offer far more than the machine serves, hash-pinned
//! `tenant mod N` onto N engines behind 2-deep rings. Each shard must
//! schedule its pinned tenants with its own round-robin state: with one
//! cursor shared by every shard, the shards' picks phase-lock and some
//! pinned tenants get no engine time at all over the horizon.

use pim_runtime::{
    Drr, HostQueueConfig, Placement, Runtime, RuntimeConfig, ServingSystem, TenantSpec,
};
use pim_sim::{DesignPoint, SystemConfig};

const TENANTS: usize = 8;
const HORIZON_NS: f64 = 150_000.0;

fn run(shards: usize) -> ServingSystem {
    let tenants = (0..TENANTS)
        .map(|i| TenantSpec::poisson(&format!("t{i}"), 8_000.0, 2 << 10, 64))
        .collect();
    let cfg = RuntimeConfig {
        chunk_bytes: 64 << 10,
        open_until_ns: HORIZON_NS,
        seed: 0x5AADED,
        hostq: HostQueueConfig::with_depth(2),
        shards,
        placement: Placement::HashPin,
        core_stride: 64,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(cfg, tenants, Box::new(Drr::new(cfg.chunk_bytes)));
    let mut serving = ServingSystem::new(SystemConfig::table1(DesignPoint::BaseDHP), runtime);
    serving.run_for(HORIZON_NS);
    serving
}

#[test]
fn every_pinned_tenant_is_served_within_the_horizon() {
    for shards in [2, 4] {
        let serving = run(shards);
        let rt = serving.runtime();
        for (name, t) in rt.tenant_stats() {
            assert!(
                t.bytes_serviced > 0,
                "N = {shards}: tenant {name} got no engine time in {HORIZON_NS} ns"
            );
        }
        let jain = rt.jain_by_satisfaction();
        assert!(jain > 0.9, "N = {shards}: satisfaction Jain {jain:.3}");
    }
}
