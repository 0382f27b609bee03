//! The abstract's headline numbers, asserted as bands at test scale
//! (recorded paper-vs-measured values live in EXPERIMENTS.md).

use pim_mapping::MemSpace;
use pim_mmu::{PimMmuOp, XferKind};
use pim_sim::{run_memcpy, run_transfer, DesignPoint, System, SystemConfig, TransferSpec};

fn cfg(d: DesignPoint) -> SystemConfig {
    let mut c = SystemConfig::table1(d);
    c.sample_ns = 200_000.0;
    c
}

#[test]
fn transfer_speedup_band() {
    // Paper: 4.1x average, 6.9x max across sizes/directions. At this
    // small scale we accept [2.5, 8].
    let spec = TransferSpec {
        max_ns: 1e10,
        ..TransferSpec::simple(XferKind::DramToPim, 4 << 20)
    };
    let base = run_transfer(&cfg(DesignPoint::Baseline), &spec);
    let full = run_transfer(&cfg(DesignPoint::BaseDHP), &spec);
    let speedup = base.elapsed_ns / full.elapsed_ns;
    assert!(
        (2.5..=8.0).contains(&speedup),
        "transfer speedup {speedup:.2}x outside band (base {:.2} GB/s, pim-mmu {:.2} GB/s)",
        base.throughput_gbps(),
        full.throughput_gbps()
    );
}

#[test]
fn one_mb_transfer_speedup_band() {
    // Fig. 15's smallest quick-scale cell: 2 KiB page-aligned staging
    // buffers per core inside one DRAM row span. Measured 4.81x with the
    // two-sided PIM-MS sweep; the one-sided sweep, which queued every
    // read of a round on one DRAM channel, reached only 2.35x.
    let spec = TransferSpec {
        max_ns: 1e10,
        ..TransferSpec::simple(XferKind::DramToPim, 1 << 20)
    };
    let base = run_transfer(&cfg(DesignPoint::Baseline), &spec);
    let full = run_transfer(&cfg(DesignPoint::BaseDHP), &spec);
    let speedup = base.elapsed_ns / full.elapsed_ns;
    assert!(
        (4.3..=5.3).contains(&speedup),
        "1 MB transfer speedup {speedup:.2}x outside band (base {:.2} GB/s, pim-mmu {:.2} GB/s)",
        base.throughput_gbps(),
        full.throughput_gbps()
    );
}

#[test]
fn two_sided_sweep_keeps_both_buses_busy() {
    // The 2 MiB DRAM→PIM leg of the paper's measurement, on the bare
    // machine: the DCE alone, per-core 4 KiB page-aligned buffers.
    let spec = TransferSpec::simple(XferKind::DramToPim, 2 << 20);
    let mut sys = System::new(cfg(DesignPoint::BaseDHP), Vec::new());
    let op = PimMmuOp::to_pim(spec.entries(), 4096, 0);
    let mode = DesignPoint::BaseDHP.dce_mode();
    sys.dce_mut().expect("DCE design").submit(op, mode).unwrap();
    assert!(sys.run_until(1e8, |s| s
        .dce()
        .expect("DCE design")
        .completed_at()
        .is_some()));
    let dram_bus = sys.bus_utilization(MemSpace::Dram);
    let pim_bus = sys.bus_utilization(MemSpace::Pim);
    let dram = sys.dram_controllers();
    let dram_hits = dram.iter().map(|c| c.stats().row_hit_rate()).sum::<f64>() / dram.len() as f64;
    // One-sided, both buses sat at 0.37: every read of a round queued
    // on one DRAM channel behind tCCD_L.
    assert!(dram_bus >= 0.55, "DRAM bus utilisation {dram_bus:.3}");
    assert!(pim_bus >= 0.55, "PIM bus utilisation {pim_bus:.3}");
    assert!(dram_hits >= 0.9, "DRAM row-hit rate {dram_hits:.3}");
}

#[test]
fn energy_efficiency_band() {
    // Paper: 4.1x average energy-efficiency gain.
    let spec = TransferSpec {
        max_ns: 1e10,
        ..TransferSpec::simple(XferKind::PimToDram, 4 << 20)
    };
    let base = run_transfer(&cfg(DesignPoint::Baseline), &spec);
    let full = run_transfer(&cfg(DesignPoint::BaseDHP), &spec);
    let gain = base.energy.total_mj() / full.energy.total_mj();
    assert!(
        (2.0..=10.0).contains(&gain),
        "energy-efficiency gain {gain:.2}x outside band"
    );
}

#[test]
fn memcpy_hetmap_band() {
    // Paper Fig. 14: 4.9x average (max 6.0x) on the Table-I machine.
    let b = run_memcpy(&cfg(DesignPoint::Baseline), 2 << 20, 1e10);
    let h = run_memcpy(&cfg(DesignPoint::BaseDHP), 2 << 20, 1e10);
    let gain = h.throughput_gbps() / b.throughput_gbps();
    assert!(
        (2.0..=12.0).contains(&gain),
        "memcpy HetMap gain {gain:.2}x outside band"
    );
}

#[test]
fn baseline_utilization_matches_characterization() {
    // Paper §III-B: the software path reaches only ~15.5 % of PIM peak
    // (~11.6 % of DRAM peak) — i.e. ~9 GB/s on 76.8 GB/s channels.
    let spec = TransferSpec {
        max_ns: 1e10,
        ..TransferSpec::simple(XferKind::DramToPim, 4 << 20)
    };
    let base = run_transfer(&cfg(DesignPoint::Baseline), &spec);
    let gbps = base.throughput_gbps();
    assert!(
        (5.0..=14.0).contains(&gbps),
        "baseline transfer throughput {gbps:.2} GB/s outside the characterization band"
    );
}
