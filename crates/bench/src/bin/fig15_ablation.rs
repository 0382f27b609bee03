//! Fig. 15: the D/H/P ablation — transfer throughput (a) and energy (b)
//! for Base, Base+D, Base+D+H and Base+D+H+P over a size sweep, both
//! directions.
//!
//! Paper shape: "Base+D" *degrades* throughput in most cases (a vanilla
//! DMA engine loses to the OoO cores' deep AVX pipelining); "+H" alone
//! barely helps end-to-end (the PIM side still bottlenecks); "+P"
//! unlocks it (avg 4.1x, max 6.9x). Energy: Base+D and Base+D+H cost
//! *more* than Base; the full design wins because static energy
//! integrates over a much shorter transfer.
//!
//! `--smoke` runs the 1 MB column only (both directions), the cell
//! where the two-sided PIM-MS sweep matters most.

use pim_bench::{cfg, geomean, row, HarnessArgs};
use pim_mmu::XferKind;
use pim_sim::{run_batch, BatchPoint, DesignPoint, TransferResult, TransferSpec};

fn main() {
    let args = HarnessArgs::parse();
    let sizes_mb: &[u64] = if args.smoke {
        &[1]
    } else if args.full {
        &[1, 4, 16, 64, 256]
    } else {
        &[1, 4, 16]
    };
    for kind in [XferKind::DramToPim, XferKind::PimToDram] {
        println!("\n=== {kind:?} ===");
        // All (size, design) runs are independent: one batch per
        // direction, fanned out over the host cores.
        let points: Vec<BatchPoint> = sizes_mb
            .iter()
            .flat_map(|&mb| {
                DesignPoint::all().into_iter().map(move |d| {
                    let spec = TransferSpec {
                        max_ns: 1e11,
                        ..TransferSpec::simple(kind, mb << 20)
                    };
                    BatchPoint::transfer(format!("{}MB/{}", mb, d.label()), cfg(d), spec)
                })
            })
            .collect();
        let flat = run_batch(&points, args.threads());
        let results: Vec<&[TransferResult]> = flat.chunks(DesignPoint::all().len()).collect();

        println!("(a) data-transfer throughput, normalized to Base");
        print!("{:<24}", "size");
        for mb in sizes_mb {
            print!(" {:>9}", format!("{mb}MB"));
        }
        println!();
        let mut full_speedups = Vec::new();
        for (di, d) in DesignPoint::all().iter().enumerate() {
            let vals: Vec<f64> = results
                .iter()
                .map(|per_size| per_size[di].speedup_over(&per_size[0]))
                .collect();
            if *d == DesignPoint::BaseDHP {
                full_speedups.extend(vals.clone());
            }
            row(d.label(), &vals);
        }
        println!(
            "-> PIM-MMU speedup: geomean {:.2}x, max {:.2}x (paper: avg 4.1x, max 6.9x overall)",
            geomean(&full_speedups),
            full_speedups.iter().cloned().fold(0.0, f64::max)
        );

        println!("(b) energy, normalized to Base (total; static-dominated)");
        let mut effs = Vec::new();
        for (di, d) in DesignPoint::all().iter().enumerate() {
            let vals: Vec<f64> = results
                .iter()
                .map(|per_size| per_size[di].energy.total_mj() / per_size[0].energy.total_mj())
                .collect();
            if *d == DesignPoint::BaseDHP {
                effs.extend(vals.iter().map(|e| 1.0 / e));
            }
            row(d.label(), &vals);
        }
        println!(
            "-> PIM-MMU energy-efficiency gain: geomean {:.2}x (paper: 3.3x D2P / 4.9x P2D)",
            geomean(&effs)
        );

        // Detailed breakdown at the largest size for the full design.
        let last = results.last().expect("nonempty");
        println!(
            "(b) breakdown at {} MB, {}:\n{}",
            sizes_mb.last().expect("nonempty"),
            DesignPoint::BaseDHP.label(),
            last[3].energy
        );
    }
}
