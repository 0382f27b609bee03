//! Criterion benchmark of PIM-MS schedule generation (Algorithm 1) —
//! the hardware generates one (src, dst) pair per issue slot, so the
//! software model must be well under the 312 ps engine cycle, and the
//! coarse/fine ablation should cost the same per pair. Both sweeps are
//! built the way the engine builds them: two-sided, against the HetMap.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pim_mapping::{HetMap, Organization, PhysAddr, PimAddrSpace};
use pim_mmu::{DceMode, PairScheduler, PimMmuOp};

fn op() -> (PimMmuOp, PimAddrSpace, HetMap) {
    let pim = Organization::upmem_dimm(4, 2);
    let het = HetMap::pim_mmu(Organization::ddr4_dimm(4, 2), pim);
    let space = PimAddrSpace::new(het.pim_base(), pim);
    let op = PimMmuOp::to_pim((0..512).map(|i| (PhysAddr(i as u64 * 65536), i)), 4096, 0);
    (op, space, het)
}

fn bench_scheduler(c: &mut Criterion) {
    let (op, space, het) = op();
    let pairs = op.total_bytes() / 64;
    let mut g = c.benchmark_group("pim_ms");
    g.throughput(Throughput::Elements(pairs));
    g.bench_function("algorithm1_full_sweep", |b| {
        b.iter(|| {
            let mut s = PairScheduler::two_sided(&op, &space, &het, DceMode::PimMs);
            let mut n = 0u64;
            while let Some(p) = s.next_pair() {
                black_box(p);
                n += 1;
            }
            assert_eq!(n, pairs);
        })
    });
    g.bench_function("coarse_full_sweep", |b| {
        b.iter(|| {
            let mut s = PairScheduler::two_sided(&op, &space, &het, DceMode::Coarse);
            let mut n = 0u64;
            while let Some(p) = s.next_pair() {
                black_box(p);
                n += 1;
            }
            assert_eq!(n, pairs);
        })
    });
    g.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
