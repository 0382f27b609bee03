//! One DRAM↔PIM transfer on the bare machine (`System`, no runtime and
//! no host queue): the paper's own measurement, one leg at a time.

use crate::layers::{thread_cpu_s, Channels, Engines, Profile};
use crate::trace::Tracer;
use pim_cpu::streams::{CopyChunk, XferDir, XferStream};
use pim_cpu::{Thread, ThreadKind};
use pim_mapping::{PhysAddr, PimAddrSpace};
use pim_mmu::{PimMmuOp, XferKind};
use pim_sim::{DesignPoint, System, SystemConfig, ThreadAssignment, HOST_BUFFER_BASE};
use std::time::Instant;

/// Simulated-time cap per leg; a leg still running then has deadlocked.
const LEG_MAX_NS: f64 = 2e8;

/// One DRAM↔PIM transfer: `per_core` bytes to or from each of cores
/// `0..n_cores` at MRAM offset `heap`, staged back to back in DRAM
/// from the host buffer base.
#[derive(Clone, Copy)]
pub struct Transfer {
    pub design: DesignPoint,
    pub kind: XferKind,
    pub per_core: u64,
    pub n_cores: u32,
    pub heap: u64,
}

impl Transfer {
    pub fn bytes(&self) -> u64 {
        self.per_core * u64::from(self.n_cores)
    }

    /// The per-core `(dram_addr, core)` entries.
    fn entries(&self) -> Vec<(PhysAddr, u32)> {
        (0..self.n_cores)
            .map(|i| (PhysAddr(HOST_BUFFER_BASE + u64::from(i) * self.per_core), i))
            .collect()
    }

    /// The DCE descriptor.
    pub fn op(&self) -> PimMmuOp {
        match self.kind {
            XferKind::DramToPim => PimMmuOp::to_pim(self.entries(), self.per_core, self.heap),
            XferKind::PimToDram => PimMmuOp::from_pim(self.entries(), self.per_core, self.heap),
        }
    }

    /// The baseline's software copy: `cfg.sw_threads` AVX copy threads,
    /// each owning a block of PIM cores (§V).
    fn copy_threads(&self, cfg: &SystemConfig) -> Vec<Thread> {
        let space = PimAddrSpace::new(cfg.mapper().pim_base(), cfg.pim_org);
        let entries = self.entries();
        let n = cfg.sw_threads.max(1);
        let mut per_thread: Vec<Vec<CopyChunk>> = vec![Vec::new(); n];
        for (idx, &(dram, core)) in entries.iter().enumerate() {
            let t = match cfg.assignment {
                ThreadAssignment::RankBlocked => idx * n / entries.len(),
                ThreadAssignment::Interleaved => idx % n,
            };
            let pim = space.core_phys(core, self.heap);
            let (src, dst) = match self.kind {
                XferKind::DramToPim => (dram, pim),
                XferKind::PimToDram => (pim, dram),
            };
            per_thread[t].push(CopyChunk {
                src,
                dst,
                bytes: self.per_core,
            });
        }
        let dir = match self.kind {
            XferKind::DramToPim => XferDir::DramToPim,
            XferKind::PimToDram => XferDir::PimToDram,
        };
        per_thread
            .into_iter()
            .filter(|c| !c.is_empty())
            .map(|chunks| {
                Thread::new(
                    Box::new(XferStream::new(
                        dir,
                        chunks,
                        XferStream::DEFAULT_TRANSPOSE_BUBBLES,
                    )),
                    ThreadKind::Transfer,
                )
            })
            .collect()
    }

    /// Build the machine, and for a DCE design the op it will run.
    fn setup(&self) -> (System, Option<PimMmuOp>) {
        let cfg = SystemConfig::table1(self.design);
        if self.design.uses_dce() {
            let op = self.op();
            (System::new(cfg, Vec::new()), Some(op))
        } else {
            let threads = self.copy_threads(&cfg);
            (System::new(cfg, threads), None)
        }
    }

    /// Host seconds to construct the machine and op (a setup-only
    /// sample).
    pub fn setup_s(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.setup());
        t0.elapsed().as_secs_f64()
    }
}

/// Layer readings accumulated over legs: the profile from every leg,
/// the controllers and engines from DCE legs, the CPU from software
/// legs.
#[derive(Default)]
pub struct LegLayers {
    pub profile: Profile,
    pub dram: Channels,
    pub pim: Channels,
    pub dce: Engines,
    pub retired: u64,
    pub cpu_cycles: u64,
}

/// What one leg moved and what it cost in simulated time and energy.
pub struct Leg {
    pub bytes: u64,
    pub elapsed_ns: f64,
    pub energy_nj: f64,
    pub finished: bool,
    /// Bytes the PIM-side controllers moved in the transfer's direction.
    pub pim_side_bytes: u64,
    /// DCE lines landed (DCE legs only).
    pub lines_done: u64,
    /// DCE completions (DCE legs only): one interrupt each.
    pub completions: u64,
    /// Modeled driver time (submit + interrupt), ns.
    pub driver_ns: f64,
}

/// Host seconds spent constructing and running a leg.
pub struct LegTimes {
    pub setup_s: f64,
    pub run_s: f64,
    /// CPU time of the run, from the thread's scheduler clock.
    pub run_cpu_s: f64,
}

/// Run one transfer leg on the bare machine.
pub fn run_leg(
    x: Transfer,
    profile: bool,
    tr: &mut Tracer,
    acc: &mut LegLayers,
) -> (LegTimes, Leg) {
    let (design, kind, n_cores) = (x.design, x.kind, x.n_cores);
    let t0 = Instant::now();
    let (mut sys, op) = tr.span("setup", |_| x.setup());
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(op) = op {
        tr.span("submit", |_| {
            sys.dce_mut()
                .expect("design uses a DCE")
                .submit(op, design.dce_mode())
                .expect("a whole-machine op is valid");
        });
    }
    if profile {
        sys.enable_self_profile();
    }

    // `copy_threads` leaves no thread empty, so it built this many.
    let threads = if design.uses_dce() {
        0
    } else {
        sys.cfg.sw_threads.max(1).min(n_cores as usize)
    };
    let (t0, c0) = (Instant::now(), thread_cpu_s());
    let finished = tr.span("run", |_| {
        if design.uses_dce() {
            sys.run_until(LEG_MAX_NS, |s| {
                s.dce().expect("present").completed_at().is_some()
            })
        } else {
            sys.run_until(LEG_MAX_NS, move |s| {
                (0..threads).all(|t| s.cluster().thread_finished(t))
            })
        }
    });
    let run_s = t0.elapsed().as_secs_f64();
    let run_cpu_s = thread_cpu_s() - c0;

    let leg = tr.span("stats", |tr| {
        let bytes = x.bytes();
        let (elapsed_ns, driver_ns) = if design.uses_dce() {
            let cycles = sys.dce().expect("present").completed_at().unwrap_or(0);
            let engine_ns = cycles as f64 * sys.cfg.dce.period_ps() as f64 / 1000.0;
            let driver_ns = sys.cfg.driver.round_trip_ns(n_cores as usize);
            (engine_ns + driver_ns, driver_ns)
        } else {
            let period_ns = sys.cfg.cpu.period_ps() as f64 / 1000.0;
            let last = (0..threads)
                .filter_map(|t| sys.cluster().thread_finished_at(t))
                .max()
                .unwrap_or(0);
            (last as f64 * period_ns, 0.0)
        };
        let energy_nj = sys.total_activity().energy(&sys.cfg.power).total_mj() * 1e6;
        acc.profile.add(&sys);
        let (lines_done, completions) = if design.uses_dce() {
            acc.dram.add(sys.dram_controllers());
            acc.pim.add(sys.pim_controllers());
            acc.dce.add(&sys);
            let dce = sys.dce().expect("present");
            (
                dce.stats().lines_done,
                u64::from(dce.completed_at().is_some()),
            )
        } else {
            let c = sys.cluster().stats();
            acc.retired += c.retired;
            acc.cpu_cycles += c.cycles;
            // The copy threads retire before their last posted writes
            // reach the PIM channels: drain them (after every reading
            // above) so the byte check sees the whole transfer.
            tr.span("drain", |_| {
                sys.run_until(LEG_MAX_NS, |s| s.cluster().quiescent() && s.memory_idle())
            });
            (0, 0)
        };
        let mut pim = Channels::default();
        pim.add(sys.pim_controllers());
        let pim_side_bytes = match kind {
            XferKind::DramToPim => pim.bytes_written,
            XferKind::PimToDram => pim.bytes_read,
        };
        Leg {
            bytes,
            elapsed_ns,
            energy_nj,
            finished,
            pim_side_bytes,
            lines_done,
            completions,
            driver_ns,
        }
    });
    (
        LegTimes {
            setup_s,
            run_s,
            run_cpu_s,
        },
        leg,
    )
}
