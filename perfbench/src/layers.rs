//! Per-layer readings: the simulator's self-profile per clock domain,
//! the modeled layers' utilisation from their public stats, and
//! microbenchmarks of the mapping and PIM-MS scheduling calls.

use pim_dram::MemController;
use pim_mapping::{PhysAddr, PimAddrSpace};
use pim_mmu::{DceMode, PairScheduler, PimMmuOp};
use pim_sim::{System, SystemConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Named simulated-side values of one run. Every entry is a pure
/// function of the inputs, so repetitions must agree bit for bit.
pub type SimMap = BTreeMap<String, f64>;

/// Clock-domain labels the machine and the serving composer register.
pub const DOMAINS: [&str; 7] = ["cpu", "dram", "pim", "dce", "sample", "runtime", "hostq"];

/// Self-profile totals per domain label, summed over shards and legs.
#[derive(Default)]
pub struct Profile {
    /// label -> (fires, skipped, host wall ns)
    pub by_label: BTreeMap<&'static str, (u64, u64, u64)>,
    pub events: u64,
    pub edges_skipped: u64,
}

impl Profile {
    pub fn add(&mut self, sys: &System) {
        for d in sys.self_profile() {
            let e = self.by_label.entry(d.label).or_default();
            e.0 += d.fires;
            e.1 += d.skipped;
            e.2 += d.wall_ns;
        }
        let t = sys.timing_stats();
        self.events += t.events_fired;
        self.edges_skipped += t.edges_skipped;
    }

    /// The exact counts (fires, skips, events) into the sim map.
    pub fn put_counts(&self, m: &mut SimMap) {
        for d in DOMAINS {
            let (fires, skipped, _) = self.by_label.get(d).copied().unwrap_or_default();
            m.insert(format!("{d}.fires"), fires as f64);
            m.insert(format!("{d}.skipped"), skipped as f64);
        }
        m.insert("sim.events".into(), self.events as f64);
        m.insert("sim.edges_skipped".into(), self.edges_skipped as f64);
    }
}

/// Per-channel controller readings, averaged over every channel seen.
#[derive(Default)]
pub struct Channels {
    bus: Vec<f64>,
    hit: Vec<f64>,
    rq: Vec<f64>,
    wq: Vec<f64>,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl Channels {
    pub fn add(&mut self, ctrls: &[MemController]) {
        for c in ctrls {
            let s = c.stats();
            self.bus.push(s.bus_utilization());
            self.hit.push(s.row_hit_rate());
            self.rq.push(s.avg_read_q());
            self.wq.push(s.avg_write_q());
            self.bytes_read += s.bytes_read();
            self.bytes_written += s.bytes_written();
        }
    }

    pub fn put(&self, prefix: &str, queues: bool, m: &mut SimMap) {
        m.insert(format!("{prefix}.bus_util"), mean(&self.bus));
        m.insert(format!("{prefix}.row_hit_rate"), mean(&self.hit));
        if queues {
            m.insert(format!("{prefix}.rq_occupancy"), mean(&self.rq));
            m.insert(format!("{prefix}.wq_occupancy"), mean(&self.wq));
        }
    }
}

/// DCE counters summed over engines.
#[derive(Default)]
pub struct Engines {
    busy: u64,
    cycles: u64,
    stall: u64,
    continuations: u64,
    fallbacks: u64,
    pub lines_done: u64,
}

impl Engines {
    pub fn add(&mut self, sys: &System) {
        for e in sys.engines() {
            let s = e.stats();
            self.busy += s.busy_cycles;
            self.cycles += e.cycle();
            self.stall += s.buffer_stall_cycles;
            self.continuations += s.continuations;
            self.fallbacks += s.continuation_fallbacks;
            self.lines_done += s.lines_done;
        }
    }

    pub fn busy_frac(&self) -> f64 {
        ratio(self.busy as f64, self.cycles as f64)
    }

    pub fn put(&self, m: &mut SimMap) {
        m.insert("dce.busy_frac".into(), self.busy_frac());
        m.insert(
            "dce.buffer_stall_frac".into(),
            ratio(self.stall as f64, self.busy as f64),
        );
        m.insert("dce.continuations".into(), self.continuations as f64);
        m.insert("dce.continuation_fallbacks".into(), self.fallbacks as f64);
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in (0, 1].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Truncation intended: a rank is a small positive integer.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median over five samples of `f`'s cost per item, each sample
/// repeating `f` (which returns how many items it processed) for at
/// least 20 ms.
fn ns_per_item(mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut items = 0u64;
            while t0.elapsed().as_millis() < 20 || items == 0 {
                items += f();
            }
            t0.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&samples)
}

/// `mapping.ns_per_map`: `HetMap::map` over every DRAM-side line of
/// `op`.
pub fn mapping_ns_per_map(cfg: &SystemConfig, op: &PimMmuOp) -> f64 {
    let mapper = cfg.mapper();
    let lines: Vec<PhysAddr> = op
        .entries
        .iter()
        .flat_map(|&(base, _)| (0..op.size_per_pim / 64).map(move |k| PhysAddr(base.0 + 64 * k)))
        .collect();
    ns_per_item(|| {
        for &a in &lines {
            black_box(mapper.map(black_box(a)));
        }
        lines.len() as u64
    })
}

/// `pimms.ns_per_pair`: `PairScheduler::new` plus `next_pair` until the
/// schedule is exhausted.
pub fn pimms_ns_per_pair(cfg: &SystemConfig, op: &PimMmuOp) -> f64 {
    let space = PimAddrSpace::new(cfg.mapper().pim_base(), cfg.pim_org);
    ns_per_item(|| {
        let mut s = PairScheduler::new(black_box(op), &space, DceMode::PimMs);
        let mut pairs = 0;
        while let Some(p) = s.next_pair() {
            black_box(p);
            pairs += 1;
        }
        pairs
    })
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time this thread has run, seconds (`/proc/thread-self/schedstat`,
/// which leaves out time the thread waited for a CPU and, on a guest
/// with steal-time accounting, time the host took the CPU away).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}
