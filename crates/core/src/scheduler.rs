//! PIM-MS: the PIM-aware memory scheduler (paper Algorithm 1, §IV-D).
//!
//! The key insight: per-PIM-core transfer chunks are mutually exclusive
//! (the programmer must assign each partition a unique PIM address), so
//! line transfers can be *reordered freely* without affecting correctness.
//! PIM-MS exploits this by sweeping over PIM cores channel-parallel, with
//! the bank group as the innermost rotation (consecutive column commands
//! then pay `tCCD_S`, not `tCCD_L`), ranks next, and banks outermost —
//! maximizing channel/bank-group/bank-level parallelism on the PIM side.
//!
//! # The two-sided sweep
//!
//! The PIM-side order alone fights HetMap on the DRAM side. Per-core
//! staging buffers are typically page-aligned and packed inside one
//! DRAM row span, so line *k* of every core maps to the same DRAM
//! channel (and bank group), and a sweep that emits line *k* of all
//! cores before line *k + 1* queues every read of a round on one DRAM
//! channel. Given the DRAM-side map
//! ([`PairScheduler::two_sided`]), PIM-MS also orders each core's lines
//! for the DRAM side:
//!
//! * each core's per-descriptor range splits into groups of `G` lines
//!   aligned to the range start, `G` = the number of DRAM channels;
//! * within a group wholly inside the range, the core emits offsets
//!   `t XOR s` for `t = 0..G`, with `s` chosen so the group's first
//!   emitted line maps to DRAM channel `slot mod G` — `slot` being the
//!   core's emission index within a sweep round (its position in its
//!   channel queue × the number of active queues + the queue index);
//! * a partial group, or one where no `s` reaches the target (a map
//!   whose channel bits are not the low line bits), keeps ascending
//!   order.
//!
//! Under the MLP-centric map the `G` consecutive emissions of a round
//! then land on `G` distinct DRAM channels. The swizzle never leaves a
//! `G`-line group, so the PIM-side (channel, bank) visitation and PIM
//! row locality are exactly those of the one-sided sweep, and Coarse
//! mode ignores the DRAM map altogether.

use crate::config::DceMode;
use crate::op::{PimMmuOp, XferKind};
use pim_mapping::{HetMap, PhysAddr, PimAddrSpace, LINE_BYTES};
use std::collections::BTreeMap;

/// One 64 B line transfer: read `src`, (transpose), write `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinePair {
    /// Source physical address.
    pub src: PhysAddr,
    /// Destination physical address.
    pub dst: PhysAddr,
    /// The PIM channel this pair's PIM-side access targets.
    pub pim_channel: u32,
}

/// The DRAM-side map the two-sided sweep orders each core's lines
/// against, with its group size `G`: the DRAM channel count, a power of
/// two like every [`Organization`](pim_mapping::Organization)
/// dimension, so `t XOR s` permutes a `G`-line group.
#[derive(Debug, Clone)]
struct DramSide {
    map: HetMap,
    group: u64,
}

impl DramSide {
    fn new(map: &HetMap) -> Box<Self> {
        Box::new(DramSide {
            map: map.clone(),
            group: u64::from(map.dram_organization().channels),
        })
    }

    /// The XOR `s` for the group starting at DRAM address `first`: the
    /// smallest `s` whose line maps to DRAM channel `target`, else 0.
    fn swizzle(&self, first: PhysAddr, target: u64) -> u64 {
        (0..self.group)
            .find(|&s| u64::from(self.map.map(first.offset(s * LINE_BYTES)).addr.channel) == target)
            .unwrap_or(0)
    }
}

/// The per-core cursor: the address-buffer entry of Fig. 11 (base DRAM
/// address, PIM core, offset counter) with the AGU's address generation
/// folded in (Algorithm 1 lines 8-14).
#[derive(Debug, Clone, Copy)]
struct CoreCursor {
    /// The PIM core this cursor's entry targets.
    core: u32,
    /// The PIM channel that core lives on — carried per cursor so
    /// emitted pairs are tagged correctly in *both* modes (Coarse keeps
    /// all cores in one logical queue, so the queue's channel field
    /// cannot stand in for it).
    channel: u32,
    /// DRAM-side base address of the core's range.
    dram_base: PhysAddr,
    /// PIM-side base address of the core's range.
    pim_base: PhysAddr,
    /// Direction: the DRAM side is the source.
    to_pim: bool,
    bytes: u64,
    offset: u64,
    /// The core's emission slot within a sweep round (position in its
    /// channel queue × active queues + queue index).
    slot: u64,
    /// XOR applied to the line index inside the current group.
    swizzle: u64,
}

impl CoreCursor {
    /// A cursor for `core` (on PIM channel `channel`) over its range of
    /// `op`, whose DRAM side starts at `dram_base`.
    fn new(
        core: u32,
        channel: u32,
        op: &PimMmuOp,
        dram_base: PhysAddr,
        space: &PimAddrSpace,
    ) -> Self {
        CoreCursor {
            core,
            channel,
            dram_base,
            pim_base: space.core_phys(core, op.heap_offset),
            to_pim: matches!(op.kind, XferKind::DramToPim),
            bytes: op.size_per_pim,
            offset: 0,
            slot: 0,
            swizzle: 0,
        }
    }

    /// Point the cursor at the start of its range of `op`, keeping its
    /// place in the sweep.
    fn rebind(&mut self, op: &PimMmuOp, dram_base: PhysAddr, space: &PimAddrSpace) {
        *self = CoreCursor {
            slot: self.slot,
            ..CoreCursor::new(self.core, self.channel, op, dram_base, space)
        };
    }

    fn next_pair(&mut self, dram: Option<&DramSide>) -> Option<LinePair> {
        if self.offset >= self.bytes {
            return None;
        }
        let line = self.offset / LINE_BYTES;
        if let Some(d) = dram.filter(|d| line.is_multiple_of(d.group)) {
            // Entering a group: swizzle it only if it lies wholly
            // inside the range.
            self.swizzle = if self.bytes / LINE_BYTES - line >= d.group {
                d.swizzle(self.dram_base.offset(self.offset), self.slot % d.group)
            } else {
                0
            };
        }
        let off = (line ^ self.swizzle) * LINE_BYTES;
        let (dram, pim) = (self.dram_base.offset(off), self.pim_base.offset(off));
        let (src, dst) = if self.to_pim {
            (dram, pim)
        } else {
            (pim, dram)
        };
        self.offset += LINE_BYTES; // min_access_granularity
        Some(LinePair {
            src,
            dst,
            pim_channel: self.channel,
        })
    }
}

#[derive(Debug)]
struct ChannelQueue {
    cores: Vec<CoreCursor>,
    rr: usize,
    remaining_lines: u64,
}

impl ChannelQueue {
    fn next(&mut self, dram: Option<&DramSide>) -> Option<LinePair> {
        if self.remaining_lines == 0 {
            return None;
        }
        let n = self.cores.len();
        for _ in 0..n {
            let i = self.rr;
            self.rr = (self.rr + 1) % n;
            if let Some(p) = self.cores[i].next_pair(dram) {
                self.remaining_lines -= 1;
                return Some(p);
            }
        }
        None
    }
}

/// Generates the `(source address, destination address)` sequence of
/// Algorithm 1 — channel-parallel, bank-group-innermost sweeps in
/// [`DceMode::PimMs`]; strict per-descriptor order in [`DceMode::Coarse`].
#[derive(Debug)]
pub struct PairScheduler {
    channels: Vec<ChannelQueue>,
    mode: DceMode,
    /// The DRAM-side map of the two-sided sweep (PIM-MS only).
    dram: Option<Box<DramSide>>,
    rr_channel: usize,
    total_lines: u64,
    yielded: u64,
}

impl PairScheduler {
    /// Build the schedule for `op` against the PIM address space alone:
    /// with no DRAM-side map, no group can be aimed at a DRAM channel,
    /// so every core emits its lines in ascending order. The engine
    /// builds with [`two_sided`](Self::two_sided).
    pub fn new(op: &PimMmuOp, space: &PimAddrSpace, mode: DceMode) -> Self {
        Self::build(op, space, None, mode)
    }

    /// Build the two-sided schedule for `op`: the PIM-side visitation
    /// of [`new`](Self::new), with each core's lines ordered for the
    /// DRAM side through `dram` (see the module docs). Coarse mode
    /// ignores the map.
    ///
    /// For DRAM→PIM ops the DRAM side is the source; for PIM→DRAM the
    /// PIM side is — either way the *PIM-side* ordering follows
    /// Algorithm 1 so both PIM reads and PIM writes reap the MLP.
    pub fn two_sided(op: &PimMmuOp, space: &PimAddrSpace, dram: &HetMap, mode: DceMode) -> Self {
        Self::build(op, space, Some(dram), mode)
    }

    fn build(op: &PimMmuOp, space: &PimAddrSpace, dram: Option<&HetMap>, mode: DceMode) -> Self {
        let org = *space.organization();
        // (channel, bank, rank, bank_group) sort key: banks outermost,
        // bank groups innermost (Algorithm 1 lines 29-31).
        let mut keyed: Vec<(u32, u32, u32, u32, CoreCursor)> = op
            .entries
            .iter()
            .map(|&(dram_addr, core)| {
                let (ch, ra, bg, bk) = space.core_coords(core);
                let cur = CoreCursor::new(core, ch, op, dram_addr, space);
                (ch, bk, ra, bg, cur)
            })
            .collect();
        match mode {
            DceMode::PimMs => keyed.sort_by_key(|&(ch, bk, ra, bg, _)| (ch, bk, ra, bg)),
            // Coarse: preserve the programmer's descriptor order.
            DceMode::Coarse => {}
        }
        let lines_per_core = op.size_per_pim / LINE_BYTES;
        let mut channels: Vec<ChannelQueue> = Vec::new();
        match mode {
            DceMode::PimMs => {
                for ch in 0..org.channels {
                    let cores: Vec<CoreCursor> = keyed
                        .iter()
                        .filter(|&&(c, ..)| c == ch)
                        .map(|&(.., cur)| cur)
                        .collect();
                    if !cores.is_empty() {
                        let remaining_lines = cores.len() as u64 * lines_per_core;
                        channels.push(ChannelQueue {
                            cores,
                            rr: 0,
                            remaining_lines,
                        });
                    }
                }
                // A round emits position 0 of every active queue, then
                // position 1, ...: the slot is the emission index.
                let active = channels.len() as u64;
                for (q, queue) in channels.iter_mut().enumerate() {
                    for (i, cur) in queue.cores.iter_mut().enumerate() {
                        cur.slot = i as u64 * active + q as u64;
                    }
                }
            }
            DceMode::Coarse => {
                // One logical queue; cores processed one after another. We
                // encode this as a single "channel" whose round-robin
                // never helps because each core is fully drained before
                // the cursor moves on (rr stays put until exhaustion).
                let cores: Vec<CoreCursor> = keyed.iter().map(|&(.., cur)| cur).collect();
                let remaining_lines = cores.len() as u64 * lines_per_core;
                // Each cursor carries its own true PIM channel, so pairs
                // are tagged correctly even though Coarse collapses every
                // core into this one logical queue.
                channels.push(ChannelQueue {
                    cores,
                    rr: 0,
                    remaining_lines,
                });
            }
        }
        let total_lines = op.entries.len() as u64 * lines_per_core;
        PairScheduler {
            channels,
            mode,
            dram: dram.filter(|_| mode == DceMode::PimMs).map(DramSide::new),
            rr_channel: 0,
            total_lines,
            yielded: 0,
        }
    }

    /// Scheduling mode.
    pub fn mode(&self) -> DceMode {
        self.mode
    }

    /// Total line pairs this schedule will yield.
    pub fn total_lines(&self) -> u64 {
        self.total_lines
    }

    /// Pairs not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.total_lines - self.yielded
    }

    /// Pairs yielded so far — the resumable cursor's position. A
    /// scheduler carried across a [`Dce`](crate::Dce) suspend/resume
    /// continues from exactly this point: per-core offsets, per-channel
    /// round-robin positions and the channel cursor all persist, so the
    /// channel sweep picks up where it left off instead of restarting
    /// (the property the serving-aware PIM-MS work builds on).
    pub fn yielded(&self) -> u64 {
        self.yielded
    }

    /// Per-core address-buffer entries this schedule was built from
    /// (the descriptor's core count, used to price a resume's context
    /// reload like the original submission).
    pub fn core_count(&self) -> usize {
        match self.mode {
            // PIM-MS splits the cores across channel queues.
            DceMode::PimMs => self.channels.iter().map(|c| c.cores.len()).sum(),
            // Coarse keeps every core in one logical queue.
            DceMode::Coarse => self.channels.first().map_or(0, |c| c.cores.len()),
        }
    }

    /// The PIM channels this schedule's cores live on, ascending and
    /// distinct: the channels a descriptor occupies while the engine
    /// runs it (in either mode).
    pub fn pim_channels(&self) -> Vec<u32> {
        let mut chs: Vec<u32> = self
            .channels
            .iter()
            .flat_map(|q| q.cores.iter().map(|c| c.channel))
            .collect();
        chs.sort_unstable();
        chs.dedup();
        chs
    }

    /// Rebind an exhausted (or mid-flight) schedule onto the *next*
    /// chunk of the same job, preserving the sweep state — per-channel
    /// round-robin positions, the channel cursor, each core's slot and
    /// the DRAM-side map — instead of rebuilding from scratch. This is
    /// the serving-aware PIM-MS continuation: successive chunks of one
    /// op then emit the exact per-channel visitation order the
    /// unchunked op would have (and the same addresses whenever chunk
    /// boundaries fall on swizzle-group boundaries).
    ///
    /// Succeeds only when `op` addresses exactly the core set this
    /// schedule was built over (the shape [`PimMmuOp::chunks`] produces
    /// for chunks of one group). On success every cursor's byte range is
    /// advanced to `op`'s entries and the line accounting resets for the
    /// new chunk; on mismatch the schedule is left untouched and the
    /// caller must build a fresh one. Returns whether
    /// the continuation was taken.
    pub fn continue_into(&mut self, op: &PimMmuOp, space: &PimAddrSpace) -> bool {
        let mut by_core: BTreeMap<u32, PhysAddr> = BTreeMap::new();
        for &(dram_addr, core) in &op.entries {
            if by_core.insert(core, dram_addr).is_some() {
                return false;
            }
        }
        if by_core.len() != self.core_count() {
            return false;
        }
        // Validate the full core-set match before mutating anything.
        for q in &self.channels {
            for cur in &q.cores {
                if !by_core.contains_key(&cur.core) {
                    return false;
                }
            }
        }
        let lines_per_core = op.size_per_pim / LINE_BYTES;
        for q in &mut self.channels {
            for cur in &mut q.cores {
                cur.rebind(op, by_core[&cur.core], space);
            }
            q.remaining_lines = q.cores.len() as u64 * lines_per_core;
        }
        self.total_lines = op.entries.len() as u64 * lines_per_core;
        self.yielded = 0;
        true
    }

    /// Yield the next pair.
    ///
    /// * [`DceMode::PimMs`]: round-robin across PIM channels (line 28's
    ///   `#do-parallel channel`), each channel sweeping bank-group-first.
    /// * [`DceMode::Coarse`]: drain core 0 fully, then core 1, ...
    pub fn next_pair(&mut self) -> Option<LinePair> {
        match self.mode {
            DceMode::PimMs => {
                let n = self.channels.len();
                for _ in 0..n {
                    let i = self.rr_channel;
                    self.rr_channel = (self.rr_channel + 1) % n;
                    if let Some(p) = self.channels[i].next(self.dram.as_deref()) {
                        self.yielded += 1;
                        return Some(p);
                    }
                }
                None
            }
            DceMode::Coarse => {
                let q = self.channels.first_mut()?;
                // Sequential: stick to the current core until it drains.
                let ncores = q.cores.len();
                for _ in 0..ncores {
                    let i = q.rr;
                    if let Some(p) = q.cores[i].next_pair(None) {
                        q.remaining_lines -= 1;
                        self.yielded += 1;
                        return Some(p);
                    }
                    q.rr = (q.rr + 1) % ncores;
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_mapping::Organization;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn space() -> PimAddrSpace {
        PimAddrSpace::new(PhysAddr(32 << 30), Organization::upmem_dimm(4, 2))
    }

    /// The Table-I HetMap, whose PIM partition starts where [`space`]
    /// does.
    fn het() -> HetMap {
        HetMap::pim_mmu(
            Organization::ddr4_dimm(4, 2),
            Organization::upmem_dimm(4, 2),
        )
    }

    /// DRAM channels of the Table-I map: the two-sided group size.
    const G: u64 = 4;

    /// The engine's schedule: two-sided against [`het`].
    fn two_sided(o: &PimMmuOp, mode: DceMode) -> PairScheduler {
        PairScheduler::two_sided(o, &space(), &het(), mode)
    }

    fn drain(mut sched: PairScheduler) -> Vec<LinePair> {
        std::iter::from_fn(|| sched.next_pair()).collect()
    }

    /// The DRAM-side address of a pair.
    fn dram_side(p: &LinePair, kind: XferKind) -> PhysAddr {
        match kind {
            XferKind::DramToPim => p.src,
            XferKind::PimToDram => p.dst,
        }
    }

    /// The PIM-side address of a pair.
    fn pim_side(p: &LinePair, kind: XferKind) -> PhysAddr {
        match kind {
            XferKind::DramToPim => p.dst,
            XferKind::PimToDram => p.src,
        }
    }

    /// `n` cores on each of the first `channels` PIM channels, each
    /// with its own page-aligned 4 KiB staging buffer packed from the
    /// start of DRAM row span `row` (1 MiB under the MLP map).
    fn page_aligned_op(
        kind: XferKind,
        row: u64,
        channels: u32,
        n: u32,
        lines_per_core: u64,
    ) -> PimMmuOp {
        let s = space();
        let cores = (0..channels).flat_map(|ch| (0..n).map(move |i| (ch, i)));
        let entries = cores.enumerate().map(|(idx, (ch, i))| {
            let core = s.core_id(ch, i % 2, (i / 2) % 4, i / 8);
            (PhysAddr((row << 20) + idx as u64 * 4096), core)
        });
        PimMmuOp::try_new(kind, entries, lines_per_core * 64, 0).unwrap()
    }

    fn op(cores: Vec<u32>, size: u64) -> PimMmuOp {
        PimMmuOp::to_pim(
            cores.into_iter().map(|c| (PhysAddr(c as u64 * size), c)),
            size,
            0,
        )
    }

    #[test]
    fn pim_ms_rotates_bank_groups_innermost() {
        let s = space();
        // Four cores in channel 0, rank 0, bank 0, bank groups 0..4.
        let cores: Vec<u32> = (0..4).map(|bg| s.core_id(0, 0, bg, 0)).collect();
        let mut sched = PairScheduler::new(&op(cores, 256), &s, DceMode::PimMs);
        let mut seen_bgs = Vec::new();
        for _ in 0..4 {
            let p = sched.next_pair().unwrap();
            let (core, _) = s.locate(p.dst);
            let (_, _, bg, _) = s.core_coords(core);
            seen_bgs.push(bg);
        }
        assert_eq!(seen_bgs, vec![0, 1, 2, 3], "bank groups must rotate first");
    }

    #[test]
    fn pim_ms_round_robins_channels() {
        let s = space();
        let cores: Vec<u32> = (0..4).map(|ch| s.core_id(ch, 0, 0, 0)).collect();
        let mut sched = PairScheduler::new(&op(cores, 128), &s, DceMode::PimMs);
        let chans: Vec<u32> = (0..4)
            .map(|_| sched.next_pair().unwrap().pim_channel)
            .collect();
        assert_eq!(chans, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pim_channels_lists_each_occupied_channel_once_in_both_modes() {
        let s = space();
        let cores = vec![
            s.core_id(3, 0, 0, 0),
            s.core_id(1, 1, 2, 5),
            s.core_id(3, 1, 0, 0),
        ];
        for mode in [DceMode::PimMs, DceMode::Coarse] {
            let sched = PairScheduler::new(&op(cores.clone(), 128), &s, mode);
            assert_eq!(sched.pim_channels(), vec![1, 3], "{mode:?}");
        }
    }

    #[test]
    fn coarse_drains_core_by_core() {
        let s = space();
        let cores: Vec<u32> = vec![s.core_id(0, 0, 0, 0), s.core_id(1, 0, 0, 0)];
        let mut sched = PairScheduler::new(&op(cores, 256), &s, DceMode::Coarse);
        let mut dsts = Vec::new();
        while let Some(p) = sched.next_pair() {
            dsts.push(p.dst);
        }
        // First all 4 lines of core A (consecutive), then core B.
        assert_eq!(dsts.len(), 8);
        for w in dsts[..4].windows(2) {
            assert_eq!(w[1].0 - w[0].0, 64);
        }
        let (core_a, _) = s.locate(dsts[0]);
        let (core_b, _) = s.locate(dsts[4]);
        assert_ne!(core_a, core_b);
    }

    #[test]
    fn pim_ms_rotates_bank_groups_before_banks() {
        let s = space();
        // Two banks x two bank groups in channel 0, rank 0, deliberately
        // scrambled descriptor order.
        let cores = vec![
            s.core_id(0, 0, 1, 1),
            s.core_id(0, 0, 0, 0),
            s.core_id(0, 0, 1, 0),
            s.core_id(0, 0, 0, 1),
        ];
        let mut sched = PairScheduler::new(&op(cores, 64), &s, DceMode::PimMs);
        let coords: Vec<(u32, u32)> = (0..4)
            .map(|_| {
                let p = sched.next_pair().unwrap();
                let (core, _) = s.locate(p.dst);
                let (_, _, bg, bk) = s.core_coords(core);
                (bk, bg)
            })
            .collect();
        assert_eq!(
            coords,
            vec![(0, 0), (0, 1), (1, 0), (1, 1)],
            "bank groups must rotate before the bank advances"
        );
    }

    #[test]
    fn coarse_tags_pairs_with_true_channel() {
        let s = space();
        // Cores spread over all four channels, scrambled descriptor
        // order, so a hardcoded channel tag cannot pass by accident.
        let cores = [
            s.core_id(2, 0, 1, 0),
            s.core_id(0, 1, 0, 1),
            s.core_id(3, 0, 0, 0),
            s.core_id(1, 1, 1, 1),
        ];
        for kind in [XferKind::DramToPim, XferKind::PimToDram] {
            let o = PimMmuOp::try_new(
                kind,
                cores.iter().map(|&c| (PhysAddr(c as u64 * 256), c)),
                256,
                0,
            )
            .unwrap();
            let mut sched = PairScheduler::new(&o, &s, DceMode::Coarse);
            let mut seen_channels = HashSet::new();
            while let Some(p) = sched.next_pair() {
                // The PIM-side address is dst for DRAM→PIM, src for
                // PIM→DRAM; its channel coordinate is the true tag.
                let pim_side = match kind {
                    XferKind::DramToPim => p.dst,
                    XferKind::PimToDram => p.src,
                };
                let (core, _) = s.locate(pim_side);
                let (ch, ..) = s.core_coords(core);
                assert_eq!(p.pim_channel, ch, "pair {p:?} mislabeled");
                seen_channels.insert(p.pim_channel);
            }
            assert_eq!(seen_channels.len(), 4, "all four channels must appear");
        }
    }

    #[test]
    fn continuation_rejects_a_different_core_set() {
        let s = space();
        let mut sched = two_sided(&op(vec![0, 1, 2], 128), DceMode::PimMs);
        while sched.next_pair().is_some() {}
        // Disjoint core set (a chunk from another group): refused, and
        // the schedule is left exhausted rather than half-rebound.
        let other = op(vec![3, 4, 5], 128);
        assert!(!sched.continue_into(&other, &s));
        assert_eq!(sched.remaining(), 0);
        // Same cores: taken, and the full chunk re-emits.
        let next = op(vec![0, 1, 2], 128);
        assert!(sched.continue_into(&next, &s));
        assert_eq!(sched.remaining(), 6);
        let mut n = 0;
        while sched.next_pair().is_some() {
            n += 1;
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn one_sided_rounds_serialise_on_one_dram_channel() {
        // 256 cores over all four PIM channels, their page-aligned
        // 4 KiB buffers filling one DRAM row span. One-sided, every
        // read of a round queues on one DRAM channel; two-sided, each
        // round spreads over all four.
        let o = page_aligned_op(XferKind::DramToPim, 1, 4, 64, 64);
        let m = het();
        let channels_per_round = |sched: PairScheduler| -> HashSet<usize> {
            drain(sched)
                .chunks(256)
                .map(|r| {
                    r.iter()
                        .map(|p| m.map(p.src).addr.channel)
                        .collect::<HashSet<u32>>()
                        .len()
                })
                .collect()
        };
        let one = channels_per_round(PairScheduler::new(&o, &space(), DceMode::PimMs));
        let two = channels_per_round(two_sided(&o, DceMode::PimMs));
        assert_eq!(one, HashSet::from([1]));
        assert_eq!(two, HashSet::from([4]));
    }

    /// `n` distinct PIM cores chosen pseudo-randomly from `seed` (odd
    /// stride modulo the 512-core space, so all picks are distinct).
    fn distinct_cores(seed: u64, n: usize) -> Vec<u32> {
        let step = 2 * (seed % 256) + 1;
        (0..n as u64)
            .map(|i| ((seed + i * step) % 512) as u32)
            .collect()
    }

    proptest! {
        #[test]
        fn emission_is_a_permutation_of_the_ops_lines(
            seed in 0u64..1000,
            n_cores in 1usize..64,
            lines_per_core in 1u64..13,
            mode in prop_oneof![Just(DceMode::PimMs), Just(DceMode::Coarse)],
        ) {
            let s = space();
            let cores = distinct_cores(seed, n_cores);
            let size = lines_per_core * 64;
            let o = op(cores.clone(), size);
            let mut sched = two_sided(&o, mode);
            let mut emitted: Vec<(u64, u64)> = Vec::new();
            while let Some(p) = sched.next_pair() {
                emitted.push((p.src.0, p.dst.0));
            }
            let mut expected: Vec<(u64, u64)> = o
                .entries
                .iter()
                .flat_map(|&(src, core)| {
                    (0..lines_per_core).map(move |l| (src.0 + l * 64, core, l))
                })
                .map(|(src, core, l)| (src, s.core_phys(core, l * 64).0))
                .collect();
            emitted.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(emitted, expected, "emitted pairs must be a permutation of the op");
        }

        #[test]
        fn pim_ms_visits_cores_bank_group_innermost(
            seed in 0u64..500,
            n_cores in 2usize..48,
            lines_per_core in 1u64..4,
        ) {
            let s = space();
            let cores = distinct_cores(seed, n_cores);
            let o = op(cores.clone(), lines_per_core * 64);
            let mut sched = two_sided(&o, DceMode::PimMs);
            // Per channel, Algorithm 1 sweeps the channel's cores in
            // (bank, rank, bank-group)-sorted order, one line per core
            // per round: the visitation sequence is exactly that order
            // repeated `lines_per_core` times, so bank groups rotate on
            // every step while the bank only advances between runs.
            let mut visits: std::collections::HashMap<u32, Vec<u32>> =
                std::collections::HashMap::new();
            while let Some(p) = sched.next_pair() {
                let (core, _) = s.locate(p.dst);
                visits.entry(p.pim_channel).or_default().push(core);
            }
            for (ch, seen) in visits {
                let mut chan_cores: Vec<u32> = cores
                    .iter()
                    .copied()
                    .filter(|&c| s.core_coords(c).0 == ch)
                    .collect();
                chan_cores.sort_by_key(|&c| {
                    let (_, ra, bg, bk) = s.core_coords(c);
                    (bk, ra, bg)
                });
                let expected: Vec<u32> = (0..lines_per_core)
                    .flat_map(|_| chan_cores.iter().copied())
                    .collect();
                prop_assert_eq!(seen, expected, "channel {} order diverged", ch);
            }
        }

        #[test]
        fn continuation_preserves_the_unchunked_per_channel_order(
            seed in 0u64..500,
            n_cores in 2usize..48,
            lines_per_core in 2u64..13,
            chunk_lines in 1u64..9,
        ) {
            let s = space();
            let cores = distinct_cores(seed, n_cores);
            let o = op(cores, lines_per_core * 64);
            // Unchunked reference sweep.
            let mut want: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
            for p in drain(two_sided(&o, DceMode::PimMs)) {
                want.entry(p.pim_channel).or_default().push((p.src.0, p.dst.0));
            }
            // Chunked sweep, each chunk continuing the predecessor's
            // scheduler instead of rebuilding.
            let chunks = o
                .chunks(chunk_lines * 64 * n_cores as u64, usize::MAX)
                .unwrap();
            let mut sched: Option<PairScheduler> = None;
            let mut got: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
            let mut total = 0u64;
            for c in &chunks {
                let continued = match sched.as_mut() {
                    Some(sch) => sch.continue_into(c, &s),
                    None => false,
                };
                prop_assert!(sched.is_none() || continued, "same-group chunk refused");
                if !continued {
                    sched = Some(two_sided(c, DceMode::PimMs));
                }
                let sch = sched.as_mut().unwrap();
                while let Some(p) = sch.next_pair() {
                    got.entry(p.pim_channel).or_default().push((p.src.0, p.dst.0));
                    total += 64;
                }
            }
            prop_assert_eq!(total, o.total_bytes());
            if chunk_lines % G == 0 || chunks.len() == 1 {
                // Chunk boundaries fall on group boundaries: the
                // continuation truly continues, address for address.
                prop_assert_eq!(got, want);
            } else {
                // A chunk boundary splits a group, so the swizzle
                // differs; the per-channel core sequence does not, and
                // every line still moves exactly once.
                let cores_of = |m: &BTreeMap<u32, Vec<(u64, u64)>>| -> BTreeMap<u32, Vec<u32>> {
                    let core = |&(_, dst): &(u64, u64)| s.locate(PhysAddr(dst)).0;
                    m.iter().map(|(&ch, v)| (ch, v.iter().map(core).collect())).collect()
                };
                prop_assert_eq!(cores_of(&got), cores_of(&want));
                let lines = |m: &BTreeMap<u32, Vec<(u64, u64)>>| -> Vec<(u64, u64)> {
                    let mut v: Vec<(u64, u64)> = m.values().flatten().copied().collect();
                    v.sort_unstable();
                    v
                };
                let got_lines = lines(&got);
                prop_assert!(got_lines.windows(2).all(|w| w[0] != w[1]), "a line moved twice");
                prop_assert_eq!(got_lines, lines(&want));
            }
        }

        #[test]
        fn two_sided_rounds_cover_every_dram_channel(
            row in 1u64..1024,
            channels in 1u32..5,
            n in 1u32..33,
            groups in 1u64..17,
            to_pim in any::<bool>(),
        ) {
            // Page-aligned per-core buffers inside one DRAM row span:
            // every core's line k sits on one DRAM channel, and the
            // swizzle must spread each round over all of them.
            let kind = if to_pim { XferKind::DramToPim } else { XferKind::PimToDram };
            let o = page_aligned_op(kind, row, channels, n, groups * G);
            let m = het();
            let round = (channels * n) as usize;
            let window = round.min(usize::try_from(G).unwrap());
            let emitted = drain(two_sided(&o, DceMode::PimMs));
            for r in emitted.chunks(round) {
                let chans: Vec<u32> = r
                    .iter()
                    .map(|p| m.map(dram_side(p, kind)).addr.channel)
                    .collect();
                for w in chans.windows(window) {
                    let distinct: HashSet<u32> = w.iter().copied().collect();
                    prop_assert_eq!(distinct.len(), window, "round channels {:?}", chans);
                }
            }
        }

        #[test]
        fn swizzle_keeps_the_pim_side_sequence(
            seed in 0u64..500,
            n_cores in 1usize..64,
            lines_per_core in 1u64..13,
            dram_line in 0u64..4096,
            to_pim in any::<bool>(),
        ) {
            // Arbitrary (not page-aligned) DRAM buffers, both directions.
            let kind = if to_pim { XferKind::DramToPim } else { XferKind::PimToDram };
            let size = lines_per_core * 64;
            let cores = distinct_cores(seed, n_cores);
            let entries = cores.iter().enumerate().map(|(i, &c)| {
                (PhysAddr((dram_line + i as u64 * lines_per_core) * 64), c)
            });
            let o = PimMmuOp::try_new(kind, entries, size, 0).unwrap();
            let s = space();
            let one_sided = drain(PairScheduler::new(&o, &s, DceMode::PimMs));
            let swizzled = drain(two_sided(&o, DceMode::PimMs));
            prop_assert_eq!(one_sided.len(), swizzled.len());
            for (a, b) in one_sided.iter().zip(&swizzled) {
                let (pa, pb) = (pim_side(a, kind), pim_side(b, kind));
                let ((core_a, off_a), (core_b, off_b)) = (s.locate(pa), s.locate(pb));
                // Same PIM core, hence the same (channel, bank) ...
                prop_assert_eq!(core_a, core_b);
                prop_assert_eq!(a.pim_channel, b.pim_channel);
                // ... and the same G-line group of its range, hence the
                // same PIM row.
                prop_assert_eq!(off_a / (G * 64), off_b / (G * 64));
            }
        }

        #[test]
        fn coarse_emission_ignores_the_dram_map(
            seed in 0u64..500,
            n_cores in 1usize..64,
            lines_per_core in 1u64..13,
        ) {
            let cores = distinct_cores(seed, n_cores);
            let o = op(cores, lines_per_core * 64);
            prop_assert_eq!(
                drain(two_sided(&o, DceMode::Coarse)),
                drain(PairScheduler::new(&o, &space(), DceMode::Coarse))
            );
        }

        #[test]
        fn every_line_yielded_exactly_once(
            n_cores in 1usize..40,
            lines_per_core in 1u64..9,
            mode in prop_oneof![Just(DceMode::PimMs), Just(DceMode::Coarse)],
        ) {
            let s = space();
            let cores: Vec<u32> = (0..u32::try_from(n_cores).unwrap()).map(|i| i * 7 % 512).collect();
            let mut dedup: Vec<u32> = cores.clone();
            dedup.sort_unstable();
            dedup.dedup();
            let o = op(dedup.clone(), lines_per_core * 64);
            let mut sched = two_sided(&o, mode);
            prop_assert_eq!(sched.total_lines(), dedup.len() as u64 * lines_per_core);
            let mut seen: HashSet<(u64, u64)> = HashSet::new();
            while let Some(p) = sched.next_pair() {
                prop_assert!(seen.insert((p.src.0, p.dst.0)), "duplicate pair {:?}", p);
            }
            prop_assert_eq!(seen.len() as u64, sched.total_lines());
            prop_assert_eq!(sched.remaining(), 0);
            // Every expected (src, dst) is present.
            for &(src, core) in &o.entries {
                for l in 0..lines_per_core {
                    let dst = s.core_phys(core, l * 64);
                    prop_assert!(seen.contains(&(src.0 + l * 64, dst.0)));
                }
            }
        }
    }
}
