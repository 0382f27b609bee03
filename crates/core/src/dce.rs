//! The Data Copy Engine: cycle-level model of Fig. 11's dataflow.
//!
//! Per engine cycle the DCE (1) retires lines through the preprocessing
//! (transpose) unit, (2) issues pending writes, and (3) issues new reads
//! as long as the 16 KB data buffer has room — reads reserve a buffer
//! line at issue, and the line is freed when the corresponding write
//! burst completes, giving end-to-end back-pressure exactly along the
//! ❶→❼ path of Fig. 11.
//!
//! # Lanes
//!
//! The engine runs a small set of co-resident descriptors, one per
//! *lane*. Each lane owns one descriptor's [`PairScheduler`], line
//! counters and fused continuation segments; every lane shares the
//! data buffer, the issue width, the transpose unit and the outbox.
//! Pipeline entries carry their lane's tag, and read issue
//! round-robins across lanes one line at a time — PIM-MS's channel
//! round-robin (Algorithm 1, `#do-parallel channel`) extended across
//! descriptors, so an engine whose ring holds work for several PIM
//! channels keeps all of them busy.
//!
//! Admission walks the pending ring in order. A descriptor starts a
//! new lane when it shares no PIM channel with an active lane or with
//! an earlier descriptor still waiting (each channel keeps its PIM-MS
//! and ring order), its entries fit in the address buffer next to the
//! active lanes', and neither it nor any active lane is
//! [`DceMode::Coarse`] — Base+D stays a one-descriptor-at-a-time DMA
//! engine. A descriptor that waits for buffer room or for exclusivity
//! stops the walk, so nothing behind it can starve it. A one-shot
//! [`Dce::submit`] always runs alone. The single-descriptor case is
//! simply one lane.
//!
//! Lanes finish out of order but retire in order: a finished lane's
//! record waits in a reorder stage until every older descriptor has
//! retired, so the completion ring always surfaces records in sequence
//! order.

use crate::config::{DceConfig, DceMode};
use crate::op::{OpError, PimMmuOp, XferKind};
use crate::scheduler::{LinePair, PairScheduler};
use pim_dram::{Completion, MemRequest, SourceId};
use pim_mapping::{HetMap, MemSpace, PimAddrSpace, LINE_BYTES};
use pim_telemetry::{CounterSet, Counters, FlightRecorder, SpanEvent, SpanKind, SpanTap};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Source id tag for DCE-originated memory traffic. A sharded system
/// instantiates one engine per shard ([`Dce::with_shard`]); shard `s`
/// tags its requests `DCE_SOURCE + s`, so memory completions route back
/// to the engine that issued them by source id alone.
pub const DCE_SOURCE: u32 = 0x0DCE;

/// Completion record of one queued descriptor (the async submission
/// path of [`Dce::enqueue`]). Cycles are engine cycles, directly
/// comparable to [`Dce::cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DceCompletion {
    /// Ring order (0-based): assigned when the descriptor is queued by
    /// [`Dce::enqueue`] or [`Dce::resume`]. Lanes may finish out of
    /// order, but records retire strictly in this order.
    pub seq: u64,
    /// Engine cycle the descriptor left the pending queue and started
    /// executing (equals the enqueue cycle when it could start at once).
    pub started_at: u64,
    /// Engine cycle the descriptor retired: its last write burst had
    /// completed (for a suspension, its lane had quiesced) and every
    /// older descriptor had retired. A lane that finishes ahead of an
    /// older one waits in the reorder stage; that wait counts here.
    pub completed_at: u64,
    /// Payload bytes moved *by this descriptor activation* — for a
    /// partial retirement ([`resumable`](Self::resumable)) only the
    /// bytes transferred before the suspension; a later resumed
    /// activation reports the rest, so the per-seq records always sum
    /// to the job's total.
    pub bytes: u64,
    /// `true` when this record is a *partial* retirement: the
    /// descriptor was suspended mid-transfer and its remainder is
    /// waiting in [`Dce::take_suspended`] as a [`SuspendedTransfer`].
    pub resumable: bool,
}

/// The captured state of a mid-transfer job extracted by
/// [`Dce::request_suspend`]: the live [`PairScheduler`] (per-core
/// offsets, per-channel round-robin cursors, lines-emitted count), the
/// transfer direction, and the byte progress. Feeding it back through
/// [`Dce::resume`] continues the channel sweep exactly where it
/// stopped — no line is re-emitted and none is skipped.
#[derive(Debug)]
pub struct SuspendedTransfer {
    kind: XferKind,
    sched: PairScheduler,
    /// Lines fully written (across every activation of this job).
    lines_written: u64,
    /// Total lines of the original descriptor.
    total: u64,
}

impl SuspendedTransfer {
    /// Transfer direction of the suspended job.
    pub fn kind(&self) -> XferKind {
        self.kind
    }

    /// Bytes the job still has to move.
    pub fn remaining_bytes(&self) -> u64 {
        (self.total - self.lines_written) * LINE_BYTES
    }

    /// Bytes moved before the suspension (across all activations).
    pub fn bytes_done(&self) -> u64 {
        self.lines_written * LINE_BYTES
    }

    /// Per-core entries of the original descriptor — a resume reloads
    /// the address-buffer context, so its driver cost is priced like a
    /// submission naming this many cores.
    pub fn entries(&self) -> usize {
        self.sched.core_count()
    }
}

/// A memory request leaving the DCE, tagged with the target space.
#[derive(Debug, Clone, Copy)]
pub struct DceRequest {
    /// DRAM or PIM controllers.
    pub space: MemSpace,
    /// The translated request.
    pub req: MemRequest,
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct DceStats {
    /// 64 B reads issued.
    pub reads_issued: u64,
    /// 64 B writes issued.
    pub writes_issued: u64,
    /// Lines fully transferred (write burst completed).
    pub lines_done: u64,
    /// Engine cycles with at least one unfinished lane.
    pub busy_cycles: u64,
    /// Cycles where read issue stalled on a full data buffer.
    pub buffer_stall_cycles: u64,
    /// Jobs completed.
    pub jobs_done: u64,
    /// Jobs suspended mid-transfer (partial retirements).
    pub suspensions: u64,
    /// Suspended transfers re-installed via [`Dce::resume`].
    pub resumes: u64,
    /// Cycles spent quiescing a lane between a suspend request and the
    /// partial retirement (its read issue stopped, its in-flight lines
    /// draining). Only real suspensions drain: a request that arrives
    /// once the sweep is exhausted is refused and counted in
    /// [`suspends_absorbed`](Self::suspends_absorbed).
    pub drain_cycles: u64,
    /// Suspend requests refused because the oldest lane's sweep was
    /// exhausted — every line already read, so the descriptor retires
    /// on its own and absorbs the request.
    pub suspends_absorbed: u64,
    /// Chunk descriptors that continued their predecessor's channel
    /// sweep (a [`Dce::enqueue`] naming a predecessor whose cursor was
    /// still held).
    pub continuations: u64,
    /// Continuation descriptors whose predecessor cursor was gone or
    /// mismatched (suspended, evicted, different core set) — the
    /// engine fell back to building a fresh schedule.
    pub continuation_fallbacks: u64,
    /// Engine cycles with two or more unfinished lanes: the cycles in
    /// which descriptors on disjoint PIM channels ran side by side.
    pub lane_cycles: u64,
}

impl Counters for DceStats {
    fn counters(&self, prefix: &str, out: &mut CounterSet) {
        out.push(prefix, "reads_issued", self.reads_issued as f64);
        out.push(prefix, "writes_issued", self.writes_issued as f64);
        out.push(prefix, "lines_done", self.lines_done as f64);
        out.push(prefix, "busy_cycles", self.busy_cycles as f64);
        out.push(
            prefix,
            "buffer_stall_cycles",
            self.buffer_stall_cycles as f64,
        );
        out.push(prefix, "jobs_done", self.jobs_done as f64);
        out.push(prefix, "suspensions", self.suspensions as f64);
        out.push(prefix, "resumes", self.resumes as f64);
        out.push(prefix, "drain_cycles", self.drain_cycles as f64);
        out.push(prefix, "suspends_absorbed", self.suspends_absorbed as f64);
        out.push(prefix, "continuations", self.continuations as f64);
        out.push(
            prefix,
            "continuation_fallbacks",
            self.continuation_fallbacks as f64,
        );
        out.push(prefix, "lane_cycles", self.lane_cycles as f64);
    }
}

/// A fused predecessor chunk awaiting its retirement record: a
/// continuation successor took its live sweep cursor the moment the
/// sweep exhausted (while the tail still drained), so the predecessor's
/// completion is emitted once the lane's cumulative landed-line count
/// crosses `end_lines`. The count is pipeline-order, not sweep-order, so
/// the crossing is an approximation of the exact boundary — exact
/// whenever the lane drains (quiesce, final retirement).
#[derive(Debug, Clone, Copy)]
struct SegBoundary {
    /// The fused chunk's descriptor sequence number.
    seq: u64,
    /// Cumulative job line count at which this chunk's payload ends.
    end_lines: u64,
    /// Engine cycle the chunk's execution began.
    started_at: u64,
}

/// One co-resident descriptor (see the module docs).
#[derive(Debug)]
struct Lane {
    /// Tag carried by this lane's pipeline entries; unique for the
    /// engine's lifetime.
    id: u64,
    kind: XferKind,
    sched: PairScheduler,
    /// PIM channels the lane occupies (ascending, distinct).
    channels: Vec<u32>,
    /// Lines read but not yet written back: in flight to memory, in
    /// the transpose queue, awaiting write issue or write completion.
    in_pipeline: u64,
    lines_written: u64,
    total: u64,
    /// Set once every line landed; only a one-shot job stays resident
    /// past that cycle.
    completed_at: Option<u64>,
    /// Descriptor sequence number. For a fused chain this is the
    /// *newest* segment's; earlier ones sit in `segments`.
    seq: u64,
    /// Engine cycle execution began (of the newest fused segment).
    started_at: u64,
    /// Queued descriptors ([`Dce::enqueue`]) retire themselves into the
    /// completion ring; a one-shot submission ([`Dce::submit`]) stays
    /// resident once complete so the host reads [`Dce::completed_at`].
    auto_retire: bool,
    /// Lines already credited by earlier retirement records — a
    /// resumed activation's partial record, or a fused segment's
    /// ([`SegBoundary`]) — so the next record reports only
    /// `lines_written - base_lines`. 0 for a fresh descriptor.
    base_lines: u64,
    /// A suspension is pending: the lane's read issue has stopped and
    /// it is extracted as soon as its in-flight lines drain.
    suspend_requested: bool,
    /// Fused predecessor chunks (oldest first) whose sweeps this lane
    /// continued live; each retires when the landed-line count crosses
    /// its boundary. Empty unless continuations fused mid-flight.
    segments: VecDeque<SegBoundary>,
}

impl Lane {
    /// The oldest descriptor this lane still has to retire.
    fn oldest_seq(&self) -> u64 {
        self.segments.front().map_or(self.seq, |s| s.seq)
    }
}

/// A descriptor waiting on the engine's pending ring: either a fresh
/// op or a suspended transfer being resumed.
#[derive(Debug)]
enum PendingDesc {
    /// A new descriptor. `predecessor` names the descriptor whose sweep
    /// it continues: if that descriptor's cursor is still held when
    /// this one installs, the schedule continues it instead of
    /// rebuilding.
    Fresh {
        op: PimMmuOp,
        mode: DceMode,
        predecessor: Option<u64>,
    },
    Resumed(SuspendedTransfer),
}

impl PendingDesc {
    fn mode(&self) -> DceMode {
        match self {
            PendingDesc::Fresh { mode, .. } => *mode,
            PendingDesc::Resumed(st) => st.sched.mode(),
        }
    }

    /// Address-buffer entries the descriptor loads.
    fn entries(&self) -> usize {
        match self {
            PendingDesc::Fresh { op, .. } => op.entries.len(),
            PendingDesc::Resumed(st) => st.entries(),
        }
    }
}

/// A queued descriptor with its ring sequence number and the PIM
/// channels it will occupy.
#[derive(Debug)]
struct Waiting {
    seq: u64,
    channels: Vec<u32>,
    desc: PendingDesc,
}

/// Whether two ascending channel lists share a channel.
fn overlaps(a: &[u32], b: &[u32]) -> bool {
    a.iter().any(|c| b.contains(c))
}

/// The Data Copy Engine (Fig. 9/11).
///
/// Drive with [`tick`](Self::tick) at the engine clock, drain
/// [`outbox_mut`](Self::outbox_mut) into the memory controllers, and feed
/// completions back via [`on_completion`](Self::on_completion).
#[derive(Debug)]
pub struct Dce {
    cfg: DceConfig,
    mapper: HetMap,
    space: PimAddrSpace,
    /// Shard index of this engine (0 in a single-engine system); the
    /// source id of every request is `DCE_SOURCE + shard`.
    shard: u32,
    clock: u64,
    /// Co-resident descriptors, in admission order.
    lanes: Vec<Lane>,
    next_lane_id: u64,
    /// The lane read issue tries first on its next line.
    rr_lane: usize,
    /// Buffered reads awaiting the transpose unit, lane-tagged.
    transpose_q: VecDeque<(u64, LinePair)>,
    /// Transposed lines awaiting write issue, lane-tagged.
    write_ready: VecDeque<(u64, LinePair)>,
    /// Outstanding reads by request id.
    inflight_reads: HashMap<u64, (u64, LinePair)>,
    /// Outstanding writes by request id, to their lane.
    inflight_writes: HashMap<u64, u64>,
    /// Data-buffer lines reserved, across every lane.
    buffer_used: u32,
    /// Descriptors accepted by [`enqueue`](Self::enqueue) (or resumes
    /// queued by [`resume`](Self::resume)) not yet admitted to a lane;
    /// the engine admits them device-side the moment a lane frees —
    /// no host round trip in between.
    pending: VecDeque<Waiting>,
    /// Records of finished lanes waiting for an older descriptor to
    /// retire, keyed by sequence number.
    reorder: BTreeMap<u64, DceCompletion>,
    /// The sequence number the completion ring surfaces next.
    next_release: u64,
    /// Retired queued descriptors, drained by the host's completion-ring
    /// poller via [`pop_completion`](Self::pop_completion).
    completions: VecDeque<DceCompletion>,
    /// Mid-transfer state of suspended jobs awaiting the host's
    /// [`take_suspended`](Self::take_suspended), keyed by descriptor
    /// sequence number.
    suspended: VecDeque<(u64, SuspendedTransfer)>,
    /// The sweep cursors of recently retired lanes, keyed by their
    /// sequence numbers, oldest first and at most one per PIM channel —
    /// the state a continuation chunk (an [`enqueue`](Self::enqueue)
    /// naming a predecessor) picks up. A suspension parks its cursor in
    /// `suspended` instead, so a continuation staged behind a recalled
    /// chunk finds no match and falls back to a fresh build.
    held: VecDeque<(u64, PairScheduler)>,
    next_seq: u64,
    outbox: VecDeque<DceRequest>,
    outbox_cap: usize,
    next_id: u64,
    stats: DceStats,
    /// Device-side span tap: cycle-stamped lifecycle events
    /// (device-start / suspend / retire) the composer drains into the
    /// shared flight recorder. Disabled by default — one branch per
    /// would-be event.
    tap: SpanTap,
}

impl Dce {
    /// Create an idle engine (shard 0 — the single-engine system).
    pub fn new(cfg: DceConfig, mapper: HetMap, space: PimAddrSpace) -> Self {
        Dce::with_shard(cfg, mapper, space, 0)
    }

    /// Create an idle engine for shard `shard` of a multi-DCE system:
    /// identical hardware, but its memory traffic carries the source id
    /// `DCE_SOURCE + shard` so the composer can route completions back
    /// per engine.
    pub fn with_shard(cfg: DceConfig, mapper: HetMap, space: PimAddrSpace, shard: u32) -> Self {
        Dce {
            cfg,
            mapper,
            space,
            shard,
            clock: 0,
            lanes: Vec::new(),
            next_lane_id: 0,
            rr_lane: 0,
            transpose_q: VecDeque::new(),
            write_ready: VecDeque::new(),
            inflight_reads: HashMap::new(),
            inflight_writes: HashMap::new(),
            buffer_used: 0,
            pending: VecDeque::new(),
            reorder: BTreeMap::new(),
            next_release: 0,
            completions: VecDeque::new(),
            suspended: VecDeque::new(),
            held: VecDeque::new(),
            next_seq: 0,
            outbox: VecDeque::new(),
            outbox_cap: 64,
            next_id: 0,
            stats: DceStats::default(),
            tap: SpanTap::off(),
        }
    }

    /// Engine configuration.
    pub fn config(&self) -> &DceConfig {
        &self.cfg
    }

    /// This engine's shard index (0 in a single-engine system).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The source id this engine stamps on its memory requests
    /// (`DCE_SOURCE + shard`).
    pub fn source_id(&self) -> SourceId {
        SourceId(DCE_SOURCE + self.shard)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DceStats {
        &self.stats
    }

    /// Turn on the device-side span tap: lifecycle events are recorded
    /// at engine-cycle resolution and converted to ns at `ns_per_cycle`
    /// when drained. `capacity` bounds undrained events.
    pub fn enable_span_tap(&mut self, ns_per_cycle: f64, capacity: usize) {
        self.tap = SpanTap::new(ns_per_cycle, capacity);
    }

    /// Move the tap's buffered span events into `rec`, stamped with
    /// this engine's shard index. A no-op on a disabled tap.
    pub fn drain_spans(&mut self, rec: &mut FlightRecorder) {
        self.tap.drain_into(rec, self.shard as usize);
    }

    /// Whether a job is in flight (some lane is resident).
    pub fn busy(&self) -> bool {
        !self.lanes.is_empty()
    }

    /// Whether the engine holds no host-visible work at all: no lane,
    /// no pending descriptors and no unreleased or undrained
    /// completions. A host poller may sleep past an idle engine — no
    /// retirement can surface until another descriptor arrives.
    pub fn idle(&self) -> bool {
        self.lanes.is_empty()
            && self.pending.is_empty()
            && self.reorder.is_empty()
            && self.completions.is_empty()
    }

    /// Engine cycle of the one-shot job's completion, if it finished.
    pub fn completed_at(&self) -> Option<u64> {
        self.lanes.first().and_then(|l| l.completed_at)
    }

    /// Current engine cycle (ticks since construction). Together with
    /// [`completed_at`](Self::completed_at) this lets a host runtime
    /// measure per-job service time in engine cycles exactly, matching
    /// the one-shot harness's accounting.
    pub fn cycle(&self) -> u64 {
        self.clock
    }

    /// Catch up over `cycles` skipped engine cycles — exactly equivalent
    /// to that many [`tick`](Self::tick)s while the engine has no lane
    /// and an empty pending ring (an idle tick only advances the clock),
    /// or while a completed one-shot job stays resident (a completed
    /// tick returns before touching the job).
    pub fn skip_cycles(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    /// Requests awaiting entry into the memory subsystem.
    pub fn outbox_mut(&mut self) -> &mut VecDeque<DceRequest> {
        &mut self.outbox
    }

    /// Offload a transfer (the MMIO write of `pim_mmu_transfer`); the
    /// address buffer is loaded and PIM-MS starts scheduling on the next
    /// engine cycle. A one-shot job always runs alone.
    ///
    /// # Errors
    ///
    /// Propagates descriptor validation failures and rejects submission
    /// while a job is active or queued descriptors are outstanding
    /// ([`OpError::EngineBusy`]).
    pub fn submit(&mut self, op: PimMmuOp, mode: DceMode) -> Result<(), OpError> {
        if self.busy() || !self.pending.is_empty() {
            return Err(OpError::EngineBusy);
        }
        op.validate(self.cfg.addr_buffer_entries())?;
        let w = self.waiting(PendingDesc::Fresh {
            op,
            mode,
            predecessor: None,
        });
        // The host retires a one-shot job itself: no record surfaces
        // for its seq.
        self.next_release = self.next_seq;
        self.install(w, false);
        Ok(())
    }

    /// Queue a descriptor on the engine's pending ring (the async
    /// doorbell path): it starts executing on a lane of its own as soon
    /// as admission allows (see the module docs) — at once on an idle
    /// engine, exactly like [`submit`](Self::submit), and otherwise the
    /// moment the lanes ahead of it on its PIM channels retire, with no
    /// host round trip between chunks. Retirement is automatic: the
    /// completion surfaces through [`pop_completion`](Self::pop_completion),
    /// in enqueue order.
    ///
    /// `predecessor` declares the descriptor a chunk that *continues*
    /// descriptor `predecessor`'s channel sweep (the serving-aware
    /// PIM-MS path). When the predecessor's sweep is exhausted and this
    /// chunk is the first descriptor waiting on its channels, the chunk
    /// fuses into the predecessor's lane and takes its live
    /// [`PairScheduler`] — per-channel round-robin cursors and the
    /// channel cursor — advanced to its own byte range; once the
    /// predecessor has retired, its cursor is held device-side for the
    /// chunk to pick up when it starts. The continuation is best-effort:
    /// if the predecessor's cursor is unavailable at install time (it
    /// was suspended by a recall or evicted, the mode differs, or the
    /// chunk names a different core set) the engine falls back to a
    /// fresh schedule — counted in [`DceStats::continuation_fallbacks`]
    /// — and the transfer is correct either way, merely unaided.
    ///
    /// The pending ring is unbounded here; the *host-side* queue pair
    /// (`pim-hostq`) enforces the ring depth.
    ///
    /// # Errors
    ///
    /// Propagates descriptor validation failures, and rejects mixing
    /// with the synchronous path ([`OpError::EngineBusy`] while a
    /// [`submit`](Self::submit)-ted job is active): a one-shot job is
    /// never retired by the engine, so nothing would ever admit a
    /// descriptor queued behind it.
    pub fn enqueue(
        &mut self,
        op: PimMmuOp,
        mode: DceMode,
        predecessor: Option<u64>,
    ) -> Result<(), OpError> {
        op.validate(self.cfg.addr_buffer_entries())?;
        self.accept(PendingDesc::Fresh {
            op,
            mode,
            predecessor,
        })
    }

    /// Re-install a suspended transfer: the channel sweep continues from
    /// the captured cursor instead of restarting. Ordering mirrors
    /// [`enqueue`](Self::enqueue) — it gets the next sequence number and
    /// starts as soon as admission allows. The resumed activation
    /// retires with only the bytes it moves (the pre-suspension bytes
    /// were credited by the partial record).
    ///
    /// # Errors
    ///
    /// [`OpError::EngineBusy`] while a [`submit`](Self::submit)-ted
    /// one-shot job is resident, exactly like `enqueue`.
    pub fn resume(&mut self, st: SuspendedTransfer) -> Result<(), OpError> {
        self.accept(PendingDesc::Resumed(st))
    }

    /// Queue a descriptor and admit whatever can start.
    fn accept(&mut self, desc: PendingDesc) -> Result<(), OpError> {
        if self.lanes.iter().any(|l| !l.auto_retire) {
            return Err(OpError::EngineBusy);
        }
        let w = self.waiting(desc);
        self.pending.push_back(w);
        self.admit();
        Ok(())
    }

    /// Give `desc` the next sequence number and note its PIM channels.
    fn waiting(&mut self, desc: PendingDesc) -> Waiting {
        let seq = self.next_seq;
        self.next_seq += 1;
        let channels = match &desc {
            PendingDesc::Fresh { op, .. } => {
                let mut chs: Vec<u32> = op
                    .entries
                    .iter()
                    .map(|&(_, core)| self.space.core_coords(core).0)
                    .collect();
                chs.sort_unstable();
                chs.dedup();
                chs
            }
            PendingDesc::Resumed(st) => st.sched.pim_channels(),
        };
        Waiting {
            seq,
            channels,
            desc,
        }
    }

    /// Walk the pending ring in order and start every descriptor that
    /// admission allows on a lane of its own (module docs).
    fn admit(&mut self) {
        if self
            .lanes
            .iter()
            .any(|l| !l.auto_retire || l.sched.mode() == DceMode::Coarse)
        {
            return;
        }
        let mut used: usize = self.lanes.iter().map(|l| l.sched.core_count()).sum();
        let mut taken: Vec<u32> = self
            .lanes
            .iter()
            .flat_map(|l| l.channels.iter().copied())
            .collect();
        let mut i = 0;
        while i < self.pending.len() {
            let w = &self.pending[i];
            let coarse = w.desc.mode() == DceMode::Coarse;
            if overlaps(&w.channels, &taken) && !coarse {
                // Waits behind its channels' earlier work, and so does
                // every later descriptor on those channels.
                taken.extend(&w.channels);
                i += 1;
                continue;
            }
            let entries = w.desc.entries();
            let room = used + entries <= self.cfg.addr_buffer_entries();
            if !room || (coarse && !self.lanes.is_empty()) {
                break;
            }
            let w = self.pending.remove(i).expect("index in range");
            used += entries;
            taken.extend(&w.channels);
            self.install(w, true);
            if coarse {
                return;
            }
        }
    }

    /// Load a validated descriptor onto a new lane; it starts scheduling
    /// on the next engine cycle. The sweep cursor comes from a resumed
    /// transfer, from the held cursor of the predecessor a continuation
    /// names, or from a fresh [`PairScheduler`].
    fn install(&mut self, w: Waiting, auto_retire: bool) {
        let (kind, sched, lines_written, total) = match w.desc {
            PendingDesc::Resumed(st) => {
                self.stats.resumes += 1;
                (st.kind, st.sched, st.lines_written, st.total)
            }
            PendingDesc::Fresh {
                op,
                mode,
                predecessor,
            } => {
                let sched = predecessor
                    .and_then(|pred| self.claim_held_cursor(pred, &op, mode))
                    .unwrap_or_else(|| {
                        PairScheduler::two_sided(&op, &self.space, &self.mapper, mode)
                    });
                let total = sched.total_lines();
                (op.kind, sched, 0, total)
            }
        };
        start_descriptor(&mut self.tap, w.seq, total - lines_written, self.clock);
        self.lanes.push(Lane {
            id: self.next_lane_id,
            kind,
            sched,
            channels: w.channels,
            in_pipeline: 0,
            lines_written,
            total,
            completed_at: None,
            seq: w.seq,
            started_at: self.clock,
            auto_retire,
            base_lines: lines_written,
            suspend_requested: false,
            segments: VecDeque::new(),
        });
        self.next_lane_id += 1;
    }

    /// `predecessor`'s held sweep cursor re-armed onto `op`'s byte
    /// range, if it matches `mode` and the core set; counts the
    /// continuation or the fallback either way.
    fn claim_held_cursor(
        &mut self,
        predecessor: u64,
        op: &PimMmuOp,
        mode: DceMode,
    ) -> Option<PairScheduler> {
        let continued = self
            .held
            .iter()
            .position(|(seq, _)| *seq == predecessor)
            .and_then(|i| self.held.remove(i))
            .and_then(|(_, mut sched)| {
                (sched.mode() == mode && sched.continue_into(op, &self.space)).then_some(sched)
            });
        if continued.is_some() {
            self.stats.continuations += 1;
        } else {
            self.stats.continuation_fallbacks += 1;
        }
        continued
    }

    /// Hold a retired lane's exhausted cursor for a possible
    /// continuation chunk — its round-robin state is the warm start the
    /// successor re-arms via `continue_into`. One cursor per PIM channel
    /// at most; the oldest goes first.
    fn hold_cursor(&mut self, seq: u64, sched: PairScheduler) {
        self.held.push_back((seq, sched));
        if self.held.len() > self.space.organization().channels as usize {
            self.held.pop_front();
        }
    }

    /// Oldest un-drained completion of a queued descriptor, if any.
    pub fn pop_completion(&mut self) -> Option<DceCompletion> {
        self.completions.pop_front()
    }

    /// The oldest unfinished lane: the one holding the oldest
    /// descriptor still executing.
    fn oldest_lane(&self) -> Option<&Lane> {
        self.lanes
            .iter()
            .filter(|l| l.completed_at.is_none())
            .min_by_key(|l| l.oldest_seq())
    }

    /// Ask the engine to suspend its oldest unfinished lane
    /// mid-transfer. That lane's read issue stops immediately; its
    /// in-flight lines (reads awaiting data, the transpose queue,
    /// pending write bursts) drain organically while other lanes keep
    /// running, and once it has quiesced the lane is extracted: a
    /// *partial* retirement record ([`DceCompletion::resumable`])
    /// surfaces on the completion ring, in sequence order, with the
    /// bytes moved so far, and the remainder becomes a
    /// [`SuspendedTransfer`] claimable via
    /// [`take_suspended`](Self::take_suspended).
    ///
    /// Returns `true` if a suspension was armed; `false` when the
    /// engine is idle, the active job is a one-shot
    /// [`submit`](Self::submit) (the synchronous path has no completion
    /// ring to carry the partial record), the job has already
    /// completed, or the oldest lane is already suspending. A lane whose
    /// sweep is exhausted has nothing left to suspend — its tail retires
    /// it as soon as it lands — so the request is refused and counted in
    /// [`DceStats::suspends_absorbed`].
    pub fn request_suspend(&mut self) -> bool {
        let Some(id) = self.oldest_lane().map(|l| l.id) else {
            return false;
        };
        let lane = self
            .lanes
            .iter_mut()
            .find(|l| l.id == id)
            .expect("oldest lane is resident");
        if !lane.auto_retire || lane.suspend_requested {
            return false;
        }
        if lane.sched.remaining() == 0 {
            self.stats.suspends_absorbed += 1;
            return false;
        }
        lane.suspend_requested = true;
        true
    }

    /// Whether a lane is draining toward a suspension.
    pub fn suspending(&self) -> bool {
        self.lanes.iter().any(|l| l.suspend_requested)
    }

    /// Claim the mid-transfer state of the suspended descriptor `seq`
    /// (the sequence number of its partial retirement record).
    pub fn take_suspended(&mut self, seq: u64) -> Option<SuspendedTransfer> {
        let idx = self.suspended.iter().position(|(s, _)| *s == seq)?;
        self.suspended.remove(idx).map(|(_, st)| st)
    }

    /// Engine cycle the oldest unfinished lane's current activation
    /// started, if one is executing — `cycle() - active_since()` is its
    /// residency, the quantity a time-slice (quantum) preemption policy
    /// bounds.
    pub fn active_since(&self) -> Option<u64> {
        self.oldest_lane().map(|l| l.started_at)
    }

    /// Sequence number of the descriptor the oldest unfinished lane is
    /// executing, if any. A host-side preemption layer compares this
    /// against its ring's oldest in-flight descriptor before arming a
    /// suspension: when the completion-ring poller runs slower than the
    /// dispatch clock, the ring view can lag the engine (the engine
    /// already moved on to the next descriptor), and kicking on the
    /// stale view would suspend the wrong chunk.
    pub fn active_seq(&self) -> Option<u64> {
        self.oldest_lane().map(|l| l.seq)
    }

    /// Queued descriptors not yet started (excludes the lanes).
    pub fn pending_descriptors(&self) -> usize {
        self.pending.len()
    }

    /// Descriptors resident device-side: the lanes plus the pending
    /// ring (retired-but-undrained completions not included).
    pub fn occupancy(&self) -> usize {
        self.lanes.len() + self.pending.len()
    }

    /// Advance one engine cycle.
    pub fn tick(&mut self) {
        let now = self.clock;
        self.clock += 1;
        let live = self
            .lanes
            .iter()
            .filter(|l| l.completed_at.is_none())
            .count();
        if live == 0 {
            return;
        }
        self.stats.busy_cycles += 1;
        if live >= 2 {
            self.stats.lane_cycles += 1;
        }

        // (5) Preprocessing unit: transpose completed reads.
        for _ in 0..self.cfg.preproc_lines_per_cycle {
            match self.transpose_q.pop_front() {
                Some(e) => self.write_ready.push_back(e),
                None => break,
            }
        }

        // (6)-(7) Issue writes toward the destination space.
        let source = self.source_id();
        for _ in 0..self.cfg.issue_width {
            if self.outbox.len() >= self.outbox_cap {
                break;
            }
            let Some((lane, p)) = self.write_ready.pop_front() else {
                break;
            };
            let spaced = self.mapper.map(p.dst);
            let id = self.next_id;
            self.next_id += 1;
            self.outbox.push_back(DceRequest {
                space: spaced.space,
                req: MemRequest::write(id, p.dst, spaced.addr, source),
            });
            self.inflight_writes.insert(id, lane);
            self.stats.writes_issued += 1;
        }

        self.fuse_continuations(now);
        self.issue_reads(source);

        // Per lane: fused-segment retirements, then the completion
        // check. A predecessor chunk completes when the landed-line
        // count crosses its boundary, and its record enters the reorder
        // stage exactly as if it had retired unfused — same seq, same
        // byte accounting.
        let mut draining = false;
        for lane in &mut self.lanes {
            if lane.completed_at.is_some() {
                continue;
            }
            while let Some(seg) = lane.segments.front().copied() {
                if lane.lines_written < seg.end_lines {
                    break;
                }
                lane.segments.pop_front();
                self.reorder.insert(
                    seg.seq,
                    DceCompletion {
                        seq: seg.seq,
                        started_at: seg.started_at,
                        completed_at: now,
                        bytes: (seg.end_lines - lane.base_lines) * LINE_BYTES,
                        resumable: false,
                    },
                );
                self.stats.jobs_done += 1;
                lane.base_lines = seg.end_lines;
            }
            if lane.lines_written == lane.total && lane.in_pipeline == 0 {
                lane.completed_at = Some(now);
            } else if lane.suspend_requested {
                draining = true;
            }
        }
        if draining {
            self.stats.drain_cycles += 1;
        }

        if self.retire_lanes(now) {
            // A freed lane admits pending descriptors device-side: the
            // successor's first busy cycle is the very next one.
            self.admit();
        }
    }

    /// Serving-aware chaining (fusion): the moment a lane's sweep is
    /// exhausted, a continuation of its descriptor waiting first on its
    /// channels takes the live cursor — the successor's reads issue
    /// this very cycle, while the predecessor's tail still drains, so
    /// the line stream never sees the chunk boundary. The predecessor
    /// becomes a fused segment whose record is emitted once its lines
    /// land; a shape mismatch leaves the descriptor to be admitted
    /// later, which falls back to a fresh build.
    fn fuse_continuations(&mut self, now: u64) {
        if self.pending.is_empty() {
            return;
        }
        for lane in &mut self.lanes {
            if !lane.auto_retire
                || lane.suspend_requested
                || lane.completed_at.is_some()
                || lane.sched.remaining() != 0
            {
                continue;
            }
            let Some(i) = self
                .pending
                .iter()
                .position(|w| overlaps(&w.channels, &lane.channels))
            else {
                continue;
            };
            let fuses = match &self.pending[i].desc {
                PendingDesc::Fresh {
                    op,
                    mode,
                    predecessor: Some(pred),
                } => {
                    *pred == lane.seq
                        && *mode == lane.sched.mode()
                        && lane.sched.continue_into(op, &self.space)
                }
                _ => false,
            };
            if !fuses {
                continue;
            }
            let w = self.pending.remove(i).expect("index in range");
            self.stats.continuations += 1;
            let added = lane.sched.total_lines();
            start_descriptor(&mut self.tap, w.seq, added, now);
            lane.segments.push_back(SegBoundary {
                seq: lane.seq,
                end_lines: lane.total,
                started_at: lane.started_at,
            });
            lane.seq = w.seq;
            lane.started_at = now;
            lane.total += added;
        }
    }

    /// (1)-(3) Issue reads while the shared data buffer has room,
    /// round-robin across lanes one line at a time. A lane with a
    /// pending suspension issues nothing — the drain is what bounds the
    /// preemption latency to its in-flight pipeline depth.
    fn issue_reads(&mut self, source: SourceId) {
        if !self
            .lanes
            .iter()
            .any(|l| l.completed_at.is_none() && !l.suspend_requested)
        {
            return;
        }
        // A Coarse lane always runs alone, so its shallow window bounds
        // the engine's reads.
        let window = if self.lanes.iter().any(|l| l.sched.mode() == DceMode::Coarse) {
            self.cfg.coarse_inflight_lines as usize
        } else {
            self.cfg.data_buffer_lines() as usize
        };
        let mut stalled_on_buffer = false;
        for _ in 0..self.cfg.issue_width {
            if self.outbox.len() >= self.outbox_cap {
                break;
            }
            if self.buffer_used >= self.cfg.data_buffer_lines() {
                stalled_on_buffer = true;
                break;
            }
            if self.inflight_reads.len() >= window {
                break;
            }
            let Some((lane, p)) = self.next_read() else {
                break;
            };
            let spaced = self.mapper.map(p.src);
            let id = self.next_id;
            self.next_id += 1;
            self.outbox.push_back(DceRequest {
                space: spaced.space,
                req: MemRequest::read(id, p.src, spaced.addr, source),
            });
            self.inflight_reads.insert(id, (lane, p));
            self.buffer_used += 1;
            self.stats.reads_issued += 1;
        }
        if stalled_on_buffer {
            self.stats.buffer_stall_cycles += 1;
        }
    }

    /// The next line of the next lane in round-robin order that has
    /// one, tagged with that lane's id.
    fn next_read(&mut self) -> Option<(u64, LinePair)> {
        let n = self.lanes.len();
        for k in 0..n {
            let i = (self.rr_lane + k) % n;
            let lane = &mut self.lanes[i];
            if lane.completed_at.is_some() || lane.suspend_requested {
                continue;
            }
            if let Some(p) = lane.sched.next_pair() {
                lane.in_pipeline += 1;
                self.rr_lane = (i + 1) % n;
                return Some((lane.id, p));
            }
        }
        None
    }

    /// Retire every lane that finished (a queued descriptor retires
    /// itself) or quiesced under a suspension, and release whatever the
    /// reorder stage can surface. Returns whether a lane was freed.
    fn retire_lanes(&mut self, now: u64) -> bool {
        let mut freed = false;
        let mut i = 0;
        while i < self.lanes.len() {
            let l = &self.lanes[i];
            let done = l.auto_retire && l.completed_at.is_some();
            let quiesced = l.suspend_requested && l.in_pipeline == 0;
            if !done && !quiesced {
                i += 1;
                continue;
            }
            freed = true;
            let lane = self.lanes.remove(i);
            let rec = DceCompletion {
                seq: lane.seq,
                started_at: lane.started_at,
                completed_at: now,
                bytes: (lane.lines_written - lane.base_lines) * LINE_BYTES,
                resumable: !done,
            };
            if done {
                self.stats.jobs_done += 1;
                self.hold_cursor(lane.seq, lane.sched);
            } else {
                // Quiesced mid-transfer: partial retirement. The record
                // credits only the bytes this activation moved; the
                // live scheduler (cursor and all) is parked for the
                // host to claim. Every fused boundary is behind the
                // quiesced lane: a segment's reads were fully issued
                // before its successor fused, so its lines all landed
                // and its record was emitted above.
                debug_assert!(
                    lane.segments.is_empty(),
                    "quiesced lane implies every fused boundary crossed"
                );
                self.suspended.push_back((
                    lane.seq,
                    SuspendedTransfer {
                        kind: lane.kind,
                        sched: lane.sched,
                        lines_written: lane.lines_written,
                        total: lane.total,
                    },
                ));
                self.stats.suspensions += 1;
            }
            self.reorder.insert(rec.seq, rec);
        }
        self.release(now);
        freed
    }

    /// The reorder stage: surface records on the completion ring in
    /// sequence order, each as soon as every older one has retired.
    fn release(&mut self, now: u64) {
        while let Some(entry) = self.reorder.first_entry() {
            if *entry.key() != self.next_release {
                break;
            }
            let mut rec = entry.remove();
            rec.completed_at = now;
            let kind = if rec.resumable {
                SpanKind::Suspend
            } else {
                SpanKind::Retire
            };
            self.tap
                .record_at_cycle(SpanEvent::new(kind, 0.0).seq(rec.seq).bytes(rec.bytes), now);
            self.completions.push_back(rec);
            self.next_release += 1;
        }
    }

    /// Feed a memory completion back into the engine. Only ids the
    /// engine issued and still tracks count: anything else is ignored.
    pub fn on_completion(&mut self, c: Completion) {
        if let Some(entry) = self.inflight_reads.remove(&c.id) {
            // ❹ data buffered; queue for the preprocessing unit.
            self.transpose_q.push_back(entry);
        } else if let Some(id) = self.inflight_writes.remove(&c.id) {
            // ❼ write burst done: free the buffer line.
            self.buffer_used -= 1;
            let lane = self
                .lanes
                .iter_mut()
                .find(|l| l.id == id)
                .expect("a lane stays resident while its lines are in flight");
            lane.in_pipeline -= 1;
            lane.lines_written += 1;
            self.stats.lines_done += 1;
        }
    }

    /// The transfer direction of the oldest resident lane, if any.
    pub fn active_kind(&self) -> Option<XferKind> {
        self.lanes
            .iter()
            .min_by_key(|l| l.oldest_seq())
            .map(|l| l.kind)
    }
}

/// Record descriptor `seq`'s device-start span: `lines` still to move,
/// starting at engine cycle `cycle`. Shared by every install and by the
/// mid-tick fusion.
fn start_descriptor(tap: &mut SpanTap, seq: u64, lines: u64, cycle: u64) {
    tap.record_at_cycle(
        SpanEvent::new(SpanKind::DeviceStart, 0.0)
            .seq(seq)
            .bytes(lines * LINE_BYTES),
        cycle,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_dram::AccessKind;
    use pim_mapping::{Organization, PhysAddr};

    fn setup() -> Dce {
        let dram = Organization::ddr4_dimm(4, 2);
        let pim = Organization::upmem_dimm(4, 2);
        let het = HetMap::pim_mmu(dram, pim);
        let space = PimAddrSpace::new(het.pim_base(), pim);
        Dce::new(DceConfig::table1(), het, space)
    }

    /// A perfect memory: completes everything `latency` cycles later.
    fn run_to_completion(dce: &mut Dce, latency: u64, max_cycles: u64) -> u64 {
        let mut pending: VecDeque<(u64, Completion)> = VecDeque::new();
        for now in 0..max_cycles {
            dce.tick();
            while let Some(r) = dce.outbox_mut().pop_front() {
                pending.push_back((
                    now + latency,
                    Completion {
                        id: r.req.id,
                        kind: r.req.kind,
                        source: r.req.source,
                        cycle: now + latency,
                    },
                ));
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, c) = pending.pop_front().unwrap();
                dce.on_completion(c);
            }
            if dce.completed_at().is_some() {
                return now;
            }
        }
        panic!("transfer did not complete in {max_cycles} cycles");
    }

    #[test]
    fn transfers_every_line_exactly_once() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..32).map(|i| (PhysAddr(i * 4096), u32::try_from(i).unwrap())),
            4096,
            0,
        );
        let total = op.total_bytes() / 64;
        dce.submit(op, DceMode::PimMs).unwrap();
        run_to_completion(&mut dce, 20, 1_000_000);
        assert_eq!(dce.stats().reads_issued, total);
        assert_eq!(dce.stats().writes_issued, total);
        assert_eq!(dce.stats().lines_done, total);
    }

    #[test]
    fn submit_rejects_degenerate_jobs_without_panicking() {
        // Regression for the zero-byte / zero-core edges: the engine must
        // hand back a typed error, never reach the scheduler with a shape
        // that would build an empty schedule.
        let mut dce = setup();
        let zero_bytes = PimMmuOp::to_pim([(PhysAddr(0), 0)], 0, 0);
        assert_eq!(
            dce.submit(zero_bytes, DceMode::PimMs),
            Err(OpError::BadSize(0))
        );
        let zero_cores = PimMmuOp::to_pim(std::iter::empty(), 64, 0);
        assert_eq!(dce.submit(zero_cores, DceMode::PimMs), Err(OpError::Empty));
        assert!(!dce.busy(), "rejected submissions must leave the DCE idle");
    }

    #[test]
    fn sharded_engines_tag_their_traffic() {
        let dram = Organization::ddr4_dimm(4, 2);
        let pim = Organization::upmem_dimm(4, 2);
        let het = HetMap::pim_mmu(dram, pim);
        let space = PimAddrSpace::new(het.pim_base(), pim);
        let mut dce = Dce::with_shard(DceConfig::table1(), het, space, 3);
        assert_eq!(dce.shard(), 3);
        assert_eq!(dce.source_id(), SourceId(DCE_SOURCE + 3));
        // Shard 0 (the plain constructor) keeps the historic tag.
        assert_eq!(setup().source_id(), SourceId(DCE_SOURCE));
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 128, 0);
        dce.submit(op, DceMode::PimMs).unwrap();
        dce.tick();
        let req = dce.outbox_mut().pop_front().expect("first read issued");
        assert_eq!(req.req.source, SourceId(DCE_SOURCE + 3));
    }

    #[test]
    fn cycle_counts_ticks() {
        let mut dce = setup();
        assert_eq!(dce.cycle(), 0);
        for _ in 0..5 {
            dce.tick();
        }
        assert_eq!(dce.cycle(), 5);
    }

    #[test]
    fn rejects_double_submit() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 64, 0);
        dce.submit(op.clone(), DceMode::PimMs).unwrap();
        assert_eq!(dce.submit(op, DceMode::PimMs), Err(OpError::EngineBusy));
    }

    #[test]
    fn buffer_capacity_bounds_inflight_lines() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..64).map(|i| (PhysAddr(i * 65536), u32::try_from(i).unwrap())),
            65536,
            0,
        );
        dce.submit(op, DceMode::PimMs).unwrap();
        // Never complete anything: reads pile up until the buffer is full.
        for _ in 0..10_000 {
            dce.tick();
            dce.outbox_mut().clear();
        }
        let lines = dce.config().data_buffer_lines() as u64;
        assert_eq!(dce.stats().reads_issued, lines);
        assert!(dce.stats().buffer_stall_cycles > 0);
    }

    #[test]
    fn coarse_mode_pipelines_shallowly() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..64).map(|i| (PhysAddr(i * 65536), u32::try_from(i).unwrap())),
            65536,
            0,
        );
        dce.submit(op, DceMode::Coarse).unwrap();
        for _ in 0..10_000 {
            dce.tick();
            dce.outbox_mut().clear();
        }
        assert_eq!(
            dce.stats().reads_issued,
            dce.config().coarse_inflight_lines as u64
        );
    }

    #[test]
    fn dram_to_pim_reads_dram_writes_pim() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim([(PhysAddr(0), 5)], 128, 0);
        dce.submit(op, DceMode::PimMs).unwrap();
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut pending = VecDeque::new();
        for now in 0..10_000u64 {
            dce.tick();
            while let Some(r) = dce.outbox_mut().pop_front() {
                match r.req.kind {
                    AccessKind::Read => reads.push(r),
                    AccessKind::Write => writes.push(r),
                }
                pending.push_back((
                    now + 10,
                    Completion {
                        id: r.req.id,
                        kind: r.req.kind,
                        source: r.req.source,
                        cycle: now + 10,
                    },
                ));
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, c) = pending.pop_front().unwrap();
                dce.on_completion(c);
            }
            if dce.completed_at().is_some() {
                break;
            }
        }
        assert!(dce.completed_at().is_some());
        assert!(reads.iter().all(|r| r.space == MemSpace::Dram));
        assert!(writes.iter().all(|w| w.space == MemSpace::Pim));
        assert_eq!(writes.len(), 2);
    }

    #[test]
    fn pim_to_dram_reverses_spaces() {
        let mut dce = setup();
        let op = PimMmuOp::from_pim([(PhysAddr(0), 5)], 128, 0);
        dce.submit(op, DceMode::PimMs).unwrap();
        dce.tick();
        let first = dce.outbox_mut().pop_front().unwrap();
        assert_eq!(first.req.kind, AccessKind::Read);
        assert_eq!(first.space, MemSpace::Pim);
    }

    #[test]
    fn enqueue_chains_descriptors_without_host_round_trips() {
        let mut dce = setup();
        for k in 0..3u64 {
            let op = PimMmuOp::to_pim(
                (0..8).map(|i| {
                    (
                        PhysAddr(k * (1 << 20) + i * 4096),
                        u32::try_from(i).unwrap(),
                    )
                }),
                4096,
                k * 4096,
            );
            dce.enqueue(op, DceMode::PimMs, None).unwrap();
        }
        assert_eq!(dce.occupancy(), 3);
        assert_eq!(dce.pending_descriptors(), 2);
        let mut recs = Vec::new();
        let mut pending: VecDeque<(u64, Completion)> = VecDeque::new();
        for now in 0..1_000_000u64 {
            dce.tick();
            while let Some(r) = dce.outbox_mut().pop_front() {
                pending.push_back((
                    now + 20,
                    Completion {
                        id: r.req.id,
                        kind: r.req.kind,
                        source: r.req.source,
                        cycle: now + 20,
                    },
                ));
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, c) = pending.pop_front().unwrap();
                dce.on_completion(c);
            }
            while let Some(rec) = dce.pop_completion() {
                recs.push(rec);
            }
            if recs.len() == 3 {
                break;
            }
        }
        assert_eq!(recs.len(), 3, "all queued descriptors retire");
        assert!(!dce.busy());
        assert_eq!(dce.occupancy(), 0);
        assert_eq!(dce.stats().jobs_done, 3);
        for (k, rec) in recs.iter().enumerate() {
            assert_eq!(rec.seq, k as u64, "FIFO retirement order");
            assert_eq!(rec.bytes, 8 * 4096);
            assert!(rec.completed_at > rec.started_at);
        }
        // The engine transitions directly: the successor starts on the
        // cycle right after its predecessor completed.
        for w in recs.windows(2) {
            assert_eq!(
                w[1].started_at,
                w[0].completed_at + 1,
                "no host round trip between queued chunks"
            );
        }
    }

    #[test]
    fn enqueue_on_idle_engine_starts_like_submit() {
        let mut a = setup();
        let mut b = setup();
        let op = PimMmuOp::to_pim(
            (0..8).map(|i| (PhysAddr(i * 4096), u32::try_from(i).unwrap())),
            4096,
            0,
        );
        a.submit(op.clone(), DceMode::PimMs).unwrap();
        b.enqueue(op, DceMode::PimMs, None).unwrap();
        let done_a = run_to_completion(&mut a, 20, 1_000_000);
        // The queued path retires itself; run until the record appears.
        let mut pending: VecDeque<(u64, Completion)> = VecDeque::new();
        let mut rec = None;
        for now in 0..1_000_000u64 {
            b.tick();
            while let Some(r) = b.outbox_mut().pop_front() {
                pending.push_back((
                    now + 20,
                    Completion {
                        id: r.req.id,
                        kind: r.req.kind,
                        source: r.req.source,
                        cycle: now + 20,
                    },
                ));
            }
            while pending.front().is_some_and(|&(t, _)| t <= now) {
                let (_, c) = pending.pop_front().unwrap();
                b.on_completion(c);
            }
            if let Some(r) = b.pop_completion() {
                rec = Some(r);
                break;
            }
        }
        let rec = rec.expect("queued descriptor completed");
        assert_eq!(rec.started_at, 0);
        assert_eq!(
            rec.completed_at,
            a.completed_at().unwrap(),
            "identical engine timing on an idle engine"
        );
        assert_eq!(rec.completed_at, done_a);
    }

    #[test]
    fn submit_rejects_while_descriptors_are_queued() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 64, 0);
        dce.enqueue(op.clone(), DceMode::PimMs, None).unwrap();
        dce.enqueue(op.clone(), DceMode::PimMs, None).unwrap();
        assert_eq!(
            dce.submit(op.clone(), DceMode::PimMs),
            Err(OpError::EngineBusy)
        );
        // Invalid descriptors are rejected by enqueue too.
        let bad = PimMmuOp::to_pim([(PhysAddr(0), 0)], 0, 0);
        assert_eq!(
            dce.enqueue(bad, DceMode::PimMs, None),
            Err(OpError::BadSize(0))
        );
        assert_eq!(dce.occupancy(), 2);
    }

    #[test]
    fn enqueue_rejects_behind_a_synchronous_job() {
        // Mixing the paths would strand the queued descriptor: the
        // host retires a submitted job and nothing pops the pending
        // ring afterwards.
        let mut dce = setup();
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 64, 0);
        dce.submit(op.clone(), DceMode::PimMs).unwrap();
        assert_eq!(
            dce.enqueue(op, DceMode::PimMs, None),
            Err(OpError::EngineBusy)
        );
        assert_eq!(dce.pending_descriptors(), 0);
    }

    /// Everything a perfect-memory drive observed.
    #[derive(Default)]
    struct Trace {
        /// Completion records, in the order the ring surfaced them.
        recs: Vec<DceCompletion>,
        /// Source addresses of issued reads.
        reads: Vec<u64>,
        /// `(cycle, destination address)` of every landed write.
        landed: Vec<(u64, u64)>,
    }

    /// A perfect-memory drive loop that also honors a one-shot
    /// suspension request at cycle `suspend_at`: runs until `n`
    /// completion records have been drained or `max_cycles` elapse.
    fn drive(
        dce: &mut Dce,
        latency: u64,
        max_cycles: u64,
        n: usize,
        suspend_at: Option<u64>,
    ) -> Trace {
        let mut pending: VecDeque<(u64, Completion, u64)> = VecDeque::new();
        let mut t = Trace::default();
        for now in 0..max_cycles {
            if suspend_at == Some(now) {
                assert!(dce.request_suspend(), "suspension must arm at {now}");
                assert!(dce.suspending());
                assert!(!dce.request_suspend(), "double-arm is rejected");
            }
            dce.tick();
            while let Some(r) = dce.outbox_mut().pop_front() {
                if r.req.kind == AccessKind::Read {
                    t.reads.push(r.req.phys.0);
                }
                pending.push_back((
                    now + latency,
                    Completion {
                        id: r.req.id,
                        kind: r.req.kind,
                        source: r.req.source,
                        cycle: now + latency,
                    },
                    r.req.phys.0,
                ));
            }
            while pending.front().is_some_and(|&(t, ..)| t <= now) {
                let (_, c, phys) = pending.pop_front().unwrap();
                if c.kind == AccessKind::Write {
                    t.landed.push((now, phys));
                }
                dce.on_completion(c);
            }
            while let Some(rec) = dce.pop_completion() {
                t.recs.push(rec);
            }
            if t.recs.len() >= n {
                break;
            }
        }
        t
    }

    /// [`drive`], keeping only the completion records.
    fn drive_until_records(
        dce: &mut Dce,
        latency: u64,
        max_cycles: u64,
        n: usize,
        suspend_at: Option<u64>,
    ) -> Vec<DceCompletion> {
        drive(dce, latency, max_cycles, n, suspend_at).recs
    }

    #[test]
    fn suspend_partially_retires_and_resume_finishes_the_job() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..16).map(|i| (PhysAddr(i * 8192), u32::try_from(i).unwrap())),
            8192,
            0,
        );
        let total_bytes = op.total_bytes();
        dce.enqueue(op, DceMode::PimMs, None).unwrap();
        let recs = drive_until_records(&mut dce, 10, 1_000_000, 1, Some(40));
        assert_eq!(recs.len(), 1);
        let partial = recs[0];
        assert!(partial.resumable);
        assert!(partial.bytes < total_bytes, "suspension is mid-transfer");
        assert!(!dce.busy(), "suspension frees the engine");
        assert_eq!(dce.stats().suspensions, 1);
        assert!(dce.stats().drain_cycles > 0);

        let st = dce.take_suspended(partial.seq).expect("state claimable");
        assert_eq!(st.bytes_done(), partial.bytes);
        assert_eq!(st.remaining_bytes(), total_bytes - partial.bytes);
        assert_eq!(st.entries(), 16);

        dce.resume(st).unwrap();
        let recs = drive_until_records(&mut dce, 10, 1_000_000, 1, None);
        assert_eq!(recs.len(), 1);
        let fin = recs[0];
        assert!(!fin.resumable);
        assert_eq!(fin.seq, partial.seq + 1, "resume is a fresh descriptor");
        assert_eq!(
            partial.bytes + fin.bytes,
            total_bytes,
            "records across activations conserve bytes"
        );
        assert_eq!(dce.stats().resumes, 1);
        // Every line read and written exactly once across activations.
        assert_eq!(dce.stats().lines_done, total_bytes / 64);
        assert_eq!(dce.stats().reads_issued, total_bytes / 64);
    }

    #[test]
    fn continuation_chunks_conserve_bytes_and_chain() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..16).map(|i| (PhysAddr(i * 8192), u32::try_from(i).unwrap())),
            8192,
            0,
        );
        let chunks = op.chunks(32 << 10, 4096).unwrap();
        assert!(chunks.len() > 2, "need several chunks to chain");
        for (i, c) in chunks.iter().enumerate() {
            if i == 0 {
                dce.enqueue(c.clone(), DceMode::PimMs, None).unwrap();
            } else {
                // FIFO install order: chunk i's predecessor got seq i-1.
                let pred = u64::try_from(i).unwrap() - 1;
                dce.enqueue(c.clone(), DceMode::PimMs, Some(pred)).unwrap();
            }
        }
        let recs = drive_until_records(&mut dce, 10, 1_000_000, chunks.len(), None);
        assert_eq!(recs.len(), chunks.len());
        assert_eq!(
            recs.iter().map(|r| r.bytes).sum::<u64>(),
            op.total_bytes(),
            "byte conservation across continuation boundaries"
        );
        for w in recs.windows(2) {
            // Fusion lets the successor's reads issue while the
            // predecessor's tail drains: it starts no later than the
            // cycle after its predecessor retires — and strictly
            // earlier whenever the chunks fused.
            assert!(
                w[1].started_at <= w[0].completed_at + 1,
                "device-side chain"
            );
            assert!(w[1].completed_at >= w[0].completed_at, "retire in order");
        }
        let overlapped = recs
            .windows(2)
            .any(|w| w[1].started_at <= w[0].completed_at);
        assert!(overlapped, "at least one boundary fused mid-flight");
        assert_eq!(
            dce.stats().continuations,
            u64::try_from(chunks.len()).unwrap() - 1
        );
        assert_eq!(dce.stats().continuation_fallbacks, 0);
        let lines = op.total_bytes() / 64;
        assert_eq!(dce.stats().reads_issued, lines);
        assert_eq!(dce.stats().writes_issued, lines);
        assert_eq!(dce.stats().lines_done, lines);
    }

    #[test]
    fn continuation_behind_a_suspension_falls_back_cleanly() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..16).map(|i| (PhysAddr(i * 8192), u32::try_from(i).unwrap())),
            8192,
            0,
        );
        let chunks = op.chunks(64 << 10, 4096).unwrap();
        assert_eq!(chunks.len(), 2);
        dce.enqueue(chunks[0].clone(), DceMode::PimMs, None)
            .unwrap();
        dce.enqueue(chunks[1].clone(), DceMode::PimMs, Some(0))
            .unwrap();
        // Recall chunk 0 mid-transfer: its cursor is parked for the
        // host, not held for the continuation, which must rebuild.
        let recs = drive_until_records(&mut dce, 10, 1_000_000, 2, Some(20));
        assert_eq!(recs.len(), 2);
        assert!(recs[0].resumable, "chunk 0 partially retired");
        assert!(!recs[1].resumable, "chunk 1 ran fresh behind it");
        assert_eq!(dce.stats().continuations, 0);
        assert_eq!(dce.stats().continuation_fallbacks, 1);
        // The recalled remainder resumes and the job still conserves
        // bytes across all three records.
        let st = dce.take_suspended(recs[0].seq).unwrap();
        dce.resume(st).unwrap();
        let recs2 = drive_until_records(&mut dce, 10, 1_000_000, 1, None);
        assert_eq!(
            recs[0].bytes + recs[1].bytes + recs2[0].bytes,
            op.total_bytes()
        );
        let lines = op.total_bytes() / 64;
        assert_eq!(dce.stats().lines_done, lines);
        assert_eq!(dce.stats().reads_issued, lines);
    }

    #[test]
    fn continuation_naming_the_wrong_predecessor_or_mode_rebuilds() {
        // The held cursor is keyed by seq and mode: a chunk naming any
        // other predecessor, or switching mode, must neither fuse nor
        // take the cursor — it rebuilds, counts one fallback, and the
        // job still moves every byte exactly once.
        let op = PimMmuOp::to_pim(
            (0..16).map(|i| (PhysAddr(i * 8192), u32::try_from(i).unwrap())),
            8192,
            0,
        );
        let chunks = op.chunks(64 << 10, 4096).unwrap();
        assert_eq!(chunks.len(), 2);
        for (pred, mode) in [(7, DceMode::PimMs), (0, DceMode::Coarse)] {
            let mut dce = setup();
            dce.enqueue(chunks[0].clone(), DceMode::PimMs, None)
                .unwrap();
            dce.enqueue(chunks[1].clone(), mode, Some(pred)).unwrap();
            let recs = drive_until_records(&mut dce, 10, 1_000_000, 2, None);
            assert_eq!(recs.len(), 2, "{mode:?}");
            assert_eq!(dce.stats().continuations, 0, "{mode:?}");
            assert_eq!(dce.stats().continuation_fallbacks, 1, "{mode:?}");
            assert_eq!(
                recs.iter().map(|r| r.bytes).sum::<u64>(),
                op.total_bytes(),
                "{mode:?}"
            );
            let lines = op.total_bytes() / 64;
            assert_eq!(dce.stats().reads_issued, lines, "{mode:?}");
            assert_eq!(dce.stats().lines_done, lines, "{mode:?}");
        }
    }

    #[test]
    fn continuation_on_an_idle_engine_picks_up_the_held_cursor() {
        // The host-round-trip shape: the predecessor retires, the ring
        // drains, and only then is the next chunk dispatched. The
        // cursor is still held device-side, so the continuation is
        // taken even without deep queueing.
        let mut dce = setup();
        let op = PimMmuOp::to_pim(
            (0..8).map(|i| (PhysAddr(i * 4096), u32::try_from(i).unwrap())),
            4096,
            0,
        );
        let chunks = op.chunks(16 << 10, 4096).unwrap();
        assert!(chunks.len() >= 2);
        dce.enqueue(chunks[0].clone(), DceMode::PimMs, None)
            .unwrap();
        let recs = drive_until_records(&mut dce, 10, 1_000_000, 1, None);
        assert!(!dce.busy(), "engine idle between chunks");
        dce.enqueue(chunks[1].clone(), DceMode::PimMs, Some(recs[0].seq))
            .unwrap();
        let recs2 = drive_until_records(&mut dce, 10, 1_000_000, 1, None);
        assert_eq!(recs2.len(), 1);
        assert_eq!(dce.stats().continuations, 1);
        assert_eq!(dce.stats().continuation_fallbacks, 0);
    }

    #[test]
    fn suspend_is_refused_on_the_synchronous_path_and_idle_engines() {
        let mut dce = setup();
        assert!(!dce.request_suspend(), "idle engine has nothing to kick");
        dce.submit(PimMmuOp::to_pim([(PhysAddr(0), 0)], 128, 0), DceMode::PimMs)
            .unwrap();
        assert!(
            !dce.request_suspend(),
            "host-retired submissions have no completion ring for the partial record"
        );
    }

    #[test]
    fn suspend_on_an_exhausted_sweep_is_refused_and_counted() {
        let mut dce = setup();
        let op = PimMmuOp::to_pim([(PhysAddr(0), 0)], 128, 0);
        dce.enqueue(op, DceMode::PimMs, None).unwrap();
        // One cycle issues both reads: the sweep is exhausted while the
        // lines are still in flight.
        dce.tick();
        assert_eq!(dce.stats().reads_issued, 2);
        assert!(!dce.request_suspend(), "nothing left to suspend");
        assert!(!dce.suspending());
        assert_eq!(dce.stats().suspends_absorbed, 1);
        let recs = drive_until_records(&mut dce, 10, 1_000_000, 1, None);
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].resumable, "the job retires in full");
        assert_eq!(recs[0].bytes, 128);
        assert_eq!(dce.stats().suspensions, 0);
        assert_eq!(dce.stats().drain_cycles, 0, "no drain without a suspension");
    }

    #[test]
    fn suspension_chains_to_the_next_pending_descriptor() {
        let mut dce = setup();
        let big = PimMmuOp::to_pim(
            (0..8).map(|i| (PhysAddr(i * 65536), u32::try_from(i).unwrap())),
            65536,
            0,
        );
        let small = PimMmuOp::to_pim([(PhysAddr(1 << 24), 100)], 128, 0);
        dce.enqueue(big, DceMode::PimMs, None).unwrap();
        dce.enqueue(small, DceMode::PimMs, None).unwrap();
        let recs = drive_until_records(&mut dce, 10, 1_000_000, 2, Some(20));
        assert_eq!(recs.len(), 2);
        assert!(recs[0].resumable, "big job suspended first");
        assert!(!recs[1].resumable, "small pending descriptor ran next");
        assert_eq!(recs[1].bytes, 128);
        // The engine moved straight on: the successor starts the cycle
        // after the quiesce.
        assert_eq!(recs[1].started_at, recs[0].completed_at + 1);
        // The suspended remainder resumes cleanly afterwards.
        let st = dce.take_suspended(recs[0].seq).unwrap();
        dce.resume(st).unwrap();
        let recs2 = drive_until_records(&mut dce, 10, 1_000_000, 1, None);
        assert_eq!(recs2[0].bytes + recs[0].bytes, 8 * 65536);
    }

    /// Cores per PIM channel of the test machine: core ids are
    /// channel-major, so core `ch * CORES_PER_CHANNEL + i` is on `ch`.
    const CORES_PER_CHANNEL: u32 = 128;

    /// A DRAM→PIM op over `n` cores of PIM channel `ch` (starting at
    /// core offset `first`), `size` bytes each, staged from DRAM `base`.
    fn channel_op(ch: u32, first: u32, n: u32, size: u64, base: u64) -> PimMmuOp {
        PimMmuOp::to_pim(
            (0..n).map(|i| {
                (
                    PhysAddr(base + u64::from(i) * size),
                    ch * CORES_PER_CHANNEL + first + i,
                )
            }),
            size,
            0,
        )
    }

    /// Records surface in strictly increasing, gap-free seq order.
    fn assert_in_order(recs: &[DceCompletion]) {
        for (k, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, k as u64, "records retire in seq order");
        }
        for w in recs.windows(2) {
            assert!(w[1].completed_at >= w[0].completed_at);
        }
    }

    #[test]
    fn descriptors_on_disjoint_channels_overlap() {
        let mut dce = setup();
        dce.enqueue(channel_op(0, 0, 8, 4096, 0), DceMode::PimMs, None)
            .unwrap();
        dce.enqueue(channel_op(1, 0, 8, 4096, 1 << 20), DceMode::PimMs, None)
            .unwrap();
        assert_eq!(dce.pending_descriptors(), 0, "both start at once");
        assert_eq!(dce.occupancy(), 2);
        let recs = drive_until_records(&mut dce, 20, 1_000_000, 2, None);
        assert_in_order(&recs);
        assert_eq!(recs[1].started_at, 0);
        assert!(
            recs[1].started_at < recs[0].completed_at,
            "the second starts before the first completes"
        );
        assert!(dce.stats().lane_cycles > 0);
        assert!(recs.iter().all(|r| r.bytes == 8 * 4096));
        assert_eq!(dce.stats().lines_done, 2 * 8 * 64);
    }

    #[test]
    fn descriptors_on_one_channel_stay_serial() {
        let mut dce = setup();
        dce.enqueue(channel_op(2, 0, 8, 4096, 0), DceMode::PimMs, None)
            .unwrap();
        dce.enqueue(channel_op(2, 8, 8, 4096, 1 << 20), DceMode::PimMs, None)
            .unwrap();
        assert_eq!(dce.pending_descriptors(), 1);
        let recs = drive_until_records(&mut dce, 20, 1_000_000, 2, None);
        assert_in_order(&recs);
        assert_eq!(recs[1].started_at, recs[0].completed_at + 1);
        assert_eq!(dce.stats().lane_cycles, 0);
    }

    #[test]
    fn a_younger_lane_that_finishes_first_retires_after_the_older() {
        let mut dce = setup();
        dce.enqueue(channel_op(0, 0, 8, 65536, 0), DceMode::PimMs, None)
            .unwrap();
        // The younger descriptor moves PIM→DRAM, so its writes are the
        // only ones landing in DRAM at `small_base`.
        let small_base = 1u64 << 24;
        let small = PimMmuOp::from_pim([(PhysAddr(small_base), CORES_PER_CHANNEL)], 128, 0);
        dce.enqueue(small, DceMode::PimMs, None).unwrap();
        let t = drive(&mut dce, 20, 1_000_000, 2, None);
        assert_in_order(&t.recs);
        let small_landed = t
            .landed
            .iter()
            .filter(|&&(_, a)| (small_base..small_base + 128).contains(&a))
            .map(|&(c, _)| c)
            .max()
            .expect("the small descriptor's lines landed");
        assert!(
            small_landed < t.recs[0].completed_at,
            "the younger lane finished first"
        );
        assert_eq!(
            t.recs[1].completed_at, t.recs[0].completed_at,
            "its record surfaced only when the older one retired"
        );
        assert_eq!(t.recs[1].bytes, 128);
    }

    #[test]
    fn coarse_descriptors_never_run_side_by_side() {
        for modes in [
            [DceMode::Coarse, DceMode::Coarse],
            [DceMode::PimMs, DceMode::Coarse],
            [DceMode::Coarse, DceMode::PimMs],
        ] {
            let mut dce = setup();
            dce.enqueue(channel_op(0, 0, 4, 4096, 0), modes[0], None)
                .unwrap();
            dce.enqueue(channel_op(1, 0, 4, 4096, 1 << 20), modes[1], None)
                .unwrap();
            assert_eq!(dce.pending_descriptors(), 1, "{modes:?}");
            let recs = drive_until_records(&mut dce, 20, 1_000_000, 2, None);
            assert_in_order(&recs);
            assert_eq!(recs[1].started_at, recs[0].completed_at + 1, "{modes:?}");
            assert_eq!(dce.stats().lane_cycles, 0, "{modes:?}");
        }
    }

    #[test]
    fn a_waiting_coarse_descriptor_holds_back_later_ones() {
        // Base+D waits for an empty engine, and nothing behind it may
        // start in the meantime, or it could wait forever.
        let mut dce = setup();
        dce.enqueue(channel_op(0, 0, 4, 4096, 0), DceMode::PimMs, None)
            .unwrap();
        dce.enqueue(channel_op(1, 0, 4, 4096, 1 << 20), DceMode::Coarse, None)
            .unwrap();
        dce.enqueue(channel_op(2, 0, 4, 4096, 2 << 20), DceMode::PimMs, None)
            .unwrap();
        assert_eq!(dce.pending_descriptors(), 2);
        let recs = drive_until_records(&mut dce, 20, 1_000_000, 3, None);
        assert_in_order(&recs);
        assert!(recs[2].started_at > recs[1].completed_at);
        assert_eq!(dce.stats().lane_cycles, 0);
    }

    #[test]
    fn the_address_buffer_bounds_co_resident_entries() {
        // A 16-entry address buffer: 10 + 8 entries do not fit side by
        // side, 8 + 8 do.
        let cfg = DceConfig {
            addr_buffer_bytes: 16 * DceConfig::ADDR_ENTRY_BYTES,
            ..DceConfig::table1()
        };
        for (first, overlap) in [(10, false), (8, true)] {
            let mut dce = Dce::new(cfg, setup().mapper.clone(), setup().space);
            dce.enqueue(channel_op(0, 0, first, 4096, 0), DceMode::PimMs, None)
                .unwrap();
            dce.enqueue(channel_op(1, 0, 8, 4096, 1 << 20), DceMode::PimMs, None)
                .unwrap();
            assert_eq!(dce.pending_descriptors(), usize::from(!overlap));
            let recs = drive_until_records(&mut dce, 20, 1_000_000, 2, None);
            assert_in_order(&recs);
            assert_eq!(dce.stats().lane_cycles > 0, overlap, "{first} entries");
            if !overlap {
                assert_eq!(recs[1].started_at, recs[0].completed_at + 1);
            }
        }
    }

    #[test]
    fn a_continuation_behind_a_skip_ahead_lane_still_fuses() {
        let mut dce = setup();
        // seq 0 runs on channel 0; seq 1 waits behind it.
        dce.enqueue(channel_op(0, 0, 8, 16384, 0), DceMode::PimMs, None)
            .unwrap();
        dce.enqueue(channel_op(0, 8, 8, 4096, 1 << 20), DceMode::PimMs, None)
            .unwrap();
        // seq 2 skips ahead on channel 1, and seq 3 continues it.
        let op = channel_op(1, 0, 8, 8192, 2 << 20);
        let chunks = op.chunks(32 << 10, 4096).unwrap();
        assert_eq!(chunks.len(), 2);
        dce.enqueue(chunks[0].clone(), DceMode::PimMs, None)
            .unwrap();
        dce.enqueue(chunks[1].clone(), DceMode::PimMs, Some(2))
            .unwrap();
        assert_eq!(
            dce.pending_descriptors(),
            2,
            "seq 1 waits, and so does seq 3"
        );
        assert_eq!(dce.occupancy(), 4);
        let t = drive(&mut dce, 20, 1_000_000, 4, None);
        let recs = &t.recs;
        assert_in_order(recs);
        assert_eq!(dce.stats().continuations, 1);
        assert_eq!(dce.stats().continuation_fallbacks, 0);
        // Fused, not merely continued from a held cursor: seq 3 started
        // while seq 2's last lines were still landing.
        let space = dce.space;
        let seq2_landed = t
            .landed
            .iter()
            .filter(|&&(_, a)| {
                chunks[0].entries.iter().any(|&(_, core)| {
                    let base = space.core_phys(core, chunks[0].heap_offset).0;
                    (base..base + chunks[0].size_per_pim).contains(&a)
                })
            })
            .map(|&(c, _)| c)
            .max()
            .expect("seq 2 landed");
        assert!(
            recs[3].started_at < seq2_landed,
            "the continuation fused mid-flight"
        );
        assert_eq!(recs[2].bytes + recs[3].bytes, op.total_bytes());
    }

    #[test]
    fn a_suspend_drains_only_the_oldest_lane_and_its_record_surfaces_in_order() {
        let mut dce = setup();
        let older = channel_op(0, 0, 8, 65536, 0);
        let younger = channel_op(1, 0, 8, 65536, 1 << 22);
        dce.enqueue(older.clone(), DceMode::PimMs, None).unwrap();
        dce.enqueue(younger.clone(), DceMode::PimMs, None).unwrap();
        let t = drive(&mut dce, 10, 1_000_000, 2, Some(40));
        assert_in_order(&t.recs);
        assert!(t.recs[0].resumable, "the oldest lane was suspended");
        assert!(!t.recs[1].resumable, "the younger lane ran to completion");
        assert_eq!(t.recs[1].bytes, younger.total_bytes());
        assert!(t.recs[1].completed_at > t.recs[0].completed_at);
        assert_eq!(dce.stats().suspensions, 1);
        assert!(dce.stats().drain_cycles > 0);
        let st = dce
            .take_suspended(0)
            .expect("the partial record parks its state");
        dce.resume(st).unwrap();
        let fin = drive_until_records(&mut dce, 10, 1_000_000, 1, None);
        assert_eq!(fin[0].seq, 2, "a resume takes the next seq");
        assert_eq!(t.recs[0].bytes + fin[0].bytes, older.total_bytes());
        let lines = (older.total_bytes() + younger.total_bytes()) / 64;
        assert_eq!(dce.stats().lines_done, lines);
        assert_eq!(dce.stats().reads_issued, lines);
    }

    #[test]
    fn a_partial_record_waits_for_nothing_younger() {
        // The suspended lane is the oldest, so its partial record
        // surfaces at once; a younger lane that finished during the
        // drain surfaces right behind it.
        let mut dce = setup();
        dce.enqueue(channel_op(0, 0, 8, 65536, 0), DceMode::PimMs, None)
            .unwrap();
        let small = channel_op(1, 0, 1, 128, 1 << 24);
        dce.enqueue(small, DceMode::PimMs, None).unwrap();
        let recs = drive_until_records(&mut dce, 10, 1_000_000, 2, Some(40));
        assert_in_order(&recs);
        assert!(recs[0].resumable);
        assert_eq!(recs[1].bytes, 128);
        assert_eq!(recs[1].completed_at, recs[0].completed_at);
    }

    #[test]
    fn an_unknown_completion_id_credits_nothing() {
        let mut dce = setup();
        dce.enqueue(
            PimMmuOp::to_pim([(PhysAddr(0), 0)], 128, 0),
            DceMode::PimMs,
            None,
        )
        .unwrap();
        let complete = |dce: &mut Dce, id: u64, kind: AccessKind| {
            dce.on_completion(Completion {
                id,
                kind,
                source: dce.source_id(),
                cycle: 0,
            });
        };
        dce.tick();
        let reads: Vec<u64> = dce.outbox_mut().drain(..).map(|r| r.req.id).collect();
        assert_eq!(reads.len(), 2);
        for id in reads {
            complete(&mut dce, id, AccessKind::Read);
        }
        // Transpose and write issue over the next cycles.
        for _ in 0..4 {
            dce.tick();
        }
        let writes: Vec<u64> = dce.outbox_mut().drain(..).map(|r| r.req.id).collect();
        assert_eq!(writes.len(), 2, "both writes in flight");
        complete(&mut dce, 9_999, AccessKind::Write);
        complete(&mut dce, 9_999, AccessKind::Read);
        assert_eq!(dce.stats().lines_done, 0, "a stray id lands no line");
        for id in writes {
            complete(&mut dce, id, AccessKind::Write);
        }
        assert_eq!(dce.stats().lines_done, 2);
        dce.tick();
        let rec = dce.pop_completion().expect("the descriptor retired");
        assert_eq!(rec.bytes, 128);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random mixes of channels, sizes, directions and continuation
        /// chains: every line moves exactly once, each op's records sum
        /// to its bytes, and records retire strictly in seq order.
        #[test]
        fn random_lane_mixes_move_every_line_once_and_retire_in_order(
            descs in proptest::collection::vec(
                (0u32..4, 1u32..3, 1u32..5, 1u64..9, proptest::prelude::any::<bool>(), 1usize..4),
                1..6,
            ),
            latency in 1u64..40,
        ) {
            let mut dce = setup();
            let space = dce.space;
            let mut ops: Vec<PimMmuOp> = Vec::new();
            // Seq → index of the op it belongs to.
            let mut owner: Vec<usize> = Vec::new();
            for (k, &(ch, n_ch, n, lines, to_pim, n_chunks)) in descs.iter().enumerate() {
                let k32 = u32::try_from(k).unwrap();
                let size = lines * 64;
                let entries = (0..n_ch).flat_map(|c| (0..n).map(move |i| (c, i))).enumerate().map(
                    |(j, (c, i))| {
                        let core = ((ch + c) % 4) * CORES_PER_CHANNEL + k32 * 8 + i;
                        (PhysAddr(((k as u64) << 24) | (j as u64 * size)), core)
                    },
                );
                let kind = if to_pim { XferKind::DramToPim } else { XferKind::PimToDram };
                let op = PimMmuOp::try_new(kind, entries, size, 0).unwrap();
                let per_chunk = op.total_bytes().div_ceil(n_chunks as u64).max(64);
                let chunks = op.chunks(per_chunk, 4096).unwrap();
                let mut pred = None;
                for c in chunks {
                    let seq = owner.len() as u64;
                    dce.enqueue(c, DceMode::PimMs, pred).unwrap();
                    pred = Some(seq);
                    owner.push(ops.len());
                }
                ops.push(op);
            }
            let t = drive(&mut dce, latency, 2_000_000, owner.len(), None);
            proptest::prop_assert_eq!(t.recs.len(), owner.len());
            for (k, r) in t.recs.iter().enumerate() {
                proptest::prop_assert_eq!(r.seq, k as u64);
                proptest::prop_assert!(!r.resumable);
            }
            for w in t.recs.windows(2) {
                proptest::prop_assert!(w[1].completed_at >= w[0].completed_at);
            }
            for (i, op) in ops.iter().enumerate() {
                let credited: u64 = t
                    .recs
                    .iter()
                    .filter(|r| owner[usize::try_from(r.seq).unwrap()] == i)
                    .map(|r| r.bytes)
                    .sum();
                proptest::prop_assert_eq!(credited, op.total_bytes());
            }
            // Every line read once and written once.
            let mut expected_src: Vec<u64> = Vec::new();
            let mut expected_dst: Vec<u64> = Vec::new();
            for op in &ops {
                for &(dram, core) in &op.entries {
                    for l in 0..op.size_per_pim / 64 {
                        let d = dram.0 + l * 64;
                        let p = space.core_phys(core, op.heap_offset).0 + l * 64;
                        let (src, dst) = match op.kind {
                            XferKind::DramToPim => (d, p),
                            XferKind::PimToDram => (p, d),
                        };
                        expected_src.push(src);
                        expected_dst.push(dst);
                    }
                }
            }
            expected_src.sort_unstable();
            expected_dst.sort_unstable();
            let mut reads = t.reads.clone();
            reads.sort_unstable();
            let mut landed: Vec<u64> = t.landed.iter().map(|&(_, a)| a).collect();
            landed.sort_unstable();
            proptest::prop_assert_eq!(reads, expected_src);
            proptest::prop_assert_eq!(landed, expected_dst);
            proptest::prop_assert_eq!(dce.stats().continuation_fallbacks, 0);
            proptest::prop_assert!(dce.idle());
        }
    }
}
