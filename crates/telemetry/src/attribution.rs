//! The span joiner + stage-waterfall engine: folds the flight
//! recorder's raw [`SpanEvent`] stream into per-job *stage durations*
//! that sum exactly to the job's end-to-end latency.
//!
//! Seven stages partition a job's lifetime (see [`Stage`]). The joiner
//! replays the recorder in record order, reassembling each chunk's
//! lifecycle through the same joins the Perfetto exporter uses —
//! `(shard, seq)` → owner from the dispatch-pick, doorbells cover the
//! picks staged since the previous doorbell on that shard, an
//! interrupt covers every retirement surfaced on that shard since the
//! previous interrupt, and the k-th recall of a job pairs with its
//! k-th resume. Per job, the chunk intervals become a delta sweep:
//! between any two adjacent boundary timestamps exactly one stage is
//! charged (the busiest active chunk state wins, device service
//! outranking ring residency outranking host-side staging), so the
//! stage durations *partition* `[arrival, complete]` by construction —
//! conservation to the nanosecond is structural, not a rounding
//! accident.
//!
//! Truncated rings degrade gracefully: a job missing its arrival or
//! completion endpoint, or with any chunk interval left open by a
//! dropped span, is reported as an [`incomplete`](JobWaterfall::complete)
//! record with zeroed stages — counted, never panicking, and never
//! polluting the aggregates.

use std::collections::BTreeMap;

use crate::event::{SpanEvent, SpanKind, NO_JOB, NO_TENANT};
use crate::hist::LogHistogram;
use crate::recorder::FlightRecorder;

/// One of the seven disjoint stages a completed job's end-to-end
/// latency decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// No chunk of the job is anywhere in the pipeline: the job sits in
    /// its tenant's submission queue waiting for the policy to pick it.
    QueueWait = 0,
    /// A chunk is staged on a submission ring but its doorbell has not
    /// rung yet (dispatch-pick → doorbell MMIO).
    Dispatch = 1,
    /// A chunk is published but the engine has not installed it
    /// (doorbell → device-start): driver ring residency.
    Ring = 2,
    /// The engine is actively moving the job's bytes
    /// (device-start → retire/suspend). This includes the wait of a
    /// descriptor that finished on its lane while an older one was
    /// still running: the engine retires in ring order, so the record
    /// sits in its reorder stage until then.
    DeviceService = 3,
    /// A preempted remainder is parked waiting to be re-dispatched
    /// (recall interrupt → resume pick).
    Suspended = 4,
    /// A chunk has retired on the device but its completion interrupt
    /// has not fired (retire/suspend → interrupt): coalescing delay.
    Coalescing = 5,
    /// Everything retired and the final interrupt fired, but the
    /// completion record lands later (driver round-trip / interrupt
    /// service tail).
    Completion = 6,
}

/// Number of stages (the width of every per-job stage vector).
pub const STAGE_COUNT: usize = 7;

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::QueueWait,
        Stage::Dispatch,
        Stage::Ring,
        Stage::DeviceService,
        Stage::Suspended,
        Stage::Coalescing,
        Stage::Completion,
    ];

    /// When several chunks of one job are simultaneously in different
    /// states (deep rings, multi-shard jobs), the segment is charged to
    /// the *most pipeline-advanced* active state — the job is making
    /// device progress even if another chunk is queued behind a
    /// doorbell.
    const PRIORITY: [Stage; 5] = [
        Stage::DeviceService,
        Stage::Ring,
        Stage::Dispatch,
        Stage::Coalescing,
        Stage::Suspended,
    ];

    /// Stable label (report tables, Perfetto args).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::QueueWait => "queue-wait",
            Stage::Dispatch => "dispatch",
            Stage::Ring => "ring",
            Stage::DeviceService => "device-service",
            Stage::Suspended => "suspended",
            Stage::Coalescing => "coalescing",
            Stage::Completion => "completion",
        }
    }
}

/// One job's latency waterfall: where every nanosecond between arrival
/// and completion went.
#[derive(Debug, Clone)]
pub struct JobWaterfall {
    /// Job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: u32,
    /// Shard whose interrupt announced the completion.
    pub shard: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Arrival timestamp, ns.
    pub arrival_ns: f64,
    /// Completion timestamp, ns.
    pub complete_ns: f64,
    /// Nanoseconds attributed to each [`Stage`] (indexed by
    /// `Stage as usize`); all zero when `!complete`.
    pub stages: [f64; STAGE_COUNT],
    /// Chunk dispatches observed (including resumes).
    pub chunks: u32,
    /// Mid-transfer preemptions (recalls) observed.
    pub preemptions: u32,
    /// Whether the ring held every span needed to attribute the job.
    /// `false` means some boundary was dropped (or the run was
    /// truncated): endpoints may be zero and `stages` is all-zero.
    pub complete: bool,
}

impl JobWaterfall {
    /// End-to-end latency (0 for incomplete records).
    pub fn e2e_ns(&self) -> f64 {
        if self.complete {
            self.complete_ns - self.arrival_ns
        } else {
            0.0
        }
    }

    /// The stage holding the largest share of this job's latency.
    pub fn dominant_stage(&self) -> Stage {
        let mut best = Stage::QueueWait;
        for s in Stage::ALL {
            if self.stages[s as usize] > self.stages[best as usize] {
                best = s;
            }
        }
        best
    }
}

/// Tail attribution for one shard: which stage dominates the slowest
/// decile of jobs completing through it.
#[derive(Debug, Clone)]
pub struct TailAttribution {
    /// Completing shard.
    pub shard: u32,
    /// Jobs in the slowest decile (≥ 1 when the shard completed any).
    pub jobs: usize,
    /// e2e latency of the fastest job *in* the decile (the decile's
    /// entry threshold), ns.
    pub threshold_ns: f64,
    /// Mean e2e latency across the decile, ns.
    pub mean_e2e_ns: f64,
    /// The stage with the largest summed share across the decile.
    pub stage: Stage,
    /// That stage's share of the decile's total latency, in `[0, 1]`.
    pub share: f64,
}

/// A chunk's reassembled lifecycle boundaries (all `None` until the
/// matching span arrives).
#[derive(Debug, Clone, Default)]
struct ChunkBuild {
    seq: u64,
    shard: u32,
    pick_ns: f64,
    doorbell_ns: Option<f64>,
    start_ns: Option<f64>,
    stop_ns: Option<f64>,
    interrupt_ns: Option<f64>,
}

#[derive(Debug, Clone, Default)]
struct JobBuild {
    tenant: u32,
    bytes: u64,
    arrival_ns: Option<f64>,
    complete: Option<(f64, u32)>,
    chunks: Vec<ChunkBuild>,
    /// Recall timestamps awaiting their paired resume (FIFO: the k-th
    /// recall of a job pairs with its k-th resume).
    open_recalls: Vec<f64>,
    /// Closed suspended-residency intervals (recall → resume pick).
    suspended: Vec<(f64, f64)>,
    preemptions: u32,
}

impl JobBuild {
    fn joined(&self) -> bool {
        self.arrival_ns.is_some()
            && self.complete.is_some()
            && self.open_recalls.is_empty()
            && !self.chunks.is_empty()
            && self.chunks.iter().all(|c| {
                c.doorbell_ns.is_some()
                    && c.start_ns.is_some()
                    && c.stop_ns.is_some()
                    && c.interrupt_ns.is_some()
            })
    }
}

/// The folded attribution of one recorded run: per-job waterfalls,
/// per-tenant × per-stage streaming histograms, and stage totals.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Per-job waterfalls, sorted by job id (deterministic output
    /// order regardless of join-table iteration).
    pub jobs: Vec<JobWaterfall>,
    /// Jobs whose spans could not be fully joined (dropped or
    /// truncated); also counted inside [`jobs`](Self::jobs) as
    /// `!complete` records when at least their identity survived.
    pub incomplete: u64,
    /// Device-side events whose `(shard, seq)` owner pick was dropped
    /// from the ring — ignored, but counted.
    pub unowned_device_events: u64,
    /// Whether the source ring reported dropped spans (set by
    /// [`from_recorder`](Self::from_recorder)).
    pub degraded: bool,
    /// Per-tenant, per-stage latency histograms over complete jobs.
    per_tenant: Vec<[LogHistogram; STAGE_COUNT]>,
    /// Summed ns per stage over complete jobs.
    totals: [f64; STAGE_COUNT],
}

impl Attribution {
    /// Fold a span stream (in record order) into an attribution.
    pub fn from_events<'a>(events: impl Iterator<Item = &'a SpanEvent>) -> Self {
        let mut owners: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut builds: BTreeMap<u64, JobBuild> = BTreeMap::new();
        // Per shard: (job, chunk index) staged since the last doorbell.
        let mut pending_doorbell: BTreeMap<u32, Vec<(u64, usize)>> = BTreeMap::new();
        // Per shard: (job, chunk index) retired since the last interrupt.
        let mut pending_interrupt: BTreeMap<u32, Vec<(u64, usize)>> = BTreeMap::new();
        let mut unowned = 0u64;

        for ev in events {
            match ev.kind {
                SpanKind::Arrival => {
                    let b = builds.entry(ev.job).or_default();
                    b.tenant = ev.tenant;
                    b.bytes = ev.bytes;
                    b.arrival_ns = Some(ev.t_ns);
                }
                SpanKind::Enqueue => {} // shares the arrival timestamp
                SpanKind::DispatchPick => {
                    if ev.job == NO_JOB {
                        continue;
                    }
                    owners.insert((ev.shard, ev.seq), ev.job);
                    let b = builds.entry(ev.job).or_default();
                    if ev.tenant != NO_TENANT {
                        b.tenant = ev.tenant;
                    }
                    let idx = b.chunks.len();
                    b.chunks.push(ChunkBuild {
                        seq: ev.seq,
                        shard: ev.shard,
                        pick_ns: ev.t_ns,
                        ..ChunkBuild::default()
                    });
                    pending_doorbell
                        .entry(ev.shard)
                        .or_default()
                        .push((ev.job, idx));
                }
                SpanKind::Resume => {
                    // Recorded right after its DispatchPick twin: close
                    // the oldest open recall at the resume-pick time.
                    if let Some(b) = builds.get_mut(&ev.job) {
                        if !b.open_recalls.is_empty() {
                            let recall_ns = b.open_recalls.remove(0);
                            b.suspended.push((recall_ns, ev.t_ns));
                        }
                    }
                }
                SpanKind::Doorbell => {
                    for (job, idx) in pending_doorbell.entry(ev.shard).or_default().drain(..) {
                        if let Some(c) = builds.get_mut(&job).and_then(|b| b.chunks.get_mut(idx)) {
                            c.doorbell_ns = Some(ev.t_ns);
                        }
                    }
                }
                SpanKind::DeviceStart => {
                    match owners
                        .get(&(ev.shard, ev.seq))
                        .and_then(|j| builds.get_mut(j))
                    {
                        Some(b) => {
                            // Route by (shard, seq) to the job's latest
                            // still-open chunk interval.
                            if let Some(c) = b.chunks.iter_mut().rev().find(|c| {
                                c.seq == ev.seq && c.shard == ev.shard && c.start_ns.is_none()
                            }) {
                                c.start_ns = Some(ev.t_ns);
                            }
                        }
                        None => unowned += 1,
                    }
                }
                SpanKind::SuspendRequest => {} // the drain is still device service
                SpanKind::Suspend | SpanKind::Retire => {
                    let owner = owners.get(&(ev.shard, ev.seq)).copied();
                    match owner.and_then(|j| builds.get_mut(&j).map(|b| (j, b))) {
                        Some((job, b)) => {
                            if let Some(idx) = b.chunks.iter().position(|c| {
                                c.seq == ev.seq && c.shard == ev.shard && c.stop_ns.is_none()
                            }) {
                                b.chunks[idx].stop_ns = Some(ev.t_ns);
                                pending_interrupt
                                    .entry(ev.shard)
                                    .or_default()
                                    .push((job, idx));
                            }
                        }
                        None => unowned += 1,
                    }
                }
                SpanKind::Interrupt => {
                    for (job, idx) in pending_interrupt.entry(ev.shard).or_default().drain(..) {
                        if let Some(c) = builds.get_mut(&job).and_then(|b| b.chunks.get_mut(idx)) {
                            c.interrupt_ns = Some(ev.t_ns);
                        }
                    }
                }
                SpanKind::Recall => {
                    if let Some(b) = builds.get_mut(&ev.job) {
                        b.open_recalls.push(ev.t_ns);
                        b.preemptions += 1;
                    }
                }
                SpanKind::Complete => {
                    let b = builds.entry(ev.job).or_default();
                    b.tenant = ev.tenant;
                    if ev.bytes > 0 {
                        b.bytes = ev.bytes;
                    }
                    b.complete = Some((ev.t_ns, ev.shard));
                }
            }
        }

        let mut job_ids: Vec<u64> = builds.keys().copied().collect();
        job_ids.sort_unstable();
        let max_tenant = builds
            .values()
            .filter(|b| b.tenant != NO_TENANT)
            .map(|b| b.tenant as usize + 1)
            .max()
            .unwrap_or(0);
        let mut per_tenant: Vec<[LogHistogram; STAGE_COUNT]> = (0..max_tenant)
            .map(|_| std::array::from_fn(|_| LogHistogram::new()))
            .collect();
        let mut totals = [0.0; STAGE_COUNT];
        let mut jobs = Vec::with_capacity(job_ids.len());
        let mut incomplete = 0u64;

        for id in job_ids {
            let b = &builds[&id];
            if !b.joined() {
                incomplete += 1;
                jobs.push(JobWaterfall {
                    job: id,
                    tenant: b.tenant,
                    shard: b.complete.map(|(_, s)| s).unwrap_or(u32::MAX),
                    bytes: b.bytes,
                    arrival_ns: b.arrival_ns.unwrap_or(0.0),
                    complete_ns: b.complete.map(|(t, _)| t).unwrap_or(0.0),
                    stages: [0.0; STAGE_COUNT],
                    chunks: b.chunks.len() as u32,
                    preemptions: b.preemptions,
                    complete: false,
                });
                continue;
            }
            let (complete_ns, shard) = b.complete.expect("joined");
            let arrival_ns = b.arrival_ns.expect("joined");
            let stages = sweep(b, arrival_ns, complete_ns);
            if b.tenant != NO_TENANT {
                let hists = &mut per_tenant[b.tenant as usize];
                for s in Stage::ALL {
                    hists[s as usize].record(stages[s as usize]);
                }
            }
            for s in 0..STAGE_COUNT {
                totals[s] += stages[s];
            }
            jobs.push(JobWaterfall {
                job: id,
                tenant: b.tenant,
                shard,
                bytes: b.bytes,
                arrival_ns,
                complete_ns,
                stages,
                chunks: b.chunks.len() as u32,
                preemptions: b.preemptions,
                complete: true,
            });
        }

        Attribution {
            jobs,
            incomplete,
            unowned_device_events: unowned,
            degraded: false,
            per_tenant,
            totals,
        }
    }

    /// Fold a flight recorder, carrying its drop accounting into
    /// [`degraded`](Self::degraded).
    pub fn from_recorder(rec: &FlightRecorder) -> Self {
        let mut a = Attribution::from_events(rec.iter());
        a.degraded = rec.dropped() > 0;
        a
    }

    /// Number of tenants seen.
    pub fn tenants(&self) -> usize {
        self.per_tenant.len()
    }

    /// The streaming histogram of `stage` durations for `tenant`
    /// (complete jobs only).
    pub fn stage_hist(&self, tenant: usize, stage: Stage) -> &LogHistogram {
        &self.per_tenant[tenant][stage as usize]
    }

    /// Summed nanoseconds per stage over all complete jobs.
    pub fn totals(&self) -> &[f64; STAGE_COUNT] {
        &self.totals
    }

    /// `stage`'s share of total attributed time, in `[0, 1]`.
    pub fn share(&self, stage: Stage) -> f64 {
        let total: f64 = self.totals.iter().sum();
        if total <= 0.0 {
            0.0
        } else {
            self.totals[stage as usize] / total
        }
    }

    /// The stage holding the most total time (None when nothing was
    /// attributed).
    pub fn dominant_stage(&self) -> Option<Stage> {
        if self.totals.iter().all(|&t| t <= 0.0) {
            return None;
        }
        let mut best = Stage::QueueWait;
        for s in Stage::ALL {
            if self.totals[s as usize] > self.totals[best as usize] {
                best = s;
            }
        }
        Some(best)
    }

    /// Complete jobs folded.
    pub fn complete_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.complete).count()
    }

    /// Which stage dominates the slowest decile of jobs completing
    /// through each shard. Shards are reported in index order; shards
    /// that completed nothing are omitted.
    pub fn tail_attribution(&self) -> Vec<TailAttribution> {
        let mut by_shard: BTreeMap<u32, Vec<&JobWaterfall>> = BTreeMap::new();
        for j in self.jobs.iter().filter(|j| j.complete) {
            by_shard.entry(j.shard).or_default().push(j);
        }
        let mut shards: Vec<u32> = by_shard.keys().copied().collect();
        shards.sort_unstable();
        shards
            .into_iter()
            .map(|s| {
                let mut js = by_shard.remove(&s).expect("keyed above");
                // Slowest first; job id breaks latency ties so the
                // decile membership is deterministic.
                js.sort_by(|a, b| b.e2e_ns().total_cmp(&a.e2e_ns()).then(a.job.cmp(&b.job)));
                let n = js.len().div_ceil(10);
                let decile = &js[..n];
                let mut sums = [0.0; STAGE_COUNT];
                let mut e2e = 0.0;
                for j in decile {
                    e2e += j.e2e_ns();
                    for (sum, ns) in sums.iter_mut().zip(&j.stages) {
                        *sum += ns;
                    }
                }
                let mut best = Stage::QueueWait;
                for st in Stage::ALL {
                    if sums[st as usize] > sums[best as usize] {
                        best = st;
                    }
                }
                TailAttribution {
                    shard: s,
                    jobs: n,
                    threshold_ns: decile.last().map(|j| j.e2e_ns()).unwrap_or(0.0),
                    mean_e2e_ns: if n == 0 { 0.0 } else { e2e / n as f64 },
                    stage: best,
                    share: if e2e <= 0.0 {
                        0.0
                    } else {
                        sums[best as usize] / e2e
                    },
                }
            })
            .collect()
    }
}

/// Delta-sweep a fully joined job: every chunk interval contributes
/// `+1/-1` state deltas, and each segment between adjacent boundary
/// timestamps is charged to the highest-priority active state — so the
/// per-stage durations partition `[arrival, complete]` exactly.
fn sweep(b: &JobBuild, arrival_ns: f64, complete_ns: f64) -> [f64; STAGE_COUNT] {
    // (t, stage, delta)
    let mut deltas: Vec<(f64, Stage, i32)> = Vec::new();
    for c in &b.chunks {
        let (db, st, sp, ir) = (
            c.doorbell_ns.expect("joined"),
            c.start_ns.expect("joined"),
            c.stop_ns.expect("joined"),
            c.interrupt_ns.expect("joined"),
        );
        deltas.push((c.pick_ns, Stage::Dispatch, 1));
        deltas.push((db, Stage::Dispatch, -1));
        deltas.push((db, Stage::Ring, 1));
        deltas.push((st, Stage::Ring, -1));
        deltas.push((st, Stage::DeviceService, 1));
        deltas.push((sp, Stage::DeviceService, -1));
        deltas.push((sp, Stage::Coalescing, 1));
        deltas.push((ir, Stage::Coalescing, -1));
    }
    for &(a, r) in &b.suspended {
        deltas.push((a, Stage::Suspended, 1));
        deltas.push((r, Stage::Suspended, -1));
    }
    // The last chunk-activity timestamp: idle segments after it are the
    // completion tail, idle segments before it are queue wait.
    let last_activity = deltas
        .iter()
        .map(|&(t, _, _)| t)
        .fold(arrival_ns, f64::max)
        .min(complete_ns);
    let mut times: Vec<f64> = deltas
        .iter()
        .map(|&(t, _, _)| t.clamp(arrival_ns, complete_ns))
        .collect();
    times.push(arrival_ns);
    times.push(last_activity);
    times.push(complete_ns);
    times.sort_by(f64::total_cmp);
    times.dedup();

    let mut stages = [0.0; STAGE_COUNT];
    let mut active = [0i32; STAGE_COUNT];
    // Apply deltas grouped by timestamp, then charge each segment.
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut di = 0;
    for w in times.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        while di < deltas.len() && deltas[di].0 <= t0 {
            active[deltas[di].1 as usize] += deltas[di].2;
            di += 1;
        }
        let stage = Stage::PRIORITY
            .iter()
            .copied()
            .find(|&s| active[s as usize] > 0)
            .unwrap_or(if t0 >= last_activity {
                Stage::Completion
            } else {
                Stage::QueueWait
            });
        stages[stage as usize] += t1 - t0;
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SpanEvent, SpanKind};

    fn stream(evs: &[SpanEvent]) -> Attribution {
        Attribution::from_events(evs.iter())
    }

    /// One job, one chunk, every boundary distinct: each stage is the
    /// exact gap between its bounding events.
    fn simple_job() -> Vec<SpanEvent> {
        vec![
            SpanEvent::new(SpanKind::Arrival, 100.0)
                .tenant(0)
                .job(7)
                .bytes(4096),
            SpanEvent::new(SpanKind::Enqueue, 100.0).tenant(0).job(7),
            SpanEvent::new(SpanKind::DispatchPick, 150.0)
                .tenant(0)
                .shard(0)
                .job(7)
                .seq(3)
                .bytes(4096),
            SpanEvent::new(SpanKind::Doorbell, 160.0).shard(0),
            SpanEvent::new(SpanKind::DeviceStart, 170.0)
                .shard(0)
                .seq(3)
                .bytes(4096),
            SpanEvent::new(SpanKind::Retire, 270.0)
                .shard(0)
                .seq(3)
                .bytes(4096),
            SpanEvent::new(SpanKind::Interrupt, 300.0).shard(0),
            SpanEvent::new(SpanKind::Complete, 320.0)
                .tenant(0)
                .shard(0)
                .job(7)
                .bytes(4096),
        ]
    }

    #[test]
    fn single_chunk_waterfall_is_exact() {
        let a = stream(&simple_job());
        assert_eq!(a.jobs.len(), 1);
        let j = &a.jobs[0];
        assert!(j.complete);
        assert_eq!(j.job, 7);
        assert_eq!((j.tenant, j.shard, j.bytes), (0, 0, 4096));
        assert_eq!(j.stages[Stage::QueueWait as usize], 50.0);
        assert_eq!(j.stages[Stage::Dispatch as usize], 10.0);
        assert_eq!(j.stages[Stage::Ring as usize], 10.0);
        assert_eq!(j.stages[Stage::DeviceService as usize], 100.0);
        assert_eq!(j.stages[Stage::Coalescing as usize], 30.0);
        assert_eq!(j.stages[Stage::Completion as usize], 20.0);
        assert_eq!(j.stages[Stage::Suspended as usize], 0.0);
        let sum: f64 = j.stages.iter().sum();
        assert_eq!(sum, j.e2e_ns());
        assert_eq!(j.dominant_stage(), Stage::DeviceService);
        assert_eq!(a.incomplete, 0);
        assert_eq!(a.dominant_stage(), Some(Stage::DeviceService));
        assert!(a.share(Stage::DeviceService) > 0.45);
        assert_eq!(a.stage_hist(0, Stage::DeviceService).count(), 1);
    }

    #[test]
    fn preempted_job_charges_suspension_and_resume() {
        // Chunk dispatched, started, suspended mid-flight, recalled at
        // the interrupt, resumed later, then retired and completed.
        let evs = vec![
            SpanEvent::new(SpanKind::Arrival, 0.0)
                .tenant(1)
                .job(9)
                .bytes(8192),
            SpanEvent::new(SpanKind::Enqueue, 0.0).tenant(1).job(9),
            SpanEvent::new(SpanKind::DispatchPick, 10.0)
                .tenant(1)
                .shard(0)
                .job(9)
                .seq(0)
                .bytes(8192),
            SpanEvent::new(SpanKind::Doorbell, 10.0).shard(0),
            SpanEvent::new(SpanKind::DeviceStart, 12.0).shard(0).seq(0),
            SpanEvent::new(SpanKind::SuspendRequest, 40.0)
                .tenant(1)
                .shard(0)
                .seq(0),
            SpanEvent::new(SpanKind::Suspend, 50.0)
                .shard(0)
                .seq(0)
                .bytes(4096),
            SpanEvent::new(SpanKind::Interrupt, 55.0).shard(0),
            SpanEvent::new(SpanKind::Recall, 55.0)
                .tenant(1)
                .shard(0)
                .job(9)
                .seq(0)
                .bytes(4096),
            // Resume pick 45ns later under a fresh seq.
            SpanEvent::new(SpanKind::DispatchPick, 100.0)
                .tenant(1)
                .shard(0)
                .job(9)
                .seq(1)
                .bytes(4096),
            SpanEvent::new(SpanKind::Resume, 100.0)
                .tenant(1)
                .shard(0)
                .job(9)
                .seq(1)
                .bytes(4096),
            SpanEvent::new(SpanKind::Doorbell, 100.0).shard(0),
            SpanEvent::new(SpanKind::DeviceStart, 104.0).shard(0).seq(1),
            SpanEvent::new(SpanKind::Retire, 140.0)
                .shard(0)
                .seq(1)
                .bytes(4096),
            SpanEvent::new(SpanKind::Interrupt, 150.0).shard(0),
            SpanEvent::new(SpanKind::Complete, 160.0)
                .tenant(1)
                .shard(0)
                .job(9)
                .bytes(8192),
        ];
        let a = stream(&evs);
        let j = &a.jobs[0];
        assert!(j.complete);
        assert_eq!(j.preemptions, 1);
        assert_eq!(j.chunks, 2);
        // Suspended residency: recall 55 → resume pick 100.
        assert_eq!(j.stages[Stage::Suspended as usize], 45.0);
        // Device service: 12→50 plus 104→140.
        assert_eq!(j.stages[Stage::DeviceService as usize], 38.0 + 36.0);
        // Coalescing: 50→55 plus 140→150.
        assert_eq!(j.stages[Stage::Coalescing as usize], 15.0);
        let sum: f64 = j.stages.iter().sum();
        assert!((sum - j.e2e_ns()).abs() < 1e-9, "{sum} vs {}", j.e2e_ns());
    }

    #[test]
    fn overlapping_chunks_charge_the_most_advanced_state() {
        // Two chunks in flight: chunk B rings behind chunk A's device
        // service — the overlap is charged to device service, not ring.
        let evs = vec![
            SpanEvent::new(SpanKind::Arrival, 0.0)
                .tenant(0)
                .job(1)
                .bytes(100),
            SpanEvent::new(SpanKind::Enqueue, 0.0).tenant(0).job(1),
            SpanEvent::new(SpanKind::DispatchPick, 10.0)
                .tenant(0)
                .shard(0)
                .job(1)
                .seq(0)
                .bytes(50),
            SpanEvent::new(SpanKind::DispatchPick, 10.0)
                .tenant(0)
                .shard(0)
                .job(1)
                .seq(1)
                .bytes(50),
            SpanEvent::new(SpanKind::Doorbell, 10.0).shard(0),
            SpanEvent::new(SpanKind::DeviceStart, 20.0).shard(0).seq(0),
            // seq 1 starts only when seq 0 retires.
            SpanEvent::new(SpanKind::Retire, 60.0)
                .shard(0)
                .seq(0)
                .bytes(50),
            SpanEvent::new(SpanKind::DeviceStart, 60.0).shard(0).seq(1),
            SpanEvent::new(SpanKind::Retire, 90.0)
                .shard(0)
                .seq(1)
                .bytes(50),
            SpanEvent::new(SpanKind::Interrupt, 95.0).shard(0),
            SpanEvent::new(SpanKind::Complete, 100.0)
                .tenant(0)
                .shard(0)
                .job(1)
                .bytes(100),
        ];
        let a = stream(&evs);
        let j = &a.jobs[0];
        assert!(j.complete, "incomplete: {:?}", a.incomplete);
        // 10→20 ring (both staged, none running), 20→90 device service
        // (seq 0 then seq 1; seq 0's 60→95 coalescing overlaps but
        // device service outranks it), 90→95 coalescing, 95→100 tail.
        assert_eq!(j.stages[Stage::Ring as usize], 10.0);
        assert_eq!(j.stages[Stage::DeviceService as usize], 70.0);
        assert_eq!(j.stages[Stage::Coalescing as usize], 5.0);
        assert_eq!(j.stages[Stage::Completion as usize], 5.0);
        assert_eq!(j.stages[Stage::QueueWait as usize], 10.0);
        let sum: f64 = j.stages.iter().sum();
        assert_eq!(sum, 100.0);
    }

    #[test]
    fn truncated_ring_degrades_to_incomplete_without_panicking() {
        // Drop the front of the stream (arrival + pick lost): the
        // device events are unowned, the complete-only job is
        // incomplete, and nothing panics.
        let full = simple_job();
        let a = stream(&full[4..]);
        assert_eq!(a.incomplete, 1);
        assert_eq!(a.unowned_device_events, 2, "device-start + retire unowned");
        assert_eq!(a.jobs.len(), 1);
        assert!(!a.jobs[0].complete);
        assert_eq!(a.jobs[0].e2e_ns(), 0.0);
        assert_eq!(a.jobs[0].stages, [0.0; STAGE_COUNT]);
        assert_eq!(a.complete_jobs(), 0);
        assert_eq!(a.dominant_stage(), None);

        // Drop the tail (no complete event): also incomplete.
        let b = stream(&full[..7]);
        assert_eq!(b.incomplete, 1);
        assert!(!b.jobs[0].complete);

        // Every suffix and prefix of the stream joins without panics.
        for k in 0..=full.len() {
            let _ = stream(&full[k..]);
            let _ = stream(&full[..k]);
        }
    }

    #[test]
    fn tail_attribution_finds_the_dominant_stage_per_shard() {
        // Ten jobs on shard 0: nine with negligible queue wait, one
        // queue-bound straggler. Overall the run is device-bound
        // (10 × 200 ns of service vs 990 ns of total waiting), but the
        // slowest decile — exactly the straggler — is queue-bound:
        // tail attribution and whole-run attribution disagree, which
        // is the point of the view.
        let mut evs = Vec::new();
        for i in 0..10u64 {
            let base = 2000.0 * i as f64;
            let wait = if i == 9 { 900.0 } else { 10.0 };
            evs.extend([
                SpanEvent::new(SpanKind::Arrival, base)
                    .tenant(0)
                    .job(i)
                    .bytes(64),
                SpanEvent::new(SpanKind::Enqueue, base).tenant(0).job(i),
                SpanEvent::new(SpanKind::DispatchPick, base + wait)
                    .tenant(0)
                    .shard(0)
                    .job(i)
                    .seq(i)
                    .bytes(64),
                SpanEvent::new(SpanKind::Doorbell, base + wait).shard(0),
                SpanEvent::new(SpanKind::DeviceStart, base + wait + 1.0)
                    .shard(0)
                    .seq(i),
                SpanEvent::new(SpanKind::Retire, base + wait + 201.0)
                    .shard(0)
                    .seq(i)
                    .bytes(64),
                SpanEvent::new(SpanKind::Interrupt, base + wait + 202.0).shard(0),
                SpanEvent::new(SpanKind::Complete, base + wait + 203.0)
                    .tenant(0)
                    .shard(0)
                    .job(i)
                    .bytes(64),
            ]);
        }
        let a = stream(&evs);
        assert_eq!(a.complete_jobs(), 10);
        let tails = a.tail_attribution();
        assert_eq!(tails.len(), 1);
        let t = &tails[0];
        assert_eq!(t.shard, 0);
        assert_eq!(t.jobs, 1);
        assert_eq!(t.stage, Stage::QueueWait);
        assert!(t.share > 0.8, "queue wait should dominate: {}", t.share);
        assert_eq!(t.mean_e2e_ns, 1103.0);
        assert_eq!(t.threshold_ns, 1103.0);
        // Whole-run view: device service dominates.
        assert_eq!(a.dominant_stage(), Some(Stage::DeviceService));
    }

    /// The join tables are `BTreeMap`s precisely so no output ordering
    /// can depend on hash-iteration order: jobs fold out sorted by id
    /// and tail attribution reports shards in ascending index order,
    /// regardless of the order ids and shards appear in the stream.
    #[test]
    fn output_order_is_independent_of_insertion_order() {
        // Jobs land in scrambled id order, completing on shards 3,1,2.
        let mut evs = Vec::new();
        for (k, (id, shard)) in [(9u64, 3usize), (2, 1), (5, 2), (7, 1)]
            .into_iter()
            .enumerate()
        {
            let base = 1000.0 * k as f64;
            evs.extend([
                SpanEvent::new(SpanKind::Arrival, base)
                    .tenant(0)
                    .job(id)
                    .bytes(64),
                SpanEvent::new(SpanKind::Enqueue, base).tenant(0).job(id),
                SpanEvent::new(SpanKind::DispatchPick, base + 10.0)
                    .tenant(0)
                    .shard(shard)
                    .job(id)
                    .seq(id)
                    .bytes(64),
                SpanEvent::new(SpanKind::Doorbell, base + 10.0).shard(shard),
                SpanEvent::new(SpanKind::DeviceStart, base + 12.0)
                    .shard(shard)
                    .seq(id),
                SpanEvent::new(SpanKind::Retire, base + 50.0)
                    .shard(shard)
                    .seq(id)
                    .bytes(64),
                SpanEvent::new(SpanKind::Interrupt, base + 55.0).shard(shard),
                SpanEvent::new(SpanKind::Complete, base + 60.0)
                    .tenant(0)
                    .shard(shard)
                    .job(id)
                    .bytes(64),
            ]);
        }
        let a = stream(&evs);
        let ids: Vec<u64> = a.jobs.iter().map(|j| j.job).collect();
        assert_eq!(ids, vec![2, 5, 7, 9], "jobs sorted by id, not stream order");
        let shards: Vec<u32> = a.tail_attribution().iter().map(|t| t.shard).collect();
        assert_eq!(
            shards,
            vec![1, 2, 3],
            "shards in index order, not completion order"
        );
        // Folding the identical stream twice is structurally identical.
        let b = stream(&evs);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.job, y.job);
            assert_eq!(x.stages, y.stages);
        }
    }

    #[test]
    fn stage_names_and_order() {
        assert_eq!(Stage::ALL.len(), STAGE_COUNT);
        for w in Stage::ALL.windows(2) {
            assert!((w[0] as usize) < (w[1] as usize));
        }
        assert_eq!(Stage::QueueWait.name(), "queue-wait");
        assert_eq!(Stage::Completion.name(), "completion");
    }
}
