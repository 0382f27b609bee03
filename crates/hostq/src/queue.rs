//! The queue pair: a bounded submission ring published by batched
//! doorbell writes, and a completion ring drained under interrupt
//! coalescing.

use crate::coalesce::{FireCause, InterruptCoalescer};
use crate::config::HostQueueConfig;
use pim_mmu::DriverModel;
use pim_telemetry::{CounterSet, Counters};
use std::collections::VecDeque;

/// Who a posted descriptor belongs to (opaque to the ring; the runtime
/// routes completions with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescriptorTag {
    /// Owning tenant index.
    pub tenant: usize,
    /// Owning job id.
    pub job: u64,
}

/// One submission-ring entry as written by the host.
#[derive(Debug, Clone, Copy)]
pub struct Descriptor {
    /// Ownership routing tag.
    pub tag: DescriptorTag,
    /// Per-core entries the descriptor names (drives the per-entry MMIO
    /// cost and the analytic driver round trip).
    pub entries: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Ring sequence number of the descriptor whose channel sweep this
    /// one *continues* (`None` for an ordinary descriptor). Declaring
    /// the predecessor lets the device hand the sweep cursor straight
    /// to this chunk at install time — no host round trip — and lets
    /// the host price the doorbell as a context reload instead of a
    /// full address-buffer publish.
    pub predecessor: Option<u64>,
}

impl Descriptor {
    /// An ordinary descriptor: no predecessor.
    pub fn new(tag: DescriptorTag, entries: usize, bytes: u64) -> Self {
        Descriptor {
            tag,
            entries,
            bytes,
            predecessor: None,
        }
    }

    /// Declare this descriptor a continuation of ring sequence `seq`.
    #[must_use]
    pub fn continuation_of(mut self, seq: u64) -> Self {
        self.predecessor = Some(seq);
        self
    }
}

/// A descriptor after its doorbell rang: in flight device-side.
#[derive(Debug, Clone, Copy)]
pub struct Posted {
    /// The descriptor as written.
    pub desc: Descriptor,
    /// Ring sequence number (post order; the device retires FIFO).
    pub seq: u64,
    /// Time the doorbell published it, ns.
    pub posted_ns: f64,
    /// Engine cycle at the doorbell edge (basis of the analytic
    /// device-residency latency, exactly like the synchronous
    /// harness's submit cycle).
    pub posted_cycle: u64,
}

/// A completion-ring entry, visible to the host once its interrupt is
/// fielded.
#[derive(Debug, Clone, Copy)]
pub struct RingCompletion {
    /// The posted descriptor this completes.
    pub posted: Posted,
    /// Engine cycle the descriptor started executing.
    pub started_cycle: u64,
    /// Engine cycle it finished (for a recall, quiesced).
    pub done_cycle: u64,
    /// Completion time on the simulation timeline, ns (drives the
    /// coalescing timer).
    pub done_ns: f64,
    /// Bytes the device actually moved for this descriptor — equal to
    /// `posted.desc.bytes` for a full retirement, less for a recall
    /// ([`resumable`](Self::resumable)): the engine suspended the
    /// descriptor mid-transfer and handed its remainder back to the
    /// host.
    pub bytes_moved: u64,
    /// `true` when this entry is a partial retirement (an engine-side
    /// suspension recalled the descriptor's remainder); the host
    /// re-submits the rest as a resumed transfer.
    pub resumable: bool,
    /// `true` when the descriptor retired straight into a posted
    /// chained successor: the device handed the sweep cursor over with
    /// no host round trip, so this completion raises no interrupt — the
    /// ring poller reaps it ([`QueuePair::reap_chained`]) at the next
    /// poll edge.
    pub chained: bool,
}

/// Ring errors surfaced to the poster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostQError {
    /// Every slot is taken by a posted-but-undrained descriptor.
    RingFull,
}

impl std::fmt::Display for HostQError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostQError::RingFull => f.write_str("submission ring is full"),
        }
    }
}

impl std::error::Error for HostQError {}

/// Host-interface counters for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostQueueStats {
    /// Descriptors published by doorbells.
    pub posted: u64,
    /// Doorbell MMIO writes (each may publish a batch).
    pub doorbells: u64,
    /// Descriptors completed device-side.
    pub completed: u64,
    /// Completion interrupts fielded by the host.
    pub interrupts: u64,
    /// Interrupts fired because the coalesce count was reached.
    pub fired_on_count: u64,
    /// Interrupts fired because the aggregation timer expired.
    pub fired_on_timer: u64,
    /// Descriptors recalled by an engine-side suspension (partial
    /// retirements; their remainders re-enter the host queues).
    pub recalled: u64,
    /// Completions that never woke the host: the chained successor was
    /// already posted, so the device handed the sweep cursor over and
    /// the completion rode the chain tail's interrupt.
    pub chain_silent: u64,
    /// Largest device-side in-flight depth observed at a doorbell.
    pub max_in_flight: usize,
    /// Sum of in-flight depths sampled at each doorbell (mean =
    /// `inflight_sum / doorbells`).
    pub inflight_sum: u64,
    /// Host poll edges taken (the ring poller's clock).
    pub polls: u64,
}

impl Counters for HostQueueStats {
    fn counters(&self, prefix: &str, out: &mut CounterSet) {
        out.push(prefix, "posted", self.posted as f64);
        out.push(prefix, "doorbells", self.doorbells as f64);
        out.push(prefix, "completed", self.completed as f64);
        out.push(prefix, "interrupts", self.interrupts as f64);
        out.push(prefix, "fired_on_count", self.fired_on_count as f64);
        out.push(prefix, "fired_on_timer", self.fired_on_timer as f64);
        out.push(prefix, "recalled", self.recalled as f64);
        out.push(prefix, "chain_silent", self.chain_silent as f64);
        out.push(prefix, "max_in_flight", self.max_in_flight as f64);
        out.push(prefix, "inflight_sum", self.inflight_sum as f64);
        out.push(prefix, "polls", self.polls as f64);
    }
}

impl HostQueueStats {
    /// Field-wise accumulate `other` into `self` (aggregating the rings
    /// of a sharded [`QueuePairSet`](crate::QueuePairSet);
    /// `max_in_flight` takes the max, everything else sums — so the
    /// aggregate `mean_in_flight` is the doorbell-weighted mean across
    /// shards).
    pub fn merge(&mut self, other: &HostQueueStats) {
        self.posted += other.posted;
        self.doorbells += other.doorbells;
        self.completed += other.completed;
        self.interrupts += other.interrupts;
        self.fired_on_count += other.fired_on_count;
        self.fired_on_timer += other.fired_on_timer;
        self.recalled += other.recalled;
        self.chain_silent += other.chain_silent;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
        self.inflight_sum += other.inflight_sum;
        self.polls += other.polls;
    }

    /// Mean device-side in-flight depth observed at doorbell rings.
    pub fn mean_in_flight(&self) -> f64 {
        if self.doorbells == 0 {
            0.0
        } else {
            self.inflight_sum as f64 / self.doorbells as f64
        }
    }

    /// Completion interrupts per completed descriptor (1.0 without
    /// coalescing, below 1.0 with).
    pub fn interrupts_per_completion(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.interrupts as f64 / self.completed as f64
        }
    }
}

/// An NVMe-style paired submission/completion ring between the host and
/// the DCE.
///
/// Lifecycle of a descriptor: [`stage`](Self::stage) writes it into the
/// ring (counted against [`depth`](HostQueueConfig::depth) immediately),
/// [`ring_doorbell`](Self::ring_doorbell) publishes every staged entry
/// with one MMIO write, [`on_device_completion`](Self::on_device_completion)
/// moves it to the completion ring when the engine retires it, and
/// [`field_interrupt`](Self::field_interrupt) hands the host the whole
/// completed batch once the [`InterruptCoalescer`] fires. The slot is
/// free again only after its completion is fielded — so `depth` bounds
/// posted-plus-uncollected descriptors, which is what makes depth 1
/// exactly the synchronous one-in-flight handshake.
#[derive(Debug)]
pub struct QueuePair {
    cfg: HostQueueConfig,
    staged: Vec<Posted>,
    sq: VecDeque<Posted>,
    cq: VecDeque<RingCompletion>,
    coalescer: InterruptCoalescer,
    next_seq: u64,
    stats: HostQueueStats,
}

impl QueuePair {
    /// An empty queue pair.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see
    /// [`HostQueueConfig::validate`]).
    pub fn new(cfg: HostQueueConfig) -> Self {
        cfg.validate();
        QueuePair {
            coalescer: InterruptCoalescer::new(cfg.coalesce_count, cfg.coalesce_timeout_ns),
            cfg,
            staged: Vec::new(),
            sq: VecDeque::new(),
            cq: VecDeque::new(),
            next_seq: 0,
            stats: HostQueueStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HostQueueConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> &HostQueueStats {
        &self.stats
    }

    /// Slots occupied: staged + in flight + completed-but-unfielded.
    pub fn occupancy(&self) -> usize {
        self.staged.len() + self.sq.len() + self.cq.len()
    }

    /// Slots still available for [`stage`](Self::stage).
    pub fn free_slots(&self) -> usize {
        self.cfg.depth - self.occupancy()
    }

    /// Descriptors in flight device-side (published, not yet retired).
    pub fn in_flight(&self) -> usize {
        self.sq.len()
    }

    /// Payload bytes in flight device-side (sum over
    /// [`in_flight`](Self::in_flight) descriptors).
    pub fn in_flight_bytes(&self) -> u64 {
        self.sq.iter().map(|p| p.desc.bytes).sum()
    }

    /// Whether no descriptor is staged, in flight, or awaiting its
    /// interrupt.
    pub fn is_idle(&self) -> bool {
        self.occupancy() == 0
    }

    /// Write a descriptor into the submission ring at the current edge
    /// (`now_ns`, engine cycle `cycle`); it is published by the next
    /// [`ring_doorbell`](Self::ring_doorbell). Returns its ring sequence
    /// number.
    ///
    /// # Errors
    ///
    /// [`HostQError::RingFull`] when every slot is occupied.
    pub fn stage(&mut self, desc: Descriptor, now_ns: f64, cycle: u64) -> Result<u64, HostQError> {
        if self.free_slots() == 0 {
            return Err(HostQError::RingFull);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.staged.push(Posted {
            desc,
            seq,
            posted_ns: now_ns,
            posted_cycle: cycle,
        });
        Ok(seq)
    }

    /// Publish every staged descriptor with one MMIO doorbell write;
    /// returns the driver-side cost of the write (`None` when nothing is
    /// staged). The fixed MMIO cost is paid once for the whole batch —
    /// unless *every* staged descriptor continues a predecessor, in
    /// which case there are no address buffers to marshal and the ring
    /// costs only the packed context words
    /// ([`DriverModel::continuation_doorbell_ns`]).
    pub fn ring_doorbell(&mut self, driver: &DriverModel) -> Option<f64> {
        if self.staged.is_empty() {
            return None;
        }
        let total_entries: usize = self.staged.iter().map(|p| p.desc.entries).sum();
        let all_continuations = self.staged.iter().all(|p| p.desc.predecessor.is_some());
        self.stats.posted += self.staged.len() as u64;
        self.stats.doorbells += 1;
        self.sq.extend(self.staged.drain(..));
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.sq.len());
        self.stats.inflight_sum += self.sq.len() as u64;
        Some(if all_continuations {
            driver.continuation_doorbell_ns(total_entries)
        } else {
            driver.doorbell_ns(total_entries)
        })
    }

    /// The device retired the ring's oldest descriptor at engine cycle
    /// `done_cycle` (= `done_ns` on the simulation timeline), having
    /// started it at `started_cycle` and moved `bytes_moved` payload
    /// bytes. `resumable` marks a *partial* retirement (recall): the
    /// engine suspended the descriptor mid-transfer, so `bytes_moved`
    /// is below the posted byte count and the host owns the remainder.
    /// Either way the slot follows the normal completion path — it
    /// frees when the batch's interrupt is fielded.
    ///
    /// A full retirement whose *chained successor* is already posted is
    /// chain-silent: the device hands the sweep cursor straight to the
    /// successor with no host round trip, so this completion does not
    /// arm the coalescer — it is announced by the chain tail's
    /// interrupt. Recalls always wake the host; it owns the remainder.
    ///
    /// # Panics
    ///
    /// Panics if nothing is in flight or `seq` is not the oldest posted
    /// descriptor — the engine is a FIFO, so out-of-order retirement is
    /// a modeling bug. Also panics if `bytes_moved` exceeds the posted
    /// descriptor's bytes, or if a full retirement moved fewer.
    pub fn on_device_completion(
        &mut self,
        seq: u64,
        started_cycle: u64,
        done_cycle: u64,
        done_ns: f64,
        bytes_moved: u64,
        resumable: bool,
    ) {
        let posted = self
            .sq
            .pop_front()
            .expect("completion arrived with nothing in flight");
        assert_eq!(posted.seq, seq, "the engine retires descriptors in order");
        assert!(
            bytes_moved <= posted.desc.bytes,
            "descriptor moved more bytes than it named"
        );
        assert!(
            resumable || bytes_moved == posted.desc.bytes,
            "a full retirement moves every posted byte"
        );
        let chained = !resumable && self.sq.iter().any(|p| p.desc.predecessor == Some(seq));
        self.cq.push_back(RingCompletion {
            posted,
            started_cycle,
            done_cycle,
            done_ns,
            bytes_moved,
            resumable,
            chained,
        });
        if chained {
            // The engine retires in order, so the last completion of
            // any busy stretch has no posted successor and always arms
            // the coalescer — silent entries can never strand the ring.
            self.stats.chain_silent += 1;
        } else {
            self.coalescer.on_completion(done_ns);
        }
        self.stats.completed += 1;
        if resumable {
            self.stats.recalled += 1;
        }
    }

    /// The sequence number the *next* [`stage`](Self::stage) will
    /// assign. A dispatcher staging a continuation checks that its
    /// predecessor's seq is exactly one behind — any interleaved
    /// descriptor would invalidate the held cursor device-side, so the
    /// continuation claim would only waste a fallback.
    pub fn peek_seq(&self) -> u64 {
        self.next_seq
    }

    /// The oldest posted-and-unretired descriptor — the one the engine
    /// is executing (or about to). A preemption layer reads its tag to
    /// decide whether the in-service work should be kicked.
    pub fn oldest_in_flight(&self) -> Option<&Posted> {
        self.sq.front()
    }

    /// The posted-and-unretired descriptors *behind* the oldest, in
    /// ring order: work already accepted device-side that the engine
    /// will only reach after the active descriptor. A deep-ring
    /// preemption layer treats an urgent descriptor stuck here like a
    /// waiting queue head — the engine is a FIFO, so only kicking the
    /// active descriptor lets it through.
    pub fn posted_behind_oldest(&self) -> impl Iterator<Item = &Posted> {
        self.sq.iter().skip(1)
    }

    /// Whether the coalescer would deliver an interrupt at `now_ns`.
    pub fn interrupt_due(&self, now_ns: f64) -> bool {
        self.coalescer.due(now_ns)
    }

    /// Reap the chain-silent prefix of the completion ring without an
    /// interrupt: a completion that handed its sweep cursor to a posted
    /// successor raised no wake-up, so the ring poller collects it (and
    /// frees its slot) at the next poll edge for free. Stops at the
    /// first completion that armed the coalescer, so interrupt batches
    /// stay in retirement order behind it. Returns an empty vector on
    /// the ordinary (no-continuation) path.
    pub fn reap_chained(&mut self) -> Vec<RingCompletion> {
        let n = self.cq.iter().take_while(|c| c.chained).count();
        self.cq.drain(..n).collect()
    }

    /// Field the pending interrupt: drain the completion ring (freeing
    /// its slots) and return the completed batch in retirement order.
    /// The batch may hold more entries than the coalescer announced —
    /// chain-silent completions ride along without having armed it.
    ///
    /// # Panics
    ///
    /// Panics if no interrupt is pending (guard with
    /// [`interrupt_due`](Self::interrupt_due)).
    pub fn field_interrupt(&mut self, now_ns: f64) -> Vec<RingCompletion> {
        let (n, cause) = self.coalescer.fire(now_ns);
        debug_assert!(n as usize <= self.cq.len());
        self.stats.interrupts += 1;
        match cause {
            FireCause::Count => self.stats.fired_on_count += 1,
            FireCause::Timer => self.stats.fired_on_timer += 1,
        }
        self.cq.drain(..).collect()
    }

    /// One edge of the host-side ring poller's clock domain (the
    /// `Tickable` adapter in `pim_sim::components` calls this).
    pub fn tick_poll(&mut self) {
        self.stats.polls += 1;
    }

    /// Account `n` poll edges at once — equivalent to `n` calls to
    /// [`tick_poll`](Self::tick_poll), used when the scheduler skips a
    /// stretch of poll edges while the ring is idle.
    pub fn skip_polls(&mut self, n: u64) {
        self.stats.polls += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(bytes: u64) -> Descriptor {
        Descriptor::new(DescriptorTag { tenant: 0, job: 0 }, 4, bytes)
    }

    #[test]
    fn continuation_metadata_rides_the_ring() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(4));
        assert_eq!(qp.peek_seq(), 0);
        qp.stage(desc(64), 0.0, 0).unwrap();
        assert_eq!(qp.peek_seq(), 1);
        let seq = qp.stage(desc(64).continuation_of(0), 0.0, 0).unwrap();
        assert_eq!(seq, 1);
        qp.ring_doorbell(&DriverModel::default());
        qp.on_device_completion(0, 0, 10, 3.125, 64, false);
        qp.on_device_completion(1, 11, 20, 6.25, 64, false);
        let batch = qp.field_interrupt(6.25);
        assert_eq!(batch[0].posted.desc.predecessor, None);
        assert_eq!(batch[1].posted.desc.predecessor, Some(0));
    }

    #[test]
    fn chained_completions_ride_the_tail_interrupt() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(4));
        qp.stage(desc(64), 0.0, 0).unwrap();
        qp.stage(desc(64).continuation_of(0), 0.0, 0).unwrap();
        qp.stage(desc(64).continuation_of(1), 0.0, 0).unwrap();
        qp.ring_doorbell(&DriverModel::default());
        // Seq 0 and 1 complete with their successors still posted: the
        // device hands the cursor over without waking the host.
        qp.on_device_completion(0, 0, 10, 3.125, 64, false);
        assert!(!qp.interrupt_due(3.125), "chained into posted seq 1");
        qp.on_device_completion(1, 11, 20, 6.25, 64, false);
        assert!(!qp.interrupt_due(6.25), "chained into posted seq 2");
        // Seq 2 is the chain tail — nothing posted behind it — so its
        // interrupt announces the whole chain.
        qp.on_device_completion(2, 21, 30, 9.375, 64, false);
        assert!(qp.interrupt_due(9.375));
        let batch = qp.field_interrupt(9.375);
        assert_eq!(
            batch.iter().map(|c| c.posted.seq).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(qp.stats().interrupts, 1);
        assert_eq!(qp.stats().chain_silent, 2);
        assert_eq!(qp.free_slots(), 4, "the tail interrupt freed every slot");
    }

    #[test]
    fn the_poller_reaps_silent_completions_between_interrupts() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(3));
        qp.stage(desc(64), 0.0, 0).unwrap();
        qp.stage(desc(64).continuation_of(0), 0.0, 0).unwrap();
        qp.stage(desc(64).continuation_of(1), 0.0, 0).unwrap();
        qp.ring_doorbell(&DriverModel::default());
        assert!(qp.reap_chained().is_empty(), "nothing completed yet");
        qp.on_device_completion(0, 0, 10, 3.125, 64, false);
        // The poller collects the silent completion at the next edge:
        // its slot frees with no interrupt, keeping the ring fed.
        let reaped = qp.reap_chained();
        assert_eq!(reaped.len(), 1);
        assert!(reaped[0].chained);
        assert_eq!(qp.free_slots(), 1);
        assert_eq!(qp.stats().interrupts, 0);
        // The chain tail still arrives by interrupt.
        qp.on_device_completion(1, 11, 20, 6.25, 64, false);
        qp.on_device_completion(2, 21, 30, 9.375, 64, false);
        assert!(qp.interrupt_due(9.375));
        let batch = qp.field_interrupt(9.375);
        assert_eq!(batch.len(), 2, "one silent rider plus the tail");
        assert!(!batch[1].chained);
        assert_eq!(qp.free_slots(), 3);
    }

    #[test]
    fn a_recall_always_wakes_the_host_even_mid_chain() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(4));
        qp.stage(desc(4096), 0.0, 0).unwrap();
        qp.stage(desc(4096).continuation_of(0), 0.0, 0).unwrap();
        qp.ring_doorbell(&DriverModel::default());
        // The engine recalls seq 0 mid-transfer; even with the chained
        // successor posted, the host owns the remainder and must wake.
        qp.on_device_completion(0, 0, 50, 15.6, 1024, true);
        assert!(qp.interrupt_due(15.6));
        assert_eq!(qp.stats().chain_silent, 0);
        let batch = qp.field_interrupt(16.0);
        assert_eq!(batch.len(), 1);
        assert!(batch[0].resumable);
    }

    #[test]
    fn all_continuation_batches_ring_without_the_fixed_cost() {
        let driver = DriverModel::default();
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(4));
        // A batch made purely of chained descriptors publishes only
        // packed context words — no fixed marshalling share.
        qp.stage(desc(64).continuation_of(0), 0.0, 0).unwrap();
        qp.stage(desc(64).continuation_of(1), 0.0, 0).unwrap();
        let cost = qp.ring_doorbell(&driver).unwrap();
        assert_eq!(cost, driver.continuation_doorbell_ns(8));
        assert!(cost < driver.doorbell_ns(8));
        // One ordinary descriptor in the batch restores full pricing.
        qp.stage(desc(64).continuation_of(2), 1.0, 10).unwrap();
        qp.stage(desc(64), 1.0, 10).unwrap();
        assert_eq!(qp.ring_doorbell(&driver).unwrap(), driver.doorbell_ns(8));
    }

    #[test]
    fn depth_bounds_posted_plus_unfielded() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(2));
        assert_eq!(qp.free_slots(), 2);
        qp.stage(desc(64), 0.0, 0).unwrap();
        qp.stage(desc(64), 0.0, 0).unwrap();
        assert_eq!(qp.stage(desc(64), 0.0, 0), Err(HostQError::RingFull));
        let cost = qp.ring_doorbell(&DriverModel::default()).unwrap();
        assert_eq!(cost, DriverModel::default().doorbell_ns(8));
        // Still full: the device has both and nothing was fielded.
        assert_eq!(qp.stage(desc(64), 1.0, 3), Err(HostQError::RingFull));
        qp.on_device_completion(0, 0, 100, 31.25, 64, false);
        // Completed-but-unfielded still holds the slot.
        assert_eq!(qp.stage(desc(64), 1.0, 3), Err(HostQError::RingFull));
        assert!(qp.interrupt_due(31.25));
        let batch = qp.field_interrupt(32.0);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].posted.seq, 0);
        assert_eq!(qp.free_slots(), 1);
        qp.stage(desc(64), 2.0, 7).unwrap();
    }

    #[test]
    fn doorbell_publishes_batches_and_tracks_depth() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(4));
        for _ in 0..3 {
            qp.stage(desc(128), 5.0, 16).unwrap();
        }
        assert!(qp.ring_doorbell(&DriverModel::default()).is_some());
        assert!(qp.ring_doorbell(&DriverModel::default()).is_none());
        assert_eq!(qp.stats().doorbells, 1);
        assert_eq!(qp.stats().posted, 3);
        assert_eq!(qp.in_flight(), 3);
        assert_eq!(qp.stats().max_in_flight, 3);
        assert_eq!(qp.stats().mean_in_flight(), 3.0);
    }

    #[test]
    fn recalls_surface_as_partial_retirements() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(2));
        qp.stage(desc(4096), 0.0, 0).unwrap();
        qp.ring_doorbell(&DriverModel::default());
        assert_eq!(qp.oldest_in_flight().unwrap().desc.bytes, 4096);
        // The engine suspends the descriptor after 1 KiB: a recall.
        qp.on_device_completion(0, 0, 50, 15.6, 1024, true);
        assert!(qp.interrupt_due(15.6));
        let batch = qp.field_interrupt(16.0);
        assert_eq!(batch.len(), 1);
        assert!(batch[0].resumable);
        assert_eq!(batch[0].bytes_moved, 1024);
        assert_eq!(batch[0].posted.desc.bytes, 4096, "posted bytes unchanged");
        assert_eq!(qp.stats().recalled, 1);
        assert_eq!(qp.stats().completed, 1);
        // The slot is free again — the remainder can be re-posted.
        assert_eq!(qp.free_slots(), 2);
    }

    #[test]
    #[should_panic(expected = "every posted byte")]
    fn full_retirements_must_move_every_byte() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(1));
        qp.stage(desc(4096), 0.0, 0).unwrap();
        qp.ring_doorbell(&DriverModel::default());
        qp.on_device_completion(0, 0, 50, 15.6, 1024, false);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_retirement_is_a_bug() {
        let mut qp = QueuePair::new(HostQueueConfig::with_depth(2));
        qp.stage(desc(64), 0.0, 0).unwrap();
        qp.stage(desc(64), 0.0, 0).unwrap();
        qp.ring_doorbell(&DriverModel::default());
        qp.on_device_completion(1, 0, 10, 3.125, 64, false);
    }

    #[test]
    fn coalesced_batch_is_fielded_once() {
        let mut qp = QueuePair::new(HostQueueConfig {
            depth: 4,
            coalesce_count: 3,
            coalesce_timeout_ns: 1e6,
            poll_period_ps: 312,
        });
        for _ in 0..3 {
            qp.stage(desc(64), 0.0, 0).unwrap();
        }
        qp.ring_doorbell(&DriverModel::default());
        qp.on_device_completion(0, 0, 10, 3.125, 64, false);
        qp.on_device_completion(1, 11, 20, 6.25, 64, false);
        assert!(!qp.interrupt_due(7.0), "2 of 3 with a long timer");
        qp.on_device_completion(2, 21, 30, 9.375, 64, false);
        assert!(qp.interrupt_due(9.375));
        let batch = qp.field_interrupt(9.375);
        assert_eq!(
            batch.iter().map(|c| c.posted.seq).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(qp.stats().interrupts, 1);
        assert_eq!(qp.stats().fired_on_count, 1);
        assert!((qp.stats().interrupts_per_completion() - 1.0 / 3.0).abs() < 1e-12);
        assert!(qp.is_idle());
    }
}
