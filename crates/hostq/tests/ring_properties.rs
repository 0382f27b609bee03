//! Queue-pair invariants under randomized host/device schedules:
//! the ring never holds more than its depth, every posted descriptor's
//! completion is fielded exactly once regardless of coalescing
//! parameters, and a seeded schedule replays bit-for-bit.

use pim_hostq::{Descriptor, DescriptorTag, HostQError, HostQueueConfig, QueuePair};
use pim_mmu::DriverModel;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Drive a queue pair through a deterministic schedule derived from the
/// proptest inputs: each step either stages+publishes a descriptor,
/// retires the oldest in-flight one, or advances time (letting the
/// coalescing timer expire); the host fields interrupts whenever they
/// are due. Returns an event log for replay comparison plus the fielded
/// sequence numbers.
fn drive(cfg: HostQueueConfig, steps: &[u8], entries: &[usize]) -> (Vec<String>, Vec<u64>, usize) {
    let run = run(cfg, steps, entries, false);
    assert!(run.reaped.is_empty(), "no continuation, nothing to reap");
    (run.log, run.fielded, run.max_occupancy)
}

/// What one driven schedule produced.
#[derive(Default)]
struct Run {
    log: Vec<String>,
    /// Sequence numbers handed over by interrupts, in fielding order.
    fielded: Vec<u64>,
    /// Sequence numbers the poller reaped without an interrupt.
    reaped: Vec<u64>,
    /// Recalled (partially retired) sequence numbers.
    recalled: Vec<u64>,
    max_occupancy: usize,
    /// Completions that armed the coalescer and are not yet fielded.
    armed_pending: usize,
}

impl Run {
    /// One host poll edge: with `chain` on, reap the silent completions
    /// and check that none is left behind; then field a due interrupt.
    fn collect(&mut self, qp: &mut QueuePair, now_ns: f64, chain: bool) {
        if chain {
            for c in qp.reap_chained() {
                assert!(c.chained && !c.resumable, "only silent completions reap");
                self.reaped.push(c.posted.seq);
                self.log.push(format!("reap seq {}", c.posted.seq));
            }
            assert_eq!(
                qp.occupancy(),
                qp.in_flight() + self.armed_pending,
                "a chain-silent completion outlived the reap"
            );
        }
        if qp.interrupt_due(now_ns) {
            for c in qp.field_interrupt(now_ns) {
                self.fielded.push(c.posted.seq);
                self.log
                    .push(format!("irq seq {} done {}", c.posted.seq, c.done_cycle));
            }
            self.armed_pending = 0;
        }
        self.max_occupancy = self.max_occupancy.max(qp.occupancy());
    }
}

/// The schedule behind [`drive`]. With `chain` on, some posts continue
/// the most recent descriptor while it is still in flight (its
/// completion then retires chain-silent), some retirements are recalls,
/// and the ring poller reaps at every step before interrupts are
/// fielded. After each reap the ring must hold exactly the in-flight
/// descriptors plus the armed completions not yet fielded: no
/// chain-silent entry is left behind, wherever it retired.
fn run(cfg: HostQueueConfig, steps: &[u8], entries: &[usize], chain: bool) -> Run {
    let driver = DriverModel::default();
    let mut qp = QueuePair::new(cfg);
    let mut run = Run::default();
    let mut now_ns = 0.0;
    let mut cycle = 0u64;
    let mut next_done = 0u64; // seq expected to retire next
                              // Seqs a posted successor continues: they retire chain-silent.
    let mut continued = BTreeSet::new();
    for (i, &step) in steps.iter().enumerate() {
        now_ns += 100.0;
        cycle += 320;
        match step % 3 {
            0 => {
                let mut d = Descriptor::new(
                    DescriptorTag {
                        tenant: i % 3,
                        job: i as u64,
                    },
                    entries[i % entries.len()],
                    64 * (1 + (i as u64 % 8)),
                );
                let last = qp.peek_seq().checked_sub(1);
                let continues = last.filter(|&l| chain && step == 3 && l >= next_done);
                if let Some(pred) = continues {
                    d = d.continuation_of(pred);
                }
                match qp.stage(d, now_ns, cycle) {
                    Ok(seq) => {
                        let cost = qp.ring_doorbell(&driver).expect("staged one");
                        run.log.push(format!("post {seq} cost {cost}"));
                        continued.extend(continues);
                    }
                    Err(HostQError::RingFull) => run.log.push(format!("full @{i}")),
                }
            }
            1 => {
                if qp.in_flight() > 0 {
                    let bytes = qp.oldest_in_flight().expect("in flight").desc.bytes;
                    let recall = chain && step == 4;
                    let moved = if recall { bytes / 2 } else { bytes };
                    qp.on_device_completion(next_done, cycle - 100, cycle, now_ns, moved, recall);
                    if recall {
                        run.recalled.push(next_done);
                    }
                    if recall || !continued.contains(&next_done) {
                        run.armed_pending += 1;
                    }
                    run.log.push(format!("done {next_done} @{now_ns}"));
                    next_done += 1;
                }
            }
            _ => {
                // Idle step: time passes, timers may expire.
                now_ns += 10_000.0;
                run.log.push(format!("idle @{now_ns}"));
            }
        }
        run.collect(&mut qp, now_ns, chain);
    }
    // Drain: retire and field everything still outstanding.
    loop {
        now_ns += 20_000.0;
        cycle += 64_000;
        if qp.in_flight() > 0 {
            let bytes = qp.oldest_in_flight().expect("in flight").desc.bytes;
            qp.on_device_completion(next_done, cycle - 100, cycle, now_ns, bytes, false);
            if !continued.contains(&next_done) {
                run.armed_pending += 1;
            }
            next_done += 1;
        }
        run.collect(&mut qp, now_ns, chain);
        if qp.is_idle() {
            break;
        }
    }
    assert_eq!(qp.stats().completed, qp.stats().posted);
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_is_bounded_and_completions_are_exactly_once(
        depth in 1usize..9,
        coalesce_count in 1u32..5,
        timeout_sel in 0usize..3,
        steps in proptest::collection::vec(0u8..6, 1..40),
        entries in proptest::collection::vec(1usize..65, 4),
    ) {
        let cfg = HostQueueConfig {
            depth,
            coalesce_count,
            coalesce_timeout_ns: [0.0, 500.0, 50_000.0][timeout_sel],
            poll_period_ps: 312,
        };
        let (_, fielded, max_occ) = drive(cfg, &steps, &entries);
        // The ring never exceeds its depth.
        prop_assert!(
            max_occ <= depth,
            "occupancy {} exceeded depth {}", max_occ, depth
        );
        // Every posted descriptor is fielded exactly once, in order.
        prop_assert_eq!(
            fielded.clone(),
            (0..fielded.len() as u64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeded_schedules_replay_bit_for_bit(
        depth in 1usize..9,
        coalesce_count in 1u32..5,
        steps in proptest::collection::vec(0u8..6, 1..40),
        entries in proptest::collection::vec(1usize..65, 4),
    ) {
        let cfg = HostQueueConfig {
            depth,
            coalesce_count,
            coalesce_timeout_ns: 1_000.0,
            poll_period_ps: 312,
        };
        let a = drive(cfg, &steps, &entries);
        let b = drive(cfg, &steps, &entries);
        // Event logs carry every f64 cost/timestamp rendered exactly, so
        // equality here is bit-for-bit replay.
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    #[test]
    fn silent_completions_are_reaped_wherever_they_retire(
        depth in 1usize..9,
        coalesce_count in 1u32..5,
        timeout_sel in 0usize..3,
        steps in proptest::collection::vec(0u8..6, 1..40),
        entries in proptest::collection::vec(1usize..65, 4),
    ) {
        let cfg = HostQueueConfig {
            depth,
            coalesce_count,
            coalesce_timeout_ns: [0.0, 500.0, 50_000.0][timeout_sel],
            poll_period_ps: 312,
        };
        let run = run(cfg, &steps, &entries, true);
        // Staged + in flight + host-pending never exceeds the depth.
        prop_assert!(
            run.max_occupancy <= depth,
            "occupancy {} exceeded depth {}", run.max_occupancy, depth
        );
        // Every posted descriptor reaches the host exactly once: by
        // interrupt, or reaped silently by the poller.
        let mut all: Vec<u64> = run.fielded.iter().chain(&run.reaped).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all.clone(), (0..all.len() as u64).collect::<Vec<_>>());
        // Interrupt batches keep retirement order among themselves, and
        // so do the reaps.
        prop_assert!(run.fielded.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(run.reaped.windows(2).all(|w| w[0] < w[1]));
        // A recall always reaches the host through an interrupt.
        for seq in &run.recalled {
            prop_assert!(run.fielded.contains(seq), "recall {} was reaped", seq);
        }
    }
}
