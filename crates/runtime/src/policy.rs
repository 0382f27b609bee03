//! Pluggable queue-scheduling policies: who gets the engine's next
//! quantum.
//!
//! The runtime serializes dispatch through one DCE, so a policy is a
//! *selection function*: given a read-only view of every tenant queue,
//! name the tenant whose head-of-line job receives the next chunk.
//! Policies are chunk-granular — preemptive policies (DRR, strict
//! priority) may interleave chunks of different tenants' jobs, while
//! FCFS/SJF naturally run a job to completion before moving on.

/// Read-only view of the head of one tenant's queue.
#[derive(Debug, Clone, Copy)]
pub struct HeadView {
    /// Arrival time of the head job, ns.
    pub submit_ns: f64,
    /// Total payload of the head job.
    pub total_bytes: u64,
    /// Bytes of the head job not yet completed.
    pub remaining_bytes: u64,
    /// Size of the chunk a dispatch would submit.
    pub next_chunk_bytes: u64,
    /// Whether the head job has already received engine time.
    pub in_service: bool,
}

/// Read-only view of one tenant queue, handed to [`QueuePolicy::pick`].
#[derive(Debug, Clone, Copy)]
pub struct QueueView {
    /// Tenant index.
    pub tenant: usize,
    /// Strict-priority class (lower is more important).
    pub priority: u32,
    /// DRR weight (quantum multiplier).
    pub weight: u32,
    /// Jobs queued (including a head in service).
    pub backlog: usize,
    /// The head job, if any.
    pub head: Option<HeadView>,
}

/// A queue-scheduling discipline.
pub trait QueuePolicy: Send {
    /// Policy name (CLI/report label).
    fn name(&self) -> &'static str;

    /// A new instance with this policy's parameters and none of its
    /// scheduling state. Under hash-pin placement each shard schedules
    /// its pinned tenants with its own instance, so one shard's picks
    /// never move another shard's round-robin position.
    fn fresh(&self) -> Box<dyn QueuePolicy>;

    /// The tenant whose head job receives the next chunk, or `None` when
    /// every queue is empty. Must return a tenant with a non-empty queue
    /// whenever one exists (work conservation).
    fn pick(&mut self, queues: &[QueueView]) -> Option<usize>;

    /// Bookkeeping hook: `bytes` of `tenant`'s head job were dispatched.
    fn dispatched(&mut self, _tenant: usize, _bytes: u64) {}

    /// How urgently this tenant's work needs the engine — *lower is
    /// more urgent*, mirroring the strict-priority convention. The
    /// runtime's `PriorityKick` preemption compares the urgency of a
    /// waiting head against the chunk in service and kicks the engine
    /// only when the waiter is *strictly* more urgent. The default
    /// ranks every tenant equally, so policies without a class notion
    /// (FCFS, SJF, DRR) never trigger a kick — under them
    /// `PriorityKick` degenerates to `Off`.
    fn urgency(&self, _queue: &QueueView) -> u32 {
        0
    }

    /// Bookkeeping hook: a previously dispatched chunk of `tenant` was
    /// recalled with `bytes` of it *undelivered* (an engine-side
    /// suspension). Byte-accounting policies refund the credit they
    /// charged at dispatch; the remainder is re-charged when its resume
    /// dispatches.
    fn recalled(&mut self, _tenant: usize, _bytes: u64) {}
}

/// First-come-first-served across tenants: global arrival order, jobs
/// run to completion (the head in service is always the globally oldest
/// backlogged job).
#[derive(Debug, Default)]
pub struct Fcfs;

impl QueuePolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn fresh(&self) -> Box<dyn QueuePolicy> {
        Box::new(Fcfs)
    }

    fn pick(&mut self, queues: &[QueueView]) -> Option<usize> {
        queues
            .iter()
            .filter_map(|q| q.head.map(|h| (h.submit_ns, q.tenant)))
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
            .map(|(_, t)| t)
    }
}

/// Shortest-job-first, non-preemptive: a job in service keeps the engine;
/// otherwise the smallest head job (by total bytes) wins, ties broken by
/// arrival time then tenant index.
#[derive(Debug, Default)]
pub struct Sjf;

impl QueuePolicy for Sjf {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn fresh(&self) -> Box<dyn QueuePolicy> {
        Box::new(Sjf)
    }

    fn pick(&mut self, queues: &[QueueView]) -> Option<usize> {
        // With a deep ring several tenants can be in service at once
        // (each has chunks in flight). Picking by `find()` here would
        // permanently favor the lowest tenant index; serving the oldest
        // in-service job first keeps SJF starvation-free under deep
        // rings (and is the unique in-service job's pick at depth 1).
        if let Some(q) = queues
            .iter()
            .filter(|q| q.head.is_some_and(|h| h.in_service))
            .min_by(|a, b| {
                let ka = (a.head.expect("filtered").submit_ns, a.tenant);
                let kb = (b.head.expect("filtered").submit_ns, b.tenant);
                ka.partial_cmp(&kb).expect("finite times")
            })
        {
            return Some(q.tenant);
        }
        queues
            .iter()
            .filter_map(|q| q.head.map(|h| (h.total_bytes, h.submit_ns, q.tenant)))
            .min_by(|a, b| a.partial_cmp(b).expect("finite keys"))
            .map(|(_, _, t)| t)
    }
}

/// Deficit round robin (Shreedhar & Varghese): each backlogged tenant
/// accrues `quantum × weight` bytes of credit per round-robin visit and
/// is served while its credit covers the head chunk — byte-accurate
/// fairness at chunk granularity, immune to job-size skew.
#[derive(Debug)]
pub struct Drr {
    quantum: u64,
    deficit: Vec<u64>,
    cursor: usize,
    /// Whether the queue under the cursor already received its quantum
    /// for the current round-robin stop (credit is granted once per
    /// visit, then the tenant is served until the credit runs out).
    granted: bool,
}

impl Drr {
    /// A DRR scheduler with the given per-visit byte quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "DRR quantum must be positive");
        Drr {
            quantum,
            deficit: Vec::new(),
            cursor: 0,
            granted: false,
        }
    }

    fn advance(&mut self, n: usize) {
        self.cursor = (self.cursor + 1) % n;
        self.granted = false;
    }
}

impl QueuePolicy for Drr {
    fn name(&self) -> &'static str {
        "drr"
    }

    fn fresh(&self) -> Box<dyn QueuePolicy> {
        Box::new(Drr::new(self.quantum))
    }

    fn pick(&mut self, queues: &[QueueView]) -> Option<usize> {
        let n = queues.len();
        self.deficit.resize(n, 0);
        // A queue that has gone *empty* forfeits its credit (classic
        // DRR). The gate must be `backlog == 0`, not `head.is_none()`:
        // under a deep ring a backlogged tenant whose chunks are all in
        // flight ring-side reports no dispatch head, but it is still
        // busy — zeroing its deficit there forfeits credit the tenant
        // earned and skews the byte shares.
        for q in queues {
            if q.backlog == 0 {
                self.deficit[q.tenant] = 0;
            }
        }
        if queues.iter().all(|q| q.head.is_none()) {
            return None;
        }
        // Terminates for any positive quantum: every visit to a
        // backlogged queue grants at least one quantum of credit, chunks
        // are finite, and at least one queue is backlogged — so within
        // ceil(max_chunk / quantum) round-robin laps some tenant can
        // afford its head chunk.
        loop {
            let q = &queues[self.cursor % n];
            let Some(head) = q.head else {
                self.advance(n);
                continue;
            };
            if self.deficit[q.tenant] >= head.next_chunk_bytes {
                // Serve; the cursor stays so the tenant keeps the engine
                // until its credit runs out.
                return Some(q.tenant);
            }
            if !self.granted {
                self.granted = true;
                self.deficit[q.tenant] += self.quantum * q.weight.max(1) as u64;
                if self.deficit[q.tenant] >= head.next_chunk_bytes {
                    return Some(q.tenant);
                }
            }
            self.advance(n);
        }
    }

    fn dispatched(&mut self, tenant: usize, bytes: u64) {
        if let Some(d) = self.deficit.get_mut(tenant) {
            *d = d.saturating_sub(bytes);
        }
    }

    fn recalled(&mut self, tenant: usize, bytes: u64) {
        // The tenant paid for the whole chunk at dispatch but only part
        // was delivered before the preemption: hand the undelivered
        // credit back so the byte shares stay exact across kicks (the
        // resume re-charges it through `dispatched`).
        if let Some(d) = self.deficit.get_mut(tenant) {
            *d = d.saturating_add(bytes);
        }
    }
}

/// Strict priority: the most important backlogged class always wins;
/// FCFS inside a class. Lower `priority` values are more important.
#[derive(Debug, Default)]
pub struct StrictPriority;

impl QueuePolicy for StrictPriority {
    fn name(&self) -> &'static str {
        "prio"
    }

    fn fresh(&self) -> Box<dyn QueuePolicy> {
        Box::new(StrictPriority)
    }

    fn pick(&mut self, queues: &[QueueView]) -> Option<usize> {
        queues
            .iter()
            .filter_map(|q| q.head.map(|h| (q.priority, h.submit_ns, q.tenant)))
            .min_by(|a, b| a.partial_cmp(b).expect("finite keys"))
            .map(|(_, _, t)| t)
    }

    fn urgency(&self, queue: &QueueView) -> u32 {
        // The priority class *is* the urgency: a waiting class-0 head
        // kicks an in-service class-1 chunk off the engine.
        queue.priority
    }
}

/// Construct a policy by CLI name (`fcfs`, `sjf`, `drr`, `prio`);
/// `quantum` parameterizes DRR.
pub fn policy_by_name(name: &str, quantum: u64) -> Option<Box<dyn QueuePolicy>> {
    match name {
        "fcfs" => Some(Box::new(Fcfs)),
        "sjf" => Some(Box::new(Sjf)),
        "drr" => Some(Box::new(Drr::new(quantum))),
        "prio" => Some(Box::new(StrictPriority)),
        _ => None,
    }
}

/// Every built-in policy name, in report order.
pub const POLICY_NAMES: [&str; 4] = ["fcfs", "sjf", "drr", "prio"];

#[cfg(test)]
mod tests {
    use super::*;

    fn view(tenant: usize, submit: f64, total: u64, in_service: bool) -> QueueView {
        QueueView {
            tenant,
            priority: u32::try_from(tenant).unwrap(),
            weight: 1,
            backlog: 1,
            head: Some(HeadView {
                submit_ns: submit,
                total_bytes: total,
                remaining_bytes: total,
                next_chunk_bytes: total.min(4096),
                in_service,
            }),
        }
    }

    fn empty(tenant: usize) -> QueueView {
        QueueView {
            tenant,
            priority: u32::try_from(tenant).unwrap(),
            weight: 1,
            backlog: 0,
            head: None,
        }
    }

    #[test]
    fn fcfs_takes_global_arrival_order() {
        let mut p = Fcfs;
        let qs = [view(0, 50.0, 64, false), view(1, 10.0, 1 << 20, false)];
        assert_eq!(p.pick(&qs), Some(1));
        assert_eq!(p.pick(&[empty(0), empty(1)]), None);
    }

    #[test]
    fn sjf_prefers_small_but_never_preempts() {
        let mut p = Sjf;
        let qs = [view(0, 0.0, 1 << 20, false), view(1, 5.0, 64, false)];
        assert_eq!(p.pick(&qs), Some(1));
        let qs = [view(0, 0.0, 1 << 20, true), view(1, 5.0, 64, false)];
        assert_eq!(p.pick(&qs), Some(0), "in-service job keeps the engine");
    }

    #[test]
    fn strict_priority_always_serves_the_top_class() {
        let mut p = StrictPriority;
        let qs = [view(1, 0.0, 64, false), view(0, 99.0, 1 << 20, false)];
        // view() sets priority = tenant id; tenant 0 is the top class.
        assert_eq!(p.pick(&qs), Some(0));
    }

    #[test]
    fn drr_alternates_between_equal_tenants() {
        let mut p = Drr::new(4096);
        let qs = [view(0, 0.0, 1 << 20, true), view(1, 1.0, 1 << 20, false)];
        let mut served = [0u32; 2];
        for _ in 0..20 {
            let t = p.pick(&qs).unwrap();
            served[t] += 1;
            p.dispatched(t, 4096);
        }
        assert_eq!(served[0], 10);
        assert_eq!(served[1], 10);
    }

    #[test]
    fn drr_weights_scale_service() {
        let mut p = Drr::new(4096);
        let mut qs = [view(0, 0.0, 1 << 20, false), view(1, 1.0, 1 << 20, false)];
        qs[0].weight = 3;
        let mut served = [0u32; 2];
        for _ in 0..40 {
            let t = p.pick(&qs).unwrap();
            served[t] += 1;
            p.dispatched(t, 4096);
        }
        assert_eq!(served[0], 30, "weight-3 tenant gets 3x the quanta");
        assert_eq!(served[1], 10);
    }

    #[test]
    fn drr_survives_quanta_far_smaller_than_chunks() {
        // Regression: a tiny quantum against a big head chunk needs many
        // grant rounds; pick must converge, not bail out.
        let mut p = Drr::new(32);
        let qs = [view(0, 0.0, 1 << 20, false), view(1, 1.0, 1 << 20, false)];
        // view() caps next_chunk_bytes at 4096 → 128 grants per tenant.
        for _ in 0..8 {
            let t = p.pick(&qs).unwrap();
            p.dispatched(t, 4096);
        }
    }

    /// A backlogged tenant whose chunks are all in flight ring-side: no
    /// dispatch head, but the queue is not empty.
    fn in_flight(tenant: usize) -> QueueView {
        QueueView {
            tenant,
            priority: u32::try_from(tenant).unwrap(),
            weight: 1,
            backlog: 1,
            head: None,
        }
    }

    #[test]
    fn drr_resets_credit_for_idle_queues() {
        let mut p = Drr::new(64);
        let qs = [view(0, 0.0, 1 << 20, false), empty(1)];
        // Tenant 0 needs many rounds to afford a 4096 B chunk; tenant 1
        // must not bank credit while idle.
        assert_eq!(p.pick(&qs), Some(0));
        assert_eq!(p.deficit[1], 0);
    }

    #[test]
    fn drr_keeps_credit_while_chunks_are_in_flight() {
        // Regression (deep rings): a busy tenant between dispatch
        // opportunities — backlog > 0, head None — must keep the
        // deficit it accrued, or its byte share collapses whenever the
        // ring briefly holds its whole job.
        let mut p = Drr::new(64);
        let qs = [view(0, 0.0, 1 << 20, false), view(1, 1.0, 1 << 20, false)];
        // Build some credit for tenant 1 (one grant round).
        assert_eq!(p.pick(&qs), Some(0)); // both granted up to a pick
        let banked = p.deficit[1];
        assert!(banked > 0, "tenant 1 accrued credit while waiting");
        // Tenant 1's chunks all go in flight: head disappears, backlog
        // stays. Its credit must survive...
        let qs = [view(0, 0.0, 1 << 20, false), in_flight(1)];
        p.pick(&qs);
        assert_eq!(p.deficit[1], banked, "in-flight tenant forfeited credit");
        // ...but a truly empty queue still forfeits.
        let qs = [view(0, 0.0, 1 << 20, false), empty(1)];
        p.pick(&qs);
        assert_eq!(p.deficit[1], 0);
    }

    #[test]
    fn sjf_serves_the_oldest_of_several_in_service_jobs() {
        // Regression (deep rings): multiple tenants in service at once;
        // the tie must break by oldest submit time, not tenant index.
        let mut p = Sjf;
        let qs = [
            view(0, 90.0, 64, true),
            view(1, 10.0, 1 << 20, true),
            view(2, 50.0, 512, true),
        ];
        assert_eq!(p.pick(&qs), Some(1), "oldest in-service job first");
        // Index only breaks exact submit-time ties.
        let qs = [view(1, 10.0, 64, true), view(0, 10.0, 64, true)];
        assert_eq!(p.pick(&qs), Some(0));
    }

    #[test]
    fn urgency_is_the_priority_class_only_under_strict_priority() {
        let q0 = view(0, 0.0, 64, false); // priority = tenant id
        let q1 = view(1, 0.0, 64, false);
        let prio = StrictPriority;
        assert!(prio.urgency(&q0) < prio.urgency(&q1));
        // Class-less policies rank everyone equally: no kick is ever
        // strictly more urgent.
        for name in ["fcfs", "sjf", "drr"] {
            let p = policy_by_name(name, 4096).unwrap();
            assert_eq!(p.urgency(&q0), p.urgency(&q1), "{name}");
        }
    }

    #[test]
    fn drr_refunds_undelivered_bytes_on_recall() {
        let mut p = Drr::new(4096);
        let qs = [view(0, 0.0, 1 << 20, false), view(1, 1.0, 1 << 20, false)];
        let t = p.pick(&qs).unwrap();
        let before = p.deficit[t];
        p.dispatched(t, 4096);
        assert_eq!(p.deficit[t], before - 4096);
        // The engine kicked the chunk after delivering only 1 KiB:
        // 3 KiB of credit comes back, so across the kick the tenant
        // paid for exactly what it received.
        p.recalled(t, 4096 - 1024);
        assert_eq!(p.deficit[t], before - 1024);
    }

    #[test]
    fn factory_knows_every_policy() {
        for name in POLICY_NAMES {
            assert_eq!(policy_by_name(name, 4096).unwrap().name(), name);
        }
        assert!(policy_by_name("lifo", 4096).is_none());
    }
}
