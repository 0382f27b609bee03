//! The traced run's span log: host-time spans around every layer call
//! the benchmark makes, and simulated-time spans per served job. Spans
//! stay in memory and are written once, as a Chrome trace-event file
//! (`chrome://tracing`, Perfetto), when the benchmark ends.

use pim_runtime::JobRecord;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded host span; 0 is "no span" (the root).
pub type SpanId = u64;

struct HostSpan {
    id: SpanId,
    parent: SpanId,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one
/// branch per call, so untraced runs measure the bare simulator.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: SpanId,
    open: Vec<(SpanId, SpanId, String, u64)>,
    host: Vec<HostSpan>,
    jobs: Vec<JobRecord>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            open: Vec::new(),
            host: Vec::new(),
            jobs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(0, |s| s.0);
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, parent, name.to_string(), start));
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let (id, parent, name, start_ns) = self.open.pop().expect("end() matches a begin()");
        self.host.push(HostSpan {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    /// Keep one run's job records for their simulated-time spans (the
    /// last call wins, so the artifact holds exactly one run's jobs).
    pub fn set_jobs(&mut self, jobs: &[JobRecord]) {
        if self.enabled {
            self.jobs = jobs.to_vec();
        }
    }

    /// Write every span as a Chrome trace-event JSON document.
    ///
    /// Host spans sit in process 1 on the host clock; each job's
    /// `queue` [submit, dispatch] and `service` [dispatch, complete]
    /// spans sit in process 2 on the simulated clock, one thread per
    /// tenant and keyed by job id.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&ev);
        };
        push(
            &mut out,
            r#"{"ph":"M","pid":1,"name":"process_name","args":{"name":"host (wall clock)"}}"#
                .into(),
        );
        push(
            &mut out,
            r#"{"ph":"M","pid":2,"name":"process_name","args":{"name":"modeled machine (simulated clock)"}}"#
                .into(),
        );
        let mut host: Vec<&HostSpan> = self.host.iter().collect();
        host.sort_by_key(|s| (s.start_ns, s.id));
        for s in host {
            push(
                &mut out,
                format!(
                    r#"{{"ph":"X","pid":1,"tid":1,"name":{},"ts":{},"dur":{},"args":{{"id":{},"parent":{}}}}}"#,
                    json_str(&s.name),
                    us(s.start_ns as f64),
                    us((s.end_ns - s.start_ns) as f64),
                    s.id,
                    s.parent
                ),
            );
        }
        for j in &self.jobs {
            for (name, a, b) in [
                ("queue", j.submit_ns, j.dispatch_ns),
                ("service", j.dispatch_ns, j.complete_ns),
            ] {
                push(
                    &mut out,
                    format!(
                        r#"{{"ph":"X","pid":2,"tid":{},"name":"{name}","ts":{},"dur":{},"args":{{"job":{}}}}}"#,
                        j.tenant,
                        us(a),
                        us((b - a).max(0.0)),
                        j.id
                    ),
                );
            }
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Nanoseconds as the microsecond timestamps Chrome traces use.
fn us(ns: f64) -> String {
    let mut s = String::new();
    let _ = write!(s, "{:.3}", ns / 1e3);
    s
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
