//! In-memory span recorder for the traced run. Spans are recorded from the
//! benchmark's side of each call into the program and written out once at
//! the end; nothing here runs during an untraced (end-to-end) run.

use genbase_util::Json;
use std::time::Instant;

/// One recorded interval. Times are microseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran (`workload`, `pass`, `cell`, an op label, `request`, …).
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one cell execution or request.
    pub trace: u64,
    /// Start, µs since the origin.
    pub start_us: f64,
    /// End, µs since the origin.
    pub end_us: f64,
}

/// Append-only span store with a common time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Recorder whose clock starts at `origin` (shared between threads so
    /// their spans line up).
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the origin to `t`.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        trace: u64,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            trace,
            start_us,
            end_us,
        });
        self.spans.len() - 1
    }

    /// Set the end of a span recorded before its children finished.
    pub fn close(&mut self, id: usize, end_us: f64) {
        self.spans[id].end_us = end_us;
    }

    /// All spans, in recording order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another recorder's spans in (a client thread's, recorded
    /// against the same origin), re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// A span's self time in µs: its duration minus the part of its
    /// interval that its child spans cover (overlapping children count
    /// once; parts of a child outside the parent do not count).
    pub fn self_time_us(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .filter(|(s, e)| e > s)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_us;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        (span.end_us - span.start_us) - covered
    }

    /// Serialize every span as `{name, start_us, end_us, parent, trace}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Json::obj();
                    o.set("name", Json::from(s.name.as_str()));
                    o.set("start_us", Json::Num(s.start_us));
                    o.set("end_us", Json::Num(s.end_us));
                    o.set(
                        "parent",
                        match s.parent {
                            Some(p) => Json::from(p),
                            None => Json::Null,
                        },
                    );
                    o.set("trace", Json::from(s.trace));
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(Instant::now());
        let root = r.add("cell", None, 1, 0.0, 100.0);
        r.add("a", Some(root), 1, 10.0, 30.0);
        r.add("b", Some(root), 1, 20.0, 50.0); // overlaps a: union 10..50
        r.add("c", Some(root), 1, 90.0, 120.0); // clipped to 90..100
        r.add("other", None, 2, 0.0, 100.0); // not a child
        assert_eq!(r.self_time_us(root), 100.0 - 40.0 - 10.0);
        // A leaf's self time is its duration.
        assert_eq!(r.self_time_us(1), 20.0);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        a.add("x", None, 1, 0.0, 1.0);
        let mut b = Recorder::new(origin);
        let p = b.add("request", None, 2, 0.0, 5.0);
        b.add("wait", Some(p), 2, 1.0, 4.0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_time_us(1), 2.0);
    }
}
