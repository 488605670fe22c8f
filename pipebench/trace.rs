//! In-memory spans of the traced run.  Each span wraps one of the
//! benchmark's own calls into a layer of the pipeline; nothing inside the
//! program is instrumented.  Spans stay in memory until the run ends.

use serde::Value;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns]` from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when on; when off, [`Tracer::span`] only runs its body.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn on() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::on()
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return body(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a call timed on another thread as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Inclusive milliseconds of every span named `name`; 0 without one
    /// (a fold from 0.0, since `f64`'s `sum` of nothing is -0.0).
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |ms, s| ms + (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    /// Self time of each span, in nanoseconds: its duration minus the part
    /// of it that its children cover.  Children may overlap (worker
    /// threads), so the covered part is the union of their intervals.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.end_ns as i64 - s.start_ns as i64 - covered as i64
            })
            .collect()
    }

    /// Self milliseconds summed per span name, in first-seen order.
    pub fn self_ms_by_name(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, ms)) => *ms += ns as f64 / 1e6,
                None => out.push((s.name.clone(), ns as f64 / 1e6)),
            }
        }
        out
    }

    /// Checks the span tree: every span is closed and lies inside its
    /// parent, parents precede their children, and no self time is
    /// negative.
    pub fn check(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
            }
            if let Some(p) = s.parent {
                let parent = self
                    .spans
                    .get(p)
                    .filter(|parent| parent.id < s.id)
                    .ok_or_else(|| format!("span {} `{}` has no earlier parent", s.id, s.name))?;
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {} `{}` is not inside its parent `{}`",
                        s.id, s.name, parent.name
                    ));
                }
            }
        }
        match self.self_ns().iter().position(|&ns| ns < 0) {
            Some(i) => Err(format!(
                "span {} `{}` has negative self time",
                i, self.spans[i].name
            )),
            None => Ok(()),
        }
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ])
            })
            .collect();
        let self_ms = self
            .self_ms_by_name()
            .into_iter()
            .map(|(name, ms)| (name, Value::Float(ms)))
            .collect();
        Value::Object(vec![
            ("spans".into(), Value::Array(spans)),
            ("self_ms".into(), Value::Object(self_ms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_are_well_formed_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let start = Instant::now();
            t.record("worker", start, start);
        });
        t.check().unwrap();
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let self_ns = t.self_ns();
        let outer = (spans[0].end_ns - spans[0].start_ns) as i64;
        let inner = (spans[1].end_ns - spans[1].start_ns) as i64;
        assert!(self_ns[0] <= outer - inner);
        assert!(t.total_ms("inner") >= 2.0);
    }

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = Tracer::on();
        t.spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
        ];
        t.check().unwrap();
        assert_eq!(t.self_ns(), vec![40, 40, 40]);
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let mut t = Tracer::on();
        t.spans = vec![span(0, None, 0, 100), span(1, Some(0), 90, 110)];
        assert!(t.check().is_err());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans.is_empty());
    }
}
