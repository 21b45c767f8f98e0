//! In-memory spans recorded by the benchmark around each call into a
//! layer of the simulator, exported at exit as Chrome trace-event JSON.

use std::time::{Duration, Instant};

use serde_json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Job or point id.
    pub id: u64,
    /// Recording thread.
    pub tid: u64,
}

/// A span recorder. When off, `begin` returns `None` and nothing is kept,
/// so untraced runs pay one branch per call.
pub struct Spans {
    on: bool,
    t0: Instant,
    tid: u64,
    list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, t0: Instant::now(), tid: 0, list: Vec::new() }
    }

    /// An empty recorder for another thread, on the same clock.
    pub fn for_thread(&self, tid: u64) -> Spans {
        Spans { on: self.on, t0: self.t0, tid, list: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.t0.elapsed();
        self.list.push(Span { name, start: now, end: now, parent, id, tid: self.tid });
        Some(self.list.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.list[i].end = self.t0.elapsed();
        }
    }

    /// Moves another thread's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span named `name`, in ms: its duration minus the
    /// part covered by its child spans.
    fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child = vec![Duration::ZERO; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child[p] += s.end.saturating_sub(s.start);
            }
        }
        self.list
            .iter()
            .zip(child)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.end.saturating_sub(s.start).saturating_sub(c).as_secs_f64() * 1e3)
            .collect()
    }

    /// Duration of every span named `name`, in ms.
    fn dur_ms(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Per span name: count, total and self time in ms, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.list {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|n| {
                let total: f64 = self.dur_ms(n).iter().sum();
                let own: f64 = self.self_ms(n).iter().sum();
                (n, self.dur_ms(n).len(), total, own)
            })
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, with
    /// microsecond timestamps.
    pub fn chrome_json(&self, process: &str) -> String {
        let map = |fields: Vec<(&str, Value)>| {
            Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let us = |d: Duration| Value::U64(d.as_micros() as u64);
        let mut events = vec![map(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(1)),
            ("args", map(vec![("name", Value::Str(process.into()))])),
        ])];
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or(Value::Null, |p| Value::U64(p as u64));
            events.push(map(vec![
                ("name", Value::Str(s.name.into())),
                ("cat", Value::Str("simbench".into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(s.tid)),
                ("ts", us(s.start)),
                ("dur", us(s.end.saturating_sub(s.start))),
                (
                    "args",
                    map(vec![
                        ("span", Value::U64(i as u64)),
                        ("parent", parent),
                        ("id", Value::U64(s.id)),
                    ]),
                ),
            ]));
        }
        map(vec![("traceEvents", Value::Seq(events)), ("displayTimeUnit", Value::Str("ms".into()))])
            .to_string()
    }
}
