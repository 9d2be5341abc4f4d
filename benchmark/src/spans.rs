//! The benchmark's own span recorder: spans live in memory while the
//! traced run goes, and are written out (Chrome `trace_event` JSON) and
//! folded into a self-time table when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// One timed interval around a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Which workload instance the span belongs to.
    pub workload: u32,
    /// Simulated rank the call ran for, when it ran for one.
    pub rank: Option<u32>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    workload: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Recorder {
    pub fn new(workload: u32) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as a span named `name`, child of the span open now. `f`
    /// gets the recorder back so it can open children of its own.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            workload: self.workload,
            rank: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Add an interval measured elsewhere (inside a rank closure) as a
    /// finished child of the span open now.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, rank: u32) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            workload: self.workload,
            rank: Some(rank),
        });
    }

    /// Seconds spent in all spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Per-name totals and self times (duration minus children), in order
    /// of first appearance.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let row = rows.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                (0, 0, 0)
            });
            row.0 += 1;
            row.1 += s.duration_ns();
            row.2 += s.duration_ns().saturating_sub(children);
        }
        order
            .into_iter()
            .map(|name| {
                let (count, total, own) = rows[name];
                SelfTime {
                    name,
                    count,
                    total_s: total as f64 / 1e9,
                    self_s: own as f64 / 1e9,
                }
            })
            .collect()
    }

    /// The recorder's own consistency: no span is left open, every child
    /// lies inside its parent, siblings' durations never add up to more
    /// than the parent's, and the self times add up to the root spans
    /// within 2 %.
    pub fn check(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans still open", self.open.len()));
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut roots_ns = 0u64;
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.name));
            }
            match s.parent {
                None => roots_ns += s.duration_ns(),
                Some(p) => {
                    let parent = &self.spans[p];
                    if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                        return Err(format!("span {} leaves its parent {}", s.name, parent.name));
                    }
                    child_ns[p] += s.duration_ns();
                }
            }
        }
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            if children > s.duration_ns() {
                return Err(format!(
                    "children of {} take {children} ns of its {} ns",
                    s.name,
                    s.duration_ns()
                ));
            }
        }
        let self_sum: f64 = self.self_times().iter().map(|r| r.self_s).sum();
        let roots = roots_ns as f64 / 1e9;
        if (self_sum - roots).abs() > 0.02 * roots {
            return Err(format!(
                "self times add up to {self_sum} s, roots to {roots} s"
            ));
        }
        Ok(())
    }

    /// Chrome `trace_event` form: one complete event per span, workload as
    /// the process, rank (plus one; zero is the driver) as the thread.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Int(i64::from(s.workload))),
                    ("tid", Json::Int(s.rank.map_or(0, |r| i64::from(r) + 1))),
                    (
                        "args",
                        obj([
                            ("id", Json::Int(id as i64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_self_times_and_check() {
        let mut rec = Recorder::new(3);
        rec.time("root", |rec| {
            spin(Duration::from_millis(2));
            rec.time("child", |rec| {
                spin(Duration::from_millis(3));
                let a = Instant::now();
                spin(Duration::from_millis(1));
                rec.add("leaf", a, Instant::now(), 5);
            });
            rec.time("child", |_| spin(Duration::from_millis(1)));
        });
        rec.check().unwrap();
        let rows = rec.self_times();
        assert_eq!(
            rows.iter().map(|r| (r.name, r.count)).collect::<Vec<_>>(),
            [("root", 1), ("child", 2), ("leaf", 1)]
        );
        let (root, child, leaf) = (&rows[0], &rows[1], &rows[2]);
        assert!(root.total_s >= 0.007 && root.self_s >= 0.002 && root.self_s < root.total_s);
        assert!((child.total_s - child.self_s - leaf.total_s).abs() < 1e-9);
        assert_eq!(leaf.total_s, leaf.self_s);
        let sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!(
            (sum - root.total_s).abs() < 1e-9,
            "self times tile the root"
        );
        assert_eq!(rec.total_s("child"), child.total_s);
    }

    #[test]
    fn check_rejects_a_child_outside_its_parent() {
        let mut rec = Recorder::new(0);
        let before = Instant::now();
        spin(Duration::from_millis(1));
        rec.time("root", |rec| rec.add("early", before, Instant::now(), 0));
        assert!(rec.check().unwrap_err().contains("leaves its parent"));
    }

    #[test]
    fn check_rejects_overlapping_children() {
        let mut rec = Recorder::new(0);
        rec.time("root", |rec| {
            let a = Instant::now();
            spin(Duration::from_millis(2));
            let b = Instant::now();
            rec.add("x", a, b, 0);
            rec.add("x", a, b, 1);
        });
        assert!(rec.check().unwrap_err().contains("children of root"));
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut rec = Recorder::new(7);
        rec.time("root", |rec| {
            rec.add("leaf", Instant::now(), Instant::now(), 2)
        });
        let text = rec.chrome_trace().line();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"leaf\""));
        assert!(text.contains("\"pid\":7,\"tid\":3,\"args\":{\"id\":1,\"parent\":0}"));
        assert!(text.contains("\"tid\":0,\"args\":{\"id\":0,\"parent\":-1}"));
    }
}
