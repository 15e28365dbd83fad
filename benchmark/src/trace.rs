//! Spans recorded by the benchmark's own code, around its calls into each
//! layer. Kept in memory, written out once at exit. Spans *inside* the
//! engines are a later issue; these measure the layers from outside.

use std::time::Instant;

use crate::json::Value;

/// One timed interval. `parent` is the span that was open when this one
/// began; `counters` are the counts read at the same boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(String, f64)>,
}

/// Records a tree of spans. Disabled, it still times (callers want the
/// duration either way) but records nothing, which is the untraced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, "")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span is
    /// open. Returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        if self.enabled {
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name: name.to_string(),
                workload: self.workload.clone(),
                start_ns,
                end_ns: start_ns,
                counters: Vec::new(),
            });
            self.open.push(id);
        }
        let out = f(self);
        let end_ns = self.now_ns();
        if self.enabled {
            self.open.pop();
            self.spans[id as usize].end_ns = end_ns;
        }
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Attaches counts to the innermost open span.
    pub fn counters<'a>(&mut self, counts: impl IntoIterator<Item = &'a (&'static str, f64)>) {
        if let Some(&id) = self.open.last() {
            let span = &mut self.spans[id as usize];
            span.counters
                .extend(counts.into_iter().map(|(k, v)| (k.to_string(), *v)));
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let span = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// All spans as a JSON array, one object per span.
    pub fn to_json(&self) -> Value {
        let num = |n: u64| Value::Num(n as f64);
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("id".into(), num(s.id.into())),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| num(p.into())),
                        ),
                        ("name".into(), Value::Str(s.name.clone())),
                        ("workload".into(), Value::Str(s.workload.clone())),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                        ("self_ns".into(), num(self.self_ns(s.id))),
                        (
                            "counters".into(),
                            Value::Obj(
                                s.counters
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true, "w");
        let ((), outer_s) = t.span("outer", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| t.counters(&[("n", 3.0)]));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].counters, vec![("n".to_string(), 3.0)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let outer = spans[0].end_ns - spans[0].start_ns;
        let kids: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(t.self_ns(0), outer - kids);
        assert!(outer_s >= 0.002);
        assert_eq!(t.to_json().as_arr().map(<[Value]>::len), Some(3));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::off();
        let (v, secs) = t.span("x", |t| {
            t.counters(&[("ignored", 1.0)]);
            7
        });
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
