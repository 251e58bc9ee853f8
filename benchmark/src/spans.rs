//! Spans the benchmark records around its own calls into the platform's
//! public API. Kept in memory and written out when the run ends; when
//! tracing is off nothing is recorded.

use std::time::Instant;

/// One timed call: `parent` is the index + 1 of the enclosing span
/// (0 = none), `op` the operation it serves (0 = none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Public call name (`pump`, `rpc_with`, `Vm::call`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Enclosing span (index + 1), or 0.
    pub parent: u32,
    /// Operation id, or 0.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder with an explicit parent stack.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A recorder; `on = false` makes every method a no-op.
    #[must_use]
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished call that ran from `start` to `end`, under the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied().unwrap_or(0),
            op,
        };
        self.spans.push(span);
    }

    /// Opens a parent span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.open.push(self.spans.len() as u32);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(idx) = self.open.pop() {
            self.spans[idx as usize - 1].end_ns = now;
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.record(name, op, start, Instant::now());
        r
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// The spans as CSV (`id,parent,op,name,start_ns,end_ns`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,op,name,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent() {
        let mut s = Spans::new(true);
        s.open("step", 0);
        s.time("pump", 1, || ());
        s.close();
        assert_eq!(s.all()[1].parent, 1);
        assert!(s.all()[0].dur_ns() >= s.all()[1].dur_ns());
        let csv = s.to_csv();
        let rows: Vec<&str> = csv.lines().collect();
        assert!(rows[1].starts_with("1,0,0,step,"), "{csv}");
        assert!(rows[2].starts_with("2,1,1,pump,"), "{csv}");
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        s.open("step", 0);
        s.time("pump", 1, || ());
        s.close();
        assert!(s.all().is_empty());
    }
}
