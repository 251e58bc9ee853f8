//! Deterministic exporters: an aligned text table for humans and JSON
//! lines for tooling.
//!
//! Formatting is canonical in the `pmp-wire` sense — the same telemetry
//! state always renders to the same bytes: metrics sort by name, JSON
//! keys appear in a fixed order with no insignificant whitespace, and
//! strings use the minimal escape set (`\"`, `\\`, control characters
//! as `\n`/`\r`/`\t`/`\u00XX`).

use crate::{Registry, Telemetry};
use std::fmt::Write;

/// Renders the registry as an aligned text table (counters, gauges,
/// then histograms, each sorted by name). Returns an empty string when
/// nothing is registered.
#[must_use]
pub fn render_table(reg: &Registry) -> String {
    let mut out = String::new();
    let mut counters: Vec<(&str, u64)> = reg.counters().collect();
    counters.sort_unstable_by_key(|(n, _)| *n);
    let mut gauges: Vec<(&str, i64)> = reg.gauges().collect();
    gauges.sort_unstable_by_key(|(n, _)| *n);
    let mut histos: Vec<_> = reg.histograms().collect();
    histos.sort_unstable_by_key(|(n, _)| *n);

    let width = counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(gauges.iter().map(|(n, _)| n.len()))
        .chain(histos.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(0)
        .max("metric".len());

    if !counters.is_empty() || !gauges.is_empty() {
        let _ = writeln!(out, "{:width$}  {:>12}", "metric", "value");
        for (n, v) in &counters {
            let _ = writeln!(out, "{n:width$}  {v:>12}");
        }
        for (n, v) in &gauges {
            let _ = writeln!(out, "{n:width$}  {v:>12}");
        }
    }
    if !histos.is_empty() {
        let _ = writeln!(
            out,
            "{:width$}  {:>8} {:>12} {:>12} {:>12} {:>12}",
            "histogram (ns)", "count", "p50", "p90", "p99", "max"
        );
        for (n, h) in &histos {
            let _ = writeln!(
                out,
                "{n:width$}  {:>8} {:>12} {:>12} {:>12} {:>12}",
                h.count(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            );
        }
    }
    out
}

/// Escapes `s` for inclusion in a JSON string literal (minimal escape
/// set, canonical output).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the whole telemetry (metrics sorted by name, then journal
/// events oldest-first) as one JSON object per line.
#[must_use]
pub fn to_json_lines(t: &Telemetry) -> String {
    let mut out = String::new();
    let mut counters: Vec<(&str, u64)> = t.registry.counters().collect();
    counters.sort_unstable_by_key(|(n, _)| *n);
    for (n, v) in counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
            json_escape(n)
        );
    }
    let mut gauges: Vec<(&str, i64)> = t.registry.gauges().collect();
    gauges.sort_unstable_by_key(|(n, _)| *n);
    for (n, v) in gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}",
            json_escape(n)
        );
    }
    let mut histos: Vec<_> = t.registry.histograms().collect();
    histos.sort_unstable_by_key(|(n, _)| *n);
    for (n, h) in histos {
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            json_escape(n),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.p50(),
            h.p90(),
            h.p99()
        );
    }
    for e in t.journal.events() {
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"at\":{},\"subsystem\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\"}}",
            e.seq,
            e.at,
            e.subsystem.name(),
            json_escape(&e.name),
            json_escape(&e.detail)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Subsystem;
    use std::collections::BTreeMap;

    /// A deliberately tiny JSON-line reader for round-trip testing:
    /// splits one exported line into string/number fields, undoing the
    /// canonical escapes `json_escape` produces.
    fn parse_line(line: &str) -> BTreeMap<String, String> {
        let inner = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .expect("object line");
        let mut fields = BTreeMap::new();
        let mut chars = inner.chars().peekable();
        loop {
            // Key.
            assert_eq!(chars.next(), Some('"'), "key opens");
            let mut key = String::new();
            for c in chars.by_ref() {
                if c == '"' {
                    break;
                }
                key.push(c);
            }
            assert_eq!(chars.next(), Some(':'));
            // Value: string (with escapes) or bare number.
            let mut val = String::new();
            if chars.peek() == Some(&'"') {
                chars.next();
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        match chars.next().expect("escape payload") {
                            'n' => val.push('\n'),
                            'r' => val.push('\r'),
                            't' => val.push('\t'),
                            'u' => {
                                let hex: String = (0..4).map(|_| chars.next().unwrap()).collect();
                                let code = u32::from_str_radix(&hex, 16).unwrap();
                                val.push(char::from_u32(code).unwrap());
                            }
                            other => val.push(other),
                        }
                    } else if c == '"' {
                        break;
                    } else {
                        val.push(c);
                    }
                }
            } else {
                while let Some(&c) = chars.peek() {
                    if c == ',' {
                        break;
                    }
                    val.push(c);
                    chars.next();
                }
            }
            fields.insert(key, val);
            match chars.next() {
                Some(',') => {}
                None => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        fields
    }

    // -- JSON-lines round-trip (satellite: telemetry coverage) --

    #[test]
    fn jsonl_round_trips_metrics_and_events() {
        let mut t = Telemetry::new();
        let c = t.registry.counter("vm.hooks.checks");
        t.registry.add(c, 41);
        let g = t.registry.gauge("prose.aspects.active");
        t.registry.set_gauge(g, -2);
        let h = t.registry.histogram("prose.weave.latency_ns");
        t.registry.record(h, 1500);
        t.journal
            .event(Subsystem::Midas, "midas.ship", "ext/\"quoted\"\n\tid\u{1}");

        let text = t.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);

        let counter = parse_line(lines[0]);
        assert_eq!(counter["type"], "counter");
        assert_eq!(counter["name"], "vm.hooks.checks");
        assert_eq!(counter["value"], "41");

        let gauge = parse_line(lines[1]);
        assert_eq!(gauge["value"], "-2");

        let histo = parse_line(lines[2]);
        assert_eq!(histo["count"], "1");
        assert_eq!(histo["p99"], "1500");

        let ev = parse_line(lines[3]);
        assert_eq!(ev["type"], "event");
        assert_eq!(ev["subsystem"], "midas");
        // Escapes round-trip exactly, control characters included.
        assert_eq!(ev["detail"], "ext/\"quoted\"\n\tid\u{1}");
    }

    #[test]
    fn jsonl_is_canonical() {
        let mut t = Telemetry::new();
        // Registration order differs from name order; export sorts.
        t.registry.counter("b.second");
        t.registry.counter("a.first");
        let once = t.to_json_lines();
        let twice = t.to_json_lines();
        assert_eq!(once, twice, "same state, same bytes");
        assert!(once.lines().next().unwrap().contains("a.first"));
    }

    #[test]
    fn table_renders_all_kinds() {
        let mut t = Telemetry::new();
        let c = t.registry.counter("net.sim.sent");
        t.registry.add(c, 12);
        let g = t.registry.gauge("prose.aspects.active");
        t.registry.set_gauge(g, 3);
        let h = t.registry.histogram("midas.receiver.verify_ns");
        t.registry.record(h, 900);
        let table = render_table(&t.registry);
        assert!(table.contains("net.sim.sent"));
        assert!(table.contains("12"));
        assert!(table.contains("prose.aspects.active"));
        assert!(table.contains("midas.receiver.verify_ns"));
        assert!(table.contains("histogram"));
    }

    #[test]
    fn empty_registry_renders_empty() {
        let t = Telemetry::new();
        assert_eq!(render_table(&t.registry), "");
        assert_eq!(t.to_json_lines(), "");
    }

    // -- Dynamic gauge names (satellite: coverage) --

    /// Builds the same telemetry twice; used for byte-equality checks.
    fn sample_telemetry() -> Telemetry {
        let mut t = Telemetry::new();
        t.journal
            .event(Subsystem::Prose, "prose.weave", "aspect=a1");
        t.journal
            .event(Subsystem::Midas, "midas.verify", "ext/monitoring");
        // Dynamic instance-embedded gauge names, as the simulator mints
        // per-channel (`net.channel.<name>.*`) metrics lazily.
        for ch in ["midas", "rpc", "tuplespace"] {
            let g = t.registry.gauge(&format!("net.channel.{ch}.queue"));
            t.registry.set_gauge(g, 2);
            let c = t.registry.counter(&format!("net.channel.{ch}.bytes"));
            t.registry.add(c, 640);
        }
        t
    }

    #[test]
    fn jsonl_round_trips_dynamic_channel_gauges() {
        let t = sample_telemetry();
        let text = t.to_json_lines();
        let fields: Vec<BTreeMap<String, String>> =
            text.lines().map(parse_line).collect();
        for ch in ["midas", "rpc", "tuplespace"] {
            let gauge = fields
                .iter()
                .find(|f| f["name"] == format!("net.channel.{ch}.queue"))
                .unwrap_or_else(|| panic!("gauge for {ch} exported"));
            assert_eq!(gauge["type"], "gauge");
            assert_eq!(gauge["value"], "2");
            let counter = fields
                .iter()
                .find(|f| f["name"] == format!("net.channel.{ch}.bytes"))
                .unwrap();
            assert_eq!(counter["value"], "640");
        }
    }

    #[test]
    fn identical_runs_export_identical_bytes() {
        let a = sample_telemetry().to_json_lines();
        let b = sample_telemetry().to_json_lines();
        assert_eq!(a, b, "canonical output: same state, same bytes");
        assert_eq!(
            render_table(&sample_telemetry().registry),
            render_table(&sample_telemetry().registry)
        );
    }
}
