//! Chrome `trace_event` output.
//!
//! Completed spans are buffered as [`TraceEvent`]s and rendered with
//! [`to_chrome_trace`] into the JSON array format that
//! `chrome://tracing` / Perfetto's legacy loader accept: complete events
//! (`"ph": "X"`) with microsecond timestamps relative to process start.

use crate::json::escape;

/// One completed span, ready for the Chrome trace viewer.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span label (the leaf name, not the full path).
    pub name: &'static str,
    /// Microseconds from the registry epoch to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Logical thread id (assigned round-robin on a thread's first span).
    pub tid: u64,
}

/// Renders events as a Chrome `trace_event` JSON array document.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
            escape(e.name),
            e.tid,
            e.start_us,
            e.dur_us
        ));
    }
    if !events.is_empty() {
        out.push('\n');
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn chrome_trace_is_valid_json_with_required_keys() {
        let events = vec![
            TraceEvent {
                name: "sline.hashmap",
                start_us: 10,
                dur_us: 250,
                tid: 0,
            },
            TraceEvent {
                name: "bfs",
                start_us: 300,
                dur_us: 40,
                tid: 3,
            },
        ];
        let v = parse(&to_chrome_trace(&events)).expect("chrome trace must parse");
        let arr = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 2);
        for e in arr {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_u64().is_some());
            assert!(e.get("dur").unwrap().as_u64().is_some());
            assert!(e.get("tid").unwrap().as_u64().is_some());
        }
        assert_eq!(arr[1].get("name").unwrap().as_str(), Some("bfs"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let v = parse(&to_chrome_trace(&[])).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }
}
