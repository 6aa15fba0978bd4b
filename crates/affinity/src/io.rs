//! Plain-text (CSV) serialization for routing traces.
//!
//! The ExFlow workflow is offline-profile → store → load-at-deploy: traces
//! are recorded where the model runs, but the placement is solved where the
//! model is *deployed* (the whole point is adapting to that cluster's
//! topology). The trace file is the interchange artifact.

use std::fmt;

use crate::trace::RoutingTrace;

/// Parse errors for the trace format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Input was empty.
    Empty,
    /// A cell failed to parse as the expected number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending cell text.
        cell: String,
    },
    /// A row had a different number of cells than the first row.
    RaggedRow {
        /// 1-based line number.
        line: usize,
    },
    /// Header metadata was missing or malformed.
    BadHeader,
    /// An expert id parsed but is not below the header's `experts`.
    OutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending cell text.
        cell: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Empty => write!(f, "empty input"),
            IoError::BadNumber { line, cell } => {
                write!(f, "line {line}: cannot parse `{cell}` as a number")
            }
            IoError::RaggedRow { line } => write!(f, "line {line}: inconsistent column count"),
            IoError::BadHeader => write!(f, "missing or malformed header line"),
            IoError::OutOfRange { line, cell } => {
                write!(f, "line {line}: `{cell}` is out of range")
            }
        }
    }
}

impl std::error::Error for IoError {}

/// Serialize a trace: a header `# experts=E` followed by one CSV row of
/// per-layer expert ids per token.
pub fn write_trace_csv(trace: &RoutingTrace) -> String {
    let mut out = String::with_capacity(trace.n_tokens() * trace.n_layers() * 3);
    out.push_str(&format!("# experts={}\n", trace.n_experts()));
    for path in trace.paths() {
        let cells: Vec<String> = path.iter().map(|e| e.to_string()).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Parse the format produced by [`write_trace_csv`].
pub fn parse_trace_csv(text: &str) -> Result<RoutingTrace, IoError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(IoError::Empty)?;
    let n_experts: usize = header
        .strip_prefix("# experts=")
        .and_then(|s| s.trim().parse().ok())
        .ok_or(IoError::BadHeader)?;

    let mut paths: Vec<Vec<u16>> = Vec::new();
    let mut width: Option<usize> = None;
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut row = Vec::new();
        for cell in line.split(',') {
            let v: u16 = cell.trim().parse().map_err(|_| IoError::BadNumber {
                line: idx + 1,
                cell: cell.to_string(),
            })?;
            if usize::from(v) >= n_experts {
                return Err(IoError::OutOfRange {
                    line: idx + 1,
                    cell: cell.to_string(),
                });
            }
            row.push(v);
        }
        match width {
            None => width = Some(row.len()),
            Some(w) if w != row.len() => return Err(IoError::RaggedRow { line: idx + 1 }),
            _ => {}
        }
        paths.push(row);
    }
    if paths.is_empty() {
        return Err(IoError::Empty);
    }
    Ok(RoutingTrace::new(paths, n_experts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exflow_model::routing::AffinityModelSpec;
    use exflow_model::{CorpusSpec, TokenBatch};

    fn trace() -> RoutingTrace {
        let model = AffinityModelSpec::new(5, 8).build();
        let batch = TokenBatch::sample(&model, &CorpusSpec::pile_proxy(4), 200, 1, 77);
        RoutingTrace::from_batch(&batch, 8)
    }

    #[test]
    fn trace_round_trip() {
        let t = trace();
        let text = write_trace_csv(&t);
        let parsed = parse_trace_csv(&text).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(parse_trace_csv(""), Err(IoError::Empty));
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(parse_trace_csv("hello\n1,2\n"), Err(IoError::BadHeader));
    }

    #[test]
    fn bad_number_reported_with_line() {
        let err = parse_trace_csv("# experts=4\n1,2\n1,x\n").unwrap_err();
        assert_eq!(
            err,
            IoError::BadNumber {
                line: 3,
                cell: "x".into()
            }
        );
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = parse_trace_csv("# experts=4\n1,2\n1,2,3\n").unwrap_err();
        assert_eq!(err, IoError::RaggedRow { line: 3 });
    }

    #[test]
    fn out_of_range_values_are_errors_not_panics() {
        let out_of_range = |line, cell: &str| {
            Some(IoError::OutOfRange {
                line,
                cell: cell.into(),
            })
        };
        let trace = |text| parse_trace_csv(text).err();
        assert_eq!(trace("# experts=4\n7\n"), out_of_range(2, "7"));
        assert_eq!(trace("# experts=0\n0\n"), out_of_range(2, "0"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::BadNumber {
            line: 7,
            cell: "zz".into(),
        };
        assert!(e.to_string().contains('7') && e.to_string().contains("zz"));
    }
}
