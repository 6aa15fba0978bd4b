//! Text serialization of placements — the deployable artifact ExFlow's
//! offline stage hands to the model loader ("variable x^p_{i,j} in the
//! solution will be directly used as the expert placement strategy when
//! loading the MoE model to GPUs", paper §IV-D).

use std::fmt;

use crate::placement::Placement;

/// Parse errors for the placement text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementIoError {
    /// Input was empty or the header was malformed.
    BadHeader,
    /// A cell failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Offending cell.
        cell: String,
    },
    /// A layer row had the wrong number of experts.
    RaggedRow {
        /// 1-based line number.
        line: usize,
    },
    /// The parsed table violates the balance/ownership constraints.
    Invalid(String),
}

impl fmt::Display for PlacementIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementIoError::BadHeader => write!(f, "missing or malformed header"),
            PlacementIoError::BadNumber { line, cell } => {
                write!(f, "line {line}: cannot parse `{cell}`")
            }
            PlacementIoError::RaggedRow { line } => {
                write!(f, "line {line}: wrong expert count")
            }
            PlacementIoError::Invalid(msg) => write!(f, "invalid placement: {msg}"),
        }
    }
}

impl std::error::Error for PlacementIoError {}

/// Serialize: header `# units=P experts=E layers=L`, then one CSV row per
/// layer where cell `i` is the unit owning expert `i`.
pub fn write_placement(p: &Placement) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# units={} experts={} layers={}\n",
        p.n_units(),
        p.n_experts(),
        p.n_layers()
    ));
    for layer in 0..p.n_layers() {
        let cells: Vec<String> = p.layer(layer).iter().map(|u| u.to_string()).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Parse the format produced by [`write_placement`], re-validating the ILP
/// constraints (balance, exclusive ownership) on the way in.
pub fn parse_placement(text: &str) -> Result<Placement, PlacementIoError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(PlacementIoError::BadHeader)?;
    let field = |name: &str| -> Option<usize> {
        header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .and_then(|s| s.parse().ok())
    };
    let units = field("units").ok_or(PlacementIoError::BadHeader)?;
    let experts = field("experts").ok_or(PlacementIoError::BadHeader)?;
    let layers = field("layers").ok_or(PlacementIoError::BadHeader)?;

    // Sized by the rows actually read, never by the header's claim.
    let mut assign: Vec<Vec<usize>> = Vec::new();
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let row: Result<Vec<usize>, _> = line
            .split(',')
            .map(|cell| {
                cell.trim()
                    .parse::<usize>()
                    .map_err(|_| PlacementIoError::BadNumber {
                        line: idx + 1,
                        cell: cell.to_string(),
                    })
            })
            .collect();
        let row = row?;
        if row.len() != experts {
            return Err(PlacementIoError::RaggedRow { line: idx + 1 });
        }
        assign.push(row);
    }
    if assign.len() != layers {
        return Err(PlacementIoError::Invalid(format!(
            "expected {layers} layers, found {}",
            assign.len()
        )));
    }
    // Placement::new panics on constraint violations; convert to an error.
    std::panic::catch_unwind(|| Placement::new(assign, units))
        .map_err(|_| PlacementIoError::Invalid("balance or ownership violated".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let p = Placement::round_robin(4, 8, 2);
        let text = write_placement(&p);
        assert_eq!(parse_placement(&text).unwrap(), p);
    }

    #[test]
    fn header_carries_dimensions() {
        let p = Placement::round_robin(3, 6, 3);
        let text = write_placement(&p);
        assert!(text.starts_with("# units=3 experts=6 layers=3\n"));
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(
            parse_placement("nonsense\n0,0,1,1\n"),
            Err(PlacementIoError::BadHeader)
        );
    }

    #[test]
    fn unbalanced_rejected() {
        let text = "# units=2 experts=4 layers=1\n0,0,0,1\n";
        match parse_placement(text) {
            Err(PlacementIoError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn missing_layers_rejected() {
        let text = "# units=2 experts=4 layers=2\n0,0,1,1\n";
        match parse_placement(text) {
            Err(PlacementIoError::Invalid(msg)) => assert!(msg.contains("expected 2")),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn bad_cell_reported() {
        let text = "# units=2 experts=2 layers=1\n0,q\n";
        assert_eq!(
            parse_placement(text),
            Err(PlacementIoError::BadNumber {
                line: 2,
                cell: "q".into()
            })
        );
    }
}
