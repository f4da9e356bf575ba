//! Plain-text persistence for trajectory datasets.
//!
//! The format is a line-oriented CSV-like record stream, one observation per
//! line:
//!
//! ```text
//! # comment lines start with '#'
//! object_id,timestamp,x,y
//! 17,42,12345.6,-789.0
//! ```
//!
//! It is intentionally simple — enough to snapshot synthetic workloads to
//! disk so that a figure run can be repeated on the exact same data, without
//! pulling in heavier serialization dependencies.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use gpdt_geo::Point;

use crate::database::{DatabaseBuilder, TrajectoryDatabase};
use crate::types::ObjectId;

/// Errors produced while parsing the text format.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure while reading the file.
    Io(io::Error),
    /// A data line did not have exactly four comma-separated fields.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
        /// Number of fields found.
        found: usize,
    },
    /// A field failed to parse as the expected numeric type.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Name of the offending field.
        field: &'static str,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::BadFieldCount { line, found } => {
                write!(f, "line {line}: expected 4 fields, found {found}")
            }
            ParseError::BadField { line, field } => {
                write!(f, "line {line}: could not parse field `{field}`")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Serialises a database to the text format.
pub fn to_string(db: &TrajectoryDatabase) -> String {
    let mut out = String::new();
    out.push_str("# object_id,timestamp,x,y\n");
    for traj in db.iter() {
        for s in traj.samples() {
            // Writing to a String cannot fail.
            let _ = writeln!(
                out,
                "{},{},{},{}",
                traj.id().raw(),
                s.time,
                s.position.x,
                s.position.y
            );
        }
    }
    out
}

/// Parses a database from the text format.
pub fn from_str(text: &str) -> Result<TrajectoryDatabase, ParseError> {
    let mut builder = DatabaseBuilder::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(ParseError::BadFieldCount {
                line: lineno + 1,
                found: fields.len(),
            });
        }
        let id: u32 = fields[0].trim().parse().map_err(|_| ParseError::BadField {
            line: lineno + 1,
            field: "object_id",
        })?;
        let time: u32 = fields[1].trim().parse().map_err(|_| ParseError::BadField {
            line: lineno + 1,
            field: "timestamp",
        })?;
        let x: f64 = fields[2].trim().parse().map_err(|_| ParseError::BadField {
            line: lineno + 1,
            field: "x",
        })?;
        let y: f64 = fields[3].trim().parse().map_err(|_| ParseError::BadField {
            line: lineno + 1,
            field: "y",
        })?;
        builder.push(ObjectId::new(id), time, Point::new(x, y));
    }
    Ok(builder.build())
}

/// Reads a database from a file in the text format.
pub fn read_file(path: impl AsRef<Path>) -> Result<TrajectoryDatabase, ParseError> {
    let text = fs::read_to_string(path)?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Trajectory;
    use crate::types::TimeInterval;

    fn sample_db() -> TrajectoryDatabase {
        TrajectoryDatabase::from_trajectories(vec![
            Trajectory::from_points(ObjectId::new(1), vec![(0, (0.5, 1.5)), (2, (2.5, 3.5))]),
            Trajectory::from_points(ObjectId::new(7), vec![(1, (-4.0, 9.0))]),
        ])
    }

    #[test]
    fn roundtrip_through_string() {
        let db = sample_db();
        let text = to_string(&db);
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed.len(), db.len());
        assert_eq!(parsed.total_samples(), db.total_samples());
        assert_eq!(
            parsed.get(ObjectId::new(1)).unwrap().samples(),
            db.get(ObjectId::new(1)).unwrap().samples()
        );
        assert_eq!(parsed.time_domain(), Some(TimeInterval::new(0, 2)));
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join("gpdt_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.traj");
        let db = sample_db();
        std::fs::write(&path, to_string(&db)).unwrap();
        let parsed = read_file(&path).unwrap();
        assert_eq!(parsed.total_samples(), db.total_samples());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n1,0,1.0,2.0\n   \n# trailing comment\n";
        let db = from_str(text).unwrap();
        assert_eq!(db.total_samples(), 1);
    }

    #[test]
    fn bad_field_count_reports_line() {
        let err = from_str("1,0,1.0\n").unwrap_err();
        match err {
            ParseError::BadFieldCount { line, found } => {
                assert_eq!(line, 1);
                assert_eq!(found, 3);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn bad_numeric_field_reports_field_name() {
        let err = from_str("1,zero,1.0,2.0\n").unwrap_err();
        match err {
            ParseError::BadField { line, field } => {
                assert_eq!(line, 1);
                assert_eq!(field, "timestamp");
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(from_str("x,0,1.0,2.0\n").is_err());
        assert!(from_str("1,0,one,2.0\n").is_err());
        assert!(from_str("1,0,1.0,two\n").is_err());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_file("/nonexistent/definitely/missing.traj").unwrap_err();
        assert!(matches!(err, ParseError::Io(_)));
        assert!(err.to_string().contains("i/o error"));
    }
}
