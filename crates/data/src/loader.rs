//! Loading real datasets: CSV (label in a chosen column) and LIBSVM
//! sparse format — the two formats the paper's ten datasets ship in.
//!
//! The synthetic twins drive the reproduction, but a downstream user can
//! point these loaders at the actual UCI/Kaggle/LIBSVM files and run the
//! identical pipeline.

use crate::dataset::{Dataset, FeatureKind};
use std::fmt;
use std::path::Path;
use vfps_ml::linalg::Matrix;

/// Loader errors.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and description).
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The file contained no usable rows.
    Empty,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line, message } => write!(f, "line {line}: {message}"),
            LoadError::Empty => write!(f, "no data rows found"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// CSV parsing options.
#[derive(Clone, Debug)]
pub struct CsvOptions {
    /// Field separator.
    pub delimiter: char,
    /// Whether the first line is a header to skip.
    pub has_header: bool,
    /// Zero-based index of the label column (negative values count from
    /// the end: -1 is the last column).
    pub label_column: i64,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions { delimiter: ',', has_header: true, label_column: -1 }
    }
}

/// Parses CSV text into a [`Dataset`]. Labels may be integers or arbitrary
/// strings (mapped to class ids in first-appearance order).
///
/// # Errors
/// Returns [`LoadError`] on ragged rows, non-numeric features, or empty
/// input.
pub fn parse_csv(text: &str, opts: &CsvOptions, name: &str) -> Result<Dataset, LoadError> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let mut class_names: Vec<String> = Vec::new();
    let mut width: Option<usize> = None;

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if idx == 0 && opts.has_header {
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(opts.delimiter).map(str::trim).collect();
        let label_idx = if opts.label_column < 0 {
            let from_end = (-opts.label_column) as usize;
            if from_end > fields.len() {
                return Err(LoadError::Parse {
                    line: line_no,
                    message: format!("label column {} out of range", opts.label_column),
                });
            }
            fields.len() - from_end
        } else {
            opts.label_column as usize
        };
        if label_idx >= fields.len() {
            return Err(LoadError::Parse {
                line: line_no,
                message: format!("label column {} out of range", opts.label_column),
            });
        }
        match width {
            None => width = Some(fields.len()),
            Some(w) if w != fields.len() => {
                return Err(LoadError::Parse {
                    line: line_no,
                    message: format!("expected {w} fields, found {}", fields.len()),
                })
            }
            Some(_) => {}
        }
        let label_text = fields[label_idx];
        let class = match class_names.iter().position(|c| c == label_text) {
            Some(c) => c,
            None => {
                class_names.push(label_text.to_owned());
                class_names.len() - 1
            }
        };
        let mut feat = Vec::with_capacity(fields.len() - 1);
        for (fi, field) in fields.iter().enumerate() {
            if fi == label_idx {
                continue;
            }
            let v: f64 = field.parse().map_err(|_| LoadError::Parse {
                line: line_no,
                message: format!("non-numeric feature value {field:?}"),
            })?;
            feat.push(v);
        }
        rows.push(feat);
        labels.push(class);
    }
    if rows.is_empty() {
        return Err(LoadError::Empty);
    }
    let f = rows[0].len();
    Ok(Dataset {
        x: Matrix::from_rows(&rows),
        y: labels,
        n_classes: class_names.len(),
        feature_kinds: vec![FeatureKind::Informative; f],
        name: name.to_owned(),
    })
}

/// Loads a CSV file.
///
/// # Errors
/// Propagates I/O and parse failures.
pub fn load_csv(path: &Path, opts: &CsvOptions) -> Result<Dataset, LoadError> {
    let text = std::fs::read_to_string(path)?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("csv").to_owned();
    parse_csv(&text, opts, &name)
}

/// Parses LIBSVM sparse text (`label idx:val idx:val ...`, 1-based
/// indices). Labels may be any integers (e.g. ±1); they are remapped to
/// `0..C` in first-appearance order.
///
/// # Errors
/// Returns [`LoadError`] on malformed entries or empty input.
pub fn parse_libsvm(text: &str, name: &str) -> Result<Dataset, LoadError> {
    let mut entries: Vec<(Vec<(usize, f64)>, usize)> = Vec::new();
    let mut class_names: Vec<String> = Vec::new();
    let mut max_index = 0usize;

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.split('#').next().unwrap_or("").trim();
        if trimmed.is_empty() {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let label_text = parts.next().expect("non-empty line has a first token");
        let class = match class_names.iter().position(|c| c == label_text) {
            Some(c) => c,
            None => {
                class_names.push(label_text.to_owned());
                class_names.len() - 1
            }
        };
        let mut feats = Vec::new();
        for tok in parts {
            let (i_str, v_str) = tok.split_once(':').ok_or_else(|| LoadError::Parse {
                line: line_no,
                message: format!("expected idx:val, found {tok:?}"),
            })?;
            let i: usize = i_str.parse().map_err(|_| LoadError::Parse {
                line: line_no,
                message: format!("bad feature index {i_str:?}"),
            })?;
            if i == 0 {
                return Err(LoadError::Parse {
                    line: line_no,
                    message: "LIBSVM indices are 1-based".to_owned(),
                });
            }
            let v: f64 = v_str.parse().map_err(|_| LoadError::Parse {
                line: line_no,
                message: format!("bad feature value {v_str:?}"),
            })?;
            max_index = max_index.max(i);
            feats.push((i - 1, v));
        }
        entries.push((feats, class));
    }
    if entries.is_empty() {
        return Err(LoadError::Empty);
    }
    let mut x = Matrix::zeros(entries.len(), max_index);
    let mut y = Vec::with_capacity(entries.len());
    for (r, (feats, class)) in entries.into_iter().enumerate() {
        for (c, v) in feats {
            x.set(r, c, v);
        }
        y.push(class);
    }
    Ok(Dataset {
        x,
        y,
        n_classes: class_names.len(),
        feature_kinds: vec![FeatureKind::Informative; max_index],
        name: name.to_owned(),
    })
}

/// Loads a LIBSVM file.
///
/// # Errors
/// Propagates I/O and parse failures.
pub fn load_libsvm(path: &Path) -> Result<Dataset, LoadError> {
    let text = std::fs::read_to_string(path)?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("libsvm").to_owned();
    parse_libsvm(&text, &name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_basic() {
        let text = "a,b,label\n1.0,2.0,yes\n3.0,4.0,no\n0.5,0.25,yes\n";
        let ds = parse_csv(text, &CsvOptions::default(), "t").unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes, 2);
        assert_eq!(ds.y, vec![0, 1, 0]);
        assert_eq!(ds.x.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn csv_label_column_first() {
        let opts = CsvOptions { label_column: 0, has_header: false, delimiter: ';' };
        let ds = parse_csv("1;5.0;6.0\n0;7.0;8.0\n", &opts, "t").unwrap();
        assert_eq!(ds.x.row(0), &[5.0, 6.0]);
        assert_eq!(ds.y, vec![0, 1]);
    }

    #[test]
    fn csv_skips_blank_lines() {
        let ds = parse_csv("h1,h2\n1.0,x\n\n2.0,y\n", &CsvOptions::default(), "t").unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn csv_errors_are_located() {
        let err = parse_csv("a,b\n1.0,c,extra\n", &CsvOptions::default(), "t").unwrap_err();
        match err {
            LoadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other}"),
        }
        let err2 = parse_csv("a,b\nnotnum,c\n", &CsvOptions::default(), "t").unwrap_err();
        assert!(matches!(err2, LoadError::Parse { .. }));
        assert!(matches!(
            parse_csv("h1,h2\n", &CsvOptions::default(), "t").unwrap_err(),
            LoadError::Empty
        ));
    }

    #[test]
    fn libsvm_basic() {
        let text = "+1 1:0.5 3:1.5\n-1 2:2.0\n+1 1:1.0 2:1.0 3:1.0\n";
        let ds = parse_libsvm(text, "t").unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.n_features(), 3);
        assert_eq!(ds.y, vec![0, 1, 0]);
        assert_eq!(ds.x.row(0), &[0.5, 0.0, 1.5]);
        assert_eq!(ds.x.row(1), &[0.0, 2.0, 0.0]);
    }

    #[test]
    fn libsvm_comments_and_errors() {
        let ds = parse_libsvm("1 1:1.0 # trailing comment\n# whole-line\n2 1:2.0\n", "t").unwrap();
        assert_eq!(ds.len(), 2);
        assert!(matches!(
            parse_libsvm("1 0:1.0\n", "t").unwrap_err(),
            LoadError::Parse { line: 1, .. }
        ));
        assert!(matches!(parse_libsvm("1 banana\n", "t").unwrap_err(), LoadError::Parse { .. }));
    }

    #[test]
    fn loaded_dataset_flows_through_pipeline_types() {
        // A loaded dataset plugs into the same partition/split machinery.
        let text: String = (0..40)
            .map(|i| format!("{},{},{}\n", i as f64 * 0.1, (40 - i) as f64 * 0.2, i % 2))
            .collect();
        let opts = CsvOptions { has_header: false, ..Default::default() };
        let ds = parse_csv(&text, &opts, "flow").unwrap();
        let split = crate::Split::paper_split(ds.len(), 1);
        let partition = crate::VerticalPartition::even(ds.n_features(), 2);
        assert_eq!(split.train.len(), 32);
        assert_eq!(partition.parties(), 2);
    }

    /// A file under the system temp dir, removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(name: &str, text: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("vfps-loader-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = self.0.parent().map(std::fs::remove_dir);
        }
    }

    #[test]
    fn load_csv_reads_the_file_and_names_it_by_stem() {
        let file = TempFile::new("rice_twin.csv", "a,b,c\n1,2,x\n3,4,y\n");
        let ds = load_csv(&file.0, &CsvOptions::default()).unwrap();
        assert_eq!(ds.name, "rice_twin");
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.x.row(1), &[3.0, 4.0]);
        assert_eq!(ds.y, vec![0, 1]);
    }

    #[test]
    fn load_libsvm_reads_the_file_and_names_it_by_stem() {
        let file = TempFile::new("a9a_twin.libsvm", "1 2:0.5\n0 1:1.5\n");
        let ds = load_libsvm(&file.0).unwrap();
        assert_eq!(ds.name, "a9a_twin");
        assert_eq!(ds.x.row(0), &[0.0, 0.5]);
        assert_eq!(ds.x.row(1), &[1.5, 0.0]);
    }

    #[test]
    fn a_missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("vfps-loader-no-such-dir").join("none.csv");
        let csv = load_csv(&path, &CsvOptions::default()).unwrap_err();
        assert!(matches!(csv, LoadError::Io(_)), "{csv}");
        assert!(csv.to_string().starts_with("i/o error: "));
        assert!(matches!(load_libsvm(&path).unwrap_err(), LoadError::Io(_)));
    }

    #[test]
    fn csv_label_column_out_of_range_is_located() {
        for label_column in [5, -4] {
            let opts = CsvOptions { label_column, has_header: false, delimiter: ',' };
            match parse_csv("1,2,3\n", &opts, "t").unwrap_err() {
                LoadError::Parse { line, message } => {
                    assert_eq!(line, 1);
                    assert_eq!(message, format!("label column {label_column} out of range"));
                }
                other => panic!("unexpected {other}"),
            }
        }
    }

    #[test]
    fn load_errors_display_their_location() {
        let parse = LoadError::Parse { line: 7, message: "bad".into() };
        assert_eq!(parse.to_string(), "line 7: bad");
        assert_eq!(LoadError::Empty.to_string(), "no data rows found");
        assert!(matches!(parse_libsvm("\n# only a comment\n", "t").unwrap_err(), LoadError::Empty));
    }
}
