//! CSV ingestion with schema inference.
//!
//! The paper loads its datasets into PostgreSQL and bucketizes them there
//! (Sec. 6.1). This module is the equivalent ingestion path: read a
//! delimited file, infer per-column types (numeric columns get equi-width
//! bins, everything else becomes dictionary-coded categorical), and produce
//! a [`Table`] plus the dictionaries needed to translate user queries.

use crate::binning::Binner;
use crate::dictionary::Dictionary;
use crate::error::{Result, StorageError};
use crate::schema::{AttrId, Attribute, Schema};
use crate::table::Table;

/// Per-column ingestion policy.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSpec {
    /// Infer: numeric if every non-empty value parses as a number,
    /// categorical otherwise.
    Auto,
    /// Force dictionary-coded categorical.
    Categorical,
    /// Force numeric with this many equi-width bins.
    Numeric {
        /// Number of equi-width buckets.
        bins: usize,
    },
}

/// Ingestion options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first row is a header (default true).
    pub header: bool,
    /// Default bin count for inferred numeric columns.
    pub default_bins: usize,
    /// Per-column overrides by position; missing entries mean [`ColumnSpec::Auto`].
    pub columns: Vec<ColumnSpec>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            header: true,
            default_bins: 64,
            columns: Vec::new(),
        }
    }
}

/// A loaded dataset: the coded table plus per-column dictionaries for
/// translating between user values and dense codes.
#[derive(Debug, Clone)]
pub struct CsvDataset {
    /// The dictionary-encoded relation.
    pub table: Table,
    /// Dictionaries for categorical columns (`None` for numeric columns).
    pub dictionaries: Vec<Option<Dictionary>>,
}

impl CsvDataset {
    /// Translates a user-facing value of `attr` to its dense code:
    /// dictionary lookup for categorical columns, binning for numeric ones.
    pub fn code_of(&self, attr: AttrId, value: &str) -> Result<u32> {
        let attribute = self.table.schema().attr(attr)?;
        match (&self.dictionaries[attr.0], attribute.binner()) {
            (Some(dict), _) => dict
                .code(value)
                .ok_or_else(|| StorageError::UnknownAttribute(value.to_string())),
            (None, Some(binner)) => {
                let x: f64 = value
                    .parse()
                    .map_err(|_| StorageError::UnknownAttribute(value.to_string()))?;
                Ok(binner.bin(x))
            }
            (None, None) => Err(StorageError::UnknownAttribute(value.to_string())),
        }
    }

    /// Human-readable label of a code (dictionary value or bin bounds).
    pub fn label_of(&self, attr: AttrId, code: u32) -> Result<String> {
        let attribute = self.table.schema().attr(attr)?;
        Ok(match (&self.dictionaries[attr.0], attribute.binner()) {
            (Some(dict), _) => dict.value(code).unwrap_or("?").to_string(),
            (None, Some(binner)) => {
                let (lo, hi) = binner.bin_bounds(code);
                format!("[{lo:.3}, {hi:.3})")
            }
            (None, None) => code.to_string(),
        })
    }
}

/// Splits one CSV line (no quoting support — the evaluation datasets are
/// plain numeric/word fields; quoted-field support is future work).
fn split_line(line: &str, delimiter: char) -> Vec<String> {
    line.split(delimiter)
        .map(|s| s.trim().to_string())
        .collect()
}

/// Parses CSV text into a dataset.
pub fn load_str(text: &str, options: &CsvOptions) -> Result<CsvDataset> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));

    let (names, first_data): (Vec<String>, Option<Vec<String>>) = if options.header {
        let header = lines.next().ok_or_else(|| StorageError::SchemaMismatch {
            reason: "CSV input is empty (no header line)".to_string(),
        })?;
        (split_line(header, options.delimiter), None)
    } else {
        let first = lines.next().map(|l| split_line(l, options.delimiter));
        let count = first.as_ref().map_or(0, Vec::len);
        ((0..count).map(|i| format!("col{i}")).collect(), first)
    };
    let arity = names.len();
    if arity == 0 {
        return Err(StorageError::SchemaMismatch {
            reason: "CSV input has no columns".to_string(),
        });
    }

    // Materialize raw rows.
    let mut raw: Vec<Vec<String>> = Vec::new();
    if let Some(row) = first_data {
        raw.push(row);
    }
    for line in lines {
        let row = split_line(line, options.delimiter);
        if row.len() != arity {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                got: row.len(),
            });
        }
        raw.push(row);
    }
    if raw.is_empty() {
        return Err(StorageError::SchemaMismatch {
            reason: "CSV input has no data rows".to_string(),
        });
    }

    // Infer column kinds.
    let spec_of = |i: usize| options.columns.get(i).cloned().unwrap_or(ColumnSpec::Auto);
    let mut attributes = Vec::with_capacity(arity);
    let mut dictionaries: Vec<Option<Dictionary>> = Vec::with_capacity(arity);
    let mut binners: Vec<Option<Binner>> = Vec::with_capacity(arity);

    for i in 0..arity {
        let numeric = match spec_of(i) {
            ColumnSpec::Categorical => None,
            ColumnSpec::Numeric { bins } => Some(bins),
            ColumnSpec::Auto => raw
                .iter()
                .all(|r| r[i].parse::<f64>().is_ok())
                .then_some(options.default_bins),
        };
        match numeric {
            Some(bins) => {
                let values: Vec<f64> = raw
                    .iter()
                    .map(|r| {
                        r[i].parse::<f64>()
                            .map_err(|_| StorageError::CodeOutOfDomain {
                                attr: names[i].clone(),
                                code: 0,
                                domain_size: 0,
                            })
                    })
                    .collect::<Result<_>>()?;
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                // Degenerate constant columns get a tiny positive width.
                let hi = if hi > lo { hi } else { lo + 1.0 };
                let binner = Binner::new(lo, hi, bins.max(1))?;
                attributes.push(Attribute::binned(&names[i], binner.clone()));
                dictionaries.push(None);
                binners.push(Some(binner));
            }
            None => {
                let mut dict = Dictionary::new();
                for r in &raw {
                    dict.intern(r[i].clone());
                }
                attributes.push(Attribute::categorical(&names[i], dict.len())?);
                dictionaries.push(Some(dict));
                binners.push(None);
            }
        }
    }

    // Encode rows.
    let schema = Schema::new(attributes);
    let mut table = Table::with_capacity(schema, raw.len());
    let mut coded = vec![0u32; arity];
    for row in &raw {
        for i in 0..arity {
            coded[i] = match (&dictionaries[i], &binners[i]) {
                (Some(dict), _) => dict.code(&row[i]).expect("interned above"),
                (None, Some(binner)) => binner.bin(row[i].parse::<f64>().expect("validated")),
                (None, None) => unreachable!("every column is categorical or binned"),
            };
        }
        table.push_row(&coded)?;
    }

    Ok(CsvDataset {
        table,
        dictionaries,
    })
}

/// Loads a CSV file from disk.
pub fn load_file(path: &std::path::Path, options: &CsvOptions) -> Result<CsvDataset> {
    let text = std::fs::read_to_string(path).map_err(|e| StorageError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    load_str(&text, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
origin,dest,distance
CA,NY,2500
CA,FL,2300
NY,CA,2500
WA,CA,700
CA,NY,2450
";

    #[test]
    fn infers_categorical_and_numeric() {
        let d = load_str(SAMPLE, &CsvOptions::default()).unwrap();
        let schema = d.table.schema();
        assert_eq!(schema.arity(), 3);
        assert_eq!(schema.attr(AttrId(0)).unwrap().name(), "origin");
        assert!(d.dictionaries[0].is_some());
        assert!(d.dictionaries[1].is_some());
        assert!(d.dictionaries[2].is_none()); // numeric
        assert_eq!(d.table.num_rows(), 5);
        assert!(schema.attr(AttrId(2)).unwrap().binner().is_some());
    }

    #[test]
    fn code_translation_round_trips() {
        let d = load_str(SAMPLE, &CsvOptions::default()).unwrap();
        let ca = d.code_of(AttrId(0), "CA").unwrap();
        assert_eq!(d.label_of(AttrId(0), ca).unwrap(), "CA");
        // Numeric values map through the binner.
        let code = d.code_of(AttrId(2), "2500").unwrap();
        let label = d.label_of(AttrId(2), code).unwrap();
        assert!(label.starts_with('['));
        assert!(d.code_of(AttrId(0), "TX").is_err());
        assert!(d.code_of(AttrId(2), "not-a-number").is_err());
    }

    #[test]
    fn counts_match_raw_data() {
        let d = load_str(SAMPLE, &CsvOptions::default()).unwrap();
        let ca = d.code_of(AttrId(0), "CA").unwrap();
        let c = crate::exec::count(
            &d.table,
            &crate::predicate::Predicate::new().eq(AttrId(0), ca),
        )
        .unwrap();
        assert_eq!(c, 3);
    }

    #[test]
    fn forced_column_specs() {
        // Treat distance as categorical, and force 4 bins if numeric.
        let mut options = CsvOptions {
            columns: vec![ColumnSpec::Auto, ColumnSpec::Auto, ColumnSpec::Categorical],
            ..CsvOptions::default()
        };
        let d = load_str(SAMPLE, &options).unwrap();
        assert!(d.dictionaries[2].is_some());
        assert_eq!(d.table.schema().domain_size(AttrId(2)).unwrap(), 4); // 2500,2300,700,2450

        options.columns = vec![
            ColumnSpec::Auto,
            ColumnSpec::Auto,
            ColumnSpec::Numeric { bins: 4 },
        ];
        let d = load_str(SAMPLE, &options).unwrap();
        assert_eq!(d.table.schema().domain_size(AttrId(2)).unwrap(), 4);
        assert!(d.dictionaries[2].is_none());
    }

    #[test]
    fn headerless_and_custom_delimiter() {
        let text = "a|1\nb|2\na|3\n";
        let options = CsvOptions {
            delimiter: '|',
            header: false,
            ..CsvOptions::default()
        };
        let d = load_str(text, &options).unwrap();
        assert_eq!(d.table.num_rows(), 3);
        assert_eq!(d.table.schema().attr(AttrId(0)).unwrap().name(), "col0");
    }

    #[test]
    fn ragged_rows_rejected() {
        let text = "a,b\n1,2\n3\n";
        assert!(matches!(
            load_str(text, &CsvOptions::default()),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn empty_and_comment_lines_skipped() {
        let text = "# comment\na,b\n\n1,x\n# another\n2,y\n";
        let d = load_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(d.table.num_rows(), 2);
    }

    #[test]
    fn constant_numeric_column_is_safe() {
        let text = "v\n5\n5\n5\n";
        let d = load_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(d.table.num_rows(), 3);
        // All rows land in bin 0.
        assert!(d
            .table
            .column(AttrId(0))
            .unwrap()
            .codes()
            .iter()
            .all(|&c| c == 0));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(load_str("", &CsvOptions::default()).is_err());
        assert!(load_str("a,b\n", &CsvOptions::default()).is_err());
    }
}
