//! Featurization operators (the ONNX-ML "data transformers" of §3):
//! scalers, encoders, imputer, binarizer, normalizer, concat, feature
//! extractor, and constant nodes.

use crate::error::{MlError, Result};
use crate::frame::{FrameValue, Matrix};
use raven_columnar::FastMap;
use serde::{Deserialize, Serialize};

/// Standard/affine scaler: `y = (x - offset) * scale` per feature column
/// (ONNX `Scaler` semantics, matching the paper's §4.1 constant propagation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    /// Per-feature offsets (typically the training means).
    pub offsets: Vec<f64>,
    /// Per-feature scales (typically `1 / std`).
    pub scales: Vec<f64>,
}

impl Scaler {
    /// Identity scaler over `width` features.
    pub fn identity(width: usize) -> Self {
        Scaler {
            offsets: vec![0.0; width],
            scales: vec![1.0; width],
        }
    }

    /// Apply to a numeric matrix.
    pub fn transform(&self, input: &Matrix) -> Result<Matrix> {
        if input.cols() != self.offsets.len() || input.cols() != self.scales.len() {
            return Err(MlError::ShapeMismatch(format!(
                "scaler configured for {} features, input has {}",
                self.offsets.len(),
                input.cols()
            )));
        }
        let cols = input.cols();
        let mut data = Vec::with_capacity(input.data().len());
        if cols > 0 {
            for row in input.data().chunks_exact(cols) {
                for ((&v, &o), &s) in row.iter().zip(&self.offsets).zip(&self.scales) {
                    data.push((v - o) * s);
                }
            }
        }
        Matrix::new(input.rows(), cols, data)
    }

    /// Transform a single scalar for feature `col` (used when propagating
    /// predicate constants through the scaler at optimization time).
    pub fn transform_scalar(&self, col: usize, value: f64) -> Result<f64> {
        if col >= self.offsets.len() {
            return Err(MlError::ShapeMismatch(format!(
                "feature {col} out of range for scaler width {}",
                self.offsets.len()
            )));
        }
        Ok((value - self.offsets[col]) * self.scales[col])
    }

    /// Restrict the scaler to the given feature columns (densification).
    pub fn select(&self, indices: &[usize]) -> Result<Scaler> {
        let mut offsets = Vec::with_capacity(indices.len());
        let mut scales = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.offsets.len() {
                return Err(MlError::ShapeMismatch(format!(
                    "feature {i} out of range for scaler width {}",
                    self.offsets.len()
                )));
            }
            offsets.push(self.offsets[i]);
            scales.push(self.scales[i]);
        }
        Ok(Scaler { offsets, scales })
    }

    /// Width of the scaler (inputs == outputs).
    pub fn width(&self) -> usize {
        self.offsets.len()
    }
}

/// Precomputed category → output-index lookup shared by the interpreted
/// encoders and the fused featurization kernels.
///
/// The interpreted encoders used to do an O(#categories) linear scan per row,
/// and — for numeric inputs — allocate a fresh `format!` String per row just
/// to compare it against the category list. This table is built once (per
/// `transform` call on the interpreted path, once at compile time on the
/// fused path) and answers every lookup without allocating:
///
/// * strings hash straight into `by_string`. Both maps use the shared
///   [`raven_columnar::hash`] hasher, not SipHash: their keys come from the
///   model's category list, and a request only looks values up;
/// * numeric values compare **numerically**: a category string `c` matches a
///   value `v` iff `format_numeric_category(v) == c`, which holds iff `c`
///   parses to a float that round-trips through the formatter and equals `v`
///   (`format_numeric_category` is value-faithful, so distinct values never
///   share a rendering, and `-0.0` renders like `0.0`). The one value whose
///   equality is not numeric is NaN (`format!` renders it `"NaN"`), kept as
///   an explicit index;
/// * `i64`/bool-sourced categorical columns (which the runtime renders via
///   `to_string`) use an exact integer table.
#[derive(Debug, Clone, Default)]
pub struct CategoryTable {
    by_string: FastMap<String, usize>,
    /// `(value, index)` for categories reachable from an `f64`, sorted by
    /// value (no NaNs; `-0.0` never appears — it renders as `"0"`).
    numeric: Vec<(f64, usize)>,
    by_int: FastMap<i64, usize>,
    nan_index: Option<usize>,
}

impl CategoryTable {
    /// Build the lookup table. Duplicate category strings keep their first
    /// index, matching `iter().position()` on the raw list.
    pub fn build(categories: &[String]) -> CategoryTable {
        let mut t = CategoryTable::default();
        for (i, c) in categories.iter().enumerate() {
            if t.by_string.contains_key(c) {
                continue;
            }
            t.by_string.insert(c.clone(), i);
            if c == "NaN" {
                t.nan_index = Some(i);
                continue;
            }
            if let Ok(v) = c.parse::<f64>() {
                if format_numeric_category(v) == *c {
                    t.numeric.push((v, i));
                }
            }
            if let Ok(n) = c.parse::<i64>() {
                if n.to_string() == *c {
                    t.by_int.insert(n, i);
                }
            }
        }
        t.numeric
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN keys"));
        t
    }

    /// Index of a category string.
    pub fn index_of_str(&self, value: &str) -> Option<usize> {
        self.by_string.get(value).copied()
    }

    /// Index of the category an `f64` value renders to
    /// (`format_numeric_category`) — without rendering it.
    pub fn index_of_f64(&self, value: f64) -> Option<usize> {
        if value.is_nan() {
            return self.nan_index;
        }
        // -0.0 renders as "0": compare as +0.0 (== treats them equal anyway,
        // but binary search needs the canonical key ordering)
        let key = if value == 0.0 { 0.0 } else { value };
        self.numeric
            .binary_search_by(|(k, _)| k.partial_cmp(&key).expect("no NaN keys"))
            .ok()
            .map(|pos| self.numeric[pos].1)
    }

    /// Index of the category an `i64` value renders to (`to_string`).
    pub fn index_of_i64(&self, value: i64) -> Option<usize> {
        self.by_int.get(&value).copied()
    }

    /// Index of the category a bool renders to (`0` / `1`).
    pub fn index_of_bool(&self, value: bool) -> Option<usize> {
        self.index_of_i64(value as i64)
    }
}

/// One-hot encoder over a single categorical input column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OneHotEncoder {
    /// The known categories, in output order. Unknown values map to all-zeros.
    pub categories: Vec<String>,
}

impl OneHotEncoder {
    /// Apply to a single-column string matrix.
    pub fn transform(&self, input: &FrameValue) -> Result<Matrix> {
        let rows = input.rows();
        if input.cols() != 1 {
            return Err(MlError::ShapeMismatch(format!(
                "one-hot encoder expects a single column, got {}",
                input.cols()
            )));
        }
        // category → index resolved once, not per row (and numeric inputs
        // compare numerically instead of allocating a String per row)
        let table = CategoryTable::build(&self.categories);
        let mut out = Matrix::zeros(rows, self.categories.len());
        match input {
            FrameValue::Strings(m) => {
                for r in 0..rows {
                    if let Some(idx) = table.index_of_str(m.get(r, 0)) {
                        out.set(r, idx, 1.0);
                    }
                }
            }
            FrameValue::Numeric(m) => {
                for r in 0..rows {
                    if let Some(idx) = table.index_of_f64(m.get(r, 0)) {
                        out.set(r, idx, 1.0);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Index of a category value, if known.
    pub fn category_index(&self, value: &str) -> Option<usize> {
        self.categories.iter().position(|c| c == value)
    }

    /// The one-hot vector produced for a constant input (used to propagate an
    /// equality-predicate constant through the encoder, paper §4.1 step 2).
    pub fn encode_constant(&self, value: &str) -> Vec<f64> {
        let mut out = vec![0.0; self.categories.len()];
        if let Some(i) = self.category_index(value) {
            out[i] = 1.0;
        }
        out
    }

    /// Number of output features.
    pub fn width(&self) -> usize {
        self.categories.len()
    }
}

/// Canonical string form for a numeric categorical value (integral values
/// render without a decimal point so `1` and `1.0` agree).
pub fn format_numeric_category(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Label encoder: maps category strings to their integer index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelEncoder {
    /// Known classes; unknown values map to -1.
    pub classes: Vec<String>,
}

impl LabelEncoder {
    /// Apply to a single-column string matrix.
    pub fn transform(&self, input: &FrameValue) -> Result<Matrix> {
        let strings = input.as_strings()?;
        if strings.cols() != 1 {
            return Err(MlError::ShapeMismatch(
                "label encoder expects a single column".into(),
            ));
        }
        // class → index resolved once, not per row
        let table = CategoryTable::build(&self.classes);
        let mut out = Matrix::zeros(strings.rows(), 1);
        for r in 0..strings.rows() {
            let v = table
                .index_of_str(strings.get(r, 0))
                .map(|i| i as f64)
                .unwrap_or(-1.0);
            out.set(r, 0, v);
        }
        Ok(out)
    }
}

/// Imputer: replaces missing values (NaN) with per-feature fill values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Imputer {
    /// Replacement value per feature.
    pub fill: Vec<f64>,
}

impl Imputer {
    /// Apply to a numeric matrix.
    pub fn transform(&self, input: &Matrix) -> Result<Matrix> {
        if input.cols() != self.fill.len() {
            return Err(MlError::ShapeMismatch(format!(
                "imputer configured for {} features, input has {}",
                self.fill.len(),
                input.cols()
            )));
        }
        let cols = input.cols();
        let mut data = Vec::with_capacity(input.data().len());
        if cols > 0 {
            for row in input.data().chunks_exact(cols) {
                for (&v, &fill) in row.iter().zip(&self.fill) {
                    data.push(if v.is_nan() { fill } else { v });
                }
            }
        }
        Matrix::new(input.rows(), cols, data)
    }
}

/// Binarizer: 1.0 when the value exceeds the threshold, else 0.0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Binarizer {
    /// Threshold compared with `>`.
    pub threshold: f64,
}

impl Binarizer {
    /// Apply to a numeric matrix.
    pub fn transform(&self, input: &Matrix) -> Matrix {
        let data = input
            .data()
            .iter()
            .map(|&v| if v > self.threshold { 1.0 } else { 0.0 })
            .collect();
        Matrix::new(input.rows(), input.cols(), data).expect("same shape")
    }
}

/// Row-wise normalization norm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Norm {
    L1,
    L2,
    Max,
}

/// Normalizer: scales each row to unit norm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    /// Which norm to normalize by.
    pub norm: Norm,
}

impl Normalizer {
    /// Apply to a numeric matrix.
    pub fn transform(&self, input: &Matrix) -> Matrix {
        let cols = input.cols();
        let mut data = Vec::with_capacity(input.data().len());
        if cols > 0 {
            for row in input.data().chunks_exact(cols) {
                let norm = match self.norm {
                    Norm::L1 => row.iter().map(|x| x.abs()).sum::<f64>(),
                    Norm::L2 => row.iter().map(|x| x * x).sum::<f64>().sqrt(),
                    Norm::Max => row.iter().fold(0.0f64, |a, &b| a.max(b.abs())),
                };
                if norm > 0.0 {
                    data.extend(row.iter().map(|&v| v / norm));
                } else {
                    data.extend_from_slice(row);
                }
            }
        }
        Matrix::new(input.rows(), cols, data).expect("same shape")
    }
}

/// Feature extractor: selects a subset of feature columns by index. This is
/// the ML-side analogue of a relational projection (paper §3), and the node
/// model-projection pushdown inserts and pushes down (§4.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureExtractor {
    /// Indices of the columns to keep, in output order.
    pub indices: Vec<usize>,
}

impl FeatureExtractor {
    /// Apply to a numeric matrix.
    pub fn transform(&self, input: &Matrix) -> Result<Matrix> {
        input.select_columns(&self.indices)
    }
}

/// A constant feature column, materialized to the batch's row count. Inserted
/// by predicate-based model pruning when an equality predicate fixes an input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstantNode {
    /// The constant values (one per output feature column).
    pub values: Vec<f64>,
}

impl ConstantNode {
    /// Materialize `rows` copies of the constant vector.
    pub fn materialize(&self, rows: usize) -> Matrix {
        let mut data = Vec::with_capacity(rows * self.values.len());
        for _ in 0..rows {
            data.extend_from_slice(&self.values);
        }
        Matrix::new(rows, self.values.len(), data).expect("constant shape")
    }
}

/// Concat: horizontally concatenates its numeric inputs (ONNX `Concat` /
/// scikit-learn `ColumnTransformer` output assembly).
pub fn concat(inputs: &[&FrameValue]) -> Result<Matrix> {
    let matrices = inputs
        .iter()
        .map(|v| v.as_numeric())
        .collect::<Result<Vec<_>>>()?;
    Matrix::hconcat(&matrices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::StringMatrix;

    #[test]
    fn scaler_transform_and_scalar() {
        let s = Scaler {
            offsets: vec![10.0, 0.0],
            scales: vec![0.5, 2.0],
        };
        let m = Matrix::from_columns(&[vec![12.0, 14.0], vec![1.0, 2.0]]).unwrap();
        let out = s.transform(&m).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0]);
        assert_eq!(out.row(1), &[2.0, 4.0]);
        assert_eq!(s.transform_scalar(0, 14.0).unwrap(), 2.0);
        assert!(s.transform_scalar(5, 1.0).is_err());
        assert!(s.transform(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn scaler_select_subset() {
        let s = Scaler {
            offsets: vec![1.0, 2.0, 3.0],
            scales: vec![1.0, 10.0, 100.0],
        };
        let sub = s.select(&[2, 0]).unwrap();
        assert_eq!(sub.offsets, vec![3.0, 1.0]);
        assert_eq!(sub.scales, vec![100.0, 1.0]);
        assert!(s.select(&[9]).is_err());
    }

    #[test]
    fn one_hot_encoding_strings_and_unknown() {
        let enc = OneHotEncoder {
            categories: vec!["no".into(), "yes".into()],
        };
        let input = FrameValue::Strings(StringMatrix::from_column(&[
            "yes".into(),
            "no".into(),
            "maybe".into(),
        ]));
        let out = enc.transform(&input).unwrap();
        assert_eq!(out.row(0), &[0.0, 1.0]);
        assert_eq!(out.row(1), &[1.0, 0.0]);
        assert_eq!(out.row(2), &[0.0, 0.0]);
        assert_eq!(enc.encode_constant("yes"), vec![0.0, 1.0]);
        assert_eq!(enc.encode_constant("nope"), vec![0.0, 0.0]);
    }

    #[test]
    fn one_hot_encoding_numeric_categories() {
        let enc = OneHotEncoder {
            categories: vec!["0".into(), "1".into(), "2".into()],
        };
        let input = FrameValue::Numeric(Matrix::from_column(&[1.0, 2.0, 0.0]));
        let out = enc.transform(&input).unwrap();
        assert_eq!(out.row(0), &[0.0, 1.0, 0.0]);
        assert_eq!(out.row(1), &[0.0, 0.0, 1.0]);
        assert_eq!(format_numeric_category(3.0), "3");
        assert_eq!(format_numeric_category(3.5), "3.5");
    }

    #[test]
    fn category_table_matches_string_semantics() {
        let cats: Vec<String> = ["0", "1", "3.5", "no", "NaN", "3.0", "1", "-7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let t = CategoryTable::build(&cats);
        // string lookups: first occurrence wins, like iter().position()
        for (i, c) in cats.iter().enumerate() {
            let expected = cats.iter().position(|x| x == c).unwrap();
            assert_eq!(t.index_of_str(c), Some(expected), "category {i}");
        }
        assert_eq!(t.index_of_str("nope"), None);
        // numeric lookups agree with format-then-match on every probe value
        for v in [
            0.0,
            -0.0,
            1.0,
            3.5,
            3.0,
            -7.0,
            f64::NAN,
            f64::INFINITY,
            2.25,
            1e16,
        ] {
            let via_format = cats.iter().position(|c| *c == format_numeric_category(v));
            assert_eq!(t.index_of_f64(v), via_format, "value {v}");
        }
        // category "3.0" is unreachable from numeric input: 3.0 renders "3"
        assert_eq!(t.index_of_f64(3.0), None);
        assert_eq!(t.index_of_str("3.0"), Some(5));
        // NaN matches only the literal "NaN" category
        assert_eq!(t.index_of_f64(f64::NAN), Some(4));
        // integer / bool lookups agree with to_string-then-match
        for i in [-7i64, 0, 1, 3, 99] {
            let via_format = cats.iter().position(|c| *c == i.to_string());
            assert_eq!(t.index_of_i64(i), via_format, "int {i}");
        }
        assert_eq!(t.index_of_bool(true), Some(1));
        assert_eq!(t.index_of_bool(false), Some(0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random string and integer category lists with duplicates: every
        /// lookup agrees with `iter().position()` on the raw list (the first
        /// index wins) and values absent from the list miss.
        #[test]
        fn category_table_matches_position(seed in 0u64..1_000_000) {
            let mut rng = proptest::TestRng::deterministic(&format!("categories-{seed}"));
            let words = ["", "a", "b", "ab", "yes", "no", "NaN", "3.0", "a longer category"];
            let len = (rng.next_u64() % 12) as usize;
            let cats: Vec<String> = (0..len)
                .map(|_| match rng.next_u64() % 2 {
                    0 => words[(rng.next_u64() % words.len() as u64) as usize].to_string(),
                    _ => ((rng.next_u64() % 9) as i64 - 4).to_string(),
                })
                .collect();
            let t = CategoryTable::build(&cats);
            for w in words.iter().map(|w| w.to_string()).chain((-6..=6).map(|i: i64| i.to_string())) {
                proptest::prop_assert_eq!(t.index_of_str(&w), cats.iter().position(|c| *c == w));
            }
            for i in -6i64..=6 {
                let want = cats.iter().position(|c| *c == i.to_string());
                proptest::prop_assert_eq!(t.index_of_i64(i), want, "int {}", i);
                proptest::prop_assert_eq!(t.index_of_f64(i as f64), want, "float {}", i);
            }
        }
    }

    #[test]
    fn label_encoder() {
        let enc = LabelEncoder {
            classes: vec!["low".into(), "high".into()],
        };
        let input = FrameValue::Strings(StringMatrix::from_column(&[
            "high".into(),
            "low".into(),
            "??".into(),
        ]));
        let out = enc.transform(&input).unwrap();
        assert_eq!(out.column(0), vec![1.0, 0.0, -1.0]);
    }

    #[test]
    fn imputer_fills_nan() {
        let imp = Imputer {
            fill: vec![5.0, -1.0],
        };
        let m = Matrix::from_columns(&[vec![1.0, f64::NAN], vec![f64::NAN, 2.0]]).unwrap();
        let out = imp.transform(&m).unwrap();
        assert_eq!(out.row(0), &[1.0, -1.0]);
        assert_eq!(out.row(1), &[5.0, 2.0]);
        assert!(imp.transform(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn binarizer_and_normalizer() {
        let b = Binarizer { threshold: 0.5 };
        let m = Matrix::from_column(&[0.2, 0.7]);
        assert_eq!(b.transform(&m).column(0), vec![0.0, 1.0]);

        let n = Normalizer { norm: Norm::L2 };
        let m = Matrix::from_columns(&[vec![3.0, 0.0], vec![4.0, 0.0]]).unwrap();
        let out = n.transform(&m);
        assert!((out.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((out.get(0, 1) - 0.8).abs() < 1e-12);
        // zero row left untouched
        assert_eq!(out.row(1), &[0.0, 0.0]);

        let n1 = Normalizer { norm: Norm::L1 };
        assert!((n1.transform(&m).get(0, 0) - 3.0 / 7.0).abs() < 1e-12);
        let nm = Normalizer { norm: Norm::Max };
        assert!((nm.transform(&m).get(0, 0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn feature_extractor_and_constant() {
        let fe = FeatureExtractor {
            indices: vec![1, 0],
        };
        let m = Matrix::from_columns(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(fe.transform(&m).unwrap().row(0), &[2.0, 1.0]);

        let c = ConstantNode {
            values: vec![7.0, 8.0],
        };
        let out = c.materialize(3);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(2), &[7.0, 8.0]);
    }

    #[test]
    fn concat_numeric_inputs() {
        let a = FrameValue::Numeric(Matrix::from_column(&[1.0, 2.0]));
        let b = FrameValue::Numeric(Matrix::from_column(&[3.0, 4.0]));
        let out = concat(&[&a, &b]).unwrap();
        assert_eq!(out.cols(), 2);
        let s = FrameValue::Strings(StringMatrix::from_column(&["x".into()]));
        assert!(concat(&[&a, &s]).is_err());
    }
}
