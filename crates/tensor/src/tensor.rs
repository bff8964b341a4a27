//! A minimal dense tensor runtime: the small set of operations Hummingbird's
//! GEMM and TreeTraversal strategies need (matmul, elementwise ops, gather,
//! comparisons, sigmoid, reductions).

use crate::error::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// A dense 2-D tensor of `f64` (rows × cols, row-major). Traditional-ML
/// inference compiled by Hummingbird only needs rank-2 tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// Create a tensor from row-major data.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::Shape(format!(
                "tensor data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Tensor { rows, cols, data })
    }

    /// A zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element update.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Matrix multiplication.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        if self.cols != other.rows {
            return Err(TensorError::Shape(format!(
                "matmul {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let row = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &b) in dst.iter_mut().zip(row.iter()) {
                    *d += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Elementwise binary operation with broadcasting over rows (other may be
    /// a 1×cols tensor).
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Result<Tensor> {
        if other.rows == self.rows && other.cols == self.cols {
            let data = self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect();
            return Tensor::new(self.rows, self.cols, data);
        }
        if other.rows == 1 && other.cols == self.cols {
            let mut out = self.clone();
            for r in 0..self.rows {
                for c in 0..self.cols {
                    out.data[r * self.cols + c] = f(self.get(r, c), other.get(0, c));
                }
            }
            return Ok(out);
        }
        Err(TensorError::Shape(format!(
            "cannot broadcast {}x{} with {}x{}",
            self.rows, self.cols, other.rows, other.cols
        )))
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Row-wise sum, producing a rows×1 tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, 1);
        for r in 0..self.rows {
            out.data[r] = self.data[r * self.cols..(r + 1) * self.cols].iter().sum();
        }
        out
    }

    /// Gather: `out[r][j] = self[r][indices[r][j]]` where `indices` holds
    /// column indices (as floats). Used by the TreeTraversal strategy.
    pub fn gather_cols(&self, indices: &Tensor) -> Result<Tensor> {
        if indices.rows != self.rows {
            return Err(TensorError::Shape(
                "gather index rows must match input rows".into(),
            ));
        }
        let mut out = Tensor::zeros(self.rows, indices.cols);
        for r in 0..self.rows {
            for c in 0..indices.cols {
                let idx = indices.get(r, c) as usize;
                if idx >= self.cols {
                    return Err(TensorError::Shape(format!(
                        "gather index {idx} out of bounds for width {}",
                        self.cols
                    )));
                }
                out.set(r, c, self.get(r, idx));
            }
        }
        Ok(out)
    }

    /// Approximate floating-point operation count for executing this tensor as
    /// the left operand of a matmul — used by the simulated-GPU cost model.
    pub fn matmul_flops(&self, other: &Tensor) -> u64 {
        (self.rows as u64) * (self.cols as u64) * (other.cols as u64) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::new(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.get(1, 0), 3.0);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!(Tensor::new(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn matmul_correctness() {
        let a = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
        assert!(b.matmul(&b).is_err());
        assert_eq!(a.matmul_flops(&b), 2 * 2 * 3 * 2);
    }

    #[test]
    fn broadcasting() {
        let a = Tensor::new(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let bias = Tensor::new(1, 2, vec![10.0, 20.0]).unwrap();
        let out = a.zip_broadcast(&bias, |x, y| x + y).unwrap();
        assert_eq!(out.data(), &[11.0, 22.0, 13.0, 24.0]);
        let same = a.zip_broadcast(&a, |x, y| x * y).unwrap();
        assert_eq!(same.data(), &[1.0, 4.0, 9.0, 16.0]);
        let bad = Tensor::new(1, 3, vec![0.0; 3]).unwrap();
        assert!(a.zip_broadcast(&bad, |x, _| x).is_err());
    }

    #[test]
    fn map_sum_gather() {
        let a = Tensor::new(2, 3, vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0]).unwrap();
        assert_eq!(a.map(f64::abs).data()[1], 2.0);
        assert_eq!(a.sum_rows().data(), &[2.0, -5.0]);
        let idx = Tensor::new(2, 1, vec![2.0, 0.0]).unwrap();
        assert_eq!(a.gather_cols(&idx).unwrap().data(), &[3.0, -4.0]);
        let bad_idx = Tensor::new(2, 1, vec![9.0, 0.0]).unwrap();
        assert!(a.gather_cols(&bad_idx).is_err());
        let misaligned = Tensor::new(1, 1, vec![0.0]).unwrap();
        assert!(a.gather_cols(&misaligned).is_err());
    }
}
