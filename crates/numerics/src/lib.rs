//! # dcc-numerics
//!
//! Self-contained numeric substrate for the `dyncontract` workspace.
//!
//! The ICDCS 2017 contract-design paper leans on a handful of numeric
//! primitives that its authors took from MATLAB: polynomial least-squares
//! fitting with a *norm of residuals* goodness measure (§IV-B, Table III),
//! piecewise-linear contract functions (§III-A, Eq. 6), quadratic effort
//! functions `ψ(y) = r₂y² + r₁y + r₀` (Eq. 19) and descriptive statistics
//! over compensation distributions (Fig. 8b). This crate implements all of
//! them from scratch on top of a small dense linear-algebra kernel.
//!
//! ## Example
//!
//! ```
//! use dcc_numerics::{polyfit, Quadratic};
//!
//! # fn main() -> Result<(), dcc_numerics::NumericsError> {
//! // Fit a quadratic to noisy samples of y = -x^2 + 3x + 1.
//! let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
//! let truth = Quadratic::new(-1.0, 3.0, 1.0);
//! let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
//! let fit = polyfit(&xs, &ys, 2)?;
//! assert!((fit.coefficient(2) - -1.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cmp;
mod error;
mod json;
mod linsolve;
mod matrix;
mod piecewise;
mod polyfit;
mod qr;
mod quadratic;
mod roots;
mod stats;

pub use cmp::{approx_eq, exact_eq, exact_ne};
pub use error::NumericsError;
pub use json::{Json, JsonError};
pub use linsolve::{solve_cholesky, solve_gaussian};
pub use matrix::Matrix;
pub use piecewise::PiecewiseLinear;
pub use polyfit::{norm_of_residuals, polyfit, Polynomial};
pub use qr::solve_least_squares;
pub use quadratic::Quadratic;
pub use roots::{bisect, newton};
pub use stats::{histogram, mean, percentile, std_dev, variance, Summary};
