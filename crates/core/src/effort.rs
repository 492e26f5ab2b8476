use crate::{CoreError, Discretization};
use dcc_numerics::{norm_of_residuals, polyfit, Quadratic};
use dcc_trace::{TraceDataset, WorkerClass};

/// Checks that `psi` is a valid effort function for the model over the
/// discretized region `[0, mδ]` (§II): strictly concave (`r₂ < 0`) and
/// strictly increasing on the whole region (`ψ′(mδ) > 0`).
///
/// # Errors
///
/// Returns [`CoreError::InvalidEffortFunction`] describing the violated
/// assumption.
pub fn validate_effort_function(psi: &Quadratic, disc: &Discretization) -> Result<(), CoreError> {
    if !psi.r2().is_finite() || !psi.r1().is_finite() || !psi.r0().is_finite() {
        return Err(CoreError::InvalidEffortFunction(
            "coefficients must be finite".into(),
        ));
    }
    if psi.r2() >= 0.0 {
        return Err(CoreError::InvalidEffortFunction(format!(
            "psi must be strictly concave (r2 < 0), got r2 = {}",
            psi.r2()
        )));
    }
    if psi.derivative_at(disc.y_max()) <= 0.0 {
        return Err(CoreError::InvalidEffortFunction(format!(
            "psi must be increasing on [0, {}]: psi'({}) = {} <= 0; \
             shrink the effort region below the peak at {}",
            disc.y_max(),
            disc.y_max(),
            psi.derivative_at(disc.y_max()),
            psi.peak().unwrap_or(f64::NAN)
        )));
    }
    if psi.eval(0.0) < 0.0 {
        return Err(CoreError::InvalidEffortFunction(format!(
            "psi(0) = {} must be nonnegative (feedback cannot be negative)",
            psi.eval(0.0)
        )));
    }
    Ok(())
}

/// A fitted effort function with its fit diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct EffortFit {
    /// The fitted quadratic `ψ(y) = r₂y² + r₁y + r₀` (Eq. 19).
    pub psi: Quadratic,
    /// Norm of residuals of the quadratic fit.
    pub nor: f64,
    /// Number of `(effort, feedback)` observation points used.
    pub points: usize,
}

/// Least-squares fit of the quadratic effort function (Eq. 19) to
/// `(effort, feedback)` observations — §IV-B's "effort function fitting".
///
/// If the unconstrained quadratic fit is not concave-increasing (possible
/// on noisy or tiny samples), the fit degrades gracefully: a linear fit's
/// slope and intercept are kept and a small negative curvature is imposed
/// so the result is always a valid model effort function on the data's
/// effort range.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] on fewer than 3 points and
/// propagates numeric failures.
pub fn fit_effort_function(points: &[(f64, f64)]) -> Result<EffortFit, CoreError> {
    if points.len() < 3 {
        return Err(CoreError::InvalidInput(format!(
            "need at least 3 observation points, got {}",
            points.len()
        )));
    }
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let poly = polyfit(&xs, &ys, 2)?;
    let candidate = Quadratic::new(poly.coefficient(2), poly.coefficient(1), poly.coefficient(0));
    let x_max = xs.iter().copied().fold(0.0f64, f64::max);

    let psi = if candidate.r2() < 0.0
        && candidate.derivative_at(x_max) > 0.0
        && candidate.eval(0.0) >= 0.0
    {
        candidate
    } else {
        // Fallback: linear trend with a gentle curvature so the model
        // assumptions (concave increasing, nonnegative intercept) hold on
        // the observed range.
        let line = polyfit(&xs, &ys, 1)?;
        let slope = line.coefficient(1).max(1e-3);
        let intercept = line.coefficient(0).max(0.0);
        // Curvature that loses at most 20% of the slope at x_max.
        let r2 = -(0.2 * slope) / (2.0 * x_max.max(1e-9));
        Quadratic::new(r2, slope, intercept)
    };
    let nor = norm_of_residuals(
        &dcc_numerics::Polynomial::new(vec![psi.r0(), psi.r1(), psi.r2()]),
        &xs,
        &ys,
    )?;
    Ok(EffortFit {
        psi,
        nor,
        points: points.len(),
    })
}

/// Fits a class's effort function straight from a trace (one observation
/// point per worker of that class, as in §IV-B).
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] when the class has fewer than 3
/// workers with reviews.
pub fn fit_class_effort(trace: &TraceDataset, class: WorkerClass) -> Result<EffortFit, CoreError> {
    fit_effort_function(&trace.effort_feedback_points(class))
}

/// Norm of residuals of polynomial fits of orders `1..=max_degree` to the
/// observation points — the Table III comparison that justifies choosing
/// the quadratic.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] on fewer than `max_degree + 1`
/// points and propagates numeric failures.
pub fn nor_table(points: &[(f64, f64)], max_degree: usize) -> Result<Vec<(usize, f64)>, CoreError> {
    if points.len() < max_degree + 1 {
        return Err(CoreError::InvalidInput(format!(
            "need at least {} points for degree {max_degree}, got {}",
            max_degree + 1,
            points.len()
        )));
    }
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let mut table = Vec::with_capacity(max_degree);
    for degree in 1..=max_degree {
        let poly = polyfit(&xs, &ys, degree)?;
        table.push((degree, norm_of_residuals(&poly, &xs, &ys)?));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcc_trace::SyntheticConfig;

    #[test]
    fn validation_accepts_model_psi() {
        let disc = Discretization::new(10, 1.0).unwrap();
        let psi = Quadratic::new(-0.05, 2.0, 0.5);
        assert!(validate_effort_function(&psi, &disc).is_ok());
    }

    #[test]
    fn validation_rejects_convex_or_decreasing() {
        let disc = Discretization::new(10, 1.0).unwrap();
        assert!(validate_effort_function(&Quadratic::new(0.01, 2.0, 0.5), &disc).is_err());
        assert!(validate_effort_function(&Quadratic::new(0.0, 2.0, 0.5), &disc).is_err());
        // Peaks at y = 5, region goes to 10 -> decreasing at the end.
        assert!(validate_effort_function(&Quadratic::new(-0.2, 2.0, 0.5), &disc).is_err());
        // Negative intercept.
        assert!(validate_effort_function(&Quadratic::new(-0.05, 2.0, -0.5), &disc).is_err());
        assert!(
            validate_effort_function(&Quadratic::new(f64::NAN, 2.0, 0.5), &disc).is_err()
        );
    }

    #[test]
    fn fit_recovers_exact_quadratic() {
        let truth = Quadratic::new(-0.04, 1.8, 0.7);
        let points: Vec<(f64, f64)> = (1..40)
            .map(|i| {
                let y = i as f64 * 0.25;
                (y, truth.eval(y))
            })
            .collect();
        let fit = fit_effort_function(&points).unwrap();
        assert!((fit.psi.r2() - truth.r2()).abs() < 1e-8);
        assert!((fit.psi.r1() - truth.r1()).abs() < 1e-7);
        assert!(fit.nor < 1e-6);
        assert_eq!(fit.points, points.len());
    }

    #[test]
    fn fit_falls_back_when_data_is_convex() {
        // Convex data: unconstrained fit would violate the model.
        let points: Vec<(f64, f64)> = (1..30).map(|i| {
            let y = i as f64 * 0.3;
            (y, 0.1 * y * y)
        }).collect();
        let fit = fit_effort_function(&points).unwrap();
        assert!(fit.psi.r2() < 0.0, "fallback must be concave");
        let x_max = points.last().unwrap().0;
        assert!(fit.psi.derivative_at(x_max) > 0.0, "fallback must be increasing");
    }

    #[test]
    fn fit_requires_three_points() {
        assert!(fit_effort_function(&[(1.0, 1.0), (2.0, 2.0)]).is_err());
    }

    #[test]
    fn class_fit_from_trace_is_valid() {
        let trace = SyntheticConfig::small(3).generate();
        for class in WorkerClass::ALL {
            let fit = fit_class_effort(&trace, class).unwrap();
            let points = trace.effort_feedback_points(class);
            let x_max = points.iter().map(|p| p.0).fold(0.0f64, f64::max);
            assert!(fit.psi.r2() < 0.0, "{class}: r2 = {}", fit.psi.r2());
            assert!(fit.psi.derivative_at(x_max) > 0.0, "{class} not increasing");
        }
    }

    #[test]
    fn nor_table_is_nonincreasing() {
        let trace = SyntheticConfig::small(3).generate();
        let points = trace.effort_feedback_points(WorkerClass::Honest);
        let table = nor_table(&points, 6).unwrap();
        assert_eq!(table.len(), 6);
        for w in table.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "NoR must not increase with degree");
        }
        // Table III shape: quadratic is within a hair of the 6th order.
        let quad = table[1].1;
        let sixth = table[5].1;
        assert!(quad <= sixth * 1.05, "quadratic {quad} vs sixth {sixth}");
    }

    #[test]
    fn nor_table_validates_input_size() {
        assert!(nor_table(&[(1.0, 1.0); 3], 6).is_err());
    }
}
