//! Configured method constructors shared by the experiment binaries,
//! including the paper's λ-tuning procedure (§5.1.4).

use decomp::{
    BatchDecomposer, OnlineDecomposer, OnlineRobustStl, OnlineStl, RobustStl, Stl, Windowed,
};
use oneshotstl::oneshot::OneShotStlConfig;
use oneshotstl::system::Lambdas;
use oneshotstl::OneShotStl;
use tskit::stats::mae;

/// The paper's λ grid (§5.1.4): `λ ∈ {10^0, …, 10^4}`.
pub const LAMBDA_GRID: [f64; 5] = [1.0, 10.0, 100.0, 1000.0, 10000.0];

/// Tunes `λ1 = λ2 = λ` on the training prefix by running OneShotSTL with
/// each grid value and picking the one whose trend is closest (MAE) to the
/// STL trend — the procedure described in §5.1.4.
pub fn tune_lambda(train: &[f64], period: usize) -> f64 {
    let reference = match Stl::new().decompose(train, period) {
        Ok(d) => d,
        Err(_) => return 100.0,
    };
    let split = (4 * period).min(train.len() / 2).max(2 * period + 1);
    if train.len() < split + period {
        return 100.0;
    }
    // ascending grid with a 2% strict-improvement rule: on a stationary
    // training window every λ matches STL about equally well, and the
    // smallest λ is the safe choice (it is the only regime that can track
    // abrupt trend changes later in the stream)
    let mut best = (LAMBDA_GRID[0], f64::INFINITY);
    for &lambda in &LAMBDA_GRID {
        let cfg = OneShotStlConfig {
            lambdas: Lambdas { lambda1: lambda, lambda2: lambda },
            shift_window: 0,
            ..Default::default()
        };
        let mut m = OneShotStl::new(cfg);
        let d = match m.run_series(train, period, split) {
            Ok(d) => d,
            Err(_) => continue,
        };
        let err = mae(&d.trend[split..], &reference.trend[split..]);
        if err < 0.98 * best.1 {
            best = (lambda, err);
        }
    }
    best.0
}

/// OneShotSTL with tuned λ and the paper's defaults (I = 8, H = 20, n = 5).
pub fn oneshotstl_tuned(lambda: f64) -> OneShotStl {
    OneShotStl::new(OneShotStlConfig {
        lambdas: Lambdas { lambda1: lambda, lambda2: lambda },
        ..Default::default()
    })
}

/// OneShotSTL with explicit period-misspecification ablation parameters.
pub fn oneshotstl_with(lambda: f64, iters: usize, shift_window: usize) -> OneShotStl {
    OneShotStl::new(OneShotStlConfig {
        lambdas: Lambdas { lambda1: lambda, lambda2: lambda },
        iters,
        shift_window,
        ..Default::default()
    })
}

/// The online STD baselines of Table 2 / Fig. 7, boxed for uniform driving.
pub fn online_std_baselines() -> Vec<Box<dyn OnlineDecomposer>> {
    vec![
        Box::new(Windowed::new(Stl::new(), "Window-STL", 4)),
        Box::new(OnlineStl::new()),
        Box::new(Windowed::new(RobustStl::new(), "Window-RobustSTL", 4)),
        Box::new(OnlineRobustStl::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lambda_tuning_returns_grid_value() {
        let t = 24;
        let mut rng = StdRng::seed_from_u64(1);
        let y: Vec<f64> = (0..8 * t)
            .map(|i| {
                (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                    + 0.05 * rng.gen_range(-1.0..1.0)
            })
            .collect();
        let lambda = tune_lambda(&y, t);
        assert!(LAMBDA_GRID.contains(&lambda), "tuned λ = {lambda}");
    }

    #[test]
    fn baseline_set_has_four_methods() {
        let methods = online_std_baselines();
        assert_eq!(methods.len(), 4);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"OnlineSTL"));
        assert!(names.contains(&"Window-RobustSTL"));
    }
}
