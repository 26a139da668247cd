//! Long-horizon forecasting with the paper's §4 STD forecaster:
//! `ŷ_{t+i} = τ_{t−1} + v[(t+i) mod T]`, compared against a seasonal-naive
//! baseline on an electricity-style load curve.
//!
//! ```sh
//! cargo run --release --example forecast_horizon
//! ```

use oneshotstl_suite::prelude::*;
use oneshotstl_suite::tskit::synth::tsf_dataset;

fn main() {
    let ds = tsf_dataset("Electricity", 42);
    let period = ds.period;
    println!(
        "dataset {} — {} points, period {period}, horizons {:?}",
        ds.name,
        ds.values.len(),
        ds.horizons
    );

    // Stream through train+val, then forecast from the start of the test
    // region.
    let mut f = StdForecaster::new(OneShotStl::new(OneShotStlConfig::default()));
    let init = 4 * period;
    f.init(&ds.values[..init], period).expect("init ok");
    for &v in &ds.values[init..ds.val_end] {
        f.observe(v);
    }

    for &h in &ds.horizons {
        let pred = f.forecast(h);
        let truth = &ds.values[ds.val_end..ds.val_end + h];
        let mae: f64 =
            pred.iter().zip(truth).map(|(p, t)| (p - t).abs()).sum::<f64>() / h as f64;
        // seasonal-naive baseline: repeat the last cycle
        let naive_mae: f64 = (0..h)
            .map(|i| {
                let last_cycle = ds.values[ds.val_end - period + (i % period)];
                (last_cycle - truth[i]).abs()
            })
            .sum::<f64>()
            / h as f64;
        println!(
            "horizon {h:>4}: OneShotSTL MAE = {mae:.4}   seasonal-naive MAE = {naive_mae:.4}"
        );
    }
}
