//! Table 5: long-horizon forecasting MAE on the six Informer-style
//! datasets. Values are z-scored with train statistics (the benchmark
//! convention); FiLM/FEDformer/Informer are reference-only (not
//! re-implemented — DESIGN.md §4).

use benchkit::adapters::{DeepArForecaster, NBeatsForecaster};
use benchkit::methods::oneshotstl_tuned;
use benchkit::paper::TABLE5_PAPER_AVG;
use benchkit::{fmt3, fmt_duration, Cli, Experiment};
use decomp::OnlineStl;
use forecast::{
    evaluate_forecaster, evaluate_online, AutoArima, Forecaster, HoltWinters, SeasonalNaive,
    Theta,
};
use neural::windows::Scaler;
use oneshotstl::StdForecaster;
use std::time::Duration;
use tskit::synth::tsf_suite;

fn main() {
    let cli = Cli::parse();
    let suite = tsf_suite(cli.seed);
    let mut exp = Experiment::new("table5", "Table 5 — TSF MAE (6 datasets × horizons)");
    exp.para(
        "Rolling-origin evaluation with stride = horizon, values z-scored \
         by train statistics. STD methods observe every point online; batch \
         methods fit once on train+val (matching the paper's protocol of \
         training once and testing across the test split).",
    );
    let method_names = [
        "SeasonalNaive",
        "Theta",
        "HoltWinters",
        "AutoARIMA",
        "NBEATS",
        "DeepAR",
        "OnlineSTL",
        "OneShotSTL",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv: Vec<Vec<String>> = Vec::new();
    let mut sums = vec![0.0f64; method_names.len()];
    let mut times = vec![Duration::ZERO; method_names.len()];
    let mut cells = 0usize;
    for ds in &suite {
        let scaler = Scaler::fit(ds.train());
        let z: Vec<f64> = scaler.transform(&ds.values);
        let horizons: Vec<usize> =
            if cli.quick { vec![ds.horizons[0]] } else { ds.horizons.clone() };
        for &h in &horizons {
            let stride = h; // non-overlapping windows
            let mut row = vec![format!("{} h={h}", ds.name)];
            let mut maes = Vec::new();
            let epochs = if cli.quick { 2 } else { 6 };
            // batch methods
            let mut batch: Vec<Box<dyn Forecaster>> = vec![
                Box::new(SeasonalNaive::default()),
                Box::new(Theta::default()),
                Box::new(HoltWinters::default()),
                Box::new(AutoArima::default()),
                Box::new(NBeatsForecaster::new(h, epochs, cli.seed)),
                Box::new(DeepArForecaster::new(epochs, cli.seed)),
            ];
            for (mi, f) in batch.iter_mut().enumerate() {
                match evaluate_forecaster(f.as_mut(), &z, ds.period, ds.val_end, h, stride, 0) {
                    Ok(r) => {
                        row.push(fmt3(r.mae));
                        maes.push(r.mae);
                        sums[mi] += r.mae;
                        times[mi] += r.elapsed;
                    }
                    Err(e) => {
                        eprintln!("{} failed on {} h={h}: {e}", f.name(), ds.name);
                        row.push("-".into());
                        maes.push(f64::NAN);
                    }
                }
            }
            // online STD methods
            let init_end = (4 * ds.period).min(ds.train_end / 2).max(2 * ds.period + 2);
            let mut run_online =
                |mi: usize,
                 row: &mut Vec<String>,
                 maes: &mut Vec<f64>,
                 r: tskit::Result<forecast::EvalReport>| {
                    match r {
                        Ok(r) => {
                            row.push(fmt3(r.mae));
                            maes.push(r.mae);
                            sums[mi] += r.mae;
                            times[mi] += r.elapsed;
                        }
                        Err(e) => {
                            eprintln!("online method failed: {e}");
                            row.push("-".into());
                            maes.push(f64::NAN);
                        }
                    }
                };
            {
                let mut f = StdForecaster::new(OnlineStl::new());
                let r = evaluate_online(&mut f, &z, ds.period, init_end, ds.val_end, h, stride);
                run_online(6, &mut row, &mut maes, r);
            }
            {
                let mut f = StdForecaster::new(oneshotstl_tuned(100.0));
                let r = evaluate_online(&mut f, &z, ds.period, init_end, ds.val_end, h, stride);
                run_online(7, &mut row, &mut maes, r);
            }
            cells += 1;
            for (mi, v) in maes.iter().enumerate() {
                csv.push(vec![
                    ds.name.clone(),
                    h.to_string(),
                    method_names[mi].to_string(),
                    format!("{v}"),
                ]);
            }
            rows.push(row);
            eprintln!("{} h={h} done", ds.name);
        }
    }
    let mut avg_row = vec!["**Avg. MAE**".to_string()];
    avg_row.extend(sums.iter().map(|s| fmt3(s / cells as f64)));
    rows.push(avg_row);
    let mut time_row = vec!["**Total time**".to_string()];
    time_row.extend(times.iter().map(|t| fmt_duration(*t)));
    rows.push(time_row);
    let mut headers: Vec<&str> = vec!["Dataset"];
    headers.extend(method_names.iter());
    exp.table("MAE per dataset × horizon", &headers, &rows);
    let paper_rows: Vec<Vec<String>> =
        TABLE5_PAPER_AVG.iter().map(|(n, v)| vec![n.to_string(), fmt3(*v)]).collect();
    exp.table(
        "paper Avg. MAE (reference; * = transformer baselines not re-implemented)",
        &["Method", "Avg. MAE"],
        &paper_rows,
    );
    exp.csv("results", &["dataset", "horizon", "method", "mae"], &csv);
    exp.finish();
}
