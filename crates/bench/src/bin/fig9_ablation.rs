//! Figure 9: TSF ablation of period misspecification ΔT with H ∈ {0, 20},
//! horizon 96 (24 for Illness), on the four strongly seasonal datasets.

use benchkit::methods::oneshotstl_with;
use benchkit::{fmt3, Cli, Experiment};
use forecast::evaluate_online;
use neural::windows::Scaler;
use oneshotstl::StdForecaster;
use tskit::synth::tsf_dataset;

fn main() {
    let cli = Cli::parse();
    let deltas: &[usize] = if cli.quick { &[0, 10, 20] } else { &[0, 5, 10, 15, 20] };
    let datasets = ["ETTm2", "Electricity", "Traffic", "Weather"];
    let mut exp =
        Experiment::new("fig9_ablation", "Figure 9 — TSF MAE vs period error ΔT, H ∈ {0, 20}");
    exp.para(
        "Unlike TSAD (Fig. 8), forecasting cannot correct a wrong T for \
         future points (ŷ uses v[(t+i) mod T] directly), so the paper \
         expects MAE to rise sharply with ΔT for both H settings.",
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &h in &[0usize, 20] {
        for &dt in deltas {
            let mut row = vec![format!("H={h}"), format!("ΔT={dt}")];
            for name in datasets {
                let ds = tsf_dataset(name, cli.seed);
                let scaler = Scaler::fit(ds.train());
                let z = scaler.transform(&ds.values);
                let horizon = 96usize;
                let period = ds.period + dt;
                let init_end = (4 * period).min(ds.train_end / 2).max(2 * period + 2);
                let mut f = StdForecaster::new(oneshotstl_with(100.0, 8, h));
                match evaluate_online(
                    &mut f, &z, period, init_end, ds.val_end, horizon, horizon,
                ) {
                    Ok(r) => {
                        row.push(fmt3(r.mae));
                        csv.push(vec![
                            h.to_string(),
                            dt.to_string(),
                            name.into(),
                            format!("{}", r.mae),
                        ]);
                    }
                    Err(e) => {
                        eprintln!("{name} H={h} ΔT={dt} failed: {e}");
                        row.push("-".into());
                    }
                }
            }
            rows.push(row);
            eprintln!("H={h} ΔT={dt} done");
        }
    }
    let mut headers = vec!["H", "ΔT"];
    headers.extend(datasets.iter());
    exp.table("MAE (horizon 96) vs ΔT", &headers, &rows);
    exp.csv("results", &["H", "dT", "dataset", "mae"], &csv);
    exp.finish();
}
