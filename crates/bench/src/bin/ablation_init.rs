//! Extra ablation (DESIGN.md §6): STL vs batch-JointSTL initialization of
//! OneShotSTL, measured by decomposition MAE on Syn1/Syn2.

use benchkit::{fmt3, Cli, Experiment};
use decomp::traits::OnlineDecomposer;
use oneshotstl::oneshot::{InitMethod, OneShotStlConfig};
use oneshotstl::system::Lambdas;
use oneshotstl::OneShotStl;
use tskit::synth::{syn1, syn2};
use tsmetrics::DecompErrors;

fn main() {
    let cli = Cli::parse();
    let mut exp = Experiment::new(
        "ablation_init",
        "Ablation — STL vs JointSTL initialization (Algorithm 5, line 1)",
    );
    exp.para(
        "The paper allows either initialization. JointSTL is \
         model-consistent but costlier for long periods; the online phase \
         should converge to similar quality either way because the seasonal \
         buffer keeps being rewritten.",
    );
    let mut rows = Vec::new();
    for ds in [syn1(cli.seed), syn2(cli.seed)] {
        let truth = ds.truth.as_ref().expect("synthetic ground truth");
        let t = ds.period;
        let split = 4 * t;
        for (label, init) in [("STL", InitMethod::Stl), ("JointSTL", InitMethod::JointStl)] {
            let cfg = OneShotStlConfig {
                lambdas: Lambdas { lambda1: 100.0, lambda2: 100.0 },
                init,
                ..Default::default()
            };
            let mut m = OneShotStl::new(cfg);
            match m.run_series(&ds.values, t, split) {
                Ok(d) => {
                    let e = DecompErrors::over_range(&d, truth, split..ds.values.len());
                    rows.push(vec![
                        ds.name.clone(),
                        label.to_string(),
                        fmt3(e.trend),
                        fmt3(e.seasonal),
                        fmt3(e.residual),
                    ]);
                }
                Err(e) => eprintln!("{} init {label} failed: {e}", ds.name),
            }
        }
        eprintln!("{} done", ds.name);
    }
    exp.table(
        "online-region MAE by initialization method",
        &["Dataset", "Init", "Trend MAE", "Seasonal MAE", "Residual MAE"],
        &rows,
    );
    exp.finish();
}
