//! # benchkit — experiment harness for the OneShotSTL reproduction
//!
//! One binary per paper table/figure (see `DESIGN.md` §5):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table2` | Table 2 — decomposition MAE on Syn1/Syn2 |
//! | `fig5_6` | Figures 5–6 — decomposed component series (CSV) |
//! | `fig7_latency` | Figure 7 — per-point latency vs period length |
//! | `table3` | Table 3 — TSAD VUS-ROC over the 17-family suite |
//! | `table4` | Table 4 — KDD21-style top-1 accuracy + hybrids |
//! | `table5` | Table 5 — TSF MAE over 6 datasets × 4 horizons |
//! | `fig8_ablation` | Figure 8 — TSAD vs ΔT, H ∈ {0, 20} |
//! | `fig9_ablation` | Figure 9 — TSF vs ΔT, H ∈ {0, 20} |
//! | `fig10_ablation` | Figure 10 — TSF, I = 1 vs I = 8 |
//! | `ablation_init` | extra — STL vs JointSTL initialization |
//! | `run_all` | everything above, `--quick` for a fast pass |
//!
//! Every binary accepts `--quick` (reduced workload sizes for smoke runs)
//! and writes a markdown report plus CSVs under `target/experiments/`.

pub mod adapters;
pub mod methods;
pub mod paper;
pub mod report;

pub use report::{fmt3, fmt_duration, write_bench_json, Experiment};

/// The common CLI flags shared by all experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cli {
    /// Reduced workload (`--quick`, or `--smoke`, the CI gates' spelling).
    /// A reduced run writes its JSON under `target/experiments/`, never
    /// over a committed full-run `BENCH_*.json` ([`write_bench_json`]).
    pub quick: bool,
    /// RNG seed for the synthetic workloads (`--seed N`).
    pub seed: u64,
}

/// What [`Cli::parse`] prints when it refuses the arguments.
const USAGE: &str = "usage: <binary> [--quick] [--smoke] [--seed N]";

impl Cli {
    /// Reads flags from `std::env::args`. An unknown flag or a bad
    /// `--seed` exits with status 2 and a usage line, so a typo cannot
    /// start a full run that rewrites a committed record.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses an argument list (without the program name).
    pub fn from_args(args: &[impl AsRef<str>]) -> Result<Self, String> {
        let mut cli = Cli { quick: false, seed: 42 };
        let mut args = args.iter().map(AsRef::as_ref);
        while let Some(a) = args.next() {
            match a {
                "--quick" | "--smoke" => cli.quick = true,
                "--seed" => {
                    let v = args.next().unwrap_or_default();
                    cli.seed =
                        v.parse().map_err(|_| format!("--seed needs an integer, got {v:?}"))?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_defaults() {
        let cli = Cli::from_args(&[] as &[&str]).unwrap();
        assert_eq!(cli, Cli { quick: false, seed: 42 });
    }

    #[test]
    fn cli_accepts_the_shared_flags() {
        assert!(Cli::from_args(&["--quick"]).unwrap().quick);
        assert!(
            Cli::from_args(&["--smoke"]).unwrap().quick,
            "--smoke runs the reduced workload"
        );
        assert_eq!(Cli::from_args(&["--seed", "7", "--quick"]).unwrap().seed, 7);
    }

    #[test]
    fn cli_rejects_unknown_flags_and_bad_seeds() {
        assert!(Cli::from_args(&["--smok"]).is_err());
        assert!(Cli::from_args(&["--seed", "x"]).is_err());
        assert!(Cli::from_args(&["--seed"]).is_err());
    }
}
