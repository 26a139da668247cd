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

/// Parses the common CLI flags shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Reduced workload for smoke testing.
    pub quick: bool,
    /// RNG seed for the synthetic workloads.
    pub seed: u64,
}

impl Cli {
    /// Reads flags from `std::env::args`.
    pub fn parse() -> Self {
        let mut cli = Cli { quick: false, seed: 42 };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--seed" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        cli.seed = v;
                    }
                }
                _ => {}
            }
        }
        cli
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_defaults() {
        let cli = Cli { quick: false, seed: 42 };
        assert!(!cli.quick);
        assert_eq!(cli.seed, 42);
    }
}
