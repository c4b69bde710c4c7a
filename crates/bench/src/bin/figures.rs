//! The paper's tables and figures, one driver.
//!
//! ```text
//! figures [--fig 4,4h,5,6,7,8,9,10,t1,ablations,hparams,convergence]
//!         [--scale smoke|quick|paper] [--seed N] [--only cifar100,fc100]
//! ```
//!
//! Without `--fig` the whole campaign runs, in the order above (`t1`
//! reads the files `4` wrote). Each figure prints its tables and writes
//! `results/<name>.json`; see `fedknow_bench::figures::FIGURES`.

fn main() {
    fedknow_bench::figures::run(&fedknow_bench::parse_args());
}
