//! Every paper experiment runs here through the function the `paper`
//! binary calls, and its record must equal the committed entry in
//! `BENCH_paper.json`. A change that moves extraction quality fails here
//! until `cargo run --release -p retroweb-bench --bin paper` rewrites the
//! file, so the move shows in the diff.

use retroweb_bench::paper::{committed, EXPERIMENTS};

fn check(name: &str) {
    let (_, run) = EXPERIMENTS.iter().find(|(n, _)| *n == name).expect("experiment is listed");
    let got = run().to_string_pretty();
    let want = committed().get(name).map(|r| r.to_string_pretty());
    assert_eq!(
        Some(got),
        want,
        "{name}'s record differs from BENCH_paper.json; rerun \
         `cargo run --release -p retroweb-bench --bin paper {name}` and commit the file"
    );
}

macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        $(#[test]
        fn $name() {
            check(stringify!($name));
        })*

        #[test]
        fn every_experiment_has_a_test_and_a_record() {
            let tested = [$(stringify!($name)),*];
            let listed: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            assert_eq!(listed, tested);
            let recorded = committed();
            let recorded: Vec<&str> =
                recorded.as_object().unwrap().iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(recorded, tested);
        }
    };
}

experiments!(
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    table1,
    table2,
    table3,
    table4,
    e6_convergence,
    e7_depth,
    e8_baselines,
    e9_recovery,
    ea_ablation,
);
