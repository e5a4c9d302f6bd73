//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run --release -p vfps-bench --bin experiments -- <id> [--runs N] [--quick]
//!
//! ids: table1 tables45 fig4 fig5 fig6 fig7 fig8 fig9
//!      ablation-batch ablation-scheme ablation-dp ablation-maximizer ablation-noise ablation-topk breakdown calibrate all
//! ```

use vfps_bench::experiments::{
    ablation_batch, ablation_dp, ablation_maximizer, ablation_noise, ablation_scheme,
    ablation_topk, breakdown, calibrate, fig4, fig5, fig6, fig7, fig8, fig9, table1,
    tables_4_and_5, ExpConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut id: Option<String> = None;
    let mut cfg = ExpConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--runs" => {
                cfg.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--runs needs a number >= 1"));
            }
            other if id.is_none() => id = Some(other.to_owned()),
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    let id = id.unwrap_or_else(|| usage("missing experiment id"));

    let run = |name: &str| -> bool { id == name || id == "all" };
    let mut ran = false;
    if run("table1") {
        println!("{}", table1(&cfg));
        ran = true;
    }
    if run("tables45") || id == "table4" || id == "table5" {
        println!("{}", tables_4_and_5(&cfg));
        ran = true;
    }
    if run("fig4") {
        println!("{}", fig4(&cfg));
        ran = true;
    }
    if run("fig5") {
        println!("{}", fig5(&cfg));
        ran = true;
    }
    if run("fig6") {
        println!("{}", fig6(&cfg));
        ran = true;
    }
    if run("fig7") {
        println!("{}", fig7(&cfg));
        ran = true;
    }
    if run("fig8") {
        println!("{}", fig8(&cfg));
        ran = true;
    }
    if run("fig9") {
        println!("{}", fig9(&cfg));
        ran = true;
    }
    if run("ablation-batch") {
        println!("{}", ablation_batch(&cfg));
        ran = true;
    }
    if run("ablation-scheme") {
        println!("{}", ablation_scheme(&cfg));
        ran = true;
    }
    if run("ablation-dp") {
        println!("{}", ablation_dp(&cfg));
        ran = true;
    }
    if run("breakdown") {
        println!("{}", breakdown(&cfg));
        ran = true;
    }
    if run("ablation-maximizer") {
        println!("{}", ablation_maximizer(&cfg));
        ran = true;
    }
    if run("ablation-noise") {
        println!("{}", ablation_noise(&cfg));
        ran = true;
    }
    if run("ablation-topk") {
        println!("{}", ablation_topk(&cfg));
        ran = true;
    }
    if run("calibrate") {
        println!("{}", calibrate());
        ran = true;
    }
    if !ran {
        usage(&format!("unknown experiment id {id}"));
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments <id> [--runs N] [--quick]\n\
         ids: table1 tables45 fig4 fig5 fig6 fig7 fig8 fig9\n\
         \x20    ablation-batch ablation-scheme ablation-dp ablation-maximizer ablation-noise ablation-topk breakdown calibrate all"
    );
    std::process::exit(2)
}
