//! The repo benchmark: fed-KNN rounds and served selections, end to end
//! and layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! vfps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   (driver form)
//! vfps-benchmark run    --seed <n> [--workload <name>] [--seconds <s>] [--trace] [--smoke]
//! vfps-benchmark repeat --seed <n> [--seconds <s>] [--smoke]
//! vfps-benchmark manifest | describe
//! ```

mod knn;
mod layers;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;
mod world;

use std::process::ExitCode;

use run::Plan;
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::Json;

/// Named values in first-set order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Operations timed: the sample count behind every percentile.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Printed and filed beside the metrics, never bounded: `(name, value,
    /// unit)` of what the reported numbers were derived from.
    pub context: Vec<(&'static str, f64, &'static str)>,
    /// One line per failed check; empty on a correct run.
    pub notes: Vec<String>,
    pub canary_ms: (f64, f64),
    /// The two canary readings differ by more than 10 %.
    pub noisy: bool,
}

impl Outcome {
    fn new(workload: &'static str, seed: u64, traced: bool) -> Outcome {
        Outcome {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            context: Vec::new(),
            notes: Vec::new(),
            canary_ms: (0.0, 0.0),
            noisy: false,
        }
    }

    fn finish(&mut self, canary_before: f64, canary_after: f64) {
        self.canary_ms = (canary_before, canary_after);
        self.noisy = (canary_after / canary_before - 1.0).abs() > 0.10;
    }

    /// Every operation passed every oracle and every metric the contract
    /// names for this kind of run was measured.
    fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty() && self.missing().is_empty()
    }

    /// `(name, unit)` of the metrics this kind of run reports.
    fn expected(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    fn missing(&self) -> Vec<&'static str> {
        self.expected()
            .into_iter()
            .filter(|(n, _)| !self.metrics.get(n).is_some_and(f64::is_finite))
            .map(|(n, _)| n)
            .collect()
    }

    fn print(&self) {
        for (name, unit) in self.expected() {
            let value = self.metrics.get(name).unwrap_or(f64::NAN);
            println!("{} {name} {value} {unit} n={}", self.workload, self.attempted);
        }
        for (name, value, unit) in &self.context {
            println!("{} ({name} {value} {unit})", self.workload);
        }
        println!(
            "{} attempted {} failed {} failed_share {} noisy {}",
            self.workload,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.noisy
        );
        for note in self.notes.iter().take(20) {
            println!("{} FAILED CHECK: {note}", self.workload);
        }
        for name in self.missing() {
            println!("{} FAILED CHECK: metric {name} was not measured", self.workload);
        }
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.expected().into_iter().map(|(name, unit)| {
            let value = self.metrics.get(name).unwrap_or(f64::NAN);
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]))
        }))
    }

    /// The driver's result line.
    fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("noisy", Json::Bool(self.noisy)),
            ("canary_ms_before", Json::Num(self.canary_ms.0)),
            ("canary_ms_after", Json::Num(self.canary_ms.1)),
            ("metrics", self.metrics_json()),
            (
                "context",
                Json::obj(self.context.iter().map(|&(name, value, _)| (name, Json::Num(value)))),
            ),
            ("failed_checks", Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect())),
        ])
    }
}

fn write_results(outcomes: &[Outcome]) {
    let dir = world::out_dir();
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    let doc = Json::obj([("runs", Json::Arr(outcomes.iter().map(Outcome::to_json).collect()))]);
    std::fs::write(dir.join("results.json"), doc.render_pretty()).expect("write results.json");
}

struct Args {
    command: String,
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let command = match argv.peek() {
        Some(a) if !a.starts_with("--") => argv.next().expect("peeked"),
        _ => "driver".to_owned(),
    };
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let driver = args.command == "driver";
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| w.name == name);
                args.workload = Some(known.ok_or_else(|| format!("unknown workload {name}"))?.name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // The driver passes `--trace 0|1`; by hand it is a bare switch.
            "--trace" if driver => args.trace = value()? == "1",
            "--trace" => args.trace = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if driver && args.workload.is_none() {
        return Err("the driver form needs --workload".into());
    }
    Ok(args)
}

fn plan(args: &Args, workload: &'static str, seed: u64) -> Plan {
    Plan { workload, seed, seconds: args.seconds, smoke: args.smoke }
}

/// The set `run` and `repeat` execute: every workload (or the one named),
/// end to end, then traced if asked.
fn run_set(args: &Args, seed: u64, trace: bool) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for w in WORKLOADS.iter().filter(|w| args.workload.is_none_or(|name| name == w.name)) {
        let out = run::end_to_end(&plan(args, w.name, seed));
        out.print();
        outcomes.push(out);
        if trace {
            let out = run::traced(&plan(args, w.name, seed));
            out.print();
            outcomes.push(out);
        }
    }
    outcomes
}

/// Two sets on one seed and one on the next: prints, per metric and
/// workload, the relative difference beside its bound. Fails when a
/// same-seed pair of an end-to-end metric differs by more than its bound.
fn repeat(args: &Args) -> bool {
    let a = run_set(args, args.seed, false);
    let b = run_set(args, args.seed, false);
    let c = run_set(args, args.seed + 1, false);
    let mut ok = a.iter().chain(&b).chain(&c).all(Outcome::correct);
    println!("workload metric first second rel_diff bound verdict | other_seed rel_diff");
    for ((a, b), c) in a.iter().zip(&b).zip(&c) {
        for m in &END_TO_END {
            let get = |o: &Outcome| o.metrics.get(m.name).unwrap_or(f64::NAN);
            let (x, y, z) = (get(a), get(b), get(c));
            let rel = |v: f64| (v - x).abs() / x.abs();
            let within = rel(y) <= m.bound;
            ok &= within;
            println!(
                "{} {} {x} {y} {:.4} {} {} | {z} {:.4}",
                a.workload,
                m.name,
                rel(y),
                m.bound,
                if within { "ok" } else { "EXCEEDS" },
                rel(z)
            );
        }
    }
    let mut all = a;
    all.extend(b);
    all.extend(c);
    write_results(&all);
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nsee benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    let ok = match args.command.as_str() {
        "manifest" => {
            print!("{}", spec::manifest());
            true
        }
        "describe" => {
            print!("{}", spec::describe());
            true
        }
        "driver" => {
            let p = plan(&args, args.workload.expect("checked in parse_args"), args.seed);
            let out = if args.trace { run::traced(&p) } else { run::end_to_end(&p) };
            out.print();
            write_results(std::slice::from_ref(&out));
            world::remove_scratch_root();
            // A wrong answer is reported in the line, not by the exit
            // code: the driver reads `correct`.
            println!("{}", out.result_line());
            return ExitCode::SUCCESS;
        }
        "run" => {
            let outcomes = run_set(&args, args.seed, args.trace);
            write_results(&outcomes);
            outcomes.iter().all(Outcome::correct)
        }
        "repeat" => repeat(&args),
        other => {
            eprintln!("error: unknown command {other}\nsee benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    world::remove_scratch_root();
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: a correctness check or a repeat bound failed");
        ExitCode::FAILURE
    }
}
