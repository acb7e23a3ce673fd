//! `centaur-analyze` CLI: lint the workspace, honour the committed
//! baseline, and (with `--deny`) gate CI like `clippy -D warnings` does.

use centaur_analyze::diagnostics::Baseline;
use centaur_analyze::lints::unsafe_audit::render_inventory;
use centaur_analyze::{analyze_workspace, BASELINE_FILE};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: centaur-analyze [OPTIONS] [ROOT]

Lexical lints over every workspace .rs file (ROOT defaults to the current
directory, which must be the workspace root).

options:
  --deny             exit 1 on any non-baselined finding or stale baseline
                     entry (the CI mode)
  --inventory        print the unsafe-site inventory table
  --write-baseline   rewrite the baseline file from the current findings
  --baseline <path>  baseline file (default: <ROOT>/analyze-baseline.txt)
  -h, --help         this text

rules: alloc-free-path, unsafe-audit, lock-discipline, env-knob-registry,
suppression. Suppress inline with
`// lint: allow(<rule>) — <reason>` (the reason is mandatory).";

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    deny: bool,
    inventory: bool,
    write_baseline: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        baseline: None,
        deny: false,
        inventory: false,
        write_baseline: false,
    };
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => opts.deny = true,
            "--inventory" => opts.inventory = true,
            "--write-baseline" => opts.write_baseline = true,
            "--baseline" => {
                i += 1;
                let path = args.get(i).ok_or("--baseline needs a path")?;
                opts.baseline = Some(PathBuf::from(path));
            }
            "-h" | "--help" => return Err(String::new()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`"));
            }
            root => positional.push(root.to_string()),
        }
        i += 1;
    }
    match positional.len() {
        0 => {}
        1 => opts.root = PathBuf::from(&positional[0]),
        _ => return Err("at most one ROOT argument".to_string()),
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("centaur-analyze: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if !opts.root.join("Cargo.toml").is_file() {
        eprintln!(
            "centaur-analyze: {} does not look like the workspace root (no Cargo.toml)",
            opts.root.display()
        );
        return ExitCode::from(2);
    }

    let analysis = match analyze_workspace(&opts.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("centaur-analyze: workspace walk failed: {e}");
            return ExitCode::from(2);
        }
    };

    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join(BASELINE_FILE));
    if opts.write_baseline {
        let content = Baseline::render(&analysis.findings);
        if let Err(e) = std::fs::write(&baseline_path, content) {
            eprintln!(
                "centaur-analyze: cannot write {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "centaur-analyze: wrote {} finding(s) to {}",
            analysis.findings.len(),
            baseline_path.display()
        );
    }
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(content) => Baseline::parse(&content),
        Err(_) => Baseline::default(), // a missing baseline is an empty one
    };

    let (baselined, new): (Vec<_>, Vec<_>) =
        analysis.findings.iter().partition(|d| baseline.contains(d));
    let stale = baseline.stale(&analysis.findings);

    if opts.inventory {
        print!("{}", render_inventory(&analysis.inventory));
        println!();
    }
    for d in &new {
        println!("{d}");
    }
    for key in &stale {
        println!(
            "stale baseline entry `{key}` no longer fires — remove it from {}",
            baseline_path.display()
        );
    }
    let documented = analysis.inventory.iter().filter(|s| s.documented).count();
    println!(
        "centaur-analyze: {} file(s), {} finding(s) ({} new, {} baselined, \
         {} suppressed inline), {} stale baseline entr(ies); unsafe \
         inventory: {} site(s), {} documented",
        analysis.files,
        analysis.findings.len(),
        new.len(),
        baselined.len(),
        analysis.suppressed,
        stale.len(),
        analysis.inventory.len(),
        documented,
    );

    if opts.deny && (!new.is_empty() || !stale.is_empty()) {
        eprintln!(
            "centaur-analyze: --deny: {} new finding(s), {} stale baseline \
             entr(ies)",
            new.len(),
            stale.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
