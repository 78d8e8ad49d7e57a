//! Convenience driver: regenerates every table and figure in sequence by
//! invoking the sibling experiment binaries' code paths directly would
//! duplicate their reporting, so this simply shells out to the binaries
//! next to itself (same target directory), forwarding the environment
//! (`CLR_FULL`, `CLR_QUICK`, `CLR_OBS`, `CLR_THREADS`) — so with
//! `CLR_OBS=json` every binary drops its own journal under `results/`.

use std::path::PathBuf;
use std::process::Command;

const BINARIES: [&str; 12] = [
    "fig1",
    "table4",
    "fig5",
    "fig6",
    "table5",
    "table6",
    "table7",
    "fig7",
    "ablations",
    "artifacts",
    "workloads",
    "learn_drift",
];

fn main() {
    let me = std::env::current_exe().expect("current executable path");
    let dir: PathBuf = me.parent().expect("executable directory").to_path_buf();
    let mut failures = Vec::new();
    for bin in BINARIES {
        let path = dir.join(bin);
        println!("\n=================== {bin} ===================");
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(bin);
            }
            Err(e) => {
                eprintln!("could not launch {}: {e} (build with `cargo build --release -p clr-experiments` first)", path.display());
                failures.push(bin);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall experiments regenerated; CSVs under results/");
    } else {
        eprintln!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}
