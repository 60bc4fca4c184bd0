//! Records the compiler version and the source revision the benchmark was
//! built from, so every run can report them without spawning tools at run
//! time. Both fall back to "unknown" (e.g. in a source export without `.git`).

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC_VERSION={}",
        capture(&rustc, &["--version"])
    );
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        capture("git", &["rev-parse", "HEAD"])
    );
    println!("cargo:rerun-if-changed=build.rs");
    // Watch the checked-out revision only where it exists: a missing watched
    // path would rerun this script, and rebuild the benchmark, on every run.
    let head = std::path::Path::new("../.git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        let reference = std::fs::read_to_string(head).unwrap_or_default();
        if let Some(branch) = reference.trim().strip_prefix("ref: ") {
            let path = std::path::Path::new("../.git").join(branch);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}
