//! Stamps the build context every result is printed with: git revision,
//! build profile and compiler version.

use std::process::Command;

fn output(program: &str, args: &[&str]) -> Option<String> {
    let mut command = Command::new(program);
    command.args(args);
    // Never let git search above the repository root for metadata.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").ok()?;
    if let Some(above_root) = std::path::Path::new(&manifest).parent()?.parent() {
        command.env("GIT_CEILING_DIRECTORIES", above_root);
    }
    let out = command.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    // A source checkout without git metadata has no revision to report.
    let git_rev =
        output("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={git_rev}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    // Watch the git metadata only where it exists: cargo reruns a build
    // script on every build while a watched path is missing, which would
    // recompile the benchmark before each run in a plain source checkout.
    for path in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
