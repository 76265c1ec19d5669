//! Cross-process determinism for experiment output.
//!
//! The byte-identical-replay guarantee (slice-check, DESIGN.md §9) only
//! holds if nothing in the simulation keys behavior on per-process state.
//! Before the fixed-seed hasher, `std::collections::HashMap`'s random
//! seed made iteration order — and through it the attr-cache write-back
//! sweep, retransmission scans, and storage-map walks — differ between
//! two runs of the *same binary*. This test spawns `fig3` twice as real
//! separate processes and requires every stdout byte, including the
//! trailing obs JSON snapshot, to match exactly.

use std::process::Command;

fn run_fig3(extra: &[&str]) -> String {
    run_fig3_env(extra, &[])
}

fn run_fig3_env(extra: &[&str], envs: &[(&str, &str)]) -> String {
    let mut args = vec!["--files", "100"];
    args.extend_from_slice(extra);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig3"));
    cmd.args(&args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn fig3");
    assert!(
        out.status.success(),
        "fig3 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("fig3 stdout is UTF-8")
}

#[test]
fn fig3_is_byte_identical_across_processes() {
    let a = run_fig3(&[]);
    let b = run_fig3(&[]);
    assert!(
        a == b,
        "fig3 stdout differs between two separate processes:\n--- run 1\n{a}\n--- run 2\n{b}"
    );
    // The last line is the machine-readable obs JSON; assert it is present
    // (so a future format change can't silently gut this test) and equal.
    let ja = a.lines().rev().find(|l| l.starts_with('{'));
    let jb = b.lines().rev().find(|l| l.starts_with('{'));
    assert!(ja.is_some(), "fig3 stdout lost its obs JSON line");
    assert_eq!(ja, jb, "obs JSON differs across processes");
}

/// The payload pool's determinism contract (DESIGN.md §15): recycling
/// backing stores is capacity-only bookkeeping, so the entire fig3 grid
/// must print byte-identical output with pooling on and off.
/// `SLICE_POOL=off` turns the spawned binary's pool into a plain
/// allocator.
#[test]
fn fig3_is_byte_identical_with_pooling_off() {
    let pooled = run_fig3(&[]);
    let unpooled = run_fig3_env(&[], &[("SLICE_POOL", "off")]);
    assert!(
        pooled == unpooled,
        "fig3 stdout differs between pooling on and SLICE_POOL=off:\n--- pooled\n{pooled}\n--- unpooled\n{unpooled}"
    );
}

/// Runs the bench binary at `path` on `args` and returns its stdout,
/// requiring a clean exit.
fn stdout_of(path: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(path).args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "{path} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// What the cheap bench binaries print is pinned byte for byte: an
/// FNV-1a of each one's whole stdout, human table and obs JSON line
/// alike, the same in debug and optimised builds. The tests above compare
/// two runs of one build, so a refactor that changed a grid, a phase
/// boundary or a printed figure in both would pass them; this one does
/// not. A change that means to move an output re-pins it and says why
/// (the failure message prints the new value).
#[test]
fn cheap_binaries_print_pinned_stdout() {
    let pinned: [(&str, &[&str], u64); 4] = [
        (
            env!("CARGO_BIN_EXE_fig3"),
            &["--files", "100", "--threads", "1"],
            17_033_032_725_043_553_932,
        ),
        (
            env!("CARGO_BIN_EXE_reconfigure"),
            &["--mb", "4", "--reads", "1", "--threads", "1"],
            3_010_912_012_969_661_977,
        ),
        (
            env!("CARGO_BIN_EXE_ec"),
            &["--mb", "4", "--threads", "1"],
            2_969_504_244_731_658_442,
        ),
        (
            env!("CARGO_BIN_EXE_availability"),
            &["--mb", "4", "--grid-ms", "50", "--threads", "1"],
            6_960_620_224_592_836_570,
        ),
    ];
    for (path, args, want) in pinned {
        let got = slice_hashes::fnv1a(&stdout_of(path, args));
        assert_eq!(
            got, want,
            "{path} {args:?}: stdout hash {got} is not the pinned {want}"
        );
    }
}

/// Runs the bench binary `name` at `path` on `args` and requires what a
/// refused command line ends in: the usage line on stderr, status 2 and
/// nothing on stdout.
fn assert_refused(path: &str, name: &str, args: &[&str]) {
    let out = Command::new(path).args(args).output().expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {args:?} was not refused"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with(&format!("usage: {name}")),
        "{name} {args:?} did not print its usage line"
    );
    assert!(out.stdout.is_empty(), "{name} {args:?} ran anyway");
}

/// A command line is input from outside the program: an option the
/// binary does not read — a typo, or the `--shards` of a script written
/// before the sharded engine was deleted — must stop the run with the
/// usage line and status 2, not run on defaults and say nothing.
#[test]
fn unknown_options_are_refused_with_usage_and_status_2() {
    for bad in ["--shards", "--thread"] {
        assert_refused(
            env!("CARGO_BIN_EXE_fig3"),
            "fig3",
            &["--files", "100", bad, "4"],
        );
    }
    // `ablations` takes no option at all: it once skipped the command
    // line and ran the whole ablation on defaults.
    assert_refused(
        env!("CARGO_BIN_EXE_ablations"),
        "ablations",
        &["--threads", "4"],
    );
}

/// `fig3 --full --files N` names two scales; the usage line says
/// `[--full | --files N]`, so the pair is refused, not settled by
/// `--files` silently winning.
#[test]
fn fig3_refuses_full_beside_files() {
    assert_refused(
        env!("CARGO_BIN_EXE_fig3"),
        "fig3",
        &["--full", "--files", "100"],
    );
}

/// `checker --reconf` builds its own ensemble and draws its own pool, so
/// `--chaos` or `--coded` beside it cannot both be honoured: the command
/// line is refused, not silently narrowed to one of them.
#[test]
fn contradictory_checker_modes_are_refused_with_usage_and_status_2() {
    for bad in ["--chaos", "--coded"] {
        assert_refused(
            env!("CARGO_BIN_EXE_checker"),
            "checker",
            &["--seeds", "1", "--schedules", "1", "--reconf", bad],
        );
    }
}

fn run_reconfigure(extra: &[&str]) -> String {
    run_reconfigure_env(extra, &[])
}

fn run_reconfigure_env(extra: &[&str], envs: &[(&str, &str)]) -> String {
    let mut args = vec!["--mb", "4", "--reads", "1"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_reconfigure"))
        .args(&args)
        .envs(envs.iter().copied())
        .output()
        .expect("spawn reconfigure");
    assert!(
        out.status.success(),
        "reconfigure failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("reconfigure stdout is UTF-8")
}

/// The reconfiguration bench — hot-set detection, widening, join
/// rebalance, drain — must be byte-identical across thread counts (the
/// parallel tasks are independent ensembles merged by input index) and
/// across two separate processes of the same arguments.
#[test]
fn reconfigure_is_byte_identical_across_thread_counts() {
    let one = run_reconfigure(&["--threads", "1"]);
    let four = run_reconfigure(&["--threads", "4"]);
    assert!(
        one == four,
        "reconfigure stdout differs between --threads 1 and --threads 4:\n--- threads 1\n{one}\n--- threads 4\n{four}"
    );
    let again = run_reconfigure(&["--threads", "1"]);
    assert_eq!(one, again, "reconfigure differs across processes");
    assert!(
        one.lines().rev().any(|l| l.starts_with('{')),
        "reconfigure stdout lost its obs JSON line"
    );
}

/// The pool contract again, on the path where buffers are shared the
/// longest: the reconfiguration bench runs retaining storage nodes
/// through resync, join and drain, so a stored extent is a window of the
/// packet or resync buffer it arrived in and a buffer goes back to the
/// pool only when its last extent does. Pooling on and off must print
/// the same bytes.
#[test]
fn reconfigure_is_byte_identical_with_pooling_off() {
    let pooled = run_reconfigure(&["--threads", "1"]);
    let unpooled = run_reconfigure_env(&["--threads", "1"], &[("SLICE_POOL", "off")]);
    assert!(
        pooled == unpooled,
        "reconfigure stdout differs between pooling on and SLICE_POOL=off:\n--- pooled\n{pooled}\n--- unpooled\n{unpooled}"
    );
}

/// Same contract for the consistency checker under the chaos pool: the
/// deterministic sweep report (crash, loss, duplication, reordering
/// injections included) is identical at any thread count.
#[test]
fn chaos_checker_report_is_thread_count_invariant() {
    let run = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_checker"))
            .args([
                "--seeds",
                "2",
                "--schedules",
                "3",
                "--chaos",
                "--threads",
                threads,
            ])
            .output()
            .expect("spawn checker");
        assert!(
            out.status.success(),
            "checker --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("checker stdout is UTF-8");
        // Compare the deterministic JSON report line, not the banner
        // (which names the thread count).
        stdout
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .expect("checker stdout lost its report JSON line")
            .to_string()
    };
    assert_eq!(
        run("1"),
        run("2"),
        "chaos sweep report differs between --threads 1 and --threads 2"
    );
}
