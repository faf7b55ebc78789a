//! End-to-end tests of the `relmax` binary: ingest → snapshot → query →
//! select, exercised exactly the way a user (and the CI smoke step) runs
//! it. Covers the determinism contract (byte-identical stdout across
//! thread counts and across snapshot-vs-text loading), golden output
//! fixtures, and the error exit codes.
//!
//! Regenerate the golden fixtures after an intentional output change with
//! `BLESS_GOLDEN=1 cargo test -p relmax-cli`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_relmax");
const MANIFEST: &str = env!("CARGO_MANIFEST_DIR");

fn fixture(name: &str) -> PathBuf {
    Path::new(MANIFEST).join("tests/fixtures").join(name)
}

/// The committed toy dataset at the repository root.
fn toy_tsv() -> PathBuf {
    Path::new(MANIFEST).join("../../data/toy.tsv")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relmax-cli-test-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn relmax(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn relmax")
}

fn stdout_of(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = relmax(args, env);
    assert!(
        out.status.success(),
        "relmax {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn ingest_toy(name: &str) -> PathBuf {
    let rgs = tmp(name);
    let toy = toy_tsv();
    stdout_of(
        &["ingest", toy.to_str().unwrap(), "-o", rgs.to_str().unwrap()],
        &[],
    );
    rgs
}

fn assert_golden(golden: &Path, actual: &str) {
    if std::env::var("BLESS_GOLDEN").is_ok() {
        fs::write(golden, actual).expect("write golden fixture");
        return;
    }
    let expected = fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!("missing golden fixture {golden:?} ({e}); run with BLESS_GOLDEN=1")
    });
    assert_eq!(
        expected, actual,
        "output drifted from {golden:?}; if intentional, re-bless with BLESS_GOLDEN=1"
    );
}

#[test]
fn ingest_is_deterministic_and_sniffable() {
    let a = ingest_toy("det-a.rgs");
    let b = ingest_toy("det-b.rgs");
    let bytes_a = fs::read(&a).unwrap();
    assert_eq!(
        bytes_a,
        fs::read(&b).unwrap(),
        "ingest must be byte-deterministic"
    );
    assert_eq!(&bytes_a[..4], b"RGSF");
}

#[test]
fn query_snapshot_matches_text_input_bit_for_bit() {
    let rgs = ingest_toy("match.rgs");
    let toy = toy_tsv();
    let common = ["--gen", "20", "--samples", "400", "--format", "json"];
    let via_snapshot = {
        let mut args = vec!["query", rgs.to_str().unwrap()];
        args.extend_from_slice(&common);
        stdout_of(&args, &[])
    };
    let via_text = {
        let mut args = vec!["query", toy.to_str().unwrap()];
        args.extend_from_slice(&common);
        stdout_of(&args, &[])
    };
    assert_eq!(via_snapshot, via_text);
}

#[test]
fn query_batch_is_byte_identical_across_thread_counts() {
    let rgs = ingest_toy("threads.rgs");
    for format in ["table", "json"] {
        let args = [
            "query",
            rgs.to_str().unwrap(),
            "--gen",
            "100",
            "--min-hops",
            "1",
            "--max-hops",
            "6",
            "--samples",
            "500",
            "--format",
            format,
        ];
        let t1 = stdout_of(&args, &[("RELMAX_THREADS", "1")]);
        let t4 = stdout_of(&args, &[("RELMAX_THREADS", "4")]);
        assert_eq!(
            t1, t4,
            "query stdout must not depend on thread count ({format})"
        );
        let flagged = {
            let mut with_flag = args.to_vec();
            with_flag.extend_from_slice(&["--threads", "3"]);
            stdout_of(&with_flag, &[])
        };
        assert_eq!(t1, flagged, "--threads must not change output ({format})");
    }
}

#[test]
fn select_is_byte_identical_across_thread_counts() {
    let rgs = ingest_toy("select-threads.rgs");
    let args = [
        "select",
        rgs.to_str().unwrap(),
        "--method",
        "BE",
        "--source",
        "0",
        "--target",
        "15",
        "-k",
        "2",
        "--samples",
        "400",
        "--format",
        "json",
    ];
    let t1 = stdout_of(&args, &[("RELMAX_THREADS", "1")]);
    let t4 = stdout_of(&args, &[("RELMAX_THREADS", "4")]);
    assert_eq!(t1, t4);
}

/// `select` reads an updated snapshot's live arcs: after a delete or a
/// re-probe its base reliability is `relmax query`'s answer on the same
/// snapshot, seed and budget. (Thawing the snapshot instead brought
/// deleted edges back and failed on re-probed pairs.)
#[test]
fn select_on_updated_snapshots_sees_the_live_graph() {
    let rgs = ingest_toy("select-updated.rgs");
    let queries = tmp("select-updated-q.txt");
    fs::write(&queries, "st 0 15\n").unwrap();
    for (name, script) in [("delete", "delete 0 1\n"), ("setp", "setp 0 1 0.9\n")] {
        let updates = tmp(&format!("select-updated-{name}.txt"));
        let updated = tmp(&format!("select-updated-{name}.rgs"));
        fs::write(&updates, script).unwrap();
        stdout_of(
            &[
                "update",
                rgs.to_str().unwrap(),
                "--updates",
                updates.to_str().unwrap(),
                "-o",
                updated.to_str().unwrap(),
            ],
            &[],
        );
        let common = ["--samples", "1000", "--seed", "42", "--format", "json"];
        let mut select = vec![
            "select",
            updated.to_str().unwrap(),
            "--method",
            "BE",
            "--source",
            "0",
            "--target",
            "15",
            "-k",
            "2",
        ];
        select.extend(common);
        let mut query = vec!["query", updated.to_str().unwrap(), "--queries"];
        query.push(queries.to_str().unwrap());
        query.extend(common);
        let selected = stdout_of(&select, &[]);
        let answered = stdout_of(&query, &[]);
        let field = |text: &str, key: &str| -> String {
            let at = text.find(key).unwrap_or_else(|| panic!("{key} in {text}")) + key.len();
            text[at..].split([',', '}']).next().unwrap().to_string()
        };
        assert_eq!(
            field(&selected, "\"base_reliability\":"),
            field(&answered, "\"reliability\":"),
            "{name}: select and query disagree on the updated snapshot"
        );
    }
}

#[test]
fn query_golden_output() {
    let rgs = ingest_toy("golden.rgs");
    let queries = fixture("toy_queries.txt");
    let out = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--samples",
            "1000",
            "--seed",
            "42",
        ],
        &[("RELMAX_THREADS", "2")],
    );
    assert_golden(&fixture("query_golden.txt"), &out);
}

#[test]
fn select_golden_output() {
    let rgs = ingest_toy("select-golden.rgs");
    let out = stdout_of(
        &[
            "select",
            rgs.to_str().unwrap(),
            "--method",
            "BE",
            "--source",
            "0",
            "--target",
            "15",
            "-k",
            "3",
            "--samples",
            "1000",
            "--seed",
            "42",
        ],
        &[("RELMAX_THREADS", "2")],
    );
    assert_golden(&fixture("select_golden.txt"), &out);
}

#[test]
fn hop_flags_are_pinned_for_file_workloads() {
    let rgs = ingest_toy("hopflags.rgs");
    let wl = tmp("hopflag.txt");
    fs::write(&wl, "st 0 15\n").unwrap();
    // --min-hops only means anything for --gen (the generation band);
    // with --queries it is a usage error, never a silently ignored flag.
    let out = relmax(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            wl.to_str().unwrap(),
            "--min-hops",
            "2",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--min-hops only applies to --gen"), "{err}");

    // `% max-hops` in the file reshapes st into st_within...
    let directive = tmp("hopflag-directive.txt");
    fs::write(&directive, "% max-hops 6\nst 0 15\n").unwrap();
    let base = [
        "query",
        rgs.to_str().unwrap(),
        "--queries",
        directive.to_str().unwrap(),
        "--samples",
        "500",
        "--format",
        "json",
    ];
    let from_file = stdout_of(&base, &[]);
    assert!(from_file.contains("\"kind\":\"st_within\""), "{from_file}");
    assert!(from_file.contains("\"max_hops\":6"), "{from_file}");
    // ...and an explicit --max-hops overrides the directive.
    let mut with_flag = base.to_vec();
    with_flag.extend_from_slice(&["--max-hops", "2"]);
    let overridden = stdout_of(&with_flag, &[]);
    assert!(overridden.contains("\"max_hops\":2"), "{overridden}");
}

#[test]
fn rss_rejects_constrained_workloads_with_a_clear_error() {
    let rgs = ingest_toy("rss-constrained.rgs");
    let wl = tmp("rss-constrained.txt");
    fs::write(&wl, "st 0 15\nset 0,1 14,15\n").unwrap();
    let out = relmax(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            wl.to_str().unwrap(),
            "--estimator",
            "rss",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("rss estimator does not support constrained query shapes"),
        "{err}"
    );

    // A hop bound makes even plain st queries constrained under rss.
    let st_only = tmp("rss-st.txt");
    fs::write(&st_only, "st 0 15\n").unwrap();
    let out = relmax(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            st_only.to_str().unwrap(),
            "--estimator",
            "rss",
            "--max-hops",
            "3",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("under a max-hops bound"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Top-k rides the from-vector kernel, which rss serves fine.
    let topk = tmp("rss-topk.txt");
    fs::write(&topk, "topk 0 3\n").unwrap();
    let out = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            topk.to_str().unwrap(),
            "--estimator",
            "rss",
            "--format",
            "json",
        ],
        &[],
    );
    assert!(out.contains("\"kind\":\"topk\""), "{out}");
}

#[test]
fn constrained_queries_byte_identical_across_threads_and_kernels() {
    let rgs = ingest_toy("constrained-threads.rgs");
    let wl = tmp("constrained-threads.txt");
    fs::write(
        &wl,
        "% max-hops 4\nst 0 15\nset 0,1 14,15\ntopk 0 3\nhops 0 15\n",
    )
    .unwrap();
    for format in ["table", "json"] {
        let args = [
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            wl.to_str().unwrap(),
            "--samples",
            "500",
            "--format",
            format,
        ];
        let t1 = stdout_of(&args, &[("RELMAX_THREADS", "1")]);
        let t4 = stdout_of(&args, &[("RELMAX_THREADS", "4")]);
        let scalar = stdout_of(
            &args,
            &[("RELMAX_THREADS", "4"), ("RELMAX_KERNEL", "scalar")],
        );
        assert_eq!(
            t1, t4,
            "constrained stdout must not depend on thread count ({format})"
        );
        assert_eq!(
            t1, scalar,
            "constrained stdout must not depend on the kernel ({format})"
        );
    }
}

#[test]
fn constrained_query_golden_output() {
    let rgs = ingest_toy("constrained-golden.rgs");
    let queries = fixture("constrained_queries.txt");
    let out = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
            "--samples",
            "1000",
            "--seed",
            "42",
        ],
        &[("RELMAX_THREADS", "2")],
    );
    assert_golden(&fixture("constrained_golden.txt"), &out);
}

#[test]
fn emitted_constrained_workload_replays_identically() {
    // A CLI --max-hops override is baked into the emitted file as a
    // `% max-hops` directive, so the replay needs no flags.
    let rgs = ingest_toy("emit-hops.rgs");
    let wl = tmp("emit-hops-src.txt");
    fs::write(&wl, "st 0 15\nset 0,1 14,15\n").unwrap();
    let qfile = tmp("emit-hops.txt");
    let generated = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            wl.to_str().unwrap(),
            "--max-hops",
            "3",
            "--samples",
            "300",
            "--format",
            "json",
            "--emit-queries",
            qfile.to_str().unwrap(),
        ],
        &[],
    );
    let emitted = fs::read_to_string(&qfile).unwrap();
    assert!(
        emitted.contains("% max-hops 3\n"),
        "emitted file lacks the hop directive: {emitted}"
    );
    let replayed = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            qfile.to_str().unwrap(),
            "--samples",
            "300",
            "--format",
            "json",
        ],
        &[],
    );
    assert_eq!(generated, replayed);
}

#[test]
fn emitted_workload_replays_identically() {
    let rgs = ingest_toy("emit.rgs");
    let qfile = tmp("emitted.txt");
    let generated = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--gen",
            "10",
            "--samples",
            "300",
            "--emit-queries",
            qfile.to_str().unwrap(),
        ],
        &[],
    );
    let replayed = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            qfile.to_str().unwrap(),
            "--samples",
            "300",
        ],
        &[],
    );
    assert_eq!(generated, replayed);
}

#[test]
fn emitted_accuracy_workload_replays_identically_without_flags() {
    // --emit-queries must carry the resolved accuracy budget as a
    // `% accuracy` directive, so the emitted file replays the run
    // byte-for-byte with no budget flags at all.
    let rgs = ingest_toy("emit-acc.rgs");
    let qfile = tmp("emitted-acc.txt");
    let generated = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--gen",
            "5",
            "--eps",
            "0.05",
            "--max-samples",
            "4096",
            "--format",
            "json",
            "--emit-queries",
            qfile.to_str().unwrap(),
        ],
        &[],
    );
    let emitted = fs::read_to_string(&qfile).unwrap();
    assert!(
        emitted.starts_with("% accuracy 0.05 0.05 4096\n"),
        "emitted file lacks the directive: {emitted}"
    );
    let replayed = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            qfile.to_str().unwrap(),
            "--format",
            "json",
        ],
        &[],
    );
    assert_eq!(generated, replayed);
}

#[test]
fn accuracy_budget_is_byte_identical_across_thread_counts() {
    let rgs = ingest_toy("accuracy-threads.rgs");
    for format in ["table", "json"] {
        let args = [
            "query",
            rgs.to_str().unwrap(),
            "--gen",
            "30",
            "--min-hops",
            "1",
            "--max-hops",
            "6",
            "--eps",
            "0.05",
            "--delta",
            "0.05",
            "--max-samples",
            "8192",
            "--verbose-estimates",
            "--format",
            format,
        ];
        let t1 = stdout_of(&args, &[("RELMAX_THREADS", "1")]);
        let t4 = stdout_of(&args, &[("RELMAX_THREADS", "4")]);
        assert_eq!(
            t1, t4,
            "adaptive stopping must not depend on thread count ({format})"
        );
    }
}

#[test]
fn accuracy_json_carries_estimate_fields_and_stops_early() {
    let rgs = ingest_toy("accuracy-json.rgs");
    let out = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--gen",
            "5",
            "--eps",
            "0.05",
            "--max-samples",
            "65536",
            "--format",
            "json",
        ],
        &[],
    );
    for field in [
        "\"budget\":{\"kind\":\"accuracy\"",
        "\"stderr\":",
        "\"ci_low\":",
        "\"ci_high\":",
        "\"samples_used\":",
        "\"stopped_early\":",
    ] {
        assert!(out.contains(field), "JSON lacks {field}: {out}");
    }
    // The toy graph converges to ±0.05 long before 65536 worlds.
    assert!(
        out.contains("\"stopped_early\":true"),
        "expected early stopping on the toy graph: {out}"
    );
}

#[test]
fn verbose_estimates_is_opt_in_for_tables() {
    let rgs = ingest_toy("verbose.rgs");
    let base_args = [
        "query",
        rgs.to_str().unwrap(),
        "--gen",
        "3",
        "--samples",
        "200",
    ];
    let plain = stdout_of(&base_args, &[]);
    assert!(!plain.contains("stderr"), "default table must stay stable");
    let mut verbose_args = base_args.to_vec();
    verbose_args.push("--verbose-estimates");
    let verbose = stdout_of(&verbose_args, &[]);
    for col in ["stderr", "ci_low", "ci_high", "early"] {
        assert!(verbose.contains(col), "verbose table lacks {col}");
    }
}

#[test]
fn workload_accuracy_directive_applies_unless_overridden() {
    let rgs = ingest_toy("directive.rgs");
    let wl = tmp("directive.txt");
    fs::write(&wl, "% accuracy 0.05 0.05 4096\nst 0 15\n").unwrap();
    let from_file = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            wl.to_str().unwrap(),
            "--format",
            "json",
        ],
        &[],
    );
    assert!(from_file.contains("\"kind\":\"accuracy\",\"eps\":0.05"));
    assert!(from_file.contains("\"max_samples\":4096"));
    let overridden = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            wl.to_str().unwrap(),
            "--eps",
            "0.1",
            "--format",
            "json",
        ],
        &[],
    );
    // Per-field override: --eps wins, the file's delta and cap survive.
    assert!(overridden.contains("\"kind\":\"accuracy\",\"eps\":0.1"));
    assert!(overridden.contains("\"max_samples\":4096"));
    // A lone --max-samples is valid when the file supplies eps.
    let capped = stdout_of(
        &[
            "query",
            rgs.to_str().unwrap(),
            "--queries",
            wl.to_str().unwrap(),
            "--max-samples",
            "2048",
            "--format",
            "json",
        ],
        &[],
    );
    assert!(capped.contains("\"eps\":0.05"));
    assert!(capped.contains("\"max_samples\":2048"));
}

#[test]
fn unknown_method_exits_2_and_lists_the_registry() {
    let out = relmax(
        &[
            "select", "x.rgs", "--method", "NOPE", "--source", "0", "--target", "1",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown method \"NOPE\""), "{err}");
    // The structured error carries every valid name.
    for name in [
        "BE", "IP", "MRP", "HC", "TopK", "Cent-Deg", "Cent-Bet", "EO", "ES", "ESSSP", "IMA",
    ] {
        assert!(err.contains(name), "error lacks method {name}: {err}");
    }
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        vec![],
        vec!["frobnicate"],
        vec!["query"],
        vec![
            "select", "x", "--method", "NOPE", "--source", "0", "--target", "1",
        ],
        vec!["query", "x", "--gen", "1", "--format", "yaml"],
        vec!["query", "x", "--gen", "1", "--eps", "1.5"],
        vec!["query", "x", "--gen", "1", "--delta", "0.1"], // --delta without --eps
        vec!["ingest", "in.tsv"],                           // missing -o
    ] {
        let out = relmax(&args, &[]);
        assert_eq!(out.status.code(), Some(2), "args={args:?}");
    }
}

#[test]
fn data_errors_exit_1() {
    let bad_prob = tmp("bad-prob.tsv");
    fs::write(&bad_prob, "0 1 1.7\n").unwrap();
    let dangling = tmp("dangling.tsv");
    fs::write(&dangling, "% nodes 2\n0 1 0.5\n0 9 0.5\n").unwrap();

    for (input, needle) in [
        (bad_prob.to_str().unwrap(), "not in [0, 1]"),
        (dangling.to_str().unwrap(), "out of bounds"),
        ("/nonexistent/path.tsv", "No such file"),
    ] {
        let out = relmax(&["query", input, "--gen", "1"], &[]);
        assert_eq!(out.status.code(), Some(1), "input={input}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "input={input}: {err}");
    }
}

#[test]
fn corrupt_snapshots_are_rejected() {
    let rgs = ingest_toy("corrupt.rgs");
    let bytes = fs::read(&rgs).unwrap();

    let truncated = tmp("truncated.rgs");
    fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let out = relmax(&["query", truncated.to_str().unwrap(), "--gen", "1"], &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));

    let wrong_version = tmp("wrong-version.rgs");
    let mut patched = bytes.clone();
    patched[4..8].copy_from_slice(&9u32.to_le_bytes());
    fs::write(&wrong_version, &patched).unwrap();
    let out = relmax(
        &["query", wrong_version.to_str().unwrap(), "--gen", "1"],
        &[],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("version"));

    let flipped = tmp("flipped.rgs");
    let mut patched = bytes;
    let last = patched.len() - 1;
    patched[last] ^= 0xff;
    fs::write(&flipped, &patched).unwrap();
    let out = relmax(&["query", flipped.to_str().unwrap(), "--gen", "1"], &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checksum"));
}

/// `relmax index g.rgs -o g.rgs` re-saves a graph over the file it is
/// mapped from: the write must replace the file, not truncate the pages
/// under the mapping, and produce the out-of-place bytes.
#[test]
fn in_place_index_matches_out_of_place_bytes() {
    let rgs = ingest_toy("inplace.rgs");
    let out = tmp("inplace-out.rgs");
    let (rgs, out) = (rgs.to_str().unwrap(), out.to_str().unwrap());
    let mmap = [("RELMAX_MMAP", "on")];
    stdout_of(&["index", rgs, "-o", out], &mmap);
    stdout_of(&["index", rgs, "-o", rgs], &mmap);
    assert_eq!(fs::read(rgs).unwrap(), fs::read(out).unwrap());
}

#[test]
fn help_prints_usage_on_stdout() {
    let out = relmax(&["help"], &[]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["ingest", "query", "select", "--estimator"] {
        assert!(text.contains(needle), "usage lacks {needle}");
    }
}
