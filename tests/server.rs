//! Black-box suite for `relmax serve`: spawns the real binary on an
//! ephemeral port and drives it with a hand-rolled HTTP/1.1 client.
//!
//! What is pinned here, end to end over the wire:
//!
//! * **byte identity** — response bodies are identical across compute
//!   thread counts, across the scalar/packed Monte-Carlo kernels, and the
//!   `"results"` array is byte-identical to `relmax query --format json`
//!   for the same workload + seed + budget;
//! * **protocol faults** — truncated requests, missing `Content-Length`,
//!   oversized bodies, malformed query bodies, mid-request disconnects,
//!   and corrupt reloads each map to one pinned status code + error
//!   shape, and none of them wedge the server;
//! * **hot swap** — a reload storm under concurrent query bursts never
//!   tears a response (every body is consistent with exactly one snapshot
//!   generation) and a corrupt reload leaves the old generation serving;
//! * **concurrency** — concurrent same-source st-queries return bytes
//!   identical to the same queries issued one at a time;
//! * **admission control** — beyond `--queue-cap`, connections are shed
//!   with `503` + `Retry-After`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, Once};
use std::time::Duration;

// ---------------------------------------------------------------- harness

/// Path to the `relmax` binary, built once per test process (plain
/// `cargo test` does not build bin targets of other workspace members).
/// The build runs even when a binary exists, so a binary left over from
/// older sources is never the one tested; an up-to-date build is a
/// no-op.
fn relmax_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("relmax{}", std::env::consts::EXE_SUFFIX));
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut cmd = Command::new(cargo);
        cmd.args(["build", "-p", "relmax-cli", "--quiet"]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("cargo build -p relmax-cli");
        assert!(status.success(), "building the relmax binary failed");
    });
    assert!(bin.exists(), "relmax binary missing at {}", bin.display());
    bin
}

/// A scratch directory unique to this test process.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relmax-serve-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Ingest `data/toy.tsv` into a `.rgs` snapshot inside `dir`.
fn ingest_toy(dir: &Path) -> PathBuf {
    let out = dir.join("toy.rgs");
    let status = Command::new(relmax_bin())
        .args(["ingest", "data/toy.tsv", "-o"])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("relmax ingest");
    assert!(status.success(), "ingest failed");
    out
}

/// A spawned server, killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawn `relmax serve` with extra args/env and wait for the
    /// `listening on http://…` line to learn the ephemeral port.
    fn spawn(snapshot: &Path, args: &[&str], envs: &[(&str, &str)]) -> Server {
        let mut cmd = Command::new(relmax_bin());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        Server::launch(cmd, snapshot, args)
    }

    /// Spawn `cmd serve <snapshot> --port 0 <args>`, where `cmd` runs the
    /// `relmax` binary (directly, or through a wrapper such as
    /// [`memory_limited`]).
    fn launch(mut cmd: Command, snapshot: &Path, args: &[&str]) -> Server {
        cmd.arg("serve")
            .arg(snapshot)
            .args(["--port", "0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn relmax serve");
        let stdout = child.stdout.take().expect("server stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
            .to_string();
        Server { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A parsed HTTP response.
#[derive(Debug)]
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Send raw bytes, half-close the write side, read the full response.
fn raw(addr: &str, bytes: &[u8]) -> Reply {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.write_all(bytes).expect("write request");
    let _ = s.shutdown(Shutdown::Write);
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    parse_reply(&buf)
}

fn parse_reply(buf: &[u8]) -> Reply {
    let text = String::from_utf8_lossy(buf);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {text:?}"));
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line {status_line:?}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

/// A well-formed request with an optional body.
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> Reply {
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    if let Some(b) = body {
        req.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    req.push_str("\r\n");
    if let Some(b) = body {
        req.push_str(b);
    }
    raw(addr, req.as_bytes())
}

fn query(addr: &str, body: &str) -> Reply {
    http(addr, "POST", "/query", Some(body))
}

/// Extract an integer field (`"key":N`) from a flat JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {pat:?} in {body:?}"))
        + pat.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {pat:?} in {body:?}"))
}

/// A flat `key value` metric from a `/metrics` body.
fn metric(addr: &str, key: &str) -> u64 {
    let reply = http(addr, "GET", "/metrics", None);
    assert_eq!(reply.status, 200);
    reply
        .body
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("no metric {key:?} in:\n{}", reply.body))
        .parse()
        .unwrap_or_else(|_| panic!("metric {key} is not an integer"))
}

// -------------------------------------------------- wire-level bit identity

#[test]
fn response_bytes_identical_across_threads_and_kernels() {
    let dir = scratch("identity");
    let rgs = ingest_toy(&dir);
    let body = "% seed 7\nst 0 3\nfrom 1\nto 3\n2 5\npairwise 0,1 2,3\n";

    let baseline = {
        let srv = Server::spawn(&rgs, &["--threads", "1"], &[("RELMAX_THREADS", "1")]);
        let reply = query(&srv.addr, body);
        assert_eq!(reply.status, 200, "{}", reply.body);
        reply.body
    };
    let threaded = {
        let srv = Server::spawn(&rgs, &["--threads", "4"], &[("RELMAX_THREADS", "4")]);
        query(&srv.addr, body).body
    };
    let scalar_kernel = {
        let srv = Server::spawn(&rgs, &["--threads", "4"], &[("RELMAX_KERNEL", "scalar")]);
        query(&srv.addr, body).body
    };
    assert_eq!(baseline, threaded, "thread count changed response bytes");
    assert_eq!(baseline, scalar_kernel, "kernel changed response bytes");

    // Repeating the identical request on one server is also byte-stable.
    let srv = Server::spawn(&rgs, &["--threads", "2"], &[]);
    assert_eq!(query(&srv.addr, body).body, query(&srv.addr, body).body);
}

#[test]
fn server_results_match_query_cli_byte_for_byte() {
    let dir = scratch("vs-cli");
    let rgs = ingest_toy(&dir);
    // The same specs, once as a server request body (seed pinned by the
    // `% seed` directive) and once as a workload file (seed via --seed).
    let specs = "st 0 3\nfrom 1\nto 3\n2 5\n";
    let workload = dir.join("wl.txt");
    std::fs::write(&workload, specs).unwrap();

    let srv = Server::spawn(&rgs, &["--threads", "2"], &[]);
    let server_body = query(&srv.addr, &format!("% seed 7\n{specs}")).body;

    let cli = Command::new(relmax_bin())
        .arg("query")
        .arg(&rgs)
        .arg("--queries")
        .arg(&workload)
        .args(["--seed", "7", "--samples", "1000", "--format", "json"])
        .stderr(Stdio::null())
        .output()
        .expect("relmax query");
    assert!(cli.status.success());
    let cli_body = String::from_utf8(cli.stdout).unwrap();

    let tail = |s: &str| {
        let i = s.find("\"results\":").expect("results array");
        s[i..].trim_end().to_string()
    };
    assert_eq!(
        tail(&server_body),
        tail(&cli_body),
        "server and CLI disagree on the same workload"
    );

    // Accuracy budgets ride the same contract: `% accuracy` on the wire
    // vs --eps/--delta/--max-samples on the CLI.
    let acc_body = query(
        &srv.addr,
        &format!("% accuracy 0.05 0.05 8192\n% seed 7\n{specs}"),
    )
    .body;
    let cli_acc = Command::new(relmax_bin())
        .arg("query")
        .arg(&rgs)
        .arg("--queries")
        .arg(&workload)
        .args([
            "--seed",
            "7",
            "--eps",
            "0.05",
            "--delta",
            "0.05",
            "--max-samples",
            "8192",
            "--format",
            "json",
        ])
        .stderr(Stdio::null())
        .output()
        .expect("relmax query (accuracy)");
    assert!(cli_acc.status.success());
    assert_eq!(
        tail(&acc_body),
        tail(&String::from_utf8(cli_acc.stdout).unwrap()),
        "accuracy-budget results diverge from the CLI"
    );
}

#[test]
fn constrained_wire_forms_answer_and_match_the_cli_byte_for_byte() {
    let dir = scratch("constrained");
    let rgs = ingest_toy(&dir);
    // Every constrained shape at once: a hop-bounded st (via the
    // `% max-hops` directive), set reliability (the directive applies
    // here too), a top-k ranking, and an expected-hops query.
    let specs = "st 0 15\nset 0,1 14,15\ntopk 0 3\nhops 0 15\n";
    let body = format!("% seed 7\n% max-hops 4\n{specs}");

    let srv = Server::spawn(&rgs, &["--threads", "2"], &[]);
    let reply = query(&srv.addr, &body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    for needle in [
        "\"kind\":\"st_within\"",
        "\"max_hops\":4",
        "\"kind\":\"set\"",
        "\"kind\":\"topk\"",
        "\"targets\":[{\"node\":",
        "\"kind\":\"hops\"",
        "\"expected_hops\":",
        "\"hop_sum\":",
    ] {
        assert!(
            reply.body.contains(needle),
            "missing {needle}: {}",
            reply.body
        );
    }

    // Byte identity across thread counts and kernels for the constrained
    // vocabulary, same contract as the unconstrained shapes.
    let threaded = {
        let srv = Server::spawn(&rgs, &["--threads", "4"], &[("RELMAX_THREADS", "4")]);
        query(&srv.addr, &body).body
    };
    let scalar_kernel = {
        let srv = Server::spawn(&rgs, &["--threads", "4"], &[("RELMAX_KERNEL", "scalar")]);
        query(&srv.addr, &body).body
    };
    assert_eq!(
        reply.body, threaded,
        "thread count changed constrained bytes"
    );
    assert_eq!(
        reply.body, scalar_kernel,
        "kernel changed constrained bytes"
    );

    // The same workload through `relmax query --format json` carries a
    // byte-identical results array (the file spells the directive, the
    // CLI pins the seed).
    let workload = dir.join("constrained.txt");
    std::fs::write(&workload, format!("% max-hops 4\n{specs}")).unwrap();
    let cli = Command::new(relmax_bin())
        .arg("query")
        .arg(&rgs)
        .arg("--queries")
        .arg(&workload)
        .args(["--seed", "7", "--samples", "1000", "--format", "json"])
        .stderr(Stdio::null())
        .output()
        .expect("relmax query");
    assert!(cli.status.success());
    let tail = |s: &str| {
        let i = s.find("\"results\":").expect("results array");
        s[i..].trim_end().to_string()
    };
    assert_eq!(
        tail(&reply.body),
        tail(&String::from_utf8(cli.stdout).unwrap()),
        "server and CLI disagree on the constrained workload"
    );
}

#[test]
fn unsupported_constrained_shapes_are_422_under_rss() {
    let dir = scratch("constrained-rss");
    let rgs = ingest_toy(&dir);
    let srv = Server::spawn(&rgs, &["--threads", "1", "--estimator", "rss"], &[]);
    let addr = &srv.addr;

    // A set query is constrained regardless of any hop bound; the error
    // names the first offending query, not the whole batch.
    let r = query(addr, "st 0 3\nset 0,1 14,15\n");
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"query\":2"), "{}", r.body);
    assert!(
        r.body.contains("does not support constrained query shapes"),
        "{}",
        r.body
    );

    // A hop bound turns plain st queries constrained too.
    let r = query(addr, "% max-hops 3\nst 0 3\n");
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(r.body.contains("\"query\":1"), "{}", r.body);

    let r = query(addr, "hops 0 15\n");
    assert_eq!(r.status, 422, "{}", r.body);

    // Top-k rides the from-vector kernel, which every estimator serves.
    let r = query(addr, "topk 0 3\n");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"kind\":\"topk\""), "{}", r.body);

    // Rejections left the server healthy.
    let r = query(addr, "st 0 3\n");
    assert_eq!(r.status, 200, "{}", r.body);
}

// ------------------------------------------------------- protocol faults

#[test]
fn fault_injection_pins_status_codes_and_error_shapes() {
    let dir = scratch("faults");
    let rgs = ingest_toy(&dir);
    let srv = Server::spawn(&rgs, &["--threads", "1"], &[]);
    let addr = &srv.addr;

    // Truncated request line: bytes end before the header terminator.
    let r = raw(addr, b"GET /healthz");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("truncated"), "{}", r.body);

    // POST without Content-Length.
    let r = raw(addr, b"POST /query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(r.status, 411);
    assert!(r.body.contains("Content-Length"), "{}", r.body);

    // Oversized body: rejected from the declared length alone.
    let r = raw(
        addr,
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 1048577\r\n\r\n",
    );
    assert_eq!(r.status, 413);

    // Malformed query body: line-numbered error JSON.
    let r = query(addr, "st 0 3\nst 5\n");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("\"line\":2"), "{}", r.body);
    assert!(r.body.contains("arity"), "{}", r.body);

    let r = query(addr, "% budget 100\n");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("\"line\":1"), "{}", r.body);
    assert!(r.body.contains("unknown directive"), "{}", r.body);

    // Node out of range: 422, query-numbered.
    let r = query(addr, "st 0 3\nst 0 99\n");
    assert_eq!(r.status, 422);
    assert!(r.body.contains("\"query\":2"), "{}", r.body);
    assert!(r.body.contains("16 nodes"), "{}", r.body);

    // Empty request.
    let r = query(addr, "# only comments\n");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("no queries"), "{}", r.body);

    // Binary garbage is a 400, not a panic.
    let r = raw(
        addr,
        b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n\xff\xfe",
    );
    assert_eq!(r.status, 400);
    assert!(r.body.contains("UTF-8"), "{}", r.body);

    // Unknown endpoint / wrong method.
    let r = http(addr, "GET", "/nope", None);
    assert_eq!(r.status, 404);
    let r = http(addr, "GET", "/query", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("Allow"), Some("POST"));
    let r = http(addr, "POST", "/metrics", Some(""));
    assert_eq!(r.status, 405);
    assert_eq!(r.header("Allow"), Some("GET"));

    // Mid-request disconnect: declare 50 body bytes, send 4, vanish.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\nst 0")
            .unwrap();
        drop(s);
    }

    // After all of the above the server still answers cleanly.
    let r = http(addr, "GET", "/healthz", None);
    assert_eq!(r.status, 200);
    assert_eq!(json_u64(&r.body, "generation"), 1);
    let r = query(addr, "st 0 3\n");
    assert_eq!(r.status, 200, "{}", r.body);
}

#[test]
fn corrupt_reload_keeps_the_old_snapshot_serving() {
    let dir = scratch("reload");
    let rgs = ingest_toy(&dir);
    let srv = Server::spawn(&rgs, &["--threads", "1"], &[]);
    let addr = &srv.addr;

    let before = query(addr, "% seed 3\nst 0 3\nfrom 1\n");
    assert_eq!(before.status, 200);
    assert_eq!(json_u64(&before.body, "generation"), 1);

    // Corrupt copy: flip the last payload byte (checksum mismatch).
    let mut bytes = std::fs::read(&rgs).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    let corrupt = dir.join("corrupt.rgs");
    std::fs::write(&corrupt, &bytes).unwrap();

    let r = http(addr, "POST", "/reload", Some(corrupt.to_str().unwrap()));
    assert_eq!(r.status, 409, "{}", r.body);
    assert!(r.body.contains("checksum"), "{}", r.body);

    // A missing path is also a 409, not a crash.
    let r = http(addr, "POST", "/reload", Some("/nonexistent/nowhere.rgs"));
    assert_eq!(r.status, 409);

    // The old generation is still serving, bit-identically.
    let health = http(addr, "GET", "/healthz", None);
    assert_eq!(json_u64(&health.body, "generation"), 1);
    let after = query(addr, "% seed 3\nst 0 3\nfrom 1\n");
    assert_eq!(after.body, before.body);
    assert_eq!(metric(addr, "reload_failures_total"), 2);
    assert_eq!(metric(addr, "reloads_total"), 0);

    // An empty reload body re-reads the current path and bumps the
    // generation; the answers do not move (same snapshot bytes).
    let r = http(addr, "POST", "/reload", Some(""));
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(json_u64(&r.body, "generation"), 2);
    let reloaded = query(addr, "% seed 3\nst 0 3\nfrom 1\n");
    assert_eq!(json_u64(&reloaded.body, "generation"), 2);
    assert_eq!(
        reloaded
            .body
            .replace("\"generation\":2", "\"generation\":1"),
        before.body,
    );
}

/// Run the `relmax` binary to completion: (exit code, stdout, stderr).
fn run_relmax(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(relmax_bin())
        .args(args)
        .output()
        .expect("run relmax");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The error paths every front end shares: flag parsing, opening a graph
/// file, and resolving a stored index section. The CLI verbs and the
/// server must keep their exit codes, status codes and messages.
#[test]
fn graph_file_and_estimator_errors_are_pinned_across_front_ends() {
    let dir = scratch("front-door");
    let rgs = ingest_toy(&dir);
    let rgs_s = rgs.to_str().unwrap();

    // An unknown estimator is a usage error (exit 2) on every verb that
    // takes one, with the same message; `serve` fails before it binds.
    let estimator_msg = "--estimator must be `mc` or `rss`, got \"bogus\"";
    for args in [
        &["query", rgs_s, "--gen", "3", "--estimator", "bogus"][..],
        &[
            "select",
            rgs_s,
            "--method",
            "BE",
            "--source",
            "0",
            "--target",
            "15",
            "--estimator",
            "bogus",
        ],
        &["serve", rgs_s, "--port", "0", "--estimator", "bogus"],
    ] {
        let (code, stdout, stderr) = run_relmax(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.contains(estimator_msg), "{args:?}: {stderr}");
    }

    // A missing graph file is a runtime error (exit 1) naming the path.
    let missing = dir.join("missing.rgs");
    let missing_s = missing.to_str().unwrap();
    let (code, _, stderr) = run_relmax(&["query", missing_s, "--gen", "3"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains(&format!("error: cannot open {missing_s}: ")),
        "{stderr}"
    );

    // Text-only flags on a snapshot are answered with a note, not dropped
    // silently; the run itself succeeds.
    let (code, stdout, stderr) = run_relmax(&["query", rgs_s, "--gen", "3", "--undirected"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(!stdout.is_empty());
    assert!(
        stderr.contains(&format!(
            "note: --undirected only apply to text edge lists; {rgs_s} is a .rgs snapshot whose orientation and node count are fixed at ingest"
        )),
        "{stderr}"
    );

    // A snapshot carrying the index section of a different graph of the
    // same size: 0->1, 2->3 stored with the section of 0->2, 1->3, whose
    // possible components disagree with the graph's.
    use relmax_ugraph::{snapshot, NodeId, RelIndex, UncertainGraph};
    let graph = |edges: [(u32, u32); 2]| {
        let mut g = UncertainGraph::new(4, true);
        for (s, t) in edges {
            g.add_edge(NodeId(s), NodeId(t), 0.5).unwrap();
        }
        g.freeze()
    };
    let served = graph([(0, 1), (2, 3)]);
    let other = graph([(0, 2), (1, 3)]);
    let lying = dir.join("lying.rgs");
    let lying_s = lying.to_str().unwrap();
    snapshot::save_full(&served, Some(&RelIndex::build(&other).section()), &lying).unwrap();
    let section_msg = format!("{lying_s}: stored index section: ");

    let (code, stdout, stderr) = run_relmax(&["query", lying_s, "--gen", "3"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains(&format!("error: {section_msg}")),
        "{stderr}"
    );
    // `--no-index` never reads the section, so the graph still answers.
    let (code, _, stderr) = run_relmax(&["query", lying_s, "--gen", "3", "--no-index"]);
    assert_eq!(code, 0, "{stderr}");

    // The server refuses the same file on reload with the same message,
    // and the old generation keeps serving.
    let srv = Server::spawn(&rgs, &["--threads", "1"], &[]);
    let addr = &srv.addr;
    let before = query(addr, "% seed 5\nst 0 15\n");
    assert_eq!(before.status, 200, "{}", before.body);
    let r = http(addr, "POST", "/reload", Some(lying_s));
    assert_eq!(r.status, 409, "{}", r.body);
    assert!(r.body.contains(&section_msg), "{}", r.body);
    let after = query(addr, "% seed 5\nst 0 15\n");
    assert_eq!(json_u64(&after.body, "generation"), 1);
    assert_eq!(after.body, before.body);
}

/// A command that runs the `relmax` binary (arguments appended by the
/// caller) under a 1 GB address-space limit, so a reservation of many
/// gigabytes fails inside the process instead of being granted.
fn memory_limited() -> Command {
    let mut cmd = Command::new("sh");
    cmd.args(["-c", "ulimit -v 1000000 && exec \"$0\" \"$@\""])
        .arg(relmax_bin());
    cmd
}

/// An edge list declaring a node count the loader cannot hold is an
/// error with a message, never an abort: past the `u32` node id space it
/// is refused outright, and a count inside it whose per-node arrays do
/// not fit the process's memory fails its reservation. `relmax query`
/// exits 1 and a `POST /reload` answers 409 while the old generation
/// keeps serving.
#[test]
fn oversized_node_counts_are_errors_not_aborts() {
    let dir = scratch("huge-nodes");
    let rgs = ingest_toy(&dir);
    let past = dir.join("past.tsv");
    std::fs::write(&past, "% nodes 4294967296\n0 1 0.5\n").unwrap();
    let huge = dir.join("huge.tsv");
    std::fs::write(&huge, "% nodes 4000000000\n0 1 0.5\n").unwrap();
    let (past_s, huge_s) = (past.to_str().unwrap(), huge.to_str().unwrap());
    let past_msg = format!(
        "error: {past_s}: node count 4294967296 exceeds the node id space (at most 4294967295 nodes)"
    );
    let huge_msg = format!("{huge_s}: cannot reserve memory for 4000000000 nodes: ");

    let (code, stdout, stderr) = run_relmax(&["query", past_s, "--gen", "3"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains(&past_msg), "{stderr}");

    let out = memory_limited()
        .args(["query", huge_s, "--gen", "3"])
        .output()
        .expect("run relmax under a memory limit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(stderr.contains(&format!("error: {huge_msg}")), "{stderr}");

    let srv = Server::launch(memory_limited(), &rgs, &["--threads", "1"]);
    let addr = &srv.addr;
    let before = query(addr, "% seed 5\nst 0 15\n");
    assert_eq!(before.status, 200, "{}", before.body);
    for (file, msg) in [
        (past_s, &past_msg["error: ".len()..]),
        (huge_s, &huge_msg[..]),
    ] {
        let r = http(addr, "POST", "/reload", Some(file));
        assert_eq!(r.status, 409, "{}", r.body);
        assert!(r.body.contains(msg), "{}", r.body);
    }
    let after = query(addr, "% seed 5\nst 0 15\n");
    assert_eq!(json_u64(&after.body, "generation"), 1);
    assert_eq!(after.body, before.body);
}

/// A node id past an edge list's declared `% nodes` count is reported as
/// out of bounds on its line, and costs no memory for the ids below it:
/// under the same memory limit, the loader never asks for per-node
/// arrays sized by the dangling id.
#[test]
fn dangling_ids_past_a_declared_count_are_out_of_bounds_not_reservations() {
    let dir = scratch("dangling-id");
    let file = dir.join("dangling.tsv");
    std::fs::write(&file, "% nodes 5\n0 1 0.5\n2 3000000000 0.5\n").unwrap();
    let file_s = file.to_str().unwrap();
    let out = memory_limited()
        .args(["query", file_s, "--gen", "3"])
        .output()
        .expect("run relmax under a memory limit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.contains(&format!(
            "error: {file_s}: line 3: node 3000000000 out of bounds for graph with 5 nodes"
        )),
        "{stderr}"
    );
}

// ------------------------------------------------- concurrency + hot swap

#[test]
fn concurrent_same_source_st_queries_answer_with_sequential_bytes() {
    let dir = scratch("concurrent");
    let rgs = ingest_toy(&dir);
    // One compute worker + a post-dequeue sleep: the sibling requests
    // queue up behind the first dequeued job.
    let srv = Server::spawn(
        &rgs,
        &["--threads", "1"],
        &[("RELMAX_SERVE_TEST_SLOW_MS", "250")],
    );
    let targets = [3u32, 5, 7];

    // Sequential baseline: arrivals are serial.
    let solo: Vec<String> = targets
        .iter()
        .map(|t| {
            let r = query(&srv.addr, &format!("% seed 9\nst 0 {t}\n"));
            assert_eq!(r.status, 200, "{}", r.body);
            r.body
        })
        .collect();

    // Concurrent burst: same source, same seed, same budget.
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = targets
            .iter()
            .map(|t| {
                let addr = srv.addr.clone();
                scope.spawn(move || query(&addr, &format!("% seed 9\nst 0 {t}\n")).body)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (concurrent, sequential) in replies.iter().zip(&solo) {
        assert_eq!(concurrent, sequential, "concurrency changed response bytes");
    }
}

#[test]
fn hot_swap_never_tears_responses_under_concurrent_reloads() {
    let dir = scratch("hotswap");
    let rgs = ingest_toy(&dir);
    // A second, structurally different graph (8 nodes) to alternate with.
    let alt = dir.join("alt.tsv");
    std::fs::write(
        &alt,
        "% nodes 8\n% directed\n0 1 0.7\n1 2 0.7\n2 3 0.7\n3 4 0.6\n4 5 0.6\n5 6 0.6\n6 7 0.6\n0 3 0.4\n",
    )
    .unwrap();

    let srv = Server::spawn(&rgs, &["--threads", "2"], &[]);
    let addr = srv.addr.clone();
    // generation -> node count, learned from reload responses (generation
    // 1 is the initial snapshot).
    let seen = Mutex::new(HashMap::from([(1u64, 16u64)]));

    std::thread::scope(|scope| {
        let reloader = {
            let addr = addr.clone();
            let seen = &seen;
            let alt = alt.clone();
            let rgs = rgs.clone();
            scope.spawn(move || {
                for i in 0..6 {
                    let path = if i % 2 == 0 { &alt } else { &rgs };
                    let r = http(&addr, "POST", "/reload", Some(path.to_str().unwrap()));
                    assert_eq!(r.status, 200, "{}", r.body);
                    seen.lock()
                        .unwrap()
                        .insert(json_u64(&r.body, "generation"), json_u64(&r.body, "nodes"));
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        };
        for _ in 0..2 {
            let addr = addr.clone();
            let seen = &seen;
            scope.spawn(move || {
                let mut last_generation = 0u64;
                for _ in 0..15 {
                    // Nodes 0..=3 exist in both graphs.
                    let r = query(&addr, "% seed 5\nst 0 3\nfrom 1\n");
                    assert_eq!(r.status, 200, "{}", r.body);
                    let generation = json_u64(&r.body, "generation");
                    let nodes = json_u64(&r.body, "nodes");
                    // Sequential requests observe non-decreasing
                    // generations (each request pins at arrival).
                    assert!(generation >= last_generation);
                    last_generation = generation;
                    // The `from` vector is as long as the graph the
                    // response claims: a torn render (graph from one
                    // generation, header from another) cannot pass.
                    let values = r.body.rfind("\"values\":[").expect("from values");
                    let end = r.body[values..].find(']').unwrap() + values;
                    let count = r.body[values + 10..end].split(',').count() as u64;
                    assert_eq!(count, nodes, "torn response: {}", r.body);
                    // And the generation must be one a reload (or startup)
                    // actually produced, with exactly this node count.
                    let deadline = std::time::Instant::now() + Duration::from_secs(5);
                    loop {
                        if let Some(&n) = seen.lock().unwrap().get(&generation) {
                            assert_eq!(n, nodes, "generation {generation} mixed graphs");
                            break;
                        }
                        assert!(
                            std::time::Instant::now() < deadline,
                            "response cites unknown generation {generation}"
                        );
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            });
        }
        reloader.join().unwrap();
    });

    assert_eq!(metric(&addr, "reloads_total"), 6);
    assert_eq!(metric(&addr, "reload_failures_total"), 0);
}

// ------------------------------------------------------ admission control

#[test]
fn admission_control_sheds_load_with_503_and_retry_after() {
    let dir = scratch("admission");
    let rgs = ingest_toy(&dir);
    // One IO worker, a one-slot connection queue, and slow compute: the
    // first query pins the IO worker, the second fills the queue, the
    // rest must bounce.
    let srv = Server::spawn(
        &rgs,
        &["--threads", "1", "--io-threads", "1", "--queue-cap", "1"],
        &[("RELMAX_SERVE_TEST_SLOW_MS", "600")],
    );
    let addr = srv.addr.clone();

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let slow = {
            let addr = addr.clone();
            scope.spawn(move || query(&addr, "st 0 3\n").status)
        };
        std::thread::sleep(Duration::from_millis(150));
        let burst: Vec<_> = (0..6)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let r = query(&addr, "st 0 5\n");
                    if r.status == 503 {
                        assert_eq!(r.header("Retry-After"), Some("1"));
                        assert!(r.body.contains("overloaded"), "{}", r.body);
                    }
                    r.status
                })
            })
            .collect();
        let mut all = vec![slow.join().unwrap()];
        all.extend(burst.into_iter().map(|h| h.join().unwrap()));
        all
    });

    assert_eq!(statuses[0], 200, "the inflight query must complete");
    assert!(
        statuses[1..].contains(&503),
        "no request was shed: {statuses:?}"
    );
    assert!(
        statuses[1..].contains(&200),
        "every request was shed: {statuses:?}"
    );
    assert!(metric(&addr, "rejected_total") >= 1);
}

// ------------------------------------------------- dynamic graph updates

fn update(addr: &str, body: &str) -> Reply {
    http(addr, "POST", "/update", Some(body))
}

fn compact(addr: &str) -> Reply {
    http(addr, "POST", "/compact", Some(""))
}

#[test]
fn update_fault_taxonomy_pins_status_codes_and_leaves_state_untouched() {
    let dir = scratch("upd-faults");
    let rgs = ingest_toy(&dir);
    let srv = Server::spawn(&rgs, &["--threads", "1"], &[]);
    let addr = &srv.addr;

    // Parse errors: 400 with a line-numbered body.
    let r = update(addr, "insert 0 1\n");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(
        r.body.contains("\"line\":1") && r.body.contains("arity"),
        "{}",
        r.body
    );
    let r = update(addr, "insert 0 1 1.5\n");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("[0, 1]"), "{}", r.body);
    let r = update(addr, "% accuracy 0.1 0.05\nsetp 0 1 0.5\n");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown directive"), "{}", r.body);
    let r = update(addr, "# nothing but comments\n");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("no updates"), "{}", r.body);

    // Semantic errors: 422 naming the offending update; the whole batch
    // is refused even when earlier records were fine.
    let r = update(addr, "insert 15 0 0.5\ndelete 3 4\n");
    assert_eq!(r.status, 422, "{}", r.body);
    assert!(
        r.body.contains("\"update\":2") && r.body.contains("does not exist"),
        "{}",
        r.body
    );
    let r = update(addr, "insert 0 1 0.5\n"); // already exists
    assert_eq!(r.status, 422);
    let r = update(addr, "setp 0 99 0.5\n"); // node out of bounds
    assert_eq!(r.status, 422);
    assert!(r.body.contains("16 nodes"), "{}", r.body);
    let r = update(addr, "insert 5 5 0.5\n"); // self-loop
    assert_eq!(r.status, 422);

    // Generation guard: 409 when the compare-and-swap premise is stale.
    let r = update(addr, "% expect-generation 9\ndelete 0 1\n");
    assert_eq!(r.status, 409, "{}", r.body);
    assert!(r.body.contains("generation"), "{}", r.body);

    // Wrong methods.
    let r = http(addr, "GET", "/update", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("Allow"), Some("POST"));
    let r = http(addr, "GET", "/compact", None);
    assert_eq!(r.status, 405);
    assert_eq!(r.header("Allow"), Some("POST"));

    // None of the rejected batches installed anything.
    let h = http(addr, "GET", "/healthz", None);
    assert_eq!(json_u64(&h.body, "generation"), 1);
    assert_eq!(json_u64(&h.body, "pending_updates"), 0);
    assert_eq!(metric(addr, "updates_total"), 0);
    assert!(metric(addr, "update_failures_total") >= 8);

    // Compacting with nothing pending is a cheap no-op.
    let r = compact(addr);
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"compacted\":false"), "{}", r.body);
    assert_eq!(json_u64(&r.body, "generation"), 1);

    // A well-formed batch with the right guard goes through.
    let r = update(
        addr,
        "% expect-generation 1\ninsert 15 0 0.5\nsetp 0 1 0.9\n",
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(json_u64(&r.body, "generation"), 2);
    assert_eq!(json_u64(&r.body, "applied"), 2);
    assert_eq!(json_u64(&r.body, "pending_updates"), 2);
    assert_eq!(metric(addr, "updates_total"), 2);
    let h = http(addr, "GET", "/healthz", None);
    assert_eq!(json_u64(&h.body, "pending_updates"), 2);
    // One appended coin per insert and per re-probe: 27 + 2.
    assert_eq!(json_u64(&h.body, "edges"), 29);
}

#[test]
fn overlay_serves_byte_identical_to_refrozen_snapshot_and_across_compaction() {
    let dir = scratch("upd-identity");
    let rgs = ingest_toy(&dir);
    let ups = "insert 3 9 0.35\nsetp 0 1 0.9\ndelete 0 4\n";
    let upfile = dir.join("ups.txt");
    std::fs::write(&upfile, ups).unwrap();

    // Refreeze offline with the CLI: the equivalence oracle.
    let refrozen = dir.join("refrozen.rgs");
    let st = Command::new(relmax_bin())
        .arg("update")
        .arg(&rgs)
        .args(["--updates"])
        .arg(&upfile)
        .arg("-o")
        .arg(&refrozen)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("relmax update");
    assert!(st.success());

    let body = "% seed 11\nst 0 15\nfrom 0\nto 15\npairwise 0,1 14,15\nst 3 9\n";
    let tail = |s: &str| {
        let i = s.find("\"results\":").expect("results array");
        s[i..].to_string()
    };

    // --no-index on both sides so the byte-identity contract covers every
    // field, sampling effort included (no short-circuits to differ on).
    for threads in ["1", "4"] {
        let overlay_srv = Server::spawn(&rgs, &["--threads", threads, "--no-index"], &[]);
        let r = update(&overlay_srv.addr, ups);
        assert_eq!(r.status, 200, "{}", r.body);
        let served = query(&overlay_srv.addr, body);
        assert_eq!(served.status, 200, "{}", served.body);

        let refrozen_srv = Server::spawn(&refrozen, &["--threads", threads, "--no-index"], &[]);
        let expect = query(&refrozen_srv.addr, body);
        assert_eq!(expect.status, 200, "{}", expect.body);
        assert_eq!(
            tail(&served.body),
            tail(&expect.body),
            "overlay vs refreeze diverged at threads={threads}"
        );

        // Fold the overlay on the live server: same bytes, new generation,
        // and the persisted snapshot byte-equals the CLI's refreeze.
        let c = compact(&overlay_srv.addr);
        assert_eq!(c.status, 200, "{}", c.body);
        assert!(c.body.contains("\"compacted\":true"), "{}", c.body);
        let after = query(&overlay_srv.addr, body);
        assert_eq!(json_u64(&after.body, "generation"), 3);
        assert_eq!(
            tail(&after.body),
            tail(&served.body),
            "compaction moved results"
        );
        let compacted_file = format!("{}.compacted.rgs", rgs.display());
        assert_eq!(
            std::fs::read(&compacted_file).expect("compacted snapshot"),
            std::fs::read(&refrozen).unwrap(),
            "server compaction and CLI refreeze wrote different snapshots"
        );
    }
}

/// Serving without an index does not change what compaction persists:
/// on an indexed snapshot, `relmax serve --no-index` writes the file
/// `relmax update` writes for the same updates, index section included.
#[test]
fn no_index_compaction_keeps_the_stored_index_section() {
    let dir = scratch("upd-noindex");
    let rgs = ingest_toy(&dir);
    let indexed = dir.join("toy-idx.rgs");
    let (code, _, stderr) = run_relmax(&[
        "index",
        rgs.to_str().unwrap(),
        "-o",
        indexed.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    let ups = "insert 3 9 0.35\nsetp 0 1 0.9\ndelete 0 4\ninsert 11 0 0.25\n";
    let upfile = dir.join("ups.txt");
    std::fs::write(&upfile, ups).unwrap();
    let refrozen = dir.join("refrozen.rgs");
    let (code, _, stderr) = run_relmax(&[
        "update",
        indexed.to_str().unwrap(),
        "--updates",
        upfile.to_str().unwrap(),
        "-o",
        refrozen.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");

    let srv = Server::spawn(&indexed, &["--threads", "1", "--no-index"], &[]);
    let r = update(&srv.addr, ups);
    assert_eq!(r.status, 200, "{}", r.body);
    let c = compact(&srv.addr);
    assert_eq!(c.status, 200, "{}", c.body);
    assert!(c.body.contains("\"compacted\":true"), "{}", c.body);
    let compacted = std::fs::read(format!("{}.compacted.rgs", indexed.display())).unwrap();
    let want = std::fs::read(&refrozen).unwrap();
    assert_eq!(want.len(), 3008, "the refreeze carries the index section");
    assert!(
        compacted == want,
        "--no-index compaction wrote {} bytes",
        compacted.len()
    );
}

#[test]
fn inflight_queries_stay_pinned_across_update_installs() {
    let dir = scratch("upd-pin");
    let rgs = ingest_toy(&dir);
    // Slow compute: the inflight query holds its pinned snapshot while
    // the update installs a new generation underneath it.
    let srv = Server::spawn(
        &rgs,
        &["--threads", "1"],
        &[("RELMAX_SERVE_TEST_SLOW_MS", "400")],
    );
    let addr = srv.addr.clone();
    let body = "% seed 3\nst 0 15\n";
    let before = query(&addr, body);
    assert_eq!(before.status, 200, "{}", before.body);
    assert_eq!(json_u64(&before.body, "generation"), 1);

    let (inflight, upd) = std::thread::scope(|scope| {
        let q = {
            let addr = addr.clone();
            scope.spawn(move || query(&addr, body))
        };
        std::thread::sleep(Duration::from_millis(120));
        // Cut every inbound edge of node 15 while the query is sampling.
        let u = update(&addr, "delete 7 15\ndelete 11 15\ndelete 14 15\n");
        (q.join().unwrap(), u)
    });
    assert_eq!(upd.status, 200, "{}", upd.body);
    // The inflight query answered from the pre-update world, bit-identically.
    assert_eq!(
        inflight.body, before.body,
        "inflight query observed the overlay"
    );
    // New queries see the overlay: node 15 became unreachable.
    let after = query(&addr, body);
    assert_eq!(json_u64(&after.body, "generation"), 2);
    assert!(after.body.contains("\"reliability\":0,"), "{}", after.body);
}

#[test]
fn update_storm_is_monotonic_and_drains_through_compaction() {
    let dir = scratch("upd-storm");
    let rgs = ingest_toy(&dir);
    let srv = Server::spawn(
        &rgs,
        &["--threads", "2", "--compact-after", "6"],
        &[("RELMAX_SERVE_TEST_SLOW_COMPACT_MS", "200")],
    );
    let addr = srv.addr.clone();

    // 4 clients x 4 disjoint inserts, racing the background compactor.
    let lists: [&[&str]; 4] = [
        &[
            "insert 15 0 0.5",
            "insert 15 1 0.5",
            "insert 15 2 0.5",
            "insert 15 3 0.5",
        ],
        &[
            "insert 15 4 0.5",
            "insert 15 5 0.5",
            "insert 15 6 0.5",
            "insert 15 7 0.5",
        ],
        &[
            "insert 14 0 0.5",
            "insert 14 1 0.5",
            "insert 14 2 0.5",
            "insert 14 3 0.5",
        ],
        &[
            "insert 13 0 0.5",
            "insert 13 1 0.5",
            "insert 13 2 0.5",
            "insert 13 3 0.5",
        ],
    ];
    let generations = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for list in lists {
            let addr = addr.clone();
            let generations = &generations;
            scope.spawn(move || {
                let mut last = 0u64;
                for u in list {
                    let r = update(&addr, &format!("{u}\n"));
                    assert_eq!(r.status, 200, "{}", r.body);
                    let g = json_u64(&r.body, "generation");
                    assert!(
                        g > last,
                        "client generations must increase: {g} after {last}"
                    );
                    last = g;
                    generations.lock().unwrap().push(g);
                }
            });
        }
        // Queries keep flowing during the storm and any background folds.
        let addr2 = addr.clone();
        scope.spawn(move || {
            let mut last = 0u64;
            for _ in 0..10 {
                let r = query(&addr2, "% seed 5\nst 0 3\nfrom 1\n");
                assert_eq!(r.status, 200, "{}", r.body);
                let g = json_u64(&r.body, "generation");
                assert!(g >= last, "pinned generations went backwards");
                last = g;
                // Torn-overlay check: the `from` vector is as long as the
                // graph the response header claims.
                let nodes = json_u64(&r.body, "nodes");
                let values = r.body.rfind("\"values\":[").expect("from values");
                let end = r.body[values..].find(']').unwrap() + values;
                let count = r.body[values + 10..end].split(',').count() as u64;
                assert_eq!(count, nodes, "torn response: {}", r.body);
            }
        });
    });

    // Every accepted batch installed its own distinct generation.
    let mut gens = generations.into_inner().unwrap();
    assert_eq!(gens.len(), 16);
    gens.sort_unstable();
    gens.dedup();
    assert_eq!(gens.len(), 16, "two update batches shared a generation");

    // The overlay eventually folds to zero pending updates (manual nudges
    // may lose install races with the background compactor; that's fine).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let h = http(&addr, "GET", "/healthz", None);
        if json_u64(&h.body, "pending_updates") == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compaction never drained: {}",
            h.body
        );
        let _ = compact(&addr);
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(metric(&addr, "compactions_total") >= 1);

    // All 16 inserted coins survived the folds and the new edges serve.
    let h = http(&addr, "GET", "/healthz", None);
    assert_eq!(json_u64(&h.body, "edges"), 27 + 16);
    let r = query(&addr, "st 13 3\n");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(!r.body.contains("\"reliability\":0,"), "{}", r.body);
}

/// Under the default mapped backing, each compaction writes the new
/// snapshot beside `<base>.compacted.rgs` and renames it over: the second
/// fold replaces the file the first one installed (and the server still
/// maps) instead of truncating it, so the server stays up and answers.
#[cfg(unix)]
#[test]
fn repeated_compactions_replace_the_mapped_snapshot_by_rename() {
    use std::os::unix::fs::MetadataExt;
    let dir = scratch("upd-recompact");
    let rgs = ingest_toy(&dir);
    let srv = Server::spawn(&rgs, &["--threads", "2"], &[("RELMAX_MMAP", "on")]);
    let addr = &srv.addr;
    let compacted = format!("{}.compacted.rgs", rgs.display());
    let body = "% seed 5\nst 0 15\nfrom 0\n";
    let tail = |s: &str| s[s.find("\"results\":").unwrap()..].to_string();
    let mut inode = None;
    for ups in ["insert 15 0 0.5\n", "setp 0 1 0.9\n"] {
        let r = update(addr, ups);
        assert_eq!(r.status, 200, "{}", r.body);
        let before = query(addr, body);
        assert_eq!(before.status, 200, "{}", before.body);
        let c = compact(addr);
        assert_eq!(c.status, 200, "{}", c.body);
        assert!(c.body.contains("\"compacted\":true"), "{}", c.body);
        let after = query(addr, body);
        assert_eq!(after.status, 200, "{}", after.body);
        assert_eq!(
            tail(&after.body),
            tail(&before.body),
            "compaction moved results"
        );
        let ino = std::fs::metadata(&compacted)
            .expect("compacted snapshot")
            .ino();
        assert_ne!(Some(ino), inode, "compaction rewrote the snapshot in place");
        inode = Some(ino);
    }
    assert_eq!(json_u64(&query(addr, body).body, "generation"), 5);
}

#[test]
fn compaction_runs_off_the_query_path() {
    let dir = scratch("upd-nonblock");
    let rgs = ingest_toy(&dir);
    let srv = Server::spawn(
        &rgs,
        &["--threads", "2"],
        &[("RELMAX_SERVE_TEST_SLOW_COMPACT_MS", "900")],
    );
    let addr = srv.addr.clone();
    let r = update(&addr, "insert 15 0 0.5\n");
    assert_eq!(r.status, 200, "{}", r.body);
    let before = query(&addr, "% seed 4\nst 0 15\n");
    assert_eq!(before.status, 200, "{}", before.body);
    assert_eq!(json_u64(&before.body, "generation"), 2);

    std::thread::scope(|scope| {
        let c = {
            let addr = addr.clone();
            scope.spawn(move || compact(&addr))
        };
        std::thread::sleep(Duration::from_millis(200));
        // The slow fold is in flight; queries must not wait behind it.
        let t0 = std::time::Instant::now();
        let during = query(&addr, "% seed 4\nst 0 15\n");
        let elapsed = t0.elapsed();
        assert_eq!(during.status, 200, "{}", during.body);
        assert_eq!(json_u64(&during.body, "generation"), 2);
        assert_eq!(during.body, before.body, "mid-compaction query moved");
        assert!(
            elapsed < Duration::from_millis(600),
            "query blocked behind compaction: {elapsed:?}"
        );
        let c = c.join().unwrap();
        assert_eq!(c.status, 200, "{}", c.body);
        assert!(c.body.contains("\"compacted\":true"), "{}", c.body);
    });

    // After the swap: same results, new generation.
    let after = query(&addr, "% seed 4\nst 0 15\n");
    assert_eq!(json_u64(&after.body, "generation"), 3);
    let tail = |s: &str| s[s.find("\"results\":").unwrap()..].to_string();
    assert_eq!(
        tail(&after.body),
        tail(&before.body),
        "compaction moved results"
    );
}
