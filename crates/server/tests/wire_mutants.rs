//! Seeded mutation loops over the hand-rolled input paths: the HTTP/1.1
//! request reader, the `POST /query` and `POST /update` body grammars,
//! and the workload-file grammar of `relmax query`. Every mutant of a valid input must come back as a parsed
//! value or a typed error, never a panic, and what does parse must be
//! self-consistent: a request body is exactly the bytes after the head
//! that `Content-Length` declares (and never two that disagree), and
//! parsed queries, updates and workload files print back to text that
//! parses to the same values.

use relmax_gen::updates::{parse_update_request_str, update_line};
use relmax_gen::workload::{parse_request_str, parse_workload_str, write_workload, WorkloadError};
use relmax_sampling::convergence::DEFAULT_MAX_SAMPLES;
use relmax_sampling::Budget;
use relmax_server::http::{read_request, HttpError, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use std::collections::BTreeSet;
use std::io::Read;

/// SplitMix64: a seeded stream of mutation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// A `/query` body using every shape and directive of the wire grammar.
const QUERY_BODY: &str = "% seed 7\n% accuracy 0.02 0.05 4000\n% max-hops 4\n\
    st 0 15\nfrom 3\nto 2\nset 0,1 14,15\ntopk 0 3\nhops 0 15\n\
    pairwise 0,1 2,3\n3 4 # a bare pair\n";

/// A `/update` body using every record kind and the generation guard.
const UPDATE_BODY: &str =
    "% expect-generation 3\ninsert 0 1 0.5\nsetp 1 2 0.25\n# a comment\ndelete 2 3\n";

/// A workload file using every query shape and directive of the file
/// grammar.
const WORKLOAD_FILE: &str = "# a comment\n% accuracy 0.01 0.05 100000\n% max-hops 4\n\
    st 0 41\n3 17 # a bare pair\nfrom 0\nto 41\nset 0,3 41,17\ntopk 0 5\nhops 0 41\n\n";

/// Tokens that sit at the edges of what the grammars accept.
const TOKENS: &[&str] = &[
    "",
    "0",
    "1",
    "-1",
    "+1",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    "NaN",
    "inf",
    "-0",
    "1e-400",
    "0.5",
    "1.0000000000000002",
    ",",
    "0,",
    ",0",
    "0,,1",
    "#",
    "%",
    "% seed",
    "pairwise",
    "st",
    "é",
    "\u{0}",
    "\r",
];

/// Every single-token substitution of `text` from [`TOKENS`], so each
/// directive argument and query operand meets every edge-case token.
fn token_swaps(text: &str) -> Vec<(Vec<u8>, String)> {
    let lines: Vec<&str> = text.split('\n').collect();
    let mut out = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        let toks: Vec<&str> = line.split(' ').collect();
        for i in 0..toks.len() {
            for tok in TOKENS {
                let mut swapped = toks.clone();
                swapped[i] = tok;
                let mut mutant = lines.clone();
                let joined = swapped.join(" ");
                mutant[at] = &joined;
                let what = format!("token {i} of line {} -> {tok:?}", at + 1);
                out.push((mutant.join("\n").into_bytes(), what));
            }
        }
    }
    out
}

/// One seeded mutation of `text`: a byte flip, a truncation, a duplicated
/// or dropped line, a token swapped for an edge-case token, or a run of
/// random bytes spliced in. Returns the mutant and what was done.
fn mutate_text(rng: &mut Rng, text: &[u8], round: usize) -> (Vec<u8>, String) {
    let mut b = text.to_vec();
    let mut lines: Vec<Vec<u8>> = b.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
    let at = rng.below(lines.len());
    let what = match round % 6 {
        0 => {
            let i = rng.below(b.len());
            b[i] ^= 1 + rng.below(255) as u8;
            format!("flip byte {i}")
        }
        1 => {
            b.truncate(rng.below(b.len()));
            format!("truncate to {}", b.len())
        }
        2 => {
            let copy = lines[at].clone();
            let to = rng.below(lines.len() + 1);
            lines.insert(to, copy);
            b = lines.join(&b'\n');
            format!("duplicate line {} at {to}", at + 1)
        }
        3 => {
            lines.remove(at);
            b = lines.join(&b'\n');
            format!("drop line {}", at + 1)
        }
        4 => {
            let line = String::from_utf8_lossy(&lines[at]).into_owned();
            let mut toks: Vec<&str> = line.split(' ').collect();
            let i = rng.below(toks.len());
            let tok = *rng.pick(TOKENS);
            toks[i] = tok;
            lines[at] = toks.join(" ").into_bytes();
            b = lines.join(&b'\n');
            format!("token {i} of line {} -> {tok:?}", at + 1)
        }
        _ => {
            let i = rng.below(b.len() + 1);
            let run: Vec<u8> = (0..1 + rng.below(8)).map(|_| rng.next() as u8).collect();
            b.splice(i..i, run.iter().copied());
            format!("splice {run:?} at {i}")
        }
    };
    (b, what)
}

/// A grammar error must name a line of the body it came from.
fn check_error(e: &WorkloadError, text: &str, what: &str) -> String {
    match e {
        WorkloadError::BadRecord { line, reason } => {
            assert!(
                (1..=text.lines().count()).contains(line),
                "{what}: line {line} outside the body: {text:?}"
            );
            reason.split(' ').next().unwrap_or("").to_string()
        }
        WorkloadError::Io(e) => panic!("{what}: I/O error on in-memory text: {e}"),
    }
}

#[test]
fn mutated_bodies_and_workload_files_parse_or_fail_typed() {
    let mut rng = Rng(0x51ab);
    let bodies = [
        ("query", QUERY_BODY),
        ("update", UPDATE_BODY),
        ("workload", WORKLOAD_FILE),
    ];
    for (name, original) in bodies {
        let (mut accepted, mut kinds) = (0, BTreeSet::new());
        let seeded: Vec<_> = (0..1_200)
            .map(|round| mutate_text(&mut rng, original.as_bytes(), round))
            .collect();
        for (bytes, what) in token_swaps(original).into_iter().chain(seeded) {
            // The server answers non-UTF-8 bodies 400 before parsing;
            // the lossy text still exercises the grammar.
            let text = String::from_utf8_lossy(&bytes);
            let what = format!("{name} {what}");
            if name == "query" {
                match parse_request_str(&text) {
                    Ok(req) => {
                        accepted += 1;
                        // The server turns the directive into a budget,
                        // which panics on values the parser should reject.
                        if let Some(a) = req.accuracy {
                            Budget::accuracy_capped(
                                a.eps,
                                a.delta,
                                a.max_samples.unwrap_or(DEFAULT_MAX_SAMPLES),
                            );
                        }
                        let printed: String = req.specs.iter().map(|s| format!("{s}\n")).collect();
                        let back = parse_request_str(&printed)
                            .unwrap_or_else(|e| panic!("{what}: {printed:?} fails: {e}"));
                        assert_eq!(back.specs, req.specs, "{what}");
                    }
                    Err(e) => {
                        kinds.insert(check_error(&e, &text, &what));
                    }
                }
            } else if name == "workload" {
                match parse_workload_str(&text) {
                    Ok(workload) => {
                        accepted += 1;
                        let mut printed = Vec::new();
                        write_workload(&workload, &mut printed).unwrap();
                        let printed = String::from_utf8(printed).unwrap();
                        let back = parse_workload_str(&printed)
                            .unwrap_or_else(|e| panic!("{what}: {printed:?} fails: {e}"));
                        assert_eq!(back, workload, "{what}");
                    }
                    Err(e) => {
                        kinds.insert(check_error(&e, &text, &what));
                    }
                }
            } else {
                match parse_update_request_str(&text) {
                    Ok(req) => {
                        accepted += 1;
                        let printed: String =
                            req.updates.iter().map(|u| update_line(u) + "\n").collect();
                        let back = parse_update_request_str(&printed)
                            .unwrap_or_else(|e| panic!("{what}: {printed:?} fails: {e}"));
                        assert_eq!(back.updates, req.updates, "{what}");
                    }
                    Err(e) => {
                        kinds.insert(check_error(&e, &text, &what));
                    }
                }
            }
        }
        // Both outcomes occur, with a spread of error kinds.
        assert!(accepted >= 100, "{name}: only {accepted} mutants parsed");
        assert!(kinds.len() >= 5, "{name}: error kinds {kinds:?}");
    }
}

/// A byte source that hands out its data in short, seeded chunks, as a
/// socket delivers a request across several reads.
struct Chunked<'a> {
    data: &'a [u8],
    rng: Rng,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.len().min(buf.len()).min(1 + self.rng.below(700));
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n");
    if !body.is_empty() {
        head.push_str(&format!(
            "Content-Type: text/plain\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    head.push_str(body);
    head.into_bytes()
}

/// One seeded mutation of an HTTP request: byte flips, truncations, a
/// duplicate or garbled `Content-Length`, an oversized head, or random
/// bytes spliced in. Returns the mutant, what was done, and the value of
/// the `Content-Length` header a duplicate added, if it added one.
fn mutate_request(rng: &mut Rng, req: &[u8], round: usize) -> (Vec<u8>, String, Option<usize>) {
    let mut b = req.to_vec();
    let head_end = find(&b, b"\r\n\r\n").expect("valid request") + 4;
    let line_end = find(&b, b"\r\n").expect("valid request") + 2;
    let mut added = None;
    let what = match round % 6 {
        0 => {
            let i = rng.below(b.len());
            b[i] ^= 1 + rng.below(255) as u8;
            format!("flip byte {i}")
        }
        1 => {
            b.truncate(rng.below(b.len()));
            format!("truncate to {}", b.len())
        }
        2 => {
            let n = rng.below(2 * b.len() + 2);
            let line = format!("Content-Length: {n}\r\n");
            let at = *rng.pick(&[line_end, head_end - 2]);
            b.splice(at..at, line.bytes());
            added = Some(n);
            format!("duplicate Content-Length {n} at {at}")
        }
        3 => {
            let too_large = (MAX_BODY_BYTES + 1).to_string();
            let value = *rng.pick(&[
                "",
                "-1",
                "abc",
                "0x10",
                "+5",
                "1e3",
                " 7 ",
                "0",
                "99999999999999999999999",
                &too_large,
            ]);
            let text = String::from_utf8_lossy(&b[..head_end]).into_owned();
            let head = match text.find("Content-Length: ") {
                Some(i) => {
                    let j = i + text[i..].find("\r\n").unwrap();
                    if value.is_empty() && rng.below(2) == 0 {
                        // Drop the header line altogether.
                        format!("{}{}", &text[..i], &text[j + 2..])
                    } else {
                        format!("{}Content-Length: {value}{}", &text[..i], &text[j..])
                    }
                }
                None => text.replacen("\r\n", &format!("\r\nContent-Length: {value}\r\n"), 1),
            };
            b.splice(..head_end, head.bytes());
            format!("Content-Length {value:?}")
        }
        4 => {
            let len = MAX_HEAD_BYTES - 64 + rng.below(MAX_HEAD_BYTES + 128);
            let line = format!("X-Pad: {}\r\n", "a".repeat(len));
            b.splice(line_end..line_end, line.bytes());
            format!("pad the head by {len} bytes")
        }
        _ => {
            let i = rng.below(b.len() + 1);
            let run: Vec<u8> = (0..1 + rng.below(8)).map(|_| rng.next() as u8).collect();
            b.splice(i..i, run.iter().copied());
            format!("splice {run:?} at {i}")
        }
    };
    (b, what, added)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[test]
fn mutated_http_requests_parse_or_fail_typed() {
    let originals = [
        ("GET", "/healthz", ""),
        ("POST", "/query", QUERY_BODY),
        ("POST", "/update", UPDATE_BODY),
    ];
    let mut rng = Rng(0x4777);
    let mut outcomes = BTreeSet::new();
    for (method, path, body) in originals {
        let req = http_request(method, path, body);
        let parsed = read_request(&mut &req[..]).unwrap();
        assert_eq!(
            (
                parsed.method.as_str(),
                parsed.path.as_str(),
                &parsed.body[..]
            ),
            (method, path, body.as_bytes())
        );
        for round in 0..1_200 {
            let (bytes, what, added) = mutate_request(&mut rng, &req, round);
            let mut src = Chunked {
                data: &bytes,
                rng: Rng(round as u64),
            };
            let head_end = find(&bytes, b"\r\n\r\n").map(|i| i + 4);
            let result = read_request(&mut src);
            // Two lengths that disagree leave the body's end ambiguous.
            if !body.is_empty() && added.is_some_and(|n| n != body.len()) {
                assert!(result.is_err(), "{what}: conflicting lengths parsed");
            }
            match result {
                Ok(r) => {
                    outcomes.insert("ok");
                    // The body is exactly the declared bytes after the head.
                    let end = head_end.expect("a request without a head terminator parsed");
                    assert!(
                        end <= MAX_HEAD_BYTES + 1024,
                        "{what}: a {end}-byte head parsed"
                    );
                    assert!(r.body.len() <= MAX_BODY_BYTES, "{what}");
                    assert_eq!(r.body, bytes[end..end + r.body.len()], "{what}");
                }
                Err(HttpError::BadRequest(_)) => {
                    outcomes.insert("400");
                }
                Err(HttpError::LengthRequired) => {
                    outcomes.insert("411");
                }
                Err(HttpError::PayloadTooLarge) => {
                    outcomes.insert("413");
                }
                Err(HttpError::Disconnect) => {
                    outcomes.insert("disconnect");
                }
            }
        }
    }
    assert_eq!(
        outcomes.into_iter().collect::<Vec<_>>(),
        ["400", "411", "413", "disconnect", "ok"],
        "every reader outcome occurs"
    );
}
