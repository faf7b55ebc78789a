//! Seeded round-trip properties for the ingestion + snapshot layer:
//! text edge list → parse → freeze → `.rgs` bytes → load must be
//! **bit-identical** at every step — same CSR arrays, same coin ids, and
//! therefore bit-identical estimates — for random graphs, directed and
//! undirected. Plus the malformed-input taxonomy (bad probability,
//! dangling node, truncated snapshot, wrong version) at the library level.
//!
//! Hand-rolled seeded loops stand in for proptest (offline build).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmax::gen::workload::{self, QuerySpec};
use relmax::prelude::*;
use relmax::sampling::BatchQuery;
use relmax::ugraph::edgelist::{self, EdgeListOptions};
use relmax::ugraph::snapshot::{self, SnapshotError};
use relmax::ugraph::RelIndex;

/// Random graph with 5..20 nodes, random density, random orientation,
/// probabilities spread across the full open interval including awkward
/// floats (thirds, tiny magnitudes).
fn random_graph(rng: &mut StdRng) -> UncertainGraph {
    let n = rng.gen_range(5usize..20);
    let directed = rng.gen_bool(0.5);
    let mut g = UncertainGraph::new(n, directed);
    let attempts = rng.gen_range(0usize..n * 3);
    for _ in 0..attempts {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let p = match rng.gen_range(0u8..4) {
            0 => rng.gen_range(0.01..0.99),
            1 => 1.0 / rng.gen_range(3.0..9.0),
            2 => rng.gen_range(1e-12..1e-6),
            _ => 1.0,
        };
        let _ = g.add_edge(NodeId(u), NodeId(v), p);
    }
    g
}

#[test]
fn text_round_trip_is_bit_identical_for_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x0101);
    for _ in 0..60 {
        let g = random_graph(&mut rng);
        let text = edgelist::to_text(&g);
        let back = edgelist::parse_str(&text, &EdgeListOptions::default()).expect("reparse");
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.directed(), g.directed());
        assert_eq!(back.edges(), g.edges());
        assert!(back.freeze() == g.freeze(), "CSR arrays must match exactly");
    }
}

#[test]
fn snapshot_round_trip_is_bit_identical_for_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x0102);
    for _ in 0..60 {
        let g = random_graph(&mut rng);
        let csr = g.freeze();
        let loaded = snapshot::read(&snapshot::to_bytes(&csr)[..]).expect("reload");
        assert!(loaded == csr);
        // Thaw closes the loop: snapshot -> mutable graph -> freeze.
        let thawed = loaded.thaw().expect("snapshots of UncertainGraphs thaw");
        assert_eq!(thawed.edges(), g.edges());
        assert!(thawed.freeze() == csr);
    }
}

#[test]
fn estimates_are_bit_identical_across_the_whole_io_pipeline() {
    let mut rng = StdRng::seed_from_u64(0x0103);
    let mut compared = 0;
    for _ in 0..40 {
        let g = random_graph(&mut rng);
        if g.num_edges() == 0 {
            continue;
        }
        compared += 1;
        let (s, t) = (NodeId(0), NodeId(g.num_nodes() as u32 - 1));
        // The full CLI pipeline in miniature: text -> parse -> freeze ->
        // snapshot bytes -> load, estimated at several thread counts.
        let text = edgelist::to_text(&g);
        let parsed = edgelist::parse_str(&text, &EdgeListOptions::default()).unwrap();
        let loaded = snapshot::read(&snapshot::to_bytes(&parsed.freeze())[..]).unwrap();

        let mc = McEstimator::new(2_000, 7);
        let b = mc.default_budget();
        let reference = mc.st_estimate(&g, s, t, b);
        assert_eq!(reference, mc.st_estimate(&loaded, s, t, b));
        let mc4 = McEstimator::with_threads(2_000, 7, 4);
        assert_eq!(reference, mc4.st_estimate(&loaded, s, t, b));
        let rss = RssEstimator::new(1_000, 11);
        assert_eq!(
            rss.st_estimate(&g, s, t, rss.budget),
            rss.st_estimate(&loaded, s, t, rss.budget)
        );
    }
    assert!(compared >= 20, "only {compared} non-trivial graphs drawn");
}

#[test]
fn batch_results_survive_snapshot_and_thread_count() {
    let mut rng = StdRng::seed_from_u64(0x0104);
    for _ in 0..10 {
        let g = random_graph(&mut rng);
        let n = g.num_nodes() as u32;
        let queries: Vec<BatchQuery> = (0..n.min(6))
            .map(|i| match i % 3 {
                0 => BatchQuery::St(NodeId(i), NodeId(n - 1 - i)),
                1 => BatchQuery::From(NodeId(i)),
                _ => BatchQuery::To(NodeId(i)),
            })
            .collect();
        let est = McEstimator::new(1_000, 13);
        let run = |csr: CsrGraph, threads| {
            let engine = QueryEngine::from_parts(csr, None, est.clone())
                .with_runtime(relmax::sampling::ParallelRuntime::new(threads));
            engine.query().batch(&queries).run().unwrap()
        };
        let direct = run(g.freeze(), 1);
        let loaded = snapshot::read(&snapshot::to_bytes(&g.freeze())[..]).unwrap();
        for threads in [1, 4] {
            let via_snapshot = run(loaded.clone(), threads);
            assert_eq!(direct, via_snapshot, "threads={threads}");
        }
    }
}

#[test]
fn workload_files_round_trip_against_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x0105);
    for seed in 0..8u64 {
        let g = random_graph(&mut rng);
        let mut specs = workload::st_workload(&g, 12, 1, 4, seed);
        specs.push(QuerySpec::From(NodeId(0)));
        specs.push(QuerySpec::To(NodeId(0)));
        let text = workload::queries_to_text(&specs);
        assert_eq!(workload::parse_workload_str(&text).unwrap().specs, specs);
    }
}

#[test]
fn index_sections_round_trip_and_reindex_identically() {
    let mut rng = StdRng::seed_from_u64(0x0106);
    let mut nontrivial = 0;
    for _ in 0..40 {
        let g = random_graph(&mut rng);
        let csr = g.freeze();
        let idx = RelIndex::build(&csr);
        if !idx.is_identity() {
            nontrivial += 1;
        }
        // write(+section) -> read_full: same graph, same section, and the
        // section revives into an index equal to a freshly built one.
        let mut bytes = Vec::new();
        snapshot::write_full(&csr, Some(&idx.section()), &mut bytes).expect("write");
        let (back, section) = snapshot::read_full(&bytes[..]).expect("reload");
        assert!(back == csr);
        let section = section.expect("section persisted");
        assert_eq!(section, idx.section());
        let revived = RelIndex::from_section(&back, &section).expect("section validates");
        assert!(revived == idx, "round-tripped index must equal rebuilt");
        // The plain reader ignores the section; a v2 snapshot written
        // without one reads back with `None`.
        assert!(snapshot::read(&bytes[..]).expect("plain read") == csr);
        let (_, none) = snapshot::read_full(&snapshot::to_bytes(&csr)[..]).expect("no-section");
        assert!(none.is_none());
    }
    // `random_graph` draws p = 1.0 a quarter of the time, so most trials
    // must exercise real condensation, not the identity index.
    assert!(nontrivial >= 10, "only {nontrivial} non-identity indexes");
}

/// The committed pre-index fixture: a format-v1 `.rgs` written before the
/// v2 bump must keep loading, byte-exactly, into the same CSR its graph
/// freezes to today — and its index must be rebuildable on the side.
#[test]
fn v1_fixture_still_loads_after_version_bumps() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tiny_v1.rgs");
    let bytes = std::fs::read(path).expect("fixture committed");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        1,
        "fixture must stay format v1: it pins the legacy layout"
    );

    let mut g = UncertainGraph::new(5, true);
    g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
    g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
    g.add_edge(NodeId(2), NodeId(3), 0.25).unwrap();
    g.add_edge(NodeId(1), NodeId(3), 0.75).unwrap();
    let expected = g.freeze();

    let loaded = snapshot::read(&bytes[..]).expect("v1 loads under the current reader");
    assert!(loaded == expected, "v1 payload decoded differently");
    let (loaded, section) = snapshot::read_full(&bytes[..]).expect("v1 loads via read_full");
    assert!(loaded == expected);
    assert!(section.is_none(), "v1 cannot carry an index section");
    // Index rebuild on a v1 load is the documented lazy path.
    let idx = RelIndex::build(&loaded);
    assert_eq!(idx.num_nodes(), 5);

    // A v1 snapshot claiming the index flag is corrupt, not versioned.
    let mut flagged = bytes.clone();
    flagged[8] |= 2; // FLAG_INDEX
    assert!(snapshot::read(&flagged[..]).is_err());
}

/// The graph behind `tests/fixtures/tiny_v2.rgs`: six nodes with a
/// certain 2-cycle (1 ⇄ 2 condenses into one supernode) and a separate
/// component, so the embedded index section is non-trivial.
fn v2_fixture_graph() -> UncertainGraph {
    let mut g = UncertainGraph::new(6, true);
    g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
    g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
    g.add_edge(NodeId(2), NodeId(1), 1.0).unwrap();
    g.add_edge(NodeId(2), NodeId(3), 0.25).unwrap();
    g.add_edge(NodeId(1), NodeId(3), 0.75).unwrap();
    g.add_edge(NodeId(4), NodeId(5), 1.0 / 3.0).unwrap();
    g
}

/// The committed pre-v3 fixture: a format-v2 `.rgs` (single payload
/// hash, embedded index section) must keep loading after the v3 bump —
/// through the heap reader *and* through the zero-copy entry point
/// (which falls back to a heap decode for legacy versions) — into
/// byte-identical CSRs that answer queries exactly like a fresh freeze.
#[test]
fn v2_fixture_loads_identically_on_both_paths() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tiny_v2.rgs");
    let bytes = std::fs::read(path).expect("fixture committed");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        2,
        "fixture must stay format v2: it pins the legacy layout"
    );

    let expected = v2_fixture_graph().freeze();
    let (heap, section) = snapshot::read_full(&bytes[..]).expect("v2 heap load");
    assert!(heap == expected, "v2 payload decoded differently");
    let section = section.expect("fixture embeds an index section");
    let revived = RelIndex::from_section(&heap, &section).expect("section validates");
    assert!(revived == RelIndex::build(&heap));
    assert!(!revived.is_identity(), "fixture index must be non-trivial");

    let (mapped, msec) = snapshot::map_full(path).expect("v2 via map_full");
    assert!(mapped == heap, "mapped fallback decoded differently");
    assert_eq!(msec.as_ref(), Some(&section));
    assert!(
        !mapped.is_zero_copy(),
        "legacy layouts cannot be borrowed zero-copy"
    );

    // Same estimates from both loads, serial and sharded.
    for threads in [1, 4] {
        let mc = McEstimator::with_threads(1_000, 7, threads);
        let b = mc.default_budget();
        assert_eq!(
            mc.st_estimate(&heap, NodeId(0), NodeId(3), b),
            mc.st_estimate(&mapped, NodeId(0), NodeId(3), b),
        );
    }
}

/// v3 section-table corruption must map to the structured errors, not
/// panics or generic checksum noise — on the byte reader and on the
/// mapped open alike.
#[test]
fn v3_malformed_section_tables_are_rejected() {
    // Entry layout: table starts at byte 64 (52-byte header + count u32 +
    // 8 reserved); each 32-byte entry is {id u32, flags u32, offset u64,
    // len u64, checksum u64}. The table hash lives at header[44..52].
    fn table_end(bytes: &[u8]) -> usize {
        let count = u32::from_le_bytes(bytes[52..56].try_into().unwrap()) as usize;
        64 + count * snapshot::SECTION_ENTRY_BYTES
    }
    fn fix_table_hash(bytes: &mut [u8]) {
        let end = table_end(bytes);
        let hash = snapshot::fnv1a(&bytes[snapshot::HEADER_BYTES..end]);
        bytes[44..52].copy_from_slice(&hash.to_le_bytes());
    }

    let mut g = UncertainGraph::new(4, true);
    g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
    g.add_edge(NodeId(1), NodeId(2), 0.75).unwrap();
    g.add_edge(NodeId(2), NodeId(3), 0.25).unwrap();
    let bytes = snapshot::to_bytes(&g.freeze());
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 3);

    // Feature flags this build does not understand: refuse, don't guess.
    let mut v = bytes.clone();
    v[68..72].copy_from_slice(&0x8000_0000u32.to_le_bytes());
    fix_table_hash(&mut v);
    assert!(matches!(
        snapshot::read(&v[..]),
        Err(SnapshotError::UnknownSection {
            id: 1,
            flags: 0x8000_0000
        })
    ));

    // Unknown section id.
    let mut v = bytes.clone();
    v[64..68].copy_from_slice(&77u32.to_le_bytes());
    fix_table_hash(&mut v);
    assert!(matches!(
        snapshot::read(&v[..]),
        Err(SnapshotError::UnknownSection { id: 77, flags: 0 })
    ));

    // An offset off the 64-byte grid can never be mapped zero-copy.
    let mut v = bytes.clone();
    let off = u64::from_le_bytes(v[72..80].try_into().unwrap());
    v[72..80].copy_from_slice(&(off + 8).to_le_bytes());
    fix_table_hash(&mut v);
    assert!(matches!(
        snapshot::read(&v[..]),
        Err(SnapshotError::Misaligned {
            section: 1,
            offset: o
        }) if o == off + 8
    ));

    // The mapped open must reject the same corruption the same way.
    let path =
        std::env::temp_dir().join(format!("relmax-io-misaligned-{}.rgs", std::process::id()));
    std::fs::write(&path, &v).unwrap();
    assert!(matches!(
        snapshot::map_full(&path),
        Err(SnapshotError::Misaligned { section: 1, .. })
    ));
    let _ = std::fs::remove_file(&path);

    // Table tampering without a recomputed hash is caught before any
    // entry is even parsed.
    let mut v = bytes.clone();
    v[68] ^= 1;
    assert!(matches!(
        snapshot::read(&v[..]),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Truncation at every prefix of the header + table must fail cleanly.
    for len in 0..table_end(&bytes) {
        assert!(
            matches!(snapshot::read(&bytes[..len]), Err(SnapshotError::Truncated)),
            "prefix of {len} bytes accepted"
        );
    }
}

/// Recompute every checksum a mutated image carries, so structural
/// validation — not the hash — has to catch the damage: the payload hash
/// of a v1/v2 file; the section checksums and table hash of a v3 file,
/// as far as its (possibly lying) table stays inside the bytes.
fn repair_checksums(b: &mut [u8]) {
    let word = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    if b.len() < 64 {
        return;
    }
    // The header hash covers [52, end): the payload of a v1/v2 file, the
    // table of a v3 file (whose entries carry the section checksums).
    let legacy = word(b, 4) < 3;
    let end = if legacy {
        b.len()
    } else {
        64 + word(b, 52) as usize * snapshot::SECTION_ENTRY_BYTES
    };
    if end > b.len() {
        return;
    }
    for pos in (64..end)
        .step_by(snapshot::SECTION_ENTRY_BYTES)
        .filter(|_| !legacy)
    {
        let at = |i: usize| u64::from_le_bytes(b[pos + i..pos + i + 8].try_into().unwrap());
        let (off, len) = (at(8) as usize, at(16) as usize);
        if let Some(sec) = off.checked_add(len).and_then(|e| b.get(off..e)) {
            let sum = snapshot::fnv1a(sec);
            b[pos + 24..pos + 32].copy_from_slice(&sum.to_le_bytes());
        }
    }
    let hash = snapshot::fnv1a(&b[52..end]);
    b[44..52].copy_from_slice(&hash.to_le_bytes());
}

/// Seeded mutation loop over text edge lists: byte flips, truncations,
/// duplicated and dropped lines, and injected `% nodes` / `% directed` /
/// `% undirected` directives, over `data/toy.tsv` and a ring-chords list,
/// under random caller defaults. The streaming freezer — the path every
/// graph-file loader takes for text — may never panic, and must agree
/// with the all-at-once parser on every mutant: the same CSR, or the same
/// error message (line number included). Mutants that are not UTF-8 go
/// through the byte-level entry points, where both report the same I/O
/// error; the rest also go through `freeze_str`.
#[test]
fn mutated_edge_lists_never_panic_and_stream_like_parse() {
    let mut ring = Vec::new();
    relmax::gen::synth::RingChords::new(60, 3, 11)
        .write_text(&mut ring)
        .unwrap();
    let toy = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/data/toy.tsv")).unwrap();
    let path = std::env::temp_dir().join(format!("relmax-io-mutant-{}.tsv", std::process::id()));
    let mut rng = StdRng::seed_from_u64(0x0e1d);
    let (mut accepted, mut kinds) = (0, std::collections::HashSet::new());
    for original in [&toy, &ring] {
        for round in 0..600 {
            let mut b = original.clone();
            let mut lines: Vec<Vec<u8>> = b.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
            let at = rng.gen_range(0..lines.len());
            let what = match round % 6 {
                0 => {
                    let i = rng.gen_range(0..b.len());
                    b[i] ^= rng.gen_range(1..=255u8);
                    format!("flip byte {i}")
                }
                1 => {
                    b.truncate(rng.gen_range(0..b.len()));
                    format!("truncate to {}", b.len())
                }
                2 => {
                    let copy = lines[at].clone();
                    let to = rng.gen_range(0..=lines.len());
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
                    // Counts around the real one: too few dangle edges.
                    let n = rng.gen_range(0..80usize);
                    lines.insert(at, format!("% nodes {n}").into_bytes());
                    b = lines.join(&b'\n');
                    format!("`% nodes {n}` at line {}", at + 1)
                }
                _ => {
                    let d = ["% directed", "% undirected"][rng.gen_range(0..2)];
                    lines.insert(at, d.as_bytes().to_vec());
                    b = lines.join(&b'\n');
                    format!("`{d}` at line {}", at + 1)
                }
            };
            let opts = EdgeListOptions {
                directed: rng.gen_bool(0.5),
                nodes: rng.gen_bool(0.3).then(|| rng.gen_range(0..80usize)),
            };
            let parsed = edgelist::parse_reader(&b[..], &opts).map(|g| g.freeze());
            std::fs::write(&path, &b).unwrap();
            let mut streamed = vec![edgelist::freeze_path(&path, &opts)];
            if let Ok(text) = std::str::from_utf8(&b) {
                streamed.push(edgelist::freeze_str(text, &opts));
            }
            for got in streamed {
                match (&parsed, got) {
                    (Ok(want), Ok((csr, stats))) => {
                        assert!(csr == *want, "{what} {opts:?}: CSR differs");
                        assert_eq!(stats.edges, want.num_coins(), "{what}");
                    }
                    (Err(want), Err(e)) => {
                        assert_eq!(e.to_string(), want.to_string(), "{what} {opts:?}")
                    }
                    (want, got) => panic!(
                        "{what} {opts:?}: parse {:?} vs stream {:?}",
                        want.as_ref().err(),
                        got.err()
                    ),
                }
            }
            match parsed {
                Ok(_) => accepted += 1,
                Err(edgelist::EdgeListError::Io(_)) => {
                    kinds.insert("io".to_string());
                }
                Err(edgelist::EdgeListError::BadRecord { reason, .. }) => {
                    kinds.insert(reason.split(' ').next().unwrap_or("").to_string());
                }
                Err(edgelist::EdgeListError::Graph { source, .. }) => {
                    kinds.insert(format!("{:?}", std::mem::discriminant(&source)));
                }
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    // The loop must reach past the first checks: many mutants still load,
    // and the rejections span syntax, directive and graph errors.
    assert!(accepted >= 100, "only {accepted} mutants loaded");
    assert!(kinds.len() >= 8, "only {kinds:?} rejections");
}

/// Seeded mutation loop over `.rgs` bytes: byte flips, truncations,
/// extensions and lying header sizes, each with and without repaired
/// checksums, over a v3 file with an index section and both legacy
/// fixtures. No reader may panic, and the byte reader and the mapped open
/// — one parser over two backings — must agree on every input: the same
/// graph, or the same error variant.
#[test]
fn mutated_snapshots_never_panic_and_read_agrees_with_map_full() {
    let csr = v2_fixture_graph().freeze();
    let v3 = snapshot::to_bytes_full(&csr, Some(&RelIndex::build(&csr).section()));
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    let inputs = [
        v3,
        std::fs::read(format!("{fixtures}tiny_v1.rgs")).unwrap(),
        std::fs::read(format!("{fixtures}tiny_v2.rgs")).unwrap(),
    ];
    let path = std::env::temp_dir().join(format!("relmax-io-mutant-{}.rgs", std::process::id()));
    let mut rng = StdRng::seed_from_u64(0x0108);
    let (mut accepted, mut variants) = (0, std::collections::HashSet::new());
    for original in &inputs {
        for round in 0..400 {
            let mut b = original.clone();
            let what = match round % 4 {
                0 => {
                    // Half the flips land in the header and table.
                    let hi = if rng.gen_bool(0.5) {
                        b.len().min(192)
                    } else {
                        b.len()
                    };
                    let i = rng.gen_range(0..hi);
                    b[i] ^= rng.gen_range(1..=255u8);
                    format!("flip byte {i}")
                }
                1 => {
                    b.truncate(rng.gen_range(0..b.len()));
                    format!("truncate to {}", b.len())
                }
                2 => {
                    let extra = rng.gen_range(1..80);
                    b.extend((0..extra).map(|_| rng.gen_range(0..=255u8)));
                    format!("extend by {extra}")
                }
                _ => {
                    let at = [12, 20, 28, 36][rng.gen_range(0..4)];
                    let old = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                    let lie = match rng.gen_range(0..3) {
                        0 => old.wrapping_add(rng.gen_range(1..4)),
                        1 => old.wrapping_sub(1),
                        _ => u32::MAX as u64,
                    };
                    b[at..at + 8].copy_from_slice(&lie.to_le_bytes());
                    format!("header word {at} says {lie}")
                }
            };
            if round % 8 >= 4 {
                repair_checksums(&mut b);
            }
            std::fs::write(&path, &b).unwrap();
            let read = snapshot::read_full(&b[..]);
            let mapped = snapshot::map_full(&path);
            let _ = snapshot::map_full_trusted(&path);
            let agree = match (&read, &mapped) {
                (Ok(x), Ok(y)) => x == y,
                (Err(x), Err(y)) => std::mem::discriminant(x) == std::mem::discriminant(y),
                _ => false,
            };
            assert!(
                agree,
                "{what}: read {:?} vs map_full {:?}",
                read.as_ref().err(),
                mapped.as_ref().err()
            );
            match read {
                Ok(_) => accepted += 1,
                Err(e) => {
                    variants.insert(std::mem::discriminant(&e));
                }
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    // The loop must reach past the first checks: some mutants still load,
    // and the rejections span the error taxonomy.
    assert!(accepted > 0, "no mutant loaded");
    assert!(variants.len() >= 6, "only {variants:?} rejections");
}

/// The zero-copy contract, end to end: `save` → {`load_full`,
/// `map_full`, `map_full_trusted`} must produce equal CSRs and
/// bit-identical estimates at every thread count, for random graphs.
#[test]
fn heap_and_mapped_loads_answer_identically_for_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x0107);
    let path = std::env::temp_dir().join(format!("relmax-io-roundtrip-{}.rgs", std::process::id()));
    let mut zero_copy_seen = false;
    for _ in 0..20 {
        let g = random_graph(&mut rng);
        let csr = g.freeze();
        snapshot::save(&csr, &path).unwrap();
        let (heap, _) = snapshot::load_full(&path).unwrap();
        let (mapped, _) = snapshot::map_full(&path).unwrap();
        let (trusted, _) = snapshot::map_full_trusted(&path).unwrap();
        assert!(heap == csr, "heap load diverged");
        assert!(mapped == csr, "mapped load diverged");
        assert!(trusted == csr, "trusted load diverged");
        zero_copy_seen |= mapped.is_zero_copy();
        if g.num_edges() == 0 {
            continue;
        }
        let (s, t) = (NodeId(0), NodeId(g.num_nodes() as u32 - 1));
        for threads in [1, 4] {
            let mc = McEstimator::with_threads(500, 7, threads);
            let b = mc.default_budget();
            let reference = mc.st_estimate(&csr, s, t, b);
            assert_eq!(reference, mc.st_estimate(&heap, s, t, b));
            assert_eq!(reference, mc.st_estimate(&mapped, s, t, b));
            assert_eq!(reference, mc.st_estimate(&trusted, s, t, b));
        }
    }
    let _ = std::fs::remove_file(&path);
    if cfg!(target_os = "linux") {
        assert!(
            zero_copy_seen,
            "map_full never engaged the zero-copy path on linux"
        );
    }
}

#[test]
fn malformed_text_inputs_are_rejected_with_positions() {
    // Bad probability.
    let err = edgelist::parse_str("0 1 0.5\n1 2 -0.25\n", &EdgeListOptions::default()).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
    // Dangling node against a declared count.
    let err = edgelist::parse_str("% nodes 3\n0 1 0.5\n1 7 0.5\n", &EdgeListOptions::default())
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("line 3") && msg.contains("out of bounds"),
        "{msg}"
    );
    // Garbage record.
    assert!(edgelist::parse_str("zero one 0.5\n", &EdgeListOptions::default()).is_err());
}

#[test]
fn malformed_snapshots_are_rejected() {
    let mut g = UncertainGraph::new(3, true);
    g.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
    g.add_edge(NodeId(1), NodeId(2), 0.75).unwrap();
    let bytes = snapshot::to_bytes(&g.freeze());

    // Truncation at every prefix length must fail cleanly (never panic).
    for len in 0..bytes.len() {
        assert!(
            matches!(snapshot::read(&bytes[..len]), Err(SnapshotError::Truncated)),
            "prefix of {len} bytes accepted"
        );
    }
    // Wrong version — above the supported range (2 is valid since the
    // index section landed) and below it (0 predates the format).
    let mut v = bytes.clone();
    v[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        snapshot::read(&v[..]),
        Err(SnapshotError::UnsupportedVersion { found: 99 })
    ));
    let mut v = bytes.clone();
    v[4..8].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        snapshot::read(&v[..]),
        Err(SnapshotError::UnsupportedVersion { found: 0 })
    ));
    // Not a snapshot at all.
    assert!(matches!(
        snapshot::read(&b"0 1 0.5\n this is text"[..]),
        Err(SnapshotError::BadMagic { .. })
    ));
    // Single-bit payload corruption.
    let mut v = bytes;
    let mid = snapshot::HEADER_BYTES + 5;
    v[mid] ^= 1;
    assert!(matches!(
        snapshot::read(&v[..]),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}
