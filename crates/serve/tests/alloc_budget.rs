//! Heap allocations per `/insert` body decode, counted (the harness of
//! `fdc-f2db`'s `alloc_budget.rs`): the one-pass decode allocates for
//! the rows it hands back and for nothing that grows with their number.
//!
//! The cube is the seeded GenX cube of 1000 base series `perfbench`
//! serves (three dimensions); a body is one full round, as its writer
//! sends it.
//!
//! | body             | budget | one pass | at cbf1666 |
//! |------------------|-------:|---------:|-----------:|
//! | 1000 rows, round |     16 |       11 |     12,020 |
//! | 100 rows         |     16 |        8 |      1,214 |
//!
//! The right column is what this harness counted on that commit
//! for `handle_insert`'s decode, twelve a row: the body parsed to a
//! tree (a `BTreeMap` node and two key `String`s a row, a `String` a
//! label), the labels cloned into a `Vec<String>`, and a coordinate
//! `Vec` and `Box` per `base_node_for`. What is left is the output
//! `Vec`'s doublings, the resolver's one coordinate buffer and the
//! unused refusal of the body as a bare row.
//!
//! And per `wire::encode` of a request — the body the router writes a
//! shard, that shard's node ids in it: one buffer sized from the
//! request, 1 allocation for 100 ids against a budget of 3 (111 at
//! 02ccc07, which made a `String` of every id before joining them).

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use fdc_cube::Configuration;
use fdc_datagen::{generate_cube, GenSpec};
use fdc_f2db::{F2db, QueryMode, QueryRequest};
use fdc_serve::wire;

/// `{"rows":[...]}` for the first `rows` base series of `db`.
fn body(db: &F2db, rows: usize) -> String {
    let ds = db.dataset();
    let g = ds.graph();
    let rows: Vec<String> = g.base_nodes()[..rows]
        .iter()
        .map(|&b| {
            let labels: Vec<String> = g
                .coord(b)
                .values()
                .iter()
                .zip(g.schema().dimensions())
                .map(|(&v, dim)| format!("\"{}\"", dim.values()[v as usize]))
                .collect();
            format!("{{\"dims\":[{}],\"value\":{}.5}}", labels.join(","), b)
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

fn decode_allocations(db: &F2db, body: &str, rows: usize) -> u64 {
    let before = allocations();
    // The server's own decode, as `handle_insert` calls it.
    let decoded = wire::decode_insert(
        body.as_bytes(),
        &mut db.base_resolver(),
        |node, value, _| (node, value),
    );
    let after = allocations();
    assert_eq!(decoded.expect("the body decodes").len(), rows);
    after - before
}

#[test]
fn an_insert_decode_allocates_for_its_output_and_nothing_per_row() {
    let dataset = generate_cube(&GenSpec::new(1000, 48, 0xA110C)).dataset;
    let empty = Configuration::new(dataset.node_count());
    let db = F2db::load(dataset, &empty).expect("an empty configuration loads");
    let (round, tenth) = (body(&db, 1000), body(&db, 100));
    let counted = [
        decode_allocations(&db, &round, 1000),
        decode_allocations(&db, &tenth, 100),
    ];
    println!("allocations per /insert decode (1000 rows, 100 rows): {counted:?}");
    assert!(counted.iter().all(|&n| n <= 16), "{counted:?} against 16");
    // Ten times the rows: the output `Vec` doubles a few more times.
    assert!(counted[0] - counted[1] <= 4, "{counted:?}");
}

#[test]
fn a_request_encode_allocates_for_its_body_and_nothing_per_node() {
    let request = QueryRequest {
        nodes: Some((0..100).map(|n| n * 37).collect()),
        ..QueryRequest::new(
            "SELECT time, SUM(v) FROM facts GROUP BY time, product AS OF now() + '4 steps'",
            QueryMode::Forecast,
        )
    };
    let before = allocations();
    let body = wire::encode(&request);
    let counted = allocations() - before;
    println!("allocations per 100-node encode: {counted}");
    assert!(body.ends_with(",3626,3663]}"), "{body}");
    assert!(counted <= 3, "{counted} against 3");
}
