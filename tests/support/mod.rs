//! What the integration tests share: the reference evaluator
//! ([`oracle`]) and the one comparison of an engine result with its
//! answer.

#![allow(dead_code)]

pub mod oracle;

use std::cmp::Ordering;

use hsqp::storage::{Table, Value};

use oracle::{Answer, Rel, Ty};

/// Two cells agree: equal, or floats within a relative 1e-6 (sums of the
/// same numbers in another order), or both NaN.
fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => {
            x == y
                || (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
                || (x.is_nan() && y.is_nan())
        }
        _ => a == b,
    }
}

/// A total order on cells: by kind (NULL, integer, float, string), then by
/// value.
fn cell_order(a: &Value, b: &Value) -> Ordering {
    let kind = |v: &Value| match v {
        Value::Null => 0,
        Value::I64(_) => 1,
        Value::F64(_) => 2,
        Value::Str(_) => 3,
    };
    match (a, b) {
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::F64(x), Value::F64(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => kind(a).cmp(&kind(b)),
    }
}

/// Assert that `got`, an engine result, holds `want`'s rows: the same
/// columns, the same sort-key values position by position when the answer
/// is ordered, and the same rows as a multiset, compared with a float
/// tolerance. At a limit cut, rows tying with the last one on the sort keys
/// are compared by count only: which of them survive is up to the sort.
pub fn assert_matches(got: &Table, want: &Answer, what: &str) {
    let got = Rel::of_table(got);
    assert_eq!(got.cols, want.rel.cols, "{what}: columns differ");
    assert_eq!(
        got.rows.len(),
        want.rel.rows.len(),
        "{what}: row counts differ"
    );
    for (i, (g, w)) in got.rows.iter().zip(&want.rel.rows).enumerate() {
        for &(c, _) in &want.order {
            assert!(
                close(&g[c], &w[c]),
                "{what}: sort key {} of row {i} is {:?} where the answer has {:?}",
                want.rel.cols[c],
                g[c],
                w[c]
            );
        }
    }
    let boundary = want.rel.rows.last();
    let settled = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
        let tied = |r: &[Value]| {
            let last = boundary.expect("a cut leaves rows");
            want.order.iter().all(|&(c, _)| close(&r[c], &last[c]))
        };
        let mut kept: Vec<Vec<Value>> = rows
            .iter()
            .filter(|r| !(want.cut && tied(r)))
            .cloned()
            .collect();
        // Exact columns first, so that float noise cannot pair up rows
        // that differ elsewhere.
        let floats: Vec<usize> = (0..want.rel.cols.len())
            .filter(|&c| want.rel.types[c] == Ty::Float)
            .collect();
        let exact: Vec<usize> = (0..want.rel.cols.len())
            .filter(|c| !floats.contains(c))
            .collect();
        kept.sort_by(|a, b| {
            exact
                .iter()
                .chain(&floats)
                .map(|&c| cell_order(&a[c], &b[c]))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        kept
    };
    let (got, want) = (settled(&got.rows), settled(&want.rel.rows));
    assert_eq!(got.len(), want.len(), "{what}: rows tie differently");
    for (g, w) in got.iter().zip(&want) {
        assert!(
            g.iter().zip(w).all(|(a, b)| close(a, b)),
            "{what}: rows differ\n  got  {g:?}\n  want {w:?}"
        );
    }
}
