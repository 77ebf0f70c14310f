//! Tuples and relations (set semantics).

use crate::schema::{Attr, Schema};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A tuple: values positionally aligned with a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    pub fn from_values<I>(values: I) -> Tuple
    where
        I: IntoIterator<Item = Value>,
    {
        Tuple { values: values.into_iter().collect() }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// A relation: a schema plus a deduplicated multiset of tuples.
///
/// Insertion order is preserved (useful for stable test output); set
/// semantics are enforced with a hash index that stores positions, not
/// tuples, so every tuple is held once.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
    /// Tuple hash → position of the first tuple with that hash. A
    /// present tuple's hash is always indexed; a (vanishingly rare)
    /// second tuple with the same hash is found by a scan.
    #[serde(skip)]
    index: HashMap<u64, u32>,
}

fn tuple_hash(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

impl Relation {
    pub fn new(schema: Schema) -> Relation {
        Relation { schema, tuples: Vec::new(), index: HashMap::new() }
    }

    /// Set membership.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.index
            .get(&tuple_hash(t))
            .is_some_and(|&i| &self.tuples[i as usize] == t || self.tuples.contains(t))
    }

    /// Build a relation from rows; arity mismatches panic (construction
    /// bug, not runtime condition).
    pub fn from_rows<I, R>(schema: Schema, rows: I) -> Relation
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = Value>,
    {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.push(Tuple::from_values(row));
        }
        rel
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple (ignored if already present). Panics on arity
    /// mismatch.
    pub fn push(&mut self, t: Tuple) {
        assert_eq!(
            t.len(),
            self.schema.len(),
            "tuple arity {} does not match schema {}",
            t.len(),
            self.schema
        );
        let at = self.tuples.len();
        match self.index.entry(tuple_hash(&t)) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(at as u32);
            }
            std::collections::hash_map::Entry::Occupied(first) => {
                if self.tuples[*first.get() as usize] == t || self.tuples.contains(&t) {
                    return;
                }
            }
        }
        self.tuples.push(t);
    }

    /// Value of attribute `a` in tuple `t` (must belong to this schema).
    pub fn value<'t>(&self, t: &'t Tuple, a: &Attr) -> &'t Value {
        let idx = self
            .schema
            .index_of(a)
            .unwrap_or_else(|| panic!("attribute {a} not in schema {}", self.schema));
        t.get(idx)
    }

    /// Iterate `(attr, value)` pairs of a tuple.
    pub fn named<'a>(&'a self, t: &'a Tuple) -> impl Iterator<Item = (&'a Attr, &'a Value)> {
        self.schema.attrs().iter().zip(t.values())
    }

    /// Render as an aligned text table (for examples and the repro
    /// binary).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> =
            self.schema.attrs().iter().map(|a| a.as_str().to_string()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> =
            self.tuples.iter().map(|t| t.values().iter().map(Value::to_string).collect()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl PartialEq for Relation {
    /// Relations are equal when they have the same schema and the same
    /// *set* of tuples (order-insensitive).
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.tuples.len() == other.tuples.len()
            && self.tuples.iter().all(|t| other.contains(t))
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

// serde skip leaves `seen` empty after deserialisation; rebuild it.
impl Relation {
    /// Rebuild the dedup index (after deserialisation).
    pub fn reindex(&mut self) {
        let tuples = std::mem::take(&mut self.tuples);
        self.index.clear();
        for t in tuples {
            self.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::new(["make", "price"]),
            [
                vec![Value::str("ford"), Value::Int(500)],
                vec![Value::str("jaguar"), Value::Int(9000)],
            ],
        )
    }

    #[test]
    fn dedup_on_push() {
        let mut r = rel();
        r.push(Tuple::from_values([Value::str("ford"), Value::Int(500)]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn dedup_and_membership_go_through_the_position_index() {
        const N: i64 = 48;
        let row = |i: i64| Tuple::from_values([Value::str("x"), Value::Int(i)]);
        let mut r = Relation::new(Schema::new(["make", "price"]));
        for round in 0..2 {
            for i in 0..N {
                r.push(row(i));
                assert_eq!(r.len(), if round == 0 { i as usize + 1 } else { N as usize });
            }
        }
        assert!((0..N).all(|i| r.contains(&row(i))));
        assert!(!r.contains(&row(-1)));
        let mut reversed = Relation::new(Schema::new(["make", "price"]));
        for i in (0..N).rev() {
            reversed.push(row(i));
        }
        assert_eq!(r, reversed);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = rel();
        r.push(Tuple::from_values([Value::Int(1)]));
    }

    #[test]
    fn value_by_attr() {
        let r = rel();
        assert_eq!(r.value(&r.tuples()[1], &"price".into()), &Value::Int(9000));
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a = rel();
        let b = Relation::from_rows(
            Schema::new(["make", "price"]),
            [
                vec![Value::str("jaguar"), Value::Int(9000)],
                vec![Value::str("ford"), Value::Int(500)],
            ],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn table_rendering() {
        let txt = rel().to_table();
        assert!(txt.contains("make"));
        assert!(txt.lines().count() >= 4);
    }

    #[test]
    fn named_iteration() {
        let r = rel();
        let pairs: Vec<String> = r.named(&r.tuples()[0]).map(|(a, v)| format!("{a}={v}")).collect();
        assert_eq!(pairs, vec!["make=ford", "price=500"]);
    }
}
