//! The generator itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hsqp_storage::{date_from_ymd, Column, Schema, StringBuilder, Table};

use crate::schema;
use crate::text;

/// The eight TPC-H relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchTable {
    /// 5 rows.
    Region,
    /// 25 rows.
    Nation,
    /// 10 000 · SF rows.
    Supplier,
    /// 150 000 · SF rows.
    Customer,
    /// 200 000 · SF rows.
    Part,
    /// 800 000 · SF rows (four suppliers per part).
    Partsupp,
    /// 1 500 000 · SF rows (ten per customer).
    Orders,
    /// ≈ 6 000 000 · SF rows (one to seven per order).
    Lineitem,
}

impl TpchTable {
    /// All tables in dependency order.
    pub const ALL: [TpchTable; 8] = [
        TpchTable::Region,
        TpchTable::Nation,
        TpchTable::Supplier,
        TpchTable::Customer,
        TpchTable::Part,
        TpchTable::Partsupp,
        TpchTable::Orders,
        TpchTable::Lineitem,
    ];

    /// Lower-case relation name.
    pub fn name(self) -> &'static str {
        match self {
            TpchTable::Region => "region",
            TpchTable::Nation => "nation",
            TpchTable::Supplier => "supplier",
            TpchTable::Customer => "customer",
            TpchTable::Part => "part",
            TpchTable::Partsupp => "partsupp",
            TpchTable::Orders => "orders",
            TpchTable::Lineitem => "lineitem",
        }
    }

    /// The relation's schema: what [`TpchDb::generate`] produces, available
    /// without generating any data.
    pub fn schema(self) -> Schema {
        match self {
            TpchTable::Region => schema::region(),
            TpchTable::Nation => schema::nation(),
            TpchTable::Supplier => schema::supplier(),
            TpchTable::Customer => schema::customer(),
            TpchTable::Part => schema::part(),
            TpchTable::Partsupp => schema::partsupp(),
            TpchTable::Orders => schema::orders(),
            TpchTable::Lineitem => schema::lineitem(),
        }
    }

    /// Table by name.
    pub fn from_name(name: &str) -> Option<TpchTable> {
        Self::ALL.into_iter().find(|t| t.name() == name)
    }

    /// Index into [`TpchDb`]'s table vector.
    pub fn idx(self) -> usize {
        Self::ALL.iter().position(|&t| t == self).expect("in ALL")
    }
}

/// Spec retail price for a part, in cents (TPC-H 4.2.3). Queries 17 and 19
/// rely on `l_extendedprice` being correlated with this.
pub fn retail_price_cents(partkey: i64) -> i64 {
    90_000 + (partkey / 10) % 20_001 + 100 * (partkey % 1000)
}

/// The spec's partsupp supplier assignment (TPC-H 4.2.3): supplier `j ∈
/// [0, 4)` of part `p` given `s` suppliers total. Guarantees that lineitem's
/// `(partkey, suppkey)` pairs exist in partsupp.
pub fn partsupp_supplier(partkey: i64, j: i64, suppliers: i64) -> i64 {
    (partkey + j * (suppliers / 4 + (partkey - 1) / suppliers)) % suppliers + 1
}

/// TPC-H's "current date" used to derive line status (1995-06-17).
pub fn current_date() -> i64 {
    date_from_ymd(1995, 6, 17)
}

/// A generated TPC-H database.
#[derive(Debug, Clone)]
pub struct TpchDb {
    sf: f64,
    tables: Vec<Table>,
}

impl TpchDb {
    /// Generate at scale factor `sf` with the default seed.
    pub fn generate(sf: f64) -> Self {
        Self::generate_seeded(sf, 42)
    }

    /// Generate at scale factor `sf` with an explicit seed.
    ///
    /// # Panics
    /// Panics if `sf` is not positive.
    pub fn generate_seeded(sf: f64, seed: u64) -> Self {
        assert!(sf > 0.0 && sf.is_finite(), "scale factor must be positive");
        let suppliers = ((10_000.0 * sf) as i64).max(4);
        let customers = ((150_000.0 * sf) as i64).max(10);
        let parts = ((200_000.0 * sf) as i64).max(20);
        let orders = customers * 10;

        let mut rng = StdRng::seed_from_u64(seed);
        let part = gen_part(&mut rng, parts);
        let supplier = gen_supplier(&mut rng, suppliers);
        let partsupp = gen_partsupp(&mut rng, parts, suppliers);
        let customer = gen_customer(&mut rng, customers);
        let (orders, lineitem) = gen_orders_lineitem(&mut rng, orders, customers, parts, suppliers);

        let tables = vec![
            gen_region(),
            gen_nation(&mut rng),
            supplier,
            customer,
            part,
            partsupp,
            orders,
            lineitem,
        ];
        Self { sf, tables }
    }

    /// The scale factor this database was generated at.
    pub fn scale_factor(&self) -> f64 {
        self.sf
    }

    /// Access one relation.
    pub fn table(&self, t: TpchTable) -> &Table {
        &self.tables[t.idx()]
    }

    /// Total size of all relations in bytes.
    pub fn byte_size(&self) -> usize {
        self.tables.iter().map(Table::byte_size).sum()
    }

    /// Take the relations out (placement code consumes them).
    pub fn into_tables(self) -> Vec<(TpchTable, Table)> {
        TpchTable::ALL.into_iter().zip(self.tables).collect()
    }
}

fn gen_region() -> Table {
    let keys = Column::I64((0..5).collect(), None);
    let names: StringBuilder = text::REGIONS.into_iter().collect();
    let comments: StringBuilder = (0..5).map(|_| "region comment").collect();
    Table::new(
        schema::region(),
        vec![
            keys,
            Column::Str(names.finish(), None),
            Column::Str(comments.finish(), None),
        ],
    )
}

fn gen_nation(rng: &mut StdRng) -> Table {
    let keys = Column::I64((0..25).collect(), None);
    let names: StringBuilder = text::NATIONS.iter().map(|&(n, _)| n).collect();
    let regions = Column::I64(text::NATIONS.iter().map(|&(_, r)| r).collect(), None);
    let comments: StringBuilder = (0..25).map(|_| text::comment(rng, 5)).collect();
    Table::new(
        schema::nation(),
        vec![
            keys,
            Column::Str(names.finish(), None),
            regions,
            Column::Str(comments.finish(), None),
        ],
    )
}

fn gen_supplier(rng: &mut StdRng, n: i64) -> Table {
    let mut names = StringBuilder::with_capacity(n as usize, 18);
    let mut addresses = StringBuilder::with_capacity(n as usize, 18);
    let mut nationkeys = Vec::with_capacity(n as usize);
    let mut phones = StringBuilder::with_capacity(n as usize, 15);
    let mut acctbals = Vec::with_capacity(n as usize);
    let mut comments = StringBuilder::with_capacity(n as usize, 40);
    for k in 1..=n {
        names.push(&format!("Supplier#{k:09}"));
        addresses.push(&text::address(rng));
        let nation = rng.random_range(0..25);
        nationkeys.push(nation);
        phones.push(&text::phone(rng, nation));
        acctbals.push(rng.random_range(-99_999..=999_999));
        comments.push(&text::supplier_comment(rng));
    }
    Table::new(
        schema::supplier(),
        vec![
            Column::I64((1..=n).collect(), None),
            Column::Str(names.finish(), None),
            Column::Str(addresses.finish(), None),
            Column::I64(nationkeys, None),
            Column::Str(phones.finish(), None),
            Column::I64(acctbals, None),
            Column::Str(comments.finish(), None),
        ],
    )
}

fn gen_customer(rng: &mut StdRng, n: i64) -> Table {
    let mut names = StringBuilder::with_capacity(n as usize, 18);
    let mut addresses = StringBuilder::with_capacity(n as usize, 18);
    let mut nationkeys = Vec::with_capacity(n as usize);
    let mut phones = StringBuilder::with_capacity(n as usize, 15);
    let mut acctbals = Vec::with_capacity(n as usize);
    let mut segments = StringBuilder::with_capacity(n as usize, 10);
    let mut comments = StringBuilder::with_capacity(n as usize, 40);
    for k in 1..=n {
        names.push(&format!("Customer#{k:09}"));
        addresses.push(&text::address(rng));
        let nation = rng.random_range(0..25);
        nationkeys.push(nation);
        phones.push(&text::phone(rng, nation));
        acctbals.push(rng.random_range(-99_999..=999_999));
        segments.push(text::SEGMENTS[rng.random_range(0..text::SEGMENTS.len())]);
        let w = rng.random_range(4..9);
        comments.push(&text::comment(rng, w));
    }
    Table::new(
        schema::customer(),
        vec![
            Column::I64((1..=n).collect(), None),
            Column::Str(names.finish(), None),
            Column::Str(addresses.finish(), None),
            Column::I64(nationkeys, None),
            Column::Str(phones.finish(), None),
            Column::I64(acctbals, None),
            Column::Str(segments.finish(), None),
            Column::Str(comments.finish(), None),
        ],
    )
}

fn gen_part(rng: &mut StdRng, n: i64) -> Table {
    let mut names = StringBuilder::with_capacity(n as usize, 32);
    let mut mfgrs = StringBuilder::with_capacity(n as usize, 14);
    let mut brands = StringBuilder::with_capacity(n as usize, 8);
    let mut types = StringBuilder::with_capacity(n as usize, 22);
    let mut sizes = Vec::with_capacity(n as usize);
    let mut containers = StringBuilder::with_capacity(n as usize, 9);
    let mut prices = Vec::with_capacity(n as usize);
    let mut comments = StringBuilder::with_capacity(n as usize, 20);
    for k in 1..=n {
        names.push(&text::part_name(rng));
        let m = rng.random_range(1..=5);
        mfgrs.push(&format!("Manufacturer#{m}"));
        brands.push(&format!("Brand#{m}{}", rng.random_range(1..=5)));
        let ty = format!(
            "{} {} {}",
            text::TYPE_S1[rng.random_range(0..text::TYPE_S1.len())],
            text::TYPE_S2[rng.random_range(0..text::TYPE_S2.len())],
            text::TYPE_S3[rng.random_range(0..text::TYPE_S3.len())],
        );
        types.push(&ty);
        sizes.push(rng.random_range(1..=50));
        containers.push(&format!(
            "{} {}",
            text::CONTAINER_S1[rng.random_range(0..text::CONTAINER_S1.len())],
            text::CONTAINER_S2[rng.random_range(0..text::CONTAINER_S2.len())],
        ));
        prices.push(retail_price_cents(k));
        let w = rng.random_range(2..5);
        comments.push(&text::comment(rng, w));
    }
    Table::new(
        schema::part(),
        vec![
            Column::I64((1..=n).collect(), None),
            Column::Str(names.finish(), None),
            Column::Str(mfgrs.finish(), None),
            Column::Str(brands.finish(), None),
            Column::Str(types.finish(), None),
            Column::I64(sizes, None),
            Column::Str(containers.finish(), None),
            Column::I64(prices, None),
            Column::Str(comments.finish(), None),
        ],
    )
}

fn gen_partsupp(rng: &mut StdRng, parts: i64, suppliers: i64) -> Table {
    let per_part = 4.min(suppliers);
    let rows = (parts * per_part) as usize;
    let mut partkeys = Vec::with_capacity(rows);
    let mut suppkeys = Vec::with_capacity(rows);
    let mut qtys = Vec::with_capacity(rows);
    let mut costs = Vec::with_capacity(rows);
    let mut comments = StringBuilder::with_capacity(rows, 30);
    for p in 1..=parts {
        for j in 0..per_part {
            partkeys.push(p);
            suppkeys.push(partsupp_supplier(p, j, suppliers));
            qtys.push(rng.random_range(1..=9999));
            costs.push(rng.random_range(100..=100_000));
            let w = rng.random_range(3..7);
            comments.push(&text::comment(rng, w));
        }
    }
    Table::new(
        schema::partsupp(),
        vec![
            Column::I64(partkeys, None),
            Column::I64(suppkeys, None),
            Column::I64(qtys, None),
            Column::I64(costs, None),
            Column::Str(comments.finish(), None),
        ],
    )
}

#[allow(clippy::too_many_lines)]
fn gen_orders_lineitem(
    rng: &mut StdRng,
    orders: i64,
    customers: i64,
    parts: i64,
    suppliers: i64,
) -> (Table, Table) {
    let start_date = date_from_ymd(1992, 1, 1);
    let end_date = date_from_ymd(1998, 12, 31) - 151;
    let today = current_date();
    let per_part = 4.min(suppliers);

    let o_rows = orders as usize;
    let mut o_orderkey = Vec::with_capacity(o_rows);
    let mut o_custkey = Vec::with_capacity(o_rows);
    let mut o_status = StringBuilder::with_capacity(o_rows, 1);
    let mut o_totalprice = Vec::with_capacity(o_rows);
    let mut o_orderdate = Vec::with_capacity(o_rows);
    let mut o_priority = StringBuilder::with_capacity(o_rows, 10);
    let mut o_clerk = StringBuilder::with_capacity(o_rows, 15);
    let mut o_shipprio = Vec::with_capacity(o_rows);
    let mut o_comment = StringBuilder::with_capacity(o_rows, 40);

    let l_rows = o_rows * 4;
    let mut l_orderkey = Vec::with_capacity(l_rows);
    let mut l_partkey = Vec::with_capacity(l_rows);
    let mut l_suppkey = Vec::with_capacity(l_rows);
    let mut l_linenumber = Vec::with_capacity(l_rows);
    let mut l_quantity = Vec::with_capacity(l_rows);
    let mut l_extprice = Vec::with_capacity(l_rows);
    let mut l_discount = Vec::with_capacity(l_rows);
    let mut l_tax = Vec::with_capacity(l_rows);
    let mut l_returnflag = StringBuilder::with_capacity(l_rows, 1);
    let mut l_linestatus = StringBuilder::with_capacity(l_rows, 1);
    let mut l_shipdate = Vec::with_capacity(l_rows);
    let mut l_commitdate = Vec::with_capacity(l_rows);
    let mut l_receiptdate = Vec::with_capacity(l_rows);
    let mut l_shipinstruct = StringBuilder::with_capacity(l_rows, 15);
    let mut l_shipmode = StringBuilder::with_capacity(l_rows, 5);
    let mut l_comment = StringBuilder::with_capacity(l_rows, 20);

    for ok in 1..=orders {
        // Spec: only two out of three customers ever place orders; the
        // remainder matter for queries 13 and 22.
        let ck = loop {
            let c = rng.random_range(1..=customers);
            if customers < 3 || c % 3 != 0 {
                break c;
            }
        };
        let odate = rng.random_range(start_date..=end_date);
        let lines = rng.random_range(1..=7);
        let mut total = 0i64;
        let mut open = 0u32;
        let mut finished = 0u32;
        for line in 1..=lines {
            let pk = rng.random_range(1..=parts);
            let sk = partsupp_supplier(pk, rng.random_range(0..per_part), suppliers);
            let qty = rng.random_range(1..=50);
            let ext = qty * retail_price_cents(pk);
            let disc = rng.random_range(0..=10); // 0.00 – 0.10 scaled ×100
            let tax = rng.random_range(0..=8);
            let ship = odate + rng.random_range(1..=121);
            let commit = odate + rng.random_range(30..=90);
            let receipt = ship + rng.random_range(1..=30);
            let status = if ship > today { "O" } else { "F" };
            if status == "O" {
                open += 1;
            } else {
                finished += 1;
            }
            let rflag = if receipt <= today {
                if rng.random_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            l_orderkey.push(ok);
            l_partkey.push(pk);
            l_suppkey.push(sk);
            l_linenumber.push(line);
            l_quantity.push(qty * 100); // decimal scale 100
            l_extprice.push(ext);
            l_discount.push(disc);
            l_tax.push(tax);
            l_returnflag.push(rflag);
            l_linestatus.push(status);
            l_shipdate.push(ship);
            l_commitdate.push(commit);
            l_receiptdate.push(receipt);
            l_shipinstruct
                .push(text::SHIP_INSTRUCT[rng.random_range(0..text::SHIP_INSTRUCT.len())]);
            l_shipmode.push(text::SHIP_MODES[rng.random_range(0..text::SHIP_MODES.len())]);
            {
                let w = rng.random_range(2..5);
                l_comment.push(&text::comment(rng, w));
            }
            total += ext * (100 - disc) / 100 * (100 + tax) / 100;
        }
        o_orderkey.push(ok);
        o_custkey.push(ck);
        o_status.push(if finished == 0 {
            "O"
        } else if open == 0 {
            "F"
        } else {
            "P"
        });
        o_totalprice.push(total);
        o_orderdate.push(odate);
        o_priority.push(text::PRIORITIES[rng.random_range(0..text::PRIORITIES.len())]);
        o_clerk.push(&format!("Clerk#{:09}", rng.random_range(1..=1000)));
        o_shipprio.push(0);
        o_comment.push(&text::order_comment(rng));
    }

    let orders_table = Table::new(
        schema::orders(),
        vec![
            Column::I64(o_orderkey, None),
            Column::I64(o_custkey, None),
            Column::Str(o_status.finish(), None),
            Column::I64(o_totalprice, None),
            Column::I64(o_orderdate, None),
            Column::Str(o_priority.finish(), None),
            Column::Str(o_clerk.finish(), None),
            Column::I64(o_shipprio, None),
            Column::Str(o_comment.finish(), None),
        ],
    );
    let lineitem_table = Table::new(
        schema::lineitem(),
        vec![
            Column::I64(l_orderkey, None),
            Column::I64(l_partkey, None),
            Column::I64(l_suppkey, None),
            Column::I64(l_linenumber, None),
            Column::I64(l_quantity, None),
            Column::I64(l_extprice, None),
            Column::I64(l_discount, None),
            Column::I64(l_tax, None),
            Column::Str(l_returnflag.finish(), None),
            Column::Str(l_linestatus.finish(), None),
            Column::I64(l_shipdate, None),
            Column::I64(l_commitdate, None),
            Column::I64(l_receiptdate, None),
            Column::Str(l_shipinstruct.finish(), None),
            Column::Str(l_shipmode.finish(), None),
            Column::Str(l_comment.finish(), None),
        ],
    );
    (orders_table, lineitem_table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny() -> TpchDb {
        TpchDb::generate(0.001)
    }

    /// The string columns generation codes: every one with at most 256
    /// distinct values. Once the supplier relation has more than 256 rows
    /// (SF > 0.0256) they are these fifteen, the same at every larger
    /// scale; high-cardinality strings stay plain.
    #[test]
    fn strings_with_at_most_256_values_are_coded() {
        let coded = |db: &TpchDb| -> Vec<String> {
            let mut names = Vec::new();
            for t in TpchTable::ALL {
                let table = db.table(t);
                for (f, c) in table.schema().fields().iter().zip(table.columns()) {
                    if let Column::Str(v, _) = c {
                        let distinct: HashSet<&str> = v.iter().collect();
                        assert_eq!(
                            v.dictionary().is_some(),
                            distinct.len() <= 256,
                            "{}",
                            f.name
                        );
                        if v.dictionary().is_some() {
                            names.push(f.name.clone());
                        }
                    }
                }
            }
            names
        };
        assert_eq!(
            coded(&TpchDb::generate(0.03)),
            [
                "r_name",
                "r_comment",
                "n_name",
                "n_comment",
                "c_mktsegment",
                "p_mfgr",
                "p_brand",
                "p_type",
                "p_container",
                "o_orderstatus",
                "o_orderpriority",
                "l_returnflag",
                "l_linestatus",
                "l_shipinstruct",
                "l_shipmode",
            ]
        );
        // Where supplier has at most 256 rows, its strings are coded too.
        let tiny = coded(&tiny());
        assert!(["s_name", "s_comment", "l_shipmode"]
            .iter()
            .all(|n| tiny.iter().any(|t| t == n)));
        assert!(!tiny.iter().any(|t| t == "l_comment" || t == "o_clerk"));
    }

    #[test]
    fn cardinalities_scale() {
        let db = tiny();
        assert_eq!(db.table(TpchTable::Region).rows(), 5);
        assert_eq!(db.table(TpchTable::Nation).rows(), 25);
        assert_eq!(db.table(TpchTable::Supplier).rows(), 10);
        assert_eq!(db.table(TpchTable::Customer).rows(), 150);
        assert_eq!(db.table(TpchTable::Part).rows(), 200);
        assert_eq!(db.table(TpchTable::Partsupp).rows(), 800);
        assert_eq!(db.table(TpchTable::Orders).rows(), 1500);
        let li = db.table(TpchTable::Lineitem).rows();
        assert!((3000..12_000).contains(&li), "lineitem rows {li}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchDb::generate_seeded(0.001, 7);
        let b = TpchDb::generate_seeded(0.001, 7);
        assert_eq!(
            a.table(TpchTable::Lineitem).rows(),
            b.table(TpchTable::Lineitem).rows()
        );
        assert_eq!(
            a.table(TpchTable::Orders).column_by_name("o_totalprice"),
            b.table(TpchTable::Orders).column_by_name("o_totalprice")
        );
    }

    #[test]
    fn lineitem_part_supp_pairs_exist_in_partsupp() {
        let db = tiny();
        let ps = db.table(TpchTable::Partsupp);
        let pairs: HashSet<(i64, i64)> = ps
            .column_by_name("ps_partkey")
            .i64_values()
            .iter()
            .zip(ps.column_by_name("ps_suppkey").i64_values())
            .map(|(&p, &s)| (p, s))
            .collect();
        let li = db.table(TpchTable::Lineitem);
        for (&p, &s) in li
            .column_by_name("l_partkey")
            .i64_values()
            .iter()
            .zip(li.column_by_name("l_suppkey").i64_values())
        {
            assert!(pairs.contains(&(p, s)), "({p},{s}) missing from partsupp");
        }
    }

    #[test]
    fn foreign_keys_are_in_range() {
        let db = tiny();
        let customers = db.table(TpchTable::Customer).rows() as i64;
        for &c in db
            .table(TpchTable::Orders)
            .column_by_name("o_custkey")
            .i64_values()
        {
            assert!((1..=customers).contains(&c));
        }
        for &nk in db
            .table(TpchTable::Supplier)
            .column_by_name("s_nationkey")
            .i64_values()
        {
            assert!((0..25).contains(&nk));
        }
    }

    #[test]
    fn one_third_of_customers_have_no_orders() {
        let db = TpchDb::generate(0.01);
        let with_orders: HashSet<i64> = db
            .table(TpchTable::Orders)
            .column_by_name("o_custkey")
            .i64_values()
            .iter()
            .copied()
            .collect();
        let total = db.table(TpchTable::Customer).rows();
        let never = (1..=total as i64)
            .filter(|k| !with_orders.contains(k))
            .count();
        // Customers with custkey % 3 == 0 never order → at least ~1/3.
        assert!(never * 3 >= total, "only {never} of {total} orderless");
    }

    #[test]
    fn extendedprice_follows_retail_price_formula() {
        let db = tiny();
        let li = db.table(TpchTable::Lineitem);
        let qty = li.column_by_name("l_quantity").i64_values();
        let ext = li.column_by_name("l_extendedprice").i64_values();
        let pk = li.column_by_name("l_partkey").i64_values();
        for i in 0..li.rows() {
            assert_eq!(ext[i], qty[i] / 100 * retail_price_cents(pk[i]));
        }
    }

    #[test]
    fn dates_are_consistent() {
        let db = tiny();
        let li = db.table(TpchTable::Lineitem);
        let ship = li.column_by_name("l_shipdate").i64_values();
        let receipt = li.column_by_name("l_receiptdate").i64_values();
        for i in 0..li.rows() {
            assert!(receipt[i] > ship[i]);
        }
        let o = db.table(TpchTable::Orders);
        let lo = date_from_ymd(1992, 1, 1);
        let hi = date_from_ymd(1998, 12, 31);
        for &d in o.column_by_name("o_orderdate").i64_values() {
            assert!((lo..=hi).contains(&d));
        }
    }

    #[test]
    fn order_status_reflects_line_status() {
        let db = tiny();
        let o = db.table(TpchTable::Orders);
        let li = db.table(TpchTable::Lineitem);
        let status = o.column_by_name("o_orderstatus").str_values();
        let l_ok = li.column_by_name("l_orderkey").i64_values();
        let l_st = li.column_by_name("l_linestatus").str_values();
        let mut per_order: std::collections::HashMap<i64, (u32, u32)> = Default::default();
        for (i, &ok) in l_ok.iter().enumerate() {
            let e = per_order.entry(ok).or_default();
            if l_st.get(i) == "O" {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        let keys = o.column_by_name("o_orderkey").i64_values();
        for i in 0..o.rows() {
            let (open, fin) = per_order[&keys[i]];
            let expect = if fin == 0 {
                "O"
            } else if open == 0 {
                "F"
            } else {
                "P"
            };
            assert_eq!(status.get(i), expect);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_factor_rejected() {
        TpchDb::generate(0.0);
    }

    #[test]
    fn partsupp_supplier_formula_stays_in_range() {
        for p in 1..200 {
            for j in 0..4 {
                let s = partsupp_supplier(p, j, 10);
                assert!((1..=10).contains(&s));
            }
        }
    }

    #[test]
    fn table_lookup_by_name() {
        assert_eq!(TpchTable::from_name("lineitem"), Some(TpchTable::Lineitem));
        assert_eq!(TpchTable::from_name("nope"), None);
        assert_eq!(TpchTable::Lineitem.idx(), 7);
    }
}
