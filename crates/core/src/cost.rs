//! The cost model: pricing distributed-plan alternatives.
//!
//! Costs are expressed in **byte-equivalents**: one unit is one byte
//! crossing the network fabric, and per-row CPU work (hash-table builds,
//! aggregation state updates) is charged at fixed byte-equivalent rates.
//! The absolute scale is meaningless; only comparisons between the
//! alternatives of one decision matter, and every decision produces a
//! human-readable rationale that `--explain` surfaces.
//!
//! Four decisions are priced:
//!
//! * **Broadcast vs repartition** for a distributed hash join
//!   ([`CostModel::join_exchange`]): shipping `(n−1)` copies of the build
//!   side (plus the replicated hash-table build every node then performs)
//!   against hash-repartitioning both inputs, with already co-partitioned
//!   sides moving for free.
//! * **Pre-aggregation vs raw reshuffle** for a grouped aggregation
//!   ([`CostModel::pre_aggregation`]): a local partial pass plus a
//!   reshuffle of the (hopefully few) partial states against reshuffling
//!   every input row once — pre-aggregation loses when the group count
//!   approaches the input cardinality.
//! * **Broadcast vs partitioned CTE materialization**
//!   ([`CostModel::cte_placement`]): replicating the temp once against
//!   leaving it partitioned and (likely) re-exchanging it at each of its
//!   downstream consumers.
//! * **Which side of a repartitioned join to filter, if either**
//!   ([`CostModel::join_filter`]): the bytes a Bloom filter over the keys
//!   of the side that runs first keeps the other side's repartition from
//!   shipping, against shipping the filters, testing every row against
//!   them and one more barrier between the nodes. The choice also fixes
//!   which side runs first.

use crate::plan::JoinSide;

/// Estimated width of one row carrying `cols` columns, in bytes. The
/// engine's columns are 8-byte words (ints, dates, floats, scaled
/// decimals); strings are approximated at the same width.
pub fn row_bytes(cols: usize) -> f64 {
    8.0 * cols.max(1) as f64
}

/// CPU charge (byte-equivalents) per row inserted into a hash-join table.
/// Charged once per node that builds the table, which is what makes a
/// broadcast join pay for its replicated builds.
pub const HASH_BUILD_ROW: f64 = 128.0;

/// CPU charge (byte-equivalents) per row folded into an aggregation
/// (group lookup + state update ≈ moving one word).
pub const AGG_ROW: f64 = 8.0;

/// CPU charge (byte-equivalents) per row a repartition tests against a
/// join filter: one more key hash and one word loaded.
pub const BLOOM_TEST_ROW: f64 = 1.0;

/// Bytes a join filter ships per row of the side that runs first: ten
/// bits per key rounded up to a power of two (fifteen on average), and an
/// 8-byte tag beside every 8-byte word.
pub const BLOOM_KEY_BYTES: f64 = 4.0;

/// Charge (byte-equivalents) for a summary round: a barrier at which every
/// node waits for the slowest node's first side, plus one more message
/// latency — on two vCPUs an exchange of a few words takes ~100 µs in
/// process, and longer over loopback sockets.
pub const BLOOM_ROUND: f64 = 32_768.0;

/// One side of a repartitioned join that a filter may go on, as
/// [`CostModel::join_filter`] prices it.
#[derive(Debug, Clone, Copy)]
pub struct FilterOption {
    /// The side to filter; the other one runs first.
    pub side: JoinSide,
    /// Rows its repartition ships.
    pub shipped_rows: f64,
    /// Columns of what it ships.
    pub shipped_cols: usize,
    /// Rows of the side that runs first, whose keys fill the filters.
    pub first_rows: f64,
    /// Fraction of the shipped rows whose key the first side holds.
    pub pass: f64,
}

/// The cost model for one cluster size.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Number of servers the plan runs on.
    pub nodes: f64,
    /// Build sides at or below this row count are always broadcast — the
    /// transfer is negligible and replication keeps the probe side's
    /// partitioning property intact.
    pub broadcast_max_rows: f64,
}

/// One priced decision: the chosen alternative with both costs and a
/// rendered rationale, kept for `--explain`.
#[derive(Debug, Clone)]
pub struct Decision {
    /// What the decision was about (e.g. `join build=orders`).
    pub site: String,
    /// The chosen alternative (e.g. `broadcast`).
    pub chosen: &'static str,
    /// Cost of the chosen alternative, in byte-equivalents.
    pub cost: f64,
    /// Cost of the rejected alternative.
    pub rejected_cost: f64,
    /// Why, in one line.
    pub rationale: String,
}

impl Decision {
    /// Render as one `--explain` line.
    pub fn render(&self) -> String {
        format!("{}: {} ({})", self.site, self.chosen, self.rationale)
    }
}

/// Compact cost rendering for rationale strings (`1.2e6` style).
fn cu(c: f64) -> String {
    if c >= 1e5 {
        format!("{c:.2e}")
    } else {
        format!("{c:.0}")
    }
}

impl CostModel {
    /// A cost model for `nodes` servers.
    pub fn new(nodes: u16, broadcast_max_rows: f64) -> Self {
        Self {
            nodes: f64::from(nodes.max(1)),
            broadcast_max_rows,
        }
    }

    /// Fraction of a hash-repartitioned relation that crosses the network
    /// (each node keeps its local share).
    fn remote_fraction(&self) -> f64 {
        1.0 - 1.0 / self.nodes
    }

    /// Price broadcast vs repartition for a hash join. `*_aligned` marks a
    /// side that is already hash-partitioned compatibly with the join keys
    /// (its repartition is free). Returns `(broadcast, decision)` where
    /// `broadcast` is true when the build side should be replicated.
    #[allow(clippy::too_many_arguments)]
    pub fn join_exchange(
        &self,
        site: impl Into<String>,
        probe_rows: f64,
        probe_cols: usize,
        probe_aligned: bool,
        build_rows: f64,
        build_cols: usize,
        build_aligned: bool,
    ) -> (bool, Decision) {
        let n = self.nodes;
        let build_w = row_bytes(build_cols);
        // Broadcast: ship (n−1) copies of the build side, then every node
        // builds the full hash table instead of 1/n of it.
        let bcast = build_rows * (n - 1.0) * build_w + (n - 1.0) * build_rows * HASH_BUILD_ROW;
        // Repartition: both sides move their remote fraction, unless they
        // are already co-partitioned on the join keys.
        let move_cost = |rows: f64, cols: usize, aligned: bool| {
            if aligned {
                0.0
            } else {
                rows * self.remote_fraction() * row_bytes(cols)
            }
        };
        let repart = move_cost(probe_rows, probe_cols, probe_aligned)
            + move_cost(build_rows, build_cols, build_aligned);
        let tiny = build_rows <= self.broadcast_max_rows;
        let broadcast = tiny || bcast <= repart;
        let decision = Decision {
            site: site.into(),
            chosen: if broadcast {
                "broadcast"
            } else {
                "repartition"
            },
            cost: if broadcast { bcast } else { repart },
            rejected_cost: if broadcast { repart } else { bcast },
            rationale: if tiny {
                format!(
                    "build ~{build_rows:.0} rows ≤ {:.0}-row broadcast threshold",
                    self.broadcast_max_rows
                )
            } else {
                format!(
                    "bcast {} vs repart {} cost, build ~{build_rows:.0}×{build_w:.0}B, \
                     probe ~{probe_rows:.0} rows",
                    cu(bcast),
                    cu(repart),
                )
            },
        };
        (broadcast, decision)
    }

    /// Price pre-aggregation (local partial pass + reshuffle of partial
    /// states + merge) vs a raw reshuffle of the input followed by a
    /// single aggregation. Returns `(pre_aggregate, decision)`.
    pub fn pre_aggregation(
        &self,
        site: impl Into<String>,
        input_rows: f64,
        groups: f64,
        out_cols: usize,
        in_cols: usize,
    ) -> (bool, Decision) {
        let n = self.nodes;
        // Every node can hold at most its input share in partial states.
        let partial_per_node = groups.min(input_rows / n);
        let partial_rows = partial_per_node * n;
        let preagg = input_rows * AGG_ROW                                  // local partial pass
            + partial_rows * self.remote_fraction() * row_bytes(out_cols)  // reshuffle states
            + partial_rows * AGG_ROW; // merge
        let raw = input_rows * self.remote_fraction() * row_bytes(in_cols) // reshuffle input
            + input_rows * AGG_ROW; // aggregate once
        let pre = preagg <= raw;
        let decision = Decision {
            site: site.into(),
            chosen: if pre {
                "pre-aggregate"
            } else {
                "raw reshuffle"
            },
            cost: if pre { preagg } else { raw },
            rejected_cost: if pre { raw } else { preagg },
            rationale: format!(
                "preagg {} vs raw {} cost, ~{groups:.0} groups from ~{input_rows:.0} rows",
                cu(preagg),
                cu(raw),
            ),
        };
        (pre, decision)
    }

    /// Price broadcast vs partitioned materialization of a CTE consumed
    /// `consumers` times downstream. Partitioned materialization is free
    /// now but each consumer will likely re-exchange the temp (repartition
    /// or broadcast it into a join); replicating once amortizes that.
    /// Returns `(broadcast, decision)`.
    pub fn cte_placement(
        &self,
        site: impl Into<String>,
        rows: f64,
        cols: usize,
        consumers: usize,
    ) -> (bool, Decision) {
        let n = self.nodes;
        let w = row_bytes(cols);
        let bcast = rows * (n - 1.0) * w;
        let partitioned = consumers as f64 * rows * self.remote_fraction() * w;
        let tiny = rows <= self.broadcast_max_rows;
        let broadcast = tiny || bcast <= partitioned;
        let decision = Decision {
            site: site.into(),
            chosen: if broadcast {
                "broadcast"
            } else {
                "partitioned"
            },
            cost: if broadcast { bcast } else { partitioned },
            rejected_cost: if broadcast { partitioned } else { bcast },
            rationale: if tiny {
                format!(
                    "~{rows:.0} rows ≤ {:.0}-row broadcast threshold",
                    self.broadcast_max_rows
                )
            } else {
                format!(
                    "bcast {} vs {} consumer re-exchanges {} cost at ~{rows:.0} rows",
                    cu(bcast),
                    consumers,
                    cu(partitioned),
                )
            },
        };
        (broadcast, decision)
    }

    /// Price filtering each side in `options` against filtering neither.
    /// A filter saves the remote share of the bytes its side would ship
    /// for the rows whose key misses, and costs its words on the wire from
    /// every node to every other, a test per shipped row, and one round.
    /// Returns the side to filter, if a filter pays, and the decision.
    pub fn join_filter(
        &self,
        site: impl Into<String>,
        options: &[FilterOption],
    ) -> (Option<JoinSide>, Decision) {
        // Per option: the bytes it saves and what it spends.
        let priced: Vec<(&FilterOption, f64, f64)> = options
            .iter()
            .map(|o| {
                let shipped = o.shipped_rows * self.remote_fraction() * row_bytes(o.shipped_cols);
                let spent = o.first_rows * (self.nodes - 1.0) * BLOOM_KEY_BYTES
                    + o.shipped_rows * BLOOM_TEST_ROW
                    + BLOOM_ROUND;
                (o, shipped * (1.0 - o.pass), spent)
            })
            .collect();
        // Relative to filtering neither side, which costs nothing extra.
        let best = priced
            .iter()
            .map(|&(o, saved, spent)| (o.side, spent - saved))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let chosen = best.filter(|&(_, cost)| cost < 0.0);
        let rationale = priced
            .iter()
            .map(|(o, saved, spent)| {
                format!(
                    "{:?} ~{:.0}×{:.0}B, {:.0}% pass: saves {} for {}",
                    o.side,
                    o.shipped_rows,
                    row_bytes(o.shipped_cols),
                    o.pass * 100.0,
                    cu(*saved),
                    cu(*spent),
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        let decision = Decision {
            site: site.into(),
            chosen: match chosen {
                Some((JoinSide::Probe, _)) => "filter probe",
                Some((JoinSide::Build, _)) => "filter build",
                None => "no filter",
            },
            cost: chosen.map_or(0.0, |(_, cost)| cost),
            rejected_cost: match chosen {
                Some(_) => 0.0,
                None => best.map_or(0.0, |(_, cost)| cost),
            },
            rationale,
        };
        (chosen.map(|(side, _)| side), decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(4, 1_000.0)
    }

    #[test]
    fn tiny_build_sides_always_broadcast() {
        // 25-row build side (nation): broadcast regardless of probe size.
        let (b, d) = model().join_exchange("j", 6e6, 16, false, 25.0, 4, false);
        assert!(b);
        assert!(d.rationale.contains("threshold"));
    }

    #[test]
    fn huge_build_sides_repartition() {
        // Orders (1.5M × 9 cols) into lineitem (6M × 16 cols): replicating
        // the build (and re-building it on every node) costs more than
        // repartitioning both inputs.
        let (b, d) = model().join_exchange("j", 6e6, 16, false, 1.5e6, 9, false);
        assert!(!b, "{}", d.render());
        assert!(d.cost < d.rejected_cost);
    }

    #[test]
    fn mid_size_build_broadcasts_into_a_large_probe() {
        // Supplier (10k × 7) into lineitem (6M × 16): broadcast wins.
        let (b, d) = model().join_exchange("j", 6e6, 16, false, 1e4, 7, false);
        assert!(b, "{}", d.render());
    }

    #[test]
    fn aligned_sides_tilt_toward_repartition() {
        let m = model();
        // Border-ish case: when the probe is already co-partitioned its
        // repartition is free, so the same build side flips to repartition.
        let (unaligned, _) = m.join_exchange("j", 1e5, 16, false, 1e4, 4, false);
        let (aligned, _) = m.join_exchange("j", 1e5, 16, true, 1e4, 4, false);
        assert!(unaligned);
        assert!(!aligned);
    }

    #[test]
    fn few_groups_pre_aggregate_many_groups_reshuffle_raw() {
        let m = model();
        let (pre, d) = m.pre_aggregation("a", 6e6, 4.0, 3, 3);
        assert!(pre, "{}", d.render());
        // Group count ≈ input rows: partial states reduce nothing, the
        // extra local pass is pure overhead.
        let (pre, d) = m.pre_aggregation("a", 6e6, 6e6, 3, 3);
        assert!(!pre, "{}", d.render());
    }

    #[test]
    fn join_filters_pay_where_most_shipped_rows_miss() {
        let m = CostModel::new(2, 1_000.0);
        let option = |side, pass| FilterOption {
            side,
            shipped_rows: 1e5,
            shipped_cols: 3,
            first_rows: 1e4,
            pass,
        };
        // The side whose rows miss more is filtered.
        let (side, d) = m.join_filter(
            "j",
            &[option(JoinSide::Probe, 0.5), option(JoinSide::Build, 0.1)],
        );
        assert_eq!(side, Some(JoinSide::Build), "{}", d.render());
        assert!(d.cost < d.rejected_cost);
        // A filter every row passes saves nothing.
        let (side, d) = m.join_filter("j", &[option(JoinSide::Probe, 1.0)]);
        assert_eq!(side, None, "{}", d.render());
        assert!(d.rationale.contains("100% pass"));
        // Nor does one over a side too small to pay for its round.
        let small = FilterOption {
            shipped_rows: 500.0,
            ..option(JoinSide::Probe, 0.0)
        };
        assert_eq!(m.join_filter("j", &[small]).0, None);
    }

    #[test]
    fn cte_broadcast_scales_with_consumer_count() {
        let m = model();
        // One consumer, large temp: stay partitioned.
        let (b, _) = m.cte_placement("cte", 5e5, 4, 1);
        assert!(!b);
        // Many consumers amortize the replication.
        let (b, d) = m.cte_placement("cte", 5e5, 4, 6);
        assert!(b, "{}", d.render());
        // Tiny temps broadcast regardless.
        let (b, _) = m.cte_placement("cte", 100.0, 4, 1);
        assert!(b);
    }
}
