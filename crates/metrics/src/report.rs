//! Aggregated cost reports and plain-text table rendering.
//!
//! The benchmark harness prints the paper's tables with [`Table`]; protocol
//! runners return [`CostReport`]s aggregating per-party [`PartyCost`]s.

use std::fmt;

use crate::counters::CostSnapshot;

/// The measured cost of one party in one protocol execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PartyCost {
    /// The party's identifier (1-based, matching the paper's `P_1..P_n`).
    pub party: usize,
    /// Counter deltas attributed to this party.
    pub cost: CostSnapshot,
}

/// Communication statistics of a whole protocol execution.
///
/// Serialized inside the beacon snapshot, whose layout `dprbg-beacon`'s
/// golden-image test pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CommStats {
    /// Total messages sent by all parties.
    pub messages: u64,
    /// Total payload bytes sent by all parties.
    pub bytes: u64,
    /// Number of synchronous rounds the execution took.
    pub rounds: u64,
}

/// The aggregated cost of a protocol execution across all parties.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CostReport {
    /// Per-party costs, ordered by party id.
    pub per_party: Vec<PartyCost>,
    /// Whole-execution communication totals.
    pub comm: CommStats,
}

impl CostReport {
    /// Build a report from per-party snapshots (1-based ids assigned in
    /// order); communication totals are summed from the snapshots, and the
    /// round count is the maximum any party observed.
    pub fn from_snapshots<I: IntoIterator<Item = CostSnapshot>>(snaps: I) -> Self {
        let mut per_party = Vec::new();
        let mut comm = CommStats::default();
        for (i, cost) in snaps.into_iter().enumerate() {
            comm.messages += cost.messages;
            comm.bytes += cost.bytes;
            comm.rounds = comm.rounds.max(cost.rounds);
            per_party.push(PartyCost { party: i + 1, cost });
        }
        CostReport { per_party, comm }
    }

    /// Sum of all parties' computation/communication counters.
    pub fn total(&self) -> CostSnapshot {
        self.per_party
            .iter()
            .fold(CostSnapshot::default(), |acc, p| acc.plus(&p.cost))
    }

    /// The maximum per-party cost (the paper usually states "per player"
    /// bounds, which are worst-case over players).
    pub fn max_party(&self) -> CostSnapshot {
        let mut best = CostSnapshot::default();
        for p in &self.per_party {
            if p.cost.field_adds + p.cost.field_muls > best.field_adds + best.field_muls {
                best = p.cost;
            }
        }
        best
    }

    /// Merge another execution's report into this one (summing party-wise;
    /// both reports must cover the same number of parties).
    ///
    /// # Panics
    ///
    /// Panics if the reports have different party counts.
    pub fn merge(&mut self, other: &CostReport) {
        assert_eq!(
            self.per_party.len(),
            other.per_party.len(),
            "cannot merge reports over different party sets"
        );
        for (a, b) in self.per_party.iter_mut().zip(&other.per_party) {
            a.cost = a.cost.plus(&b.cost);
        }
        self.comm.messages += other.comm.messages;
        self.comm.bytes += other.comm.bytes;
        self.comm.rounds += other.comm.rounds;
    }
}

/// One row of a rendered experiment table: a label plus one value per column.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Row label (e.g. a parameter setting such as `M=256`).
    pub label: String,
    /// Cell values, one per column of the owning [`Table`].
    pub values: Vec<String>,
}

/// A plain-text table in the style of the paper's stated-cost comparisons.
///
/// # Examples
///
/// ```
/// use dprbg_metrics::Table;
/// let mut t = Table::new("E0: demo", &["adds", "msgs"]);
/// t.row("n=4", &["12".into(), "8".into()]);
/// let s = t.render();
/// assert!(s.contains("n=4"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<TableRow>,
}

impl Table {
    /// Create an empty table with a title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of columns.
    pub fn row(&mut self, label: &str, values: &[String]) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push(TableRow {
            label: label.to_string(),
            values: values.to_vec(),
        });
    }

    /// Render the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = Vec::with_capacity(self.columns.len() + 1);
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once(0))
            .max()
            .unwrap_or(0)
            .max(4);
        widths.push(label_w);
        for (i, col) in self.columns.iter().enumerate() {
            let w = self
                .rows
                .iter()
                .map(|r| r.values[i].len())
                .chain(std::iter::once(col.len()))
                .max()
                .unwrap_or(col.len());
            widths.push(w);
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<w$}", "", w = widths[0]));
        for (i, col) in self.columns.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", col, w = widths[i + 1]));
        }
        out.push('\n');
        let total_w: usize = widths.iter().sum::<usize>() + 2 * self.columns.len();
        out.push_str(&"-".repeat(total_w));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:<w$}", r.label, w = widths[0]));
            for (i, v) in r.values.iter().enumerate() {
                out.push_str(&format!("  {:>w$}", v, w = widths[i + 1]));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(adds: u64, msgs: u64, bytes: u64, rounds: u64) -> CostSnapshot {
        CostSnapshot {
            field_adds: adds,
            messages: msgs,
            bytes,
            rounds,
            ..Default::default()
        }
    }

    #[test]
    fn report_aggregates_comm() {
        let r = CostReport::from_snapshots(vec![snap(5, 2, 20, 3), snap(7, 1, 10, 3)]);
        assert_eq!(r.comm.messages, 3);
        assert_eq!(r.comm.bytes, 30);
        assert_eq!(r.comm.rounds, 3);
        assert_eq!(r.total().field_adds, 12);
        assert_eq!(r.per_party[1].party, 2);
    }

    #[test]
    fn max_party_picks_heaviest() {
        let r = CostReport::from_snapshots(vec![snap(5, 0, 0, 0), snap(9, 0, 0, 0)]);
        assert_eq!(r.max_party().field_adds, 9);
    }

    #[test]
    fn merge_sums_partywise() {
        let mut a = CostReport::from_snapshots(vec![snap(1, 1, 8, 2), snap(2, 0, 0, 2)]);
        let b = CostReport::from_snapshots(vec![snap(10, 1, 8, 1), snap(20, 0, 0, 1)]);
        a.merge(&b);
        assert_eq!(a.per_party[0].cost.field_adds, 11);
        assert_eq!(a.per_party[1].cost.field_adds, 22);
        assert_eq!(a.comm.rounds, 3);
    }

    #[test]
    #[should_panic(expected = "different party sets")]
    fn merge_rejects_mismatched_sizes() {
        let mut a = CostReport::from_snapshots(vec![snap(1, 0, 0, 0)]);
        let b = CostReport::from_snapshots(vec![snap(1, 0, 0, 0), snap(2, 0, 0, 0)]);
        a.merge(&b);
    }

    #[test]
    fn table_renders_all_cells() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row("r1", &["1".into(), "22".into()]);
        t.row("row2", &["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("r1"));
        assert!(s.contains("333"));
        assert!(s.contains("22"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_row() {
        let mut t = Table::new("demo", &["a"]);
        t.row("r", &["1".into(), "2".into()]);
    }
}
