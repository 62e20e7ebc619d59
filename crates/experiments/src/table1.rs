//! Table 1 — software-controlled thread priorities: level, name,
//! privilege, or-nop encoding.
//!
//! This artifact is structural: the experiment renders the table from the
//! implementation ([`p5_isa::PRIORITY_TABLE`]) and cross-checks it against
//! the paper's rows, which are hard-coded here verbatim.

use crate::report::TextTable;
use p5_isa::{Priority, PrivilegeLevel, PRIORITY_TABLE};

/// The paper's Table 1 rows: `(level, name, privilege, or-nop text)`.
pub const PAPER_TABLE1: [(u8, &str, &str, &str); 8] = [
    (0, "thread shut off", "hypervisor", "-"),
    (1, "very low", "supervisor", "or 31,31,31"),
    (2, "low", "user", "or 1,1,1"),
    (3, "medium-low", "user", "or 6,6,6"),
    (4, "medium", "user", "or 2,2,2"),
    (5, "medium-high", "supervisor", "or 5,5,5"),
    (6, "high", "supervisor", "or 3,3,3"),
    (7, "very high", "hypervisor", "or 7,7,7"),
];

/// Result of the Table 1 check.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Rendered rows: `(level, name, privilege, or-nop)`.
    pub rows: Vec<(u8, String, String, String)>,
    /// Whether every implementation row matches the paper.
    pub matches_paper: bool,
}

impl Table1Result {
    /// Renders the table alongside the match verdict.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "priority".into(),
            "priority level".into(),
            "privilege level".into(),
            "or-nop inst.".into(),
        ]);
        for (level, name, privilege, nop) in &self.rows {
            t.row(vec![
                level.to_string(),
                name.clone(),
                privilege.clone(),
                nop.clone(),
            ]);
        }
        format!(
            "Table 1 — software-controlled thread priorities\n{}\nmatches paper: {}\n",
            t.render(),
            self.matches_paper
        )
    }
}

/// Builds Table 1 from the implementation and verifies it against the
/// paper's rows.
#[must_use]
pub fn run() -> Table1Result {
    let rows: Vec<(u8, String, String, String)> = PRIORITY_TABLE
        .iter()
        .map(|(p, name, privilege, nop)| {
            (
                p.level(),
                (*name).to_string(),
                privilege.to_string(),
                nop.map_or_else(|| "-".to_string(), |n| n.to_string()),
            )
        })
        .collect();

    let matches_paper = rows.iter().zip(PAPER_TABLE1.iter()).all(
        |((level, name, privilege, nop), (pl, pn, pp, pnop))| {
            level == pl && name == pn && privilege == pp && nop == pnop
        },
    ) && user_settable_is_2_3_4();

    Table1Result {
        rows,
        matches_paper,
    }
}

/// Paper Section 3.2: "user software can only set priority 2, 3 and 4".
fn user_settable_is_2_3_4() -> bool {
    let settable: Vec<u8> = Priority::ALL
        .into_iter()
        .filter(|p| p.settable_by(PrivilegeLevel::User))
        .map(Priority::level)
        .collect();
    settable == [2, 3, 4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implementation_matches_paper_table1() {
        let r = run();
        assert!(r.matches_paper);
        assert_eq!(r.rows.len(), 8);
    }

    #[test]
    fn render_contains_all_levels() {
        let s = run().render();
        for (level, name, _, nop) in PAPER_TABLE1 {
            assert!(s.contains(&level.to_string()));
            assert!(s.contains(name));
            assert!(s.contains(nop));
        }
        assert!(s.contains("matches paper: true"));
    }
}
