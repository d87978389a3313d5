//! [`TechniqueEntry`]: the one declaration of a technique's Table 2 row
//! (name, classification, patterns, citations), and the renderer that
//! regenerates the paper's Table 2 from those rows.

use std::fmt;

use crate::taxonomy::{ArchitecturalPattern, Classification};

/// A technique's Table 2 row: each technique module declares one as its
/// `ENTRY` const, and the Table 2 regenerator reads them without
/// instantiating any technique.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechniqueEntry {
    /// Table 2 row label.
    pub name: &'static str,
    /// Taxonomy classification.
    pub classification: Classification,
    /// Architectural patterns instantiated.
    pub patterns: &'static [ArchitecturalPattern],
    /// Key citations.
    pub citations: &'static [&'static str],
}

impl fmt::Display for TechniqueEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.classification)
    }
}

/// Renders entries as the paper's Table 2 (fixed-width text).
#[must_use]
pub fn render_table2(entries: &[TechniqueEntry]) -> String {
    let headers = ["Technique", "Intention", "Type", "Adjudicator", "Faults"];
    let rows: Vec<[String; 5]> = entries
        .iter()
        .map(|e| {
            [
                e.name.to_owned(),
                e.classification.intention.to_string(),
                e.classification.redundancy.to_string(),
                e.classification.adjudication.to_string(),
                e.classification.faults.to_string(),
            ]
        })
        .collect();
    let mut widths = headers.map(str::len);
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String; 5]| {
        for (i, (cell, w)) in cells.iter().zip(widths.iter()).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            out.extend(std::iter::repeat_n(' ', w - cell.len()));
        }
        // Trim trailing padding on the last column.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    write_row(&mut out, &headers.map(str::to_owned));
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.extend(std::iter::repeat_n('-', total));
    out.push('\n');
    for row in &rows {
        write_row(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::{Adjudication, FaultSet, Intention, RedundancyType};

    fn sample_entry() -> TechniqueEntry {
        TechniqueEntry {
            name: "N-version programming",
            classification: Classification::new(
                Intention::Deliberate,
                RedundancyType::Code,
                Adjudication::ReactiveImplicit,
                FaultSet::DEVELOPMENT,
            ),
            patterns: &[ArchitecturalPattern::ParallelEvaluation],
            citations: &["Avizienis 1985"],
        }
    }

    #[test]
    fn entry_display() {
        let e = sample_entry();
        assert_eq!(
            e.to_string(),
            "N-version programming: deliberate / code / reactive implicit / development"
        );
    }

    #[test]
    fn table_contains_all_rows_and_headers() {
        let table = render_table2(&[sample_entry()]);
        assert!(table.contains("Technique"));
        assert!(table.contains("Adjudicator"));
        assert!(table.contains("N-version programming"));
        assert!(table.contains("reactive implicit"));
        assert!(table.contains("development"));
    }

    #[test]
    fn table_rows_are_aligned() {
        let other = TechniqueEntry {
            name: "Rejuvenation",
            classification: Classification::new(
                Intention::Deliberate,
                RedundancyType::Environment,
                Adjudication::Preventive,
                FaultSet::HEISENBUGS,
            ),
            patterns: &[],
            citations: &[],
        };
        let table = render_table2(&[sample_entry(), other]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4); // header, rule, 2 rows
                                    // Column 2 ("Intention") starts at the same offset in every row.
        let header_off = lines[0].find("Intention").unwrap();
        assert_eq!(&lines[2][header_off..header_off + 10], "deliberate");
        assert_eq!(&lines[3][header_off..header_off + 10], "deliberate");
    }
}
