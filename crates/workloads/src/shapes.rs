//! Table II: the small/medium/large test matrices A–F.

use serde::{Deserialize, Serialize};

/// One labeled test shape from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableIiShape {
    /// Label `A`–`F`.
    pub label: char,
    /// Rows of `A` / `C`.
    pub m: usize,
    /// Columns of `B` / `C`.
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
}

impl TableIiShape {
    /// The size class Table II assigns the shape.
    pub fn size_class(&self) -> &'static str {
        match self.label {
            'A' | 'B' => "small",
            'C' | 'D' => "medium",
            _ => "large",
        }
    }
}

/// Table II verbatim.
pub fn table_ii() -> [TableIiShape; 6] {
    [
        TableIiShape {
            label: 'A',
            m: 512,
            n: 512,
            k: 512,
        },
        TableIiShape {
            label: 'B',
            m: 512,
            n: 1024,
            k: 1024,
        },
        TableIiShape {
            label: 'C',
            m: 512,
            n: 2048,
            k: 2048,
        },
        TableIiShape {
            label: 'D',
            m: 1024,
            n: 2048,
            k: 2048,
        },
        TableIiShape {
            label: 'E',
            m: 2048,
            n: 4096,
            k: 4096,
        },
        TableIiShape {
            label: 'F',
            m: 4096,
            n: 4096,
            k: 4096,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_matches_paper() {
        let t = table_ii();
        assert_eq!(t.len(), 6);
        assert_eq!((t[0].m, t[0].n, t[0].k), (512, 512, 512));
        assert_eq!((t[3].m, t[3].n, t[3].k), (1024, 2048, 2048));
        assert_eq!((t[5].m, t[5].n, t[5].k), (4096, 4096, 4096));
        let labels: Vec<char> = t.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!['A', 'B', 'C', 'D', 'E', 'F']);
    }

    #[test]
    fn size_classes() {
        let t = table_ii();
        assert_eq!(t[0].size_class(), "small");
        assert_eq!(t[1].size_class(), "small");
        assert_eq!(t[2].size_class(), "medium");
        assert_eq!(t[3].size_class(), "medium");
        assert_eq!(t[4].size_class(), "large");
        assert_eq!(t[5].size_class(), "large");
    }
}
