//! Rank tiers (Figure 4: STEK lifetime by Alexa rank). The per-tier CDFs
//! are built by [`TierAcc`](crate::stream::TierAcc).

/// A rank tier: domains with rank ≤ `limit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier {
    /// Human label ("Top 100").
    pub label: &'static str,
    /// Inclusive rank limit.
    pub limit: usize,
}

/// The paper's tiers, trimmed to the population size (a 20 K-domain
/// simulation has no "Top 1M" tier distinct from "Top 20K").
pub fn tiers_for_population(size: usize) -> Vec<Tier> {
    let all = [
        Tier {
            label: "Top 100",
            limit: 100,
        },
        Tier {
            label: "Top 1K",
            limit: 1_000,
        },
        Tier {
            label: "Top 10K",
            limit: 10_000,
        },
        Tier {
            label: "Top 100K",
            limit: 100_000,
        },
        Tier {
            label: "Top 1M",
            limit: 1_000_000,
        },
    ];
    let mut out: Vec<Tier> = all.into_iter().filter(|t| t.limit < size).collect();
    out.push(Tier {
        label: "Whole list",
        limit: size,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_trim_to_population() {
        let t = tiers_for_population(20_000);
        let labels: Vec<&str> = t.iter().map(|x| x.label).collect();
        assert_eq!(labels, vec!["Top 100", "Top 1K", "Top 10K", "Whole list"]);
        assert_eq!(t.last().unwrap().limit, 20_000);
        let t = tiers_for_population(1_000_000);
        assert_eq!(t.len(), 5, "Top 1M collapses into whole-list");
    }
}
