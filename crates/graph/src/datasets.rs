//! The paper's five evaluation datasets (Table 1), reproduced as synthetic
//! families at a configurable scale.
//!
//! | Dataset    | Category       | paper \|V\| | paper \|E\| | \|E\|/\|V\| |
//! |------------|----------------|-------------|-------------|-------------|
//! | uk-2002    | Web            | 18.5M       | 298M        | 16.1        |
//! | brain      | Biology        | 784K        | 267M        | 683         |
//! | ljournal   | Social Network | 5.3M        | 79M         | 14.9        |
//! | twitter    | Social Network | 41.6M       | 1.46B       | 35.1        |
//! | friendster | Social Network | 65.6M       | 1.81B       | 27.5        |
//!
//! The default scale shrinks node counts by ~400× (and brain's density by
//! ~4×) so the whole evaluation suite runs on a laptop; relative densities
//! and skew across the datasets are preserved, which is what the paper's
//! per-dataset analysis rests on.

use crate::csr::Csr;
use crate::gen::{brain_graph, social_graph, web_graph, SocialParams};

/// The five evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// `uk-2002`: .uk web crawl — regular hierarchy, high id locality.
    Uk2002,
    /// `brain`: human-brain connectome — extremely dense, near-uniform.
    Brain,
    /// `ljournal`: LiveJournal friendships — mildly skewed social graph.
    Ljournal,
    /// `twitter`: follower graph — extreme skew, super-nodes (§7.3).
    Twitter,
    /// `friendster`: gaming social network — large, moderately skewed.
    Friendster,
}

impl Dataset {
    /// All five datasets in the paper's presentation order.
    pub const ALL: [Dataset; 5] = [
        Dataset::Uk2002,
        Dataset::Brain,
        Dataset::Ljournal,
        Dataset::Twitter,
        Dataset::Friendster,
    ];

    /// The paper's name for the dataset.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Uk2002 => "uk-2002",
            Dataset::Brain => "brain",
            Dataset::Ljournal => "ljournal",
            Dataset::Twitter => "twitter",
            Dataset::Friendster => "friendster",
        }
    }

    /// Category column of Table 1.
    #[must_use]
    pub fn category(&self) -> &'static str {
        match self {
            Dataset::Uk2002 => "Web",
            Dataset::Brain => "Biology",
            _ => "Social Network",
        }
    }

    /// Generate the dataset at `scale` (1.0 = default laptop scale;
    /// 0.1 = ten times smaller, used by tests).
    ///
    /// # Panics
    /// Panics if `scale` is not positive and finite.
    #[must_use]
    pub fn generate(&self, scale: f64) -> Csr {
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        let sz = |base: usize| ((base as f64 * scale) as usize).max(64);
        match self {
            Dataset::Uk2002 => web_graph(sz(46_000), 8.0, 0x2002),
            Dataset::Brain => brain_graph(sz(3_400), 150.0, 0xb8a1),
            Dataset::Ljournal => social_graph(&SocialParams {
                nodes: sz(13_000),
                avg_deg: 7.5,
                alpha: 2.3,
                max_deg_frac: 0.02,
                p_intra: 0.7,
                community_size: 48,
                scramble: true,
                seed: 0x1511,
            }),
            Dataset::Twitter => social_graph(&SocialParams {
                nodes: sz(50_000),
                avg_deg: 17.0,
                alpha: 1.85,
                max_deg_frac: 0.15,
                p_intra: 0.55,
                community_size: 96,
                scramble: true,
                seed: 0x7717,
            }),
            Dataset::Friendster => social_graph(&SocialParams {
                nodes: sz(64_000),
                avg_deg: 14.0,
                alpha: 2.15,
                max_deg_frac: 0.03,
                p_intra: 0.7,
                community_size: 64,
                scramble: true,
                seed: 0xf123,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn all_datasets_generate_valid_graphs_at_test_scale() {
        for d in Dataset::ALL {
            let g = d.generate(0.05);
            assert!(g.validate().is_ok(), "{} invalid", d.name());
            assert!(g.num_edges() > 0, "{} empty", d.name());
        }
    }

    #[test]
    fn relative_densities_match_table1() {
        // 0.1 scale: small lattice clipping shrinks brain's density a bit,
        // so thresholds are looser than the full-scale ratios.
        let uk = GraphStats::compute(&Dataset::Uk2002.generate(0.1));
        let brain = GraphStats::compute(&Dataset::Brain.generate(0.1));
        let lj = GraphStats::compute(&Dataset::Ljournal.generate(0.1));
        let tw = GraphStats::compute(&Dataset::Twitter.generate(0.1));
        // brain is by far the densest
        assert!(brain.avg_degree > 2.5 * uk.avg_degree);
        assert!(brain.avg_degree > 2.5 * tw.avg_degree);
        // twitter denser than ljournal
        assert!(tw.avg_degree > lj.avg_degree);
    }

    #[test]
    fn twitter_is_most_skewed_social_graph() {
        let tw = GraphStats::compute(&Dataset::Twitter.generate(0.05));
        let lj = GraphStats::compute(&Dataset::Ljournal.generate(0.05));
        let fr = GraphStats::compute(&Dataset::Friendster.generate(0.05));
        assert!(
            tw.degree_cv > lj.degree_cv,
            "twitter {} vs ljournal {}",
            tw.degree_cv,
            lj.degree_cv
        );
        assert!(
            tw.degree_cv > fr.degree_cv,
            "twitter {} vs friendster {}",
            tw.degree_cv,
            fr.degree_cv
        );
    }

    #[test]
    fn brain_is_most_regular() {
        let brain = GraphStats::compute(&Dataset::Brain.generate(0.05));
        for d in [Dataset::Ljournal, Dataset::Twitter, Dataset::Friendster] {
            let s = GraphStats::compute(&d.generate(0.05));
            assert!(brain.degree_cv < s.degree_cv, "brain vs {}", d.name());
        }
    }

    #[test]
    fn names_and_categories() {
        assert_eq!(Dataset::Uk2002.name(), "uk-2002");
        assert_eq!(Dataset::Brain.category(), "Biology");
        assert_eq!(Dataset::Twitter.category(), "Social Network");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_scale_rejected() {
        let _ = Dataset::Brain.generate(0.0);
    }
}
