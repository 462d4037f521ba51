//! Workload scaling for the experiment engine.
//!
//! Every registered experiment runs at a [`Scale`] that
//! trades sample counts against wall-clock: `quick` for CI smoke,
//! `default` for interactive runs, `full` for paper-scale sample counts
//! where software emulation permits. The `compstat` CLI spells `full`
//! as `paper`, matching what the scale reproduces.

/// Experiment scale, selected by the CLI's `--scale` flag (`quick` /
/// `default` / `paper`; [`Scale::Default`] when absent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for CI smoke tests (seconds for the whole suite).
    Quick,
    /// Sizes that keep each bench under about a minute.
    Default,
    /// Paper-scale sample counts where software emulation permits.
    Full,
}

impl Scale {
    /// Parses a scale name: `quick`, `default`, `full`, or the CLI
    /// spelling `paper` (an alias for `full`). Returns `None` for
    /// anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "full" | "paper" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The canonical name (`quick` / `default` / `full`), as emitted in
    /// JSON reports.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    /// Picks a size by scale.
    #[must_use]
    pub fn pick(&self, quick: usize, default: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn parse_accepts_the_cli_spellings() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("paper"), Some(Scale::Full));
        assert_eq!(Scale::parse("warp"), None);
    }

    #[test]
    fn as_str_round_trips() {
        for s in [Scale::Quick, Scale::Default, Scale::Full] {
            assert_eq!(Scale::parse(s.as_str()), Some(s));
        }
    }
}
