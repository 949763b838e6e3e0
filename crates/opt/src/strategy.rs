//! The index-configuration menu: the paper's seven concrete strategies
//! plus the `Auto` pseudo-strategy the cost model resolves.
//!
//! The enum lives in this crate (not in `xtwig-core`) because strategy
//! *choice* is the decision layer's vocabulary: the cost model ranks
//! [`Strategy`] values, and core re-exports the type so every existing
//! `xtwig_core::Strategy` path keeps working.

use std::fmt;

/// The seven index configurations of the paper's evaluation, plus
/// [`Strategy::Auto`] — "let the optimizer pick among the built ones".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// ROOTPATHS (RP).
    RootPaths,
    /// DATAPATHS (DP).
    DataPaths,
    /// Edge table with value/link indexes.
    Edge,
    /// Simulated DataGuide + Edge indexes (DG+Edge).
    DataGuideEdge,
    /// Simulated Index Fabric + Edge indexes (IF+Edge).
    IndexFabricEdge,
    /// Access Support Relations.
    Asr,
    /// Join Indices (+ Edge value index for constants).
    JoinIndex,
    /// Cost-based selection: the engine ranks the built configurations
    /// with the optimizer and executes the cheapest. Never a member of
    /// [`Strategy::ALL`] — it always resolves to a concrete strategy
    /// before any index is touched.
    Auto,
}

impl Strategy {
    /// All *concrete* strategies in the paper's reporting order
    /// ([`Strategy::Auto`] is a selection directive, not a
    /// configuration, and is deliberately excluded).
    pub const ALL: [Strategy; 7] = [
        Strategy::RootPaths,
        Strategy::DataPaths,
        Strategy::Edge,
        Strategy::DataGuideEdge,
        Strategy::IndexFabricEdge,
        Strategy::Asr,
        Strategy::JoinIndex,
    ];

    /// The paper's abbreviation (`auto` for the pseudo-strategy).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::RootPaths => "RP",
            Strategy::DataPaths => "DP",
            Strategy::Edge => "Edge",
            Strategy::DataGuideEdge => "DG+Edge",
            Strategy::IndexFabricEdge => "IF+Edge",
            Strategy::Asr => "ASR",
            Strategy::JoinIndex => "JI",
            Strategy::Auto => "auto",
        }
    }

    /// True for [`Strategy::Auto`].
    pub fn is_auto(&self) -> bool {
        matches!(self, Strategy::Auto)
    }

    /// The structures this strategy reads, its own first: DG+Edge,
    /// IF+Edge and JI also read Edge. A strategy is built when all of
    /// them are; [`Strategy::Auto`] owns none.
    pub fn structures(&self) -> &'static [Structure] {
        match self {
            Strategy::RootPaths => &[Structure::RootPaths],
            Strategy::DataPaths => &[Structure::DataPaths],
            Strategy::Edge => &[Structure::Edge],
            Strategy::DataGuideEdge => &[Structure::DataGuide, Structure::Edge],
            Strategy::IndexFabricEdge => &[Structure::IndexFabric, Structure::Edge],
            Strategy::Asr => &[Structure::Asr],
            Strategy::JoinIndex => &[Structure::JoinIndex, Structure::Edge],
            Strategy::Auto => &[],
        }
    }
}

/// One of the seven physical structures the strategies read (see
/// [`Strategy::structures`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Structure {
    /// The ROOTPATHS B+-tree.
    RootPaths,
    /// The DATAPATHS B+-tree.
    DataPaths,
    /// The Edge table with its value and link indexes.
    Edge,
    /// The simulated DataGuide.
    DataGuide,
    /// The simulated Index Fabric.
    IndexFabric,
    /// The Access Support Relations.
    Asr,
    /// The Join Index table pairs.
    JoinIndex,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // pad() (not write_str) so callers' width/alignment flags work.
        f.pad(self.label())
    }
}

/// Error for `Strategy::from_str`: the string names no known strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError(pub String);

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown strategy {:?} (expected one of RP, DP, Edge, DG+Edge, IF+Edge, ASR, JI, \
             or auto)",
            self.0
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for Strategy {
    type Err = ParseStrategyError;

    /// Parses the paper's reporting-order abbreviations (`RP`, `DP`,
    /// `Edge`, `DG+Edge`, `IF+Edge`, `ASR`, `JI`) case-insensitively,
    /// the long-form aliases the CLI historically accepted, and `auto`
    /// for cost-based selection.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_uppercase().as_str() {
            "RP" | "ROOTPATHS" => Ok(Strategy::RootPaths),
            "DP" | "DATAPATHS" => Ok(Strategy::DataPaths),
            "EDGE" => Ok(Strategy::Edge),
            "DG" | "DG+EDGE" | "DATAGUIDE" => Ok(Strategy::DataGuideEdge),
            "IF" | "IF+EDGE" | "FABRIC" => Ok(Strategy::IndexFabricEdge),
            "ASR" => Ok(Strategy::Asr),
            "JI" | "JOININDEX" => Ok(Strategy::JoinIndex),
            "AUTO" => Ok(Strategy::Auto),
            _ => Err(ParseStrategyError(s.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_fromstr() {
        for s in Strategy::ALL {
            assert_eq!(s.label().parse::<Strategy>(), Ok(s));
            assert_eq!(s.label().to_lowercase().parse::<Strategy>(), Ok(s));
            assert!(!s.is_auto());
        }
        assert_eq!("auto".parse::<Strategy>(), Ok(Strategy::Auto));
        assert_eq!("AUTO".parse::<Strategy>(), Ok(Strategy::Auto));
        assert!(Strategy::Auto.is_auto());
    }

    #[test]
    fn auto_is_not_a_concrete_strategy() {
        assert!(!Strategy::ALL.contains(&Strategy::Auto));
    }

    #[test]
    fn parse_error_enumerates_every_valid_name() {
        let msg = "nope".parse::<Strategy>().unwrap_err().to_string();
        for s in Strategy::ALL {
            assert!(msg.contains(s.label()), "{msg:?} must name {}", s.label());
        }
        assert!(msg.contains("auto"), "{msg:?} must name auto");
    }
}
