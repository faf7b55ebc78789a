//! Error type shared by graph construction and mutation APIs.

use std::fmt;

/// Errors raised when building or mutating an [`crate::UncertainGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge probability was outside `[0, 1]` or not finite.
    InvalidProbability {
        /// The offending value.
        prob: f64,
    },
    /// A node id was `>= num_nodes`.
    NodeOutOfBounds {
        /// The offending node index.
        node: u32,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// Attempted to add an edge that already exists (parallel edges are not
    /// supported: the paper's model has at most one edge per ordered pair).
    DuplicateEdge {
        /// Source node index.
        src: u32,
        /// Destination node index.
        dst: u32,
    },
    /// Attempted to add a self-loop, which can never affect reachability.
    SelfLoop {
        /// The node index.
        node: u32,
    },
    /// Attempted to update or delete an edge that does not exist.
    MissingEdge {
        /// Source node index.
        src: u32,
        /// Destination node index.
        dst: u32,
    },
    /// A snapshot holds a retired coin (an edge deleted or re-probed
    /// after the base freeze): its table entry has no arcs, so it has no
    /// live edge to thaw into.
    RetiredCoin {
        /// The retired coin id.
        coin: u32,
    },
    /// The graph is too large for an exact algorithm.
    TooLargeForExact {
        /// Number of undetermined edges.
        edges: usize,
        /// Maximum supported by the solver.
        max: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidProbability { prob } => {
                write!(f, "edge probability {prob} is not in [0, 1]")
            }
            GraphError::NodeOutOfBounds { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of bounds for graph with {num_nodes} nodes"
                )
            }
            GraphError::DuplicateEdge { src, dst } => {
                write!(f, "edge ({src} -> {dst}) already exists")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node} rejected"),
            GraphError::MissingEdge { src, dst } => {
                write!(f, "edge ({src} -> {dst}) does not exist")
            }
            GraphError::RetiredCoin { coin } => write!(
                f,
                "coin {coin} is retired (its edge was deleted or re-probed); \
                 a snapshot with retired coins cannot be thawed"
            ),
            GraphError::TooLargeForExact { edges, max } => {
                write!(
                    f,
                    "{edges} undetermined edges exceed exact-solver limit of {max}"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::InvalidProbability { prob: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = GraphError::NodeOutOfBounds {
            node: 7,
            num_nodes: 3,
        };
        assert!(e.to_string().contains('7') && e.to_string().contains('3'));
        let e = GraphError::DuplicateEdge { src: 1, dst: 2 };
        assert!(e.to_string().contains("1 -> 2"));
        let e = GraphError::SelfLoop { node: 4 };
        assert!(e.to_string().contains('4'));
        let e = GraphError::MissingEdge { src: 3, dst: 5 };
        assert!(e.to_string().contains("3 -> 5"));
        let e = GraphError::TooLargeForExact { edges: 99, max: 30 };
        assert!(e.to_string().contains("99"));
    }
}
