//! Node ids shared by the WAN model and the TE layers.

use serde::{Deserialize, Serialize};

/// Index of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);
