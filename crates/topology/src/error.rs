//! Typed validation errors for topology construction.
//!
//! Degenerate fabrics (zero- or one-wide meshes, rings shorter than three
//! stations, tiles that do not evenly partition the grid, grids of more
//! routers than a 16-bit distance spans) are rejected here
//! with a descriptive error instead of panicking deep inside
//! [`crate::GridGraph::mesh`] or the simulator build.

use std::error::Error;
use std::fmt;

/// A topology that cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A grid dimension was zero.
    ZeroDims {
        /// Requested number of columns.
        width: usize,
        /// Requested number of rows.
        height: usize,
    },
    /// A mesh narrower than 2×2: single-row or single-column "meshes"
    /// degenerate to chains and break XY-routing invariants.
    DegenerateMesh {
        /// Requested number of columns.
        width: usize,
        /// Requested number of rows.
        height: usize,
    },
    /// A ring-mesh tile side below 2, which would give a ring of fewer than
    /// three stations (a ring needs at least 3 nodes to be a ring).
    RingTooSmall {
        /// Requested tile side.
        tile: usize,
    },
    /// Ring-mesh grid dimensions not divisible by the tile side.
    TileMisaligned {
        /// Grid columns.
        width: usize,
        /// Grid rows.
        height: usize,
        /// Requested tile side.
        tile: usize,
    },
    /// More routers than [`crate::FabricSpec::MAX_ROUTERS`]: distances are
    /// two bytes wide and coordinates `u16`.
    TooManyRouters {
        /// Routers the fabric would have.
        routers: usize,
        /// The most a fabric may have.
        limit: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::ZeroDims { width, height } => {
                write!(f, "grid dimensions must be non-zero (got {width}x{height})")
            }
            Self::DegenerateMesh { width, height } => write!(
                f,
                "mesh must be at least 2x2 (got {width}x{height}); \
                 1-wide grids degenerate to chains"
            ),
            Self::RingTooSmall { tile } => write!(
                f,
                "ring-mesh tile side must be at least 2 (got {tile}); \
                 a ring needs at least 3 stations"
            ),
            Self::TileMisaligned { width, height, tile } => write!(
                f,
                "ring-mesh grid {width}x{height} is not divisible into {tile}x{tile} tiles"
            ),
            Self::TooManyRouters { routers, limit } => write!(
                f,
                "a fabric of {routers} routers exceeds the limit of {limit} \
                 (distances are 16-bit)"
            ),
        }
    }
}

impl Error for TopologyError {}
