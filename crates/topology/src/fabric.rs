//! Pluggable base fabrics: the physical wire topology beneath the RF overlay.
//!
//! The paper evaluates a single 10×10 mesh (§3.1), but the RF-I overlay is
//! topology-agnostic: shortcuts, shortest-path tables, and the escape-VC
//! deadlock argument only require a connected base fabric with a
//! deadlock-free base route. [`FabricSpec`] makes the fabric a first-class
//! dimension with two implementations:
//!
//! * [`FabricSpec::Mesh`] — the paper's 2D mesh; base routes are XY
//!   (dimension-order), port slots are N/S/E/W.
//! * [`FabricSpec::RingMesh`] — the hierarchical ring-mesh hybrid of
//!   Mazumdar & Scionti ("Ring-Mesh: A Scalable and High-Performance
//!   Approach for Manycore Accelerators"): the grid is partitioned into
//!   `tile×tile` blocks whose cells form a local ring (stations are
//!   two-ported, after Wu's ring-router microarchitecture), and the ring
//!   gateways form a coarser mesh between tiles.
//!
//! # Port-slot contract
//!
//! Every router exposes *base slots* `0..base_slot_count(r)`; slot meanings
//! are fabric-defined but stable, and [`FabricSpec::port_neighbor`] maps a
//! slot to the neighbouring router (or `None` for a grid-boundary slot).
//! The simulator appends two virtual slots after the base slots — local
//! injection/ejection and the RF overlay port — so a mesh router has the
//! paper's six ports while a ring station has four.
//!
//! # Base routes and deadlock freedom
//!
//! The base route is the escape route used by the reserved escape VCs: XY
//! on the mesh; on the ring-mesh it walks the local chain *down* to the
//! gateway, XY across the gateway mesh, then *up* the chain to the
//! destination station. The chain walk never crosses the ring's wrap edge,
//! so the route classes (down < mesh-X < mesh-Y < up) are acyclic and the
//! escape network is deadlock-free; wrap edges carry only adaptive traffic,
//! which can always fall back to the escape VCs.
//!
//! The route is stated once, as a closed form over two routers' places in
//! the fabric (`Spot::base_slot_toward`, `Spot::base_hops_to`):
//! [`FabricSpec::base_port`], [`FabricSpec::base_route_len`] and
//! [`FabricSpec::base_next_hop`] evaluate it pair by pair, and
//! [`BaseRoutes`] evaluates it over one array of every router's place.

use crate::error::TopologyError;
use crate::geom::GridDims;
use crate::graph::NodeId;
use std::fmt;

/// A base fabric: dimensions plus the wiring pattern between routers.
///
/// Construct with [`FabricSpec::mesh`] or [`FabricSpec::ring_mesh`], then
/// [`FabricSpec::validate`] before building networks; validation rejects
/// degenerate topologies with a typed [`TopologyError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricSpec {
    /// The paper's 2D mesh: every router links to its N/S/E/W neighbours.
    Mesh {
        /// Grid dimensions.
        dims: GridDims,
    },
    /// Hierarchical ring-mesh: `tile×tile` blocks of ring stations, with
    /// the per-tile gateway routers forming a coarser inter-tile mesh.
    RingMesh {
        /// Grid dimensions (must be divisible by `tile`).
        dims: GridDims,
        /// Side of the square tile; the local ring has `tile²` stations.
        tile: usize,
    },
}

/// Base-slot indices on a mesh router (the sim's historical port order).
pub const SLOT_N: u8 = 0;
/// South mesh slot.
pub const SLOT_S: u8 = 1;
/// East mesh slot.
pub const SLOT_E: u8 = 2;
/// West mesh slot.
pub const SLOT_W: u8 = 3;

/// Ring-station slot toward the previous station on the ring (lower snake
/// index; the wrap edge for the gateway).
pub const SLOT_RING_PREV: u8 = 0;
/// Ring-station slot toward the next station on the ring.
pub const SLOT_RING_NEXT: u8 = 1;

impl FabricSpec {
    /// The most routers a fabric may have. A distance is stored in two
    /// bytes with `u16::MAX` marking an unreachable pair, and a shortest
    /// path over `n` routers is at most `n − 1` hops, so up to 65,535
    /// routers every finite distance stays below the sentinel and a
    /// saturating sum never wins a `min`. It also keeps every grid side
    /// inside the `u16` of a [`crate::Coord`].
    pub const MAX_ROUTERS: usize = u16::MAX as usize;

    /// A mesh fabric over `dims`.
    pub fn mesh(dims: GridDims) -> Self {
        Self::Mesh { dims }
    }

    /// A ring-mesh fabric over `dims` with `tile×tile` ring tiles.
    pub fn ring_mesh(dims: GridDims, tile: usize) -> Self {
        Self::RingMesh { dims, tile }
    }

    /// Checks the fabric for degenerate parameters and for more than
    /// [`FabricSpec::MAX_ROUTERS`] routers.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let routers = self.nodes();
        if routers > Self::MAX_ROUTERS {
            return Err(TopologyError::TooManyRouters { routers, limit: Self::MAX_ROUTERS });
        }
        match *self {
            Self::Mesh { dims } => {
                if dims.width() < 2 || dims.height() < 2 {
                    return Err(TopologyError::DegenerateMesh {
                        width: dims.width(),
                        height: dims.height(),
                    });
                }
            }
            Self::RingMesh { dims, tile } => {
                if tile < 2 {
                    return Err(TopologyError::RingTooSmall { tile });
                }
                if dims.width() % tile != 0 || dims.height() % tile != 0 {
                    return Err(TopologyError::TileMisaligned {
                        width: dims.width(),
                        height: dims.height(),
                        tile,
                    });
                }
            }
        }
        Ok(())
    }

    /// Grid dimensions of the fabric.
    pub fn dims(&self) -> GridDims {
        match *self {
            Self::Mesh { dims } | Self::RingMesh { dims, .. } => dims,
        }
    }

    /// Number of routers.
    pub fn nodes(&self) -> usize {
        self.dims().nodes()
    }

    /// Short human-readable fabric name (`mesh` / `ringmesh`).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Mesh { .. } => "mesh",
            Self::RingMesh { .. } => "ringmesh",
        }
    }

    /// Whether this is the plain mesh fabric.
    pub fn is_mesh(&self) -> bool {
        matches!(self, Self::Mesh { .. })
    }

    /// The maximum number of base slots any router in this fabric exposes.
    ///
    /// Mesh routers have four (N/S/E/W); ring-mesh gateways have six
    /// (ring prev/next plus four gateway-mesh directions).
    pub fn max_base_slots(&self) -> usize {
        match self {
            Self::Mesh { .. } => 4,
            Self::RingMesh { .. } => 6,
        }
    }

    /// Number of base slots at router `r` (boundary slots count even when
    /// unconnected; a plain ring station has two).
    pub fn base_slot_count(&self, r: NodeId) -> usize {
        match *self {
            Self::Mesh { .. } => 4,
            Self::RingMesh { dims, tile } => {
                if RingMeshView::new(dims, tile).snake_of(r) == 0 {
                    6
                } else {
                    2
                }
            }
        }
    }

    /// The neighbour reached from router `r` through base slot `slot`, or
    /// `None` when the slot faces the grid boundary.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `slot >= base_slot_count(r)`.
    pub fn port_neighbor(&self, r: NodeId, slot: u8) -> Option<NodeId> {
        match *self {
            Self::Mesh { dims } => {
                let c = dims.coord_of(r);
                let (dx, dy): (i32, i32) = match slot {
                    SLOT_N => (0, -1),
                    SLOT_S => (0, 1),
                    SLOT_E => (1, 0),
                    SLOT_W => (-1, 0),
                    _ => panic!("mesh slot {slot} out of range"),
                };
                let nx = c.x as i32 + dx;
                let ny = c.y as i32 + dy;
                if nx < 0 || ny < 0 || nx >= dims.width() as i32 || ny >= dims.height() as i32 {
                    None
                } else {
                    Some(dims.index_of((nx as u16, ny as u16).into()))
                }
            }
            Self::RingMesh { dims, tile } => {
                let v = RingMeshView::new(dims, tile);
                let (tx, ty) = v.tile_of(r);
                let s = v.snake_of(r);
                let ring_len = tile * tile;
                match slot {
                    SLOT_RING_PREV => Some(v.node_at(tx, ty, (s + ring_len - 1) % ring_len)),
                    SLOT_RING_NEXT => Some(v.node_at(tx, ty, (s + 1) % ring_len)),
                    2..=5 if s == 0 => {
                        // Gateway-mesh slots, in the mesh's N/S/E/W order.
                        let (dx, dy): (i32, i32) = match slot {
                            2 => (0, -1),
                            3 => (0, 1),
                            4 => (1, 0),
                            _ => (-1, 0),
                        };
                        let ntx = tx as i32 + dx;
                        let nty = ty as i32 + dy;
                        if ntx < 0
                            || nty < 0
                            || ntx >= v.tiles_x as i32
                            || nty >= v.tiles_y as i32
                        {
                            None
                        } else {
                            Some(v.node_at(ntx as usize, nty as usize, 0))
                        }
                    }
                    _ => panic!("ring-mesh slot {slot} out of range for router {r}"),
                }
            }
        }
    }

    /// The slot at `a` whose link leads to `b`, if `(a, b)` is a base
    /// fabric edge. All base edges are bidirectional, so
    /// `port_between(a, b)` and `port_between(b, a)` are `Some` together.
    pub fn port_between(&self, a: NodeId, b: NodeId) -> Option<u8> {
        (0..self.base_slot_count(a) as u8).find(|&slot| self.port_neighbor(a, slot) == Some(b))
    }

    /// Number of base links at `r`: its slots that do not face the grid
    /// boundary.
    pub fn degree(&self, r: NodeId) -> usize {
        (0..self.base_slot_count(r) as u8)
            .filter(|&slot| self.port_neighbor(r, slot).is_some())
            .count()
    }

    /// Neighbours of `r` in slot order, skipping boundary slots — the
    /// adjacency-list order used by [`crate::GridGraph`].
    pub fn neighbors(&self, r: NodeId) -> Vec<NodeId> {
        (0..self.base_slot_count(r) as u8)
            .filter_map(|slot| self.port_neighbor(r, slot))
            .collect()
    }

    /// The next router on the deadlock-free base (escape) route from
    /// `router` to `dest`; `dest` itself when already there.
    ///
    /// Mesh: XY routing. Ring-mesh: chain down to the gateway, XY across
    /// the gateway mesh, chain up to the destination station; the ring wrap
    /// edge is never used.
    pub fn base_next_hop(&self, router: NodeId, dest: NodeId) -> NodeId {
        if router == dest {
            return dest;
        }
        self.port_neighbor(router, self.base_port(router, dest))
            .expect("a base route follows a fabric edge")
    }

    /// The slot carrying the base route from `router` toward `dest`.
    ///
    /// # Panics
    ///
    /// Panics if `router == dest` (there is no outgoing slot).
    pub fn base_port(&self, router: NodeId, dest: NodeId) -> u8 {
        assert_ne!(router, dest, "no base port to self");
        self.spot(router).base_slot_toward(self.spot(dest), self.ring_len())
    }

    /// The longest base route between any pair of routers — the diameter of
    /// the escape fabric, used to size distance histograms.
    pub fn max_route_len(&self) -> u32 {
        match *self {
            Self::Mesh { dims } => (dims.width() - 1 + dims.height() - 1) as u32,
            Self::RingMesh { dims, tile } => {
                let v = RingMeshView::new(dims, tile);
                let chain = (tile * tile - 1) as u32;
                2 * chain + (v.tiles_x - 1 + v.tiles_y - 1) as u32
            }
        }
    }

    /// Length in hops of the shortest path from `a` to `b` over the base
    /// fabric, in closed form. O(1).
    ///
    /// * Mesh: `|dx| + |dy|`. A path can close each coordinate gap one hop
    ///   at a time, and no hop closes more.
    /// * Ring-mesh, with `L = tile²` stations a ring, `s_a`, `s_b` the snake
    ///   indices of `a` and `b` in their tiles and `ring(s,t) = min(|s−t|,
    ///   L−|s−t|)`: `ring(s_a, s_b)` within one tile, else `ring(s_a, 0) +
    ///   |Δtx| + |Δty| + ring(0, s_b)`. Only a tile's gateway (snake index
    ///   0) links out of the tile, so a path between tiles leaves and enters
    ///   through the two gateways, each reached round its own ring, and a
    ///   path that leaves a tile, or passes through one, comes back through
    ///   the same gateway.
    ///
    /// Unlike [`FabricSpec::base_route_len`], it may use a ring's wrap edge.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        u32::from(self.spot(a).hops_to(self.spot(b), self.ring_len()))
    }

    /// Stations per tile ring: `tile²` on the ring-mesh, 0 on the mesh
    /// (whose every router is a cell of its own).
    pub(crate) fn ring_len(&self) -> u16 {
        match *self {
            Self::Mesh { .. } => 0,
            Self::RingMesh { tile, .. } => (tile * tile) as u16,
        }
    }

    /// Where router `r` sits for [`FabricSpec::distance`].
    pub(crate) fn spot(&self, r: NodeId) -> Spot {
        match *self {
            Self::Mesh { dims } => {
                let c = dims.coord_of(r);
                Spot { x: c.x, y: c.y, snake: 0, to_gateway: 0 }
            }
            Self::RingMesh { dims, tile } => {
                let v = RingMeshView::new(dims, tile);
                let (tx, ty) = v.tile_of(r);
                let snake = v.snake_of(r);
                let (x, y, to_gateway) = (tx as u16, ty as u16, snake.min(tile * tile - snake));
                Spot { x, y, snake: snake as u16, to_gateway: to_gateway as u16 }
            }
        }
    }

    /// Length in hops of the base (escape) route from `a` to `b` — the
    /// fabric's analogue of Manhattan distance. O(1).
    pub fn base_route_len(&self, a: NodeId, b: NodeId) -> u32 {
        u32::from(self.spot(a).base_hops_to(self.spot(b)))
    }
}

impl fmt::Display for FabricSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Mesh { dims } => write!(f, "mesh-{dims}"),
            Self::RingMesh { dims, tile } => write!(f, "ringmesh-{dims}-t{tile}"),
        }
    }
}

impl Default for FabricSpec {
    fn default() -> Self {
        Self::Mesh { dims: GridDims::paper_baseline() }
    }
}

/// Where a router sits for its fabric's closed-form distance and base
/// route: its grid cell on the mesh; on the ring-mesh its tile, its snake
/// index in the tile and its distance round the ring to the tile's gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Spot {
    x: u16,
    y: u16,
    snake: u16,
    to_gateway: u16,
}

impl Spot {
    /// [`FabricSpec::distance`] from `self` to `to`, on a fabric whose
    /// tile rings have `ring_len` stations ([`FabricSpec::ring_len`]).
    #[inline]
    pub(crate) fn hops_to(self, to: Spot, ring_len: u16) -> u16 {
        let across = self.x.abs_diff(to.x) + self.y.abs_diff(to.y);
        let via_gateways = self.to_gateway + across + to.to_gateway;
        // Within one tile: round the ring (on the mesh, a cell is a router).
        let gap = self.snake.abs_diff(to.snake);
        let round = gap.min(ring_len - gap);
        // Both arms are computed so that a row of them vectorises.
        if across == 0 { round } else { via_gateways }
    }

    /// The base slot of the first hop of the base route from `self` toward
    /// a different router at `to`, on a fabric whose tile rings have
    /// `ring_len` stations: along the chain within a tile (on the mesh a
    /// cell holds one router, so never), down the chain to the gateway
    /// from any other station, and XY from a gateway or mesh router — X
    /// first, then Y, in the mesh's N/S/E/W slot order, which a gateway
    /// numbers after its two ring slots.
    #[inline]
    pub(crate) fn base_slot_toward(self, to: Spot, ring_len: u16) -> u8 {
        if (self.x, self.y) == (to.x, to.y) {
            if to.snake > self.snake { SLOT_RING_NEXT } else { SLOT_RING_PREV }
        } else if self.snake > 0 {
            SLOT_RING_PREV
        } else {
            let xy = if self.x < to.x {
                SLOT_E
            } else if self.x > to.x {
                SLOT_W
            } else if self.y < to.y {
                SLOT_S
            } else {
                SLOT_N
            };
            if ring_len == 0 { xy } else { xy + 2 }
        }
    }

    /// [`FabricSpec::base_route_len`] from `self` to `to`: along the chain
    /// within a cell or tile, else down the chain, across and up it.
    #[inline]
    pub(crate) fn base_hops_to(self, to: Spot) -> u16 {
        let across = self.x.abs_diff(to.x) + self.y.abs_diff(to.y);
        if across == 0 { self.snake.abs_diff(to.snake) } else { self.snake + across + to.snake }
    }
}

/// The base route of every ordered pair of one fabric, as the closed form
/// over an array of its routers' places (`Spot`s): `n × 8` bytes, where a
/// table of the routes would hold `n²`.
#[derive(Debug, Clone)]
pub struct BaseRoutes {
    /// [`FabricSpec::ring_len`] of the fabric.
    ring_len: u16,
    spots: Vec<Spot>,
}

impl BaseRoutes {
    /// The base routes of `fabric`.
    pub fn of(fabric: &FabricSpec) -> Self {
        let spots = (0..fabric.nodes()).map(|r| fabric.spot(r)).collect();
        Self { ring_len: fabric.ring_len(), spots }
    }

    /// [`FabricSpec::base_port`] from `router` toward `dest` (`router !=
    /// dest`).
    #[inline]
    pub fn port(&self, router: NodeId, dest: NodeId) -> u8 {
        debug_assert_ne!(router, dest, "no base port to self");
        self.spots[router].base_slot_toward(self.spots[dest], self.ring_len)
    }

    /// [`FabricSpec::base_route_len`] from `a` to `b`.
    #[inline]
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        u32::from(self.spots[a].base_hops_to(self.spots[b]))
    }
}

/// The [`Spot`]s of a list of routers, one array per field, so that a run
/// of [`Spot::hops_to`] over them vectorises.
#[derive(Debug, Clone)]
pub(crate) struct Spots {
    x: Vec<u16>,
    y: Vec<u16>,
    snake: Vec<u16>,
    to_gateway: Vec<u16>,
}

impl Spots {
    /// The spots of `routers` on `fabric`, in order.
    pub(crate) fn of(fabric: &FabricSpec, routers: impl IntoIterator<Item = NodeId>) -> Self {
        let mut spots =
            Self { x: Vec::new(), y: Vec::new(), snake: Vec::new(), to_gateway: Vec::new() };
        for r in routers {
            let at = fabric.spot(r);
            spots.x.push(at.x);
            spots.y.push(at.y);
            spots.snake.push(at.snake);
            spots.to_gateway.push(at.to_gateway);
        }
        spots
    }

    /// [`Spot::hops_to`] from `from` to each spot, in order.
    #[inline]
    pub(crate) fn hops_from(&self, from: Spot, ring_len: u16) -> impl Iterator<Item = u16> + '_ {
        let fields = self.x.iter().zip(&self.y).zip(self.snake.iter().zip(&self.to_gateway));
        fields.map(move |((&x, &y), (&snake, &to_gateway))| {
            from.hops_to(Spot { x, y, snake, to_gateway }, ring_len)
        })
    }
}

/// Precomputed tile arithmetic for a ring-mesh fabric.
pub(crate) struct RingMeshView {
    dims: GridDims,
    tile: usize,
    tiles_x: usize,
    tiles_y: usize,
}

impl RingMeshView {
    pub(crate) fn new(dims: GridDims, tile: usize) -> Self {
        debug_assert!(
            tile >= 2 && dims.width().is_multiple_of(tile) && dims.height().is_multiple_of(tile)
        );
        Self { dims, tile, tiles_x: dims.width() / tile, tiles_y: dims.height() / tile }
    }

    /// Tile coordinates of router `r`.
    pub(crate) fn tile_of(&self, r: NodeId) -> (usize, usize) {
        let c = self.dims.coord_of(r);
        (c.x as usize / self.tile, c.y as usize / self.tile)
    }

    /// Snake index of `r` inside its tile: row-major boustrophedon, so
    /// consecutive indices are grid-adjacent and index 0 is the tile's
    /// top-left cell (the gateway).
    pub(crate) fn snake_of(&self, r: NodeId) -> usize {
        let c = self.dims.coord_of(r);
        let lx = c.x as usize % self.tile;
        let ly = c.y as usize % self.tile;
        ly * self.tile + if ly.is_multiple_of(2) { lx } else { self.tile - 1 - lx }
    }

    /// Router at snake index `s` inside tile `(tx, ty)`.
    pub(crate) fn node_at(&self, tx: usize, ty: usize, s: usize) -> NodeId {
        let ly = s / self.tile;
        let lx =
            if ly.is_multiple_of(2) { s % self.tile } else { self.tile - 1 - s % self.tile };
        let x = (tx * self.tile + lx) as u16;
        let y = (ty * self.tile + ly) as u16;
        self.dims.index_of((x, y).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GridGraph;
    use crate::routing::xy_next_hop;

    /// The base route's next hop, walked the way the escape route is
    /// defined: XY on the mesh; on the ring-mesh along the chain within a
    /// tile, else down the chain to the gateway, XY over the tile mesh and
    /// up the chain. The reference the closed form is held to.
    fn walk_next_hop(fabric: &FabricSpec, router: NodeId, dest: NodeId) -> NodeId {
        let FabricSpec::RingMesh { dims, tile } = *fabric else {
            return xy_next_hop(fabric.dims(), router, dest);
        };
        if router == dest {
            return dest;
        }
        let v = RingMeshView::new(dims, tile);
        let (tx, ty) = v.tile_of(router);
        let (dtx, dty) = v.tile_of(dest);
        let s = v.snake_of(router);
        if (tx, ty) == (dtx, dty) {
            let ds = v.snake_of(dest);
            let next = if ds > s { s + 1 } else { s - 1 };
            return v.node_at(tx, ty, next);
        }
        if s > 0 {
            // Chain down toward the gateway (never the wrap edge).
            return v.node_at(tx, ty, s - 1);
        }
        // At the gateway: XY over the tile mesh.
        if tx != dtx {
            let ntx = if dtx > tx { tx + 1 } else { tx - 1 };
            v.node_at(ntx, ty, 0)
        } else {
            let nty = if dty > ty { ty + 1 } else { ty - 1 };
            v.node_at(tx, nty, 0)
        }
    }

    /// The closed form's slot, hop and length for every ordered pair are
    /// the walk's: its slot leads to the walk's next hop, and its length is
    /// one more than the next hop's (0 on the diagonal), so by induction
    /// the number of hops the walk takes.
    #[test]
    fn base_route_closed_form_is_the_walk() {
        let mesh = |w, h| FabricSpec::mesh(GridDims::new(w, h));
        let ring = |w, h, tile| FabricSpec::ring_mesh(GridDims::new(w, h), tile);
        for fabric in [
            mesh(2, 2),
            mesh(7, 5),
            mesh(16, 16),
            ring(8, 8, 4),
            ring(12, 8, 4),
            ring(9, 6, 3),
            ring(6, 4, 2),
            ring(32, 32, 4),
        ] {
            let routes = BaseRoutes::of(&fabric);
            for a in 0..fabric.nodes() {
                assert_eq!(fabric.base_route_len(a, a), 0, "{fabric}: {a}");
                assert_eq!(routes.hops(a, a), 0, "{fabric}: {a}");
                for b in (0..fabric.nodes()).filter(|&b| b != a) {
                    let next = walk_next_hop(&fabric, a, b);
                    let slot = fabric.base_port(a, b);
                    assert_eq!(fabric.port_neighbor(a, slot), Some(next), "{fabric}: {a}->{b}");
                    assert_eq!(routes.port(a, b), slot, "{fabric}: {a}->{b}");
                    assert_eq!(fabric.base_next_hop(a, b), next, "{fabric}: {a}->{b}");
                    let len = fabric.base_route_len(a, b);
                    assert_eq!(len, fabric.base_route_len(next, b) + 1, "{fabric}: {a}->{b}");
                    assert_eq!(routes.hops(a, b), len, "{fabric}: {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn mesh_base_port_directions() {
        let fabric = FabricSpec::mesh(GridDims::new(4, 4));
        // Router 5 is at (1, 1).
        assert_eq!(fabric.base_port(5, 1), SLOT_N);
        assert_eq!(fabric.base_port(5, 9), SLOT_S);
        assert_eq!(fabric.base_port(5, 6), SLOT_E);
        assert_eq!(fabric.base_port(5, 4), SLOT_W);
        // X first: (3, 3) from (0, 0) leaves east, (0, 3) from (3, 0) west.
        assert_eq!(fabric.base_port(0, 15), SLOT_E);
        assert_eq!(fabric.base_port(3, 12), SLOT_W);
    }

    #[test]
    fn validation_rejects_degenerate_fabrics() {
        assert!(FabricSpec::mesh(GridDims::new(1, 8)).validate().is_err());
        assert!(FabricSpec::mesh(GridDims::new(8, 1)).validate().is_err());
        assert!(FabricSpec::mesh(GridDims::new(2, 2)).validate().is_ok());
        assert!(FabricSpec::ring_mesh(GridDims::new(8, 8), 1).validate().is_err());
        assert!(FabricSpec::ring_mesh(GridDims::new(8, 8), 3).validate().is_err());
        assert!(FabricSpec::ring_mesh(GridDims::new(9, 9), 3).validate().is_ok());
        assert!(FabricSpec::ring_mesh(GridDims::new(8, 8), 4).validate().is_ok());
        // Up to 65,535 routers, on any shape: distances are 16-bit.
        assert_eq!(FabricSpec::mesh(GridDims::new(255, 257)).validate(), Ok(()));
        let too_many = |routers| Err(TopologyError::TooManyRouters { routers, limit: 65_535 });
        assert_eq!(FabricSpec::mesh(GridDims::new(256, 256)).validate(), too_many(65_536));
        assert_eq!(FabricSpec::mesh(GridDims::new(70_000, 2)).validate(), too_many(140_000));
        assert_eq!(FabricSpec::ring_mesh(GridDims::new(256, 256), 4).validate(), too_many(65_536));
    }

    #[test]
    fn mesh_slots_match_grid_graph_adjacency() {
        let dims = GridDims::new(5, 4);
        let fabric = FabricSpec::mesh(dims);
        let g = GridGraph::mesh(dims);
        for r in 0..dims.nodes() {
            // N, S, E, W, skipping the grid boundary.
            let (x, y) = (r % 5, r / 5);
            let mut grid = Vec::new();
            if y > 0 {
                grid.push(r - 5);
            }
            if y < 3 {
                grid.push(r + 5);
            }
            if x < 4 {
                grid.push(r + 1);
            }
            if x > 0 {
                grid.push(r - 1);
            }
            assert_eq!(fabric.neighbors(r), grid, "router {r}");
            assert_eq!(g.neighbors(r), grid, "router {r}");
        }
    }

    #[test]
    fn mesh_base_route_is_xy() {
        let dims = GridDims::new(6, 6);
        let fabric = FabricSpec::mesh(dims);
        for a in 0..dims.nodes() {
            for b in 0..dims.nodes() {
                assert_eq!(fabric.base_next_hop(a, b), xy_next_hop(dims, a, b));
                assert_eq!(fabric.base_route_len(a, b), dims.manhattan(a, b));
            }
        }
    }

    #[test]
    fn ring_mesh_edges_are_bidirectional_and_consistent() {
        let fabric = FabricSpec::ring_mesh(GridDims::new(8, 8), 4);
        for r in 0..64 {
            for slot in 0..fabric.base_slot_count(r) as u8 {
                if let Some(nb) = fabric.port_neighbor(r, slot) {
                    assert_ne!(nb, r);
                    let back = fabric.port_between(nb, r);
                    assert!(back.is_some(), "edge {r}->{nb} has no reverse slot");
                    assert_eq!(fabric.port_neighbor(nb, back.unwrap()), Some(r));
                    assert_eq!(fabric.port_between(r, nb), Some(slot));
                }
            }
        }
    }

    #[test]
    fn ring_mesh_snake_is_grid_adjacent() {
        // Consecutive ring stations must be physically adjacent cells so the
        // ring can be wired with unit-length grid links (wrap edge aside).
        let dims = GridDims::new(6, 6);
        let fabric = FabricSpec::ring_mesh(dims, 3);
        for r in 0..36 {
            let next = fabric.port_neighbor(r, SLOT_RING_NEXT).unwrap();
            let hop = dims.manhattan(r, next);
            // Chain edges are unit-length; the wrap edge spans the tile.
            assert!(hop == 1 || hop as usize == 2 * (3 - 1), "{r}->{next} = {hop}");
        }
    }

    #[test]
    fn ring_mesh_base_route_reaches_dest_with_analytic_length() {
        let dims = GridDims::new(8, 8);
        let fabric = FabricSpec::ring_mesh(dims, 4);
        for a in 0..64 {
            for b in 0..64 {
                let mut cur = a;
                let mut hops = 0u32;
                while cur != b {
                    let next = fabric.base_next_hop(cur, b);
                    assert!(
                        fabric.port_between(cur, next).is_some(),
                        "base hop {cur}->{next} not a fabric edge"
                    );
                    cur = next;
                    hops += 1;
                    assert!(hops <= 200, "route {a}->{b} does not terminate");
                }
                assert_eq!(hops, fabric.base_route_len(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn ring_mesh_escape_route_never_uses_wrap_edge() {
        let dims = GridDims::new(6, 6);
        let fabric = FabricSpec::ring_mesh(dims, 3);
        let ring_len = 9;
        for a in 0..36 {
            for b in 0..36 {
                let mut cur = a;
                while cur != b {
                    let next = fabric.base_next_hop(cur, b);
                    // Wrap edge connects snake index 0 and ring_len-1.
                    let v = RingMeshView::new(dims, 3);
                    let (s, ns) = (v.snake_of(cur), v.snake_of(next));
                    let crosses_wrap =
                        (s == 0 && ns == ring_len - 1) || (s == ring_len - 1 && ns == 0);
                    assert!(
                        !crosses_wrap,
                        "escape route {a}->{b} crossed wrap edge at {cur}->{next}"
                    );
                    cur = next;
                }
            }
        }
    }

    #[test]
    fn ring_mesh_station_degrees() {
        let fabric = FabricSpec::ring_mesh(GridDims::new(8, 8), 4);
        let v = RingMeshView::new(GridDims::new(8, 8), 4);
        for r in 0..64 {
            if v.snake_of(r) == 0 {
                assert_eq!(fabric.base_slot_count(r), 6, "gateway {r}");
            } else {
                assert_eq!(fabric.base_slot_count(r), 2, "station {r}");
            }
        }
        assert_eq!(fabric.max_base_slots(), 6);
    }

    #[test]
    fn max_route_len_matches_worst_pair() {
        for fabric in [
            FabricSpec::mesh(GridDims::new(6, 4)),
            FabricSpec::ring_mesh(GridDims::new(6, 6), 3),
            FabricSpec::ring_mesh(GridDims::new(8, 8), 4),
        ] {
            let n = fabric.nodes();
            let worst = (0..n)
                .flat_map(|a| (0..n).map(move |b| (a, b)))
                .map(|(a, b)| fabric.base_route_len(a, b))
                .max()
                .unwrap();
            assert_eq!(worst, fabric.max_route_len(), "{fabric}");
        }
    }

    /// FNV-1a of the base-route out slot of every ordered pair
    /// (`base_slot_count` on the diagonal, the first slot past the base
    /// ones), row by row.
    fn base_route_hash(fabric: FabricSpec) -> (String, String) {
        let n = fabric.nodes();
        let mut h = crate::Fnv::new();
        h.bytes((0..n).flat_map(|r| {
            (0..n).map(move |d| {
                if r == d { fabric.base_slot_count(r) as u8 } else { fabric.base_port(r, d) }
            })
        }));
        (fabric.to_string(), rfnoc_pins::hex(h.finish()))
    }

    /// The base routes of all 16.7 M ordered pairs of the two 64×64
    /// `rf64_build` fabrics, pinned on the per-hop route walk and the
    /// ring-mesh's dense base-port table, in `tests/pins/base_routes_64.txt`.
    #[test]
    #[ignore = "64x64 base routes over every pair; run in release with --ignored"]
    fn base_routes_at_64x64_hash_to_their_pins() {
        let dims = GridDims::new(64, 64);
        let got = [FabricSpec::mesh(dims), FabricSpec::ring_mesh(dims, 4)].map(base_route_hash);
        rfnoc_pins::check_file(env!("CARGO_MANIFEST_DIR"), "base_routes_64", &got);
    }

    #[test]
    fn from_fabric_graph_is_connected() {
        for fabric in [
            FabricSpec::mesh(GridDims::new(4, 4)),
            FabricSpec::ring_mesh(GridDims::new(6, 6), 3),
        ] {
            let g = GridGraph::from_fabric(&fabric, &[]);
            let d = g.distances();
            for a in 0..fabric.nodes() {
                for b in 0..fabric.nodes() {
                    let reached = d.get(a, b) != u32::from(crate::dist::UNREACHABLE);
                    assert!(reached, "{fabric}: {a}->{b}");
                    // The adaptive graph may beat the escape route but
                    // never exceeds it.
                    assert!(d.get(a, b) <= fabric.base_route_len(a, b));
                }
            }
        }
    }
}
