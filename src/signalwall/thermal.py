"""Thermal transmittance of walls: layered analytical model and 3-D finite volumes.

The analytical path is the ISO 6946 series-resistance formula
U = 1 / (R_si + sum(d_n / lambda_n) + R_se).  The finite-volume solver
handles unit cells with embedded features (dual-coax thermal bridge, foam
cavity, laminate sheets) on a feature-snapped rectilinear grid:

* steady conduction div(lambda grad T) = 0, harmonic-mean face conductances;
* Robin (convective-film) conditions q = (T_air - T_surface) / R_s on the
  two wall faces, adiabatic lateral faces so the cell tiles an infinite wall;
* cylindrical cable parts are mapped to equivalent-area square prisms, which
  preserves the axial conductance lambda*A/L of the bridge exactly
  (concentric circles of radius r map to squares of side sqrt(pi)*r).

Every part of a cell, slabs included, is a box that carries its material
and, per axis, a spacing hint at its faces and a cap on the cells inside it.
One mesher, ``_axis_nodes``, builds the x, y and z nodes alike from the box
faces: faces within 1e-9 merge into one line at the smaller hint, and cells
grow by ``_GROWTH`` from each line's hint up to the smallest cap of the
boxes that hold them.  The mesh has no settable knobs; its lengths are
module constants in mm.  The slabs carry the caps, ``_XY_COARSE_MM`` across
the cell and ``_Z_INSULATING_MM`` or ``_Z_CONDUCTIVE_MM`` through it by
conductivity; the foam and laminate pads carry the hints ``_XY_FEATURE_MM``
at their edges and ``_Z_INTERFACE_MM`` at their planes, and the cable boxes
``_XY_CABLE_MM`` at their lines.  A mesh over ``_MAX_CELLS`` cells, or too
coarse to resolve the cable, is refused with a ``ThermalError`` that names
its cell.

The linear system is symmetric positive definite and solved with conjugate
gradients under diagonal (Jacobi) preconditioning, started from the 1-D
layered temperature profile.  The solve has no settable knobs: within
``_MAX_ITER`` iterations, CG runs until ||r|| < ``_CG_RTOL`` ||b|| and its
two face heat flows, read from the boundary planes of the iterate, agree to
``_BALANCE_TOL``; a converged solve is one that stopped on both.  The
operator is stored as seven bands of a ``scipy.sparse.dia_array`` at
ascending offsets (the x, y and z neighbours below, the diagonal, the
neighbours above), so a product sums each row in column order as CSR does,
from 7 numbers per unknown.  ``scipy.sparse`` is imported at the first
assembly, so the analytical U-value and the EM commands never load it.  The
CG loop is the package's own and runs in place on preallocated vectors, with
the recurrence and residual test of ``scipy.sparse.linalg.cg``.  Its inner
products are summed in one thread by ``np.einsum``: a threaded BLAS dot
splits its sum by thread, which moved the last bits of U with
``OPENBLAS_NUM_THREADS``, and its hand-off between threads stalled the loop.

The solve runs on the mirror-symmetric subspace of the cell.  A lateral axis
folds when its cell widths mirror (to 1e-9 relative) and the material array
equals its flip along it; the centred cable pair, foam and laminate make both
axes fold in the default cells, which cuts the unknowns about 4x.  Cells i
and n-1-i form one mirror class (an odd count leaves the middle cell as its
own class), and an axis that does not fold keeps one class per cell.  With S
the orthonormal basis of symmetric fields (weight 1/sqrt(k) on each of a
class's k images), CG solves S^T A S y = S^T b from S^T x0 under the Jacobi
preconditioner S^T D S, the full-cell diagonal per image, and the field is
T = S y.  The operator, load, start and preconditioner are all mirror
symmetric, so these are the full-cell Jacobi-CG iterates in exact arithmetic,
with the same stopping test (||S^T r|| = ||r|| for a symmetric residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .antenna_link import UnitCell
from .layered_em import LayerStack
from .materials import Material

if TYPE_CHECKING:
    import scipy.sparse as sp


class ThermalError(ValueError):
    """Invalid thermal model input."""


@dataclass(frozen=True)
class ThermalBoundary:
    """Surface film resistances and ambient temperatures for the two faces."""

    r_si: float = 0.13
    r_se: float = 0.04
    t_inside_k: float = 293.0
    t_outside_k: float = 271.0

    def __post_init__(self):
        if self.r_si <= 0.0 or self.r_se <= 0.0:
            raise ThermalError("surface resistances must be > 0")
        if self.t_inside_k == self.t_outside_k:
            raise ThermalError("ambient temperatures must differ")

    @property
    def delta_t(self) -> float:
        return abs(self.t_inside_k - self.t_outside_k)


@dataclass
class UValueResult:
    u: float
    converged: bool
    iterations: int
    residual: float
    balance: float = 0.0
    temperature: np.ndarray | None = field(default=None, repr=False)
    unknowns: int = 0  # size of the solved linear system


def u_value_analytical(stack: LayerStack, bc: ThermalBoundary) -> UValueResult:
    """Series-resistance U-value of a laterally homogeneous wall."""
    r = bc.r_si + bc.r_se
    for layer in stack.layers:
        r += layer.thickness_mm * 1e-3 / layer.material.thermal_conductivity
    return UValueResult(u=1.0 / r, converged=True, iterations=0, residual=0.0)


# ---------------------------------------------------------------------------
# voxelization


# grid spacings in mm; they suit 0.1-1 m walls with mm features
_Z_CONDUCTIVE_MM = 5.0  # cap through slabs with lambda >= 0.1 W/(m K)
_Z_INSULATING_MM = 2.0  # cap through slabs below that
_Z_INTERFACE_MM = 0.5  # first cell at the laminate and foam planes
_XY_COARSE_MM = 12.0  # lateral cap
_XY_FEATURE_MM = 2.0  # spacing hint at foam/laminate edges
_XY_CABLE_MM = 0.4  # spacing hint at cable feature lines
_GROWTH = 1.6  # width ratio of neighbouring graded cells
_MAX_CELLS = 5_000_000  # largest mesh; at ~131 B per cell an unfolded solve traces under 0.65 GB


def _graded_spacings(width, h_left, h_right, h_max):
    """Cell widths filling ``width``, growing by ``_GROWTH`` from both ends."""
    h_left = min(h_left, h_max)
    h_right = min(h_right, h_max)
    if width <= min(1.25 * min(h_left, h_right), h_max):
        return np.array([width])
    left, right = [h_left], [h_right]
    left_sum, right_sum = h_left, h_right  # running totals, added in list order as sum() would
    while left_sum + right_sum < width:
        if left_sum <= right_sum:
            left.append(min(left[-1] * _GROWTH, h_max))
            left_sum += left[-1]
        else:
            right.append(min(right[-1] * _GROWTH, h_max))
            right_sum += right[-1]
    spacings = np.array(left + right[::-1])
    return spacings * (width / spacings.sum())


def _axis_nodes(faces, length, h_max):
    """Node coordinates on [0, length] through every feature line.

    ``faces`` holds (coordinate, hint) pairs; each, clipped to [0, length],
    joins the first line within 1e-9 (the ends first) at the smaller hint.
    ``h_max(a, b)`` caps the cells and hints between neighbouring lines a, b.
    """
    lines = {0.0: math.inf, length: math.inf}
    for coord, hint in faces:
        coord = min(max(coord, 0.0), length)
        kept = next((line for line in lines if abs(line - coord) <= 1e-9), coord)
        lines[kept] = min(lines.get(kept, math.inf), hint)
    coords = sorted(lines)
    nodes = [coords[0]]
    for a, b in zip(coords, coords[1:]):
        cumulative = a + np.cumsum(_graded_spacings(b - a, lines[a], lines[b], h_max(a, b)))
        cumulative[-1] = b
        nodes.extend(cumulative.tolist())
    return np.asarray(nodes)


@dataclass(frozen=True)
class _Box:
    """Axis-aligned block of one material in mm, each field an (x, y, z) triple:
    corners ``lo`` and ``hi``, the spacing ``hint`` at its faces and the
    ``cap`` on the cells inside it."""

    material: Material
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]
    hint: tuple[float, float, float] = (math.inf,) * 3
    cap: tuple[float, float, float] = (math.inf,) * 3


class VoxelGrid:
    """Feature-snapped rectilinear grid with a material id per voxel."""

    def __init__(self, x_nodes_mm, y_nodes_mm, z_nodes_mm, material, conductivity_by_id):
        self.x_nodes_mm = np.asarray(x_nodes_mm, dtype=float)
        self.y_nodes_mm = np.asarray(y_nodes_mm, dtype=float)
        self.z_nodes_mm = np.asarray(z_nodes_mm, dtype=float)
        self.material = np.asarray(material)
        self.conductivity_by_id = np.asarray(conductivity_by_id, dtype=float)
        if self.material.shape != (self.nx, self.ny, self.nz):
            raise ThermalError("material array shape does not match the grid")
        if np.any(self.material < 0) or np.any(self.material >= len(self.conductivity_by_id)):
            raise ThermalError("every voxel must carry a valid material id")
        if np.any(self.conductivity_by_id <= 0.0):
            raise ThermalError("all conductivities must be > 0")

    @property
    def nx(self):
        return len(self.x_nodes_mm) - 1

    @property
    def ny(self):
        return len(self.y_nodes_mm) - 1

    @property
    def nz(self):
        return len(self.z_nodes_mm) - 1

    @property
    def n_cells(self):
        return self.nx * self.ny * self.nz

    @property
    def dx_m(self):
        return np.diff(self.x_nodes_mm) * 1e-3

    @property
    def dy_m(self):
        return np.diff(self.y_nodes_mm) * 1e-3

    @property
    def dz_m(self):
        return np.diff(self.z_nodes_mm) * 1e-3

    @property
    def area_m2(self):
        return float(self.x_nodes_mm[-1] * self.y_nodes_mm[-1] * 1e-6)


def equivalent_square_side_mm(radius_mm: float) -> float:
    """Side of the square with the same area as a circle of this radius."""
    return math.sqrt(math.pi) * radius_mm


def voxelize_unit_cell(cell: UnitCell) -> VoxelGrid:
    """Rectilinear voxel model of a unit cell, feature boundaries on grid lines.

    Every part is a ``_Box`` painted in order (slabs, foam, laminate, cable),
    later boxes overriding earlier ones; material ids go to the distinct
    materials in paint order.  A bare cell (no antenna system) gives the
    plain slab stack, whose finite-volume solution must match the analytical
    U-value.
    """
    depth = cell.wall.depth_mm
    size = (cell.sx_mm, cell.sy_mm, depth)
    cx, cy = cell.sx_mm / 2.0, cell.sy_mm / 2.0
    slab_edges = np.cumsum([0.0] + [layer.thickness_mm for layer in cell.wall.layers]).tolist()
    boxes = []
    for layer, lo, hi in zip(cell.wall.layers, slab_edges, slab_edges[1:]):
        z_cap = _Z_INSULATING_MM if layer.material.thermal_conductivity < 0.1 else _Z_CONDUCTIVE_MM
        boxes.append(_Box(layer.material, (0.0, 0.0, lo), (*size[:2], hi), cap=(_XY_COARSE_MM, _XY_COARSE_MM, z_cap)))

    def centred_square(material, x, half, z0, z1, hint):
        return _Box(material, (x - half, cy - half, z0), (x + half, cy + half, z1), hint)

    if cell.has_antenna_system:
        lam_t, foam_t = cell.face_stack_mm
        pad_hint = (_XY_FEATURE_MM, _XY_FEATURE_MM, _Z_INTERFACE_MM)
        for pad, faces in (
            (cell.foam, ((lam_t, lam_t + foam_t), (depth - lam_t - foam_t, depth - lam_t))),  # behind each laminate
            (cell.laminate, ((0.0, lam_t), (depth - lam_t, depth))),
        ):
            if pad is None:
                continue
            for z0, z1 in faces:  # one box per wall face, its z faces the interface planes
                boxes.append(centred_square(pad.material, cx, pad.size_mm / 2.0, z0, z1, pad_hint))

        spec = cell.coax
        w_shield = equivalent_square_side_mm(spec.outer_radius_mm)
        # lines side by side along x, shields touching; shield, bore and pin nest as squares
        parts = (
            (spec.conductor, spec.outer_radius_mm),
            (spec.dielectric, spec.shield_inner_radius_mm),
            (spec.conductor, spec.inner_radius_mm),
        )
        for off in (np.arange(spec.count) - (spec.count - 1) / 2.0) * w_shield:
            for part, radius in parts:
                half = equivalent_square_side_mm(radius) / 2.0
                boxes.append(centred_square(part, cx + off, half, 0.0, depth, (_XY_CABLE_MM, _XY_CABLE_MM, math.inf)))

    nodes = []
    for axis, length in enumerate(size):
        def cap(a, b):
            """Smallest cap of the boxes holding the midpoint of [a, b]; the slabs tile the cell."""
            return min(box.cap[axis] for box in boxes if box.lo[axis] < 0.5 * (a + b) < box.hi[axis])

        faces = [(coord, box.hint[axis]) for box in boxes for coord in (box.lo[axis], box.hi[axis])]
        nodes.append(_axis_nodes(faces, length, cap))
    x_nodes, y_nodes, z_nodes = nodes
    centres = [0.5 * (n[:-1] + n[1:]) for n in nodes]
    named = f"cell ({cell.sx_mm} x {cell.sy_mm} mm)"

    if cell.has_antenna_system:
        # diameter must span at least two cells inside the pack footprint
        half_pack = cell.coax.count * w_shield / 2.0
        widest = float(np.max(np.diff(x_nodes)[np.abs(centres[0] - cx) <= half_pack]))
        if widest > cell.coax.outer_radius_mm:
            raise ThermalError(
                f"{named}: mesh too coarse near the cable: {widest:.3f} mm cells vs "
                f"{2 * cell.coax.outer_radius_mm:.3f} mm diameter"
            )

    shape = [len(c) for c in centres]
    if math.prod(shape) > _MAX_CELLS:
        cells = f"{math.prod(shape):,} cells ({' x '.join(map(str, shape))})"
        raise ThermalError(f"{named}: mesh of {cells} exceeds the {_MAX_CELLS:,}-cell limit")
    material = np.full(shape, -1, dtype=np.int16)
    materials: list[Material] = []  # distinct by identity, in paint order; a voxel's id indexes this
    for box in boxes:
        mat_id = next((i for i, m in enumerate(materials) if m is box.material), len(materials))
        if mat_id == len(materials):
            materials.append(box.material)
        material[np.ix_(*((c > lo) & (c < hi) for c, lo, hi in zip(centres, box.lo, box.hi)))] = mat_id

    return VoxelGrid(x_nodes, y_nodes, z_nodes, material, [m.thermal_conductivity for m in materials])


# ---------------------------------------------------------------------------
# finite-volume solve


def _mirror_classes(widths, material, axis):
    """Mirror class of every cell along one lateral axis; one class per cell if the axis does not fold."""
    n = len(widths)
    cells = np.arange(n)
    if np.allclose(widths, widths[::-1], rtol=1e-9, atol=0.0) and np.array_equal(material, np.flip(material, axis)):
        return np.minimum(cells, n - 1 - cells)
    return cells


_CG_RTOL = 1e-8  # CG stops once ||r|| < _CG_RTOL ||b|| and the face flows balance
_MAX_ITER = 50000  # CG iterations before a solve is reported unconverged
_BALANCE_TOL = 1e-6  # largest relative mismatch of the two face heat flows at which CG stops


def solve_steady_state(grid: VoxelGrid, bc: ThermalBoundary) -> UValueResult:
    """Finite-volume steady-state solve; U from total heat flow per face.

    The system is solved on the mirror-symmetric subspace of the cell (see
    the module docstring) by ``_jacobi_pcg``: an in-place Jacobi-PCG loop on
    the banded (DIA) operator whose reductions do not depend on the BLAS
    thread count.  The returned temperature covers the full grid.  CG runs
    until both stopping tests pass, within ``_MAX_ITER`` iterations:
    ||r|| < ``_CG_RTOL`` ||b||, and the two face heat flows agree to
    ``_BALANCE_TOL`` (global energy balance).  The solve is converged when
    CG stopped on those tests; otherwise it returns the partial result with
    converged False.
    """
    system = _assemble(grid, bc)
    y = system.x0  # solved in place
    info, iterations = _jacobi_pcg(
        system.matrix, system.b, y, system.diag, _CG_RTOL, _MAX_ITER,
        balanced=lambda y: _balance(*system.face_flows(y, bc)) < _BALANCE_TOL,
    )
    r = system.b - system.matrix @ y
    residual = math.sqrt(_dot(r, r)) / math.sqrt(_dot(system.b, system.b))  # ||S^T r|| = ||r||

    q_in, q_out = system.face_flows(y, bc)
    t = y.reshape(*system.root_k.shape[:2], grid.nz) / system.root_k  # one image of each class
    return UValueResult(
        u=0.5 * (q_in + q_out) / (grid.area_m2 * bc.delta_t),
        converged=info == 0,
        iterations=iterations,
        residual=residual,
        balance=_balance(q_in, q_out),
        temperature=t[system.qx][:, system.qy],
        unknowns=len(y),
    )


def _balance(q_in, q_out):
    """Relative mismatch of the two face heat flows."""
    q_ref = max(abs(q_in), abs(q_out))
    return abs(q_in - q_out) / q_ref if q_ref > 0.0 else math.inf


@dataclass(frozen=True)
class _FoldedSystem:
    """The folded linear system of one cell and what the face heat flows need."""

    matrix: sp.dia_array  # S^T A S, seven bands at ascending offsets
    b: np.ndarray  # S^T b
    x0: np.ndarray  # S^T x0, the 1-D layered profile
    diag: np.ndarray  # S^T D S: the Jacobi preconditioner of the full-cell system
    root_k: np.ndarray  # (mx, my, 1): sqrt of the images per class
    g_out: np.ndarray  # (mx, my): outdoor Robin conductance of all of a class's images
    g_in: np.ndarray  # (mx, my): indoor Robin conductance of all of a class's images
    qx: np.ndarray  # mirror class of every cell along x
    qy: np.ndarray  # mirror class of every cell along y

    def face_flows(self, y: np.ndarray, bc: ThermalBoundary) -> tuple[float, float]:
        """Indoor and outdoor face heat flows of the folded field ``y``, read
        from its two boundary planes alone."""
        root_k = self.root_k[:, :, 0]
        planes = y.reshape(*root_k.shape, -1)
        q_in = float(np.sum(self.g_in * (bc.t_inside_k - planes[:, :, -1] / root_k)))
        q_out = float(np.sum(self.g_out * (planes[:, :, 0] / root_k - bc.t_outside_k)))
        return q_in, q_out


def _assemble(grid: VoxelGrid, bc: ThermalBoundary) -> _FoldedSystem:
    """Folded FV operator, load, start and diagonal; the face arrays die on return."""
    import scipy.sparse as sp  # here, not at module scope: only an FV solve pays its ~0.3 s import

    qx = _mirror_classes(grid.dx_m, grid.material, 0)
    qy = _mirror_classes(grid.dy_m, grid.material, 1)
    kx, ky = np.bincount(qx).astype(float), np.bincount(qy).astype(float)  # images per class
    mx, my, nz = len(kx), len(ky), grid.nz
    n = mx * my * nz

    # the folded cells plus, on a folded axis, the row beyond the mirror,
    # which holds the conductance of the last folded cell's upper face
    hx, hy = min(mx + 1, grid.nx), min(my + 1, grid.ny)
    lam = grid.conductivity_by_id[grid.material[:hx, :hy]]
    dx, dy, dz = grid.dx_m[:hx], grid.dy_m[:hy], grid.dz_m

    area_x = dy[None, :, None] * dz[None, None, :]
    area_y = dx[:, None, None] * dz[None, None, :]
    area_z = dx[:, None, None] * dy[None, :, None]

    # harmonic-mean face conductances from each cell's centre-to-face resistance 0.5 d / lambda
    half_x = 0.5 * dx[:, None, None] / lam
    half_y = 0.5 * dy[None, :, None] / lam
    half_z = 0.5 * dz[None, None, :] / lam
    gx = area_x / (half_x[:-1] + half_x[1:])
    gy = area_y / (half_y[:, :-1] + half_y[:, 1:])
    gz = area_z / (half_z[:, :, :-1] + half_z[:, :, 1:])
    del half_x, half_y  # the Robin faces read half_z; the rest would only raise the peak memory

    # per-image diagonal D of the full-cell operator
    diag = np.zeros((hx, hy, nz))
    diag[:-1] += gx
    diag[1:] += gx
    diag[:, :-1] += gy
    diag[:, 1:] += gy
    diag[:, :, :-1] += gz
    diag[:, :, 1:] += gz
    diag = diag[:mx, :my]

    # Robin faces: z=0 outdoor (R_se), z=depth indoor (R_si)
    g_se = area_z[:mx, :my, 0] / (bc.r_se + half_z[:mx, :my, 0])
    g_si = area_z[:mx, :my, 0] / (bc.r_si + half_z[:mx, :my, -1])
    b = np.zeros((mx, my, nz))
    diag[:, :, 0] += g_se
    diag[:, :, -1] += g_si
    b[:, :, 0] = g_se * bc.t_outside_k
    b[:, :, -1] = g_si * bc.t_inside_k

    # S^T A S with S the orthonormal basis of mirror-symmetric fields (weight
    # 1/sqrt(k) on each of a class's k images): a face between classes r and c
    # carries the conductance of all its images times w_r w_c, which leaves
    # -g sqrt(k_r / k_c) along an axis; a face between a cell and its own
    # mirror image carries no flux and drops out of the diagonal.  Band j of
    # the DIA data holds A[i, i + offset_j] at column i + offset_j, so the
    # lower band of a neighbour pair sits at the lower cell and the upper
    # band at the upper one; ascending offsets make each row sum in column
    # order, as a CSR product would.
    bands = np.zeros((7, mx, my, nz))
    bands[3] = diag
    if 2 * mx == grid.nx:
        bands[3, -1] -= gx[-1, :my]
    if 2 * my == grid.ny:
        bands[3, :, -1] -= gy[:mx, -1]
    bands[0, :-1] = bands[6, 1:] = -gx[: mx - 1, :my] * np.sqrt(kx[:-1] / kx[1:])[:, None, None]
    bands[1, :, :-1] = bands[5, :, 1:] = -gy[:mx, : my - 1] * np.sqrt(ky[:-1] / ky[1:])[None, :, None]
    bands[2, :, :, :-1] = bands[4, :, :, 1:] = -gz[:mx, :my]
    offsets = [-my * nz, -nz, -1, 0, 1, nz, my * nz]
    matrix = sp.dia_array((bands.reshape(7, n), offsets), shape=(n, n))

    root_k = np.sqrt(kx[:, None, None] * ky[None, :, None])
    images = kx[:, None] * ky[None, :]
    return _FoldedSystem(
        matrix=matrix,
        b=(root_k * b).ravel(),
        x0=(root_k * _layered_profile(lam[:mx, :my], area_z[:mx, :my, 0] * images, dz, bc)).ravel(),
        diag=diag.ravel(),
        root_k=root_k,
        g_out=images * g_se,
        g_in=images * g_si,
        qx=qx,
        qy=qy,
    )


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Inner product summed in this thread; a threaded BLAS dot moves its last bits with the thread count."""
    return np.einsum("i,i->", u, v)


def _jacobi_pcg(matrix, b, x, diag, rtol, max_iter, balanced=lambda x: True):
    """Jacobi-preconditioned conjugate gradients on ``x``, in place.

    The recurrence and stopping test of ``scipy.sparse.linalg.cg``: stop
    before a step once ||r|| < rtol ||b||, with z = r / diag, and, past
    that test, once ``balanced(x)`` holds too; until then the recurrence
    runs on unchanged.  ``p`` starts at zero and ``rho_prev`` at 1, so the
    first update gives p = z exactly.  Every inner product goes through
    ``_dot``.  Returns ``(info, iterations)``: info is 0 when both tests
    passed and ``max_iter`` when they did not within ``max_iter`` iterations.
    """
    atol = rtol * math.sqrt(_dot(b, b))
    r = b - matrix @ x
    z, p, tmp = np.empty_like(x), np.zeros_like(x), np.empty_like(x)
    rho_prev = 1.0
    for iteration in range(max_iter):
        if math.sqrt(_dot(r, r)) < atol and balanced(x):
            return 0, iteration
        np.divide(r, diag, out=z)
        rho = _dot(r, z)
        p *= rho / rho_prev
        p += z
        q = matrix @ p
        alpha = rho / _dot(p, q)
        np.multiply(p, alpha, out=tmp)
        x += tmp
        np.multiply(q, alpha, out=tmp)
        r -= tmp
        rho_prev = rho
    return max_iter, max_iter


def _layered_profile(lam, areas, dz, bc: ThermalBoundary) -> np.ndarray:
    """1-D temperature profile through area-averaged slab conductivities.

    ``lam`` is (x, y, z) over the lateral columns and ``areas`` (x, y) the
    area each column stands for: all its mirror images on a folded cell.
    """
    lam_eff = np.einsum("xy,xyz->z", areas, lam) / areas.sum()
    r_slab = dz / lam_eff
    r_cum = bc.r_se + np.cumsum(r_slab) - 0.5 * r_slab  # resistance up to cell centres
    r_tot = bc.r_se + np.sum(r_slab) + bc.r_si
    return bc.t_outside_k + (bc.t_inside_k - bc.t_outside_k) * r_cum / r_tot


def write_vtk(grid: VoxelGrid, temperature: np.ndarray, path):
    """Legacy-ASCII rectilinear-grid VTK export of cell temperatures."""
    t = np.asarray(temperature)
    if t.shape != (grid.nx, grid.ny, grid.nz):
        raise ThermalError("temperature shape does not match the grid")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# vtk DataFile Version 3.0\nsignalwall temperature field\nASCII\n")
        fh.write("DATASET RECTILINEAR_GRID\n")
        fh.write(f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} {grid.nz + 1}\n")
        for label, nodes in (
            ("X_COORDINATES", grid.x_nodes_mm),
            ("Y_COORDINATES", grid.y_nodes_mm),
            ("Z_COORDINATES", grid.z_nodes_mm),
        ):
            fh.write(f"{label} {len(nodes)} float\n")
            fh.write(" ".join(f"{v:.6f}" for v in nodes) + "\n")
        fh.write(f"CELL_DATA {grid.n_cells}\n")
        fh.write("SCALARS temperature_K float 1\nLOOKUP_TABLE default\n")
        for value in t.transpose(2, 1, 0).ravel():
            fh.write(f"{value:.6f}\n")
