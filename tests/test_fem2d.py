"""Mesh generation, strain operators, and the file formats."""

import numpy as np
import pytest

from fmopt import fem2d, model
from fmopt.fem2d import LoadSpec, MeshSpec, build_instance, element_matrices
from fmopt.model import InvalidInstance, MaterialState, ProblemInstance
from fmopt.oracle import compliances_reference, dense_stiffness_reference
from conftest import make_synthetic_instance, random_feasible_blocks


def renumbered(inst, perm):
    """The same problem with free DOF j renamed perm[j]."""
    order = np.argsort(perm[inst.cols_packed], axis=1)
    cols = np.take_along_axis(perm[inst.cols_packed], order, axis=1)
    B = np.take_along_axis(inst.B_packed, order[:, None, None, :], axis=3)
    loads = np.empty_like(inst.loads)
    loads[:, perm] = inst.loads
    return ProblemInstance(
        cols, B, loads, inst.rho_l, inst.rho_u, inst.r, inst.gamma, inst.eta, inst.nu
    )


def hand_B(xi, eta, hx=1.0, hy=1.0):
    """Independent transcription: 3x8 strain matrix of one hx-by-hy element.

    Physical gradients are 2/hx and 2/hy times the reference gradients.
    Node order CCW from lower-left; DOFs node-major (x, y).
    """
    dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    gx, gy = (2.0 / hx) * dxi, (2.0 / hy) * deta
    B = np.zeros((3, 8))
    for a in range(4):
        B[0, 2 * a] = gx[a]
        B[1, 2 * a + 1] = gy[a]
        B[2, 2 * a] = 0.5 * gy[a]
        B[2, 2 * a + 1] = 0.5 * gx[a]
    return B


class TestElementMatrices:
    def test_unit_square_hand_computed(self):
        spec = MeshSpec(nx=1, ny=1, lx=1.0, ly=1.0)
        node_ids, B_local = element_matrices(spec)
        assert node_ids.shape == (1, 4)
        a = 1.0 / np.sqrt(3.0)
        pts = [(-a, -a), (a, -a), (a, a), (-a, a)]
        for ig, (xi, eta) in enumerate(pts):
            np.testing.assert_allclose(B_local[0, ig], hand_B(xi, eta), atol=1e-14)

    def test_one_element_left_fixed_dimensions(self, tiny_mesh_instance):
        inst = tiny_mesh_instance
        assert inst.N == 4 and inst.m == 1 and inst.k == 3 and inst.nig == 4
        assert inst.n_loc == 4
        assert inst.cols_packed.shape == (1, 4) and inst.B_packed.shape == (1, 4, 3, 4)

    def test_gram_form_is_psd(self, rng):
        spec = MeshSpec(nx=3, ny=2, lx=1.5, ly=1.0)
        node_ids, B_local = element_matrices(spec)
        for i in range(node_ids.shape[0]):
            gram = np.einsum("lka,lkb->ab", B_local[i], B_local[i])
            np.testing.assert_allclose(gram, gram.T, atol=1e-14)
            assert np.linalg.eigvalsh(gram)[0] >= -1e-12

    def test_rigid_translation_in_strain_nullspace(self):
        # constant displacement before boundary fixing: derivatives kill it
        spec = MeshSpec(nx=2, ny=1, lx=2.0, ly=1.0)
        node_ids, B_local = element_matrices(spec)
        for direction in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            u_local = np.tile(direction, 4)  # same motion at all 4 nodes
            for i in range(node_ids.shape[0]):
                strains = np.einsum("lka,a->lk", B_local[i], u_local)
                np.testing.assert_allclose(strains, 0.0, atol=1e-13)


def transcribed_build(spec):
    """Independent transcription of ``build_instance``, one element at a time.

    Returns ``(cols, B, loads)`` packed as ``ProblemInstance`` stores them:
    each element keeps its free columns sorted by DOF, and narrower rows are
    padded with zero columns on DOF 0 up to the widest row.  Loads must use
    explicit node tuples.
    """
    nx, ny = spec.nx, spec.ny
    a = 1.0 / np.sqrt(3.0)
    template = np.stack([hand_B(xi, eta, spec.lx / nx, spec.ly / ny)
                         for xi, eta in ((-a, -a), (a, -a), (a, a), (-a, a))])
    fixed = {
        "left": [iy * (nx + 1) for iy in range(ny + 1)],
        "right": [iy * (nx + 1) + nx for iy in range(ny + 1)],
        "bottom": list(range(nx + 1)),
        "top": [ny * (nx + 1) + ix for ix in range(nx + 1)],
    }[spec.fixed_edge]
    x_dof = {}  # free node -> its x DOF; the y DOF follows
    for node in range((nx + 1) * (ny + 1)):
        if node not in fixed:
            x_dof[node] = 2 * len(x_dof)
    supports = []  # per element: sorted (free DOF, local column) pairs
    for ey in range(ny):
        for ex in range(nx):
            n1 = ey * (nx + 1) + ex
            pairs = []
            for corner, node in enumerate((n1, n1 + 1, n1 + nx + 2, n1 + nx + 1)):
                if node in x_dof:
                    pairs += [(x_dof[node], 2 * corner), (x_dof[node] + 1, 2 * corner + 1)]
            supports.append(sorted(pairs))
    width = max(len(pairs) for pairs in supports)
    cols = np.zeros((nx * ny, width), dtype=np.int64)
    B = np.zeros((nx * ny, 4, 3, width))
    for i, pairs in enumerate(supports):
        for c, (dof, local) in enumerate(pairs):
            cols[i, c] = dof
            B[i, :, :, c] = template[:, :, local]
    loads = np.zeros((len(spec.loads), 2 * len(x_dof)))
    for j, load in enumerate(spec.loads):
        for node in load.nodes:
            loads[j, x_dof[node]] += load.force[0] / len(load.nodes)
            loads[j, x_dof[node] + 1] += load.force[1] / len(load.nodes)
    return cols, B, loads


class TestBuildInstance:
    @pytest.mark.parametrize("fixed_edge", ["left", "right", "bottom", "top"])
    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 3), (3, 1), (4, 3)])
    def test_packed_arrays_match_transcription(self, fixed_edge, nx, ny):
        # two load cases: the whole edge opposite the fixed one, and its last node
        grid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
        opposite = {"left": grid[:, -1], "right": grid[:, 0],
                    "bottom": grid[-1, :], "top": grid[0, :]}[fixed_edge]
        loads = (LoadSpec(tuple(opposite.tolist()), (0.3, -1.0)),
                 LoadSpec((int(opposite[-1]),), (1.0, 0.25)))
        spec = MeshSpec(nx=nx, ny=ny, lx=2.0 * nx, ly=1.5 * ny, fixed_edge=fixed_edge,
                        loads=loads)
        inst = build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        cols, B, loads = transcribed_build(spec)
        assert inst.n_loc == cols.shape[1]
        np.testing.assert_array_equal(inst.cols_packed, cols)
        np.testing.assert_array_equal(inst.B_packed, B)
        np.testing.assert_array_equal(inst.loads, loads)

    def test_free_dof_count(self):
        spec = MeshSpec(nx=3, ny=2, lx=3.0, ly=2.0)
        inst = build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        free_nodes = (3 + 1) * (2 + 1) - (2 + 1)  # left column fixed
        assert inst.N == 2 * free_nodes
        assert inst.m == 6

    def test_assembled_matches_model_operator(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05)
        A = dense_stiffness_reference(inst, blocks)
        np.testing.assert_allclose(A, A.T, atol=1e-12)
        from fmopt.model import apply_A

        E = MaterialState.from_dense(blocks)
        v = rng.normal(0, 1, inst.N)
        np.testing.assert_allclose(apply_A(inst, E, v), A @ v, atol=1e-12)

    def test_stiffness_positive_definite_after_fixing(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05)
        A = dense_stiffness_reference(inst, blocks)
        assert np.linalg.eigvalsh(A)[0] > 0

    def test_load_on_fixed_edge_rejected(self):
        spec = MeshSpec(nx=2, ny=2, loads=(LoadSpec("left_edge", (0.0, -1.0)),))
        with pytest.raises(InvalidInstance):
            build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)

    def test_load_distribution_sums_to_force(self):
        spec = MeshSpec(nx=2, ny=2, loads=(LoadSpec("right_edge", (0.0, -1.0)),))
        inst = build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        assert inst.loads[0].sum() == pytest.approx(-1.0)

    def test_explicit_node_selector(self):
        spec = MeshSpec(nx=2, ny=2, loads=(LoadSpec((8,), (0.0, -1.0)),))
        inst = build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        assert np.count_nonzero(inst.loads[0]) == 1


class TestReferenceCompliance:
    def test_matches_dense_lu_oracle(self, rng, tiny_mesh_instance):
        # the banded Cholesky in RCM order against dense LU: a one-element mesh,
        # a mesh with L=3, ragged element supports, and both with their DOFs
        # renumbered at random so that the ordering has real work to do
        spec = MeshSpec(nx=5, ny=3, lx=5.0, ly=3.0, loads=(
            LoadSpec("right_edge", (0.0, -1.0)),
            LoadSpec("bottom_right", (1.0, 0.0)),
            LoadSpec("top_right", (0.5, 0.5)),
        ))
        mesh = build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        ragged = make_synthetic_instance(rng, m=8, N=12, n_loc=[3, 4, 5, 6, 7, 8, 9, 10])
        cases = (
            tiny_mesh_instance,
            mesh,
            renumbered(mesh, rng.permutation(mesh.N)),
            ragged,
            renumbered(ragged, rng.permutation(ragged.N)),
        )
        for inst in cases:
            blocks = random_feasible_blocks(rng, inst.m, 3, 0.4, 2.5, 0.1)
            assert np.linalg.eigvalsh(dense_stiffness_reference(inst, blocks))[0] > 1e-6
            ref = compliances_reference(inst, blocks)
            np.testing.assert_allclose(model.compliances(inst, blocks), ref, rtol=1e-10)
            got = fem2d.reference_compliance(inst, MaterialState.from_dense(blocks))
            np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_instance_layout_matches_a_fresh_build_bitwise(self, rng):
        # the band layout is built once per instance and kept: it equals a
        # fresh build, and no caller can write to it
        spec = MeshSpec(nx=6, ny=3, lx=6.0, ly=3.0, loads=(
            LoadSpec("right_edge", (0.0, -1.0)),
            LoadSpec("top_right", (0.5, 0.5)),
        ))
        mesh = build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        inst = renumbered(mesh, rng.permutation(mesh.N))
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.4, 2.5, 0.1)
        comp = fem2d.reference_compliance(inst, MaterialState.from_dense(blocks))
        np.testing.assert_allclose(comp, compliances_reference(inst, blocks), rtol=1e-10)
        rebuilt = ProblemInstance(inst.cols_packed, inst.B_packed, inst.loads, inst.rho_l,
                                  inst.rho_u, inst.r, inst.gamma, inst.eta)
        kept, fresh = inst.band_layout, rebuilt.band_layout
        assert inst.band_layout is kept and kept[2] == fresh[2]
        for got, want in zip(kept[:2], fresh[:2]):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable

    def test_scaling_inverse_in_material(self, rng, small_mesh_instance):
        inst = small_mesh_instance
        blocks = random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05)
        base = fem2d.reference_compliance(inst, MaterialState.from_dense(blocks))
        half = fem2d.reference_compliance(inst, MaterialState.from_dense(0.5 * blocks))
        np.testing.assert_allclose(half, 2.0 * base, rtol=1e-10)

    def test_zero_load_zero_compliance(self, rng):
        spec = MeshSpec(nx=2, ny=2, loads=(LoadSpec("right_edge", (0.0, 0.0)),))
        inst = build_instance(spec, 0.3, 3.0, 0.05, 5.0, 8.0)
        E = MaterialState.from_dense(random_feasible_blocks(rng, inst.m, 3, 0.3, 3.0, 0.05))
        comp = fem2d.reference_compliance(inst, E)
        np.testing.assert_allclose(comp, 0.0, atol=1e-14)


class TestFileFormats:
    def test_instance_roundtrip_bit_exact(self, tmp_path, rng, small_mesh_instance):
        ragged = make_synthetic_instance(rng, m=4, N=11, L=3, n_loc=(2, 5, 3, 4))
        # no nonzero entries at all, so no column support (n_loc 0)
        zero_operator = ProblemInstance(np.zeros((2, 0), dtype=np.int64), np.zeros((2, 1, 3, 0)),
                                        np.ones((1, 3)), 0.4, 2.0, 0.1, 2.0, 3.0)
        for n, inst in enumerate((small_mesh_instance, ragged, zero_operator)):
            p1 = tmp_path / f"a{n}.fmo"
            p2 = tmp_path / f"b{n}.fmo"
            fem2d.write_instance(inst, p1)
            again = fem2d.read_instance(p1)
            fem2d.write_instance(again, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert again.m == inst.m and again.N == inst.N and again.L == inst.L
            np.testing.assert_array_equal(again.loads, inst.loads)
            np.testing.assert_array_equal(again.rho_l, inst.rho_l)
            assert again.n_loc == inst.n_loc
            np.testing.assert_array_equal(again.cols_packed, inst.cols_packed)
            np.testing.assert_array_equal(again.B_packed, inst.B_packed)
            for name in ("r", "gamma", "eta", "nu"):
                assert getattr(again, name) == getattr(inst, name)

    def test_instance_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.fmo"
        p.write_text("not-an-instance\n")
        with pytest.raises(InvalidInstance):
            fem2d.read_instance(p)

    def test_state_roundtrip_bit_exact(self, tmp_path, rng):
        state = MaterialState.from_dense(rng.normal(0, 1, (3, 3, 3)))
        p1 = tmp_path / "s1.fmo"
        p2 = tmp_path / "s2.fmo"
        fem2d.write_state(state, p1)
        again = fem2d.read_state(p1)
        fem2d.write_state(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(state.dense(), again.dense())

    def test_rows_format_as_repr_of_each_element(self, tmp_path, rng):
        # rows are formatted from tolist() in bulk; the files are those of
        # repr(float(x)) applied to each numpy element, as written before
        special = [0.0, -0.0, 1.0 / 3.0, 5e-324, 2.2250738585072014e-308, 1e22, -1e-7, 0.1,
                   123456789.125, 1e300]
        values = rng.normal(0, 1, 60) * 10.0 ** rng.integers(-150, 150, 60)
        values[:len(special)] = special

        def old_row(row):
            return " ".join(repr(float(v)) for v in row)

        state = MaterialState.from_dense(values[:54].reshape(6, 3, 3))
        path = tmp_path / "s.fmo"
        fem2d.write_state(state, path)
        old = [fem2d.STATE_MAGIC, "dims m=6 k=3"]
        for i, block in enumerate(state.dense()):
            old += [f"block {i}"] + [old_row(row) for row in block]
        assert path.read_text() == "\n".join(old) + "\n"

        base = make_synthetic_instance(rng, m=4, N=11, L=2)
        loads = np.concatenate([values[:12], values[-10:]]).reshape(2, 11)
        rho_l = 0.3 + 0.1 * rng.random(4)
        rho_l[0] = 0.1 + 0.2  # 0.30000000000000004
        inst = ProblemInstance(base.cols_packed, base.B_packed, loads, rho_l, 2.0 + rng.random(4),
                               0.1, 4.0, 6.0)
        path = tmp_path / "i.fmo"
        fem2d.write_instance(inst, path)
        lines = path.read_text().splitlines()
        assert lines[6] == "rho_l " + old_row(inst.rho_l)
        assert lines[7] == "rho_u " + old_row(inst.rho_u)
        for j in range(inst.L):
            at = lines.index(f"load {j}")
            assert lines[at + 1] == old_row(inst.loads[j])
        triplets = [line.split() for line in lines[8:lines.index("load 0")] if line[0] != "B"]
        elem, point, rows, local = np.nonzero(inst.B_packed)
        assert [t[2] for t in triplets] == [
            repr(float(v)) for v in inst.B_packed[elem, point, rows, local]
        ]

    @pytest.mark.parametrize("case,line", [
        ("truncated", 10),
        ("index_out_of_range", 7),
        ("nan_entry", 4),
        ("duplicate_block", 7),
        ("negative_index", 7),
        ("asymmetric_block", 3),
        ("non_ascii_index", 3),
        ("underscore_value", 4),
    ])
    def test_state_reader_rejects_malformed(self, tmp_path, rng, case, line):
        path = tmp_path / "s.fmo"
        fem2d.write_state(MaterialState.from_dense(rng.normal(0, 1, (2, 3, 3))), path)
        lines = path.read_text().splitlines()  # header, dims, then 4 lines per block
        if case == "truncated":
            del lines[-1]
        elif case == "index_out_of_range":
            lines[6] = "block 2"
        elif case == "nan_entry":
            lines[3] = "nan " + lines[3].split(" ", 1)[1]
        elif case == "duplicate_block":
            lines[6] = "block 0"
        elif case == "negative_index":
            lines[6] = "block -1"
        elif case == "non_ascii_index":
            lines[2] = "block \u0660"  # ARABIC-INDIC DIGIT ZERO: int() reads 0
        elif case == "underscore_value":
            lines[3] = "1_0.0 " + lines[3].split(" ", 1)[1]  # float() reads 10.0
        else:
            row = lines[3].split()
            lines[3] = " ".join([row[0], repr(float(row[1]) + 1.0), row[2]])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInstance, match=f"line {line}:"):
            fem2d.read_state(path)

    @pytest.mark.parametrize("case,edit,line", [
        # B headers start on lines 9, 18, 27 and 36 (8 entries each); the
        # load header is line 45 and its row line 46
        ("element_out_of_range", {9: "B 1 0 8"}, 9),
        ("point_out_of_range", {9: "B 0 4 8"}, 9),
        ("negative_element", {9: "B -1 0 8"}, 9),
        ("duplicate_header", {18: "B 0 0 8"}, 18),
        ("row_out_of_range", {10: "3 0 0.5"}, 10),
        ("negative_row", {10: "-1 0 0.5"}, 10),
        ("column_out_of_range", {10: "0 4 0.5"}, 10),
        ("malformed_entry", {10: "0 x 0.5"}, 10),
        ("load_out_of_range", {45: "load 1"}, 45),
        ("negative_load", {45: "load -1"}, 45),
        ("short_load_row", {46: "0.0 0.0 0.0"}, 46),
        ("unknown_parameter", {4: "param gama 5.0"}, 4),
        ("truncated", {46: None}, 46),
        ("trailing_content", {47: "load 0"}, 47),
        ("repeated_entry", {10: "0 0 0.5", 11: "0 0 123.0"}, 11),
        ("blank_entry", {10: ""}, 10),
        ("commented_entry", {10: "0 0 0.5 # note"}, 10),
        ("fractional_row", {10: "0.0 0 0.5"}, 10),
        # B entries are read as np.loadtxt reads them, not as int and float do
        ("non_ascii_digit", {10: "0 0 \u0661"}, 10),
        ("underscore_in_value", {10: "0 0 0.7886_751345948129"}, 10),
        # the first block takes the next header as its ninth entry
        ("overstated_nnz", {9: "B 0 0 9"}, 18),
        # the first bad line in file order is named, entry or header
        ("entry_before_header_error", {10: "0 x 0.5", 18: "B 0 0 8"}, 10),
        # a non-finite value is named with its line, not left to the instance check
        ("nan_entry", {10: "0 0 nan"}, 10),
        ("inf_entry", {10: "0 0 inf"}, 10),
        ("overflowing_entry", {10: "0 0 1e999"}, 10),
        # the dims, param, rho, header and load numbers follow the B entries'
        # token rule, and real values must be finite, each refusal naming its line
        ("non_ascii_dims", {2: "dims m=\u0661 k=3 N=4 L=1 nig=4"}, 2),
        ("underscore_in_dims", {2: "dims m=1 k=3 N=4 L=1 nig=4_0"}, 2),
        ("non_ascii_param", {4: "param gamma \u0661"}, 4),
        ("nan_param", {4: "param gamma nan"}, 4),
        ("underscore_in_rho", {7: "rho_l 0.3_0"}, 7),
        ("inf_rho", {8: "rho_u inf"}, 8),
        ("non_ascii_load_index", {45: "load \u0660"}, 45),
        ("underscore_in_load", {46: "0.0 -0.5 0.0 -0.5_0"}, 46),
        ("overflowing_load", {46: "0.0 -0.5 0.0 1e999"}, 46),
        ("non_ascii_header", {9: "B 0 0 \u0668"}, 9),
        ("underscore_in_header", {18: "B 0 0_1 8"}, 18),
    ])
    def test_instance_reader_rejects_malformed(self, tmp_path, tiny_mesh_instance, capsys,
                                               case, edit, line):
        from fmopt import cli

        path = tmp_path / "bad.fmo"
        fem2d.write_instance(tiny_mesh_instance, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 46 and lines[44] == "load 0"
        for number, text in edit.items():
            if text is None:
                del lines[number - 1]
            elif number > len(lines):
                lines.append(text)
            else:
                lines[number - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInstance, match=f"line {line}:"):
            fem2d.read_instance(path)
        rc = cli.main(["--instance", str(path), "--iters", "2", "--out", str(tmp_path / "r")])
        assert rc == 2
        assert f"line {line}:" in capsys.readouterr().err

    def test_mesh_spec_validation(self):
        with pytest.raises(InvalidInstance):
            MeshSpec(nx=0, ny=1)
        with pytest.raises(InvalidInstance):
            MeshSpec(nx=1, ny=1, fixed_edge="diagonal")
        with pytest.raises(InvalidInstance):
            MeshSpec(nx=1, ny=1, loads=())
