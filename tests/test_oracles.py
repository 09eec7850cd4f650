import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nupolar
from nupolar.codec import encode
from nupolar.construction import build_mother_code, build_shortened_code, evolve_reliabilities
from nupolar.numerics import nupga_pair, phi, phi_inv
from oracles import (
    DENSE_MAX_N,
    dense_cw_pattern,
    dense_encode,
    exact_bec_channels,
    known_bit_ga_channels,
    kronecker_generator,
    ml_decode,
    ml_codeword_scores,
)


class TestDenseEncode:
    def test_base_matrix(self):
        gen = kronecker_generator(2)
        assert gen.tolist() == [[1, 0], [1, 1]]

    def test_fourth_row_all_ones(self):
        assert kronecker_generator(4)[3].tolist() == [1, 1, 1, 1]

    def test_cross_checks_butterfly(self):
        rng = np.random.default_rng(0)
        for spec in (build_mother_code(16, 9), build_shortened_code(32, 24, 10, "RQUP")):
            msgs = rng.integers(0, 2, (25, spec.payload_len), dtype=np.uint8)
            np.testing.assert_array_equal(dense_encode(spec, msgs), encode(spec, msgs))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            kronecker_generator(2048)
        with pytest.raises(ValueError):
            dense_cw_pattern(2048, 1500)


class TestMlDecode:
    def test_noiseless(self):
        rng = np.random.default_rng(1)
        spec = build_mother_code(8, 4)
        msg = rng.integers(0, 2, 4, dtype=np.uint8)
        llr = 10.0 * (1.0 - 2.0 * encode(spec, msg))
        np.testing.assert_array_equal(ml_decode(spec, llr), msg)

    def test_single_bit_is_a_sign_test(self):
        spec = build_mother_code(4, 1)
        rng = np.random.default_rng(2)
        cw1 = dense_encode(spec, np.array([1], np.uint8))
        for _ in range(100):
            llr = rng.normal(0, 2, 4)
            # the aggregated LLR over the positions where the two candidate
            # codewords differ decides the bit
            stat = llr[cw1.astype(bool)].sum()
            expect = 0 if stat >= 0 else 1
            assert ml_decode(spec, llr)[0] == expect

    def test_scores_are_exhaustive(self):
        spec = build_mother_code(8, 3)
        msgs, cws, scores = ml_codeword_scores(spec, np.zeros(8))
        assert msgs.shape == (8, 3)
        assert cws.shape == (8, 8)
        assert scores.shape == (8,)

    def test_budget(self):
        spec = build_mother_code(2048 // 2, 20)
        with pytest.raises(ValueError):
            ml_decode(spec, np.zeros(1024))

    def test_frame_length(self):
        spec = build_mother_code(8, 3)
        for oracle in (ml_decode, ml_codeword_scores):
            with pytest.raises(ValueError, match="frame length"):
                oracle(spec, np.zeros(7))


class TestExactBec:
    def test_uniform_pair(self):
        np.testing.assert_allclose(exact_bec_channels(np.array([0.5, 0.5])), [0.75, 0.25])

    def test_perfect_channels_stay_perfect(self):
        np.testing.assert_array_equal(exact_bec_channels(np.zeros(16)), np.zeros(16))

    def test_capacity_sum_conserved(self):
        rng = np.random.default_rng(3)
        eps = rng.uniform(0, 1, 128)
        out = exact_bec_channels(eps)
        assert np.sum(1 - out) == pytest.approx(np.sum(1 - eps), abs=1e-9)

    def test_polarizes_to_extremes(self):
        out = exact_bec_channels(np.full(1024, 0.5))
        frac_extreme = np.mean((out < 0.01) | (out > 0.99))
        assert frac_extreme > 0.6

    def test_recursion_cap(self):
        with pytest.raises(ValueError, match="recursion capped"):
            exact_bec_channels(np.full(2 * DENSE_MAX_N, 0.5))


class TestKnownBitGa:
    def test_known_input_on_either_side(self):
        # f(a, inf) = a lands on the lower output, g(a, inf) = inf (known)
        # on the upper one, whichever input is the known bit.
        for known in ([False, True], [True, False]):
            means, out_known = known_bit_ga_channels([3.0, 3.0], known)
            assert means.tolist() == [3.0, 0.0]
            assert out_known.tolist() == [False, True]

    def test_both_known_stay_known(self):
        means, out_known = known_bit_ga_channels([1.0, 2.0], [True, True])
        assert means.tolist() == [0.0, 0.0]
        assert out_known.tolist() == [True, True]

    def test_size_four_example_by_hand(self):
        # Known bit at position 3: stage one gives (f(4, 4), 8) and (4, known);
        # stage two gives f(f(4, 4), 4), f(8, known) = 8, f(4, 4) + 4, known.
        m1, p1 = nupga_pair(4.0, 4.0, "sum")
        means, known = known_bit_ga_channels([4.0, 4.0, 4.0, 4.0], [False, False, False, True])
        arg = 1.0 - (1.0 - phi(m1)) * (1.0 - phi(4.0))
        np.testing.assert_allclose(means, [phi_inv(arg), p1, m1 + 4.0, 0.0], rtol=1e-12)
        assert known.tolist() == [False, False, False, True]

    def test_no_known_bits_is_plain_ga(self):
        for g_mode in ("sum", "product"):
            means, known = known_bit_ga_channels(np.full(64, 4.0), np.zeros(64, dtype=bool), g_mode)
            assert not known.any()
            np.testing.assert_array_equal(means, evolve_reliabilities(np.full(64, 4.0), g_mode))

    def test_zero_mean_is_an_erasure_not_a_known_bit(self):
        # A live mean of 0 carries no information: the check node gives 0
        # and the sum-mode variable node gives the partner's mean.
        means, known = known_bit_ga_channels([5.0, 0.0], [False, False])
        assert means.tolist() == [0.0, 5.0]
        assert not known.any()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            known_bit_ga_channels([1.0, 2.0, 3.0], [False] * 3)
        with pytest.raises(ValueError):
            known_bit_ga_channels([1.0, 2.0], [False])
        with pytest.raises(ValueError):
            known_bit_ga_channels([1.0, 2.0], [False, False], "max")


PACKAGE = Path(nupolar.__file__).resolve().parent
TEST_MODULES = {path.stem for path in Path(__file__).resolve().parent.glob("*.py")}


class TestPackageBoundary:
    """``nupolar`` ships library code; the references of the tests stay here."""

    def test_no_library_module_imports_the_oracles_or_the_tests(self):
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
                else:
                    continue
                for module in modules:
                    parts = module.split(".")
                    assert "oracles" not in parts, f"{path.name} imports {module}"
                    assert parts[0] not in TEST_MODULES, f"{path.name} imports {module}"

    def test_importing_the_package_leaves_the_oracles_unloaded(self):
        code = "import sys, nupolar; print('nupolar.oracles' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
        assert run.stdout == "False\n"

    def test_the_library_oracles_are_the_benchmark_encoder_alone(self):
        # The names its own statements bind: its functions, classes and assignments.
        body = ast.parse((PACKAGE / "oracles.py").read_text()).body
        names = {node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        names |= {t.id for node in body if isinstance(node, ast.Assign) for t in node.targets}
        names |= {node.target.id for node in body if isinstance(node, ast.AnnAssign)}
        assert names == {"DENSE_MAX_N", "kronecker_generator", "dense_encode"}
