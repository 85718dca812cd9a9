"""Mutation gate: every mutant in MUTANTS must be killed by its tests.

A mutant is a source file, an exact snippet of it, the snippet's
replacement, and the pytest node ids expected to fail on the result.
The runner copies the repository (without .git) to a temporary
directory and runs the union of all listed tests there once, on the
unmutated code, where they must pass. Then, for each mutant, it writes
the mutant, runs that mutant's own tests, where they must fail, and
restores the file. Tests run with PYTHONPATH=src and
PYTHONDONTWRITEBYTECODE=1, so no stale bytecode of an earlier mutant is
imported.

A mutant is killed when a listed test fails (pytest exit status 1) or
the run times out. The run fails when a snippet does not occur exactly
once in its file (the table went stale), when a mutant does not parse,
when the tests fail on the unmutated code, when pytest ends with any
other status (a collection error, say), or when a mutant survives.

Usage, from any directory (standard library and pytest only):
    python3 tools/mutate.py
Exit status 0 when every mutant is killed, 1 otherwise.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


SLOPE = "src/slopekit/slope.py"
SPACE = "src/slopekit/space.py"
CRITICAL = "src/slopekit/critical.py"
DETERMINATION = "src/slopekit/determination.py"
DESCENT = "src/slopekit/descent.py"
RECONSTRUCT = "src/slopekit/reconstruct.py"
IO = "src/slopekit/io.py"
CLI = "src/slopekit/cli.py"
GALLERY = "src/slopekit/gallery.py"
TESTING = "src/slopekit/testing.py"
GUARD_REJECTS = "tests/test_csv_fast.py::test_guard_rejects"
INTEGER_RULE = "tests/test_inputs.py::test_integer_inputs_follow_one_rule"

MUTANTS = (
    # The slope kernel.
    Mutant("kernel-reversed-lengths", SLOPE,
           "0.0) / space.w\n", "0.0) / space.w[::-1]\n",
           ("tests/test_slope.py::test_random_graph_matches_brute_force",)),
    Mutant("kernel-sum-not-max", SLOPE,
           "np.maximum.at(out.T, space.src, q.T)", "np.add.at(out.T, space.src, q.T)",
           ("tests/test_slope.py::test_random_graph_matches_brute_force",)),
    Mutant("cap-not-applied", SLOPE,
           "    infinite = out > cap\n", "    infinite = out > math.inf\n",
           ("tests/test_kernel.py::test_quotients_above_a_small_cap",)),
    # Critical sets and floors.
    Mutant("floor-first-not-least", CRITICAL,
           "best = min((fz - gz for fz, gz in pairs if fz <= fx), default=None)",
           "best = next((fz - gz for fz, gz in pairs if fz <= fx), None)",
           ("tests/test_floor.py::test_comparison_floor_matches_reference_loop",)),
    Mutant("critical-strict-tolerance", CRITICAL,
           "    return slopes.values <= tol\n", "    return slopes.values < tol\n",
           ("tests/test_critical.py::test_constant_field_all_critical_at_zero_tol",)),
    # Spaces.
    Mutant("profile-ball-open", SLOPE,
           "(dist <= delta)", "(dist < delta)",
           ("tests/test_space.py::test_profile_at_the_longest_edge_bounds_the_slope",)),
    Mutant("build-takes-string-lengths", SPACE,
           "        if not _number(type(c)):\n",
           "        if isinstance(c, (bool, np.bool_)):\n",
           ("tests/test_knobs.py::test_build_graph_rejects_string_lengths",)),
    Mutant("build-fast-path-takes-bools", SPACE,
           "all(map(_number, set(map(type, w))))",
           "all(map(_number, set(map(type, w)) - {bool}))",
           ("tests/test_knobs.py::test_build_graph_rejects_bool_lengths",)),
    Mutant("build-array-path-takes-strings", SPACE,
           "            if uv is not None and all(map(_number, set(map(type, w)))):\n",
           "            if uv is not None:\n",
           ("tests/test_knobs.py::test_build_graph_rejects_string_lengths",)),
    Mutant("int64s-wrap-unguarded", SPACE,
           "    return None if unsigned and (out < 0).any() else out\n",
           "    return out\n",
           ("tests/test_inputs.py::test_int64_conversion_takes_int64_integers_only",)),
    Mutant("int64s-take-bools", SPACE,
           "    if not all(map(_integer, types)):\n",
           "    if not all(map(_integer, types - {bool})):\n",
           ("tests/test_kernel.py::test_first_bad_entry_raises_as_the_entry_loop_did",
            "tests/test_point_ids.py::test_reconstruct_rejects_bool_keys_among_integers")),
    Mutant("is-connected-by-distances", SPACE,
           "_sweep(space, np.zeros(space.dst.size),", "_sweep(space, space.w,",
           ("tests/test_connectivity.py::test_path_whose_distances_overflow[False]",)),
    Mutant("is-connected-by-any-point", SPACE,
           "np.zeros(1))).all())", "np.zeros(1))).any())",
           ("tests/test_connectivity.py::test_components_and_isolated_points",)),
    Mutant("sweep-lowers-seeds", SPACE,
           "step = np.where(seeded[space.dst], math.inf, inc)", "step = inc",
           ("tests/test_sweep.py::test_every_case_at_forced_widths[1]",
            "tests/test_sweep.py::test_every_case_at_forced_widths[inf]")),
    Mutant("sweep-certificate-off", SPACE,
           "bad = (v[space.dst] > v[space.src] + step).nonzero()[0]",
           "bad = np.empty(0, dtype=np.intp)",
           ("tests/test_reconstruct.py::test_sweep_order_violation_raises",)),
    Mutant("raw-constructor-builds", SPACE,
           "    def __init__(self, *args, **kwargs):\n        raise TypeError(",
           "    def __init__(self, *args, **kwargs):\n        return\n        raise TypeError(",
           ("tests/test_space.py::test_raw_constructor_is_a_type_error",)),
    # The binding rule.
    Mutant("binding-skips-critical-sets", SLOPE,
           "        if obj.space is not space:\n",
           '        if obj.space is not space and hasattr(obj, "values"):\n',
           ("tests/test_point_ids.py::test_caller_critical_set_of_another_space",)),
    Mutant("binding-by-size", SLOPE,
           "        if obj.space is not space:\n",
           "        if obj.space.n != space.n:\n",
           ("tests/test_slope.py::test_field_space_binding_enforced",)),
    Mutant("comparison-prelude-unbound", DETERMINATION,
           "    require_bound(space, f, g)\n    tol, crit_tol, cap = ",
           "    tol, crit_tol, cap = ",
           ("tests/test_point_ids.py::test_fields_of_another_space_are_rejected"
            "[comparison_principle-g]",)),
    # Knobs and the number and flag rules of `space`.
    Mutant("knob-takes-bools", SPACE,
           "    return issubclass(t, (int, np.integer)) and t is not bool\n",
           "    return issubclass(t, (int, np.integer))\n",
           ("tests/test_knobs.py::test_real_knobs_reject_bools_and_strings",
            f"{INTEGER_RULE}[neighbors]")),
    Mutant("count-takes-integral-floats", SPACE,
           "    if not (_integer(type(value)) and",
           "    if not ((_integer(type(value)) or isinstance(value, float)"
           " and value.is_integer()) and",
           (f"{INTEGER_RULE}[sample_interval-n]", f"{INTEGER_RULE}[build_graph-n]")),
    Mutant("endpoint-takes-strings", SPACE,
           "        for e in (a, b):\n",
           "        a, b = (int(e) if isinstance(e, str) else e for e in (a, b))\n"
           "        for e in (a, b):\n",
           (f"{INTEGER_RULE}[build_graph-endpoint]",)),
    Mutant("endpoint-beyond-int64", SPACE,
           "            if not -2**63 <= e < 2**63:\n", "            if False:\n",
           (f"{INTEGER_RULE}[build_graph-endpoint]",)),
    Mutant("ragged-input-unguarded", SPACE,
           "    try:\n        return np.asarray(values)\n    except ValueError:\n"
           "        return None\n",
           "    return np.asarray(values)\n",
           ("tests/test_inputs.py::test_ragged_input_is_a_shape_mismatch",)),
    Mutant("knob-overflow-read-as-finite", SPACE,
           "        return math.inf if x > 0 else -math.inf\n",
           "        return 1e308 if x > 0 else -1e308\n",
           ("tests/test_knobs.py::test_real_knobs_reject_ints_beyond_the_float_range",)),
    Mutant("list-knob-takes-a-number", SLOPE,
           "        values = iter(values)\n",
           '        values = iter(values if hasattr(values, "__iter__") else [values])\n',
           ("tests/test_inputs.py::test_list_knobs_reject_a_single_number",)),
    Mutant("prescription-takes-any-value", SPACE,
           "    if not numbers and not all(map(_number, set(map(type, values)))):",
           "    if False:",
           ("tests/test_reconstruct.py::test_prescribed_values_reject_bools_and_strings",)),
    Mutant("field-takes-any-value", SLOPE,
           'check_reals(self.values, NonFiniteFieldValue, "value at point",\n'
           "                           n=self.space.n)",
           "np.array(self.values, dtype=float)",
           ("tests/test_inputs.py::test_fields_reject_values_that_are_not_numbers",)),
    Mutant("slope-takes-any-value", SLOPE,
           'check_reals(\n            self.values, InvalidSlopeValue, "slope at point", n=self.space.n)',
           "np.array(self.values, dtype=float)",
           ("tests/test_inputs.py::test_slope_values_reject_values_that_are_not_numbers",)),
    Mutant("mask-takes-any-flags", SPACE,
           "    if mask is None or mask.ndim != 1 or mask.dtype != bool:\n",
           "    if mask is None or mask.ndim != 1:\n",
           ("tests/test_inputs.py::test_infinity_mask_wants_bools",)),
    Mutant("knob-bound-always-closed", SPACE,
           "(value > least or closed and value == least)", "value >= least",
           ("tests/test_knobs.py::test_slope_field_rejects_cap",)),
    # Validated objects stay as checked.
    Mutant("scalar-field-not-frozen", SLOPE,
           "@dataclass(frozen=True, eq=False)\nclass ScalarField:",
           "@dataclass(eq=False)\nclass ScalarField:",
           ("tests/test_api.py::test_validated_objects_cannot_be_reassigned",)),
    Mutant("slope-field-not-frozen", SLOPE,
           "@dataclass(frozen=True, eq=False)\nclass SlopeField:",
           "@dataclass(eq=False)\nclass SlopeField:",
           ("tests/test_api.py::test_validated_objects_cannot_be_reassigned",)),
    Mutant("space-not-frozen", SPACE,
           "@dataclass(frozen=True, eq=False, init=False)\nclass MetricSpaceGraph:",
           "@dataclass(eq=False, init=False)\nclass MetricSpaceGraph:",
           ("tests/test_api.py::test_validated_objects_cannot_be_reassigned",)),
    # The constant of determine and the overflow paths.
    Mutant("numpy-mean", DETERMINATION,
           "        constant = _mean(diffs)\n", "        constant = float(diffs.mean())\n",
           ("tests/test_determination.py::test_equal_differences_give_their_value_exactly",
            "tests/test_symmetries.py::"
            "test_relabelling_keeps_a_non_dyadic_constant_bit_for_bit")),
    Mutant("mean-without-equal-shortcut", DETERMINATION,
           "    if (values == first).all():\n        return first + 0.0\n", "",
           ("tests/test_determination.py::test_equal_differences_give_their_value_exactly",)),
    Mutant("residual-overflow-unchecked", DETERMINATION,
           '    _require_finite(resid, "g - f - c")\n', "",
           ("tests/test_overflow.py::test_overflowing_difference_is_a_typed_error",)),
    Mutant("spread-overflow-unchecked", DETERMINATION,
           "    if not math.isfinite(spread):\n", "    if False:\n",
           ("tests/test_overflow.py::test_overflowing_difference_is_a_typed_error",)),
    Mutant("determine-second-slope-pass", DETERMINATION,
           "    diag, sf, _, in_f, in_g, resid = _diagnose(",
           "    _slope_fields(space, cap, f)\n    diag, sf, _, in_f, in_g, resid = _diagnose(",
           ("tests/test_budgets.py::test_kernel_passes_per_public_call[determine-path3]",)),
    Mutant("witness-without-tie-window", DETERMINATION,
           "    window = _WITNESS_TIE_WINDOW * max(1.0, abs(target))\n",
           "    window = 0.0\n",
           ("tests/test_determination_masks.py::"
            "test_witness_selection_matches_loop_on_awkward_values",)),
    # Descent and reconstruction.
    Mutant("descent-takes-level-difference", DESCENT,
           "            if diff_x > fz - gz and (", "            if diff_x >= fz - gz and (",
           ("tests/test_descent.py::test_level_difference_stalls_the_step",)),
    Mutant("stalled-step-returns-start", DESCENT,
           "    if best is None:\n        raise SlopeDominanceViolated(\n",
           "    if best is None:\n        return x\n        raise SlopeDominanceViolated(\n",
           ("tests/test_descent.py::test_level_difference_stalls_the_step",)),
    Mutant("prescription-takes-bool-keys", RECONSTRUCT,
           "_int64s(keys)",
           "_int64s([int(p) if type(p) in (bool, np.bool_) else p for p in keys])",
           ("tests/test_point_ids.py::test_reconstruct_rejects_bool_keys_among_integers",)),
    Mutant("unseeded-component-unreported", RECONSTRUCT,
           "        raise EmptyCriticalSet(", "        if False: raise EmptyCriticalSet(",
           ("tests/test_reconstruct.py::test_incomplete_sweep_raises",)),
    Mutant("reconstruct-unverified", RECONSTRUCT,
           "    if off.size:\n", "    if False:\n",
           ("tests/test_reconstruct.py::test_perturbed_prescribed_slope_rejected",)),
    # The CSV reader: the guard's rules and the first bad row.
    Mutant("guard-takes-plus", IO,
           '    if not ((before_plus == ord("e")) | (before_plus == ord("E"))).all():\n',
           "    if False:\n",
           (f"{GUARD_REJECTS}[+1,2\\n-if]",)),
    Mutant("guard-takes-long-ints", IO,
           "    if widths[:, is_int].max(initial=0) > _MAX_INT_CHARS:\n", "    if False:\n",
           (f"{GUARD_REJECTS}[0000000000000000001,2\\n-if]",)),
    Mutant("guard-takes-floats-in-int-columns", IO,
           "    return not is_int[np.searchsorted(seps, marks) % k].any()\n",
           "    return True\n",
           ("tests/test_csv_fast.py::test_guard_refuses_floats_in_int_columns"
            "[1.5,2.0\\n-if]",)),
    Mutant("guard-rows-unaligned", IO,
           "    if seps.size % k or not (b[seps].reshape(-1, k) == row_end).all():\n",
           "    if seps.size % k:\n",
           (f"{GUARD_REJECTS}[1,2\\n\\n1234567890123456789,5\\n\\n-if]",)),
    Mutant("inf-cells-unmapped", IO,
           "    body = _infinities(body)\n", "",
           ("tests/test_csv_fast.py::test_flagged_slopes_read_as_infinite",)),
    Mutant("loader-names-last-bad-row", IO,
           "    row = int(np.argmax(bad))\n",
           "    row = int(bad.size - 1 - np.argmax(bad[::-1]))\n",
           ("tests/test_csv_fast.py::test_array_checks_fail_the_same_way"
            "[field-point,value\\n0,1\\n1,1e999\\n2,-1e999\\n]",)),
    # The gallery's level rule and the property suites' failure count.
    Mutant("figure-level-unchecked", GALLERY,
           '    level = check_count(level, "level", 0)\n    if which == "fig1":',
           '    if which == "fig1":',
           ("tests/test_gallery.py::test_emit_figure_data_checks_level_for_every_figure"
            "[True-True-fig1]",
            "tests/test_gallery.py::test_emit_figure_data_checks_level_for_every_figure"
            "[True-True-fig3]")),
    Mutant("lemma-suite-counts-no-failure", TESTING,
           "                failures += 1\n                if first is None:\n"
           '                    first = f"no valid step',
           "                if first is None:\n"
           '                    first = f"no valid step',
           ("tests/test_suites.py::test_a_broken_check_fails_the_suite[lemma-stay]",)),
    # CLI start-up.
    Mutant("cli-imports-traceback", CLI,
           "import argparse\nimport sys\n", "import argparse\nimport sys\nimport traceback\n",
           ("tests/test_api.py::test_cli_import_loads_exactly_the_library_modules",)),
)


def mutated(mutant: Mutant, root: Path) -> str:
    """The text of the mutant's file under `root` with the snippet
    replaced; ValueError unless the snippet occurs exactly once and the
    result parses."""
    text = (root / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    out = text.replace(mutant.old, mutant.new)
    try:
        ast.parse(out, filename=mutant.path)
    except SyntaxError as exc:
        raise ValueError(f"{mutant.name}: mutant does not parse: {exc}") from None
    return out


def run_tests(tests: tuple[str, ...], cwd: Path) -> int | None:
    """The exit status of pytest on `tests` in `cwd` (1: a test failed),
    or None on timeout."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    problems = []
    for mutant in MUTANTS:
        try:
            mutated(mutant, ROOT)
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        print("\n".join(problems))
        return 1

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="slopekit-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out"))
        union = tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests))
        status = run_tests(union, copy)
        if status != 0:
            print(f"the listed tests fail on the unmutated code (pytest status {status})")
            return 1
        for mutant in MUTANTS:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            path.write_text(mutated(mutant, copy), encoding="utf-8")
            try:
                status = run_tests(mutant.tests, copy)
            finally:
                path.write_text(original, encoding="utf-8")
            outcome = {0: "SURVIVED", 1: "killed", None: "killed (timeout)"}.get(
                status, f"pytest error {status}")
            print(f"{mutant.name}: {outcome}", flush=True)
            if not outcome.startswith("killed"):
                problems.append(mutant.name)
    seconds = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(problems)}/{len(MUTANTS)} mutants killed "
          f"in {seconds:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
