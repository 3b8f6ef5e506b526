"""Derived modules satisfy, by construction, what input modules are checked for.

A module read from input runs YDModule.check_axioms (the relation sweep over
every group element, and the grading).  A top chain module is built without
it: its action is the group's action on Phi-rows restricted to a stable span,
and its coaction is read off the engine's group degrees.  A block with a
one-dimensional fiber is fingerprinted without the character norm, since
such a block is M(O, chi) for a character chi and so irreducible.  These
tests run both skipped checks on everything the bundled scenarios derive:
the axiom sweep on every top chain module, and the exact character norm,
computed as a reference over the whole centralizer, on every
one-dimensional-fiber block that gets fingerprinted.
"""

from pathlib import Path

import pytest

from nichols import cli, groupoid, verify, ydmodule
from test_ydmodule import reference_block_fingerprint

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def derived():
    """Every top chain module and every fingerprinted block, as (module,
    indices, key), from the bundled scenarios that reflect."""
    tops, blocks = [], []
    top_module, block_fingerprint = (groupoid._top_module,
                                     ydmodule._block_fingerprint)

    def recording_top(chain):
        out = top_module(chain)
        tops.append(out)
        return out

    def recording_block(module, indices):
        key = block_fingerprint(module, indices)
        blocks.append((module, indices, key))
        return key

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groupoid, "_top_module", recording_top)
        mp.setattr(ydmodule, "_block_fingerprint", recording_block)
        cli.run_scenario(
            "roots", str(ROOT / "perfbench" / "scenarios" / "diag_roots.json"),
            None, None, None)
        cli.run_scenario(
            "groupoid", str(ROOT / "tests" / "data" / "groupoid_cases.json"),
            None, None, None)
        verify.check_reflection_invariance()
    return tops, blocks


def test_every_top_chain_module_passes_the_axiom_sweep(derived):
    tops, _ = derived
    assert len(tops) > 100
    for module in tops:
        module.check_axioms()


def test_one_dimensional_fibers_have_character_norm_one(derived):
    _, blocks = derived
    checked = 0
    for module, indices, key in blocks:
        s = min(module.group.class_of(module.coaction[indices[0]]))
        if sum(module.coaction[i] == s for i in indices) != 1:
            continue
        want, norm = reference_block_fingerprint(module, indices)
        assert norm == module.field.one(), (module.basis_labels, str(norm))
        assert key == want, module.basis_labels
        checked += 1
    assert checked > 100
