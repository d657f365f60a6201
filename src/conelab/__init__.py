"""Exact arithmetic for matrix realizations of homogeneous convex cones.

Each public name is loaded from its module on first access (PEP 562), so
importing the package loads none of its modules and a program that uses one
of them pays for what that one imports.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module of conelab that defines it
_EXPORTS = {
    "BlockPartition": "core",
    "Classification": "rank3",
    "ClosureViolationError": "errors",
    "CompositionFamily": "rank3",
    "CompositionReport": "rank3",
    "ConditionReport": "core",
    "ConeElement": "core",
    "CouplingDecomposition": "rank3",
    "DEFAULT_RANK_CAP": "doubling",
    "DimTable": "degrees",
    "DualRank3Element": "rank3",
    "GroupElement": "core",
    "InconsistentDimsError": "errors",
    "InvarianceReport": "rank3",
    "InvariantList": "rank3",
    "LRReport": "rank3",
    "LdlResult": "core",
    "NotInSpaceError": "errors",
    "Poly": "poly",
    "Rank3Element": "rank3",
    "RationalSampler": "sampling",
    "SerializationError": "errors",
    "SigmaMatrix": "degrees",
    "SigmaTraceStep": "degrees",
    "StructureError": "errors",
    "VCollection": "core",
    "VerificationReport": "core",
    "backend_name": "backend",
    "block_from_coords": "core",
    "build_rank3_cone": "rank3",
    "build_rank3_dual": "rank3",
    "bundled_family_3_5_7": "rank3",
    "character_exponents": "degrees",
    "classify_degrees": "rank3",
    "closed_form_invariants": "rank3",
    "composition_family": "rank3",
    "cone_element": "core",
    "consistency_LR": "rank3",
    "coupling": "rank3",
    "coupling_decomposition_check": "rank3",
    "defect_witness": "rank3",
    "degrees_from_sigma": "degrees",
    "det_rank3_closed": "rank3",
    "det_rank3_dual_closed": "rank3",
    "double": "doubling",
    "dual_degrees_rank3": "degrees",
    "dual_from_cone_element": "rank3",
    "dual_rank3_element": "rank3",
    "dual_to_cone_element": "rank3",
    "element_is_zero": "core",
    "embed": "core",
    "embed_group": "core",
    "embed_rank3": "rank3",
    "embed_rank3_dual": "rank3",
    "from_cone_element": "rank3",
    "group_compose": "core",
    "group_element": "core",
    "group_identity": "core",
    "hurwitz_radon_number": "rank3",
    "identity_element": "core",
    "identity_rank3": "rank3",
    "identity_rank3_dual": "rank3",
    "inner_product_V": "core",
    "inner_product_space": "core",
    "is_member": "core",
    "iterate_construction": "doubling",
    "ldl_decompose": "core",
    "project": "core",
    "project_group": "core",
    "rank3_element": "rank3",
    "rank3_table": "degrees",
    "rank_cap": "doubling",
    "relative_invariance_check": "rank3",
    "rho_act": "core",
    "sigma_from_dims": "degrees",
    "to_cone_element": "rank3",
    "transposed_action_defect": "rank3",
    "verify_composition": "rank3",
    "verify_v_conditions": "core",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("conelab." + _EXPORTS[name]), name)
    globals()[name] = value
    return value
