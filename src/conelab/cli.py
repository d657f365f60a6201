"""Command line front end.

Exit codes: 0 success, 1 input error (bad flags, malformed files), 2 semantic
failure (non-membership, inconsistent dims, rejected triples, failed
verification), 3 internal invariant violation (a cross-check that should
never fail did). Output JSON is canonical: sorted keys, rational strings.
"""

import argparse
import sys

from conelab import degrees as degrees_mod
from conelab import serialize
from conelab.errors import (
    InconsistentDimsError,
    NotInSpaceError,
    SerializationError,
    StructureError,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SEMANTIC = 2
EXIT_INTERNAL = 3


class CommandFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2; flag mistakes are input errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _positive_int(text):
    """argparse type for ranks and counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return value


def _emit(obj, out=None):
    if out:
        serialize.dump_file(out, obj)
    else:
        sys.stdout.write(serialize.dumps_canonical(obj))


def _load(path, reader, what):
    data = serialize.load_file(path)
    try:
        return reader(data)
    except StructureError as exc:
        raise SerializationError("%s: bad %s: %s" % (path, what, exc)) from exc


def _load_realization(path):
    return _load(path, serialize.realization_from_dict, "realization")


def _load_family(path):
    return _load(path, serialize.family_from_dict, "family")


# sigma --family-dims R, and sigma --dims on a table of rank R, take time
# and output that grow about as R^3: R = 100 writes about 10 MB in under a
# second, while a --dims table of rank 400 wrote 551 MB in 12 s.
MAX_FAMILY_DIMS = 100
# rank3 family --n builds r dense n x n matrices: at the bound rho(256) = 9
# n = 256 writes 7.7 MB in under a second, while n = 1024 took 17 s and
# 1.4 GB, and an odd n = 99999 would ask for a 99999 x 99999 identity.
MAX_FAMILY_N = 256
# rank3 duality runs in time linear in --samples: one sample took 0.03 s on
# family (8,16) and 0.17 s on (9,64), so 200 samples take 6 s and 34 s.
MAX_DUALITY_SAMPLES = 200
# iterate, double and rank3 build write every basis entry, zeros included:
# `iterate --rank 10` writes 3029220 entries (45 MB) at a peak RSS of
# 171 MB (measured with wait4, Python 3.11), so this bound keeps the peak
# near 230 MB; rank 11 has 13514980 entries and is refused.
MAX_DENSE_ENTRIES = 4_000_000


def _over_limit(flag, value, limit):
    """Prints the one-line refusal of a value above its limit; True if refused."""
    if value <= limit:
        return False
    print("error: %s %d exceeds the limit of %d" % (flag, value, limit), file=sys.stderr)
    return True


def _dense_count(V):
    """The number of basis entries, zeros included, in a realization's JSON."""
    size = V.partition.size
    return sum(V.dim(k, j) * size(k) * size(j) for k, j in V.spaces())


def _over_dense_limit(count):
    return _over_limit("dense entry count", count, MAX_DENSE_ENTRIES)


def _extremal_dims(r):
    return degrees_mod.DimTable(
        r, {(k, j): 2 ** (k - j) for k in range(2, r + 1) for j in range(1, k)}
    )


def cmd_sigma(args):
    r = args.family_dims
    if r is not None:
        if _over_limit("--family-dims", r, MAX_FAMILY_DIMS):
            return EXIT_INPUT
        table = _extremal_dims(r)
    else:
        table = _load(args.dims, serialize.dims_from_dict, "dims")
        if _over_limit("--dims rank", table.r, MAX_FAMILY_DIMS):
            return EXIT_INPUT
    sigma = degrees_mod.sigma_from_dims(table)
    if r is None:
        from conelab import rank3

        refusal = rank3.dims_refusal(table)
        if refusal is not None:
            raise InconsistentDimsError(refusal)
    _emit(serialize.sigma_to_dict(sigma))
    return EXIT_OK


def _verify_construction(V):
    """The single verification pass of an iterate_construction result."""
    from conelab.core import verify_v_conditions

    if not verify_v_conditions(V).passed:
        raise CommandFailure(EXIT_INTERNAL, "constructed realization fails (V1)-(V3)")


def cmd_theorem(args):
    from conelab.doubling import iterate_construction

    r = args.rank
    V = iterate_construction(r)
    _verify_construction(V)
    table = V.dims_table()
    if table != _extremal_dims(r):
        raise CommandFailure(EXIT_INTERNAL, "dimension table is not d_kj = 2^(k-j)")
    if V.partition.total != 2**r - 1:
        raise CommandFailure(EXIT_INTERNAL, "total size is not 2^r - 1")
    sigma = degrees_mod.sigma_from_dims(table)
    degs = degrees_mod.degrees_from_sigma(sigma)
    if degs[-1] != 2 ** (r - 1):
        raise CommandFailure(EXIT_INTERNAL, "last degree is not 2^(r-1)")
    _emit(
        {
            "N": V.partition.total,
            "dims": serialize.dims_to_dict(table)["dims"],
            "sigma": [list(row) for row in sigma.rows],
            "degrees": list(degs),
            "verified": True,
        }
    )
    return EXIT_OK


def cmd_double(args):
    V = _load_realization(args.infile)
    from conelab import doubling

    # refused before double verifies its input
    if _over_dense_limit(_dense_count(doubling._double_unchecked(V))):
        return EXIT_INPUT
    _emit(serialize.realization_to_dict(doubling.double(V)), args.out)
    return EXIT_OK


def cmd_iterate(args):
    from conelab.doubling import iterate_construction

    V = iterate_construction(args.rank)
    if _over_dense_limit(_dense_count(V)):
        return EXIT_INPUT
    _verify_construction(V)
    _emit(serialize.realization_to_dict(V), args.out)
    return EXIT_OK


def cmd_member(args):
    V = _load_realization(args.cone)
    point = _load(args.point, lambda d: serialize.element_from_dict(d, V), "point")
    from conelab.core import cone_element, ldl_decompose, rho_act

    result = ldl_decompose(point, V)
    # the certificate: a defined factorization rebuilds the point exactly
    if result.unit is not None:
        rebuilt = rho_act(result.unit, cone_element(V, result.pivots), V)
        if rebuilt != point:
            raise CommandFailure(
                EXIT_INTERNAL, "the LDL factors do not rebuild the point"
            )
    _emit(serialize.ldl_to_dict(result))
    return EXIT_OK if result.is_member else EXIT_SEMANTIC


def cmd_verify(args):
    V = _load_realization(args.infile)
    # imported after the load, so a malformed file compiles no solver
    from conelab.core import verify_v_conditions

    report = verify_v_conditions(V)
    _emit(serialize.verification_report_to_dict(report))
    return EXIT_OK if report.passed else EXIT_SEMANTIC


def cmd_rank3_family(args):
    from conelab import rank3

    if _over_limit("--n", args.n, MAX_FAMILY_N):
        return EXIT_INPUT
    F = rank3.composition_family(args.r, args.n)
    _emit(serialize.family_to_dict(F), args.out)
    return EXIT_OK


def cmd_rank3_verify(args):
    from conelab import rank3

    F = _load_family(args.family)
    comp = rank3.verify_composition(F)
    out = {
        "composition": {
            "passed": comp.passed,
            "pair": list(comp.pair) if comp.pair else None,
        }
    }
    if comp.passed:
        # tR(y)R(y) = |y|^2 I_r holds exactly when the relations do
        # (rank3.consistency_LR), so this one verdict decides both
        out["lr"] = {"passed": True, "mismatch": None}
    _emit(out)
    return EXIT_OK if comp.passed else EXIT_SEMANTIC


def cmd_rank3_build(args):
    from conelab import rank3

    F = _load_family(args.family)
    build = rank3.build_rank3_dual if args.dual else rank3.build_rank3_cone
    V = build(F)
    if _over_dense_limit(_dense_count(V)):
        return EXIT_INPUT
    _emit(serialize.realization_to_dict(V), args.out)
    return EXIT_OK


def cmd_rank3_classify(args):
    from conelab import rank3

    r, s, n = args.triple
    if min(r, s, n) < 0:
        # negative sizes are malformed input, not a refused classification
        raise SerializationError("--triple entries must be nonnegative")
    result = rank3.classify_degrees(r, s, n)
    _emit(serialize.classification_to_dict(result))
    return EXIT_OK


def cmd_rank3_det(args):
    from conelab import rank3

    F = _load_family(args.family)
    # the closed forms hold only for a family that satisfies its relations
    rank3._require_composition(F)
    if args.dual:
        point = _load(args.point, lambda d: serialize.dual_point_from_dict(d, F), "point")
        value = rank3.det_rank3_dual_closed(point, F)
        matrix = rank3.embed_rank3_dual(point, F)
    else:
        point = _load(args.point, lambda d: serialize.point_from_dict(d, F), "point")
        value = rank3.det_rank3_closed(point, F)
        matrix = rank3.embed_rank3(point, F)
    from conelab.linalg import det_exact

    oracle = det_exact(matrix)
    if value != oracle:
        raise CommandFailure(
            EXIT_INTERNAL,
            "closed form %s disagrees with elimination oracle %s"
            % (serialize.rational_to_str(value), serialize.rational_to_str(oracle)),
        )
    _emit({"det": serialize.rational_to_str(value)})
    return EXIT_OK


def cmd_rank3_duality(args):
    from conelab import rank3
    from conelab.sampling import RationalSampler

    count = args.samples
    if _over_limit("--samples", count, MAX_DUALITY_SAMPLES):
        return EXIT_INPUT
    F = _load_family(args.family)
    sampler = RationalSampler(args.seed)
    V = rank3.build_rank3_cone(F)
    Vd = rank3.build_rank3_dual(F)
    for _ in range(count):
        X = sampler.interior_rank3(F, V)
        Xi = sampler.interior_rank3_dual(F, Vd)
        check = rank3.coupling_decomposition_check(X, Xi, F)
        if not check.passed:
            raise CommandFailure(
                EXIT_INTERNAL, "coupling decomposition identity failed"
            )
        if check.lhs <= 0:
            raise CommandFailure(
                EXIT_INTERNAL, "coupling not positive on interior pair"
            )
    _emit({"samples": count, "seed": args.seed, "passed": True})
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="conelab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="sigma matrix and degrees from a dimension table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dims", help="dimension table JSON file")
    group.add_argument(
        "--family-dims",
        type=_positive_int,
        dest="family_dims",
        help="use the extremal table d_kj = 2^(k-j) at this rank",
    )
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("theorem", help="build, verify and measure the extremal family")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("double", help="apply the rank-raising step to a realization")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("iterate", help="iterate the construction from the half-line")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser(
        "member",
        help="cone membership by exact block elimination",
        description="Decide membership by exact block LDL elimination. The status "
        "is positive (a member, exit 0), boundary or indefinite (exit 2). A zero "
        "pivot over a nonzero column stops the elimination: the point is "
        "indefinite and the answer has no unit factor. Otherwise the factor is its "
        "own certificate: the point is rebuilt from the unit factor and the pivots "
        "and compared exactly, and a mismatch exits 3.",
    )
    p.add_argument("--cone", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("verify", help="check conditions (V1)-(V3) for a realization")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_verify)

    r3 = sub.add_parser("rank3", help="rank-3 cones from composition families")
    r3sub = r3.add_subparsers(dest="rank3_command", required=True)

    p = r3sub.add_parser("family", help="generate a Hurwitz-Radon family for (r,n,n)")
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank3_family)

    p = r3sub.add_parser(
        "verify", help="check the composition relations and tR(y)R(y) = |y|^2 I_r"
    )
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_rank3_verify)

    p = r3sub.add_parser("build", help="emit the realization attached to a family")
    p.add_argument("--family", required=True)
    p.add_argument("--dual", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank3_build)

    p = r3sub.add_parser("classify", help="degree triple classification for (r,s,n)")
    p.add_argument("--triple", type=int, nargs=3, required=True, metavar=("R", "S", "N"))
    p.set_defaults(func=cmd_rank3_classify)

    p = r3sub.add_parser("det", help="closed-form determinant with oracle cross-check")
    p.add_argument("--family", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--dual", action="store_true")
    p.set_defaults(func=cmd_rank3_det)

    p = r3sub.add_parser("duality", help="sampled coupling decomposition checks")
    p.add_argument("--family", required=True)
    p.add_argument("--samples", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rank3_duality)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on bad flags (our error() override) and on --help;
        # fold both into the return-code contract so main() always returns.
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except SerializationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (InconsistentDimsError, NotInSpaceError, StructureError) as exc:
        block = getattr(exc, "block", None)
        where = " (block %s)" % (block,) if block else ""
        print("error: %s%s" % (exc, where), file=sys.stderr)
        return EXIT_SEMANTIC
    except CommandFailure as exc:
        print("invariant violated: %s" % exc, file=sys.stderr)
        return exc.code
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
