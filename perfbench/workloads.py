"""The benchmark's four closed-loop workloads.

Every workload is one client in one process and one thread. It sends the next
task only after the previous one returned, because every caller of a library
call or CLI command waits for the answer. A task is one user-level request.

The workload seed fixes every input: `inputs()` yields plain descriptors drawn
from `random.Random(seed)`, and a task turns its descriptor into conelab
inputs (through `RationalSampler`, seeded by the descriptor) and runs the
request. `check()` decides exactly whether the answer is right; it runs
outside the timed interval.

Library calls go through module attributes (`core.ldl_decompose`, not a
name imported from `conelab.core`) so that the tracer's wrappers are seen.
"""

import contextlib
import copy
import io
import os
import random
import subprocess
import sys

from conelab import core, degrees, doubling, linalg, rank3, sampling, serialize
from conelab.backend import kernels
from metrics import CLI_KINDS

RANK = 7  # doubled realization, N = 2^7 - 1 = 127
SRC = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))


def child_env():
    """The caller's environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


SPECS = {
    "doubled-theorem": {
        "why": "ROADMAP item 2 target: theorem pipeline at rank 7 (N=127), caches cold; "
        "closed loop, 1 client; "
        "stresses dense V1-V3 products, SpanSolver, double; "
        "bypasses rho_act, ldl, rank3, serialize, cli",
        "loop": "closed",
        "clients": 1,
        "inputs": "rank 7 (N = 127), realization built fresh every task",
        "stresses": ["kernels.mat_mul_t", "kernels.sym_pair_scalar", "kernels.mat_mul",
                     "linalg.SpanSolver.init", "linalg.SpanSolver.contains",
                     "core.verify_v_conditions", "doubling.double"],
        "bypasses": ["core.rho_act", "core.ldl_decompose", "rank3", "serialize", "cli"],
    },
    "doubled-member": {
        "why": "membership on a warm rank-7 realization, interior/boundary/indefinite points; "
        "closed loop, 1 client; "
        "stresses rho_act, project, ldl, sampling; "
        "bypasses verification, rank3, serialize, cli",
        "loop": "closed",
        "clients": 1,
        "inputs": "rank 7 (N = 127) realization built once in setup; sampler bounds 100/10",
        "stresses": ["core.rho_act", "core.embed", "core.embed_group", "core.project",
                     "linalg.SpanSolver.solve", "core.ldl_decompose", "sampling"],
        "bypasses": ["core.verify_v_conditions (setup only)", "rank3", "serialize", "cli"],
    },
    "rank3-duality": {
        "why": "only path through rank3 and Bareiss: 5 families up to (10,32); "
        "closed loop, 1 client; "
        "stresses rank-3 dets, det_exact, solve_linear, rho_act on 3 blocks; "
        "bypasses doubling, ldl, serialize, cli",
        "loop": "closed",
        "clients": 1,
        "inputs": "families 3_5_7, (4,8), (8,8), (8,16), (10,32), cones built once in setup",
        "stresses": ["rank3", "kernels.bareiss_det", "linalg.det_exact",
                     "linalg.solve_linear", "core.rho_act on three blocks"],
        "bypasses": ["doubling", "core.ldl_decompose", "core.verify_v_conditions (setup only)",
                     "serialize", "cli"],
    },
    "cli-cold": {
        "why": "users pay start-up, import and JSON on every call: 11 commands, one child each; "
        "closed loop, 1 client; "
        "470 KB rank-7 file, family (8,16); "
        "stresses cli, serialize, import; "
        "bypasses warm caches",
        "loop": "closed",
        "clients": 1,
        "inputs": "rank-7 realization file (470 KB), family (8,16), sigma rank 60, theorem rank 6",
        "stresses": ["cli", "serialize", "import", "interpreter start"],
        "bypasses": ["the warm in-process caches every other workload keeps"],
    },
}


class DoubledTheorem:
    """iterate_construction -> verify_v_conditions -> dims -> sigma -> degrees."""

    name = "doubled-theorem"
    kinds = ("theorem",)
    warmup = 1

    def __init__(self, seed, workdir, in_process=False):
        self.seed = seed
        self.notes = {}

    def inputs(self):
        while True:
            yield ("theorem", RANK)

    def run(self, item):
        r = item[1]
        V = doubling.iterate_construction(r)
        report = core.verify_v_conditions(V)
        table = V.dims_table()
        sigma = degrees.sigma_from_dims(table)
        return report.passed, table, V.partition.total, degrees.degrees_from_sigma(sigma)

    def check(self, item, out):
        r = item[1]
        passed, table, total, degs = out
        if not passed:
            return "verification failed"
        for k in range(2, r + 1):
            for j in range(1, k):
                if table.d(k, j) != 2 ** (k - j):
                    return "d_%d%d = %d" % (k, j, table.d(k, j))
        if total != 2**r - 1:
            return "N = %d" % total
        if degs[-1] != 2 ** (r - 1):
            return "top degree %d" % degs[-1]
        return None


def _indefinite_point(V, sub):
    """A unit group element moved onto a diagonal with one negative pivot."""
    sampler = sampling.RationalSampler(sub)
    h = sampler.group_element(V, unit=True)
    pivots = [sampler.positive_rational() for _ in range(V.r)]
    neg = sub % V.r
    pivots[neg] = -pivots[neg]
    return core.rho_act(h, core.cone_element(V, pivots), V), tuple(pivots)


class DoubledMember:
    """Seeded points on a warm rank-7 realization, each decided by ldl_decompose."""

    name = "doubled-member"
    kinds = ("interior", "boundary", "indefinite")
    warmup = 3
    # the repository's own sampler test accepts "undefined" for boundary
    # points: ldl_decompose keeps eliminated blocks that became zero, so a
    # zero pivot in the middle reads as a zero pivot over a nonzero column
    allowed = {
        "interior": ("positive",),
        "boundary": ("boundary", "undefined"),
        "indefinite": ("indefinite",),
    }

    def __init__(self, seed, workdir, in_process=False):
        self.seed = seed
        self.V = doubling.iterate_construction(RANK)
        self.notes = {"boundary_as_undefined": 0, "boundary_points": 0}

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            for kind in self.kinds:
                yield (kind, rng.getrandbits(48))

    def run(self, item):
        kind, sub = item
        V = self.V
        pivots = None
        if kind == "interior":
            x = sampling.RationalSampler(sub).interior_element(V)
        elif kind == "boundary":
            x = sampling.RationalSampler(sub).boundary_element(V)
        else:
            x, pivots = _indefinite_point(V, sub)
        return x, core.ldl_decompose(x, V), pivots

    def check(self, item, out):
        kind = item[0]
        x, res, pivots = out
        if kind == "boundary":
            self.notes["boundary_points"] += 1
            self.notes["boundary_as_undefined"] += res.status == "undefined"
        if res.status not in self.allowed[kind]:
            return "%s point decided %s" % (kind, res.status)
        if res.is_member != (kind == "interior"):
            return "%s point has is_member=%s" % (kind, res.is_member)
        if pivots is not None and res.pivots != pivots:
            return "pivots differ from the ones the point was built with"
        if res.unit is not None and not self.rebuilds(x, res):
            return "U D tU does not rebuild the %s point" % kind
        return None

    def rebuilds(self, x, res):
        """embed(x) == U D tU, with D the block-scalar pivot diagonal."""
        V = self.V
        part = V.partition
        U = core.embed_group(res.unit, V)
        scale = []
        for i, d in enumerate(res.pivots, start=1):
            scale.extend([d] * part.size(i))
        UD = [[u * s if u else 0 for u, s in zip(row, scale)] for row in U]
        return kernels.mat_mul(UD, linalg.transpose(U)) == core.embed(x, V)


FAMILIES = (
    ("3_5_7", None),
    ("4_8", (4, 8)),
    ("8_8", (8, 8)),
    ("8_16", (8, 16)),
    ("10_32", (10, 32)),
)


class Rank3Duality:
    """Interior primal/dual pairs: closed-form dets, oracles, coupling check.

    Five families, an odd cycle: with whole cycles timed, the pooled median
    falls inside the middle family's cluster instead of between two.
    """

    name = "rank3-duality"
    kinds = tuple(name for name, _ in FAMILIES)
    warmup = len(FAMILIES)

    def __init__(self, seed, workdir, in_process=False):
        self.seed = seed
        self.notes = {}
        self.families = {}
        for name, rn in FAMILIES:
            F = rank3.bundled_family_3_5_7() if rn is None else rank3.composition_family(*rn)
            self.families[name] = (F, rank3.build_rank3_cone(F), rank3.build_rank3_dual(F))

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            for kind in self.kinds:
                yield (kind, rng.getrandbits(48))

    def run(self, item):
        kind, sub = item
        F, Vc, Vd = self.families[kind]
        sampler = sampling.RationalSampler(sub)
        X = sampler.interior_rank3(F, Vc)
        Xi = sampler.interior_rank3_dual(F, Vd)
        closed = rank3.det_rank3_closed(X, F)
        closed_dual = rank3.det_rank3_dual_closed(Xi, F)
        oracle = linalg.det_exact(rank3.embed_rank3(X, F))
        oracle_dual = linalg.det_exact(rank3.embed_rank3_dual(Xi, F))
        coupling = rank3.coupling_decomposition_check(X, Xi, F)
        return closed, oracle, closed_dual, oracle_dual, coupling

    def check(self, item, out):
        closed, oracle, closed_dual, oracle_dual, coupling = out
        if closed != oracle:
            return "primal closed form %s != oracle %s" % (closed, oracle)
        if closed_dual != oracle_dual:
            return "dual closed form %s != oracle %s" % (closed_dual, oracle_dual)
        if not (closed > 0 and closed_dual > 0):
            return "interior determinant not positive"
        if not coupling.passed:
            return "coupling decomposition failed"
        if not coupling.lhs > 0:
            return "coupling not positive"
        return None


def _extremal_table(r):
    return degrees.DimTable(
        r, {(k, j): 2 ** (k - j) for k in range(2, r + 1) for j in range(1, k)}
    )


def _canonical(obj):
    return serialize.dumps_canonical(obj).encode()


class CliCold:
    """One `python -m conelab.cli` child per task, cycling eleven commands.

    Expected exit codes are fixed; expected stdout is the canonical JSON the
    API gives for the same request, computed in setup. With in_process=True
    (the traced run) each command goes through conelab.cli.main(argv) instead.
    Eleven commands, an odd cycle, for the same reason as Rank3Duality.
    """

    name = "cli-cold"
    kinds = CLI_KINDS
    warmup = 1

    def __init__(self, seed, workdir, in_process=False):
        from conelab import cli

        self.cli = cli
        self.seed = seed
        self.in_process = in_process
        self.notes = {}
        os.makedirs(workdir, exist_ok=True)

        def path(name):
            return os.path.join(workdir, name)

        sampler = sampling.RationalSampler(seed)
        V = doubling.iterate_construction(RANK)
        good = serialize.realization_to_dict(V)
        serialize.dump_file(path("r7.json"), good)
        bad_dict = copy.deepcopy(good)
        space = next(s for s in bad_dict["spaces"] if (s["k"], s["j"]) == (3, 1))
        flat = space["basis"][0]
        idx = next(i for i, v in enumerate(flat) if v != "0")
        flat[idx] = serialize.rational_to_str(-serialize.parse_rational(flat[idx]))
        serialize.dump_file(path("r7_v2fail.json"), bad_dict)
        text = serialize.dumps_canonical(good)
        with open(path("malformed.json"), "w") as fh:
            fh.write(text[: len(text) // 2])

        x_in = sampler.interior_element(V)
        x_out, _ = _indefinite_point(V, seed)
        serialize.dump_file(path("member_in.json"), serialize.element_to_dict(x_in))
        serialize.dump_file(path("member_out.json"), serialize.element_to_dict(x_out))

        F = rank3.composition_family(8, 16)
        serialize.dump_file(path("f8_16.json"), serialize.family_to_dict(F))
        X = sampler.interior_rank3(F)
        Xi = sampler.interior_rank3_dual(F)
        serialize.dump_file(path("point.json"), serialize.point_to_dict(X))
        serialize.dump_file(path("dual_point.json"), serialize.dual_point_to_dict(Xi))

        V6 = doubling.iterate_construction(6)
        table6 = V6.dims_table()
        sigma6 = degrees.sigma_from_dims(table6)
        if not core.verify_v_conditions(V6).passed:
            raise RuntimeError("rank-6 construction fails (V1)-(V3)")
        theorem = {
            "N": V6.partition.total,
            "dims": serialize.dims_to_dict(table6)["dims"],
            "sigma": [list(row) for row in sigma6.rows],
            "degrees": list(degrees.degrees_from_sigma(sigma6)),
            "verified": True,
        }
        report = core.verify_v_conditions(V)
        bad_report = core.verify_v_conditions(serialize.realization_from_dict(bad_dict))
        if not report.passed or bad_report.v2.passed:
            raise RuntimeError("realization files do not pass and fail (V2) as intended")
        member_in = core.ldl_decompose(x_in, V)
        member_out = core.ldl_decompose(x_out, V)
        if member_in.status != "positive" or member_out.status != "indefinite":
            raise RuntimeError("member points do not have their intended status")
        composition = rank3.verify_composition(F)
        lr = rank3.consistency_LR(F)
        if not (composition.passed and lr.passed):
            raise RuntimeError("family (8,16) fails its relations")
        rank3_verify = {
            "composition": {"passed": True, "pair": None},
            "lr": {"passed": True, "mismatch": None},
        }
        cone, fam = path("r7.json"), path("f8_16.json")
        det = serialize.rational_to_str(rank3.det_rank3_closed(X, F))
        det_dual = serialize.rational_to_str(rank3.det_rank3_dual_closed(Xi, F))
        sigma60 = degrees.sigma_from_dims(_extremal_table(60))
        self.commands = {
            "theorem": (["theorem", "--rank", "6"], 0, _canonical(theorem)),
            "verify": (["verify", "--in", cone], 0,
                       _canonical(serialize.verification_report_to_dict(report))),
            "verify_fail": (["verify", "--in", path("r7_v2fail.json")], 2,
                            _canonical(serialize.verification_report_to_dict(bad_report))),
            "member": (["member", "--cone", cone, "--point", path("member_in.json")], 0,
                       _canonical(serialize.ldl_to_dict(member_in))),
            "member_refused": (["member", "--cone", cone, "--point", path("member_out.json")],
                               2, _canonical(serialize.ldl_to_dict(member_out))),
            "sigma": (["sigma", "--family-dims", "60"], 0,
                      _canonical(serialize.sigma_to_dict(sigma60))),
            "rank3_verify": (["rank3", "verify", "--family", fam], 0, _canonical(rank3_verify)),
            "rank3_det": (["rank3", "det", "--family", fam, "--point", path("point.json")], 0,
                          _canonical({"det": det})),
            "rank3_det_dual": (["rank3", "det", "--dual", "--family", fam,
                                "--point", path("dual_point.json")], 0,
                               _canonical({"det": det_dual})),
            "rank3_duality": (["rank3", "duality", "--family", fam, "--samples", "3",
                               "--seed", str(seed)], 0,
                              _canonical({"samples": 3, "seed": seed, "passed": True})),
            "malformed": (["verify", "--in", path("malformed.json")], 1, b""),
        }
        self.env = child_env()

    def inputs(self):
        while True:
            for kind in self.kinds:
                yield (kind, self.commands[kind][0])

    def run(self, item):
        argv = item[1]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
            return code, out.getvalue().encode()
        proc = subprocess.run(
            [sys.executable, "-m", "conelab.cli", *argv],
            capture_output=True,
            env=self.env,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, item, out):
        _, code_want, stdout_want = self.commands[item[0]]
        code, stdout = out
        if code != code_want:
            return "%s exited %s, expected %s" % (item[0], code, code_want)
        if stdout != stdout_want:
            return "%s printed %d bytes that differ from the canonical %d" % (
                item[0], len(stdout), len(stdout_want))
        return None


WORKLOADS = {
    cls.name: cls for cls in (DoubledTheorem, DoubledMember, Rank3Duality, CliCold)
}
