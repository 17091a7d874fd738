"""The three workloads: their request lists, drawn from `--seed`, and the
reference each request's output is checked against.

A request is one `probfpc` command line.  The seed picks parameters from
fixed menus (the choice probability `p` of the geometric process, the fair
coin and the hesitant identity, and walk starts `n`); every menu entry
costs about the same, so the seed changes the inputs and their exact
outputs but not the size of the work.

References never come from the code under test.  They are closed forms
(the geometric process, the fair coin and the hesitant identity), the
agreement of the operational and the step-faithful denotational semantics
prefix by prefix, monotone termination tables, and the `refine` verdicts
and reasons the repository's tests pin, with the horizon search of
`id <= id_hes(p)` predicted exactly.
"""

import json
import re
from fractions import Fraction

from . import programs

WORKLOADS = ("probterm-deep", "lazy-walks", "refine-deep")

GEO_P = ("1/4", "3/4", "2/5", "3/5", "3/7", "4/7")
FAIR_P = ("1/3", "2/3")     # p and 1-p: the same coin, the same cost
HES_P = ("1/2", "1/3", "2/3", "1/4", "3/4")
HES_APP_P = ("1/3", "2/3")
HES_RIGHT_P = ("1/2", "2/3", "3/4")     # id <= id_hes(p) holds within horizon 96
WALK_N = (3, 4, 5)
EVEN_N = (2, 4, 6)      # from an odd start the two walks part at 0
FIRST_CELL = {"op": 9, "den-steps": 9, "den": 1}
EPS = Fraction(1, 1024)


class Request:
    """One command line, its expected exit code and its output check.

    `check(out, seen)` raises when the output is wrong and otherwise returns
    what it parsed; `seen` maps the labels of earlier requests of the same
    pass to what their checks returned, for checks that compare two
    requests, and `deps` names those requests.
    """
    __slots__ = ("label", "argv", "code", "check", "deps")

    def __init__(self, label, argv, code, check, deps=()):
        self.label = label
        self.argv = argv
        self.code = code
        self.check = check
        self.deps = deps


class Plan:
    """Inputs of one workload: source files to write, the request list and
    the known-failure probe, if any."""

    def __init__(self):
        self.files = {}
        self.requests = []
        self.probe = None

    def file(self, name, src):
        self.files[name] = src
        return "@" + name

    def add(self, label, argv, code, check, deps=()):
        self.requests.append(Request(label, argv, code, check, deps))


# --- output parsing -----------------------------------------------------------

def parse_table(out):
    """Termination table from `probterm`/`examples run`, table or JSON."""
    lines = out.splitlines()
    if lines and lines[0].startswith("type: "):
        lines = lines[1:]
    if lines and lines[0].startswith("{"):
        doc = json.loads("\n".join(lines))
        if doc["depths"] != list(range(len(doc["probterm"]))):
            raise ValueError("depths are not 0..n")
        return [Fraction(v) for v in doc["probterm"]]
    if not lines or lines[0].split() != ["depth", "probterm"]:
        raise ValueError("no table header")
    vals = []
    for n, line in enumerate(lines[1:]):
        d, v = line.split()
        if int(d) != n:
            raise ValueError("depth column skips at %d" % n)
        vals.append(Fraction(v))
    return vals


_EQLIM = re.compile(r"^eqlim holds at eps=(\S+), depth=(\d+) \(max (\S+) vs (\S+)\)$")


def parse_compare(out):
    """(eps, depth, max_a, max_b) of a holding `compare`, table or JSON."""
    if out.startswith("{"):
        doc = json.loads(out)
        if doc["holds"] is not True:
            raise ValueError("compare does not hold")
        return (Fraction(doc["eps"]), doc["depth"], Fraction(doc["max_a"]),
                Fraction(doc["max_b"]))
    m = _EQLIM.match(out.rstrip("\n"))
    if m is None:
        raise ValueError("not an eqlim-holds line")
    return (Fraction(m.group(1)), int(m.group(2)), Fraction(m.group(3)),
            Fraction(m.group(4)))


_HEAD = re.compile(r"^(Holds|Unknown): (.*) \(fuel=(\d+), horizon=(\d+), eps=(\S+)\)$")


def parse_verdict(out):
    """(holds, reason, trace) of a `refine`, table or JSON."""
    if out.startswith("{"):
        doc = json.loads(out)
        return doc["holds"], doc["reason"], doc["trace"]
    head, _, rest = out.partition("\n")
    m = _HEAD.match(head)
    if m is None:
        raise ValueError("no verdict line")
    return m.group(1) == "Holds", m.group(2), json.loads(rest)


# --- references -----------------------------------------------------------------

def _expect(got, want, what):
    if got != want:
        raise ValueError("%s: got %s, want %s" % (what, got, want))


def _check_seq(vals, depth, closed=None):
    """Length depth+1, values in [0, 1], monotone, and equal to the closed
    form when one is given."""
    _expect(len(vals), depth + 1, "table length")
    for d, v in enumerate(vals):
        if not 0 <= v <= 1:
            raise ValueError("depth %d: %s outside [0, 1]" % (d, v))
        if d and v < vals[d - 1]:
            raise ValueError("depth %d: %s < %s, not monotone" % (d, v, vals[d - 1]))
        if closed is not None and v != closed(d):
            raise ValueError("depth %d: %s, closed form gives %s" % (d, v, closed(d)))


def rounds_closed(p, first, per_round, weight=Fraction(1)):
    """weight * (1 - (1-p)^r), r rounds done by depth d: the first after
    `first` steps, then one per `per_round` steps."""
    q = 1 - Fraction(p)

    def f(d):
        r = 0 if d < first else (d - first) // per_round + 1
        return weight * (1 - q ** r)
    return f


def fair_s(p):
    """Per-round success of the fair coin from a p-biased one."""
    p = Fraction(p)
    return 2 * p * (1 - p)


def table_check(depth, closed=None, first_cell=None, agree_with=None,
                same_as=None):
    """Check of a termination table.  `first_cell` pins a 0/1 step at that
    depth; `agree_with` names a request whose table must equal this one on
    their common prefix; `same_as` one whose table must be equal."""
    def check(out, seen):
        vals = parse_table(out)
        _check_seq(vals, depth, closed)
        if first_cell is not None:
            _expect(vals, [Fraction(int(d >= first_cell)) for d in range(depth + 1)],
                    "first-cell step")
        for other in (agree_with, same_as):
            if other is not None:
                ref = seen[other]
                n = min(len(ref), len(vals))
                if vals[:n] != ref[:n]:
                    bad = next(i for i in range(n) if vals[i] != ref[i])
                    raise ValueError("depth %d differs from %s" % (bad, other))
        if same_as is not None:
            _expect(len(vals), len(seen[same_as]), "length against " + same_as)
        return vals
    deps = tuple(x for x in (agree_with, same_as) if x is not None)
    return check, deps


def compare_check(depth, table_of):
    """`compare` of a program against itself, op against den-steps: holds,
    and both maxima equal the op table's value at `depth`."""
    def check(out, seen):
        eps, d, a, b = parse_compare(out)
        _expect((eps, d), (EPS, depth), "eps and depth")
        _expect(a, b, "max_a against max_b")
        _expect(a, max(seen[table_of][:depth + 1]), "max against " + table_of)
        return a
    return check, (table_of,)


def _fuel_chain(trace, fuel, value_mass):
    """Walk a lift_check trace: levels fuel..1, each below the first
    coupling value_mass, then the fuel leaf."""
    level, f = trace, fuel
    while f > 0:
        _expect(level["fuel"], f, "trace fuel")
        if f < fuel:
            _expect(Fraction(level["value_mass"]), value_mass, "value mass at fuel %d" % f)
            _expect(Fraction(level["flow"]), value_mass, "flow at fuel %d" % f)
        level, f = level.get("child"), f - 1
        if level is None:
            raise ValueError("trace ends before fuel 0")
    _expect(level, {"case": "fuel"}, "trace leaf")


def hes_refines_id_check(p, fuel):
    """id_hes(p) <= id: Holds on the four Nat probes; each probe's trace
    has one delayed-only level, then levels coupling mass p each."""
    def check(out, seen):
        holds, reason, trace = parse_verdict(out)
        _expect((holds, reason), (True, "4 probes passed"), "verdict")
        _expect([x["probe"] for x in trace["probes"]],
                ["Num(%d)" % k for k in range(4)], "probes")
        for x in trace["probes"]:
            _expect(x["trace"]["case"], "delayed-only", "first level")
            _fuel_chain(x["trace"], fuel, Fraction(p))
        return holds
    return check, ()


def id_refines_hes_check(p, horizon):
    """id <= id_hes(p): the horizon search stops at m = 6k+1, k the least
    round count with (1-p)^k <= eps, where the coupled flow is
    1 - (1-p)^k; past the horizon the verdict is Unknown with the best flow
    the horizon allows."""
    q = 1 - Fraction(p)
    k = 0
    while q ** k > EPS:
        k += 1
    m = 6 * k + 1

    def check(out, seen):
        holds, reason, trace = parse_verdict(out)
        if m <= horizon:
            _expect((holds, reason), (True, "4 probes passed"), "verdict")
            for x in trace["probes"]:
                t = x["trace"]
                _expect((t["case"], t["m"], Fraction(t["flow"])),
                        ("value-only", m, 1 - q ** k), "probe " + x["probe"])
        else:
            _expect((holds, reason),
                    (False, "probe Num(0): no coupling within horizon"), "verdict")
            t = trace["probes"][0]["trace"]
            _expect((t["case"], Fraction(t["best_flow"])),
                    ("no-coupling", 1 - q ** ((horizon - 1) // 6)), "best flow")
        return holds
    return check, ()


def walks_refine_check(fuel):
    """The two presentations of the walk coincide: Holds, per level."""
    def check(out, seen):
        holds, reason, trace = parse_verdict(out)
        _expect((holds, reason), (True, "per-level couplings found"), "verdict")
        level, f = trace, fuel
        while "child" in level:
            _expect(level["fuel"], f, "trace fuel")
            level, f = level["child"], f - 1
        return holds
    return check, ()


def verdict_line_check(holds, reason):
    """Only the verdict line of a table-format `refine`: the probe's trace
    nests deeper than a JSON parser at the default recursion limit reads."""
    def check(out, seen):
        m = _HEAD.match(out.partition("\n")[0])
        if m is None:
            raise ValueError("no verdict line")
        _expect((m.group(1) == "Holds", m.group(2)), (holds, reason), "verdict")
        return holds
    return check


def numerals_check(out, seen):
    holds, reason, _ = parse_verdict(out)
    _expect((holds, reason), (False, "coupling infeasible at these numerals"), "verdict")
    return holds


# --- request lists ----------------------------------------------------------------

def _argv_probterm(f, depth, mode="op", fmt=None):
    argv = ["probterm", f, "--depth", str(depth), "--mode", mode]
    return argv + (["--format", fmt] if fmt else [])


def _argv_examples(name, depth, mode="op", fmt=None):
    argv = ["examples", "run", name, "--depth", str(depth), "--mode", mode]
    return argv + (["--format", fmt] if fmt else [])


# Each list has three bands of near-equal cost: about a seventh of the
# requests are long (the tail, so req_p90_s falls inside one band), half are
# medium (so req_p50_s does) and the rest are short.

def _probterm_deep(plan, rng):
    gp = rng.sample(GEO_P, 6)
    fq = [rng.choice(FAIR_P) for _ in range(3)]
    geo_op = lambda p: rounds_closed(p, 2, 3)
    geo_den = lambda p: rounds_closed(p, 0, 1)
    for label, p, depth, mode, fmt in (
            ("geo-op-330", gp[0], 330, "op", None),
            ("geo-op-330-json", gp[1], 330, "op", "json"),
            ("geo-den-200", gp[2], 200, "den", None),
            ("geo-den-200-json", gp[3], 200, "den", "json"),
            ("geo-op-170-json", gp[4], 170, "op", "json"),
            ("geo-op-175", gp[5], 175, "op", None),
            ("geo-den-106-json", gp[0], 106, "den", "json"),
            ("geo-den-104", gp[1], 104, "den", None),
            ("geo-op-80-json", gp[2], 80, "op", "json"),
            ("geo-den-40-json", gp[3], 40, "den", "json")):
        closed = geo_op(p) if mode == "op" else geo_den(p)
        plan.add(label, _argv_examples("geo(%s)" % p, depth, mode, fmt), 0,
                 *table_check(depth, closed))
    f = plan.file("geo.pfpc", programs.geo(gp[4]))
    plan.add("geo-file-170", _argv_probterm(f, 170), 0, *table_check(170, geo_op(gp[4])))
    plan.add("geo-file-den-104", _argv_probterm(f, 104, "den"), 0,
             *table_check(104, geo_den(gp[4])))
    half = Fraction(1, 2)
    for i, q in enumerate(fq):
        s = fair_s(q)
        fair = plan.file("fair%d.pfpc" % i, programs.fair_harness(q))
        yes = plan.file("fair%d_true.pfpc" % i, programs.fair_observer(q, "true"))
        no = plan.file("fair%d_false.pfpc" % i, programs.fair_observer(q, "false"))
        rows = [("fair%d-2048" % i, fair, 2048, "op", "json" if i == 2 else None,
                 rounds_closed(s, 12, 10), None),
                ("fair%d-true-den-160" % i, yes, 160, "den", None,
                 rounds_closed(s, 1, 1, half), None),
                ("fair%d-false-den-160" % i, no, 160, "den", "json",
                 rounds_closed(s, 1, 1, half), "fair%d-true-den-160" % i)]
        if i < 2:
            # the fair coin stays balanced: its true and false halves agree
            # at every depth
            rows += [("fair%d-true-1400" % i, yes, 1400, "op", None,
                      rounds_closed(s, 13, 10, half), None),
                     ("fair%d-false-1400" % i, no, 1400, "op", None,
                      rounds_closed(s, 13, 10, half), "fair%d-true-1400" % i),
                     ("fair%d-512" % i, fair, 512, "op", None, rounds_closed(s, 12, 10), None)]
        for label, f, depth, mode, fmt, closed, same in rows:
            plan.add(label, _argv_probterm(f, depth, mode, fmt), 0,
                     *table_check(depth, closed, same_as=same))


def _lazy_walks(plan, rng):
    n = [rng.choice(WALK_N) for _ in range(10)]
    # long: observers of the walk from 4
    f = plan.file("nth16_randw.pfpc", programs.nth_head("randw", 4, 16))
    plan.add("nth16-randw-op-215", _argv_probterm(f, 215), 0, *table_check(215))
    f = plan.file("force12_randw2.pfpc", programs.force_k("randw2", 4, 12))
    plan.add("force12-randw2-op-530", _argv_probterm(f, 530), 0, *table_check(530))
    # op against den-steps on one program: the compare, and den-steps
    # tables that must be prefixes of the op tables
    f = plan.file("force6_randw2.pfpc", programs.force_k("randw2", 4, 6))
    plan.add("force6-randw2-op-90", _argv_probterm(f, 90), 0, *table_check(90))
    plan.add("force6-randw2-compare-80",
             ["compare", f, f, "--mode-a", "op", "--mode-b", "den-steps", "--depth", "80"],
             0, *compare_check(80, "force6-randw2-op-90"))
    f = plan.file("force4_randw.pfpc", programs.force_k("randw", 4, 4))
    plan.add("force4-randw-op-330", _argv_probterm(f, 330), 0, *table_check(330))
    plan.add("force4-randw-densteps-64", _argv_probterm(f, 64, "den-steps"), 0,
             *table_check(64, agree_with="force4-randw-op-330"))
    plan.add("force4-randw-compare-64-json",
             ["compare", f, f, "--mode-a", "op", "--mode-b", "den-steps", "--depth", "64",
              "--format", "json"], 0, *compare_check(64, "force4-randw-op-330"))
    for label, prog, depth, short in (
            ("force3-thin", programs.force_k("thin", 4, 3), 56, 48),
            ("nth5-randw2", programs.nth_head("randw2", 4, 5), 64, 56),
            ("nth4-randw", programs.nth_head("randw", 4, 4), 96, 56),
            ("force2-randw", programs.force_k("randw", 4, 2), 1800, 40),
            ("nth3-thin", programs.nth_head("thin", 4, 3), 56, None),
            ("head-thin", programs.head("thin", n[0]), 1900, None),
            ("head-randw2", programs.head("randw2", n[1]), 2800, None)):
        f = plan.file(label + ".pfpc", prog)
        op = "%s-op-%d" % (label, depth)
        plan.add(op, _argv_probterm(f, depth), 0, *table_check(depth))
        if short is not None:
            plan.add("%s-densteps-%d" % (label, short), _argv_probterm(f, short, "den-steps"),
                     0, *table_check(short, agree_with=op))
    # the delivered lazy list: the first cell costs a fixed number of steps
    for label, name, depth, mode, fmt in (
            ("randw-op-210", "randw(%d)" % n[2], 210, "op", None),
            ("randw-op-64-json", "randw(%d)" % n[3], 64, "op", "json"),
            ("randw2-op-40", "randw2(%d)" % n[4], 40, "op", None),
            ("randw2-op-40-json", "randw2(%d)" % n[5], 40, "op", "json"),
            ("randw2-densteps-64", "randw2(%d)" % n[6], 64, "den-steps", None),
            ("randw-densteps-48-json", "randw(%d)" % n[7], 48, "den-steps", "json"),
            ("randw2-den-128", "randw2(%d)" % n[8], 128, "den", None),
            ("randw-den-96-json", "randw(%d)" % n[9], 96, "den", "json")):
        plan.add(label, _argv_examples(name, depth, mode, fmt), 0,
                 *table_check(depth, first_cell=FIRST_CELL[mode]))


def _refine_deep(plan, rng):
    hp = rng.sample(HES_P, 3)
    hq = rng.sample(HES_RIGHT_P, 2)
    ha = [rng.choice(HES_APP_P) for _ in range(2)]
    n = rng.choice(EVEN_N)
    ident = plan.file("id.pfpc", programs.identity())
    hes = [plan.file("hes%d.pfpc" % i, programs.id_hes(p)) for i, p in enumerate(hp)]
    right = [plan.file("hesr%d.pfpc" % i, programs.id_hes(p)) for i, p in enumerate(hq)]
    slow = {q: plan.file("hes_%s.pfpc" % q.replace("/", "_"), programs.id_hes(q))
            for q in ("1/24", "1/7", "1/6", "1/4")}
    for i, fmt in enumerate((None, "json")):
        tail = ["--format", fmt] if fmt else []
        sfx = "-json" if fmt else ""
        runs = ((270 - 10 * i, hes[i]), (110, hes[2]), (115, hes[1 - i]))
        for fuel, h in runs + (((6, hes[0]),) if not fmt else ()):
            p = hp[hes.index(h)]
            plan.add("hes-id-fuel%d%s" % (fuel, sfx),
                     ["refine", h, ident, "--fuel", str(fuel)] + tail, 0,
                     *hes_refines_id_check(p, fuel))
        if not fmt:
            plan.add("id-hes-fuel280", ["refine", ident, right[i], "--fuel", "280",
                                        "--horizon", "96"], 0, *id_refines_hes_check(hq[i], 96))
        for q, horizon, code in (("1/24", 1024, 0), ("1/7", 384, 0), ("1/6", 256, 0),
                                 ("1/4", 128, 2)):
            plan.add("id-hes%s-h%d%s" % (q[2:], horizon, sfx),
                     ["refine", ident, slow[q], "--horizon", str(horizon)] + tail, code,
                     *id_refines_hes_check(q, horizon))
    # the two presentations of the walk coincide, observed at the 6th head
    # and at the head; the tests pin the head in both directions
    two = plan.file("nth6_randw2.pfpc", programs.nth_head("randw2", 4, 6))
    thin = plan.file("nth6_thin.pfpc", programs.nth_head("thin", 4, 6))
    plan.add("nth6-randw2-thin", ["refine", two, thin, "--fuel", "11", "--horizon", "256"],
             0, *walks_refine_check(11))
    plan.add("nth6-thin-randw2-json",
             ["refine", thin, two, "--fuel", "16", "--horizon", "256", "--format", "json"],
             0, *walks_refine_check(16))
    two = plan.file("head_randw2.pfpc", programs.head("randw2", n))
    thin = plan.file("head_thin.pfpc", programs.head("thin", n))
    plan.add("head-randw2-thin", ["refine", two, thin, "--fuel", "4"], 0,
             *walks_refine_check(4))
    plan.add("head-thin-randw2-json", ["refine", thin, two, "--fuel", "4", "--format", "json"],
             0, *walks_refine_check(4))
    zero = plan.file("zero.pfpc", "0\n")
    one = plan.file("one.pfpc", "1\n")
    plan.add("numerals", ["refine", zero, one], 2, numerals_check)
    for i, p in enumerate(ha):
        app = plan.file("hes_app%d.pfpc" % i, programs.id_hes(p).replace(
            "fn x : Nat => Y hes x", "(fn x : Nat => Y hes x) 2"))
        for fmt in (None, "json"):
            plan.add("hes%d-app-op-2100%s" % (i, "-json" if fmt else ""),
                     _argv_probterm(app, 2100, fmt=fmt), 0,
                     *table_check(2100, rounds_closed(p, 8, 6)))
    plan.add("hes1-app-den-120", _argv_probterm(app, 120, "den"), 0,
             *table_check(120, rounds_closed(ha[1], 1, 1)))
    # the robustness probe: past fuel ~985 the lifting outgrows Python's
    # default recursion limit; run once per run, outside the timed passes
    plan.probe = Request("probe-hes-id-fuel2000",
                         ["refine", hes[0], ident, "--fuel", "2000"], 0,
                         verdict_line_check(True, "4 probes passed"))


def build(workload, rng):
    plan = Plan()
    {"probterm-deep": _probterm_deep, "lazy-walks": _lazy_walks,
     "refine-deep": _refine_deep}[workload](plan, rng)
    return plan
