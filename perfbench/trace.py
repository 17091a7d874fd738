"""Layer tracing from outside the program.

`Tracer.install` wraps public functions and methods of each `probfpc`
module.  A function is rebound in every module that holds it (`relate`
imports `run` from `delay`, `delay` imports `key_of` from `dist`), so
calls between modules and recursive calls are seen too; methods are
rebound on their class.  Nothing under `src/` changes.

Two kinds of wrapper:

* a span records name, start, end, parent span and request id, and adds
  its self time (duration minus the time its child spans cover) to its
  layer, the module it wraps;
* a counter only counts, for the hottest functions, where a span would
  cost more than the call.  Its time stays with the enclosing span.
  The recursive `subst` gets a span on its outermost call and a counter
  on the calls inside it.

The benchmark opens one span per request (layer `cli`), so a request's
layer self times add up to its traced duration.  Work the tracer itself
does after a call (measuring a result's width) is timed on its own and
kept out of every layer.
"""

import os
import re
import time
from array import array
from collections import defaultdict

_DEN = re.compile(r"/(\d+)")

# (module, attribute path, kind); kind is "span", "outer" (span on the
# outermost call of a recursion, counter inside it) or "count"
WRAPPED = (
    ("dist", "Dist.__init__", "span"),
    ("dist", "dist_bind", "span"),
    ("dist", "dist_map", "span"),
    ("dist", "choice", "span"),
    ("dist", "key_of", "count"),
    ("delay", "run", "span"),
    ("delay", "delay_bind", "span"),
    ("delay", "probterm_seq", "span"),
    ("delay", "DelayThunk.force", "count"),
    ("syntax", "Term.dist_key", "span"),
    ("syntax", "subst", "outer"),
    ("syntax", "is_value", "count"),
    ("opsem", "Evaluator.eval", "span"),
    ("opsem", "Evaluator._build", "span"),
    ("densem", "Interp.interp", "span"),
    ("densem", "Interp._build", "span"),
    ("relate", "refine_check", "span"),
    ("relate", "lift_check", "span"),
    ("relate", "logrel_val", "span"),
    ("relate", "_max_flow", "span"),
    ("parser", "load_file", "span"),
    ("typecheck", "elaborate", "span"),
    ("corpus", "corpus", "span"),
)


class Tracer:
    def __init__(self):
        self.stack = []                 # open spans: [index, start, child time, name]
        self.names = []
        self.name_ids = {}
        self.request = -1
        self.starts = array("d")
        self.ends = array("d")
        self.name_col = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.recording = True           # keep spans; the tallies run regardless
        self.missing = []
        self.outer_depth = defaultdict(int)
        self.reset()

    def reset(self):
        """Start a new tally; spans already recorded are kept."""
        self.self_s = defaultdict(float)     # name -> self time
        self.calls = defaultdict(int)        # name -> calls
        self.extra = defaultdict(int)        # counts measured by hooks
        self.widest = defaultdict(int)       # running maxima
        self.hook_s = 0.0
        self.spans = 0
        self.gap_s = 0.0                     # worst |request - sum of self|
        self.req_self = 0.0
        self.last_dur = 0.0

    def _id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # --- wrappers -------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        nid = self._id(name)
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kw):
            if before is not None:
                before(args)
            start = clock()
            idx = self._open(nid, start)
            frame = [idx, start, 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = self.last_dur = end - frame[1]
                own = dur - frame[2]
                self.self_s[name] += own
                self.req_self += own
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if idx >= 0:
                    self.ends[idx] = end
            if after is not None:
                t0 = clock()
                after(args, result)
                spent = clock() - t0
                self.hook_s += spent
                self.req_self += spent
                if stack:
                    stack[-1][2] += spent
            return result
        return wrapper

    def _open(self, nid, start):
        self.spans += 1
        if not self.recording:
            return -1
        idx = len(self.starts)
        self.starts.append(start)
        self.ends.append(0.0)
        self.name_col.append(nid)
        self.parents.append(self.stack[-1][0] if self.stack else -1)
        self.requests.append(self.request)
        return idx

    def _count(self, name, fn):
        def wrapper(*args, **kw):
            self.calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    def _outer(self, name, fn):
        """Span on the outermost call, counter on the calls inside it."""
        span = self._span(name, fn)
        inner = name + ".inner"

        def wrapper(*args, **kw):
            if self.outer_depth[name]:
                self.calls[inner] += 1
                return fn(*args, **kw)
            self.outer_depth[name] += 1
            try:
                return span(*args, **kw)
            finally:
                self.outer_depth[name] -= 1
        return wrapper

    # --- hooks: what a call did, read from its arguments and result ------------

    def _dist_entries(self, args):
        entries = args[1]
        if hasattr(entries, "__len__"):
            self.extra["dist.entries_in"] += len(entries)

    def _dist_init(self, args, result):
        self.extra["dist.entries_out"] += len(args[0].entries)

    def _run(self, args, result):
        delivered = sum(1 for _, el in result.node.entries if type(el).__name__ == "Inl")
        pending = len(result.node.entries) - delivered
        w = self.widest
        w["delay.delivered_support_max"] = max(w["delay.delivered_support_max"], delivered)
        w["delay.frontier_pending_max"] = max(w["delay.frontier_pending_max"], pending)
        if self.stack and self.stack[-1][3] == "relate.lift_check":
            self.extra["relate.horizon_runs"] += 1

    def _memo(self, layer, key):
        def before(args):
            memo = getattr(args[0], "_memo", None)
            if memo is not None and key(args) in memo:
                self.extra[layer + ".memo_hits"] += 1
        return before

    def _load(self, args, result):
        self.extra["parser.src_bytes"] += os.path.getsize(args[0])

    # --- installation -------------------------------------------------------------

    def install(self, modules, entry):
        """Wrap WRAPPED in the given {name: module} of `probfpc`, and the
        CLI entry point in the request span; names the program no longer
        has are listed in `self.missing`."""
        self._entry = self._span("cli.request", entry)
        hooks = {
            "dist.Dist.__init__": dict(before=self._dist_entries, after=self._dist_init),
            "delay.run": dict(after=self._run),
            "opsem.Evaluator.eval": dict(before=self._memo("opsem", lambda a: a[1])),
            "densem.Interp.interp": dict(before=self._memo(
                "densem", lambda a: (a[1], a[2] if len(a) > 2 else ()))),
            "parser.load_file": dict(after=self._load),
        }
        for mod_name, path, kind in WRAPPED:
            name = mod_name + "." + path
            mod = modules.get(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            if kind == "span":
                wrapped = self._span(name, fn, **hooks.get(name, {}))
            elif kind == "outer":
                wrapped = self._outer(name, fn)
            else:
                wrapped = self._count(name, fn)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)

    def run_request(self, rid, *args):
        """Call the CLI entry point as request rid, and keep the worst gap
        between its duration and the self times (plus hook time) of the
        spans it contains."""
        self.request = rid
        self.req_self = 0.0
        try:
            return self._entry(*args)
        finally:
            self.gap_s = max(self.gap_s, abs(self.last_dur - self.req_self))
            self.request = -1

    def observe(self, out):
        """Output-side counts of one request."""
        self.extra["cli.out_bytes"] += len(out)
        bits = max((int(d).bit_length() for d in _DEN.findall(out)), default=0)
        self.widest["rational.den_bits_max"] = max(self.widest["rational.den_bits_max"], bits)

    # --- metrics -------------------------------------------------------------------

    def layer_self(self):
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def metrics(self):
        """Per-layer metrics of the tally since the last reset."""
        calls = lambda n: self.calls.get(n, 0)
        selfs = lambda n: self.self_s.get(n, 0.0)
        layer = self.layer_self()
        x, w = self.extra, self.widest

        def ratio(a, b):
            return a / b if b else 0.0

        eval_calls = calls("opsem.Evaluator.eval")
        interp_calls = calls("densem.Interp.interp")
        op_builds = calls("opsem.Evaluator._build")
        den_builds = calls("densem.Interp._build")
        return {
            "dist.nodes": (calls("dist.Dist.__init__"), "count"),
            "dist.self_s": (layer["dist"], "s"),
            "dist.entries_in": (x["dist.entries_in"], "count"),
            "dist.merge_ratio": (ratio(x["dist.entries_out"], x["dist.entries_in"]), "ratio"),
            "dist.key_of_calls": (calls("dist.key_of"), "count"),
            "rational.den_bits_max": (w["rational.den_bits_max"], "bits"),
            "delay.run_calls": (calls("delay.run"), "count"),
            "delay.run_s": (selfs("delay.run"), "s"),
            "delay.self_s": (layer["delay"], "s"),
            "delay.bind_calls": (calls("delay.delay_bind"), "count"),
            "delay.force_calls": (calls("delay.DelayThunk.force"), "count"),
            "delay.delivered_support_max": (w["delay.delivered_support_max"], "count"),
            "delay.frontier_pending_max": (w["delay.frontier_pending_max"], "count"),
            "syntax.dist_key_calls": (calls("syntax.Term.dist_key"), "count"),
            "syntax.dist_key_s": (selfs("syntax.Term.dist_key"), "s"),
            "syntax.subst_calls": (calls("syntax.subst"), "count"),
            "syntax.subst_nodes": (calls("syntax.subst") + calls("syntax.subst.inner"), "count"),
            "syntax.subst_s": (selfs("syntax.subst"), "s"),
            "syntax.is_value_calls": (calls("syntax.is_value"), "count"),
            "syntax.self_s": (layer["syntax"], "s"),
            "opsem.eval_calls": (eval_calls, "count"),
            "opsem.builds": (op_builds, "count"),
            "opsem.memo_hit_ratio": (ratio(x["opsem.memo_hits"], x["opsem.memo_hits"] + op_builds), "ratio"),
            "opsem.self_s": (layer["opsem"], "s"),
            "densem.interp_calls": (interp_calls, "count"),
            "densem.builds": (den_builds, "count"),
            "densem.memo_hit_ratio": (ratio(x["densem.memo_hits"], x["densem.memo_hits"] + den_builds), "ratio"),
            "densem.self_s": (layer["densem"], "s"),
            "relate.lift_calls": (calls("relate.lift_check"), "count"),
            "relate.logrel_calls": (calls("relate.logrel_val"), "count"),
            "relate.coupling_calls": (calls("relate._max_flow"), "count"),
            "relate.self_s": (layer["relate"], "s"),
            "relate.horizon_runs": (x["relate.horizon_runs"], "count"),
            "parser.load_s": (layer["parser"], "s"),
            "parser.src_bytes": (x["parser.src_bytes"], "bytes"),
            "typecheck.elaborate_s": (layer["typecheck"], "s"),
            "corpus.build_s": (layer["corpus"], "s"),
            "cli.self_s": (layer["cli"], "s"),
            "cli.out_bytes": (x["cli.out_bytes"], "bytes"),
            "trace.hook_s": (self.hook_s, "s"),
            "trace.self_gap_s": (self.gap_s, "s"),
            "trace.spans": (self.spans, "count"),
        }

    def write(self, path):
        """All recorded spans, one per line: id, parent, request, name,
        start and end in microseconds from the first span."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_us\tend_us\n")
            for i in range(len(self.starts)):
                fh.write("%d\t%d\t%d\t%s\t%.1f\t%.1f\n" % (
                    i, self.parents[i], self.requests[i], self.names[self.name_col[i]],
                    (self.starts[i] - t0) * 1e6, (self.ends[i] - t0) * 1e6))
