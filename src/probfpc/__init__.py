"""Executable semantics workbench for a call-by-value probabilistic lambda
calculus with iso-recursive types.

The package keeps every probability an exact rational.  `dist` is the free
convex algebra (finite distributions); `delay` layers step-counted
partiality over it; `syntax`/`typecheck`/`parser` define the object
language; `opsem` evaluates, `densem` interprets, and `relate` checks
refinements between the two through couplings and a type-indexed relation.
"""

from .rational import ZERO, ONE, ProbRangeError, as_prob, as_uprob, parse_rat
from .dist import Dist, Inl, Inr, dirac, choice, dist_bind, dist_map, key_of
from .delay import (
    DelayThunk, now, step, step_fn, delay_bind, delay_map, run, Frontier,
    probterm_seq, leqlim_upto, eqlim_upto,
)
from .syntax import (
    Ty, UnitT, NatT, ProdT, SumT, FnT, MuT, TVarT, render_ty, mu_unfold,
    BOOL_T, Term, Star, Num, Var, Suc, Pred, Ifz, Pair, Fst, Snd, Inj, Case,
    Lam, App, Fold, Unfold, Choice, is_value, subst, true_term, false_term,
)
from .typecheck import TypecheckError, elaborate
from .parser import ParseError, parse_term, parse_ty, load_file
from .opsem import EvalDefect, Evaluator
from .densem import STANDARD, STEP_FAITHFUL, FoldV, SemDefect, Interp
from .relate import (
    LiftVerdict, lift_check, RelateCfg, default_probes, logrel_val,
    refine_check,
)
from .corpus import (
    CATALOGUE, corpus, y_comb, id_hes, fair_from, geo_loop, diverge_term,
    LAZY_LIST, head_term, everysnd_term, randw_fn, randw2_fn,
)

__version__ = "0.1.0"
