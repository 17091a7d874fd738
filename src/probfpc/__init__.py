"""Executable semantics workbench for a call-by-value probabilistic lambda
calculus with iso-recursive types.

The package keeps every probability an exact rational.  `dist` is the free
convex algebra (finite distributions); `delay` layers step-counted
partiality over it; `syntax`/`typecheck`/`parser` define the object
language; `opsem` evaluates, `densem` interprets, and `relate` checks
refinements between the two through couplings and a type-indexed relation.
"""

from .rational import (
    Rat, ZERO, ONE, ProbRangeError, as_prob, as_uprob, complement,
    assoc_coeff, convex_combine, parse_rat, render_rat,
)
from .dist import (
    Dist, Inl, Inr, dirac, choice, dist_bind, dist_map, dist_eq, prob_of,
    key_of, LeftOnly, RightOnly, Mixed, decompose_sum, recompose,
    UnkeyedEqError,
)
from .delay import (
    Delay, DelayThunk, now, step, step_fn, step_of, dchoice, delay_bind,
    delay_map, zeta, run, run_n, Frontier, probterm0, probterm, TermSeq,
    probterm_seq, value_part, Refl, StepElim, Seq, ChoiceCong, WitnessShapeError,
    check_witness, witness_for_run, witness_to_text, witness_from_text,
    embed_approx, leqlim_upto, eqlim_upto, geo, hesitant, prefix_eq, node_eq,
)
from .syntax import (
    Ty, UnitT, NatT, ProdT, SumT, FnT, MuT, TVarT, render_ty, mu_unfold,
    BOOL_T, Term, Star, Num, Var, Suc, Pred, Ifz, Pair, Fst, Snd, Inj, Case,
    Lam, App, Fold, Unfold, Choice, is_value, subst, true_term, false_term,
)
from .typecheck import TypecheckError, typecheck, elaborate
from .parser import (
    ParseError, parse_program, parse_term, parse_ty, load_file, pretty,
    pretty_ty,
)
from .opsem import EvalDefect, Evaluator, eval_probterm
from .densem import (
    STANDARD, STEP_FAITHFUL, NatV, UNIT, PairV, FunV, FoldV,
    SemDefect, Interp, val_interp, is_ground_ty, ground_eq, soundness_check,
)
from .relate import (
    Coupling, max_coupling, LiftVerdict, lift_check, RelateCfg,
    default_probes, logrel_val, refine_check,
)
from .corpus import (
    CATALOGUE, corpus, y_comb, id_hes, fair_from, geo_loop, geo_chain,
    diverge_term, omega_nat, LAZY_LIST, nil_term, cons_term, head_term,
    tail_term, everysnd_term, randw_fn, randw2_fn, force_k, nth_head,
    unitize,
)

__version__ = "0.1.0"
