"""Precise implication, resolution f-projections, and refutation extraction.

A configuration here is a set of clauses over substituted variables
x#1..x#d.  Projections map such configurations to clause sets over the
base variables: a clause is projected iff the configuration implies its
f-encoded disjunction but no strict subclause's.  That is exactly a
prime implicate of the configuration's block image: the set of base
assignments that some satisfying assignment of the configuration maps
to, block by block under f.  The image is computed over the
configuration's own mentioned base variables, with truth tables over
their full blocks held as integer bitmasks, so memory grows with the
variables of one configuration and never with those of the formula.
"""

from __future__ import annotations

import itertools
import random

from .boolfunc import BooleanFunction, is_k_nonauthoritarian, prime_implicates
from .cnf import Clause, CnfFormula, EMPTY_CLAUSE, Lit, Value, minimized, neg
from .errors import BudgetExceeded, InternalContractViolation, PeblabError
from .formulas import base_of_substituted, block_vars, split_substituted, substitute_clause
from .resolution import Download, ProofBuilder, Refutation, _replay, resolve

_VAR_CAP = 24  # truth tables enumerate 2^(d * |base vars|) assignments
_LOCAL_CAP = 12  # local_projection_variables enumerates 2^|D| subsets
# the shape of a sample_configurations configuration
_SAMPLE_CLAUSES = 8
_SAMPLE_BASE_VARS = 4
_SAMPLE_WIDTH = 4


def _repeating_mask(position: int, total: int) -> int:
    """Bitmask over 2^total assignments where bit `position` of the index is 1."""
    mask = ((1 << (1 << position)) - 1) << (1 << position)  # one period: 0s then 1s
    length = 1 << (position + 1)
    while length < 1 << total:
        mask |= mask << length
        length <<= 1
    return mask


class ProjectionWorld:
    """Bitmask truth tables over the blocks of a fixed base-variable set."""

    def __init__(self, base_vars, f: BooleanFunction):
        self.f = f
        self.base_vars = tuple(sorted(set(base_vars)))
        self.sub_vars = tuple(
            sv for x in self.base_vars for sv in block_vars(x, f.arity)
        )
        n = len(self.sub_vars)
        if n > _VAR_CAP:
            raise BudgetExceeded(n, _VAR_CAP, "projection truth table", unit="variables")
        self.n = n
        self.full = (1 << (1 << n)) - 1 if n else 1
        self._position = {v: i for i, v in enumerate(self.sub_vars)}
        self._lit_masks: dict[Lit, int] = {}
        for v, p in self._position.items():
            mask = _repeating_mask(p, n)
            self._lit_masks[(v, True)] = mask
            self._lit_masks[(v, False)] = mask ^ self.full
        self._signed: dict[tuple[str, bool], int] = {}
        for x in self.base_vars:
            block = block_vars(x, f.arity)
            on = 0
            for index in range(1 << f.arity):
                sub = self.full
                for j, v in enumerate(block):
                    sub &= self._lit_masks[(v, bool((index >> j) & 1))]
                if f.value(index):
                    on |= sub
            self._signed[(x, True)] = on
            self._signed[(x, False)] = on ^ self.full

    def clause_mask(self, c: Clause) -> int:
        mask = 0
        for lit in c:
            if lit not in self._lit_masks:
                raise PeblabError(f"variable {lit[0]!r} outside this projection world")
            mask |= self._lit_masks[lit]
        return mask

    def config_mask(self, clauses) -> int:
        mask = self.full
        for c in clauses:
            mask &= self.clause_mask(c)
        return mask

    def disjunction_mask(self, c: Clause) -> int:
        """Mask of assignments satisfying OR of f^nu over c's literals."""
        mask = 0
        for name, polarity in c:
            mask |= self._signed[(name, polarity)]
        return mask

    def implies(self, config_mask: int, other_mask: int) -> bool:
        return config_mask & ~other_mask & self.full == 0

    def block_image(self, config_mask: int) -> int:
        """Truth table over base_vars (bit j of an index is base_vars[j]) of
        the base assignments that some assignment in config_mask maps to."""
        parts = {0: config_mask} if config_mask else {}
        for j, x in enumerate(self.base_vars):
            parts = {
                index | (value << j): part
                for index, mask in parts.items()
                for value in (False, True)
                if (part := mask & self._signed[(x, value)])
            }
        return sum(1 << index for index in parts)


def _mentioned_base_vars(clauses) -> tuple[str, ...]:
    out = set()
    for c in clauses:
        for name, _ in c:
            base, _idx = split_substituted(name)
            out.add(base)
    return tuple(sorted(out))


def _candidate_clauses(base_vars) -> list[Clause]:
    cands = []
    for polarities in itertools.product((None, True, False), repeat=len(base_vars)):
        lits = frozenset(
            (v, p) for v, p in zip(base_vars, polarities) if p is not None
        )
        cands.append(Clause(lits))
    return cands


def precisely_implies(d, c: Clause, f: BooleanFunction) -> bool:
    """D implies the f-encoded disjunction of c, but no strict subclause's."""
    d = list(d)
    world = ProjectionWorld(_mentioned_base_vars(d) + tuple(c.variables()), f)
    dmask = world.config_mask(d)
    if not world.implies(dmask, world.disjunction_mask(c)):
        return False
    for lit in c:
        if world.implies(dmask, world.disjunction_mask(c.without(lit))):
            return False
    return True


def project(d, f: BooleanFunction) -> frozenset[Clause]:
    """Resolution f-projection: all clauses over the mentioned base
    variables that D precisely implies.  Always an antichain."""
    d = list(d)
    world = ProjectionWorld(_mentioned_base_vars(d), f)
    return prime_implicates(world.block_image(world.config_mask(d)), world.base_vars)


def local_project(d, f: BooleanFunction) -> frozenset[Clause]:
    """Union of project over all subsets of D, subsumption-minimized.

    Only the subsets D_V, the clauses of D whose base variables lie in V,
    for V a union of clauses' base-variable sets, need projecting: any
    subset D' lies in D_V for V = Vars(D'), so a prime implicate of D_V
    subsumes each clause of project(D').  _VAR_CAP bounds the 2^|base
    vars| choices of V.  Each D_V is projected in D's world, where the
    base variables it leaves unmentioned are free.
    """
    d = set(d)
    world = ProjectionWorld(_mentioned_base_vars(d), f)
    clause_vars = {c: frozenset(_mentioned_base_vars([c])) for c in d}
    unions = {frozenset()}
    for vs in set(clause_vars.values()):
        unions |= {u | vs for u in unions}
    closed = {frozenset(c for c in d if clause_vars[c] <= u) for u in unions}
    out: set[Clause] = set()
    for d_v in closed:
        out |= prime_implicates(world.block_image(world.config_mask(d_v)), world.base_vars)
    return minimized(out)


def local_projection_variables(d, f: BooleanFunction) -> frozenset[str]:
    """Base variables mentioned by the unminimized union of project over
    all 2^|D| subsets of D.  The union over local_project's subsets D_V
    can mention fewer, so every subset is enumerated.
    """
    d = sorted(set(d), key=Clause.sort_key)
    if len(d) > _LOCAL_CAP:
        raise BudgetExceeded(len(d), _LOCAL_CAP, "local projection subset enumeration", unit="clauses")
    world = ProjectionWorld(_mentioned_base_vars(d), f)
    clause_masks = [world.clause_mask(c) for c in d]
    out: set[str] = set()
    for bits in range(1 << len(d)):
        dmask = world.full
        for i, mask in enumerate(clause_masks):
            if (bits >> i) & 1:
                dmask &= mask
        for c in prime_implicates(world.block_image(dmask), world.base_vars):
            out |= c.variables()
    return frozenset(out)


# -- refutation extraction -------------------------------------------------


def projected_sequence(r_f: Refutation, f: BooleanFunction, use_local: bool = False):
    """Projected clause sets C_t for every configuration D_t of r_f,
    plus the per-step downloaded base axiom (None otherwise).  r_f is
    checked as it is replayed, so an illegal step raises as in
    `check_refutation`."""
    return _projected_sequence(r_f, f, use_local, base_of_substituted(r_f.target, f)[1])


def _projected_sequence(r_f: Refutation, f: BooleanFunction, use_local: bool, axiom_map):
    # axiom_map: the substituted-to-base clause map of base_of_substituted(r_f.target, f)
    if r_f.system != "res":
        raise PeblabError("projections are computed for resolution refutations only")
    projector = local_project if use_local else project
    out = [(frozenset(), None)]
    for step, line, _, config in _replay(r_f, False):
        out.append((projector(config, f), axiom_map[line] if isinstance(step, Download) else None))
    return out


def _weakening_source(candidates, target: Clause) -> Clause | None:
    options = [c for c in candidates if c.subsumes(target)]
    if not options:
        return None
    return min(options, key=Clause.sort_key)


def extract_refutation(r_f: Refutation, f: BooleanFunction, use_local: bool = False) -> Refutation:
    """Extract a resolution refutation of F from a refutation of F[f].

    Replays r_f, projecting every configuration; fills the transitions
    between consecutive projected sets with erasures and weakenings, and
    handles axiom downloads by deriving each genuinely new projected
    clause from the guaranteed ~a v C clauses by successive resolutions
    with the downloaded base axiom.  Downloads at most one base axiom
    per download of r_f.  r_f is checked by the replay that projects it.
    """
    base, axiom_map = base_of_substituted(r_f.target, f)
    sequence = _projected_sequence(r_f, f, use_local, axiom_map)
    b = ProofBuilder(base)
    prev: frozenset[Clause] = frozenset()

    for cur, axiom in sequence[1:]:
        new = sorted(cur - prev, key=Clause.sort_key)
        if axiom is None:
            # erase-then-weaken-then-erase
            state = set(prev)
            for c in sorted(prev - cur, key=Clause.sort_key):
                if not any(c.subsumes(o) for o in cur):
                    b.erase(c)
                    state.discard(c)
            for c in new:
                src = _weakening_source(state, c)
                if src is None:
                    raise InternalContractViolation(
                        f"monotonicity: no weakening source for ({c})"
                    )
                b.weaken(src, c)
            for c in sorted(prev - cur, key=Clause.sort_key):
                if c in state:
                    b.erase(c)
        else:
            downloaded = False
            transients: list[Clause] = []
            for c in new:
                if b.has(c):
                    continue
                # no clause of prev is inside c: the configuration grew, so each contains one of cur
                if not downloaded:
                    b.download(axiom)
                    downloaded = True
                if c == axiom:
                    continue
                if axiom.subsumes(c):
                    b.weaken(axiom, c)
                    continue
                current = axiom
                for lit in sorted(axiom - c):
                    helper = Clause(c | {neg(lit)})
                    if not b.has(helper):
                        hsrc = _weakening_source(prev, helper)
                        if hsrc is None:
                            raise InternalContractViolation(
                                f"incremental soundness: no source for ({helper})"
                            )
                        b.weaken(hsrc, helper)
                        if helper not in cur:
                            transients.append(helper)
                    name, polarity = lit
                    c1, c2 = (current, helper) if polarity else (helper, current)
                    nxt = resolve(c1, c2, name)
                    if not b.has(nxt):
                        b.infer_resolve(c1, c2, name)
                    if nxt != c and nxt not in cur:
                        transients.append(nxt)
                    current = nxt
                if current != c:
                    raise InternalContractViolation(
                        f"axiom dance for ({c}) ended at ({current})"
                    )
            for c in sorted(prev - cur, key=Clause.sort_key):
                if b.has(c):
                    b.erase(c)
            for c in transients:
                if c not in cur and b.has(c):
                    b.erase(c)
            if downloaded and axiom not in cur and b.has(axiom):
                b.erase(axiom)
        prev = cur

    if EMPTY_CLAUSE not in prev:
        raise InternalContractViolation("final projection does not contain the empty clause")
    return b.build()


# -- property suites ---------------------------------------------------------


class SuiteReport(Value):
    __slots__ = _fields = ("sample_count", "checks")

    def __init__(self, sample_count: int, checks: int):
        self.sample_count = sample_count
        self.checks = checks


def sample_configurations(f: BooleanFunction, count: int, seed: int):
    """Seeded random configurations over substituted variables."""
    rng = random.Random(seed)
    names = [chr(ord("p") + i) for i in range(_SAMPLE_BASE_VARS)]
    universe = [v for x in names for v in block_vars(x, f.arity)]
    out = []
    for _ in range(count):
        nclauses = rng.randint(1, _SAMPLE_CLAUSES)
        config = set()
        for _ in range(nclauses):
            width = rng.randint(1, min(_SAMPLE_WIDTH, len(universe)))
            chosen = rng.sample(universe, width)
            config.add(Clause((v, rng.random() < 0.5) for v in chosen))
        out.append(sorted(config, key=Clause.sort_key))
    return out


def projection_axiom_suite(f: BooleanFunction, samples, seed: int = 0) -> SuiteReport:
    """Brute-force verification of the four projection properties
    (complete, nontrivial, monotone, incrementally sound) for both the
    plain and the local projection on every sample configuration.
    Raises InternalContractViolation on any failure."""
    rng = random.Random(seed)
    checks = 0

    if project([], f) != frozenset() or local_project([], f) != frozenset():
        raise InternalContractViolation("nontriviality failed on the empty configuration")

    for d in samples:
        d = sorted(set(d), key=Clause.sort_key)
        base_vars = _mentioned_base_vars(d)
        world = ProjectionWorld(base_vars, f)
        dmask = world.config_mask(d)
        # the reference: every candidate clause, by brute force
        candidates = [(c, world.disjunction_mask(c)) for c in _candidate_clauses(base_vars)]

        # monotone: strengthen D with an implied clause
        implied = None
        if d and base_vars:
            extra_lits = set(d[rng.randrange(len(d))])
            pool = [v for v in world.sub_vars if v not in {n for n, _ in extra_lits}]
            if pool:
                v = rng.choice(pool)
                extra_lits.add((v, rng.random() < 0.5))
            implied = Clause(extra_lits)

        # incrementally sound: add an encoding of a random base axiom
        axiom = None
        if base_vars:
            width = rng.randint(1, len(base_vars))
            chosen = rng.sample(list(base_vars), width)
            axiom = Clause((x, rng.random() < 0.5) for x in chosen)
            encodings = sorted(substitute_clause(axiom, f), key=Clause.sort_key)
            line = encodings[rng.randrange(len(encodings))]

        for name, projector in (("plain", project), ("local", local_project)):
            proj = projector(d, f)
            for cand, mask in candidates:
                checks += 1
                if world.implies(dmask, mask) and not any(p.subsumes(cand) for p in proj):
                    raise InternalContractViolation(
                        f"completeness failed: ({cand}) implied but not weakening-derivable "
                        f"({name} projection)"
                    )
            if implied is not None:
                stronger = projector(d + [implied], f)
                for c in proj:
                    checks += 1
                    if not any(p.subsumes(c) for p in stronger):
                        raise InternalContractViolation(
                            f"monotonicity failed for ({c}) after adding ({implied}) "
                            f"({name} projection)"
                        )
            if axiom is not None:
                for c in projector(d + [line], f):
                    for lit in axiom - c:
                        checks += 1
                        want = Clause(c | {neg(lit)})
                        if not any(p.subsumes(want) for p in proj):
                            raise InternalContractViolation(
                                f"incremental soundness failed: ({want}) not derivable "
                                f"({name} projection)"
                            )

    return SuiteReport(sample_count=len(samples), checks=checks)


class SpaceRespectRow(Value):
    __slots__ = _fields = ("config_id", "clause_count", "projected_variables", "within_bound")

    def __init__(self, config_id: int, clause_count: int, projected_variables: int, within_bound: bool):
        self.config_id = config_id
        self.clause_count = clause_count
        self.projected_variables = projected_variables
        self.within_bound = within_bound


class SpaceRespectReport(Value):
    __slots__ = _fields = ("rows", "enforced", "max_ratio", "violations")

    def __init__(self, rows: tuple[SpaceRespectRow, ...], enforced: bool, max_ratio: float,
                 violations: tuple[int, ...] = ()):
        self.rows = rows
        self.enforced = enforced
        self.max_ratio = max_ratio
        self.violations = violations

    def csv_lines(self):
        yield "config_id,clauses,projected_variables,within_bound"
        for row in self.rows:
            yield f"{row.config_id},{row.clause_count},{row.projected_variables},{'yes' if row.within_bound else 'no'}"


def space_respecting_check(f: BooleanFunction, samples) -> SpaceRespectReport:
    """Check |Vars(local projection)| <= |D| on every sample.

    For non-authoritarian f the bound is asserted (violations raise).
    For authoritarian f it is informational only: a single pinned input
    can fix such a function, so the bound has no reason to hold.
    """
    enforced = is_k_nonauthoritarian(f, 1)
    rows = []
    violations = []
    max_ratio = 0.0
    for config_id, d in enumerate(samples):
        d = sorted(set(d), key=Clause.sort_key)
        count = len(d)
        var_count = len(local_projection_variables(d, f))
        ok = var_count <= count
        if count:
            max_ratio = max(max_ratio, var_count / count)
        if not ok:
            violations.append(config_id)
        rows.append(SpaceRespectRow(config_id, count, var_count, ok))
    report = SpaceRespectReport(
        rows=tuple(rows),
        enforced=enforced,
        max_ratio=max_ratio,
        violations=tuple(violations),
    )
    if enforced and violations:
        raise PeblabError(
            f"space-respecting bound violated on configurations {violations} "
            "for a non-authoritarian function"
        )
    return report
