"""Serialize models to LP/MPS text, read them back, and report statistics.

Both formats are deterministic down to the byte: variables appear in insertion
order, constraints in build order, and every coefficient is printed in the
shortest decimal form that round-trips the underlying double (never scientific
notation).  Constraint rows are named ``<label>.<index>`` so labels survive a
round trip.  Quadratic objective entries use the bracketed ``[ ... ] / 2``
convention in LP files and a QUADOBJ section in MPS files; in both, a stored
entry q on (x, y) contributes q/2 * x * y to the objective, so writers emit
twice the internal coefficient.  Models carrying bilinear constraint terms are
rejected: neither format can express them.
"""

import math
from dataclasses import dataclass
from decimal import Decimal

from .ir import (BINARY, CONTINUOUS, EQ, GE, LE, Assignment, LinCon, ModelIR,
                 VarDef, round_binaries)

INF = float("inf")


class EmitError(Exception):
    pass


class BilinearUnsupportedError(EmitError):
    pass


class SolutionError(EmitError):
    pass


def fmt(x):
    """Shortest decimal representation that round-trips, positional notation."""
    x = float(x)
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    r = repr(x)
    if "e" in r or "E" in r:
        return format(Decimal(r), "f")
    return r


def _require_frozen(model):
    if not model.frozen:
        raise EmitError("freeze the model before emission")
    if model.bilinear_constraints:
        raise BilinearUnsupportedError(
            "model carries %d bilinear constraints" % len(model.bilinear_constraints))


def _row_name(label, index):
    return "%s.%d" % (label, index)


def _split_row_name(name):
    label, _, idx = name.rpartition(".")
    return label, int(idx)


# ---------------------------------------------------------------------------
# LP format


def write_lp(model, path):
    _require_frozen(model)
    text = lp_text(model)
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def lp_text(model):
    lines = ["\\ Problem: %s" % model.name, "Minimize"]
    obj_parts = []
    for c, r in model.objective.linear:
        obj_parts.append(_signed(c, r.name))
    if model.objective.quadratic:
        quad = []
        for c, r1, r2 in model.objective.quadratic:
            if r1.name == r2.name:
                quad.append(_signed(2.0 * c, "%s ^ 2" % r1.name))
            else:
                quad.append(_signed(2.0 * c, "%s * %s" % (r1.name, r2.name)))
        obj_parts.append("+ [ " + _join_terms(quad) + " ] / 2")
    if model.objective.constant:
        obj_parts.append(_signed(model.objective.constant, ""))
    lines.append(" obj: " + (_join_terms(obj_parts) if obj_parts else "0"))
    lines.append("Subject To")
    for i, con in enumerate(model.constraints):
        terms = _join_terms([_signed(c, r.name) for c, r in con.terms]) or "0"
        lines.append(" %s: %s %s %s"
                     % (_row_name(con.label, i), terms, con.sense, fmt(con.rhs)))
    # every variable gets a bounds line, in insertion order: the Bounds
    # section doubles as the authoritative variable list on re-parse
    lines.append("Bounds")
    for v in model.variables:
        if v.lo == -INF and v.hi == INF:
            lines.append(" %s free" % v.name)
        elif v.lo == -INF:
            lines.append(" %s <= %s" % (v.name, fmt(v.hi)))
        elif v.hi == INF:
            lines.append(" %s >= %s" % (v.name, fmt(v.lo)))
        elif v.lo == v.hi:
            lines.append(" %s = %s" % (v.name, fmt(v.lo)))
        else:
            lines.append(" %s <= %s <= %s" % (fmt(v.lo), v.name, fmt(v.hi)))
    binaries = [v for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        for v in binaries:
            lines.append(" %s" % v.name)
    lines.append("End")
    return "\n".join(lines) + "\n"


def _signed(c, body):
    sign = "-" if c < 0 else "+"
    mag = fmt(abs(c))
    return ("%s %s %s" % (sign, mag, body)).rstrip()


def _join_terms(parts):
    out = " ".join(parts)
    if out.startswith("+ "):
        out = out[2:]
    return out


def read_lp(path):
    with open(path) as fh:
        return parse_lp(fh.read())


def parse_lp(text):
    model = ModelIR("model")
    section = None
    # pass 1: discover variables in first-appearance order is NOT enough to
    # reproduce insertion order, so the Bounds/Binaries sections are treated
    # as the authoritative variable list and parsed first.
    lines = [ln for ln in text.splitlines()]
    var_order = []
    var_bounds = {}
    var_kind = {}
    for ln in lines:
        s = ln.strip()
        if s.startswith("\\") and s[1:].lstrip().startswith("Problem:"):
            model.name = s.split("Problem:", 1)[1].strip()
        if not s or s.startswith("\\"):
            continue
        low = s.lower()
        if low in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = low
            continue
        if section == "bounds":
            name, lo, hi = _parse_bound_line(s)
            var_order.append(name)
            var_bounds[name] = (lo, hi)
            var_kind[name] = CONTINUOUS
        elif section == "binaries":
            var_kind[s] = BINARY
    refs = {}
    for name in var_order:
        lo, hi = var_bounds[name]
        refs[name] = model.add_variable(VarDef(name, var_kind[name],
                                               lo if var_kind[name] == CONTINUOUS
                                               else 0.0, hi))
        if var_kind[name] == BINARY and (lo, hi) != (0.0, 1.0):
            model.set_bounds(name, lo, hi)

    section = None
    obj_tokens = []
    for ln in lines:
        s = ln.strip()
        if not s or s.startswith("\\"):
            continue
        low = s.lower()
        if low in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = low
            continue
        if section == "minimize":
            if s.startswith("obj:"):
                s = s[4:].strip()
            obj_tokens.extend(s.split())
        elif section == "subject to":
            name, rest = s.split(":", 1)
            label, _ = _split_row_name(name.strip())
            toks = rest.split()
            sense_idx = next(i for i, t in enumerate(toks) if t in (LE, EQ, GE))
            terms, const = _parse_terms(toks[:sense_idx], refs)
            rhs = float(toks[sense_idx + 1]) - const
            model.add_constraint(terms, toks[sense_idx], rhs, label)
    _parse_objective(model, obj_tokens, refs)
    model.freeze()
    return model


def _parse_bound_line(s):
    toks = s.split()
    if len(toks) == 2 and toks[1] == "free":
        return toks[0], -INF, INF
    if len(toks) == 3 and toks[1] == "<=":
        return toks[0], -INF, float(toks[2])
    if len(toks) == 3 and toks[1] == ">=":
        return toks[0], float(toks[2]), INF
    if len(toks) == 3 and toks[1] == "=":
        return toks[0], float(toks[2]), float(toks[2])
    if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
        return toks[2], float(toks[0]), float(toks[4])
    raise EmitError("bad bound line: %r" % s)


def _parse_terms(tokens, refs):
    """Sign/coefficient/name token runs -> (terms, constant)."""
    terms = []
    const = 0.0
    sign = 1.0
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t == "+":
            sign = 1.0
            i += 1
            continue
        if t == "-":
            sign = -1.0
            i += 1
            continue
        coef = sign * float(t)
        if i + 1 < len(tokens) and tokens[i + 1] not in ("+", "-"):
            name = tokens[i + 1]
            terms.append((coef, refs[name]))
            i += 2
        else:
            const += coef
            i += 1
        sign = 1.0
    return terms, const


def _parse_objective(model, tokens, refs):
    if tokens == ["0"]:
        return
    # split off the bracketed quadratic block, if any
    if "[" in tokens:
        bi = tokens.index("[")
        ei = tokens.index("]")
        lin_tokens = tokens[:bi] + tokens[ei + 3:]   # skip "] / 2"
        if lin_tokens and lin_tokens[-1] == "+":
            lin_tokens = lin_tokens[:-1]
        quad_tokens = tokens[bi + 1:ei]
        i = 0
        sign = 1.0
        while i < len(quad_tokens):
            t = quad_tokens[i]
            if t in ("+", "-"):
                sign = 1.0 if t == "+" else -1.0
                i += 1
                continue
            coef = sign * float(t)
            v1 = quad_tokens[i + 1]
            if quad_tokens[i + 2] == "^":
                model.add_objective_quadratic(coef / 2.0, refs[v1], refs[v1])
                i += 4
            else:
                v2 = quad_tokens[i + 3]
                model.add_objective_quadratic(coef / 2.0, refs[v1], refs[v2])
                i += 4
            sign = 1.0
    else:
        lin_tokens = tokens
    terms, const = _parse_terms(lin_tokens, refs)
    for c, r in terms:
        model.add_objective_linear(c, r)
    model.add_objective_constant(const)


# ---------------------------------------------------------------------------
# MPS format


def write_mps(model, path):
    _require_frozen(model)
    data = mps_text(model).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def mps_text(model):
    lines = ["NAME %s" % model.name, "ROWS", " N OBJ"]
    sense_tag = {LE: "L", GE: "G", EQ: "E"}
    for i, con in enumerate(model.constraints):
        lines.append(" %s %s" % (sense_tag[con.sense], _row_name(con.label, i)))

    # column entries: objective first, then constraints in row order
    obj_coef = {}
    for c, r in model.objective.linear:
        obj_coef[r.index] = obj_coef.get(r.index, 0.0) + c
    col_entries = {i: [] for i in range(len(model.variables))}
    for i, con in enumerate(model.constraints):
        for c, r in con.terms:
            col_entries[r.index].append((_row_name(con.label, i), c))

    lines.append("COLUMNS")
    in_int = False
    marker = 0
    for idx, v in enumerate(model.variables):
        want_int = v.kind == BINARY
        if want_int != in_int:
            tag = "'INTORG'" if want_int else "'INTEND'"
            lines.append("    MARKER%d 'MARKER' %s" % (marker, tag))
            marker += 1
            in_int = want_int
        entries = [("OBJ", obj_coef.get(idx, 0.0))] + col_entries[idx]
        for row, c in entries:
            lines.append("    %s %s %s" % (v.name, row, fmt(c)))
    if in_int:
        lines.append("    MARKER%d 'MARKER' 'INTEND'" % marker)

    lines.append("RHS")
    if model.objective.constant:
        lines.append("    RHS OBJ %s" % fmt(-model.objective.constant))
    for i, con in enumerate(model.constraints):
        if con.rhs:
            lines.append("    RHS %s %s" % (_row_name(con.label, i), fmt(con.rhs)))

    lines.append("BOUNDS")
    for v in model.variables:
        if v.kind == BINARY:
            # binaries default to [0, 1]; only tightened bounds are emitted
            if v.lo == v.hi:
                lines.append(" FX BND %s %s" % (v.name, fmt(v.lo)))
            else:
                if v.lo != 0.0:
                    lines.append(" LO BND %s %s" % (v.name, fmt(v.lo)))
                if v.hi != 1.0:
                    lines.append(" UP BND %s %s" % (v.name, fmt(v.hi)))
            continue
        if v.lo == -INF and v.hi == INF:
            lines.append(" FR BND %s" % v.name)
            continue
        if v.lo == v.hi:
            lines.append(" FX BND %s %s" % (v.name, fmt(v.lo)))
            continue
        if v.lo != 0.0:
            if v.lo == -INF:
                lines.append(" MI BND %s" % v.name)
            else:
                lines.append(" LO BND %s %s" % (v.name, fmt(v.lo)))
        if v.hi != INF:
            lines.append(" UP BND %s %s" % (v.name, fmt(v.hi)))

    if model.objective.quadratic:
        lines.append("QUADOBJ")
        for c, r1, r2 in model.objective.quadratic:
            lines.append("    %s %s %s" % (r1.name, r2.name, fmt(2.0 * c)))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def read_mps(path):
    with open(path) as fh:
        return parse_mps(fh.read())


def parse_mps(text):
    model = ModelIR("model")
    sense_by_tag = {"L": LE, "G": GE, "E": EQ}
    rows = []                  # (label, sense) in order
    row_index = {}
    col_order = []
    col_kind = {}
    col_entries = {}           # name -> [(rowname, coef)]
    bounds = {}
    rhs = {}
    obj_const = 0.0
    quad = []
    section = None
    in_int = False
    name = "model"

    for ln in text.splitlines():
        if not ln.strip():
            continue
        if not ln[0].isspace():
            toks = ln.split()
            section = toks[0]
            if section == "NAME" and len(toks) > 1:
                name = toks[1]
            continue
        toks = ln.split()
        if section == "ROWS":
            tag, rname = toks
            if tag == "N":
                continue
            row_index[rname] = len(rows)
            rows.append((rname, sense_by_tag[tag]))
        elif section == "COLUMNS":
            if len(toks) >= 2 and toks[1] == "'MARKER'":
                in_int = toks[2] == "'INTORG'"
                continue
            col, row, val = toks
            if col not in col_entries:
                col_order.append(col)
                col_entries[col] = []
                col_kind[col] = BINARY if in_int else CONTINUOUS
            col_entries[col].append((row, float(val)))
        elif section == "RHS":
            _, row, val = toks
            if row == "OBJ":
                obj_const = -float(val)
            else:
                rhs[row] = float(val)
        elif section == "BOUNDS":
            tag = toks[0]
            col = toks[2]
            lo, hi = bounds.get(col, (0.0, INF))
            if tag == "FR":
                lo, hi = -INF, INF
            elif tag == "MI":
                lo = -INF
            elif tag == "FX":
                lo = hi = float(toks[3])
            elif tag == "LO":
                lo = float(toks[3])
            elif tag == "UP":
                hi = float(toks[3])
            else:
                raise EmitError("unsupported bound tag %r" % tag)
            bounds[col] = (lo, hi)
        elif section == "QUADOBJ":
            quad.append((toks[0], toks[1], float(toks[2])))

    model.name = name
    refs = {}
    for col in col_order:
        if col_kind[col] == BINARY:
            refs[col] = model.add_variable(VarDef(col, BINARY))
            if col in bounds:
                lo, hi = bounds[col]
                model.set_bounds(col, max(lo, 0.0), min(hi, 1.0))
        else:
            lo, hi = bounds.get(col, (0.0, INF))
            refs[col] = model.add_variable(VarDef(col, CONTINUOUS, lo, hi))

    terms_by_row = {rname: [] for rname, _ in rows}
    for col in col_order:
        for row, val in col_entries[col]:
            if row == "OBJ":
                if val:
                    model.add_objective_linear(val, refs[col])
            else:
                terms_by_row[row].append((val, refs[col]))
    for rname, sense in rows:
        label, _ = _split_row_name(rname)
        model.add_constraint(terms_by_row[rname], sense, rhs.get(rname, 0.0), label)
    for v1, v2, q in quad:
        model.add_objective_quadratic(q / 2.0, refs[v1], refs[v2])
    model.add_objective_constant(obj_const)
    model.freeze()
    return model


# ---------------------------------------------------------------------------
# solution files


@dataclass
class SolutionFile:
    assignment: Assignment
    objective: float = None
    gap: float = None


def write_solution(model, asg, path, objective=None, gap=None):
    lines = []
    if objective is not None:
        lines.append("# objective %s" % fmt(objective))
    if gap is not None:
        lines.append("# gap %s" % fmt(gap))
    for v in model.variables:
        lines.append("%s %s" % (v.name, fmt(asg.values[v.name])))
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_solution(model, path, fill_missing=False, tol=1e-6):
    """Whitespace-separated name/value lines; ``#`` comments; optional
    ``# objective <v>`` / ``# gap <v>`` headers.  A repeated name or a value
    that is not a finite number is an error.  Binaries within tol of an
    integer are rounded; anything farther off is left for the audit to flag."""
    objective = None
    gap = None
    values = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, start=1):
            s = ln.strip()
            if not s:
                continue
            if s.startswith("#"):
                toks = s[1:].split()
                if len(toks) == 2 and toks[0] in ("objective", "gap"):
                    if toks[0] == "objective":
                        objective = float(toks[1])
                    else:
                        gap = float(toks[1])
                continue
            toks = s.split()
            if len(toks) != 2:
                raise SolutionError("%s:%d: expected 'name value'" % (path, lineno))
            name, val = toks
            if name not in model.var_index:
                raise SolutionError("%s:%d: unknown variable %r" % (path, lineno, name))
            if name in values:
                raise SolutionError("%s:%d: repeated variable %r" % (path, lineno, name))
            try:
                x = float(val)
            except ValueError:
                x = math.nan
            if not math.isfinite(x):
                raise SolutionError("%s:%d: value %r of %r is not a finite number"
                                    % (path, lineno, val, name))
            values[name] = x
    for v in model.variables:
        if v.name not in values:
            if fill_missing:
                values[v.name] = 0.0
            else:
                raise SolutionError("%s: no value for %r" % (path, v.name))
    values = round_binaries(model, values, tol)
    return SolutionFile(assignment=Assignment(values=values),
                        objective=objective, gap=gap)


# ---------------------------------------------------------------------------
# statistics


@dataclass
class StatsReport:
    continuous: int
    binary: int
    constraints_by_label: dict
    quadratic_terms: int
    bilinear_terms: int
    binaries_by_family: dict

    @property
    def total_variables(self):
        return self.continuous + self.binary

    @property
    def total_constraints(self):
        return sum(self.constraints_by_label.values())

    def to_text(self):
        lines = ["variables %d" % self.total_variables,
                 "  continuous %d" % self.continuous,
                 "  binary %d" % self.binary]
        for fam in sorted(self.binaries_by_family):
            lines.append("    %s %d" % (fam, self.binaries_by_family[fam]))
        lines.append("constraints %d" % self.total_constraints)
        for label in sorted(self.constraints_by_label):
            lines.append("  %s %d" % (label, self.constraints_by_label[label]))
        lines.append("quadratic_terms %d" % self.quadratic_terms)
        lines.append("bilinear_terms %d" % self.bilinear_terms)
        return "\n".join(lines) + "\n"


def model_stats(model):
    if not model.frozen:
        raise EmitError("freeze the model before computing statistics")
    cont = sum(1 for v in model.variables if v.kind == CONTINUOUS)
    binv = sum(1 for v in model.variables if v.kind == BINARY)
    by_label = {}
    for con in model.constraints:
        by_label[con.label] = by_label.get(con.label, 0) + 1
    for quadcon in model.bilinear_constraints:
        label = quadcon[4]
        by_label[label] = by_label.get(label, 0) + 1
    fam = {}
    for v in model.variables:
        if v.kind == BINARY:
            base = v.name.split("[")[0]
            fam[base] = fam.get(base, 0) + 1
    return StatsReport(
        continuous=cont, binary=binv, constraints_by_label=by_label,
        quadratic_terms=len(model.objective.quadratic),
        bilinear_terms=sum(len(q[0]) for q in model.bilinear_constraints),
        binaries_by_family=fam)


def count_forecast(arch, n, hyper=None):
    """Predicted binary-variable counts without building the model."""
    from .nnspec import ConvArch, DenseArch, conv_map_shapes
    out = {}
    if isinstance(arch, DenseArch):
        out["delta"] = n * sum(arch.hidden_widths)
        out["gamma"] = arch.num_hidden
        out["zeta"] = 0
    elif isinstance(arch, ConvArch):
        shapes = conv_map_shapes(arch)
        out["delta"] = n * sum(c * h * w for c, h, w in shapes)
        out["gamma"] = sum(layer.filters for layer in arch.conv_layers)
        zeta = 0
        for l, layer in enumerate(arch.conv_layers):
            if layer.pool is not None:
                c, h, w = shapes[l]
                zeta += n * c * h * w
        out["zeta"] = zeta
    else:
        raise TypeError("unknown architecture %r" % (arch,))
    if hyper is not None and hyper.mode == "train-quantized":
        from .dense import param_tensors
        tensors = param_tensors(arch)
        wcount = sum(math.prod(t.shape) for t in tensors)
        bcount = sum(t.shape[0] for t in tensors) if hyper.quantize_biases else 0
        out["digits"] = hyper.bits * (wcount + bcount)
    return out
