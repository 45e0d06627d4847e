"""Semantic pass: lower a parsed Estelle AST onto the executable classes.

The pass performs the static checks an Estelle compiler runs *before* code
generation — duplicate names, undeclared states/interaction points/roles,
interactions a role may not send or receive, ``msg`` used outside a ``when``
transition — raising located :class:`EstelleSemanticError` diagnostics.  It
then builds, per ``body``, a dynamically created subclass of
:class:`repro.estelle.module.Module` whose transitions interpret the action
ASTs, and assembles the instances and connections into a validated
:class:`repro.estelle.specification.Specification`.

Guards additionally carry a ``_python_source`` attribute: the guard
expression translated to a Python expression over ``_v`` (the module's
variable dict) and ``_i`` (the matched interaction).  The optimizing code
generator (:mod:`repro.runtime.codegen`) uses it to replace the interpreted
guard with a compiled closure.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..errors import EstelleError, SpecificationError
from ..interaction import Channel, ChannelRole
from ..module import Module, ModuleAttribute, ip
from ..specification import Specification
from ..transition import Transition, transition
from . import astnodes as ast
from .errors import EstelleSemanticError, SourceLocation


def split_ip_reference(name: str) -> Tuple[str, Optional[int]]:
    """Split a composed interaction-point reference into (base, index).

    ``"pts[2]"`` -> ``("pts", 2)``; a scalar reference returns ``(name,
    None)``.  Identifiers cannot contain brackets, so the composed spelling
    the parser produces is unambiguous.
    """
    if name.endswith("]"):
        base, _, index = name[:-1].partition("[")
        return base, int(index)
    return name, None

# -- expression evaluation ---------------------------------------------------------


def _eval(expr: ast.Expr, module: Module, interaction, env: Optional[Dict[str, Any]] = None) -> Any:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Name):
        if env is not None and expr.ident in env:
            return env[expr.ident]
        try:
            return module.variables[expr.ident]
        except KeyError:
            raise EstelleSemanticError(
                f"undefined variable {expr.ident!r} in module {module.path}",
                expr.loc,
            ) from None
    if isinstance(expr, ast.ParamRef):
        if interaction is None:
            raise EstelleSemanticError(
                f"'msg.{expr.param}' evaluated outside a 'when' transition",
                expr.loc,
            )
        return interaction.param(expr.param)
    if isinstance(expr, ast.Quantified):
        return _eval_quantified(expr, module, interaction, env)
    if isinstance(expr, ast.Unary):
        if expr.op == "not":
            return not _eval(expr.operand, module, interaction, env)
        return -_eval(expr.operand, module, interaction, env)
    if isinstance(expr, ast.Binary):
        if expr.op == "and":
            return bool(_eval(expr.left, module, interaction, env)) and bool(
                _eval(expr.right, module, interaction, env)
            )
        if expr.op == "or":
            return bool(_eval(expr.left, module, interaction, env)) or bool(
                _eval(expr.right, module, interaction, env)
            )
        left = _eval(expr.left, module, interaction, env)
        right = _eval(expr.right, module, interaction, env)
        op = expr.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "div":
            return left // right
        if op == "mod":
            return left % right
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    raise EstelleSemanticError(f"unsupported expression node {type(expr).__name__}", expr.loc)


def _quantifier_bound(value: Any, which: str, loc) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise EstelleSemanticError(
            f"quantifier {which} bound must be an integer, got {value!r}", loc
        )
    return value


def quantifier_range(low: Any, high: Any) -> range:
    """The inclusive quantifier domain with the interpreter's bound checks.

    Used by the *generated* guard sources (bound as ``_qrange`` by
    :mod:`repro.runtime.codegen`): bools and non-ints raise TypeError — which
    the generated guard's fallback turns into a re-evaluation through the
    interpreted guard and therefore the same located diagnostic — instead of
    ``range()`` silently accepting ``True`` as 1.
    """
    if (
        isinstance(low, bool)
        or not isinstance(low, int)
        or isinstance(high, bool)
        or not isinstance(high, int)
    ):
        raise TypeError(f"quantifier bounds must be integers, got {low!r} .. {high!r}")
    return range(low, high + 1)


def _eval_quantified(
    expr: ast.Quantified, module: Module, interaction, env: Optional[Dict[str, Any]]
) -> bool:
    low = _quantifier_bound(
        _eval(expr.low, module, interaction, env), "lower", expr.low.loc
    )
    high = _quantifier_bound(
        _eval(expr.high, module, interaction, env), "upper", expr.high.loc
    )
    scope = dict(env) if env else {}
    witnesses = (
        bool(_eval(expr.body, module, interaction, {**scope, expr.var: value}))
        for value in range(low, high + 1)
    )
    return any(witnesses) if expr.kind == "exist" else all(witnesses)


#: Python spellings of the binary operators for the guard-source translation.
_PY_BINOPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "div": "//",
    "mod": "%",
    "=": "==",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "and": "and",
    "or": "or",
}


def expr_to_python(
    expr: ast.Expr, bound: Optional[Dict[str, str]] = None, depth: int = 0
) -> str:
    """Translate an expression AST to Python source over ``_v`` and ``_i``.

    ``_v`` is the module's variable dict, ``_i`` the matched interaction.
    Every subexpression is parenthesised, so operator precedence is inherited
    from the AST rather than re-encoded.  ``bound`` maps quantifier-bound
    Estelle variable names to the Python comprehension variables that carry
    them (quantified bodies shadow module variables of the same name).
    ``depth`` is the number of enclosing quantifiers: a quantifier's
    comprehension variable is ``_q<depth>``, so it is a valid Python name
    whatever the Estelle name, and distinct from every enclosing one even
    when a body rebinds an outer name.
    """
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.Name):
        if bound is not None and expr.ident in bound:
            return bound[expr.ident]
        return f"_v[{expr.ident!r}]"
    if isinstance(expr, ast.ParamRef):
        return f"_i.params.get({expr.param!r})"
    if isinstance(expr, ast.Quantified):
        var = f"_q{depth}"
        scope = dict(bound) if bound else {}
        scope[expr.var] = var
        low = expr_to_python(expr.low, bound, depth)
        high = expr_to_python(expr.high, bound, depth)
        body = expr_to_python(expr.body, scope, depth + 1)
        reducer = "any" if expr.kind == "exist" else "all"
        return f"{reducer}(({body}) for {var} in _qrange(({low}), ({high})))"
    if isinstance(expr, ast.Unary):
        inner = expr_to_python(expr.operand, bound, depth)
        return f"(not {inner})" if expr.op == "not" else f"(-{inner})"
    if isinstance(expr, ast.Binary):
        left = expr_to_python(expr.left, bound, depth)
        right = expr_to_python(expr.right, bound, depth)
        return f"({left} {_PY_BINOPS[expr.op]} {right})"
    raise EstelleSemanticError(f"unsupported expression node {type(expr).__name__}", expr.loc)


# -- statement execution -----------------------------------------------------------


def _execute(
    statements: Tuple[ast.Stmt, ...],
    module: Module,
    interaction,
    as_defaults: bool = False,
    body_classes: Optional[Dict[str, Type[Module]]] = None,
) -> None:
    """Run an action block.

    ``as_defaults`` is used for the top level of ``initialize`` blocks:
    assignments there only seed a value when the variable was not already set
    by the instance's ``with`` clause (mirroring the ``setdefault`` idiom of
    the hand-written module bodies).

    ``body_classes`` is the specification's body-name -> module-class map,
    captured by the action closures at lowering time; ``init`` statements
    resolve their target body through it at execution time (so bodies may be
    declared after the body whose transition inits them).
    """
    for stmt in statements:
        if isinstance(stmt, ast.Assign):
            value = _eval(stmt.expr, module, interaction)
            if as_defaults:
                module.variables.setdefault(stmt.target, value)
            else:
                module.variables[stmt.target] = value
        elif isinstance(stmt, ast.OutputStmt):
            params = {
                name: _eval(value, module, interaction) for name, value in stmt.params
            }
            module.output(stmt.ip, stmt.interaction, **params)
        elif isinstance(stmt, ast.IfStmt):
            if _eval(stmt.condition, module, interaction):
                _execute(stmt.then_branch, module, interaction, body_classes=body_classes)
            else:
                _execute(stmt.else_branch, module, interaction, body_classes=body_classes)
        elif isinstance(stmt, ast.InitStmt):
            _execute_init(stmt, module, interaction, body_classes)
        elif isinstance(stmt, ast.ReleaseStmt):
            _execute_release(stmt, module)
        else:  # pragma: no cover - the parser only builds these kinds
            raise EstelleSemanticError(
                f"unsupported statement node {type(stmt).__name__}", stmt.loc
            )


def _execute_init(
    stmt: ast.InitStmt,
    module: Module,
    interaction,
    body_classes: Optional[Dict[str, Type[Module]]],
) -> None:
    """Estelle ``init``: create a child instance with a deterministic name.

    The child is named ``<var>#<serial>`` with a per-(instance, var) serial
    starting at 1, so re-initing a released variable yields a fresh,
    distinguishable ``module_path`` that is nevertheless identical across
    backends and dispatch strategies (the trace-stability rule).
    """
    body_class = (body_classes or {}).get(stmt.body)
    if body_class is None:  # statically checked; guards hand-built ASTs
        raise EstelleSemanticError(
            f"'init' refers to unknown body {stmt.body!r}", stmt.loc
        )
    existing = module.variables.get(stmt.var)
    if isinstance(existing, Module) and not existing.released:
        raise EstelleSemanticError(
            f"'init' into module variable {stmt.var!r} of {module.path} which "
            f"already holds the live instance {existing.path!r}; release it "
            "first",
            stmt.loc,
        )
    serial = module._init_serial.get(stmt.var, 0) + 1
    module._init_serial[stmt.var] = serial
    params = {name: _eval(expr, module, interaction) for name, expr in stmt.params}
    try:
        child = module.create_child(body_class, f"{stmt.var}#{serial}", **params)
    except EstelleError as exc:
        raise EstelleSemanticError(str(exc), stmt.loc) from exc
    module.variables[stmt.var] = child


def _execute_release(stmt: ast.ReleaseStmt, module: Module) -> None:
    """Estelle ``release``: destroy the child held by a module variable."""
    child = module.variables.get(stmt.var)
    if not isinstance(child, Module) or child.released or child.parent is not module:
        raise EstelleSemanticError(
            f"'release' of module variable {stmt.var!r} of {module.path} which "
            "does not hold a live child instance (double release, or released "
            "before any 'init'?)",
            stmt.loc,
        )
    try:
        module.release_child(child.name)
    except EstelleError as exc:
        raise EstelleSemanticError(str(exc), stmt.loc) from exc
    module.variables[stmt.var] = None


# -- static walks over action blocks -----------------------------------------------


def _walk_statements(statements: Tuple[ast.Stmt, ...]):
    for stmt in statements:
        yield stmt
        if isinstance(stmt, ast.IfStmt):
            yield from _walk_statements(stmt.then_branch)
            yield from _walk_statements(stmt.else_branch)


def _walk_expressions(statements: Tuple[ast.Stmt, ...]):
    for stmt in _walk_statements(statements):
        if isinstance(stmt, ast.Assign):
            yield stmt.expr
        elif isinstance(stmt, (ast.OutputStmt, ast.InitStmt)):
            for _, expr in stmt.params:
                yield expr
        elif isinstance(stmt, ast.IfStmt):
            yield stmt.condition


def _find_param_ref(expr: ast.Expr) -> Optional[ast.ParamRef]:
    if isinstance(expr, ast.ParamRef):
        return expr
    if isinstance(expr, ast.Unary):
        return _find_param_ref(expr.operand)
    if isinstance(expr, ast.Binary):
        return _find_param_ref(expr.left) or _find_param_ref(expr.right)
    if isinstance(expr, ast.Quantified):
        return (
            _find_param_ref(expr.low)
            or _find_param_ref(expr.high)
            or _find_param_ref(expr.body)
        )
    return None


# -- the lowering pass -------------------------------------------------------------


class _Lowering:
    def __init__(self, node: ast.SpecificationNode):
        self.node = node
        self.channels: Dict[str, Channel] = {}
        self.channel_nodes: Dict[str, ast.ChannelNode] = {}
        self.headers: Dict[str, ast.ModuleHeaderNode] = {}
        self.body_classes: Dict[str, Type[Module]] = {}
        self.body_nodes: Dict[str, ast.BodyNode] = {}
        #: ``init`` statements whose body references are resolved after every
        #: body has been lowered (forward references are legal).
        self._deferred_inits: List[Tuple[ast.InitStmt, str, ModuleAttribute]] = []
        #: per-header (ip_roles, array_bounds) maps, recorded while lowering
        #: bodies so ``connect`` references get the same precise array
        #: diagnostics as ``when``/``output`` clauses.
        self._header_ip_info: Dict[str, Tuple[Dict[str, ChannelRole], Dict[str, Tuple[int, int]]]] = {}

    def lower_classes(self) -> None:
        """Channels, headers and bodies to classes — everything that is per
        source, not per instance; :meth:`_assemble` then builds instances."""
        for channel_node in self.node.channels:
            self._lower_channel(channel_node)
        for header in self.node.headers:
            self._check_header(header)
        for body in self.node.bodies:
            self._lower_body(body)
        self._check_deferred_inits()

    def run(self) -> Specification:
        self.lower_classes()
        return self._assemble()

    def _check_deferred_inits(self) -> None:
        """Post-pass over every ``init`` statement: the target body must be
        declared somewhere in the specification, and its module attribute
        must be containable under the initing body's attribute (the same
        rule ``create_child`` enforces at runtime, caught at compile time)."""
        for stmt, body_name, parent_attribute in self._deferred_inits:
            child_class = self.body_classes.get(stmt.body)
            if child_class is None:
                raise EstelleSemanticError(
                    f"'init' in body {body_name!r} refers to undeclared body "
                    f"{stmt.body!r} (declared bodies: {sorted(self.body_classes)})",
                    stmt.loc,
                )
            child_attribute = child_class.ATTRIBUTE
            if not parent_attribute.may_contain(child_attribute):
                raise EstelleSemanticError(
                    f"a {parent_attribute.value} module may not 'init' a child "
                    f"with attribute {child_attribute.value} "
                    f"(body {stmt.body!r})",
                    stmt.loc,
                )

    # -- channels -----------------------------------------------------------------

    def _lower_channel(self, node: ast.ChannelNode) -> None:
        if node.name in self.channels:
            raise EstelleSemanticError(
                f"duplicate channel definition {node.name!r}", node.loc
            )
        roles = {role.name: role.interactions for role in node.roles}
        self.channels[node.name] = Channel(node.name, **roles)
        self.channel_nodes[node.name] = node

    # -- module headers -----------------------------------------------------------

    def _check_header(self, node: ast.ModuleHeaderNode) -> None:
        if node.name in self.headers:
            raise EstelleSemanticError(
                f"duplicate module definition {node.name!r}", node.loc
            )
        seen_ips = set()
        for ip_decl in node.ips:
            if ip_decl.name in seen_ips:
                raise EstelleSemanticError(
                    f"module {node.name!r} declares interaction point "
                    f"{ip_decl.name!r} twice",
                    ip_decl.loc,
                )
            seen_ips.add(ip_decl.name)
            if ip_decl.is_array and ip_decl.high < ip_decl.low:  # type: ignore[operator]
                raise EstelleSemanticError(
                    f"interaction-point array {ip_decl.name!r} of module "
                    f"{node.name!r} declares an empty range "
                    f"[{ip_decl.low}..{ip_decl.high}]",
                    ip_decl.loc,
                )
            channel = self.channels.get(ip_decl.channel)
            if channel is None:
                raise EstelleSemanticError(
                    f"interaction point {ip_decl.name!r} of module {node.name!r} "
                    f"refers to undeclared channel {ip_decl.channel!r}",
                    ip_decl.loc,
                )
            role_names = {role.name for role in self.channel_nodes[ip_decl.channel].roles}
            if ip_decl.role not in role_names:
                raise EstelleSemanticError(
                    f"channel {ip_decl.channel!r} has no role {ip_decl.role!r} "
                    f"(roles: {sorted(role_names)})",
                    ip_decl.loc,
                )
        self.headers[node.name] = node

    # -- bodies -------------------------------------------------------------------

    def _lower_body(self, node: ast.BodyNode) -> None:
        if node.name in self.body_classes:
            raise EstelleSemanticError(
                f"duplicate body definition {node.name!r}", node.loc
            )
        header = self.headers.get(node.header)
        if header is None:
            raise EstelleSemanticError(
                f"body {node.name!r} refers to undeclared module {node.header!r}",
                node.loc,
            )

        states: List[str] = []
        for state, loc in node.states:
            if state in states:
                raise EstelleSemanticError(
                    f"body {node.name!r} declares state {state!r} twice", loc
                )
            states.append(state)
        state_set = set(states)

        # Interaction points: scalars keep their name; an array declaration
        # expands into one InteractionPoint per index of its declared range,
        # named with the same "name[i]" spelling the parser composes for
        # indexed references — the deterministic naming that keeps canonical
        # trace fields (interaction_name is unaffected, module_path and the
        # ips dict keys) stable across backends and dispatch strategies.
        ip_roles: Dict[str, ChannelRole] = {}
        array_bounds: Dict[str, Tuple[int, int]] = {}
        for decl in header.ips:
            role = self.channels[decl.channel].role(decl.role)
            if decl.is_array:
                array_bounds[decl.name] = (decl.low, decl.high)  # type: ignore[assignment]
                for index in range(decl.low, decl.high + 1):  # type: ignore[arg-type]
                    ip_roles[f"{decl.name}[{index}]"] = role
            else:
                ip_roles[decl.name] = role
        self._header_ip_info[header.name] = (ip_roles, array_bounds)

        namespace: Dict[str, Any] = {
            "ATTRIBUTE": ModuleAttribute(header.attribute),
            "STATES": tuple(states),
            "INITIAL_STATE": None,
            "__doc__": f"Compiled from Estelle body {node.name!r} for module "
            f"{header.name!r}.",
            "__module__": __name__ + ".compiled",
        }
        for decl in header.ips:
            if decl.is_array:
                for index in range(decl.low, decl.high + 1):  # type: ignore[arg-type]
                    element = f"{decl.name}[{index}]"
                    namespace[element] = ip(
                        element, self.channels[decl.channel], role=decl.role
                    )
            else:
                namespace[decl.name] = ip(
                    decl.name, self.channels[decl.channel], role=decl.role
                )

        # Static checks for dynamic topology statements: collect the module
        # variables 'init'ed anywhere in this body (initialize block included)
        # so 'release' of a never-inited variable is a compile-time error, and
        # defer the body-name/attribute checks until every body is lowered.
        parent_attribute = ModuleAttribute(header.attribute)
        init_vars = set()
        blocks: List[Tuple[ast.Stmt, ...]] = [t.statements for t in node.transitions]
        if node.initialize is not None:
            blocks.append(node.initialize.statements)
        for block in blocks:
            for stmt in _walk_statements(block):
                if isinstance(stmt, ast.InitStmt):
                    init_vars.add(stmt.var)
                    self._deferred_inits.append((stmt, node.name, parent_attribute))
        for block in blocks:
            for stmt in _walk_statements(block):
                if isinstance(stmt, ast.ReleaseStmt) and stmt.var not in init_vars:
                    raise EstelleSemanticError(
                        f"'release' of module variable {stmt.var!r} which is "
                        f"never 'init'ed anywhere in body {node.name!r}",
                        stmt.loc,
                    )

        if node.initialize is not None:
            init = node.initialize
            if init.to_state is not None and init.to_state not in state_set:
                raise EstelleSemanticError(
                    f"initialize refers to undeclared state {init.to_state!r} "
                    f"(states: {sorted(state_set)})",
                    init.loc,
                )
            self._check_block(node, init.statements, ip_roles, array_bounds, has_when=False)
            namespace["INITIAL_STATE"] = init.to_state or (states[0] if states else None)
            namespace["initialise"] = _make_initialise(init, self.body_classes)
        elif states:
            namespace["INITIAL_STATE"] = states[0]

        for index, trans_node in enumerate(node.transitions):
            declared = self._lower_transition(
                node, trans_node, index, state_set, ip_roles, array_bounds
            )
            # The namespace already holds the reserved class attributes, the
            # IP declarations and every earlier transition, so one membership
            # check rejects duplicates *and* silent clobbering (a transition
            # named like an interaction point or 'initialise').
            if declared.name in namespace:
                raise EstelleSemanticError(
                    f"transition name {declared.name!r} collides with another "
                    f"declaration of body {node.name!r} (duplicate transition, "
                    "interaction point, or reserved module attribute)",
                    trans_node.loc,
                )
            namespace[declared.name] = declared

        self.body_classes[node.name] = type(node.name, (Module,), namespace)
        self.body_nodes[node.name] = node

    def _resolve_ip_role(
        self,
        header_name: str,
        ip_roles: Dict[str, ChannelRole],
        array_bounds: Dict[str, Tuple[int, int]],
        name: str,
        loc: SourceLocation,
        clause: str,
    ) -> ChannelRole:
        """Resolve an interaction-point reference with precise diagnostics.

        Distinguishes an out-of-range index on a declared array, a missing
        index on an array, an index on a scalar, and a plainly undeclared
        interaction point — each with the reference's source location.
        """
        role = ip_roles.get(name)
        if role is not None:
            return role
        base, index = split_ip_reference(name)
        bounds = array_bounds.get(base)
        if bounds is not None:
            low, high = bounds
            if index is None:
                raise EstelleSemanticError(
                    f"{clause} refers to interaction-point array {base!r} of "
                    f"module {header_name!r} without an index; declared range "
                    f"is [{low}..{high}]",
                    loc,
                )
            raise EstelleSemanticError(
                f"{clause} index {index} is out of the declared range "
                f"[{low}..{high}] of interaction-point array {base!r} of "
                f"module {header_name!r}",
                loc,
            )
        if index is not None and base in ip_roles:
            raise EstelleSemanticError(
                f"{clause} indexes interaction point {base!r} of module "
                f"{header_name!r}, which is not declared as an array",
                loc,
            )
        raise EstelleSemanticError(
            f"{clause} refers to undeclared interaction point {name!r} of "
            f"module {header_name!r} (declared: {sorted(ip_roles)})",
            loc,
        )

    def _lower_transition(
        self,
        body: ast.BodyNode,
        node: ast.TransNode,
        index: int,
        state_set: set,
        ip_roles: Dict[str, ChannelRole],
        array_bounds: Dict[str, Tuple[int, int]],
    ) -> Transition:
        for state in node.from_states:
            if state not in state_set:
                raise EstelleSemanticError(
                    f"transition refers to undeclared from-state {state!r} "
                    f"(states: {sorted(state_set)})",
                    node.loc,
                )
        if node.to_state is not None and node.to_state not in state_set:
            raise EstelleSemanticError(
                f"transition refers to undeclared to-state {node.to_state!r} "
                f"(states: {sorted(state_set)})",
                node.loc,
            )
        if node.when is not None:
            ip_name, interaction_name = node.when
            role = self._resolve_ip_role(
                body.header,
                ip_roles,
                array_bounds,
                ip_name,
                node.when_loc or node.loc,
                "'when'",
            )
            # Incoming interactions are the ones the *peer* role sends.
            if interaction_name not in role.peer.interactions:
                raise EstelleSemanticError(
                    f"interaction point {ip_name!r} (role {role.name!r} of channel "
                    f"{role.channel.name!r}) never receives {interaction_name!r}; "
                    f"receivable: {sorted(role.peer.interactions)}",
                    node.when_loc or node.loc,
                )
        self._check_block(
            body, node.statements, ip_roles, array_bounds, has_when=node.when is not None
        )
        if node.provided is not None and node.when is None:
            ref = _find_param_ref(node.provided)
            if ref is not None:
                raise EstelleSemanticError(
                    "'msg' may only be used in transitions with a 'when' clause",
                    ref.loc,
                )

        guard = _make_guard(node.provided) if node.provided is not None else None
        action = _make_action(node, self.body_classes)
        name = node.name or f"trans_{index}"
        action.__name__ = name
        try:
            return transition(
                from_state=tuple(node.from_states) if node.from_states else None,
                to_state=node.to_state,
                when=node.when,
                provided=guard,
                priority=node.priority,
                delay=node.delay,
                delay_max=node.delay_max,
                cost=node.cost,
                name=name,
            )(action)
        except EstelleError as exc:
            raise EstelleSemanticError(str(exc), node.loc) from exc

    def _check_block(
        self,
        body: ast.BodyNode,
        statements: Tuple[ast.Stmt, ...],
        ip_roles: Dict[str, ChannelRole],
        array_bounds: Dict[str, Tuple[int, int]],
        has_when: bool,
    ) -> None:
        for stmt in _walk_statements(statements):
            if isinstance(stmt, ast.OutputStmt):
                role = self._resolve_ip_role(
                    body.header, ip_roles, array_bounds, stmt.ip, stmt.loc, "'output'"
                )
                if not role.allows(stmt.interaction):
                    raise EstelleSemanticError(
                        f"interaction point {stmt.ip!r} (role {role.name!r} of "
                        f"channel {role.channel.name!r}) may not send "
                        f"{stmt.interaction!r}; sendable: {sorted(role.interactions)}",
                        stmt.loc,
                    )
        if not has_when:
            for expr in _walk_expressions(statements):
                ref = _find_param_ref(expr)
                if ref is not None:
                    raise EstelleSemanticError(
                        "'msg' may only be used in transitions with a 'when' clause",
                        ref.loc,
                    )

    # -- assembly -----------------------------------------------------------------

    def _assemble(self) -> Specification:
        spec = Specification(self.node.name)
        # Every lowered body is replayable by name: the multiprocess
        # coordinator resolves worker-reported dynamic 'init' events here.
        for body_class in self.body_classes.values():
            spec.register_body_class(body_class)
        instances: Dict[str, Module] = {}
        for inst in self.node.instances:
            if inst.name in instances:
                raise EstelleSemanticError(
                    f"duplicate instance name {inst.name!r}", inst.loc
                )
            body_class = self.body_classes.get(inst.body)
            if body_class is None:
                raise EstelleSemanticError(
                    f"instance {inst.name!r} refers to undeclared body {inst.body!r}",
                    inst.loc,
                )
            variables = {}
            for var, expr in inst.variables:
                value = _eval_constant(expr)
                variables[var] = value
            try:
                instances[inst.name] = spec.add_system_module(
                    body_class, inst.name, location=inst.location, **variables
                )
            except EstelleError as exc:
                raise EstelleSemanticError(str(exc), inst.loc) from exc
        for conn in self.node.connections:
            a = self._resolve_ip(instances, conn.a, conn.loc)
            b = self._resolve_ip(instances, conn.b, conn.loc)
            try:
                spec.connect(a, b)
            except EstelleError as exc:
                raise EstelleSemanticError(str(exc), conn.loc) from exc
        try:
            spec.validate()
        except EstelleSemanticError:
            raise
        except SpecificationError as exc:
            raise EstelleSemanticError(str(exc), self.node.loc) from exc
        return spec

    def _resolve_ip(
        self,
        instances: Dict[str, Module],
        ref: Tuple[str, str],
        loc: SourceLocation,
    ):
        instance_name, ip_name = ref
        instance = instances.get(instance_name)
        if instance is None:
            raise EstelleSemanticError(
                f"connect refers to undeclared instance {instance_name!r} "
                f"(declared: {sorted(instances)})",
                loc,
            )
        point = instance.ips.get(ip_name)
        if point is None:
            # Give connect the same precise array diagnostics (out-of-range
            # index, missing index, indexing a scalar) as when/output; plain
            # unknown names keep the instance-flavoured message below.
            body_name = type(instance).__name__
            header_name = self.body_nodes[body_name].header
            info = self._header_ip_info.get(header_name)
            if info is not None:
                ip_roles, array_bounds = info
                base, index = split_ip_reference(ip_name)
                if base in array_bounds or (index is not None and base in ip_roles):
                    self._resolve_ip_role(
                        header_name, ip_roles, array_bounds, ip_name, loc, "'connect'"
                    )
            raise EstelleSemanticError(
                f"instance {instance_name!r} has no interaction point {ip_name!r} "
                f"(declared: {sorted(instance.ips)})",
                loc,
            )
        return point


def _eval_constant(expr: ast.Expr) -> Any:
    """Evaluate an instance-variable initialiser (constants only)."""
    if isinstance(expr, (ast.Name, ast.ParamRef)):
        raise EstelleSemanticError(
            "instance variable initialisers must be constant expressions", expr.loc
        )
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Unary):
        value = _eval_constant(expr.operand)
        return (not value) if expr.op == "not" else -value
    if isinstance(expr, ast.Binary):
        probe = _find_param_ref(expr)
        if probe is not None:
            raise EstelleSemanticError(
                "instance variable initialisers must be constant expressions",
                probe.loc,
            )
        # Reuse the interpreter with a dummy module: Name nodes are rejected
        # above and by the recursion, so module state is never consulted.
        left = _eval_constant(expr.left)
        right = _eval_constant(expr.right)
        tmp = ast.Binary(loc=expr.loc, op=expr.op, left=ast.Literal(expr.loc, left), right=ast.Literal(expr.loc, right))
        return _eval(tmp, None, None)  # type: ignore[arg-type]
    raise EstelleSemanticError("instance variable initialisers must be constant expressions", expr.loc)


# -- closure factories -------------------------------------------------------------


def _make_guard(expr: ast.Expr) -> Callable[..., bool]:
    def guard(module, interaction=None):
        return bool(_eval(expr, module, interaction))

    guard._estelle_expr = expr
    guard._python_source = expr_to_python(expr)
    return guard


def _make_action(
    node: ast.TransNode, body_classes: Optional[Dict[str, Type[Module]]] = None
) -> Callable[..., None]:
    def action(module, interaction=None):
        _execute(node.statements, module, interaction, body_classes=body_classes)

    action._estelle_statements = node.statements
    return action


def _make_initialise(
    init: ast.InitializeNode, body_classes: Optional[Dict[str, Type[Module]]] = None
) -> Callable[[Module], None]:
    def initialise(self) -> None:
        Module.initialise(self)
        _execute(init.statements, self, None, as_defaults=True, body_classes=body_classes)
        if init.to_state is not None:
            self.state = init.to_state

    return initialise


def lower_specification(node: ast.SpecificationNode) -> Specification:
    """Lower a parsed specification AST to a validated :class:`Specification`."""
    return _Lowering(node).run()


class SpecificationTemplate:
    """A lowered-once specification that can instantiate many times.

    Lowering is the expensive half of compilation: every ``body`` becomes a
    dynamically created :class:`~repro.estelle.module.Module` subclass whose
    transitions close over their action ASTs.  Those classes carry no
    per-instance state (module state, variables, queues and timers all live
    on the instances), so one lowering can back any number of independent
    :class:`~repro.estelle.specification.Specification` trees —
    :meth:`instantiate` only re-runs the assembly step (fresh instances,
    connections, validation), which is O(instance state).

    Because all instances share the module *classes*, they also share every
    per-class compiled artefact downstream: the code generator's dispatch
    selectors (stored on each class) and the fused planner's programs (cached
    by tree shape).  This is the compile-once contract
    :meth:`repro.runtime.SpecSource.build` and the :mod:`repro.serve`
    registry build on.

    ``instantiate`` is safe to call concurrently from multiple threads: it
    only reads the lowered template and builds fresh objects.
    """

    def __init__(self, node: ast.SpecificationNode):
        self._lowering = _Lowering(node)
        self._lowering.lower_classes()
        # Fail at template-compile time, not on the first instantiate: the
        # assembly step performs the instance-level semantic checks
        # (duplicate instances, unknown bodies, connect diagnostics).
        self._lowering._assemble()

    @property
    def name(self) -> str:
        return self._lowering.node.name

    @property
    def body_classes(self) -> Dict[str, Type[Module]]:
        """The shared lowered module classes, by body name."""
        return dict(self._lowering.body_classes)

    def instantiate(self) -> Specification:
        """Build a fresh validated specification from the lowered template."""
        return self._lowering._assemble()
