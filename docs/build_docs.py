"""Build and check the public API reference from docstrings.

Three jobs, all CI-enforced (non-zero exit on violation):

1. **Docstring coverage** — every public symbol (module, class, function,
   public method) in the strict module set (``repro.engine.*``,
   ``repro.serving.*``, the relation/instance storage API) must carry a
   docstring.
2. **Reference integrity** — every ``:class:`` / ``:meth:`` / ``:func:`` /
   ``:mod:`` / ``:attr:`` cross-reference inside the documented docstrings
   must resolve: fully qualified names must import, short names must
   resolve through the defining module's namespace or the documented
   symbol table. Broken references fail the build.
3. **Markdown generation** — one ``docs/api/<module>.md`` per documented
   module plus a CLI reference generated from the argparse tree. The
   generated files are not tracked (``docs/api/`` is gitignored); CI
   regenerates them on every run and uploads them as an artifact.

When ``pdoc`` is importable (CI installs it; the pinned dev container may
not have it) ``--html`` additionally renders the same module set to
browsable HTML under ``docs/_site`` for the CI artifact. The markdown
generator — pure stdlib — is the canonical, always-available path.

Usage::

    PYTHONPATH=src python docs/build_docs.py [--check-only] [--html] [--out docs/api]
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: modules rendered into docs/api/ (order = site order)
API_MODULES = [
    "repro",
    "repro.concurrency",
    "repro.runtime",
    "repro.resilience",
    "repro.faultinject",
    "repro.engine",
    "repro.engine.engine",
    "repro.engine.plan",
    "repro.engine.cache",
    "repro.engine.signature",
    "repro.engine.fragments",
    "repro.query.qig",
    "repro.analysis",
    "repro.analysis.lint",
    "repro.analysis.witness",
    "repro.analysis.rules.locks",
    "repro.analysis.rules.determinism",
    "repro.analysis.rules.hygiene",
    "repro.serving",
    "repro.serving.cursor",
    "repro.serving.session",
    "repro.serving.manager",
    "repro.serving.batch",
    "repro.serving.server",
    "repro.database.relation",
    "repro.database.instance",
    "repro.database.indexes",
    "repro.database.columns",
    "repro.database.partition",
    "repro.enumeration.union_all",
    "repro.yannakakis.cdy",
    "repro.yannakakis.parallel",
]

#: modules where a missing public docstring fails the build
STRICT_PREFIXES = (
    "repro.engine",
    "repro.serving",
    "repro.database.relation",
    "repro.database.instance",
)

_REF = re.compile(r":(?:class|meth|func|mod|attr|exc|data):`~?\.?([\w.]+)`")


# --------------------------------------------------------------------- #
# introspection helpers

def public_members(module):
    """(name, obj) for the module's own public classes and functions, in
    definition order."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj


def public_methods(cls):
    """(name, func) for the class's own public methods/properties, in
    definition order. Dunders are exempt (the class docstring covers
    them); properties are documented like attributes."""
    for name, obj in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(obj, property):
            yield name, obj
        elif inspect.isfunction(obj):
            yield name, obj
        elif isinstance(obj, (classmethod, staticmethod)):
            yield name, obj.__func__


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return "(...)"


# --------------------------------------------------------------------- #
# checks

def check_docstrings(modules) -> list[str]:
    """Missing-docstring report for the strict module set."""
    problems = []
    for module in modules:
        if not module.__name__.startswith(STRICT_PREFIXES):
            continue
        if not (module.__doc__ or "").strip():
            problems.append(f"{module.__name__}: module docstring missing")
        for name, obj in public_members(module):
            qualified = f"{module.__name__}.{name}"
            if not (inspect.getdoc(obj) or "").strip():
                problems.append(f"{qualified}: docstring missing")
            if inspect.isclass(obj):
                for mname, method in public_methods(obj):
                    if not (inspect.getdoc(method) or "").strip():
                        problems.append(
                            f"{qualified}.{mname}: docstring missing"
                        )
    return problems


def _symbol_table(modules) -> dict:
    table: dict[str, object] = {}
    for module in modules:
        for name, obj in public_members(module):
            table.setdefault(name, obj)
    return table


def _resolves(target: str, module, table, context=None) -> bool:
    """Can *target* be resolved from its docstring's point of view?

    Tries, in order: the enclosing class (``:meth:`execute``` inside
    ``Engine``), the defining module's namespace, the documented symbol
    table, and finally a real import of the longest importable dotted
    prefix (covers both ``repro.…`` and stdlib targets like
    ``operator.itemgetter``).
    """
    head, *rest = target.split(".")
    candidates = []
    if context is not None and hasattr(context, head):
        candidates.append((getattr(context, head), rest))
    if hasattr(module, head):
        candidates.append((getattr(module, head), rest))
    if head in table:
        candidates.append((table[head], rest))
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        candidates.append((obj, parts[cut:]))
        break
    for obj, chain in candidates:
        ok = True
        for attribute in chain:
            if not hasattr(obj, attribute):
                ok = False
                break
            obj = getattr(obj, attribute)
        if ok:
            return True
    return False


def check_references(modules) -> list[str]:
    """Broken ``:role:`target``` cross-references across all docstrings."""
    table = _symbol_table(modules)
    problems = []
    for module in modules:
        docs = [(module.__name__, module.__doc__ or "", None)]
        for name, obj in public_members(module):
            context = obj if inspect.isclass(obj) else None
            docs.append(
                (f"{module.__name__}.{name}", inspect.getdoc(obj) or "", context)
            )
            if inspect.isclass(obj):
                for mname, method in public_methods(obj):
                    docs.append(
                        (
                            f"{module.__name__}.{name}.{mname}",
                            inspect.getdoc(method) or "",
                            obj,
                        )
                    )
        for where, text, context in docs:
            for match in _REF.finditer(text):
                target = match.group(1)
                if not _resolves(target, module, table, context):
                    problems.append(
                        f"{where}: broken reference `{target}`"
                    )
    return problems


# --------------------------------------------------------------------- #
# markdown generation

def render_module(module) -> str:
    lines = [f"# `{module.__name__}`", ""]
    lines += [(module.__doc__ or "").strip(), ""]
    for name, obj in public_members(module):
        if inspect.isclass(obj):
            lines += [f"## class `{name}`", ""]
            lines += ["```python", f"{name}{signature_of(obj)}", "```", ""]
            lines += [inspect.getdoc(obj) or "*(undocumented)*", ""]
            for mname, method in public_methods(obj):
                if isinstance(method, property):
                    lines += [f"### property `{name}.{mname}`", ""]
                    doc = inspect.getdoc(method.fget) if method.fget else None
                else:
                    lines += [
                        f"### `{name}.{mname}{signature_of(method)}`",
                        "",
                    ]
                    doc = inspect.getdoc(method)
                lines += [doc or "*(undocumented)*", ""]
        else:
            lines += [f"## `{name}{signature_of(obj)}`", ""]
            lines += [inspect.getdoc(obj) or "*(undocumented)*", ""]
    return "\n".join(lines).rstrip() + "\n"


def render_cli() -> str:
    """A CLI reference generated from the live argparse tree."""
    from repro.cli import build_parser

    parser = build_parser()
    lines = ["# Command-line interface", ""]
    lines += ["```text", parser.format_help().rstrip(), "```", ""]
    subparsers = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in subparsers.choices.items():
        lines += [f"## `repro {name}`", ""]
        lines += ["```text", sub.format_help().rstrip(), "```", ""]
    return "\n".join(lines).rstrip() + "\n"


def write_docs(modules, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for module in modules:
        path = out_dir / f"{module.__name__}.md"
        path.write_text(render_module(module))
        written.append(path)
    cli_path = out_dir / "cli.md"
    cli_path.write_text(render_cli())
    written.append(cli_path)
    index = out_dir / "README.md"
    index.write_text(
        "# API reference\n\nGenerated by `docs/build_docs.py` from the "
        "library docstrings — do not edit by hand.\n\n"
        + "\n".join(
            f"- [`{m.__name__}`]({m.__name__}.md)" for m in modules
        )
        + "\n- [Command-line interface](cli.md)\n"
    )
    written.append(index)
    return written


def build_html(out_dir: Path) -> bool:
    """Render browsable HTML with pdoc when it is installed."""
    try:
        import pdoc
    except ImportError:
        print(
            "pdoc is not installed; skipping HTML rendering "
            "(markdown reference is unaffected)",
            file=sys.stderr,
        )
        return False
    pdoc.pdoc(*API_MODULES, output_directory=out_dir)
    print(f"rendered HTML docs to {out_dir}")
    return True


# --------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="run coverage + reference checks without writing files",
    )
    parser.add_argument("--out", default=str(Path(__file__).parent / "api"))
    parser.add_argument(
        "--html",
        action="store_true",
        help="also render HTML via pdoc into docs/_site (requires pdoc; "
        "skipped with a warning when missing)",
    )
    args = parser.parse_args(argv)

    modules = [importlib.import_module(name) for name in API_MODULES]
    problems = check_docstrings(modules) + check_references(modules)
    if problems:
        print(f"{len(problems)} documentation problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(
        f"docs check ok: {len(modules)} modules, full public docstring "
        "coverage, all cross-references resolve"
    )
    if args.check_only:
        return 0
    written = write_docs(modules, Path(args.out))
    print(f"wrote {len(written)} markdown files to {args.out}")
    if args.html:
        build_html(Path(__file__).parent / "_site")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
