"""Command-line front end: ``construct``, ``simulate``, and ``compare``.

Configurations come from flat ``key=value`` files (``#`` comments allowed)
whose keys are :class:`~nupolar.harness.ExperimentConfig` field names.
Every field is also a flag, ``--`` plus the name with dashes for
underscores (``--ebno`` is short for ``--ebno-sweep``); a flag's value is
parsed exactly like the file value and overrides it.  ``simulate`` writes
a CSV with columns ``ebno_db,frames,bit_errors,frame_errors,ber,fer`` plus
an optional JSON report; ``compare`` runs two configurations over a shared
sweep and writes a joint CSV with a leading ``label`` column, each run's
label being its configuration file's name without the extension, or its
path as given when the two names are the same.  A label that holds a comma,
a double quote, CR or LF is quoted as RFC 4180 says; any other is written
as it is.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing

from .construction import ConstructionError
from .harness import CHOICES, FIELD_TYPES, ExperimentConfig, build_spec, run_sweep


def _coerce(key: str, raw: str):
    if key not in FIELD_TYPES:
        raise ConstructionError(f"unknown configuration key {key!r}")
    kind = FIELD_TYPES[key]
    if kind == tuple[float, ...]:
        return tuple(float(tok) for tok in raw.replace(",", " ").split())
    # An optional field (``int | None``) parses as its first member.
    return (typing.get_args(kind) or (kind,))[0](raw)


def load_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConstructionError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (tok.strip() for tok in line.split("=", 1))
            values[key] = _coerce(key, raw)
    return values


def _merged_config(args, path: str | None) -> ExperimentConfig:
    values = load_config_file(path) if path else {}
    for name in FIELD_TYPES:
        raw = getattr(args, name)
        if raw is not None:
            values[name] = _coerce(name, raw)
    missing = [k for k in ("N", "K") if k not in values]
    if missing:
        raise ConstructionError(f"missing required configuration keys: {', '.join(missing)}")
    return ExperimentConfig(**values)


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_construct(args) -> int:
    cfg = _merged_config(args, args.config)
    spec = build_spec(cfg)
    _write_text(args.out, spec.to_json(indent=2) + "\n")
    return 0


def cmd_simulate(args) -> int:
    report = run_sweep(_merged_config(args, args.config), workers=args.workers)
    _write_text(args.out_csv, report.csv_text())
    if args.out_json:
        _write_text(args.out_json, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


def cmd_compare(args) -> int:
    paths = (args.config_a, args.config_b)
    labels = [path.rsplit("/", 1)[-1].rsplit(".", 1)[0] for path in paths]
    if labels[0] == labels[1]:
        labels = paths
    lines = []
    for path, label in zip(paths, labels):
        if any(c in label for c in ',"\r\n'):  # an RFC 4180 quoted field
            label = '"' + label.replace('"', '""') + '"'
        report = run_sweep(_merged_config(args, path), workers=args.workers)
        header, *rows = report.csv_text().splitlines(keepends=True)
        lines += [f"{label},{row}" for row in rows]
    _write_text(args.out_csv, f"label,{header}" + "".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nupolar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    fields = argparse.ArgumentParser(add_help=False)
    group = fields.add_argument_group(
        "configuration", "ExperimentConfig field names, with dashes for underscores; "
        "a value parses like the configuration-file value and overrides it")
    for name in FIELD_TYPES:
        group.add_argument("--" + name.replace("_", "-"), choices=CHOICES.get(name))

    p_construct = sub.add_parser("construct", help="build a code and emit its JSON spec", parents=[fields])
    p_construct.add_argument("--config", help="key=value configuration file")
    p_construct.add_argument("--out", default="-", help="output path (default stdout)")
    p_construct.set_defaults(func=cmd_construct)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo Eb/N0 sweep", parents=[fields])
    p_sim.add_argument("--config", help="key=value configuration file")
    p_sim.add_argument("--out-csv", default="-", help="CSV output path (default stdout)")
    p_sim.add_argument("--out-json", help="JSON report output path")
    p_sim.add_argument("--workers", type=int, default=1, help="worker processes (default 1: run in this process)")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run two configurations over a shared sweep", parents=[fields])
    p_cmp.add_argument("config_a", help="first key=value configuration file")
    p_cmp.add_argument("config_b", help="second key=value configuration file")
    p_cmp.add_argument("--out-csv", default="-", help="joint CSV output path (default stdout)")
    p_cmp.add_argument("--workers", type=int, default=1, help="worker processes (default 1: run in this process)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConstructionError included
        print(f"nupolar: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nupolar: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
