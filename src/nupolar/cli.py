"""Command-line front end: ``construct``, ``simulate``, and ``compare``.

Configurations come from flat ``key=value`` files (``#`` comments allowed)
whose keys are :class:`~nupolar.harness.ExperimentConfig` field names;
command-line flags override file values.  ``simulate`` writes a CSV with
columns ``ebno_db,frames,bit_errors,frame_errors,ber,fer`` plus an
optional JSON report; ``compare`` runs two configurations over a shared
sweep and writes a joint CSV with a leading ``label`` column.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing

from .construction import ConstructionError
from .harness import CHOICES, ExperimentConfig, build_spec, run_sweep

_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _parse_sweep(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConstructionError(f"unknown configuration key {key!r}")
    kind = _FIELD_TYPES[key]
    if kind == tuple[float, ...]:
        return _parse_sweep(raw)
    if kind is bool:
        word = raw.strip().lower()
        if word not in _BOOLS:
            raise ConstructionError(f"{key} must be one of {', '.join(_BOOLS)}, got {raw!r}")
        return _BOOLS[word]
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


def _add_override_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--N", type=int, help="mother code length (power of two)")
    parser.add_argument("--M", type=int, help="transmitted length")
    parser.add_argument("--K", type=int, help="information length (includes CRC bits)")
    for name, allowed in CHOICES.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, choices=allowed)
    parser.add_argument("--list-size", dest="list_size", type=int)
    parser.add_argument("--crc-len", dest="crc_len", type=int)
    parser.add_argument("--design-snr-db", dest="design_snr_db", type=float)
    parser.add_argument("--ebno", dest="ebno_sweep", type=_parse_sweep, help="comma-separated Eb/N0 sweep in dB")
    parser.add_argument("--max-frames", dest="max_frames", type=int)
    parser.add_argument("--min-frame-errors", dest="min_frame_errors", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scl-threshold", dest="scl_threshold", type=float)
    parser.add_argument("--repeat", help="extension placement: tail, weak_info")
    parser.add_argument("--label")


def _merged_config(args, base: dict | None = None) -> ExperimentConfig:
    values = dict(base or {})
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
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
    cfg = _merged_config(args)
    spec = build_spec(cfg)
    _write_text(args.out, spec.to_json(indent=2) + "\n")
    return 0


def cmd_simulate(args) -> int:
    cfg = _merged_config(args)
    if args.emit_spec:
        _write_text(args.emit_spec, build_spec(cfg).to_json(indent=2) + "\n")
    report = run_sweep(cfg, workers=args.workers)
    _write_text(args.out_csv, report.csv_text())
    if args.out_json:
        _write_text(args.out_json, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


def cmd_compare(args) -> int:
    reports = []
    for path in (args.config_a, args.config_b):
        ns = argparse.Namespace(**vars(args))
        ns.config = path
        cfg = _merged_config(ns)
        if not cfg.label:
            cfg.label = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        reports.append((cfg.label, run_sweep(cfg, workers=args.workers)))
    lines = []
    for label, report in reports:
        header, *rows = report.csv_text().splitlines(keepends=True)
        lines += [f"{label},{row}" for row in rows]
    _write_text(args.out_csv, f"label,{header}" + "".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nupolar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a code and emit its JSON spec")
    p_construct.add_argument("--config", help="key=value configuration file")
    p_construct.add_argument("--out", default="-", help="output path (default stdout)")
    _add_override_flags(p_construct)
    p_construct.set_defaults(func=cmd_construct)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo Eb/N0 sweep")
    p_sim.add_argument("--config", help="key=value configuration file")
    p_sim.add_argument("--out-csv", default="-", help="CSV output path (default stdout)")
    p_sim.add_argument("--out-json", help="JSON report output path")
    p_sim.add_argument("--emit-spec", help="also write the constructed CodeSpec JSON here")
    p_sim.add_argument("--workers", type=int, help="worker processes (default: NUPOLAR_WORKERS env var or 1)")
    _add_override_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run two configurations over a shared sweep")
    p_cmp.add_argument("config_a", help="first key=value configuration file")
    p_cmp.add_argument("config_b", help="second key=value configuration file")
    p_cmp.add_argument("--out-csv", default="-", help="joint CSV output path (default stdout)")
    p_cmp.add_argument("--workers", type=int)
    _add_override_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionError, ValueError) as exc:
        print(f"nupolar: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nupolar: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
