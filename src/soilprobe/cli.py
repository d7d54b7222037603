"""Command-line frontend.

    soilprobe simulate --config paper_field --out-log run.jsonl --out-summary summary.json
    soilprobe validate --log run.jsonl --out valid.jsonl
    soilprobe map --log valid.jsonl --out-points points.geojson --out-grid grid.asc
    soilprobe codec --parse 304d21
    soilprobe codec --encode 0D0

Exit codes: 0 on success.  A refusal writes one "<command>: <message>"
line on stderr, and `main`, the one place that catches it, exits with
the code of its type (EXIT_CODES):

    LogFormatError       3  a malformed sample log
    EmptyInputError      4  no valid samples to map
    FrameError           5  a frame that does not decode, "at byte N"
    ConfigError          2  a refused scenario, layout or flag, a log or
                            output path that cannot be read or written,
                            a file that two outputs name

Any other SoilProbeError exits 2 too.  A flag's refusal names the flag
and its value ("--seed -1: ...").  Any other exception is a defect and
raises.  Diagnostics go to stderr; data goes to stdout only when its
--out flag is omitted.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from collections import Counter

# each command imports the other modules it needs when it runs, so `codec`
# loads only sdi12 and errors, and `validate` never loads numpy
from . import sdi12
from .errors import (RANGES, ConfigError, EmptyInputError, FrameError,
                     LogFormatError, SoilProbeError, prefixed, require_seed)

# the exit code of each refusal type, looked up along the raised type's MRO
EXIT_CODES = {LogFormatError: 3, EmptyInputError: 4, FrameError: 5, SoilProbeError: 2}


def _emit(*outputs):
    """Write each (text, path) pair, to stdout when path is None.

    All or nothing for files.  A path that is absent or leads, through
    any symlinks, to a regular file is written to a temporary file
    beside that file, which keeps the file's mode.  Any other existing
    path, a device such as /dev/null or a FIFO, is written through once
    the temporary files are written.  Only when every output is written
    do the temporary files replace their files.  A path that cannot be
    written raises ConfigError naming it, once the temporary files are
    removed, so no regular file has changed.  So does a second path to
    the file of another output, before anything is written: one file
    cannot hold both.
    """
    files, staged, through = {}, [], []  # files: real path -> (text, mode, path)
    path = None
    try:
        for text, path in outputs:
            if path is None:
                continue
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and stat.S_ISDIR(mode):
                # refused here, before any file is replaced
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if mode is not None and not stat.S_ISREG(mode):
                through.append((text, path))
                continue
            real = os.path.realpath(path)
            if real in files:
                raise ConfigError(f"{path}: names the file of another output")
            files[real] = text, mode, path
        for real, (text, mode, path) in files.items():
            head, tail = os.path.split(real)
            tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((tmp, real))
            with open(fd, "w", encoding="ascii", newline="\n") as fh:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                fh.write(text)
        for text, path in through:
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        for tmp, _ in staged:
            try:
                os.remove(tmp)
            except OSError:
                pass  # already moved into place
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    for text, path in outputs:
        if path is None:
            sys.stdout.write(text)


def _diag(message: str):
    print(message, file=sys.stderr)


def cmd_simulate(args):
    from . import mission, scenario
    if args.seed is not None:
        with prefixed(f"--seed {args.seed}"):
            require_seed(args.seed)
    scn = scenario.load_scenario(args.config, seed_override=args.seed)
    samples, summary = mission.run_mission(scn.mission)
    _emit((mission.dump_sample_log(samples), args.out_log),
          (mission.dump_summary(summary), args.out_summary))
    _diag(f"simulate: scenario {scn.name!r}: {summary.points_total} points, "
          f"{summary.points_valid} valid, {summary.points_invalid} invalid, "
          f"{summary.duration_s:.1f} s simulated, "
          f"hull {summary.area_convex_hull_m2:.1f} m2")


def _read_log(path):
    """The samples of the log at ``path`` and their lines.  An unreadable
    log raises ConfigError, a malformed one LogFormatError naming it."""
    from . import mission
    try:
        return mission.read_sample_log(path)
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except LogFormatError as exc:
        raise LogFormatError(f"{path}: {exc}", exc.line_no) from None


def cmd_validate(args):
    from . import mission
    samples, lines = _read_log(args.log)
    # each valid record's line, copied as read: a checked line is ASCII
    valid = "".join(f"{line}\n" for sample, line in zip(samples, lines)
                    if sample.status is mission.Validity.VALID)
    _emit((valid, args.out))
    counts = Counter(s.status for s in samples)
    _diag(f"validate: {len(samples)} samples: " + ", ".join(
        f"{counts[status]} {status.value}" for status in mission.Validity))


def cmd_map(args):
    from . import geomap, mission
    # only validate copies the lines; held here, they add to map's peak memory
    samples = _read_log(args.log)[0]
    valid = mission.select_valid(samples)
    if not valid:
        raise EmptyInputError("no valid samples to interpolate")

    xy = geomap.samples_to_local(valid)
    theta = [s.theta for s in valid]
    ids = [s.point_id for s in valid]
    pad = args.cell_size
    bounds = (xy[:, 0].min() - pad, xy[:, 1].min() - pad,
              xy[:, 0].max() + pad, xy[:, 1].max() + pad)
    with prefixed(f"--cell-size {args.cell_size}"):
        grid = geomap.build_grid(xy, theta, bounds, cell_size_m=args.cell_size,
                                 ids=ids)
    _emit((geomap.export_points_geojson(samples), args.out_points),
          (geomap.export_grid_ascii(grid), args.out_grid))
    _diag(f"map: {len(valid)} valid samples onto {grid.nx} x {grid.ny} cells "
          f"of {grid.cell_size_m} m")


def cmd_codec(args):
    if args.parse is not None:
        try:
            frame = bytes.fromhex(args.parse)
        except ValueError as exc:
            raise ConfigError(f"not a hex string: {exc}") from None
        print(_parse_any(frame))
    else:
        spec = args.encode if args.encode.endswith("!") else args.encode + "!"
        try:
            frame = os.fsencode(spec)  # the bytes the command line held
        except UnicodeEncodeError as exc:  # a surrogate no command line holds
            raise ConfigError(f"not encodable: {exc}") from None
        wire = sdi12.encode_command(sdi12.parse_command(frame))
        print(f"{wire.hex()}  {wire.decode('ascii')}")


def _parse_any(frame: bytes):
    """Decode a frame as command, measure ack, or data response.

    A reply both parsers reject raises the error of the one whose
    grammar got further into the frame, the data parser's on a tie.
    """
    if frame.endswith(sdi12.COMMAND_TERMINATOR):
        return sdi12.parse_command(frame)
    try:
        return sdi12.parse_measure_ack(frame)
    except FrameError as ack_error:
        try:
            return sdi12.parse_data_response(frame)
        except FrameError as data_error:
            if ack_error.position > data_error.position:
                raise ack_error from None
            raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soilprobe",
        description="Simulated soil-moisture collection and mapping.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a simulated mission")
    p.add_argument("--config", required=True,
                   help="scenario path or bundled name (e.g. paper_field)")
    p.add_argument("--out-log", help="sample log path (default: stdout)")
    p.add_argument("--out-summary", help="summary path (default: stdout)")
    p.add_argument("--seed", type=int, help="override the field seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="count statuses, keep valid samples")
    p.add_argument("--log", required=True, help="sample log to read")
    p.add_argument("--out", help="valid-only log path (default: stdout)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("map", help="interpolate valid samples onto a raster")
    p.add_argument("--log", required=True, help="sample log to read")
    p.add_argument("--out-points", help="GeoJSON path (default: stdout)")
    p.add_argument("--out-grid", help="ESRI ASCII grid path (default: stdout)")
    p.add_argument("--cell-size", type=float, default=0.5,
                   help="grid cell size in metres, {:g} to {:g} (default 0.5)".format(
                       *RANGES["map"]["cell_size_m"][:2]))
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("codec", help="debug the wire codec")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--parse", metavar="HEX", help="decode a hex-encoded frame")
    g.add_argument("--encode", metavar="SPEC",
                   help="encode a command like '0M', '0D0', or '?'")
    p.set_defaults(func=cmd_codec)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code: 0, or on a refusal the
    code of its type in EXIT_CODES, after one "<command>: <message>"
    line on stderr, each line break in it written as its escape.  Any
    other exception is a defect, and raises."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except SoilProbeError as exc:
        at = (f" at byte {exc.position}"
              if isinstance(exc, FrameError) and exc.position is not None else "")
        _diag("".join(c if c.splitlines() == [c] else c.encode("unicode_escape").decode()
                      for c in f"{args.command}: {exc}{at}"))
        return next(EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
