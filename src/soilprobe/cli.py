"""Command-line frontend.

    soilprobe simulate --config paper_field --out-log run.jsonl --out-summary summary.json
    soilprobe validate --log run.jsonl --out valid.jsonl
    soilprobe map --log valid.jsonl --out-points points.geojson --out-grid grid.asc
    soilprobe codec --parse 304d21
    soilprobe codec --encode 0D0

Exit codes: 0 success, 2 scenario/config error or an output path that
cannot be written, 3 malformed sample log, 4 no valid samples to map,
5 frame decode error.  Diagnostics go to stderr; data goes to stdout
only when its --out flag is omitted.
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
from .errors import FrameError, LogFormatError, SoilProbeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BAD_LOG = 3
EXIT_NO_VALID = 4
EXIT_FRAME = 5


def _emit(command: str, *outputs) -> int:
    """Write each (text, path) pair, to stdout when path is None.

    All or nothing for files.  A path that is absent or leads, through
    any symlinks, to a regular file is written to a temporary file
    beside that file, which keeps the file's mode.  Any other existing
    path, a device such as /dev/null or a FIFO, is written through once
    the temporary files are written.  Only when every output is written
    do the temporary files replace their files.  Returns EXIT_OK, or
    EXIT_CONFIG after a one-line diagnostic when a path cannot be
    written; the temporary files are then removed, so no regular file
    has changed.
    """
    staged, through = [], []
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
        _diag(f"{command}: {path}: {exc.strerror or exc}")
        return EXIT_CONFIG
    for text, path in outputs:
        if path is None:
            sys.stdout.write(text)
    return EXIT_OK


def _diag(message: str):
    print(message, file=sys.stderr)


def cmd_simulate(args) -> int:
    from . import mission, scenario
    # only the package's own errors are config errors: any other is a defect
    try:
        scn = scenario.load_scenario(args.config, seed_override=args.seed)
        samples, summary = mission.run_mission(scn.mission)
        log = mission.dump_sample_log(samples)
        summary_text = mission.dump_summary(summary)
    except SoilProbeError as exc:
        _diag(f"simulate: {exc}")
        return EXIT_CONFIG
    code = _emit("simulate", (log, args.out_log),
                 (summary_text, args.out_summary))
    if code:
        return code
    _diag(f"simulate: scenario '{scn.name}': {summary.points_total} points, "
          f"{summary.points_valid} valid, {summary.points_invalid} invalid, "
          f"{summary.duration_s:.1f} s simulated, "
          f"hull {summary.area_convex_hull_m2:.1f} m2")
    return EXIT_OK


def _read_log(command: str, path):
    """(samples, their lines, EXIT_OK), or (None, None, exit code) after a
    one-line diagnostic."""
    from . import mission
    try:
        return *mission.read_sample_log(path), EXIT_OK
    except OSError as exc:
        _diag(f"{command}: {exc}")
        return None, None, EXIT_CONFIG
    except LogFormatError as exc:
        _diag(f"{command}: {path}: {exc}")
        return None, None, EXIT_BAD_LOG


def cmd_validate(args) -> int:
    from . import mission
    samples, lines, code = _read_log("validate", args.log)
    if code:
        return code
    # each valid record's line, copied as read: a checked line is ASCII
    valid = "".join(f"{line}\n" for sample, line in zip(samples, lines)
                    if sample.status is mission.Validity.VALID)
    code = _emit("validate", (valid, args.out))
    if code:
        return code
    counts = Counter(s.status.value for s in samples)
    _diag(f"validate: {len(samples)} samples: " + ", ".join(
        f"{counts.get(status.value, 0)} {status.value}"
        for status in mission.Validity))
    return EXIT_OK


def cmd_map(args) -> int:
    from . import geomap, mission
    samples, lines, code = _read_log("map", args.log)
    if code:
        return code
    del lines  # only validate copies them; held here, they add to map's peak memory
    valid = mission.select_valid(samples)
    if not valid:
        _diag("map: no valid samples to interpolate")
        return EXIT_NO_VALID
    try:
        params = geomap.IdwParams(power=args.power)
    except SoilProbeError as exc:
        _diag(f"map: --power {args.power}: {exc}")
        return EXIT_CONFIG

    xy = geomap.samples_to_local(valid)
    theta = [s.theta for s in valid]
    ids = [s.point_id for s in valid]
    pad = args.cell_size
    bounds = (xy[:, 0].min() - pad, xy[:, 1].min() - pad,
              xy[:, 0].max() + pad, xy[:, 1].max() + pad)
    try:
        grid = geomap.build_grid(xy, theta, bounds, params,
                                 cell_size_m=args.cell_size, ids=ids)
    except SoilProbeError as exc:
        _diag(f"map: {exc}")
        return EXIT_CONFIG
    code = _emit("map",
                 (geomap.export_points_geojson(samples), args.out_points),
                 (geomap.export_grid_ascii(grid), args.out_grid))
    if code:
        return code
    _diag(f"map: {len(valid)} valid samples onto {grid.nx} x {grid.ny} cells "
          f"of {grid.cell_size_m} m")
    return EXIT_OK


def cmd_codec(args) -> int:
    if args.parse is not None:
        try:
            frame = bytes.fromhex(args.parse)
        except ValueError as exc:
            _diag(f"codec: not a hex string: {exc}")
            return EXIT_CONFIG
    try:
        if args.parse is not None:
            print(_parse_any(frame))
        else:
            spec = args.encode if args.encode.endswith("!") else args.encode + "!"
            wire = sdi12.encode_command(
                sdi12.parse_command(spec.encode("ascii", errors="replace")))
            print(f"{wire.hex()}  {wire.decode('ascii')}")
    except FrameError as exc:
        where = "" if exc.position is None else f" at byte {exc.position}"
        _diag(f"codec: {exc}{where}")
        return EXIT_FRAME
    return EXIT_OK


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
                   help="grid cell size in metres (default 0.5)")
    p.add_argument("--power", type=float, default=2.0,
                   help="IDW power, at most 50 (default 2.0)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("codec", help="debug the wire codec")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--parse", metavar="HEX", help="decode a hex-encoded frame")
    g.add_argument("--encode", metavar="SPEC",
                   help="encode a command like '0M', '0D0', or '?'")
    p.set_defaults(func=cmd_codec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
