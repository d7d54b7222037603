"""Spans around the public functions of each soilprobe layer, from outside.

``Tracer.install`` replaces each traced function at the place its
caller looks it up (the module attribute the caller reads), so no
source file of the package changes.  Every call appends one span:
name, start, end and the index of the enclosing span.  Spans stay in
memory until ``write`` dumps them after the run; ``layer_metrics``
turns them into self times, counts and rates.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter, defaultdict
from time import perf_counter

from soilprobe import actuator, fieldsim, geomap, mission, sampler, scenario, sdi12

# (owner, attribute the caller looks up, span name)
TRACED = (
    (scenario, "load_scenario", "scenario.load_scenario"),
    (scenario, "generate_waypoints", "mission.generate_waypoints"),
    (mission, "run_mission", "mission.run_mission"),
    (mission, "attempt_point", "sampler.attempt_point"),
    (mission, "convex_hull_area", "mission.convex_hull_area"),
    (mission, "dump_sample_log", "mission.dump_sample_log"),
    (mission, "read_sample_log", "mission.read_sample_log"),
    (mission, "parse_sample_log", "mission.parse_sample_log"),
    (sampler, "run_transaction", "sdi12.run_transaction"),
    (sdi12, "encode_command", "sdi12.encode_command"),
    (sdi12, "parse_data_response", "sdi12.parse_data_response"),
    (actuator, "lower_to", "actuator.lower_to"),
    (fieldsim, "obstruction_at", "fieldsim.obstruction_at"),
    (fieldsim.VirtualTeros, "exchange", "fieldsim.exchange"),
    (geomap, "samples_to_local", "geomap.samples_to_local"),
    (geomap, "build_grid", "geomap.build_grid"),
    (geomap, "idw_at", "geomap.idw_at"),
    (geomap, "export_points_geojson", "geomap.export_points_geojson"),
    (geomap, "export_grid_ascii", "geomap.export_grid_ascii"),
)

CLI_SPANS = ("cli.simulate", "cli.validate", "cli.map")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._sensor = None

    # -- recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, self.spans[index][3])

    def _wrap(self, original, name: str, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _track_sensor(self, original):
        def init(sensor, *args, **kwargs):
            original(sensor, *args, **kwargs)
            self._sensor = sensor
        return init

    def install(self):
        observers = {
            "mission.run_mission": self._on_run_mission,
            "sampler.attempt_point": self._on_attempt_point,
            "actuator.lower_to": self._on_lower_to,
            "mission.dump_sample_log": self._on_dump_sample_log,
            "mission.read_sample_log": self._on_read_sample_log,
            "geomap.build_grid": self._on_build_grid,
            "geomap.export_points_geojson": self._on_export_points_geojson,
            "geomap.export_grid_ascii": self._on_export_grid_ascii,
        }
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observers.get(name)))
        original = fieldsim.VirtualTeros.__init__
        self._originals.append((fieldsim.VirtualTeros, "__init__", original))
        fieldsim.VirtualTeros.__init__ = self._track_sensor(original)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- counts taken where the work happens ---------------------------------

    def _on_run_mission(self, args, result):
        self.counts["points"] += len(result[0])
        self.counts["trace_frames"] += len(self._sensor.trace)
        self._sensor = None

    def _on_attempt_point(self, args, result):
        self.counts["attempts"] += len(result.attempts)
        self.counts["valid_attempts"] += sum(
            a.validity.value == "valid" for a in result.attempts)

    def _on_lower_to(self, args, result):
        self.counts["stalls"] += result.stalled

    def _on_dump_sample_log(self, args, result):
        self.counts["dump_bytes"] += len(result)

    def _on_read_sample_log(self, args, result):
        self.counts["read_bytes"] += os.path.getsize(args[0])

    def _on_build_grid(self, args, result):
        self.counts["cell_samples"] += result.values.size * len(args[0])

    def _on_export_points_geojson(self, args, result):
        self.counts["geojson_bytes"] += len(result)

    def _on_export_grid_ascii(self, args, result):
        self.counts["ascii_bytes"] += len(result)

    # -- after the run -------------------------------------------------------

    def write(self, path):
        """Dump every span as tab-separated name, start, end, parent."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures over all traced passes: name -> (value, unit)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        exact_cells = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            if name == "geomap.idw_at" and parent >= 0 and \
                    self.spans[parent][0] == "geomap.build_grid":
                exact_cells += 1
        c = self.counts

        def per_call(table, name, scale):
            return table[name] * scale / calls[name] if calls[name] else 0.0

        def rate(nbytes, name):
            return nbytes / 1e6 / total[name] if total[name] else 0.0

        return {
            "sdi12.encode_command_us": (per_call(self_time, "sdi12.encode_command", 1e6), "us"),
            "sdi12.parse_data_response_us": (
                per_call(self_time, "sdi12.parse_data_response", 1e6), "us"),
            "sdi12.run_transaction_us": (per_call(self_time, "sdi12.run_transaction", 1e6), "us"),
            "sdi12.transactions": (calls["sdi12.run_transaction"] / passes, "count"),
            "sdi12.transaction_faults": (c["sdi12.run_transaction.raised"] / passes, "count"),
            "fieldsim.exchange_us": (per_call(self_time, "fieldsim.exchange", 1e6), "us"),
            "fieldsim.obstruction_at_us": (
                per_call(self_time, "fieldsim.obstruction_at", 1e6), "us"),
            "fieldsim.obstruction_at_calls": (calls["fieldsim.obstruction_at"] / passes, "count"),
            "fieldsim.trace_frames": (c["trace_frames"] / passes, "count"),
            "actuator.stall_ratio": (
                c["stalls"] / calls["actuator.lower_to"] if calls["actuator.lower_to"] else 0.0,
                "ratio"),
            "sampler.attempt_point_us": (
                self_time["sampler.attempt_point"] * 1e6 / c["points"] if c["points"] else 0.0,
                "us"),
            "sampler.attempts_per_point": (
                c["attempts"] / c["points"] if c["points"] else 0.0, "count"),
            "sampler.valid_attempt_ratio": (
                c["valid_attempts"] / c["attempts"] if c["attempts"] else 0.0, "ratio"),
            "mission.generate_waypoints_s": (per_call(total, "mission.generate_waypoints", 1), "s"),
            "mission.run_mission_us_per_point": (
                self_time["mission.run_mission"] * 1e6 / c["points"] if c["points"] else 0.0,
                "us"),
            "mission.convex_hull_ms": (per_call(total, "mission.convex_hull_area", 1e3), "ms"),
            "mission.dump_sample_log_mb_s": (
                rate(c["dump_bytes"], "mission.dump_sample_log"), "MB/s"),
            "mission.parse_sample_log_mb_s": (
                rate(c["read_bytes"], "mission.parse_sample_log"), "MB/s"),
            "scenario.load_self_ms": (per_call(self_time, "scenario.load_scenario", 1e3), "ms"),
            "geomap.build_grid_s": (per_call(total, "geomap.build_grid", 1), "s"),
            "geomap.cell_samples_per_s": (
                c["cell_samples"] / total["geomap.build_grid"]
                if total["geomap.build_grid"] else 0.0, "1/s"),
            "geomap.exact_cells": (exact_cells / passes, "count"),
            "geomap.samples_to_local_ms": (per_call(total, "geomap.samples_to_local", 1e3), "ms"),
            "geomap.export_grid_ascii_mb_s": (
                rate(c["ascii_bytes"], "geomap.export_grid_ascii"), "MB/s"),
            "geomap.export_points_geojson_mb_s": (
                rate(c["geojson_bytes"], "geomap.export_points_geojson"), "MB/s"),
            "cli.self_ms": (sum(self_time[n] for n in CLI_SPANS) * 1e3 / passes, "ms"),
        }
