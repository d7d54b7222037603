"""Codec and transaction tests.

Derived expectations come from the frame grammar applied by hand and
are cross-checked by the encode/parse round-trip oracle.
"""

import doctest
import math
from collections import Counter

import numpy as np
import pytest

from soilprobe import sdi12
from soilprobe.errors import FrameError, RangeError, ShapeError
from soilprobe.fieldsim import SimClock
from soilprobe.sdi12 import (Command, DataResponse, MeasureAck, RawReading,
                             Verb, decode_reading, encode_command,
                             encode_data_response, encode_measure_ack,
                             format_value, parse_command, parse_data_response,
                             parse_measure_ack, run_transaction)

from conftest import (ScriptedSensor, parse_command_reference,
                      parse_data_response_reference,
                      parse_measure_ack_reference)

# a reply value no float holds: float() gives inf
OVERFLOW = b"0+1" + b"0" * 400 + b"\r\n"


def test_module_doctests():
    failures, _ = doctest.testmod(sdi12)
    assert failures == 0


# -- command encoding --------------------------------------------------------


@pytest.mark.parametrize("cmd,wire", [
    (Command(Verb.START_MEASUREMENT, "0"), b"0M!"),
    (Command(Verb.SEND_DATA, "0", index=0), b"0D0!"),
    (Command(Verb.ADDRESS_QUERY), b"?!"),
    (Command(Verb.ACKNOWLEDGE, "z"), b"z!"),
    (Command(Verb.IDENTIFY, "A"), b"AI!"),
    (Command(Verb.SEND_DATA, "3", index=9), b"3D9!"),
])
def test_encode_command(cmd, wire):
    assert encode_command(cmd) == wire


def test_command_validation():
    with pytest.raises(ValueError):
        Command(Verb.START_MEASUREMENT, "!")
    with pytest.raises(ValueError):
        Command(Verb.START_MEASUREMENT, "00")
    with pytest.raises(ValueError):
        Command(Verb.SEND_DATA, "0", index=10)


def test_command_round_trip_all_verbs():
    for verb in Verb:
        for address in "09azAZ":
            cmd = Command(verb, address, index=7 if verb is Verb.SEND_DATA else 0)
            assert parse_command(encode_command(cmd)) == cmd


@pytest.mark.parametrize("frame", [
    b"", b"!", b"0M", b"0m!", b"0X!", b"??!", b"0D!", b"0Dx!", b"0D00!",
    b"\xff!", b"0M!\r\n",
])
def test_parse_command_rejects(frame):
    with pytest.raises(FrameError):
        parse_command(frame)


# -- measure ack -------------------------------------------------------------


def test_parse_measure_ack_examples():
    # grammar applied by hand: '0' + '001' + '3', round-trips through encode
    assert encode_measure_ack(MeasureAck("0", 1, 3)) == b"00013\r\n"
    assert parse_measure_ack(b"00013\r\n") == MeasureAck("0", 1, 3)
    assert parse_measure_ack(b"10000\r\n") == MeasureAck("1", 0, 0)


@pytest.mark.parametrize("frame", [
    b"0A013\r\n",          # non-digit in ttt
    b"0001\r\n",           # too short
    b"000013\r\n",         # too long
    b"00013\n\r",          # terminator reversed
    b"00013\r ",           # bad terminator
    b"!0013\r\n",          # bad address
    b"0001x\r\n",          # non-digit count
])
def test_parse_measure_ack_rejects(frame):
    with pytest.raises(FrameError):
        parse_measure_ack(frame)


def test_measure_ack_round_trip_sweep():
    for delay in (0, 1, 42, 999):
        for count in range(10):
            ack = MeasureAck("7", delay, count)
            assert parse_measure_ack(encode_measure_ack(ack)) == ack


# -- data response -----------------------------------------------------------


def test_parse_data_response_examples():
    resp = parse_data_response(b"0+2450.5+24.3+150\r\n")
    assert resp == DataResponse("0", (2450.5, 24.3, 150.0))
    assert parse_data_response(b"0\r\n") == DataResponse("0", ())
    assert parse_data_response(b"0+1793.25-0.5+0\r\n").values == (1793.25, -0.5, 0.0)


def test_data_response_round_trip_examples():
    for values in [(), (2450.5, 24.3, 150.0), (1793.25, -0.5, 0.0), (0.0,)]:
        resp = DataResponse("0", values)
        wire = encode_data_response(resp)
        assert parse_data_response(wire) == resp
        assert encode_data_response(parse_data_response(wire)) == wire


@pytest.mark.parametrize("frame", [
    b"0123\r\n",            # missing leading sign
    b"0+\r\n",              # empty token
    b"0++5\r\n",            # empty token between signs
    b"0+5..5\r\n",          # malformed decimal
    b"0+5.\r\n",            # trailing dot
    b"0+1e3\r\n",           # exponent not in grammar
    b"0+1 2\r\n",           # embedded space
    b"\xc3\xa90+1\r\n",     # not ASCII
    b"0+1+2+3+4+5+6+7+8+9+10\r\n",  # ten values
    b"0+1",                 # no terminator
    pytest.param(OVERFLOW, id="overflow"),
])
def test_parse_data_response_rejects(frame):
    with pytest.raises(FrameError):
        parse_data_response(frame)


# where the match of the grammar stops: the first element the frame gets
# wrong, or the frame's length when it ends early
@pytest.mark.parametrize("parser,frame,position", [
    (parse_command, b"", 0),
    (parse_command, b"!", 0),
    (parse_command, b"0M", 2),
    (parse_command, b"0m!", 1),
    (parse_command, b"0X!", 1),
    (parse_command, b"??!", 1),
    (parse_command, b"0D!", 1),
    (parse_command, b"0Dx!", 1),
    (parse_command, b"0D00!", 3),
    (parse_command, b"\xff!", 0),
    (parse_command, b"0M!\r\n", 3),
    (parse_measure_ack, b"0A013\r\n", 1),
    (parse_measure_ack, b"0001\r\n", 4),
    (parse_measure_ack, b"000013\r\n", 5),
    (parse_measure_ack, b"00013\n\r", 5),
    (parse_measure_ack, b"00013\r ", 5),
    (parse_measure_ack, b"!0013\r\n", 0),
    (parse_measure_ack, b"0001x\r\n", 4),
    (parse_measure_ack, b"000A3\r\n", 1),  # the delay field, not its bad digit
    (parse_data_response, b"0123\r\n", 1),
    (parse_data_response, b"0+\r\n", 1),
    (parse_data_response, b"0++5\r\n", 1),
    (parse_data_response, b"0+5..5\r\n", 3),
    (parse_data_response, b"0+5.\r\n", 3),
    (parse_data_response, b"0+1e3\r\n", 3),
    (parse_data_response, b"0+1 2\r\n", 3),
    (parse_data_response, b"\xc3\xa90+1\r\n", 0),
    (parse_data_response, b"0+1+2+3+4+5+6+7+8+9+10\r\n", 19),
    (parse_data_response, b"0+1", 3),
    pytest.param(parse_data_response, OVERFLOW, 1, id="overflow"),
])
def test_frame_error_names_the_rejected_byte(parser, frame, position):
    with pytest.raises(FrameError) as info:
        parser(frame)
    assert info.value.position == position


def _fuzzed_frames(rng, count):
    """Criterion-4-style frames: valid frames of each kind, random bytes,
    and valid frames with one byte replaced, inserted or deleted, with a
    run of digits no float holds, or with the values of two data frames."""
    addresses = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    alphabet = b"09aZ?!IMD+-.e \r\n\xff"
    commands, acks, data = [], [], []
    for _ in range(1000):
        address = addresses[rng.integers(len(addresses))]
        commands.append(encode_command(Command(
            list(Verb)[rng.integers(len(Verb))], address, index=int(rng.integers(10)))))
        acks.append(encode_measure_ack(MeasureAck(
            address, int(rng.integers(1000)), int(rng.integers(10)))))
        data.append(encode_data_response(DataResponse(address, tuple(
            round(float(rng.uniform(-99_999.0, 99_999.0)), int(rng.integers(7)))
            for _ in range(rng.integers(10))))))
    valid = commands + acks + data
    pool = rng.integers(0, 256, size=16 * count, dtype=np.uint8).tobytes()
    for i in range(count):
        frame = bytearray(valid[rng.integers(len(valid))])
        at = int(rng.integers(len(frame)))
        kind = i % 8
        if kind == 1:
            frame = pool[16 * i:16 * i + rng.integers(16)]
        elif kind == 2:
            frame[at] = int(rng.integers(256))
        elif kind == 3:
            frame[at] = alphabet[rng.integers(len(alphabet))]
        elif kind == 4:
            frame.insert(at, alphabet[rng.integers(len(alphabet))])
        elif kind == 5:
            del frame[at]
        elif kind == 6:
            frame[at:at] = b"9" * 310
        elif kind == 7:
            frame = data[rng.integers(len(data))][:-2] + data[rng.integers(len(data))][1:]
        yield bytes(frame)


def test_parsers_agree_with_the_hand_written_references():
    pairs = ((parse_command, parse_command_reference),
             (parse_measure_ack, parse_measure_ack_reference),
             (parse_data_response, parse_data_response_reference))
    seen = Counter()
    for frame in _fuzzed_frames(np.random.default_rng(606), 20_000):
        for parser, reference in pairs:
            try:
                expected = repr(reference(frame))
            except FrameError:
                expected = FrameError
            except ValueError as exc:
                # the one difference: a value no float holds
                assert "non-finite" in str(exc)
                expected = FrameError
                seen["overflow"] += 1
            try:
                got = repr(parser(frame))
            except FrameError as exc:
                assert type(exc.position) is int
                got = FrameError
            assert got == expected, (parser.__name__, frame)
            seen[parser.__name__, got is FrameError] += 1
    # every parser both accepted and rejected frames, some for overflow
    assert min(seen.values()) >= 100 and len(seen) == 7


@pytest.mark.parametrize("value,text", [
    (0.0, "+0"),
    (-0.5, "-0.5"),
    (150.0, "+150"),
    (2450.5, "+2450.5"),
    (-0.0, "+0"),
    (1793.25, "+1793.25"),
    (0.000001, "+0.000001"),
])
def test_format_value_canonical(value, text):
    assert format_value(value) == text


# -- reading decode ----------------------------------------------------------


def test_decode_reading_maps_fields():
    r = decode_reading(DataResponse("0", (2450.5, 24.3, 150.0)))
    assert r == RawReading(raw_counts=2450.5, temp_c=24.3, ec_us_cm=150.0)


def test_decode_reading_shape_error():
    with pytest.raises(ShapeError):
        decode_reading(DataResponse("0", (2450.5, 24.3)))
    with pytest.raises(ShapeError):
        decode_reading(DataResponse("0", (1.0, 2.0, 3.0, 4.0)))


@pytest.mark.parametrize("values", [
    (-5.0, 24.3, 150.0),     # negative counts
    (2450.5, -60.0, 150.0),  # temperature below range
    (2450.5, 75.0, 150.0),   # temperature above range
    (2450.5, 24.3, -1.0),    # negative conductivity
])
def test_decode_reading_range_error(values):
    with pytest.raises(RangeError):
        decode_reading(DataResponse("0", values))


# -- transaction sequencer ---------------------------------------------------


def test_run_transaction_happy_path():
    sensor = ScriptedSensor([b"00013\r\n", b"0+2450.5+24.3+150\r\n"])
    clock = SimClock()
    reading = run_transaction(sensor, "0", clock=clock)
    assert reading.raw_counts == 2450.5
    assert sensor.trace == [b"0M!", b"0D0!"]
    assert clock.now == 1.0  # the acknowledged delay, nothing else


def test_run_transaction_silent_on_measure():
    clock = SimClock()
    with pytest.raises(TimeoutError):
        run_transaction(ScriptedSensor([None]), "0", clock=clock)
    assert clock.now == 1.0  # default deadline 2*0 + 1


def test_run_transaction_silent_on_data():
    clock = SimClock()
    with pytest.raises(TimeoutError):
        run_transaction(ScriptedSensor([b"00023\r\n", None]), "0", clock=clock)
    # delay 2, then expired deadline 2*2 + 1
    assert math.isclose(clock.now, 2.0 + 5.0)


def test_run_transaction_bad_frames():
    with pytest.raises(FrameError):
        run_transaction(ScriptedSensor([b"garbage"]), "0")
    with pytest.raises(FrameError):
        run_transaction(ScriptedSensor([b"10013\r\n"]), "0")  # wrong address
    with pytest.raises(ShapeError):
        run_transaction(ScriptedSensor([b"00012\r\n", b"0+1+2\r\n"]), "0")
    with pytest.raises(RangeError):
        run_transaction(ScriptedSensor([b"00013\r\n", b"0-5+24.3+150\r\n"]), "0")


def test_run_transaction_issues_one_measure_one_data():
    sensor = ScriptedSensor([b"00003\r\n", b"0+2000+24+150\r\n"])
    run_transaction(sensor, "0")
    measures = [f for f in sensor.trace if f.endswith(b"M!")]
    data = [f for f in sensor.trace if b"D" in f]
    assert len(sensor.trace) == 2 and len(measures) == 1 and len(data) == 1
