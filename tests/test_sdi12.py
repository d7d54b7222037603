"""Codec and transaction tests.

Derived expectations come from the frame grammar applied by hand and
are cross-checked by the encode/parse round-trip oracle.
"""

import doctest
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from soilprobe import fieldsim, sdi12
from soilprobe.errors import ConfigError, FrameError, RangeError, ShapeError
from soilprobe.fieldsim import SimClock
from soilprobe.sdi12 import (Command, DataResponse, MeasureAck, RawReading,
                             Verb, decode_reading, encode_command,
                             encode_data_response, encode_measure_ack,
                             check_address, format_value, parse_command,
                             parse_data_response, parse_measure_ack,
                             run_transaction)

from conftest import (ParsingTeros, ScriptedSensor, make_field, make_sensor,
                      parse_command_reference,
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
    pytest.param(parse_data_response, b"0+2.5-1" + b"0" * 400 + b"+3\r\n", 5,
                 id="overflow-second"),
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


# -- memos and the checks-skipping constructor --------------------------------


def _memos():
    """Every lru_cache memo in the codec and the virtual sensor."""
    return [f for module in (sdi12, fieldsim) for f in vars(module).values()
            if hasattr(f, "cache_info")]


@pytest.mark.parametrize("parser,frame", [
    (parse_command, b"0M!"),
    (parse_measure_ack, b"00013\r\n"),
    (parse_data_response, b"0+1.5-2\r\n"),
])
def test_parsers_accept_bytearray_and_memoryview(parser, frame):
    expected = parser(frame)
    assert parser(bytearray(frame)) == expected
    assert parser(memoryview(frame)) == expected
    assert parser(memoryview(bytearray(frame))) == expected
    with pytest.raises(FrameError):
        parser(bytearray(frame[:-1]))


def test_frame_errors_are_raised_afresh():
    # a memo keeps results only, so each call on a bad frame raises anew
    raised = []
    for parser, frame in ((parse_command, b"0X!"), (parse_command, b"0X!"),
                          (parse_measure_ack, b"0001\r\n"),
                          (parse_measure_ack, b"0001\r\n")):
        with pytest.raises(FrameError) as info:
            parser(frame)
        raised.append(info.value)
    assert len({id(exc) for exc in raised}) == 4
    assert [exc.position for exc in raised] == [1, 1, 4, 4]


@pytest.mark.parametrize("build,line", [
    (lambda: check_address("zz"), "invalid SDI-12 address 'zz'"),
    (lambda: Command(Verb.SEND_DATA, "0", index=10), "SEND_DATA index must be 0..9"),
    (lambda: MeasureAck("0", 1000, 3), "delay_s must be 0..999"),
    (lambda: MeasureAck("0", 1, 10), "value_count must be 0..9"),
    (lambda: DataResponse("0", (1.0,) * 10), "at most 9 values per frame"),
    (lambda: DataResponse("0", (math.inf,)), "non-finite value inf cannot go"),
], ids=["address", "index", "delay", "count", "values", "inf"])
def test_field_checks_raise_config_error(build, line):
    # a refused field is the package's own error, which the CLI reports
    with pytest.raises(ConfigError, match=line):
        build()


@pytest.mark.parametrize("address", [["0"], "00", None, "", "!", 0])
def test_run_transaction_rejects_bad_addresses_before_sending(address):
    sensor = ScriptedSensor([b"00013\r\n", b"0+1+2+3\r\n"])
    with pytest.raises(ValueError, match="invalid SDI-12 address"):
        run_transaction(sensor, address, clock=SimClock())
    assert sensor.trace == []


@pytest.mark.parametrize("take", ["parse_command", "parse_measure_ack",
                                  "parse_data_response", "exchange"])
@pytest.mark.parametrize("frame", [10 ** 7, [48, 77, 33], "0M!", None])
def test_only_bytes_like_objects_are_frames(take, frame):
    # an int n is not n zero bytes, nor a list of ints their bytes
    sensor = make_sensor(make_field())
    take = sensor.exchange if take == "exchange" else getattr(sdi12, take)
    tracemalloc.start()
    try:
        with pytest.raises(TypeError):
            take(frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert sensor.trace == []


def test_the_sensor_traces_bytes():
    sensor = make_sensor(make_field())
    assert sensor.exchange(bytearray(b"0!")) == b"0\r\n"
    assert sensor.trace == [b"0!"] and type(sensor.trace[0]) is bytes


@pytest.mark.parametrize("address", ["0", "z", "Q"])
def test_the_sensor_answers_as_the_parsing_reference(address):
    spec = make_field(noise=50.0, seed=808, blobs=[fieldsim.Blob(10.0, 2.0, 3.0, 0.2)])
    table, reference = (make_sensor(spec, address=address),
                        ParsingTeros(spec, spec.rng(), address=address))
    rng = np.random.default_rng(909)
    addresses = sorted(sdi12.ADDRESS_CHARS)
    frames = [b"?!"] + [f"{a}{verb}!".encode() for a in addresses
                        for verb in ("", "I", "M", *(f"D{i}" for i in range(10)))]
    assert len(set(frames)) == 807
    frames += _fuzzed_frames(np.random.default_rng(606), 12_000)
    frames = [frames[i] for i in rng.permutation(len(frames))]
    pair = [f"{address}M!".encode(), f"{address}D0!".encode()]
    answered = Counter()
    for i in range(0, len(frames), 10):
        x, in_soil = rng.uniform(0, 20), bool(rng.integers(2))
        for sensor in (table, reference):
            sensor.place(x, 2.0, in_soil)
        for frame in frames[i:i + 10] + pair:
            reply = table.exchange(frame)
            assert reply == reference.exchange(frame), frame
            answered[reply is not None] += 1
    assert table.trace == reference.trace
    # the 14 table frames, a pair after every ten frames, and the valid
    # frames among the fuzzed ones were answered; the rest got silence
    assert answered[True] > 14 + 2 * 1_280 and answered[False] > 10_000
    assert table.rng.random() == reference.rng.random()


@pytest.mark.parametrize("address", ["00", "", "!", None])
def test_the_sensor_refuses_a_bad_address_when_built(address):
    with pytest.raises(ValueError, match="invalid SDI-12 address"):
        make_sensor(make_field(), address=address)


def test_memos_stay_bounded():
    memos = _memos()
    assert len(memos) == 2
    assert all(memo.cache_info().maxsize is not None for memo in memos)
    addresses = sorted(sdi12.ADDRESS_CHARS)
    # 10,000 distinct acks, every command frame, and 10,000 distinct
    # frames no grammar accepts
    acks = [f"{addresses[i % 62]}{i // 62:03d}{i % 10}\r\n".encode()
            for i in range(10_000)]
    commands = [b"?!"] + [f"{a}{verb}!".encode() for a in addresses
                          for verb in ("", "I", "M", *(f"D{i}" for i in range(10)))]
    bad = [b"#%d!" % i for i in range(10_000)]
    assert len(set(acks + commands + bad)) == 10_000 + 807 + 10_000
    for frame in acks + commands + bad:
        for parser in (parse_command, parse_measure_ack, parse_data_response):
            try:
                parser(frame)
            except FrameError:
                pass
    for address in addresses:
        sensor = make_sensor(make_field(), address=address)
        sensor.place(1.0, 1.0, in_soil=True)
        assert run_transaction(sensor, address, clock=SimClock()).temp_c == 24.0
    for memo in memos:
        # filled to its bound, and no further
        info = memo.cache_info()
        assert info.currsize == info.maxsize <= 1024, memo.__name__


def test_parsed_data_responses_equal_publicly_built_ones():
    # the corpus of test_parsers_agree_with_the_hand_written_references
    accepted = 0
    for frame in _fuzzed_frames(np.random.default_rng(606), 20_000):
        try:
            resp = parse_data_response(frame)
        except FrameError:
            continue
        public = DataResponse(resp.address, resp.values)
        assert resp == public and hash(resp) == hash(public), frame
        assert all(type(v) is float for v in resp.values), frame
        assert encode_data_response(resp) == encode_data_response(public)
        accepted += 1
    assert accepted >= 100


@pytest.mark.parametrize("build", [
    lambda: DataResponse("0", (math.nan,)),
    lambda: DataResponse("0", (2.0, -math.inf)),
    lambda: DataResponse("0", (1.0,) * 10),
    lambda: DataResponse("00", ()),
    lambda: DataResponse(None, (1.0,)),
    lambda: Command(Verb.SEND_DATA, "!", index=0),
    lambda: MeasureAck("00", 1, 3),
    lambda: MeasureAck("0", 1000, 3),
    lambda: MeasureAck("0", 1, 10),
], ids=["nan", "minus-inf", "ten-values", "two-char-address", "no-address",
        "command-address", "ack-address", "ack-delay-1000", "ack-count-10"])
def test_public_constructors_keep_their_checks(build):
    with pytest.raises(ValueError):
        build()


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_format_value_refuses_what_has_no_wire_text(value):
    # the grammar has no infinity or NaN: the refusal is DataResponse's
    with pytest.raises(ConfigError, match=f"^non-finite value {value!r} cannot go on the wire$"):
        format_value(value)
    with pytest.raises(ConfigError, match=f"^non-finite value {value!r} cannot go on the wire$"):
        DataResponse("0", (value,))


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
        run_transaction(ScriptedSensor([b"garbage"]), "0", clock=SimClock())
    with pytest.raises(FrameError):
        run_transaction(ScriptedSensor([b"10013\r\n"]), "0", clock=SimClock())  # wrong address
    with pytest.raises(ShapeError):
        run_transaction(ScriptedSensor([b"00012\r\n", b"0+1+2\r\n"]), "0",
                        clock=SimClock())
    with pytest.raises(RangeError):
        run_transaction(ScriptedSensor([b"00013\r\n", b"0-5+24.3+150\r\n"]), "0",
                        clock=SimClock())


def test_run_transaction_issues_one_measure_one_data():
    sensor = ScriptedSensor([b"00003\r\n", b"0+2000+24+150\r\n"])
    run_transaction(sensor, "0", clock=SimClock())
    measures = [f for f in sensor.trace if f.endswith(b"M!")]
    data = [f for f in sensor.trace if b"D" in f]
    assert len(sensor.trace) == 2 and len(measures) == 1 and len(data) == 1
