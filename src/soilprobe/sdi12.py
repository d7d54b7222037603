r"""Encoder/decoder for the SDI-12 command subset spoken by a
TEROS-12-class soil probe, plus the measure-then-read transaction
sequencer.

Commands are ASCII frames terminated by '!'; responses are ASCII frames
terminated by CR LF.  The implemented subset and its replies:

    ?!              address query
    a!              acknowledge active
    aI!             identify
    aM!             start measurement  ->  "atttn\r\n" (delay, value count)
    aD0! .. aD9!    send data          ->  "a<sv><sv>...\r\n" signed values

where ``a`` is one address character from 0-9, a-z, A-Z, ``ttt`` is the
measurement delay in seconds (3 digits), ``n`` the number of values the
sensor will return (1 digit), and each ``<sv>`` is a decimal number with
a mandatory leading '+' or '-' and no exponent: ``[+-](d+(.d+)?|.d+)``,
at most 9 of them per frame.  Each of the three frame kinds (command,
measure ack, data frame) is one compiled bytes pattern below, and a
parser is one match of it plus a conversion.

Example:
    >>> encode_command(Command(Verb.START_MEASUREMENT, "0"))
    b'0M!'
    >>> parse_measure_ack(b"00013\r\n")
    MeasureAck(address='0', delay_s=1, value_count=3)
    >>> parse_data_response(b"0+2450.5+24.3+150\r\n").values
    (2450.5, 24.3, 150.0)

Parsing is total: any byte sequence either decodes to a typed value or
raises :class:`~soilprobe.errors.FrameError` (or ShapeError/RangeError
at the reading-decode stage); nothing else escapes.  These three and
the SilenceError of a transaction are each a
:class:`~soilprobe.errors.SensorFault`.  Every FrameError names a
byte: its ``position`` is where the match of the grammar stops,
the offset of the first element (address, verb, field, value or
terminator) that the frame gets wrong, or the frame's length when the
frame ends early.  A value too large for a float is rejected at its
sign.

A frame is anything bytes-like; an int or a list of ints raises
TypeError before a byte is copied (see :func:`frame_bytes`).

Work whose answer cannot change is done once, in two bounded
``functools.lru_cache`` memos.  ``_parse_measure_ack`` memoises
``parse_measure_ack`` on the frame's bytes, keeping results only, so a
rejected frame raises a fresh FrameError every time and grows no memo.
``_transaction_frames`` gives ``run_transaction`` the ``aM!`` and
``aD0!`` frames of each address it has checked.  The public
constructors of :class:`Command`, :class:`MeasureAck` and
:class:`DataResponse` check every field; ``parse_data_response`` builds
its result through a private constructor that skips those checks,
because the grammar and its overflow test have already made them.
The grammar has no text for an infinity or NaN, so ``format_value``
refuses one with the ConfigError that ``DataResponse`` raises for it.
"""

from __future__ import annotations

import functools
import math
import re
import string
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, FrameError, RangeError, ShapeError, SilenceError

COMMAND_TERMINATOR = b"!"
RESPONSE_TERMINATOR = b"\r\n"

ADDRESS_CHARS = frozenset(string.digits + string.ascii_letters)

# values a data frame can hold before the sensor must split across D0..D9
MAX_VALUES_PER_FRAME = 9

# deadline for a reply the sensor owes at once; see run_transaction
BASE_TIMEOUT_S = 1.0

# entries the measure-ack memo keeps: far more distinct acks than a
# mission receives, and a bound no input can push past
_PARSE_MEMO_SIZE = 256

# The grammar, one pattern per frame kind.  Every element after the
# address may be missing, and one the grammar requires nests the
# elements after it, so a match stops at the first element the frame
# gets wrong and only a whole frame reaches the terminator (see _match).
_COMMAND = re.compile(
    rb"(?:\?|(?P<address>[0-9A-Za-z])(?P<verb>[IM]|D(?P<index>\d))?)!?")
_MEASURE_ACK = re.compile(
    rb"(?P<address>[0-9A-Za-z])(?:(?P<delay>\d{3})(?:(?P<count>\d)(?:\r\n)?)?)?")
_VALUE = re.compile(rb"[+-](?:\d+(?:\.\d+)?|\.\d+)")
_DATA_RESPONSE = re.compile(
    rb"(?P<address>[0-9A-Za-z])(?P<values>(?:%s){0,%d})(?:\r\n)?"
    % (_VALUE.pattern, MAX_VALUES_PER_FRAME))


def frame_bytes(frame) -> bytes:
    """``frame`` as bytes; TypeError, before any copy, if not bytes-like."""
    return frame if type(frame) is bytes else bytes(memoryview(frame))


def _match(grammar: re.Pattern, frame: bytes, terminator: bytes,
           kind: str) -> re.Match:
    """Match a whole frame, or raise FrameError where the match stops."""
    frame = frame_bytes(frame)
    match = grammar.match(frame)
    stop = match.end() if match else 0
    if stop < len(frame):
        raise FrameError(f"{kind}: unexpected {frame[stop:stop + 1]!r}", position=stop)
    if not frame.endswith(terminator):
        raise FrameError(f"{kind} ends early", position=stop)
    return match


def check_address(address: str) -> str:
    """``address`` itself when it is one address character, else ConfigError."""
    if not (isinstance(address, str) and len(address) == 1 and address in ADDRESS_CHARS):
        raise ConfigError(f"invalid SDI-12 address {address!r}")
    return address


# -- Command frames ----------------------------------------------------------


class Verb(Enum):
    ADDRESS_QUERY = "address_query"
    ACKNOWLEDGE = "acknowledge"
    IDENTIFY = "identify"
    START_MEASUREMENT = "start_measurement"
    SEND_DATA = "send_data"


# verbs by their letter in a command frame; SEND_DATA also carries an index
_VERBS = {None: Verb.ACKNOWLEDGE, b"I": Verb.IDENTIFY, b"M": Verb.START_MEASUREMENT}


@dataclass(frozen=True)
class Command:
    """One SDI-12 command.

    ``address`` is ignored on the wire for ADDRESS_QUERY and ``index``
    only applies to SEND_DATA; both are normalized at construction so
    equal wire frames compare equal.
    """

    verb: Verb
    address: str = "0"
    index: int = 0

    def __post_init__(self):
        if self.verb is Verb.ADDRESS_QUERY:
            object.__setattr__(self, "address", "?")
        else:
            check_address(self.address)
        if self.verb is Verb.SEND_DATA:
            if not (isinstance(self.index, int) and 0 <= self.index <= 9):
                raise ConfigError(f"SEND_DATA index must be 0..9, got {self.index!r}")
        else:
            object.__setattr__(self, "index", 0)


def encode_command(cmd: Command) -> bytes:
    """Encode a command as its ASCII wire frame (terminated '!')."""
    if cmd.verb is Verb.ADDRESS_QUERY:
        return b"?!"
    if cmd.verb is Verb.ACKNOWLEDGE:
        return f"{cmd.address}!".encode("ascii")
    if cmd.verb is Verb.IDENTIFY:
        return f"{cmd.address}I!".encode("ascii")
    if cmd.verb is Verb.START_MEASUREMENT:
        return f"{cmd.address}M!".encode("ascii")
    return f"{cmd.address}D{cmd.index}!".encode("ascii")


def parse_command(frame: bytes) -> Command:
    """Decode a '!'-terminated command frame.

    Raises FrameError for anything outside the implemented subset.
    """
    match = _match(_COMMAND, frame, COMMAND_TERMINATOR, "command frame")
    address, verb, index = match.group("address", "verb", "index")
    if address is None:
        return Command(Verb.ADDRESS_QUERY)
    if index is not None:
        return Command(Verb.SEND_DATA, address.decode("ascii"), index=int(index))
    return Command(_VERBS[verb], address.decode("ascii"))


# -- Measurement acknowledge ("atttn") ---------------------------------------


@dataclass(frozen=True)
class MeasureAck:
    """Reply to aM!: measurement ready after ``delay_s``, ``value_count`` values."""

    address: str
    delay_s: int
    value_count: int

    def __post_init__(self):
        check_address(self.address)
        if not (isinstance(self.delay_s, int) and 0 <= self.delay_s <= 999):
            raise ConfigError(f"delay_s must be 0..999, got {self.delay_s!r}")
        if not (isinstance(self.value_count, int) and 0 <= self.value_count <= 9):
            raise ConfigError(f"value_count must be 0..9, got {self.value_count!r}")


def encode_measure_ack(ack: MeasureAck) -> bytes:
    return f"{ack.address}{ack.delay_s:03d}{ack.value_count}\r\n".encode("ascii")


def parse_measure_ack(frame: bytes) -> MeasureAck:
    """Decode an "atttn\\r\\n" measurement acknowledge (exactly 7 bytes)."""
    return _parse_measure_ack(frame_bytes(frame))


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def _parse_measure_ack(frame: bytes) -> MeasureAck:
    match = _match(_MEASURE_ACK, frame, RESPONSE_TERMINATOR, "measure ack")
    address, delay, count = match.group("address", "delay", "count")
    return MeasureAck(address.decode("ascii"), delay_s=int(delay), value_count=int(count))


# -- Data response ("a<+v><+v>...") ------------------------------------------


@dataclass(frozen=True)
class DataResponse:
    """Reply to aDn!: the sensor's values, in wire order."""

    address: str
    values: tuple[float, ...] = ()

    def __post_init__(self):
        check_address(self.address)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) > MAX_VALUES_PER_FRAME:
            raise ConfigError(f"at most {MAX_VALUES_PER_FRAME} values per frame")
        for v in self.values:
            _check_wire_value(v)


def _data_response(address: str, values: tuple[float, ...]) -> DataResponse:
    """A DataResponse built without its checks, for a caller that has made them.

    ``address`` must be one address character and ``values`` a tuple of
    at most MAX_VALUES_PER_FRAME finite floats.
    """
    resp = object.__new__(DataResponse)
    fields = vars(resp)  # in field order, as __init__ sets them
    fields["address"] = address
    fields["values"] = values
    return resp


def _check_wire_value(value: float):
    """Raise ConfigError unless ``value`` is finite, as the grammar requires."""
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value {value!r} cannot go on the wire")


def format_value(value: float) -> str:
    """Canonical signed wire text for one value.

    Fixed-point with up to 6 decimals, trailing zeros stripped:
    2450.5 -> "+2450.5", -0.5 -> "-0.5", 0.0 -> "+0".  Canonical form
    keeps encode(parse(encode(x))) byte-identical to encode(x).  An
    infinity or NaN has no wire text and raises ConfigError.
    """
    _check_wire_value(value)
    sign = "-" if value < 0 else "+"
    text = f"{abs(value):.6f}".rstrip("0").rstrip(".")
    return sign + text


def encode_data_response(resp: DataResponse) -> bytes:
    payload = "".join(map(format_value, resp.values))
    return f"{resp.address}{payload}\r\n".encode("ascii")


def parse_data_response(frame: bytes) -> DataResponse:
    """Decode a CR-LF-terminated data frame into address plus signed values.

    Every value must carry an explicit '+' or '-' and be a plain decimal
    that a float can hold.
    """
    match = _match(_DATA_RESPONSE, frame, RESPONSE_TERMINATOR, "data frame")
    start, end = match.span("values")
    texts = _VALUE.findall(match.string, start, end)
    values = tuple(map(float, texts))
    if not all(map(math.isfinite, values)):
        # the grammar admits no NaN: name the sign of the first infinity
        for text in texts:
            if math.isinf(float(text)):
                raise FrameError("data frame: value too large for a float",
                                 position=start)
            start += len(text)
    return _data_response(match["address"].decode("ascii"), values)


# -- Sensor reading ----------------------------------------------------------


@dataclass(frozen=True)
class RawReading:
    """One decoded sensor transaction: RAW counts, temperature, conductivity."""

    raw_counts: float
    temp_c: float
    ec_us_cm: float

    def __post_init__(self):
        if not (math.isfinite(self.raw_counts) and self.raw_counts >= 0):
            raise RangeError(f"raw_counts must be finite and >= 0, got {self.raw_counts!r}")
        if not (math.isfinite(self.temp_c) and -40.0 <= self.temp_c <= 60.0):
            raise RangeError(f"temp_c must be within [-40, 60] C, got {self.temp_c!r}")
        if not (math.isfinite(self.ec_us_cm) and self.ec_us_cm >= 0):
            raise RangeError(f"ec_us_cm must be finite and >= 0, got {self.ec_us_cm!r}")


def decode_reading(resp: DataResponse) -> RawReading:
    """Map a 3-value data response onto (RAW, temperature C, EC uS/cm).

    The wire order is fixed: RAW counts first, then temperature, then
    electrical conductivity.
    """
    if len(resp.values) != 3:
        raise ShapeError(f"expected 3 values (RAW, temp, EC), got {len(resp.values)}")
    raw, temp, ec = resp.values
    return RawReading(raw_counts=raw, temp_c=temp, ec_us_cm=ec)


# -- Transaction sequencer ---------------------------------------------------


@functools.lru_cache(maxsize=len(ADDRESS_CHARS))
def _transaction_frames(address: str) -> tuple[bytes, bytes]:
    """The aM! and aD0! frames for a checked address."""
    return (encode_command(Command(Verb.START_MEASUREMENT, address)),
            encode_command(Command(Verb.SEND_DATA, address, index=0)))


def run_transaction(sensor, address: str = "0", *, clock) -> RawReading:
    """Run exactly one measure-then-read cycle against a sensor handle.

    ``sensor`` must expose ``exchange(frame: bytes) -> bytes | None``;
    ``None`` means the sensor stayed silent past the deadline.  The
    deadline for each exchange is ``2 * known_delay + BASE_TIMEOUT_S``
    seconds, where the delay is 0 for the M command and the acknowledged
    delay for the D command.

    ``clock`` must expose ``advance(seconds)``; it is advanced by the
    acknowledged measurement delay and, on silence, by the expired
    deadline, so simulated missions account for sensor time without
    sleeping.

    Raises ConfigError for a bad address, before any frame is sent, and
    a SensorFault for what the sensor does wrong: FrameError/ShapeError/
    RangeError on malformed replies and SilenceError on silence.
    SilenceError is also a TimeoutError.
    """
    measure, send_data = _transaction_frames(check_address(address))
    reply = sensor.exchange(measure)
    if reply is None:
        clock.advance(BASE_TIMEOUT_S)
        raise SilenceError(f"sensor {address!r} silent on measure command "
                           f"for {BASE_TIMEOUT_S} s")
    ack = parse_measure_ack(reply)
    if ack.address != address:
        raise FrameError(f"measure ack from address {ack.address!r}, "
                         f"expected {address!r}", position=0)
    clock.advance(ack.delay_s)

    deadline = 2 * ack.delay_s + BASE_TIMEOUT_S
    reply = sensor.exchange(send_data)
    if reply is None:
        clock.advance(deadline)
        raise SilenceError(f"sensor {address!r} silent on data command "
                           f"for {deadline} s")
    resp = parse_data_response(reply)
    if resp.address != address:
        raise FrameError(f"data response from address {resp.address!r}, "
                         f"expected {address!r}", position=0)
    return decode_reading(resp)
