"""Wire schema: framing, versioning, request parsing, error taxonomy."""

import io
import json

import pytest

from repro.api import RunSpec
from repro.api.spec import SpecError
from repro.service import wire
from repro.service.durability import AdmissionRejected
from repro.service.scheduler import JobFailed, SchedulerClosed

SPEC_DICT = {"mix": "471+444", "scheme": "avgcc", "quota": 1_500, "warmup": 500}


# --------------------------------------------------------------------- #
# Length-prefixed framing
# --------------------------------------------------------------------- #


def roundtrip(*frames):
    buf = io.BytesIO()
    for frame in frames:
        wire.write_frame(buf, frame)
    buf.seek(0)
    return buf


def test_frame_roundtrip_single():
    buf = roundtrip({"type": "heartbeat", "v": 1, "busy": 2})
    assert wire.read_frame(buf) == {"type": "heartbeat", "v": 1, "busy": 2}
    assert wire.read_frame(buf) is None  # clean EOF


def test_frame_roundtrip_sequence_preserves_boundaries():
    frames = [wire.make_frame("heartbeat", busy=i) for i in range(5)]
    buf = roundtrip(*frames)
    assert [wire.read_frame(buf) for _ in range(5)] == frames
    assert wire.read_frame(buf) is None


def test_frame_payload_may_contain_newlines_and_unicode():
    frame = wire.make_frame("error", lease="L1", error="line1\nline2 — ünïcode")
    buf = roundtrip(frame)
    assert wire.read_frame(buf) == frame


def test_torn_frame_raises_instead_of_desynchronising():
    buf = roundtrip(wire.make_frame("heartbeat"))
    torn = io.BytesIO(buf.getvalue()[:-3])  # drop the payload's tail
    with pytest.raises(wire.WireError, match="torn"):
        wire.read_frame(torn)


def test_non_numeric_length_prefix_is_a_wire_error():
    with pytest.raises(wire.WireError, match="length prefix"):
        wire.read_frame(io.BytesIO(b"not-a-number\n{}"))


def test_absurd_length_prefix_is_corruption_not_allocation():
    huge = wire.MAX_FRAME_BYTES + 1
    with pytest.raises(wire.WireError, match="out of range"):
        wire.read_frame(io.BytesIO(b"%d\n" % huge))
    with pytest.raises(wire.WireError, match="out of range"):
        wire.read_frame(io.BytesIO(b"-5\n"))


def test_frame_payload_must_be_a_json_object():
    payload = json.dumps([1, 2, 3]).encode()
    buf = io.BytesIO(b"%d\n%s" % (len(payload), payload))
    with pytest.raises(wire.WireError, match="JSON object"):
        wire.read_frame(buf)


def test_invalid_json_payload_is_a_wire_error():
    buf = io.BytesIO(b"4\n{{{{")
    with pytest.raises(wire.WireError, match="not valid JSON"):
        wire.read_frame(buf)


# --------------------------------------------------------------------- #
# Frame construction and validation
# --------------------------------------------------------------------- #


def test_make_frame_stamps_version_and_type():
    frame = wire.make_frame("lease", lease="L7", payload={})
    assert frame["v"] == wire.PROTOCOL_VERSION
    assert frame["type"] == "lease"


def test_make_frame_rejects_unknown_type():
    with pytest.raises(wire.WireError, match="unknown cluster message type"):
        wire.make_frame("telepathy")


def test_check_frame_rejects_version_mismatch_with_taxonomy_code():
    frame = {"v": wire.PROTOCOL_VERSION + 1, "type": "hello"}
    with pytest.raises(wire.WireError) as info:
        wire.check_frame(frame)
    assert info.value.code == "protocol_mismatch"


def test_check_frame_rejects_unexpected_type():
    frame = wire.make_frame("heartbeat")
    with pytest.raises(wire.WireError, match="expected a 'hello' frame"):
        wire.check_frame(frame, expect="hello")


# --------------------------------------------------------------------- #
# Request parsing: both historical spellings, one typed Request
# --------------------------------------------------------------------- #


def test_parse_request_bare_spec():
    request = wire.parse_request(dict(SPEC_DICT), default_id=12)
    assert isinstance(request.spec, RunSpec)
    assert request.id == 12
    assert request.priority == 0


def test_parse_request_envelope_with_priority_id():
    request = wire.parse_request({"spec": SPEC_DICT, "priority": 5, "id": "job-1"})
    assert request.priority == 5
    assert request.id == "job-1"
    assert request.spec.scheme == "avgcc"


def test_parse_request_rejects_non_object():
    with pytest.raises(wire.WireError, match="expected a JSON object"):
        wire.parse_request([SPEC_DICT])


def test_parse_request_rejects_bad_priority():
    with pytest.raises(wire.WireError, match="priority"):
        wire.parse_request({"spec": SPEC_DICT, "priority": "high"})


def test_parse_request_version_mismatch_is_structured():
    envelope = {"spec": SPEC_DICT, "protocol_version": wire.PROTOCOL_VERSION + 9}
    with pytest.raises(wire.WireError) as info:
        wire.parse_request(envelope)
    assert info.value.code == "protocol_mismatch"


def test_parse_request_matching_version_accepted():
    envelope = {"spec": SPEC_DICT, "protocol_version": wire.PROTOCOL_VERSION}
    assert wire.parse_request(envelope).spec.name == "471+444/avgcc[quota=1500,warmup=500]"


def test_parse_request_invalid_spec_raises_spec_error():
    with pytest.raises(SpecError):
        wire.parse_request({"mix": "471+444", "scheme": "no-such-scheme"})


# --------------------------------------------------------------------- #
# Error taxonomy: one code vocabulary for every front-end
# --------------------------------------------------------------------- #


def test_classify_error_covers_the_service_exceptions():
    spec = RunSpec.from_dict(SPEC_DICT)
    cases = [
        (wire.WireError("v2?", code="protocol_mismatch"), "protocol_mismatch"),
        (SpecError("bad spec"), "spec_invalid"),
        (AdmissionRejected("queue full", retry_after=2.0), "shed"),
        (SchedulerClosed("closed"), "scheduler_closed"),
        (JobFailed(spec, "timeout"), "execution_failed"),
        (ValueError("not json"), "bad_request"),
        (RuntimeError("surprise"), "internal"),
    ]
    for exc, expected in cases:
        err = wire.classify_error(exc)
        assert err.code == expected, exc
        assert err.code in wire.ERROR_CODES


def test_classify_cancelled_error():
    from concurrent.futures import CancelledError

    err = wire.classify_error(CancelledError())
    assert err.code == "cancelled"
    assert "shut down" in err.message


def test_error_record_keeps_historical_convenience_keys():
    shed = wire.error_record(AdmissionRejected("full", retry_after=3.0))
    assert shed["ok"] is False
    assert shed["code"] == "shed"
    assert shed["shed"] is True
    assert shed["retry_after"] == 3.0

    from concurrent.futures import CancelledError

    cancelled = wire.error_record(CancelledError(), id=4)
    assert cancelled["cancelled"] is True
    assert cancelled["id"] == 4


def test_error_record_merges_extra_fields():
    record = wire.error_record(ValueError("nope"), spec="471+444/avgcc")
    assert record == {
        "ok": False,
        "code": "bad_request",
        "error": "nope",
        "spec": "471+444/avgcc",
    }


# --------------------------------------------------------------------- #
# Result transport
# --------------------------------------------------------------------- #


def test_encode_decode_result_roundtrip_preserves_digest():
    from repro.api import result_digest
    from repro.execution.simulate import simulate_spec

    result = simulate_spec(RunSpec.from_dict(SPEC_DICT).validate())
    clone = wire.decode_result(wire.encode_result(result))
    assert result_digest(clone) == result_digest(result)


def test_decode_result_garbage_is_a_wire_error():
    with pytest.raises(wire.WireError, match="undecodable"):
        wire.decode_result("not base64 pickle!!")
