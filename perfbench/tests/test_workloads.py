"""The generated serve request stream is a pure function of the seed."""

from workloads import MAX_BLOCK_LENGTH, Serve


class SmallServe(Serve):
    NUM_REQUESTS = 60
    HOT_BLOCKS = 16


def test_request_stream_is_deterministic_per_seed():
    first, again, other = (SmallServe().inputs(seed) for seed in (3, 3, 4))
    assert first == again
    assert first["requests"] != other["requests"]


def test_request_stream_mixes_a_hot_set_with_never_seen_blocks():
    inputs = SmallServe().inputs(5)
    requests = inputs["requests"]
    assert len(requests) == SmallServe.NUM_REQUESTS
    assert all(len(request) == SmallServe.BLOCKS_PER_REQUEST for request in requests)
    hot = set(inputs["hot"])
    assert len(hot) == SmallServe.HOT_BLOCKS
    slots = [text for request in requests for text in request]
    assert max(len(text.split("; ")) for text in slots) <= MAX_BLOCK_LENGTH
    fresh = [text for text in slots if text not in hot]
    assert len(set(fresh)) == len(fresh)               # each appears once
    assert 0.3 < 1 - len(fresh) / len(slots) < 0.7     # about half are hot
